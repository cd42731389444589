//! The `check` subcommand: is `b` worse than `a` by more than the bounds in
//! `BENCHMARK.json` allow?
//!
//! Each side is one result file or a comma-separated set of them (runs of
//! the same commit); rows are compared per (workload, metric) on medians.
//! A bounded row is `regress` when `b`'s median is worse by more than the
//! bound, and `unresolved` when the runs on either side spread wider than
//! the bound (interquartile range over median, as the driver takes it) —
//! unless every `b` run is better than every `a` run (then it
//! passes) or every one is worse and the median is over the bound (then it
//! regresses).  Per-layer rows have no bound and are listed for reading.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use crate::json::{self, Value};
use crate::spec::Better;
use crate::stats::{median, quartile_spread};
use crate::sysinfo::BENCH_DIR;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Pass,
    Regress,
    Unresolved,
    /// No bound: a per-layer metric.
    Info,
}

impl Status {
    fn as_str(self) -> &'static str {
        match self {
            Status::Pass => "pass",
            Status::Regress => "regress",
            Status::Unresolved => "unresolved",
            Status::Info => "-",
        }
    }
}

/// All runs' values of one (workload, metric) on one side.
#[derive(Debug, Default, Clone)]
struct Cell {
    values: Vec<f64>,
    better: Option<Better>,
    unit: String,
}

type Key = (String, String);

#[derive(Debug, Default)]
pub struct Side {
    cells: BTreeMap<Key, Cell>,
    /// Per workload: (attempted, failed), summed over the side's runs.
    operations: BTreeMap<String, (f64, f64)>,
}

impl Side {
    pub fn add(&mut self, doc: &Value) -> Result<(), String> {
        let rows = doc
            .get("rows")
            .and_then(Value::as_arr)
            .ok_or("result file lacks rows")?;
        for r in rows {
            let text = |key: &str| {
                r.get(key)
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("row lacks {key}"))
            };
            let value = r
                .get("value")
                .and_then(Value::as_f64)
                .ok_or("row lacks a numeric value")?;
            let cell = self
                .cells
                .entry((text("workload")?.into(), text("metric")?.into()))
                .or_default();
            cell.values.push(value);
            cell.unit = text("unit")?.into();
            cell.better = Some(match text("better")? {
                "higher" => Better::Higher,
                "lower" => Better::Lower,
                other => return Err(format!("row has better={other:?}")),
            });
        }
        for w in doc
            .get("workloads")
            .and_then(Value::as_arr)
            .ok_or("result file lacks workloads")?
        {
            let name = w
                .get("name")
                .and_then(Value::as_str)
                .ok_or("workload lacks name")?;
            let num = |key: &str| w.get(key).and_then(Value::as_f64).unwrap_or(0.0);
            let ops = self.operations.entry(name.into()).or_default();
            ops.0 += num("attempted");
            ops.1 += num("failed");
        }
        Ok(())
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a: f64,
    pub b: f64,
    /// Share of `a` by which `b` is worse (negative: better).
    pub worse_by: f64,
    pub status: Status,
}

fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, Status) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
        Better::Higher => (ma - mb) / ma.abs().max(f64::MIN_POSITIVE),
    };
    let is_worse = |x: f64, than: f64| match better {
        Better::Lower => x > than,
        Better::Higher => x < than,
    };
    let all = |pred: &dyn Fn(f64, f64) -> bool| b.iter().all(|&y| a.iter().all(|&x| pred(y, x)));
    let noisy = quartile_spread(a).max(quartile_spread(b)) > bound;
    let status = if !noisy {
        if worse_by > bound {
            Status::Regress
        } else {
            Status::Pass
        }
    } else if all(&|y, x| !is_worse(y, x)) {
        Status::Pass
    } else if worse_by > bound && all(&|y, x| is_worse(y, x)) {
        Status::Regress
    } else {
        Status::Unresolved
    };
    (worse_by, status)
}

/// Rows present on both sides, in (workload, metric) order.
pub fn compare(a: &Side, b: &Side, bounds: &BTreeMap<String, f64>) -> Vec<Verdict> {
    let mut verdicts = Vec::new();
    for (key, ca) in &a.cells {
        let Some(cb) = b.cells.get(key) else { continue };
        let better = ca.better.expect("set with the first value");
        let (worse_by, status) = match bounds.get(&key.1) {
            Some(&bound) => judge(&ca.values, &cb.values, better, bound),
            None => (
                judge(&ca.values, &cb.values, better, f64::INFINITY).0,
                Status::Info,
            ),
        };
        verdicts.push(Verdict {
            workload: key.0.clone(),
            metric: key.1.clone(),
            unit: ca.unit.clone(),
            a: median(&ca.values),
            b: median(&cb.values),
            worse_by,
            status,
        });
    }
    verdicts
}

/// The regression bound of every end-to-end metric in `BENCHMARK.json`.
pub fn bounds(benchmark_json: &Value) -> Result<BTreeMap<String, f64>, String> {
    benchmark_json
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json lacks end_to_end")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric lacks name")?;
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("metric lacks bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

fn load(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn load_side(list: &str) -> Result<Side, String> {
    let mut side = Side::default();
    for path in list.split(',').filter(|p| !p.is_empty()) {
        side.add(&load(Path::new(path))?)
            .map_err(|e| format!("{path}: {e}"))?;
    }
    if side.cells.is_empty() {
        return Err(format!("{list:?} holds no rows"));
    }
    Ok(side)
}

pub fn main(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!(
            "check takes two result files (or comma-separated sets)\n{}",
            crate::run::USAGE
        );
        return ExitCode::from(2);
    };
    let loaded = load(&Path::new(BENCH_DIR).join("../BENCHMARK.json"))
        .and_then(|doc| bounds(&doc))
        .and_then(|bounds| Ok((load_side(a)?, load_side(b)?, bounds)));
    let (a, b, bounds) = match loaded {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("check: {e}");
            return ExitCode::from(2);
        }
    };

    let verdicts = compare(&a, &b, &bounds);
    println!("| workload | metric | a | b | unit | worse by | bound | status |\n|---|---|---|---|---|---|---|---|");
    for v in &verdicts {
        let bound = bounds
            .get(&v.metric)
            .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0));
        println!(
            "| {} | {} | {} | {} | {} | {:+.1}% | {bound} | {} |",
            v.workload,
            v.metric,
            v.a,
            v.b,
            v.unit,
            v.worse_by * 100.0,
            v.status.as_str()
        );
    }
    println!("\n| workload | a failed/attempted | b failed/attempted |\n|---|---|---|");
    for (workload, (attempted, failed)) in &a.operations {
        let (b_attempted, b_failed) = b.operations.get(workload).copied().unwrap_or((0.0, 0.0));
        println!("| {workload} | {failed}/{attempted} | {b_failed}/{b_attempted} |");
    }
    let count = |s: Status| verdicts.iter().filter(|v| v.status == s).count();
    println!(
        "\n{} pass, {} regress, {} unresolved ({} per-layer rows listed without a bound)",
        count(Status::Pass),
        count(Status::Regress),
        count(Status::Unresolved),
        count(Status::Info)
    );
    if count(Status::Regress) > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(ops_per_s: f64, latency_ms: f64) -> Value {
        let row = |metric: &str, kind: &str, unit: &str, better: &str, value: f64| {
            Value::obj([
                ("workload", Value::str("train-ranks")),
                ("metric", Value::str(metric)),
                ("kind", Value::str(kind)),
                ("unit", Value::str(unit)),
                ("better", Value::str(better)),
                ("value", Value::Num(value)),
            ])
        };
        Value::obj([
            (
                "workloads",
                Value::Arr(vec![Value::obj([
                    ("name", Value::str("train-ranks")),
                    ("attempted", Value::Num(4.0)),
                    ("failed", Value::Num(0.0)),
                ])]),
            ),
            (
                "rows",
                Value::Arr(vec![
                    row("ops_per_s", "end_to_end", "1/s", "higher", ops_per_s),
                    row("latency_ms", "end_to_end", "ms", "lower", latency_ms),
                    row("updates_per_s", "per_layer", "1/s", "higher", ops_per_s),
                ]),
            ),
        ])
    }

    fn side(docs: &[Value]) -> Side {
        let mut s = Side::default();
        for d in docs {
            s.add(d).unwrap();
        }
        s
    }

    fn test_bounds() -> BTreeMap<String, f64> {
        [
            ("ops_per_s".to_string(), 0.1),
            ("latency_ms".to_string(), 0.1),
        ]
        .into()
    }

    fn status_of(verdicts: &[Verdict], metric: &str) -> Status {
        verdicts.iter().find(|v| v.metric == metric).unwrap().status
    }

    /// The issue's proof: a copy with throughput scaled by 0.8 is caught.
    #[test]
    fn a_twenty_percent_throughput_loss_is_a_regression() {
        let a = side(&[result(80e6, 100.0)]);
        let b = side(&[result(80e6 * 0.8, 100.0)]);
        let verdicts = compare(&a, &b, &test_bounds());
        assert_eq!(status_of(&verdicts, "ops_per_s"), Status::Regress);
        assert_eq!(status_of(&verdicts, "latency_ms"), Status::Pass);
        // The named metric moved too, but carries no bound.
        assert_eq!(status_of(&verdicts, "updates_per_s"), Status::Info);
        let v = verdicts.iter().find(|v| v.metric == "ops_per_s").unwrap();
        assert!((v.worse_by - 0.2).abs() < 1e-12);
    }

    #[test]
    fn identical_files_pass_and_direction_is_respected() {
        let a = side(&[result(80e6, 100.0)]);
        assert!(compare(&a, &a, &test_bounds())
            .iter()
            .all(|v| v.status != Status::Regress));
        // Higher throughput and lower latency are improvements, however big.
        let b = side(&[result(160e6, 50.0)]);
        let verdicts = compare(&a, &b, &test_bounds());
        assert_eq!(status_of(&verdicts, "ops_per_s"), Status::Pass);
        assert_eq!(status_of(&verdicts, "latency_ms"), Status::Pass);
        // 15% more latency is over the 10% bound.
        let b = side(&[result(80e6, 115.0)]);
        assert_eq!(
            status_of(&compare(&a, &b, &test_bounds()), "latency_ms"),
            Status::Regress
        );
    }

    #[test]
    fn sets_that_spread_wider_than_the_bound_are_unresolved() {
        // Both sides swing 25% run to run; medians differ by 5%.
        let a = side(&[
            result(70e6, 100.0),
            result(80e6, 100.0),
            result(90e6, 100.0),
        ]);
        let b = side(&[
            result(66e6, 100.0),
            result(76e6, 100.0),
            result(86e6, 100.0),
        ]);
        assert_eq!(
            status_of(&compare(&a, &b, &test_bounds()), "ops_per_s"),
            Status::Unresolved
        );
        // Noisy, but every b run beats every a run: resolved, and a pass.
        let b = side(&[
            result(95e6, 100.0),
            result(110e6, 100.0),
            result(120e6, 100.0),
        ]);
        assert_eq!(
            status_of(&compare(&a, &b, &test_bounds()), "ops_per_s"),
            Status::Pass
        );
        // Noisy, every b run below every a run, median 40% down: regress.
        let b = side(&[
            result(40e6, 100.0),
            result(48e6, 100.0),
            result(55e6, 100.0),
        ]);
        assert_eq!(
            status_of(&compare(&a, &b, &test_bounds()), "ops_per_s"),
            Status::Regress
        );
        // Tight sets are judged on medians alone.
        let a = side(&[
            result(80e6, 100.0),
            result(81e6, 100.0),
            result(82e6, 100.0),
        ]);
        let b = side(&[
            result(79e6, 100.0),
            result(80e6, 100.0),
            result(81e6, 100.0),
        ]);
        assert_eq!(
            status_of(&compare(&a, &b, &test_bounds()), "ops_per_s"),
            Status::Pass
        );
    }

    /// What `run` writes, `check` reads back bit for bit.
    #[test]
    fn result_rows_round_trip_through_the_file_format() {
        let metric = crate::spec::metric("ops_per_s").unwrap();
        let value = 0.1 + 0.2;
        let doc = Value::obj([
            (
                "workloads",
                Value::Arr(vec![Value::obj([
                    ("name", Value::str("train-ranks")),
                    ("attempted", Value::Num(3.0)),
                    ("failed", Value::Num(1.0)),
                ])]),
            ),
            (
                "rows",
                Value::Arr(vec![crate::run::row(
                    "train-ranks",
                    "end_to_end",
                    metric,
                    value,
                )]),
            ),
        ]);
        let s = side(&[json::parse(&doc.render_pretty()).unwrap()]);
        let cell = &s.cells[&("train-ranks".to_string(), "ops_per_s".to_string())];
        assert_eq!(cell.values[0].to_bits(), value.to_bits());
        assert_eq!(
            (cell.unit.as_str(), cell.better),
            ("1/s", Some(Better::Higher))
        );
        assert_eq!(s.operations["train-ranks"], (3.0, 1.0));
    }

    #[test]
    fn failed_operation_counts_add_up_over_a_set() {
        let s = side(&[result(1.0, 1.0), result(1.0, 1.0)]);
        assert_eq!(s.operations["train-ranks"], (8.0, 0.0));
    }
}
