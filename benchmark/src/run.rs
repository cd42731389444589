//! The `run` subcommand.
//!
//! With `--workload`, this process *is* the fresh harness process: it
//! measures that workload, prints every metric, writes `result.json` (and
//! `trace.jsonl` when traced) and ends with the one-line JSON object the
//! driver reads.  Without `--workload` it runs each workload in a child of
//! its own — so every `peak_rss_mb` is that workload's alone — and merges
//! the children's result files.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::harness::{Ctx, Outcome};
use crate::json::{self, Value};
use crate::spec::{self, Metric, END_TO_END, PER_LAYER, WORKLOADS};
use crate::sysinfo::{self, BENCH_DIR};
use crate::trace::{layer_table, Tracer};
use crate::workloads;

pub const SCHEMA: &str = "nomad-benchmark-v1";
/// `run_seconds` in `BENCHMARK.json`: what the driver passes.
pub const DEFAULT_SECONDS: u64 = 25;

#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
    pub out: Option<PathBuf>,
}

pub const USAGE: &str = "\
usage: nomad-benchmark run [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out DIR]
       nomad-benchmark check <a.json[,a2.json...]> <b.json[,b2.json...]>

run    measures one workload (or, without --workload, all four, each in its
       own process), checks outputs, prints every metric with its unit and
       writes <DIR>/result.json; --trace adds spans, the per-layer metrics
       and <DIR>/trace.jsonl.  DIR defaults to benchmark/out/<run>/.
check  compares two result files (or two comma-separated sets of them) row
       by row against the bounds in BENCHMARK.json; exits 1 on a regression.

workloads: train-local, train-ranks, serve-static, serve-mesh";

pub fn parse_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if spec::workload(&name).is_none() {
                    return Err(format!("unknown workload {name:?}"));
                }
                parsed.workload = Some(name);
            }
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or("--seconds takes a whole number from 1 to 60")?;
            }
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            "--smoke" => parsed.smoke = true,
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unrecognized argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn run_id() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    format!("{secs}-{}", std::process::id())
}

fn default_out(suffix: &str) -> PathBuf {
    Path::new(BENCH_DIR)
        .join("out")
        .join(format!("{}{suffix}", run_id()))
}

pub fn main(args: &[String]) -> ExitCode {
    let args = match parse_args(args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match &args.workload {
        Some(workload) => run_one(workload, &args),
        None => run_all(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark failed, no result written: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One `rows` entry of a result file.
pub fn row(workload: &str, kind: &str, m: &Metric, value: f64) -> Value {
    Value::obj([
        ("workload", Value::str(workload)),
        ("metric", Value::str(m.name)),
        ("kind", Value::str(kind)),
        ("unit", Value::str(m.unit)),
        ("better", Value::str(m.better.as_str())),
        ("value", Value::Num(value)),
    ])
}

fn meta(args: &RunArgs) -> Value {
    let Value::Obj(mut fields) = sysinfo::describe() else {
        unreachable!("describe() builds an object")
    };
    fields.push(("seed".into(), Value::Num(args.seed as f64)));
    fields.push(("seconds".into(), Value::Num(args.seconds as f64)));
    fields.push(("smoke".into(), Value::Bool(args.smoke)));
    Value::Obj(fields)
}

/// The end-to-end metrics in table order: what the workload measured, with
/// this process's memory high-water mark.
fn end_to_end(workload: &str, outcome: &Outcome) -> Result<Vec<(&'static Metric, f64)>, String> {
    let peak = sysinfo::peak_rss_mb().ok_or("VmHWM unreadable from /proc/self/status")?;
    END_TO_END
        .iter()
        .map(|m| {
            let value = match m.name {
                "peak_rss_mb" => Some(peak),
                name => outcome.metrics.get(name),
            };
            value
                .map(|v| (m, v))
                .ok_or_else(|| format!("{workload} did not measure {}", m.name))
        })
        .collect()
}

fn run_one(workload: &str, args: &RunArgs) -> Result<(), String> {
    let spec = spec::workload(workload).expect("validated by parse_args");
    let name = spec.name;
    let started = Instant::now();
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        tracer: Tracer::new(name, args.trace),
    };
    let outcome = workloads::run(name, &ctx)?;
    let wall_s = started.elapsed().as_secs_f64();

    // Untraced: the end-to-end metrics, then whatever named metrics the
    // workload measured on the way.  Traced: every per-layer metric, zero
    // where the workload does not touch the layer.
    let mut rows = Vec::new();
    let mut driver_metrics = Vec::new();
    if !args.trace {
        for (m, value) in end_to_end(name, &outcome)? {
            if !(value.is_finite() && value > 0.0) {
                return Err(format!("{name}: {} measured {value}", m.name));
            }
            rows.push(row(name, "end_to_end", m, value));
            driver_metrics.push((m, value));
        }
    }
    for m in &PER_LAYER {
        match outcome.metrics.get(m.name) {
            Some(value) if !value.is_finite() => {
                return Err(format!("{name}: {} measured {value}", m.name));
            }
            Some(value) => {
                rows.push(row(name, "per_layer", m, value));
                if args.trace {
                    driver_metrics.push((m, value));
                }
            }
            None if args.trace => driver_metrics.push((m, 0.0)),
            None => {}
        }
    }

    println!(
        "## {name} (seed {}, {} s window, {})",
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" }
    );
    println!("{}", spec.why);
    println!(
        "operations: {} attempted, {} failed; {} repetition(s); {wall_s:.1} s in all",
        outcome.attempted, outcome.failed, outcome.repetitions
    );
    print_rows(&rows);
    let spans = ctx.tracer.spans();
    if args.trace {
        println!("\n| layer | spans | total s | self s |\n|---|---|---|---|");
        for r in layer_table(&spans) {
            println!(
                "| {} | {} | {:.4} | {:.4} |",
                r.layer,
                r.calls,
                r.total_ns as f64 / 1e9,
                r.self_ns as f64 / 1e9
            );
        }
    }

    let out = args
        .out
        .clone()
        .unwrap_or_else(|| default_out(&format!("-{name}-t{}", u8::from(args.trace))));
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let result = Value::obj([
        ("schema", Value::str(SCHEMA)),
        ("meta", meta(args)),
        (
            "workloads",
            Value::Arr(vec![Value::obj([
                ("name", Value::str(name)),
                ("trace", Value::Num(f64::from(u8::from(args.trace)))),
                ("attempted", Value::Num(outcome.attempted as f64)),
                ("failed", Value::Num(outcome.failed as f64)),
                ("repetitions", Value::Num(outcome.repetitions as f64)),
                ("wall_s", Value::Num(wall_s)),
                ("notes", Value::obj(outcome.notes.clone())),
            ])]),
        ),
        ("rows", Value::Arr(rows)),
    ]);
    write_file(&out.join("result.json"), &result.render_pretty())?;
    if args.trace {
        write_file(&out.join("trace.jsonl"), &ctx.tracer.to_jsonl())?;
    }
    println!("\nwrote {}", out.display());

    let line = Value::obj([
        ("correct", Value::Bool(true)),
        ("attempted", Value::Num(outcome.attempted.max(1) as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        (
            "metrics",
            Value::obj(driver_metrics.iter().map(|(m, value)| {
                (
                    m.name,
                    Value::obj([("value", Value::Num(*value)), ("unit", Value::str(m.unit))]),
                )
            })),
        ),
    ]);
    println!("{}", line.render());
    Ok(())
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn print_rows(rows: &[Value]) {
    println!("\n| workload | metric | value | unit | better |\n|---|---|---|---|---|");
    for r in rows {
        let text = |key: &str| r.get(key).and_then(Value::as_str).unwrap_or("?");
        println!(
            "| {} | {} | {} | {} | {} |",
            text("workload"),
            text("metric"),
            r.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN),
            text("unit"),
            text("better"),
        );
    }
}

/// Every workload in a child of its own (untraced, then traced if asked),
/// merged into one result file.
fn run_all(args: &RunArgs) -> Result<(), String> {
    let out = args.out.clone().unwrap_or_else(|| default_out(""));
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let passes: &[bool] = if args.trace { &[false, true] } else { &[false] };

    let mut workloads = Vec::new();
    let mut rows = Vec::new();
    let mut spans = String::new();
    for w in &WORKLOADS {
        for &traced in passes {
            let dir = out.join(format!("{}-t{}", w.name, u8::from(traced)));
            let mut child = Command::new(&exe);
            child
                .args(["run", "--workload", w.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&dir);
            if args.smoke {
                child.arg("--smoke");
            }
            // `status` waits for the child; its tables and progress go
            // straight to this terminal.
            let status = child
                .status()
                .map_err(|e| format!("spawn {}: {e}", w.name))?;
            if !status.success() {
                return Err(format!(
                    "{} (trace {}) exited with {status}",
                    w.name,
                    u8::from(traced)
                ));
            }
            let path = dir.join("result.json");
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            for (key, into) in [("workloads", &mut workloads), ("rows", &mut rows)] {
                into.extend(
                    doc.get(key)
                        .and_then(Value::as_arr)
                        .ok_or_else(|| format!("{} lacks {key}", path.display()))?
                        .iter()
                        .cloned(),
                );
            }
            if traced {
                let path = dir.join("trace.jsonl");
                spans.push_str(
                    &std::fs::read_to_string(&path)
                        .map_err(|e| format!("read {}: {e}", path.display()))?,
                );
            }
        }
    }

    println!("\n# all workloads");
    print_rows(&rows);
    let result = Value::obj([
        ("schema", Value::str(SCHEMA)),
        ("meta", meta(args)),
        ("workloads", Value::Arr(workloads)),
        ("rows", Value::Arr(rows)),
    ]);
    write_file(&out.join("result.json"), &result.render_pretty())?;
    if args.trace {
        write_file(&out.join("trace.jsonl"), &spans)?;
    }
    println!("\nwrote {}", out.join("result.json").display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let got = parse_args(&args(&[
            "--workload",
            "train-ranks",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "0",
        ]))
        .unwrap();
        assert_eq!(got.workload.as_deref(), Some("train-ranks"));
        assert_eq!((got.seed, got.seconds, got.trace), (7, 20, false));
        let got = parse_args(&args(&["--trace", "1", "--workload", "serve-mesh"])).unwrap();
        assert!(got.trace);
    }

    #[test]
    fn bare_trace_flag_and_defaults() {
        let got = parse_args(&args(&["--trace", "--smoke"])).unwrap();
        assert!(got.trace && got.smoke);
        assert_eq!(
            (got.workload, got.seed, got.seconds),
            (None, 1, DEFAULT_SECONDS)
        );
        assert!(!parse_args(&[]).unwrap().trace);
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            &["--workload", "nope"][..],
            &["--workload"],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds", "61"],
            &["--bogus"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
