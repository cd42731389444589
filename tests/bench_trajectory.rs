//! `BENCH_trajectory.json`: the repo's perf history, one row per (PR,
//! workload, metric) a PR measured in alternating parent/change pairs of
//! the `BENCHMARK.json` runs.  The file is a JSON array written one row
//! object per line, so a PR appends its rows as a one-line-each diff.
//!
//! Every row holds the keys of `KEYS`: the PR number and its commit (null
//! in the rows a PR appends about itself, whose hash is not known until it
//! lands), the workload and metric as `BENCHMARK.json` names them with the
//! metric's unit, the box's `nproc`, the seeds, the pair count, and the
//! parent and change medians with their quartiles.  A field with no
//! number is null.  PR numbers never decrease down the file, a median
//! rests on at least `MIN_PAIRS` pairs, and the seeds, where listed, are
//! one a pair.

use std::collections::BTreeMap;

const KEYS: [&str; 14] = [
    "change_median",
    "change_q1",
    "change_q3",
    "commit",
    "metric",
    "nproc",
    "pairs",
    "parent_median",
    "parent_q1",
    "parent_q3",
    "pr",
    "seeds",
    "unit",
    "workload",
];

const WORKLOADS: [&str; 4] = ["train-local", "train-ranks", "serve-static", "serve-mesh"];

/// Fewest pairs a quoted median may rest on.
const MIN_PAIRS: f64 = 4.0;

/// One row's fields as raw JSON text by key.  A row is a flat object on
/// one line whose values (numbers, nulls, plain strings, arrays of seeds)
/// never hold `, "`, so that splits it into its fields.
fn fields(row: &str, at: usize) -> BTreeMap<&str, &str> {
    let body = row
        .strip_prefix("{\"")
        .and_then(|r| r.strip_suffix('}'))
        .unwrap_or_else(|| panic!("line {at}: not one object"));
    let parts: Vec<&str> = body.split(", \"").collect();
    let fields: BTreeMap<&str, &str> = parts
        .iter()
        .map(|part| {
            part.split_once("\": ")
                .unwrap_or_else(|| panic!("line {at}: field {part:?}"))
        })
        .collect();
    assert_eq!(fields.len(), parts.len(), "line {at}: a key twice");
    fields
}

/// A number or null.
fn number(value: &str, at: usize) -> Option<f64> {
    (value != "null").then(|| {
        value
            .parse()
            .unwrap_or_else(|_| panic!("line {at}: {value:?} is not a number"))
    })
}

/// A plain string or null.
fn string(value: &str, at: usize) -> Option<&str> {
    (value != "null").then(|| {
        value
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .filter(|v| !v.contains('"'))
            .unwrap_or_else(|| panic!("line {at}: {value:?} is not a string"))
    })
}

#[test]
fn every_trajectory_row_is_complete_ordered_and_rests_on_enough_pairs() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_trajectory.json");
    let file = std::fs::read_to_string(path).expect("BENCH_trajectory.json at the repo root");
    let lines: Vec<&str> = file.lines().collect();
    assert_eq!(lines.first(), Some(&"["), "line 1 opens the array");
    assert_eq!(lines.last(), Some(&"]"), "the last line closes it");
    let rows = &lines[1..lines.len() - 1];
    assert!(rows.len() >= 15, "{} rows", rows.len());
    let mut last_pr = 0.0;
    for (i, line) in rows.iter().enumerate() {
        let at = i + 2;
        let row = if i + 1 == rows.len() {
            line
        } else {
            line.strip_suffix(',')
                .unwrap_or_else(|| panic!("line {at}: a row before the last ends in ','"))
        };
        let f = fields(row, at);
        assert_eq!(f.keys().copied().collect::<Vec<_>>(), KEYS, "line {at}");

        let pr = number(f["pr"], at).unwrap_or_else(|| panic!("line {at}: no PR number"));
        assert!(pr >= 1.0 && pr.fract() == 0.0, "line {at}: PR {pr}");
        assert!(pr >= last_pr, "line {at}: PR {pr} after PR {last_pr}");
        last_pr = pr;
        if let Some(commit) = string(f["commit"], at) {
            assert!(
                commit.len() >= 7 && commit.chars().all(|c| c.is_ascii_hexdigit()),
                "line {at}: commit {commit:?}"
            );
        }
        let workload = string(f["workload"], at).unwrap_or_default();
        assert!(WORKLOADS.contains(&workload), "line {at}: {workload:?}");
        for key in ["metric", "unit"] {
            assert!(string(f[key], at).is_some(), "line {at}: no {key}");
        }
        if let Some(nproc) = number(f["nproc"], at) {
            assert!(
                nproc >= 1.0 && nproc.fract() == 0.0,
                "line {at}: nproc {nproc}"
            );
        }

        let pairs = number(f["pairs"], at);
        for side in ["parent", "change"] {
            let [median, q1, q3] =
                ["median", "q1", "q3"].map(|q| number(f[format!("{side}_{q}").as_str()], at));
            if median.is_some() {
                assert!(
                    pairs.is_some_and(|p| p >= MIN_PAIRS),
                    "line {at}: a {side} median over {pairs:?} pairs"
                );
            }
            if let (Some(m), Some(q1), Some(q3)) = (median, q1, q3) {
                assert!(q1 <= m && m <= q3, "line {at}: {side} {q1} / {m} / {q3}");
            }
        }
        if f["seeds"] != "null" {
            let seeds = f["seeds"]
                .strip_prefix('[')
                .and_then(|s| s.strip_suffix(']'))
                .unwrap_or_else(|| panic!("line {at}: seeds {:?}", f["seeds"]));
            let count = seeds
                .split(", ")
                .filter(|s| number(s, at).is_some())
                .count();
            assert_eq!(Some(count as f64), pairs, "line {at}: one seed a pair");
        }
    }
}
