//! Drives the built binary the way the driver and a person would.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nomad-benchmark"))
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// `train-ranks` re-execs this binary once per rank; a tiny budget proves
/// `child_entry` is wired first in `main` and the whole path — set-up,
/// bit-identity check, repetitions, result file, driver line — holds.
#[test]
fn smoke_run_of_train_ranks_re_execs_this_binary() {
    let out_dir = scratch("smoke-train-ranks");
    let out = bench(&[
        "run",
        "--workload",
        "train-ranks",
        "--seed",
        "5",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--smoke",
        "--out",
        out_dir.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\":true,\"attempted\":"),
        "{last}"
    );
    for metric in ["setup_s", "peak_rss_mb", "ops_per_s", "latency_ms"] {
        assert!(
            last.contains(&format!("\"{metric}\":{{\"value\":")),
            "{metric} in {last}"
        );
    }
    let result = std::fs::read_to_string(out_dir.join("result.json")).expect("result.json");
    for field in [
        "\"commit\"",
        "\"nproc\"",
        "\"cpu_model\"",
        "\"rustc\"",
        "\"seed\": 5",
        "\"wall_s\"",
    ] {
        assert!(result.contains(field), "{field} missing from result.json");
    }
    assert!(
        !out_dir.join("trace.jsonl").exists(),
        "untraced run wrote spans"
    );
}

#[test]
fn traced_smoke_run_reports_every_per_layer_metric_and_writes_spans() {
    let out_dir = scratch("smoke-serve-static-traced");
    let out = bench(&[
        "run",
        "--workload",
        "serve-static",
        "--trace",
        "1",
        "--smoke",
        "--out",
        out_dir.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    // Measured here, and zero-filled because this workload never trains.
    for metric in [
        "serve.ivf.build_s",
        "trace.overhead_share",
        "updates_per_s",
        "net.evicted",
    ] {
        assert!(
            last.contains(&format!("\"{metric}\":{{\"value\":")),
            "{metric} in {last}"
        );
    }
    assert!(
        !last.contains("\"ops_per_s\""),
        "traced runs report per-layer metrics only"
    );
    let spans = std::fs::read_to_string(out_dir.join("trace.jsonl")).expect("trace.jsonl");
    assert!(spans.lines().count() > 100, "a span per query");
    assert!(spans.contains("\"name\":\"serve.query.top_k_approx\""));
    assert!(spans.contains("\"workload\":\"serve-static\""));
}

fn result_file(dir: &Path, name: &str, ops_per_s: f64) -> String {
    let path = dir.join(name);
    let text = format!(
        r#"{{"workloads": [{{"name": "train-ranks", "attempted": 4, "failed": 0}}],
            "rows": [{{"workload": "train-ranks", "metric": "ops_per_s", "kind": "end_to_end",
                       "unit": "1/s", "better": "higher", "value": {ops_per_s}}}]}}"#
    );
    std::fs::write(&path, text).expect("write result file");
    path.to_str().unwrap().to_string()
}

/// The bounds come from the real `BENCHMARK.json`: a copy with throughput
/// scaled by 0.8 must fail the check, an identical copy must pass.
#[test]
fn check_catches_a_scaled_copy() {
    let dir = scratch("check");
    let base = result_file(&dir, "a.json", 80e6);
    let same = result_file(&dir, "same.json", 80e6);
    let slower = result_file(&dir, "slower.json", 80e6 * 0.8);

    let pass = bench(&["check", &base, &same]);
    assert!(
        pass.status.success(),
        "{}",
        String::from_utf8_lossy(&pass.stdout)
    );
    let fail = bench(&["check", &base, &slower]);
    assert_eq!(fail.status.code(), Some(1));
    let table = String::from_utf8_lossy(&fail.stdout);
    assert!(
        table.contains("| train-ranks | ops_per_s |") && table.contains("regress"),
        "{table}"
    );
    // A set on each side, comma-separated.
    let sets = bench(&[
        "check",
        &format!("{base},{same}"),
        &format!("{same},{base}"),
    ]);
    assert!(sets.status.success());
}

#[test]
fn bad_command_lines_exit_2_without_a_result() {
    for args in [
        &["run", "--workload", "nope"][..],
        &["run", "--bogus"],
        &["check", "only-one"],
        &[],
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
    }
}
