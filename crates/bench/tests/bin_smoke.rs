//! Smoke tests for the reproduction binaries: `fig`, `streaming`,
//! `repro_all` and (under its feature) `schedfuzz` must link, answer
//! `--help` with a usage message and exit 0, and reject unknown arguments
//! with exit 2 — all without starting an actual experiment run.

use std::process::Command;

/// `CARGO_BIN_EXE_<name>` is set by Cargo for every `[[bin]]` target of
/// this crate when compiling its integration tests, so referencing it here
/// also forces all binaries to build (the "link" half of the smoke test).
const BINS: &[(&str, &str)] = &[
    ("fig", env!("CARGO_BIN_EXE_fig")),
    ("streaming", env!("CARGO_BIN_EXE_streaming")),
    ("repro_all", env!("CARGO_BIN_EXE_repro_all")),
];

/// The `schedfuzz` bin only exists under `--features sched-fuzz`
/// (`required-features`), so its `CARGO_BIN_EXE_*` var is only set then.
#[cfg(feature = "sched-fuzz")]
const FEATURE_BINS: &[(&str, &str)] = &[("schedfuzz", env!("CARGO_BIN_EXE_schedfuzz"))];
#[cfg(not(feature = "sched-fuzz"))]
const FEATURE_BINS: &[(&str, &str)] = &[];

#[test]
fn every_bin_answers_help() {
    for (name, path) in BINS.iter().chain(FEATURE_BINS) {
        let out = Command::new(path)
            .arg("--help")
            .output()
            .unwrap_or_else(|e| panic!("failed to launch {name}: {e}"));
        assert!(
            out.status.success(),
            "{name} --help exited with {:?}",
            out.status.code()
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("Usage:") && stdout.contains(name),
            "{name} --help printed no usage:\n{stdout}"
        );
        assert!(
            stdout.contains("NOMAD_SCALE"),
            "{name} --help must document the NOMAD_SCALE variable"
        );
    }
}

#[test]
fn every_bin_rejects_unknown_arguments() {
    for (name, path) in BINS.iter().chain(FEATURE_BINS) {
        let out = Command::new(path)
            .arg("--definitely-not-a-flag")
            .output()
            .unwrap_or_else(|e| panic!("failed to launch {name}: {e}"));
        assert_eq!(
            out.status.code(),
            Some(2),
            "{name} must exit 2 on an unknown argument"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unrecognized argument"),
            "{name} printed no diagnostic:\n{stderr}"
        );
    }
}

/// `fig` dispatches by id: a known one runs that reproduction (`table1`
/// costs nothing), an unknown or missing one exits 2 and lists every known
/// id, so a typo never starts — or silently skips — a run.
#[test]
fn fig_dispatches_by_id_and_lists_the_ids_when_it_cannot() {
    let fig = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_fig")).args(args).output();
        out.unwrap_or_else(|e| panic!("failed to launch fig: {e}"))
    };
    let table1 = fig(&["table1"]);
    assert!(table1.status.success());
    assert!(String::from_utf8_lossy(&table1.stdout).contains("Netflix,100,"));
    for args in [&["fig4"][..], &[], &["fig4", "--help"]] {
        let out = fig(args);
        assert_eq!(out.status.code(), Some(2), "fig {args:?} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        for part in ["<id>", "table1", "table2", "fig5", "fig23"] {
            assert!(
                stderr.contains(part),
                "fig {args:?} must print {part}:\n{stderr}"
            );
        }
    }
}
