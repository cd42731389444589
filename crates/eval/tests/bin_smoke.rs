//! Smoke tests for the `fig` reproduction binary: it must link, answer
//! `--help` with a usage message and exit 0, and reject unknown arguments
//! and unknown `NOMAD_SCALE` values with exit 2 — all without starting an
//! actual experiment run.

use std::process::{Command, Output};

/// `CARGO_BIN_EXE_fig` is set by Cargo when compiling this crate's
/// integration tests, so referencing it here also forces the binary to
/// build (the "link" half of the smoke test).
fn fig(args: &[&str], scale: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fig"));
    cmd.args(args);
    if let Some(scale) = scale {
        cmd.env("NOMAD_SCALE", scale);
    }
    cmd.output()
        .unwrap_or_else(|e| panic!("failed to launch fig: {e}"))
}

#[test]
fn every_bin_answers_help() {
    let out = fig(&["--help"], None);
    assert!(
        out.status.success(),
        "fig --help exited with {:?}",
        out.status.code()
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("Usage:") && stdout.contains("fig"),
        "fig --help printed no usage:\n{stdout}"
    );
    assert!(
        stdout.contains("NOMAD_SCALE"),
        "fig --help must document the NOMAD_SCALE variable"
    );
}

#[test]
fn every_bin_rejects_unknown_arguments() {
    let out = fig(&["--definitely-not-a-flag"], None);
    assert_eq!(
        out.status.code(),
        Some(2),
        "fig must exit 2 on an unknown argument"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unrecognized argument"),
        "fig printed no diagnostic:\n{stderr}"
    );
}

/// `fig` dispatches by id: a known one runs that reproduction (`table1`
/// costs nothing), an unknown or missing one exits 2 and lists every known
/// id, so a typo never starts — or silently skips — a run.
#[test]
fn fig_dispatches_by_id_and_lists_the_ids_when_it_cannot() {
    let table1 = fig(&["table1"], None);
    assert!(table1.status.success());
    assert!(String::from_utf8_lossy(&table1.stdout).contains("Netflix,100,"));
    for args in [&["fig4"][..], &[], &["fig4", "--help"]] {
        let out = fig(args, None);
        assert_eq!(out.status.code(), Some(2), "fig {args:?} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        for part in [
            "<id>",
            "table1",
            "table2",
            "fig5",
            "fig23",
            "streaming",
            "all",
        ] {
            assert!(
                stderr.contains(part),
                "fig {args:?} must print {part}:\n{stderr}"
            );
        }
    }
}

/// An unknown `NOMAD_SCALE` exits 2 before any id is dispatched — even
/// `table1`, which never reads the scale — instead of silently running
/// the quick scale in place of the one asked for.
#[test]
fn fig_rejects_an_unknown_scale() {
    for scale in ["bogus", "Standard", "full"] {
        for id in ["table1", "fig5"] {
            let out = fig(&[id], Some(scale));
            assert_eq!(
                out.status.code(),
                Some(2),
                "NOMAD_SCALE={scale} fig {id} must exit 2"
            );
            let stderr = String::from_utf8_lossy(&out.stderr);
            for part in ["NOMAD_SCALE", "quick", "standard"] {
                assert!(
                    stderr.contains(part),
                    "NOMAD_SCALE={scale} fig {id} must name {part}:\n{stderr}"
                );
            }
            assert!(out.stdout.is_empty(), "NOMAD_SCALE={scale} fig {id} ran");
        }
    }
}
