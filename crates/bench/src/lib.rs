//! Reproduction-binary support code.
//!
//! The `fig` binary in `src/bin/` regenerates any table or figure of the
//! paper's evaluation section by id (`fig fig5`, `fig table1`; CSV to
//! stdout, a markdown summary to stderr), `repro_all` runs them all and
//! `streaming` runs the streaming figure; `schedfuzz` (feature
//! `sched-fuzz`) sweeps seeded fuzz schedules.  The Criterion benches in
//! `benches/` measure the kernels and ablate the design choices listed in
//! `DESIGN.md`.  End-to-end throughput is measured by the separate
//! `benchmark/` package (`BENCHMARK.json`), not here.

#![warn(missing_docs)]

use nomad_eval::{figure_to_csv, figure_to_markdown, Figure, ReproScale};

/// Handles the shared command-line surface of every reproduction binary.
///
/// The reproduction binaries are configured through the `NOMAD_SCALE`
/// environment variable rather than flags, so the only arguments they
/// accept are `--help`/`-h` (print usage, exit 0). Any other
/// argument is rejected with exit code 2 so that typos are not silently
/// ignored before a long experiment run.
pub fn handle_cli_args(name: &str, about: &str) {
    handle_cli_args_with(
        name,
        about,
        "Output: CSV series on stdout, a markdown summary on stderr.",
        &[],
    );
}

/// Like [`handle_cli_args`], but with a custom output description and extra
/// environment-variable documentation lines — for binaries (such as
/// `schedfuzz`) whose output is not the standard CSV/markdown pair.
///
/// Every binary still documents `NOMAD_SCALE`, which the smoke tests
/// enforce, and still rejects unknown arguments with exit code 2.
pub fn handle_cli_args_with(name: &str, about: &str, output: &str, extra_env: &[&str]) {
    cli_core(name, about, output, extra_env, None);
}

/// Like [`handle_cli_args`], but the binary additionally takes one
/// positional `<id>` out of `ids` (the `fig` binary's figure/table id) and
/// returns it.  A missing or unknown id exits 2 listing `ids`.
pub fn handle_cli_args_id(name: &str, about: &str, ids: &[&str]) -> String {
    let output = "Output: CSV series on stdout, a markdown summary on stderr.";
    cli_core(name, about, output, &[], Some(ids)).expect("an id list was supplied")
}

/// The one implementation behind the whole reproduction-binary CLI
/// contract: reject anything unrecognized with exit 2 (even alongside
/// `--help`, so a typoed flag can never ride along with a valid one),
/// answer `--help` with the usage/environment template and exit 0.
/// `ids` optionally enables one positional `<id>` that must be one of
/// them; the id passed comes back.
fn cli_core(
    name: &str,
    about: &str,
    output: &str,
    extra_env: &[&str],
    ids: Option<&[&str]>,
) -> Option<String> {
    let mut help = false;
    let mut id: Option<String> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--help" | "-h" => help = true,
            known if id.is_none() && ids.is_some_and(|ids| ids.contains(&known)) => {
                id = Some(arg);
            }
            other => {
                let hint = ids.map_or("try --help".to_string(), id_hint);
                eprintln!("{name}: unrecognized argument {other:?} ({hint})");
                std::process::exit(2);
            }
        }
    }
    if help {
        let usage_flags = match ids {
            Some(ids) => format!("[--help] <{}>", ids.join("|")),
            None => "[--help]".to_string(),
        };
        let mut env_lines =
            String::from("  NOMAD_SCALE=quick|standard   experiment scale (default: quick)");
        for line in extra_env {
            env_lines.push_str("\n  ");
            env_lines.push_str(line);
        }
        println!(
            "{name}: {about}\n\n\
             Usage: {name} {usage_flags}\n\n\
             {output}\n\n\
             Environment:\n{env_lines}"
        );
        std::process::exit(0);
    }
    if let (None, Some(ids)) = (&id, ids) {
        eprintln!("{name}: missing argument ({})", id_hint(ids));
        std::process::exit(2);
    }
    id
}

fn id_hint(ids: &[&str]) -> String {
    format!("<id> is one of {}", ids.join(" "))
}

/// Runs the registered figure generator for `id` at the scale selected by
/// the `NOMAD_SCALE` environment variable (`quick` by default, `standard`
/// for the larger runs) and prints CSV to stdout plus a markdown summary to
/// stderr.
///
/// # Panics
/// Panics if `id` is not a known figure identifier.
pub fn run_figure(id: &str) {
    let scale = ReproScale::from_env();
    let figures =
        nomad_eval::figures::by_id(id, &scale).unwrap_or_else(|| panic!("unknown figure id {id}"));
    print_figures(&figures);
}

/// Prints a set of figures (CSV to stdout, markdown summary to stderr).
pub fn print_figures(figures: &[Figure]) {
    for figure in figures {
        println!("{}", figure_to_csv(figure));
        eprintln!("{}", figure_to_markdown(figure));
    }
}
