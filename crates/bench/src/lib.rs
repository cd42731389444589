//! Benchmark harness support code.
//!
//! The `fig` binary in `src/bin/` regenerates any table or figure of the
//! paper's evaluation section by id (`fig fig5`, `fig table1`; CSV to
//! stdout, a markdown summary to stderr) and `repro_all` runs them all;
//! the Criterion benches in `benches/`
//! measure the kernels and ablate the design choices listed in `DESIGN.md`.

#![warn(missing_docs)]

use nomad_eval::{figure_to_csv, figure_to_markdown, Figure, ReproScale};

pub mod distperf;

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
/// environment-variable documentation lines — for binaries (such as `perf`)
/// whose output is not the standard CSV/markdown pair.
///
/// Every binary still documents `NOMAD_SCALE`, which the smoke tests
/// enforce, and still rejects unknown arguments with exit code 2.
pub fn handle_cli_args_with(name: &str, about: &str, output: &str, extra_env: &[&str]) {
    cli_core(name, about, output, extra_env, None, false, None);
}

/// Like [`handle_cli_args`], but the binary additionally takes one
/// positional `<id>` out of `ids` (the `fig` binary's figure/table id) and
/// returns it.  A missing or unknown id exits 2 listing `ids`.
pub fn handle_cli_args_id(name: &str, about: &str, ids: &[&str]) -> String {
    let output = "Output: CSV series on stdout, a markdown summary on stderr.";
    cli_core(name, about, output, &[], None, false, Some(ids))
        .id
        .expect("an id list was supplied")
}

/// Like [`handle_cli_args_with`], but the binary additionally accepts a
/// `--telemetry` flag; returns whether it was passed.  Binaries that
/// accept it print the fleet/router metric tables collected during the
/// run (the JSONL dump is written regardless, so CI artifacts do not
/// depend on the flag).
pub fn handle_cli_args_telemetry(
    name: &str,
    about: &str,
    output: &str,
    extra_env: &[&str],
) -> bool {
    cli_core(name, about, output, extra_env, None, true, None).telemetry
}

/// Like [`handle_cli_args_telemetry`], but the binary additionally accepts
/// an `--engine <value>` / `--engine=<value>` selector from `allowed`;
/// returns `(engine, telemetry)`, the engine being `default` when the flag
/// is absent.  An `--engine` value outside `allowed` exits 2 like any other
/// unrecognized argument, and `--help` documents the selector.
pub fn handle_cli_args_engine_telemetry(
    name: &str,
    about: &str,
    output: &str,
    extra_env: &[&str],
    allowed: &[&str],
    default: &str,
) -> (String, bool) {
    let cli = cli_core(
        name,
        about,
        output,
        extra_env,
        Some((allowed, default)),
        true,
        None,
    );
    (cli.engine.expect("a selector was supplied"), cli.telemetry)
}

/// The one implementation behind the whole reproduction-binary CLI
/// contract: reject anything unrecognized with exit 2 (even alongside
/// `--help`, so a typoed flag can never ride along with a valid one),
/// answer `--help` with the usage/environment template and exit 0.
/// `selector` optionally enables the `--engine` flag, `telemetry_flag`
/// enables `--telemetry`, and `ids` enables one positional `<id>` that
/// must be one of them; what was passed comes back as a [`Cli`].
fn cli_core(
    name: &str,
    about: &str,
    output: &str,
    extra_env: &[&str],
    selector: Option<(&[&str], &str)>,
    telemetry_flag: bool,
    ids: Option<&[&str]>,
) -> Cli {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut help = false;
    let mut telemetry = false;
    let mut engine: Option<String> = None;
    let mut id: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match (arg.as_str(), selector) {
            ("--help" | "-h", _) => help = true,
            ("--telemetry", _) if telemetry_flag => telemetry = true,
            (known, _) if id.is_none() && ids.is_some_and(|ids| ids.contains(&known)) => {
                id = Some(known.to_string());
            }
            ("--engine", Some((allowed, _))) => match iter.next() {
                Some(value) => engine = Some(value.clone()),
                None => {
                    eprintln!(
                        "{name}: --engine needs a value (one of {})",
                        allowed.join("|")
                    );
                    std::process::exit(2);
                }
            },
            (other, Some(_)) if other.starts_with("--engine=") => {
                engine = Some(other["--engine=".len()..].to_string());
            }
            (other, _) => {
                let hint = ids.map_or("try --help".to_string(), id_hint);
                eprintln!("{name}: unrecognized argument {other:?} ({hint})");
                std::process::exit(2);
            }
        }
    }
    let engine = selector.map(|(allowed, default)| {
        let engine = engine.unwrap_or_else(|| default.to_string());
        if !allowed.contains(&engine.as_str()) {
            eprintln!(
                "{name}: unrecognized argument --engine {engine:?} (one of {})",
                allowed.join("|")
            );
            std::process::exit(2);
        }
        engine
    });
    if help {
        let telemetry_usage = if telemetry_flag { " [--telemetry]" } else { "" };
        let usage_flags = match (selector, ids) {
            (Some((allowed, _)), _) => {
                format!("[--help] [--engine {}]{telemetry_usage}", allowed.join("|"))
            }
            (None, Some(ids)) => format!("[--help] <{}>", ids.join("|")),
            (None, None) => format!("[--help]{telemetry_usage}"),
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
    Cli {
        engine,
        telemetry,
        id,
    }
}

fn id_hint(ids: &[&str]) -> String {
    format!("<id> is one of {}", ids.join(" "))
}

/// What [`cli_core`] parsed.
struct Cli {
    /// The `--engine` value (the default when absent), with a selector.
    engine: Option<String>,
    /// Whether `--telemetry` was passed.
    telemetry: bool,
    /// The positional `<id>`, with an id list.
    id: Option<String>,
}

/// Writes one `nomad-telemetry-v1` JSONL line per scope to the path named
/// by `NOMAD_TELEMETRY_OUT` (default `telemetry.jsonl`), validating every
/// line against the schema first — a bench binary must never upload an
/// artifact the CI schema gate would reject.  Returns the path written.
///
/// # Panics
/// Panics if a rendered line fails schema validation or the file cannot
/// be written.
pub fn write_telemetry_jsonl(scopes: &[TelemetryScope<'_>]) -> String {
    let path =
        std::env::var("NOMAD_TELEMETRY_OUT").unwrap_or_else(|_| "telemetry.jsonl".to_string());
    let mut out = String::new();
    for (scope, snap, events) in scopes {
        let line = nomad_telemetry::render_jsonl_line(scope, snap, *events);
        nomad_telemetry::validate_jsonl_line(&line).unwrap_or_else(|e| {
            panic!(
                "telemetry line for scope {scope:?} violates {}: {e}",
                nomad_telemetry::SCHEMA
            )
        });
        out.push_str(&line);
        out.push('\n');
    }
    std::fs::write(&path, &out).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    path
}

/// One scope of a telemetry dump: `(scope name, snapshot, event lines)`.
pub type TelemetryScope<'a> = (
    &'a str,
    &'a nomad_telemetry::TelemetrySnapshot,
    Option<&'a [String]>,
);

/// Prints the human `--telemetry` tables for each scope (stderr, like
/// every other bench summary).
pub fn print_telemetry_tables(scopes: &[TelemetryScope<'_>]) {
    for (scope, snap, _) in scopes {
        eprintln!("{}", nomad_telemetry::render_table(scope, snap));
    }
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
