//! Reproduces the tables and figures of the NOMAD paper, chosen by id:
//! `fig table1`, `fig table2`, `fig fig5` … `fig fig23` (see DESIGN.md for
//! the mapping), `fig streaming`, the time-to-RMSE-under-ingestion figure
//! that has no paper counterpart, or `fig all`, which runs every one of
//! them in that order.  Prints CSV series to stdout and a markdown summary
//! to stderr; set NOMAD_SCALE=standard for larger runs.

use std::process::exit;

use nomad_eval::figures::{all_figure_ids, by_id, table1, table2};
use nomad_eval::{figure_to_csv, figure_to_markdown, ReproScale};

fn main() {
    let mut ids = vec!["table1", "table2"];
    ids.extend(all_figure_ids());
    ids.extend(["streaming", "all"]);
    let id = parse_args(&ids);
    let scale = ReproScale::from_env().unwrap_or_else(|e| {
        eprintln!("fig: {e}");
        exit(2);
    });
    match id.as_str() {
        "table1" => print!("{}", table1()),
        "table2" => print!("{}", table2(&scale)),
        "all" => {
            println!("{}", table1());
            println!("{}", table2(&scale));
            // The streaming figure has no paper counterpart, so it rides
            // after the paper's figures rather than in `all_figure_ids`.
            for id in all_figure_ids().into_iter().chain(["streaming"]) {
                eprintln!("== {id} ==");
                print_figures(id, &scale);
            }
        }
        figure => print_figures(figure, &scale),
    }
}

/// Runs the generator registered for `id` and prints its figures: CSV to
/// stdout, a markdown summary to stderr.
fn print_figures(id: &str, scale: &ReproScale) {
    let figures = by_id(id, scale).unwrap_or_else(|| panic!("unknown figure id {id}"));
    for figure in &figures {
        println!("{}", figure_to_csv(figure));
        eprintln!("{}", figure_to_markdown(figure));
    }
}

/// Reads the command line: one `<id>` out of `ids`, or `--help`/`-h`
/// (usage, exit 0).  Anything else — an unknown or second id, an unknown
/// flag, even alongside `--help` — exits 2 listing the ids, so a typo
/// never starts, or silently skips, a long run.
fn parse_args(ids: &[&str]) -> String {
    let hint = format!("<id> is one of {}", ids.join(" "));
    let mut help = false;
    let mut id = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--help" | "-h" => help = true,
            known if id.is_none() && ids.contains(&known) => id = Some(arg),
            other => {
                eprintln!("fig: unrecognized argument {other:?} ({hint})");
                exit(2);
            }
        }
    }
    if help {
        println!(
            "fig: Reproduces the tables and figures of the NOMAD paper (see DESIGN.md for the mapping)\n\n\
             Usage: fig [--help] <{}>\n\n\
             Output: CSV series on stdout, a markdown summary on stderr.\n\n\
             Environment:\n  NOMAD_SCALE=quick|standard   experiment scale (default: quick)",
            ids.join("|")
        );
        exit(0);
    }
    id.unwrap_or_else(|| {
        eprintln!("fig: missing argument ({hint})");
        exit(2);
    })
}
