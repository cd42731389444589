//! The repo benchmark: four long-run workloads, end-to-end and per-layer
//! metrics, a traced run, and a regression check.  See `README.md`.

mod check;
mod checks;
mod harness;
mod json;
mod openloop;
mod probes;
mod run;
mod spec;
mod stats;
mod sysinfo;
mod trace;
mod workloads;

use std::process::ExitCode;

fn main() -> ExitCode {
    // Rank children are re-execs of this binary: divert them into the rank
    // loop before anything else runs.
    nomad_net::child_entry();

    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run::main(rest),
        Some((cmd, rest)) if cmd == "check" => check::main(rest),
        Some((cmd, _)) if cmd == "--help" || cmd == "-h" => {
            println!("{}", run::USAGE);
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{}", run::USAGE);
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    /// The settings under `[profile.release]`, comments and blanks dropped.
    fn release_profile(manifest: &str) -> Vec<String> {
        let text = std::fs::read_to_string(manifest).expect("manifest readable");
        let lines: Vec<String> = text
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(|l| l.trim().to_string())
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect();
        assert!(!lines.is_empty(), "{manifest} has no [profile.release]");
        lines
    }

    /// Build settings change speed without changing code: the benchmark
    /// must build the crates the way the repo ships them.
    #[test]
    fn release_profile_equals_the_root_manifests() {
        let here = env!("CARGO_MANIFEST_DIR");
        assert_eq!(
            release_profile(&format!("{here}/Cargo.toml")),
            release_profile(&format!("{here}/../Cargo.toml"))
        );
    }
}
