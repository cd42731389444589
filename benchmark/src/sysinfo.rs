//! What the numbers were measured on: recorded in every `result.json` so a
//! row is never compared across machines by accident.

use std::process::Command;

use crate::json::Value;

/// The benchmark package's directory, fixed at build time: the binary is
/// always run from the checkout it was built in, whatever the working
/// directory.
pub const BENCH_DIR: &str = env!("CARGO_MANIFEST_DIR");

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(BENCH_DIR)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        (k.trim() == key).then(|| v.trim().to_string())
    })
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// High-water mark of this process's resident set, in MB (`VmHWM`).  Rank
/// children are separate processes and are not included.
pub fn peak_rss_mb() -> Option<f64> {
    let field = proc_field("/proc/self/status", "VmHWM")?;
    let kb: f64 = field.split_whitespace().next()?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Commit, core count, CPU model and compiler.  A checkout that is not a
/// git repository (the driver's) records `unknown` for the commit.
pub fn describe() -> Value {
    let unknown = || "unknown".to_string();
    Value::obj([
        (
            "commit",
            Value::str(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
        ("nproc", Value::Num(nproc() as f64)),
        (
            "cpu_model",
            Value::str(proc_field("/proc/cpuinfo", "model name").unwrap_or_else(unknown)),
        ),
        (
            "rustc",
            Value::str(command_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn describes_this_machine() {
        let d = describe();
        for key in ["commit", "cpu_model", "rustc"] {
            assert!(!d.get(key).unwrap().as_str().unwrap().is_empty(), "{key}");
        }
        assert!(d.get("nproc").unwrap().as_f64().unwrap() >= 1.0);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
