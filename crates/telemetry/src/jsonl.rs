//! The `nomad-telemetry-v1` dump format: one JSON object per line, one
//! line per scope (`rank-<r>`, `driver`, `fleet`, `sim`, ...).
//!
//! The JSON is hand-rolled (the workspace has no serialization crate)
//! and hand-validated: [`validate_jsonl_line`] checks the required keys
//! without a JSON parser — a line that drops a required key fails
//! loudly.

use std::fmt::Write as _;

use crate::registry::TelemetrySnapshot;

/// The telemetry dump schema identifier.
pub const SCHEMA: &str = "nomad-telemetry-v1";

/// Keys every `nomad-telemetry-v1` line must carry.
const REQUIRED_KEYS: [&str; 5] = ["schema", "scope", "counters", "gauges", "histograms"];

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders one `nomad-telemetry-v1` line for `scope`.  Histograms are
/// dumped as their derived statistics (count/sum/max and the
/// p50/p90/p99 upper bounds), not raw buckets — the buckets travel on
/// the wire, the JSONL is for humans and dashboards.  `events`, when
/// given, are the replay-friendly `kind@a@b@t<micros>` lines of an
/// event-ring dump.
pub fn render_jsonl_line(
    scope: &str,
    snap: &TelemetrySnapshot,
    events: Option<&[String]>,
) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"schema\":\"{SCHEMA}\",\"scope\":\"{}\"",
        escape(scope)
    );
    s.push_str(",\"counters\":{");
    for (i, (name, v)) in snap.counters.iter().enumerate() {
        let comma = if i == 0 { "" } else { "," };
        let _ = write!(s, "{comma}\"{}\":{v}", escape(name));
    }
    s.push_str("},\"gauges\":{");
    for (i, (name, v)) in snap.gauges.iter().enumerate() {
        let comma = if i == 0 { "" } else { "," };
        let _ = write!(s, "{comma}\"{}\":{v}", escape(name));
    }
    s.push_str("},\"histograms\":{");
    for (i, (name, h)) in snap.hists.iter().enumerate() {
        let comma = if i == 0 { "" } else { "," };
        let p50 = h.p50().map_or("null".to_string(), |v| v.to_string());
        let p90 = h.p90().map_or("null".to_string(), |v| v.to_string());
        let p99 = h.p99().map_or("null".to_string(), |v| v.to_string());
        let _ = write!(
            s,
            "{comma}\"{}\":{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{p50},\"p90\":{p90},\"p99\":{p99}}}",
            escape(name),
            h.count,
            h.sum,
            h.max,
        );
    }
    s.push('}');
    if let Some(events) = events {
        s.push_str(",\"events\":[");
        for (i, e) in events.iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            let _ = write!(s, "{comma}\"{}\"", escape(e));
        }
        s.push(']');
    }
    s.push('}');
    s
}

/// Validates one line of a telemetry dump against the
/// `nomad-telemetry-v1` schema: the schema marker and every required
/// key must be present.  This is the CI gate — it does not parse JSON,
/// it checks the contract a consumer greps for.
///
/// # Errors
/// Returns which requirement failed.
pub fn validate_jsonl_line(line: &str) -> Result<(), String> {
    let line = line.trim();
    if line.is_empty() {
        return Err("empty line".to_string());
    }
    if !(line.starts_with('{') && line.ends_with('}')) {
        return Err("line is not a JSON object".to_string());
    }
    if !line.contains(&format!("\"schema\":\"{SCHEMA}\"")) {
        return Err(format!("missing schema marker \"{SCHEMA}\""));
    }
    for key in REQUIRED_KEYS {
        if !line.contains(&format!("\"{key}\":")) {
            return Err(format!("missing required key \"{key}\""));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample() -> TelemetrySnapshot {
        let r = Registry::new();
        r.counter("engine.updates").add(1000);
        r.gauge("engine.publish_gap").set(52);
        r.histogram("serve.latency_us").record(250);
        r.histogram("serve.admission_wait_us").record(40);
        r.histogram("serve.rank_service_us").record(180);
        r.histogram("net.rank.setup_us").record(21_000);
        r.histogram("net.driver.scatter_us").record(9_000);
        r.snapshot()
    }

    #[test]
    fn rendered_lines_validate() {
        let line = render_jsonl_line("rank-0", &sample(), None);
        validate_jsonl_line(&line).expect("well-formed line validates");
        assert!(line.contains("\"engine.updates\":1000"));
        assert!(line.contains("\"serve.admission_wait_us\":"));
        assert!(line.contains("\"serve.rank_service_us\":"));
        assert!(line.contains("\"net.rank.setup_us\":"));
        assert!(line.contains("\"net.driver.scatter_us\":"));
        assert!(line.contains("\"scope\":\"rank-0\""));
        assert!(!line.contains("\"events\""));
    }

    #[test]
    fn events_are_included_when_given() {
        let events = vec!["publish@1@500@t12".to_string()];
        let line = render_jsonl_line("driver", &sample(), Some(&events));
        validate_jsonl_line(&line).unwrap();
        assert!(line.contains("\"events\":[\"publish@1@500@t12\"]"));
    }

    #[test]
    fn validation_rejects_missing_keys() {
        assert!(validate_jsonl_line("").is_err());
        assert!(validate_jsonl_line("{}").is_err());
        assert!(validate_jsonl_line("{\"schema\":\"nomad-telemetry-v1\"}").is_err());
        let good = render_jsonl_line("fleet", &sample(), None);
        let broken = good.replace("\"gauges\"", "\"gaug_es\"");
        assert!(validate_jsonl_line(&broken).is_err());
        let wrong_schema = good.replace("nomad-telemetry-v1", "nomad-telemetry-v0");
        assert!(validate_jsonl_line(&wrong_schema).is_err());
    }

    #[test]
    fn empty_snapshot_still_validates() {
        let line = render_jsonl_line("fleet", &TelemetrySnapshot::default(), None);
        validate_jsonl_line(&line).unwrap();
        assert!(line.contains("\"counters\":{}"));
    }

    #[test]
    fn names_are_escaped() {
        let r = Registry::new();
        r.counter("weird\"name").inc();
        let line = render_jsonl_line("s\\cope", &r.snapshot(), None);
        assert!(line.contains("weird\\\"name"));
        assert!(line.contains("s\\\\cope"));
        validate_jsonl_line(&line).unwrap();
    }
}
