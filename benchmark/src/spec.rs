//! The benchmark's vocabulary: workloads, metrics, units, directions.
//!
//! `BENCHMARK.json` at the repo root repeats these tables (plus a bound per
//! end-to-end metric) for the driver; a unit test keeps the two equal, so a
//! name printed by `run` is always a name the driver knows.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn up(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn down(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const TRAIN_LOCAL: &str = "train-local";
pub const TRAIN_RANKS: &str = "train-ranks";
pub const SERVE_STATIC: &str = "serve-static";
pub const SERVE_MESH: &str = "serve-mesh";

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: TRAIN_LOCAL,
        why: "ThreadedNomad, 2 workers, netflix-sim Medium, k=100: ~700 updates a hop and a 69 MB W, so the SGD kernel does the work and nomad-net none; ops = SGD updates, latency = time to test RMSE 1.045",
    },
    Workload {
        name: TRAIN_RANKS,
        why: "run_processes, 2 re-exec'd ranks over localhost TCP, yahoo-sim Medium, k=8: ~100 updates a hop, so queue, hop loop, codec, TCP and drain are first-order; ops = SGD updates, latency = a minimal job",
    },
    Workload {
        name: SERVE_STATIC,
        why: "QueryEngine over a frozen 65,536-item k=32 catalog (16 MiB, 4x L2), closed loop, 2 threads: scan and IVF kernels alone, no training, no net; ops = approx queries, latency = mean exact scan",
    },
    Workload {
        name: SERVE_MESH,
        why: "run_processes_serving, 1 rank, yahoo-sim Medium, k=32, open loop at 64 queries/s through ServeRouter: request/reply beside token streaming; ops = SGD updates, latency = query p50 from due time",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What a user of any of the four workloads sees.  The driver requires
/// every workload to report every end-to-end metric, so the two speed
/// figures are slots: each workload fills them with the quiet quartile
/// ([`crate::stats::quiet_quartile`]) of its own operation and its own
/// delay, as its `why` says; the named metrics behind them are plain
/// medians and are reported in [`PER_LAYER`].
pub const END_TO_END: [Metric; 4] = [
    down("setup_s", "s"),
    down("peak_rss_mb", "MB"),
    up("ops_per_s", "1/s"),
    down("latency_ms", "ms"),
];

/// Workload-specific user-visible metrics first (zero on workloads they do
/// not apply to), then one block per layer (= crate).
pub const PER_LAYER: [Metric; 77] = [
    up("updates_per_s", "1/s"),
    down("time_to_rmse_s", "s"),
    down("updates_to_rmse", "count"),
    down("final_rmse", "rmse"),
    up("exact_queries_per_s", "1/s"),
    up("approx_queries_per_s", "1/s"),
    down("exact_query_mean_us", "us"),
    down("exact_query_p99_us", "us"),
    down("approx_query_p99_us", "us"),
    up("approx_recall_at_10", "ratio"),
    down("query_p50_us", "us"),
    down("query_p99_us", "us"),
    down("staleness_p50_updates", "count"),
    // nomad-data, nomad-matrix, nomad-core set-up
    down("data.generate_s", "s"),
    down("matrix.partition_s", "s"),
    down("core.worker_data_build_s", "s"),
    // nomad-linalg / nomad-sgd
    down("linalg.dot_ns_k8", "ns"),
    down("linalg.dot_ns_k32", "ns"),
    down("linalg.dot_ns_k100", "ns"),
    down("linalg.sgd_pair_update_ns_k8", "ns"),
    down("linalg.sgd_pair_update_ns_k32", "ns"),
    down("linalg.sgd_pair_update_ns_k100", "ns"),
    down("sgd.epoch_ns_per_update", "ns"),
    down("sgd.rmse_eval_s", "s"),
    // vendored crossbeam queue, nomad-telemetry
    down("queue.push_pop_ns", "ns"),
    down("queue.handoff_ns", "ns"),
    down("telemetry.note_hop_ns", "ns"),
    // nomad-core engines
    up("core.serial.updates_per_s", "1/s"),
    up("core.threaded.scaling_efficiency", "ratio"),
    up("core.threaded.train_share", "ratio"),
    down("core.threaded.round_overhead_s", "s"),
    down("core.threaded.hops", "count"),
    up("core.threaded.updates_per_hop", "count"),
    down("core.threaded.hop_overhead_ns", "ns"),
    up("core.threaded.queue_depth_p50", "count"),
    up("core.threaded.hop_bound_scaling", "ratio"),
    // nomad-net codec and transports
    down("net.wire.token_batch_encode_ns", "ns"),
    down("net.wire.token_batch_decode_ns", "ns"),
    down("net.wire.token_batch_bytes", "bytes"),
    down("net.wire.query_codec_ns", "ns"),
    down("net.loopback.rtt_us", "us"),
    down("net.tcp.rtt_us", "us"),
    // nomad-net driver, rank, process
    down("net.process.fixed_cost_s", "s"),
    up("net.driver.steady_updates_per_s", "1/s"),
    down("net.remote_sends", "count"),
    up("net.updates_per_remote_send", "count"),
    down("net.frames_sent", "count"),
    up("net.tokens_per_frame", "count"),
    down("net.bytes_sent", "bytes"),
    down("net.bytes_per_update", "bytes"),
    down("net.rank_imbalance", "ratio"),
    down("net.overshoot_share", "ratio"),
    down("net.reminted", "count"),
    down("net.evicted", "count"),
    up("net.process_over_loopback", "ratio"),
    up("net.mesh_over_threaded", "ratio"),
    // nomad-net serve_router
    up("net.serve_router.fresh_share", "ratio"),
    down("net.serve_router.stale_share", "ratio"),
    down("net.serve_router.retries", "count"),
    down("net.serve_router.hedges", "count"),
    down("net.serve_router.shed", "count"),
    down("net.serve_router.timeouts", "count"),
    down("net.serve_router.latency_p50_us", "us"),
    down("net.serve_router.admission_gap_us", "us"),
    down("net.serve_router.generator_late_p99_us", "us"),
    // nomad-serve
    down("serve.snapshot.exact_scan_ns_per_item", "ns"),
    down("serve.ivf.build_s", "s"),
    down("serve.ivf.refresh_s", "s"),
    down("serve.publisher.delta_rows_share", "ratio"),
    up("serve.ivf.centroids", "count"),
    down("serve.publisher.publish_model_s", "s"),
    down("serve.publisher.latest_ns", "ns"),
    up("serve.query.exact_thread_scaling", "ratio"),
    up("serve.query.approx_thread_scaling", "ratio"),
    up("serve.publisher.publishes", "count"),
    down("serve.publisher.max_publish_gap_updates", "count"),
    // harness
    down("trace.overhead_share", "ratio"),
];

pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use std::collections::BTreeSet;

    /// The driver's rule for workload and metric names: starts with a letter
    /// or digit, then letters, digits, `_`, `.`, `-`; at most 64 characters.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// The driver's rule for units.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn name_pattern() {
        for ok in [
            "a",
            "9lives",
            "train-local",
            "net.wire.token_batch_encode_ns",
            "A_b-c.d",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".a", "-a", "_a", "a b", "a/b", "a%", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"x".repeat(64)));
        for ok in ["s", "ms", "1/s", "%", "MB", "count"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "a b", "µs", "x".repeat(17).as_str()] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn every_name_is_valid_and_used_once() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_unit(m.unit), "{} has unit {:?}", m.name, m.unit);
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    fn listed(doc: &Value, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what the
    /// harness prints.  They must say the same thing.
    #[test]
    fn benchmark_json_matches_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json readable"))
            .expect("BENCHMARK.json parses");
        let want = |ms: &[Metric]| -> Vec<(String, String, String)> {
            ms.iter()
                .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), want(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), want(&PER_LAYER));
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                let field = |f: &str| w.get(f).and_then(Value::as_str).unwrap_or("").to_string();
                (field("name"), field("why"))
            })
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.into(), w.why.into()))
            .collect();
        assert_eq!(workloads, ours);
        for m in doc.get("end_to_end").and_then(Value::as_arr).unwrap() {
            let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
        }
        assert_eq!(
            doc.get("paths").and_then(Value::as_arr).map(<[Value]>::len),
            Some(1)
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(crate::run::DEFAULT_SECONDS as f64),
            "a bare `run` must measure what the driver measures"
        );
    }
}
