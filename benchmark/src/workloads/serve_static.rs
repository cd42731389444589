//! `serve-static`: `QueryEngine` over one published, frozen snapshot of a
//! seeded clustered catalog — 65,536 items × k=32, 8,192 users.
//!
//! Reads only: no training, no net.  The item matrix is 16 MiB (4× the
//! 4 MiB L2), so the exact scan streams it from memory on every query,
//! while the IVF path scores 256 centroids and ~8/256 of the catalog.
//! Closed loop, 2 query threads (= `nproc`): phase 1 exact `top_k`, phase 2
//! `top_k_approx` with nprobe=8 of 256 centroids, top-10 both.

use std::hint::black_box;
use std::time::{Duration, Instant};

use nomad_linalg::SmallRng64;
use nomad_serve::{IvfIndex, IvfParams, QueryEngine, SnapshotPublisher};
use nomad_sgd::{FactorMatrix, FactorModel};

use crate::checks;
use crate::harness::{Ctx, Metrics, Outcome, SETUP_REPS};
use crate::json::Value;
use crate::probes::{self, ns_per_op};
use crate::spec::Better;
use crate::stats::{median, quiet_quartile, tail_percentile};

const K: usize = 32;
const CLUSTERS: usize = 64;
const CENTROIDS: usize = 256;
const NPROBE: usize = 8;
const TOP: usize = 10;
const THREADS: usize = 2;
const RECALL_USERS: usize = 256;
/// A query over this is counted as slow in the result file's notes.  It
/// does not count as failed: a frozen in-memory scan has no way to fail
/// late, so a 50 ms query is a client thread that lost its core to the box
/// (1 in 1.4M on the driver's machine), and an operation count that moves
/// with the neighbours cannot be compared between runs.  A failed query is
/// one the engine answered with an error.
const SLOW_QUERY: Duration = Duration::from_millis(50);
/// Seeds the catalog and its IVF k-means.  Fixed, like the registry's
/// datasets: the run's seed picks the users who query, not what they query.
/// With a catalog per seed the k-means cells came out differently balanced
/// and the same code served 14.9k, 15.4k and 16.5k approx queries/s on
/// seeds 62, 60 and 61 (each within 2% when repeated) — a spread between
/// the driver's differently-seeded runs that no change could be told from.
const CATALOG_SEED: u64 = 0x0CA7_A106;
/// Closed loops per phase; each is one sample for the quiet quartiles.
const BATCHES: u64 = 25;
/// Recall below this means the index or the catalog recipe broke.
const RECALL_FLOOR: f64 = 0.95;

struct Sizing {
    users: usize,
    items: usize,
    exact_queries: u64,
    approx_queries: u64,
}

impl Sizing {
    fn new(ctx: &Ctx) -> Self {
        if ctx.smoke {
            return Self {
                users: 512,
                items: 2_048,
                exact_queries: 400,
                approx_queries: 2_000,
            };
        }
        Self {
            users: 8_192,
            items: 65_536,
            // ~1.7k and ~16k queries/s on the reference box: each phase
            // takes a bit over a third of the window.
            exact_queries: 600 * ctx.seconds,
            approx_queries: 5_000 * ctx.seconds,
        }
    }
}

/// A mixture-of-Gaussians factor model: items sit tightly around
/// `CLUSTERS` centres (the regime IVF exploits) and users near the same
/// centres, so a user's top-k concentrates in a few cells.
fn catalog(seed: u64, users: usize, items: usize) -> FactorModel {
    let mut rng = SmallRng64::new(seed);
    let centres: Vec<Vec<f64>> = (0..CLUSTERS)
        .map(|_| (0..K).map(|_| rng.next_gaussian()).collect())
        .collect();
    let mut place = |rows: usize, spread: f64| {
        let mut m = FactorMatrix::zeros(rows, K);
        for r in 0..rows {
            let centre = &centres[rng.next_below(CLUSTERS)];
            for (dst, &c) in m.row_mut(r).iter_mut().zip(centre) {
                *dst = c + spread * rng.next_gaussian();
            }
        }
        m
    };
    FactorModel {
        w: place(users, 0.35),
        h: place(items, 0.2),
    }
}

fn ivf_params() -> IvfParams {
    IvfParams {
        n_centroids: CENTROIDS,
        seed: CATALOG_SEED,
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Exact,
    Approx,
}

#[derive(Default)]
struct Phase {
    wall_s: f64,
    /// Ascending.
    latency_ns: Vec<u64>,
    failed: u64,
    slow: u64,
    /// Queries per second and mean latency (µs) of each closed loop.
    batch_queries_per_s: Vec<f64>,
    batch_mean_us: Vec<f64>,
}

impl Phase {
    fn queries_per_s(&self) -> f64 {
        self.latency_ns.len() as f64 / self.wall_s
    }

    fn mean_us(&self) -> f64 {
        self.latency_ns.iter().sum::<u64>() as f64 / self.latency_ns.len() as f64 / 1e3
    }
}

impl Phase {
    fn absorb(&mut self, one: Phase) {
        self.batch_queries_per_s.push(one.queries_per_s());
        self.batch_mean_us.push(one.mean_us());
        self.wall_s += one.wall_s;
        self.failed += one.failed;
        self.slow += one.slow;
        self.latency_ns.extend(one.latency_ns);
    }
}

/// The two phases as `BATCHES` closed loops each (fewer when there are not
/// enough queries to go round), taking turns: an exact loop, an approx
/// loop, and so on.  Back to back, each phase sampled eight seconds of the
/// box and a slow spell that long fell on one of them whole; in turns both
/// sample the full window, so the same spell spoils half the loops of
/// each, which the quiet quartile shrugs off.
fn phases(
    ctx: &Ctx,
    parent: Option<u64>,
    engine: &QueryEngine<'_>,
    size: &Sizing,
    threads: usize,
    (exact_queries, approx_queries): (u64, u64),
) -> (Phase, Phase) {
    let per_loop = 8 * threads as u64;
    let batches = BATCHES
        .min(exact_queries.min(approx_queries) / per_loop)
        .max(1);
    let (mut exact, mut approx) = (Phase::default(), Phase::default());
    for batch in 0..batches {
        for (pooled, kind, queries) in [
            (&mut exact, Kind::Exact, exact_queries),
            (&mut approx, Kind::Approx, approx_queries),
        ] {
            pooled.absorb(closed_loop(
                ctx,
                parent,
                engine,
                size,
                kind,
                threads,
                queries / batches,
                batch,
            ));
        }
    }
    exact.latency_ns.sort_unstable();
    approx.latency_ns.sort_unstable();
    (exact, approx)
}

/// `threads` clients, each sending its next query as soon as the last one
/// is answered, `queries` in total over the seeded user sequence of this
/// `batch`.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    ctx: &Ctx,
    parent: Option<u64>,
    engine: &QueryEngine<'_>,
    size: &Sizing,
    kind: Kind,
    threads: usize,
    queries: u64,
    batch: u64,
) -> Phase {
    let name = match kind {
        Kind::Exact => "serve.query.top_k",
        Kind::Approx => "serve.query.top_k_approx",
    };
    let per_thread = (queries / threads as u64).max(1);
    let start = Instant::now();
    let results: Vec<(Vec<u64>, u64, u64)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut rng = SmallRng64::new(ctx.seed ^ (0x51A7 + t as u64) ^ (batch << 32));
                    let mut spans = ctx.tracer.local();
                    let mut latency_ns = Vec::with_capacity(per_thread as usize);
                    let (mut failed, mut slow) = (0u64, 0u64);
                    for _ in 0..per_thread {
                        let user = rng.next_below(size.users) as u32;
                        let sent = Instant::now();
                        let answer = spans.span(name, parent, |_| match kind {
                            Kind::Exact => engine.top_k(user, TOP, &[]),
                            Kind::Approx => engine.top_k_approx(user, TOP, NPROBE, &[]),
                        });
                        let took = sent.elapsed();
                        latency_ns.push(took.as_nanos() as u64);
                        failed += u64::from(answer.is_err());
                        slow += u64::from(took > SLOW_QUERY);
                        black_box(&answer);
                    }
                    (latency_ns, failed, slow)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("query thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let failed = results.iter().map(|(_, f, _)| f).sum();
    let slow = results.iter().map(|(_, _, s)| s).sum();
    let mut latency_ns: Vec<u64> = results.into_iter().flat_map(|(l, _, _)| l).collect();
    latency_ns.sort_unstable();
    Phase {
        wall_s,
        latency_ns,
        failed,
        slow,
        ..Phase::default()
    }
}

/// Share of the exact top-10 the approximate path returns, over a seeded
/// sample of users.
fn recall_at_10(ctx: &Ctx, engine: &QueryEngine<'_>, size: &Sizing) -> Result<f64, String> {
    let mut rng = SmallRng64::new(ctx.seed ^ 0x4ECA);
    let (mut hit, mut total) = (0usize, 0usize);
    for _ in 0..RECALL_USERS {
        let user = rng.next_below(size.users) as u32;
        let exact = engine.top_k(user, TOP, &[]).map_err(|e| e.to_string())?;
        let approx = engine
            .top_k_approx(user, TOP, NPROBE, &[])
            .map_err(|e| e.to_string())?;
        total += exact.recs.len();
        hit += exact
            .recs
            .iter()
            .filter(|r| approx.recs.iter().any(|a| a.item == r.item))
            .count();
    }
    Ok(hit as f64 / total.max(1) as f64)
}

fn p99_us(phase: &Phase) -> (f64, f64) {
    let (q, ns) = tail_percentile(&phase.latency_ns, 0.99);
    (q, ns as f64 / 1e3)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let size = Sizing::new(ctx);
    let tr = &ctx.tracer;
    let mut metrics = Metrics::default();

    // Set-up: generate the catalog, publish it, build the IVF index (the
    // engine builds it on first use, so asking for the centroid count is
    // the warm-up).  The engine borrows the publisher, so the last set-up
    // is unrolled to keep both alive for the measurement.
    let publish = |model: &FactorModel| {
        let publisher = SnapshotPublisher::new(1 << 40);
        tr.span("serve.publisher.publish_model", None, |_| {
            publisher.publish_model(model, 1)
        });
        publisher
    };
    let warm_index = |engine: &QueryEngine<'_>| {
        tr.span("serve.ivf.build", None, |_| engine.ivf_centroids())
            .map_err(|e| e.to_string())
    };
    let mut setup_s = Vec::new();
    for _ in 1..if ctx.trace { 1 } else { SETUP_REPS } {
        let start = Instant::now();
        let model = catalog(CATALOG_SEED, size.users, size.items);
        let publisher = publish(&model);
        warm_index(&QueryEngine::with_ivf_params(&publisher, 1, ivf_params()))?;
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let start = Instant::now();
    let model = catalog(CATALOG_SEED, size.users, size.items);
    let publisher = publish(&model);
    let engine = QueryEngine::with_ivf_params(&publisher, 1, ivf_params());
    let centroids = warm_index(&engine)?;
    setup_s.push(start.elapsed().as_secs_f64());
    metrics.push("setup_s", quiet_quartile(&setup_s, Better::Lower));

    checks::full_probe_equals_exact(ctx, None, &engine, size.users, TOP)?;

    // Warm-up, discarded.
    for (kind, queries) in [
        (Kind::Exact, size.exact_queries / 50),
        (Kind::Approx, size.approx_queries / 50),
    ] {
        closed_loop(ctx, None, &engine, &size, kind, THREADS, queries, u64::MAX);
    }

    // A traced run splits the window between the untraced and traced
    // passes and the single-thread probes.
    let share = if ctx.trace { 4 } else { 1 };
    let (exact_queries, approx_queries) = (size.exact_queries / share, size.approx_queries / share);
    let measure = |parent: Option<u64>, threads: usize, queries: (u64, u64)| {
        phases(ctx, parent, &engine, &size, threads, queries)
    };
    let (exact, approx) = measure(None, THREADS, (exact_queries, approx_queries));
    let recall = recall_at_10(ctx, &engine, &size)?;
    let mut attempted = (exact.latency_ns.len() + approx.latency_ns.len()) as u64;
    let mut failed = exact.failed + approx.failed;
    let slow = exact.slow + approx.slow;
    let (exact_q, exact_p99) = p99_us(&exact);
    let (approx_q, approx_p99) = p99_us(&approx);
    metrics.push("exact_queries_per_s", exact.queries_per_s());
    metrics.push("approx_queries_per_s", approx.queries_per_s());
    // The mean, not the median: the scan streams 16 MiB per query and runs
    // at one of two speeds with whatever else is on the memory bus, so the
    // median jumps between the two modes from run to run (14% spread over
    // ten runs) where the mean moves with their mix (7%).
    metrics.push("exact_query_mean_us", exact.mean_us());
    metrics.push("exact_query_p99_us", exact_p99);
    metrics.push("approx_query_p99_us", approx_p99);
    metrics.push("approx_recall_at_10", recall);
    // The bounded pair guards the two kernels separately, each by the
    // quiet quartile of its closed loops: the IVF path through its
    // throughput, the exact scan through its mean latency.
    metrics.push(
        "ops_per_s",
        quiet_quartile(&approx.batch_queries_per_s, Better::Higher),
    );
    metrics.push(
        "latency_ms",
        quiet_quartile(&exact.batch_mean_us, Better::Lower) / 1e3,
    );

    if ctx.trace {
        let (traced_exact, traced_approx) = tr.span("harness.traced_rep", None, |p| {
            measure(p, THREADS, (exact_queries, approx_queries))
        });
        attempted += (traced_exact.latency_ns.len() + traced_approx.latency_ns.len()) as u64;
        failed += traced_exact.failed + traced_approx.failed;
        metrics.push(
            "trace.overhead_share",
            (traced_exact.wall_s + traced_approx.wall_s) / (exact.wall_s + approx.wall_s),
        );

        tr.span("harness.probes", None, |p| -> Result<(), String> {
            probes::common(ctx, p, &mut metrics)?;

            // One client: the scan with the memory bus to itself, and the
            // base the two-client phases are scaled against.
            let (solo_exact, solo_approx) =
                measure(p, 1, (size.exact_queries / 8, size.approx_queries / 8));
            let mean_ns = solo_exact.wall_s * 1e9 / solo_exact.latency_ns.len() as f64;
            metrics.push(
                "serve.snapshot.exact_scan_ns_per_item",
                mean_ns / size.items as f64,
            );
            metrics.push(
                "serve.query.exact_thread_scaling",
                exact.queries_per_s() / solo_exact.queries_per_s(),
            );
            metrics.push(
                "serve.query.approx_thread_scaling",
                approx.queries_per_s() / solo_approx.queries_per_s(),
            );
            metrics.push("serve.ivf.centroids", centroids as f64);
            let latest_ns = tr.span("serve.publisher.latest", p, |_| {
                ns_per_op(5, if ctx.smoke { 1_000 } else { 200_000 }, || {
                    black_box(publisher.latest());
                })
            });
            metrics.push("serve.publisher.latest_ns", latest_ns);
            publish_and_refresh(ctx, p, model.clone(), &mut metrics);
            Ok(())
        })?;
    }

    if recall < RECALL_FLOOR {
        return Err(format!("approx recall@10 {recall} is under {RECALL_FLOOR}"));
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        repetitions: 1,
        notes: vec![
            ("exact_queries", Value::Num(exact.latency_ns.len() as f64)),
            ("approx_queries", Value::Num(approx.latency_ns.len() as f64)),
            ("exact_tail_quantile", Value::Num(exact_q)),
            ("approx_tail_quantile", Value::Num(approx_q)),
            ("slow_queries", Value::Num(slow as f64)),
            (
                "approx_loop_queries_per_s",
                Value::nums(&approx.batch_queries_per_s),
            ),
            ("exact_loop_mean_us", Value::nums(&exact.batch_mean_us)),
        ],
    })
}

/// The publish and index-maintenance path a live catalog pays: publish,
/// perturb 5% of the item rows, publish again, and patch the index from
/// the publisher's delta set instead of rebuilding it.
fn publish_and_refresh(ctx: &Ctx, parent: Option<u64>, mut model: FactorModel, out: &mut Metrics) {
    let tr = &ctx.tracer;
    let items = model.num_items();
    let mut rng = SmallRng64::new(ctx.seed ^ 0xDE17A);
    let mut perturb = |model: &mut FactorModel| {
        for _ in 0..(items / 20).max(1) {
            let j = rng.next_below(items);
            for v in model.h.row_mut(j) {
                *v += 0.05 * rng.next_gaussian();
            }
        }
    };
    let publisher = SnapshotPublisher::new(1 << 40);
    publisher.begin_run(model.num_users(), items, K, 1);
    let mut publish_s = Vec::new();
    let mut publish = |model: &FactorModel, updates: u64| {
        let start = Instant::now();
        tr.span("serve.publisher.publish_model", parent, |_| {
            publisher.publish_model(model, updates)
        });
        publish_s.push(start.elapsed().as_secs_f64());
    };
    publish(&model, 10);
    perturb(&mut model);
    publish(&model, 20);
    let consumer = publisher.latest().expect("published");
    let start = Instant::now();
    let mut index = tr.span("serve.ivf.build", parent, |_| {
        IvfIndex::build(&consumer, ivf_params())
    });
    out.push("serve.ivf.build_s", start.elapsed().as_secs_f64());
    perturb(&mut model);
    publish(&model, 30);
    // What a consumer at the previous epoch must fetch: the rows stamped
    // at its watermark or later (two perturbation rounds, ~10% of rows).
    let changed = publisher.changed_items_since(consumer.updates_at());
    let latest = publisher.latest().expect("published");
    let start = Instant::now();
    tr.span("serve.ivf.refresh", parent, |_| {
        black_box(index.refresh(&latest, &changed));
    });
    out.push("serve.ivf.refresh_s", start.elapsed().as_secs_f64());
    out.push(
        "serve.publisher.delta_rows_share",
        changed.len() as f64 / items as f64,
    );
    // The first publish allocates its buffer; the later two are the
    // steady state.
    out.push("serve.publisher.publish_model_s", median(&publish_s[1..]));
}
