//! Per-layer probes: small timed calls into one layer's public functions,
//! on the shapes the workloads use.  Each probe runs inside a span named
//! after its layer, so the per-layer table accounts for probe time too.
//!
//! The cheap probes (kernels, queue, telemetry, codec, round trips) do not
//! depend on the workload's data and run on every traced workload; the rest
//! take the workload's dataset.  A probe only one workload can run lives
//! with that workload.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crossbeam::queue::SegQueue;
use nomad_cluster::ComputeModel;
use nomad_core::{
    EngineTelemetry, NomadConfig, SerialNomad, StopCondition, ThreadedNomad, WorkerData,
};
use nomad_data::generator::generate_triplets;
use nomad_data::{DatasetRecipe, GeneratedDataset, SizeTier};
use nomad_matrix::RowPartition;
use nomad_net::{Loopback, Message, TcpTransport, Transport, WireToken, QUERY_OK};
use nomad_sgd::{update::sgd_update, FactorModel, HyperParams};
use nomad_telemetry::Registry;

use crate::harness::{recipe, Ctx, Metrics};
use crate::stats::median;

/// Median over `batches` of the per-operation time of `iters` calls.
pub fn ns_per_op(batches: usize, iters: u64, mut op: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                op();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&samples)
}

const KERNEL_KS: [(usize, &str, &str); 3] = [
    (8, "linalg.dot_ns_k8", "linalg.sgd_pair_update_ns_k8"),
    (32, "linalg.dot_ns_k32", "linalg.sgd_pair_update_ns_k32"),
    (100, "linalg.dot_ns_k100", "linalg.sgd_pair_update_ns_k100"),
];

/// The arithmetic floor: both rows stay in L1 for the whole probe.
fn kernels(ctx: &Ctx, parent: Option<u64>, out: &mut Metrics) {
    let iters = if ctx.smoke { 10_000 } else { 400_000 };
    for (k, dot_name, update_name) in KERNEL_KS {
        let x: Vec<f64> = (0..k).map(|i| 0.01 * (i as f64 + 1.0)).collect();
        let y: Vec<f64> = (0..k).map(|i| 0.02 * (k - i) as f64).collect();
        let ns = ctx.tracer.span("linalg.dot", parent, |_| {
            ns_per_op(5, iters, || {
                black_box(nomad_linalg::dot(black_box(&x), black_box(&y)));
            })
        });
        out.push(dot_name, ns);

        let (mut w, mut h) = (x.clone(), y.clone());
        // A step this small keeps the rows bounded over millions of
        // updates; the arithmetic is the same for any step.
        let ns = ctx.tracer.span("linalg.sgd_pair_update", parent, |_| {
            ns_per_op(5, iters, || {
                black_box(nomad_linalg::vec_ops::sgd_pair_update(
                    black_box(&mut w),
                    black_box(&mut h),
                    3.5,
                    1e-9,
                    0.05,
                ));
            })
        });
        out.push(update_name, ns);
    }
}

/// The token queue alone: a push and a pop on one thread, and the cost of
/// handing one token to another thread and getting one back.
fn queue(ctx: &Ctx, parent: Option<u64>, out: &mut Metrics) {
    let iters = if ctx.smoke { 10_000 } else { 1_000_000 };
    let q: SegQueue<(u32, u64)> = SegQueue::new();
    let ns = ctx.tracer.span("queue.push_pop", parent, |_| {
        ns_per_op(5, iters, || {
            q.push(black_box((7, 1)));
            black_box(q.pop());
        })
    });
    out.push("queue.push_pop_ns", ns);

    let round_trips: u64 = if ctx.smoke { 2_000 } else { 100_000 };
    let (ping, pong): (SegQueue<u64>, SegQueue<u64>) = (SegQueue::new(), SegQueue::new());
    let ns = ctx.tracer.span("queue.handoff", parent, |_| {
        // Spin briefly, then yield: should the scheduler put both threads
        // on one core, a pure spin would burn a whole time slice per
        // hand-off.
        let pop = |q: &SegQueue<u64>| {
            let mut spins = 0u32;
            loop {
                if let Some(v) = q.pop() {
                    break v;
                }
                spins += 1;
                if spins.is_multiple_of(64) {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        };
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for _ in 0..round_trips {
                    let v = pop(&ping);
                    pong.push(v + 1);
                }
            });
            let start = Instant::now();
            for i in 0..round_trips {
                ping.push(i);
                black_box(pop(&pong));
            }
            // Two hand-offs per round trip.
            start.elapsed().as_nanos() as f64 / (2 * round_trips) as f64
        })
    });
    out.push("queue.handoff_ns", ns);
}

fn telemetry(ctx: &Ctx, parent: Option<u64>, out: &mut Metrics) {
    let iters = if ctx.smoke { 10_000 } else { 1_000_000 };
    let registry = Registry::new();
    let telem = EngineTelemetry::register(&registry);
    let ns = ctx.tracer.span("telemetry.note_hop", parent, |_| {
        ns_per_op(5, iters, || telem.note_hop(black_box(100), black_box(3)))
    });
    out.push("telemetry.note_hop_ns", ns);
}

/// The wire codec on the frame `train-ranks` sends most: 100 tokens of
/// k=8, the default message batch.
fn wire(ctx: &Ctx, parent: Option<u64>, out: &mut Metrics) {
    let iters = if ctx.smoke { 200 } else { 20_000 };
    let batch = Message::TokenBatch {
        qlen: 17,
        tokens: (0..100)
            .map(|j| WireToken {
                item: j,
                pass: 3,
                factor: (0..8).map(|c| 0.1 * (j + c) as f64).collect(),
            })
            .collect(),
    };
    let bytes = batch.encode().expect("token batch encodes");
    let ns = ctx.tracer.span("net.wire.encode", parent, |_| {
        ns_per_op(5, iters, || {
            black_box(black_box(&batch).encode().expect("token batch encodes"));
        })
    });
    out.push("net.wire.token_batch_encode_ns", ns);
    let ns = ctx.tracer.span("net.wire.decode", parent, |_| {
        ns_per_op(5, iters, || {
            black_box(Message::decode(black_box(&bytes)).expect("token batch decodes"));
        })
    });
    out.push("net.wire.token_batch_decode_ns", ns);
    out.push("net.wire.token_batch_bytes", bytes.len() as f64);

    // One query's codec work end to end: request and a top-10 reply, each
    // encoded once and decoded once.
    let query = Message::Query {
        id: 42,
        user: 1234,
        k: 10,
        seen: Vec::new(),
    };
    let reply = Message::QueryReply {
        id: 42,
        status: QUERY_OK,
        epoch: 9,
        updates_at: 1_000_000,
        staleness: 200_000,
        recs: (0..10).map(|j| (j, 1.0 / (j + 1) as f64)).collect(),
    };
    let ns = ctx.tracer.span("net.wire.query_codec", parent, |_| {
        ns_per_op(5, iters, || {
            for msg in [&query, &reply] {
                let frame = black_box(msg).encode().expect("query frame encodes");
                black_box(Message::decode(&frame).expect("query frame decodes"));
            }
        })
    });
    out.push("net.wire.query_codec_ns", ns);
}

/// Echoes every frame back to the driver endpoint until told to stop.
fn echo<T: Transport>(ep: &T, stop_rank: u32) {
    let driver = ep.ranks();
    while let Ok(Some((_, msg))) = ep.recv_timeout(Duration::from_secs(10)) {
        if matches!(msg, Message::Ping { rank } if rank == stop_rank) {
            return;
        }
        if ep.send(driver, &msg).is_err() {
            return;
        }
    }
}

/// Median round trip of a `Ping` between the driver endpoint and rank 0.
fn ping_pong<T: Transport>(driver: &T, round_trips: usize) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(round_trips);
    for _ in 0..round_trips {
        let start = Instant::now();
        driver
            .send(0, &Message::Ping { rank: 0 })
            .map_err(|e| format!("ping send: {e}"))?;
        match driver.recv_timeout(Duration::from_secs(10)) {
            Ok(Some(_)) => samples.push(start.elapsed().as_nanos() as f64 / 1e3),
            Ok(None) => return Err("ping echo timed out".into()),
            Err(e) => return Err(format!("ping recv: {e}")),
        }
    }
    Ok(median(&samples))
}

const STOP: u32 = u32::MAX;

/// What a message costs to cross each transport with nothing else going
/// on: the floor under every remote hop and every routed query.
fn round_trips(ctx: &Ctx, parent: Option<u64>, out: &mut Metrics) -> Result<(), String> {
    let n = if ctx.smoke { 50 } else { 2_000 };

    let rtt = ctx.tracer.span("net.loopback.rtt", parent, |_| {
        let (driver, mut ranks) = Loopback::mesh(1);
        let rank = ranks.pop().expect("one rank endpoint");
        std::thread::scope(|scope| {
            scope.spawn(move || echo(&rank, STOP));
            let rtt = ping_pong(&driver, n);
            let _ = driver.send(0, &Message::Ping { rank: STOP });
            rtt
        })
    })?;
    out.push("net.loopback.rtt_us", rtt);

    let rtt = ctx.tracer.span("net.tcp.rtt", parent, |_| {
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0))
            .map_err(|e| format!("bind localhost: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        std::thread::scope(|scope| {
            let rank = scope.spawn(move || -> Result<(), String> {
                let ep = TcpTransport::connect_rank(&addr, 0)
                    .map_err(|e| format!("rank connect: {e}"))?;
                echo(&ep, STOP);
                Ok(())
            });
            let rtt = TcpTransport::accept_ranks(listener, 1)
                .map_err(|e| format!("accept rank: {e}"))
                .and_then(|driver| {
                    let rtt = ping_pong(&driver, n);
                    let _ = driver.send(0, &Message::Ping { rank: STOP });
                    rtt
                });
            rank.join().expect("echo thread panicked")?;
            rtt
        })
    })?;
    out.push("net.tcp.rtt_us", rtt);
    Ok(())
}

/// The probes that need no workload data.
pub fn common(ctx: &Ctx, parent: Option<u64>, out: &mut Metrics) -> Result<(), String> {
    kernels(ctx, parent, out);
    queue(ctx, parent, out);
    telemetry(ctx, parent, out);
    wire(ctx, parent, out);
    round_trips(ctx, parent, out)
}

/// Set-up cost split by layer, on the workload's own recipe: generating
/// the ratings (`nomad-data`), partitioning the users and slicing the
/// columns (`nomad-matrix`), and building the per-worker views
/// (`nomad-core`, which contains the slicing).
pub fn setup_layers(
    ctx: &Ctx,
    parent: Option<u64>,
    recipe: &DatasetRecipe,
    ds: &GeneratedDataset,
    workers: usize,
    out: &mut Metrics,
) {
    let timed = |name: &'static str, f: &mut dyn FnMut()| {
        ctx.tracer.span(name, parent, |_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
    };
    out.push(
        "data.generate_s",
        timed("data.generate_triplets", &mut || {
            black_box(generate_triplets(&recipe.config));
        }),
    );
    out.push(
        "matrix.partition_s",
        timed("matrix.partition", &mut || {
            let partition = RowPartition::contiguous(ds.matrix.nrows(), workers);
            black_box(ds.matrix.by_cols().restrict_rows(&partition));
        }),
    );
    out.push(
        "core.worker_data_build_s",
        timed("core.worker_data_build", &mut || {
            let partition = RowPartition::contiguous(ds.matrix.nrows(), workers);
            black_box(WorkerData::build_all(&ds.matrix, &partition));
        }),
    );
}

/// One single-threaded sweep of every training column over a model of the
/// workload's size: the SGD kernel at the workload's real memory footprint,
/// with no queue, no hop loop and no second thread.  Returns ns per update.
pub fn epoch_sweep(
    ctx: &Ctx,
    parent: Option<u64>,
    ds: &GeneratedDataset,
    params: HyperParams,
    out: &mut Metrics,
) -> f64 {
    let mut model = FactorModel::init(ds.matrix.nrows(), ds.matrix.ncols(), params.k, ctx.seed);
    let cols = ds.matrix.by_cols();
    let ns = ctx.tracer.span("sgd.epoch_sweep", parent, |_| {
        let start = Instant::now();
        for j in 0..cols.ncols() {
            let (rows, values) = cols.col_slices(j);
            for (&i, &a) in rows.iter().zip(values) {
                sgd_update(&mut model, i, j as u32, a, params.alpha, params.lambda);
            }
        }
        start.elapsed().as_nanos() as f64 / cols.nnz().max(1) as f64
    });
    out.push("sgd.epoch_ns_per_update", ns);
    let eval_s = ctx.tracer.span("sgd.rmse", parent, |_| {
        let start = Instant::now();
        black_box(nomad_sgd::rmse(&model, &ds.test));
        start.elapsed().as_secs_f64()
    });
    out.push("sgd.rmse_eval_s", eval_s);
    ns
}

/// Updates per wall second of the plain single-worker engine: the baseline
/// the parallel engines are scaled against.
pub fn serial_updates_per_s(
    ctx: &Ctx,
    parent: Option<u64>,
    ds: &GeneratedDataset,
    cfg: NomadConfig,
) -> f64 {
    let start = Instant::now();
    let (_, trace) = ctx.tracer.span("core.serial.run", parent, |_| {
        SerialNomad::new(cfg).run(&ds.matrix, &ds.test, 1, &ComputeModel::hpc_core())
    });
    trace.metrics.updates as f64 / start.elapsed().as_secs_f64()
}

/// `ThreadedNomad` with 2 workers over `SerialNomad` where hops dominate:
/// `yahoo-sim` Small at k=8 is ~32 updates (~0.5 µs of kernel) per hop.
/// Below 1.0, two workers lose to one.
pub fn hop_bound_scaling(ctx: &Ctx, parent: Option<u64>, out: &mut Metrics) {
    let (tier, budget) = if ctx.smoke {
        (SizeTier::Tiny, 200_000)
    } else {
        (SizeTier::Small, 30_000_000)
    };
    let ds = recipe("yahoo-sim", tier).build();
    let cfg = NomadConfig::new(HyperParams::yahoo_music().with_k(8))
        .with_stop(StopCondition::Updates(budget))
        .with_seed(ctx.seed)
        .with_schedule_recording(false)
        .with_snapshot_every(f64::INFINITY);
    let start = Instant::now();
    let threaded = ctx.tracer.span("core.threaded.run", parent, |_| {
        ThreadedNomad::new(cfg).run(&ds.matrix, &ds.test, 2, 1)
    });
    let threaded_ups = threaded.trace.metrics.updates as f64 / start.elapsed().as_secs_f64();
    out.push(
        "core.threaded.hop_bound_scaling",
        threaded_ups / serial_updates_per_s(ctx, parent, &ds, cfg),
    );
}
