//! Micro-benchmarks of the arithmetic kernels every solver is built from:
//! the SGD pair update (Eqs. 9–10), the ALS row solve (Eq. 3), the CCD
//! coordinate update (Eq. 6), and the step-size schedule evaluation.
//!
//! These are the constants `a` (compute cost per update) of the paper's
//! complexity analysis, measured on the host machine — with both rows in
//! L1.  `sweep_cold` is the same update as the engines actually run it:
//! one hot `h_j` against user rows gathered from a `W` far larger than L2,
//! through `nomad_core::hop::sweep` and through a plain loop that does not
//! look ahead, so the share of a workload's update time that is load
//! stall rather than arithmetic can be read off per `k`.  `sweep_hot` is
//! the other end: the same `sweep` over a `W` that stays in cache, in the
//! widest kernel form the CPU has and in the portable one, so the compute
//! floor of a sweep — which `sgd_pair_update` on one hot `(w, h)` pair
//! overstates, because there every update waits for the previous one's
//! `w` as well as its `h` — can be read off per `k` and per form.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use nomad_core::hop::{sweep, sweep_on};
use nomad_core::WorkerData;
use nomad_linalg::vec_ops::{sgd_pair_update, Portable};
use nomad_matrix::{Idx, RatingMatrix, RowPartition, TripletMatrix};
use nomad_sgd::schedule::StepSchedule;
use nomad_sgd::{
    als_solve_row, ccd_coordinate_update, FactorMatrix, HyperParams, InitStrategy, NomadStep,
};

fn bench_sgd_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("sgd_pair_update");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for &k in &[10usize, 20, 50, 100] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            let mut w = vec![0.1f64; k];
            let mut h = vec![0.2f64; k];
            b.iter(|| {
                sgd_pair_update(
                    black_box(&mut w),
                    black_box(&mut h),
                    black_box(3.5),
                    1e-3,
                    0.05,
                )
            });
        });
    }
    group.finish();
}

/// Ratings per column of the `sweep_*` matrices: one iteration is one
/// sweep of one column, so ns/iter ÷ this is ns per update.
const COLUMN_RATINGS: usize = 1024;
/// Columns cycled through, so consecutive iterations gather different rows.
const COLUMNS: usize = 128;
/// Least size of the cold `W`: 32× the 2 MiB per-core L2 of the box the
/// numbers in DESIGN.md come from, about `train-local`'s 69 MB.
const COLD_W_BYTES: usize = 64 << 20;
/// Least size of the hot `W`: half of that L2, so after the warm-up
/// every row is a cache hit and what is left is the kernel.
const HOT_W_BYTES: usize = 1 << 20;

/// Rows of a `W` of at least `bytes` bytes at dimension `k`, a multiple of
/// the column length.
fn rows_for(bytes: usize, k: usize) -> usize {
    (bytes / (k * size_of::<f64>())).next_multiple_of(COLUMN_RATINGS)
}

/// One worker's view of a `nrows × COLUMNS` matrix whose every column
/// rates one user out of each `nrows / COLUMN_RATINGS` consecutive ones:
/// ascending like any CSC column, irregular, and spread over all of `W`.
fn scattered_columns(nrows: usize) -> WorkerData {
    let stride = nrows / COLUMN_RATINGS;
    let mut t = TripletMatrix::new(nrows, COLUMNS);
    for j in 0..COLUMNS {
        for i in 0..COLUMN_RATINGS {
            let jitter = (j * 0x9E37 + i * 0x79B9) % stride;
            t.push((i * stride + jitter) as Idx, j as Idx, 3.0);
        }
    }
    let data = RatingMatrix::from_triplets(&t);
    WorkerData::build_all(&data, &RowPartition::contiguous(nrows, 1)).remove(0)
}

fn bench_sweep_cold(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_cold");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(20);
    for &k in &[8usize, 32, 100] {
        let nrows = rows_for(COLD_W_BYTES, k);
        let params = HyperParams::netflix().with_k(k);
        let mut wd = scattered_columns(nrows);
        let mut w = FactorMatrix::init(nrows, k, InitStrategy::UniformScaled, 5);
        let mut h = vec![0.1f64; k];
        let mut next = 0usize;
        group.bench_function(BenchmarkId::new("sweep", format!("k{k}")), |b| {
            b.iter(|| {
                next = (next + 1) % COLUMNS;
                sweep(&mut wd, &mut w, black_box(next as Idx), &mut h, &params)
            });
        });
        // The reference: Algorithm 1, lines 14-21, written out with the
        // `col()` iterator and no look-ahead.
        group.bench_function(BenchmarkId::new("plain_loop", format!("k{k}")), |b| {
            b.iter(|| {
                next = (next + 1) % COLUMNS;
                let item = black_box(next as Idx);
                let step = params.nomad_schedule().step(wd.record_pass(item));
                let mut updates = 0u64;
                for (user, rating) in wd.local_cols.col(item as usize) {
                    let row = w.row_mut(user as usize);
                    sgd_pair_update(row, &mut h, rating, step, params.lambda);
                    updates += 1;
                }
                updates
            });
        });
    }
    group.finish();
}

fn bench_sweep_hot(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_hot");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(20);
    for &k in &[8usize, 32, 100] {
        let nrows = rows_for(HOT_W_BYTES, k);
        let params = HyperParams::netflix().with_k(k);
        let mut wd = scattered_columns(nrows);
        let mut w = FactorMatrix::init(nrows, k, InitStrategy::UniformScaled, 5);
        let mut h = vec![0.1f64; k];
        let mut next = 0usize;
        // What the engines call: the widest form this CPU has.
        group.bench_function(BenchmarkId::new("wide", format!("k{k}")), |b| {
            b.iter(|| {
                next = (next + 1) % COLUMNS;
                sweep(&mut wd, &mut w, black_box(next as Idx), &mut h, &params)
            });
        });
        group.bench_function(BenchmarkId::new("portable", format!("k{k}")), |b| {
            b.iter(|| {
                next = (next + 1) % COLUMNS;
                let item = black_box(next as Idx);
                sweep_on(Portable, &mut wd, &mut w, item, &mut h, &params)
            });
        });
    }
    group.finish();
}

fn bench_als_row_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("als_row_solve");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(20);
    for &k in &[10usize, 50, 100] {
        let neighbors: Vec<(Vec<f64>, f64)> = (0..50)
            .map(|i| {
                (
                    (0..k).map(|l| ((i * k + l) as f64).sin() * 0.1).collect(),
                    (i as f64).cos(),
                )
            })
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                als_solve_row(
                    neighbors.iter().map(|(h, a)| (h.as_slice(), *a)),
                    k,
                    black_box(0.05 * 50.0),
                )
            });
        });
    }
    group.finish();
}

fn bench_ccd_coordinate(c: &mut Criterion) {
    let pairs: Vec<(f64, f64)> = (0..100)
        .map(|i| ((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
        .collect();
    c.bench_function("ccd_coordinate_update_100_ratings", |b| {
        b.iter(|| ccd_coordinate_update(black_box(pairs.iter().copied()), 0.3, 0.05))
    });
}

fn bench_step_schedule(c: &mut Criterion) {
    let schedule = NomadStep::new(0.012, 0.05);
    c.bench_function("nomad_step_schedule", |b| {
        let mut t = 0u64;
        b.iter(|| {
            t = t.wrapping_add(1);
            schedule.step(black_box(t))
        })
    });
}

criterion_group!(
    kernels,
    bench_sgd_update,
    bench_sweep_cold,
    bench_sweep_hot,
    bench_als_row_solve,
    bench_ccd_coordinate,
    bench_step_schedule
);
criterion_main!(kernels);
