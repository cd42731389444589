//! Property tests for the allocation-free threaded hot path.
//!
//! PR 3 replaced the threaded engine's per-token `Vec<f64>` factor
//! payloads with the shared [`nomad::core::FactorSlab`] arena.  The
//! refactor must be *invisible* to the numerics: at one worker, where the
//! execution order is deterministic, the slab engine has to produce
//! bit-identical factor matrices to the old Vec-payload token loop.  The
//! reference implementation of that old loop lives here, in test code,
//! and the property drives both over random sparse matrices, latent
//! dimensions and update budgets.

use std::collections::VecDeque;

use proptest::prelude::*;

use nomad::core::worker::WorkerData;
use nomad::core::{NomadConfig, StopCondition, ThreadedNomad};
use nomad::linalg::vec_ops::sgd_pair_update;
use nomad::matrix::{Idx, RatingMatrix, RowPartition, TripletMatrix};
use nomad::sgd::{FactorModel, HyperParams, StepSchedule};

/// Strategy: a random small rating matrix with at least one rating (so an
/// update budget is always reachable).
fn arb_ratings() -> impl Strategy<Value = TripletMatrix> {
    (2usize..16, 1usize..12, 1usize..60, any::<u64>()).prop_map(|(rows, cols, nnz, seed)| {
        let mut t = TripletMatrix::new(rows, cols);
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut used = std::collections::HashSet::new();
        for _ in 0..nnz {
            let i = (next() % rows as u64) as u32;
            let j = (next() % cols as u64) as u32;
            if used.insert((i, j)) {
                let value = (next() % 1000) as f64 / 100.0 - 5.0;
                t.push(i, j, value);
            }
        }
        t
    })
}

/// The pre-slab threaded engine at one worker: tokens carry their factor
/// row as an owned `Vec<f64>` through a FIFO queue.  Mirrors the engine's
/// decision points exactly — stop-check before pop, per-worker pass
/// counts feeding the step schedule, ascending-user updates per column,
/// push-back after processing.
fn vec_payload_reference(
    data: &RatingMatrix,
    params: HyperParams,
    seed: u64,
    budget: u64,
) -> FactorModel {
    let init = FactorModel::init(data.nrows(), data.ncols(), params.k, seed);
    let partition = RowPartition::contiguous(data.nrows(), 1);
    let mut wd = WorkerData::build_all(data, &partition).remove(0);
    let schedule = params.nomad_schedule();

    let mut w = init.w.clone();
    // Initial placement: with one worker every token lands in queue 0 in
    // item order, exactly like the engine's seeded placement.
    let mut queue: VecDeque<(Idx, Vec<f64>)> = (0..data.ncols())
        .map(|j| (j as Idx, init.h.row(j).to_vec()))
        .collect();

    let mut updates = 0u64;
    while updates < budget {
        let (item, mut h) = queue.pop_front().expect("tokens are conserved");
        let t = wd.record_pass(item);
        let step = schedule.step(t);
        let (users, ratings) = wd.local_cols.col_slices(item as usize);
        for (&user, &rating) in users.iter().zip(ratings) {
            sgd_pair_update(
                w.row_mut(user as usize),
                &mut h,
                rating,
                step,
                params.lambda,
            );
        }
        updates += users.len() as u64;
        queue.push_back((item, h));
    }

    let mut h = nomad::sgd::FactorMatrix::zeros(data.ncols(), params.k);
    for (item, payload) in queue {
        h.set_row(item as usize, &payload);
    }
    FactorModel { w, h }
}

/// Stress test: 8 producers and 8 consumers hammer the same [`Inbox`]
/// queues the engine uses, with the consumers driven through a seeded
/// [`FuzzController`] turnstile (delayed pops, paused consumers, biased
/// routing) and waiting on their queues when idle, as engine workers do.
/// The controller is exercised as a plain object here — no global
/// install, no `sched-fuzz` feature needed — and the oracle is exact
/// token conservation: every token retires after exactly `HOPS` visits,
/// none lost, none duplicated.
///
/// [`Inbox`]: nomad::core::queue::Inbox
#[test]
fn queue_stress_under_schedule_controller_conserves_tokens() {
    use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

    use nomad::core::queue::Inbox;
    use nomad::core::sched::{FaultPlan, FuzzCase, FuzzController, ScheduleController, Strategy};

    const LANES: usize = 8;
    const TOKENS_PER_PRODUCER: usize = 200;
    const TOTAL: usize = LANES * TOKENS_PER_PRODUCER;
    const HOPS: u32 = 4;

    for strategy in [Strategy::Pct, Strategy::Starve, Strategy::Burst] {
        let ctrl = FuzzController::new(FuzzCase::new(0xF00D, strategy), FaultPlan::default());
        let queues: Vec<Inbox<usize>> = (0..LANES).map(|_| Inbox::new()).collect();
        let visits: Vec<AtomicU32> = (0..TOTAL).map(|_| AtomicU32::new(0)).collect();
        let retired = Inbox::new();
        let retired_count = AtomicUsize::new(0);

        std::thread::scope(|scope| {
            // Producers run free (uncontrolled), racing the turnstile.
            for p in 0..LANES {
                let queues = &queues;
                scope.spawn(move || {
                    for i in 0..TOKENS_PER_PRODUCER {
                        let id = p * TOKENS_PER_PRODUCER + i;
                        queues[(p + i) % LANES].push(id);
                    }
                });
            }
            // Consumers pause at hop boundaries under the controller.
            for c in 0..LANES {
                let (ctrl, queues, visits) = (&ctrl, &queues, &visits);
                let (retired, retired_count) = (&retired, &retired_count);
                scope.spawn(move || loop {
                    if retired_count.load(Ordering::Acquire) == TOTAL {
                        ctrl.done(c);
                        break;
                    }
                    ctrl.before_pop(c);
                    match queues[c].pop() {
                        None => {
                            ctrl.after_pop(c, false);
                            queues[c].wait(None);
                        }
                        Some(id) => {
                            ctrl.after_pop(c, true);
                            let seen = visits[id].fetch_add(1, Ordering::AcqRel) + 1;
                            if seen < HOPS {
                                let dest = ctrl.route(c, id as Idx, (c + 1) % LANES, LANES);
                                assert!(dest < LANES, "controller routed out of range");
                                ctrl.before_push(c, dest);
                                queues[dest].push(id);
                            } else {
                                retired.push(id);
                                if retired_count.fetch_add(1, Ordering::Release) + 1 == TOTAL {
                                    // The last retirement: wake the idle.
                                    queues.iter().for_each(Inbox::wake);
                                }
                            }
                        }
                    }
                });
            }
        });

        // Conservation: every token retired exactly once after exactly
        // HOPS visits, and no queue still holds anything.
        assert_eq!(retired.len(), TOTAL, "{strategy}: token count drifted");
        let mut seen = vec![false; TOTAL];
        while let Some(id) = retired.pop() {
            assert!(!seen[id], "{strategy}: token {id} retired twice");
            seen[id] = true;
        }
        assert!(seen.iter().all(|&s| s), "{strategy}: token lost");
        for (id, v) in visits.iter().enumerate() {
            assert_eq!(
                v.load(Ordering::Acquire),
                HOPS,
                "{strategy}: token {id} visit count"
            );
        }
        assert!(
            queues.iter().all(|q| q.is_empty()),
            "{strategy}: queue not drained"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The slab engine at p = 1 is bit-identical to the Vec-payload path.
    #[test]
    fn slab_engine_matches_vec_payload_reference_bit_for_bit(
        t in arb_ratings(),
        k in 1usize..12,
        budget in 50u64..1200,
        seed in any::<u64>(),
    ) {
        let data = RatingMatrix::from_triplets(&t);
        let params = HyperParams::netflix().with_k(k);
        let reference = vec_payload_reference(&data, params, seed, budget);

        let cfg = NomadConfig::new(params)
            .with_stop(StopCondition::Updates(budget))
            .with_seed(seed);
        let out = ThreadedNomad::new(cfg).run(&data, &t, 1, 1);

        prop_assert_eq!(
            &out.model.w, &reference.w,
            "user factors diverged from the Vec-payload reference"
        );
        prop_assert_eq!(
            &out.model.h, &reference.h,
            "item factors diverged from the Vec-payload reference"
        );
    }

    /// Recording the schedule or not must never change the trained model
    /// (the recording flag only controls observability).
    #[test]
    fn schedule_recording_flag_does_not_change_training(
        t in arb_ratings(),
        budget in 50u64..600,
        seed in any::<u64>(),
    ) {
        let data = RatingMatrix::from_triplets(&t);
        let params = HyperParams::netflix().with_k(4);
        let base = NomadConfig::new(params)
            .with_stop(StopCondition::Updates(budget))
            .with_seed(seed);
        let on = ThreadedNomad::new(base).run(&data, &t, 1, 1);
        let off = ThreadedNomad::new(base.with_schedule_recording(false)).run(&data, &t, 1, 1);
        prop_assert_eq!(on.model, off.model);
        prop_assert!(off.schedule.is_empty());
    }
}
