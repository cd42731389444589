//! The exact-vs-approx pinning harness for the IVF shortlist index.
//!
//! Property families:
//!
//! 1. **Full-probe bit-identity** — with `nprobe == n_centroids` the
//!    approximate path returns *bit*-identical scores in the identical
//!    (tie-resolved) order as the exact scan, for arbitrary models,
//!    centroid counts, `k`, and seen lists.  This holds regardless of
//!    clustering quality: it follows from the shared strict total order,
//!    so it pins the rerank against silently diverging from
//!    [`ModelSnapshot::top_k`].
//! 2. **Partial-probe soundness** — with any smaller `nprobe`, every
//!    returned score is the *exact* `⟨w, h⟩` for its item (bit-compared
//!    against [`ModelSnapshot::score`]) and never exceeds the exact
//!    winner's score: approximation may only miss items, never mis-score
//!    or over-score them.
//! 3. **Seen normalization** (the latent-assumption regression) —
//!    unsorted and duplicated seen lists answer identically to their
//!    sorted-deduplicated form on both the exact and approximate paths,
//!    and the exclusions actually hold.  Before the fix,
//!    [`QueryEngine::top_k`] handed unsorted input straight to a binary
//!    search, silently leaking already-seen items into the answer.
//! 4. **Seeded recall floor** — on a clustered catalog (where IVF's
//!    locality assumption actually holds) a small probe fraction must
//!    keep recall@10 above a pinned floor, across several seeds.
//!
//! [`ModelSnapshot::top_k`]: nomad_serve::ModelSnapshot::top_k
//! [`ModelSnapshot::score`]: nomad_serve::ModelSnapshot::score
//! [`QueryEngine::top_k`]: nomad_serve::QueryEngine::top_k

use proptest::prelude::*;

use nomad_linalg::SmallRng64;
use nomad_matrix::Idx;
use nomad_serve::{IvfParams, ModelSnapshot, QueryEngine, SnapshotPublisher, TopK};
use nomad_sgd::{FactorMatrix, FactorModel};

fn publisher_for(model: &FactorModel, updates: u64) -> SnapshotPublisher {
    let p = SnapshotPublisher::new(1 << 40);
    p.publish_model(model, updates);
    p
}

fn engine_params(n_centroids: usize) -> IvfParams {
    IvfParams {
        n_centroids,
        ..IvfParams::default()
    }
}

/// Asserts two answers are bit-identical: same items in the same order,
/// scores compared by bit pattern (NaN-safe, `-0.0`-strict).
fn assert_bit_identical(exact: &TopK, approx: &TopK, ctx: &str) {
    assert_eq!(exact.recs.len(), approx.recs.len(), "{ctx}: length");
    for (e, a) in exact.recs.iter().zip(&approx.recs) {
        assert_eq!(e.item, a.item, "{ctx}: item order");
        assert_eq!(
            e.score.to_bits(),
            a.score.to_bits(),
            "{ctx}: score bits for item {}",
            e.item
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Family 1: probing every centroid is bit-identical to the exact
    /// scan — items, order, and score bits — for arbitrary geometry.
    #[test]
    fn full_probe_is_bit_identical_to_exact(
        users in 1usize..10,
        items in 1usize..64,
        k in 1usize..7,
        centroids in 1usize..12,
        topk in 0usize..20,
        seed in any::<u64>(),
        seen_raw in proptest::collection::vec(any::<u32>(), 0..24),
    ) {
        let model = FactorModel::init(users, items, k, seed);
        let p = publisher_for(&model, 10);
        let engine = QueryEngine::with_ivf_params(&p, 1, engine_params(centroids));
        let seen: Vec<Idx> = seen_raw.into_iter().map(|s| s % items as u32).collect();
        let nprobe = engine.ivf_centroids().unwrap();
        for user in 0..users as Idx {
            let exact = engine.top_k(user, topk, &seen).unwrap();
            let approx = engine.top_k_approx(user, topk, nprobe, &seen).unwrap();
            assert_bit_identical(&exact, &approx, &format!("user {user}"));
        }
    }

    /// Family 2: any partial probe returns only exact scores, none above
    /// the exact winner's, and still excludes seen items.
    #[test]
    fn partial_probe_scores_are_exact_and_bounded(
        users in 1usize..8,
        items in 4usize..96,
        k in 1usize..7,
        centroids in 2usize..14,
        nprobe in 1usize..6,
        seed in any::<u64>(),
        seen_raw in proptest::collection::vec(any::<u32>(), 0..16),
    ) {
        let model = FactorModel::init(users, items, k, seed);
        let p = publisher_for(&model, 10);
        let snap = p.latest().unwrap();
        let engine = QueryEngine::with_ivf_params(&p, 1, engine_params(centroids));
        let seen: Vec<Idx> = seen_raw.into_iter().map(|s| s % items as u32).collect();
        for user in 0..users as Idx {
            let exact = engine.top_k(user, 5, &seen).unwrap();
            let approx = engine.top_k_approx(user, 5, nprobe, &seen).unwrap();
            prop_assert!(approx.recs.len() <= exact.recs.len());
            for r in &approx.recs {
                prop_assert_eq!(
                    r.score.to_bits(),
                    snap.score(user, r.item).to_bits(),
                    "approx scores must be real dots, never estimates"
                );
                prop_assert!(!seen.contains(&r.item), "seen item {} leaked", r.item);
                if let Some(winner) = exact.recs.first() {
                    prop_assert!(
                        r.score.total_cmp(&winner.score) != std::cmp::Ordering::Greater,
                        "approx score {} beats the exact winner {}",
                        r.score,
                        winner.score
                    );
                }
            }
        }
    }

    /// Family 3: the seen-normalization regression.  Shuffled, duplicated
    /// seen lists answer identically to their sorted-strict form on both
    /// paths — and `UserQuery`-style pre-sorted input stays the fast path.
    #[test]
    fn unsorted_and_duplicate_seen_matches_sorted(
        users in 1usize..6,
        items in 4usize..48,
        k in 1usize..6,
        seed in any::<u64>(),
        seen_raw in proptest::collection::vec(any::<u32>(), 1..32),
        shuffle_seed in any::<u64>(),
    ) {
        let model = FactorModel::init(users, items, k, seed);
        let p = publisher_for(&model, 10);
        let engine = QueryEngine::with_ivf_params(&p, 1, engine_params(4));
        // A messy list: in-range, duplicated, then deterministically
        // shuffled so it is (almost always) unsorted.
        let mut messy: Vec<Idx> = seen_raw.iter().map(|s| s % items as u32).collect();
        let dupes: Vec<Idx> = messy.iter().step_by(2).copied().collect();
        messy.extend(dupes);
        let mut rng = SmallRng64::new(shuffle_seed);
        rng.shuffle(&mut messy);
        let mut sorted = messy.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let nprobe = engine.ivf_centroids().unwrap();
        for user in 0..users as Idx {
            let from_messy = engine.top_k(user, 8, &messy).unwrap();
            let from_sorted = engine.top_k(user, 8, &sorted).unwrap();
            assert_bit_identical(&from_sorted, &from_messy, "exact path");
            for r in &from_messy.recs {
                prop_assert!(!messy.contains(&r.item), "seen item {} leaked", r.item);
            }
            let approx_messy = engine.top_k_approx(user, 8, nprobe, &messy).unwrap();
            assert_bit_identical(&from_sorted, &approx_messy, "approx path");
        }
    }
}

/// Generates a *clustered* catalog — `n_clusters` Gaussian-ish centers,
/// items scattered tightly around them, users near centers too (so
/// queries have a meaningful "right" cluster).  IVF's recall claim is
/// about locality, so the floor is pinned on data that has some.
fn clustered_model(
    users: usize,
    items: usize,
    k: usize,
    n_clusters: usize,
    seed: u64,
) -> FactorModel {
    let mut rng = SmallRng64::new(seed);
    let mut centers = vec![0.0; n_clusters * k];
    for v in centers.iter_mut() {
        *v = rng.next_gaussian();
    }
    let mut place = |rows: usize, spread: f64| {
        let mut m = FactorMatrix::zeros(rows, k);
        for r in 0..rows {
            let c = rng.next_below(n_clusters);
            let row: Vec<f64> = (0..k)
                .map(|d| centers[c * k + d] + spread * rng.next_gaussian())
                .collect();
            m.set_row(r, &row);
        }
        m
    };
    FactorModel {
        w: place(users, 0.35),
        h: place(items, 0.25),
    }
}

/// Recall@`k` of `approx` against `exact` (by item identity).
fn recall(exact: &TopK, approx: &TopK) -> f64 {
    if exact.recs.is_empty() {
        return 1.0;
    }
    let hits = exact
        .recs
        .iter()
        .filter(|e| approx.recs.iter().any(|a| a.item == e.item))
        .count();
    hits as f64 / exact.recs.len() as f64
}

/// Family 4: on a clustered catalog, probing 4 of 16 centroids keeps
/// *mean* recall@10 ≥ 0.9 per seed, and probing 6 keeps it ≥ 0.95.
/// (Observed: ≥ 0.97 and ≥ 0.99 — the floors leave margin, but would
/// catch a broken probe order, a posting-list leak, or a rerank
/// regression instantly.  Per-user recall is deliberately not floored:
/// a user between clusters can legitimately recall poorly — MIPS
/// winners need not share a cell — which is exactly why the bench
/// reports the recall/speedup *distribution* rather than a minimum.)
#[test]
fn clustered_recall_at_10_stays_above_seeded_floor() {
    for (nprobe, floor) in [(4usize, 0.9f64), (6, 0.95)] {
        for seed in [1u64, 7, 42, 1234] {
            let model = clustered_model(40, 512, 8, 16, seed);
            let p = publisher_for(&model, 10);
            let engine = QueryEngine::with_ivf_params(&p, 1, engine_params(16));
            let mut total = 0.0;
            for user in 0..40 as Idx {
                let exact = engine.top_k(user, 10, &[]).unwrap();
                let approx = engine.top_k_approx(user, 10, nprobe, &[]).unwrap();
                total += recall(&exact, &approx);
            }
            let mean = total / 40.0;
            assert!(
                mean >= floor,
                "seed {seed}: mean recall@10 {mean} < {floor} at nprobe {nprobe}"
            );
        }
    }
}

/// The cached index survives epoch advances: patched forward from the
/// publisher's changed-row clocks, a full probe is still bit-identical
/// to the exact scan against the *new* snapshot.
#[test]
fn cached_index_patches_forward_across_publishes() {
    let mut model = FactorModel::init(6, 80, 5, 99);
    let p = SnapshotPublisher::new(1 << 40);
    p.publish_model(&model, 100);
    let engine = QueryEngine::with_ivf_params(&p, 1, engine_params(8));
    // Warm the cache on epoch 1.
    let _ = engine.top_k_approx(0, 5, 8, &[]).unwrap();
    // Perturb a handful of item rows and republish (epoch 2): the cache
    // must pick up exactly those rows through changed_items_since.
    for &j in &[3usize, 19, 64, 77] {
        let row: Vec<f64> = model.h.row(j).iter().map(|v| v * -2.0 + 0.5).collect();
        model.h.set_row(j, &row);
    }
    p.publish_model(&model, 200);
    let nprobe = engine.ivf_centroids().unwrap();
    for user in 0..6 as Idx {
        let exact = engine.top_k(user, 10, &[]).unwrap();
        let approx = engine.top_k_approx(user, 10, nprobe, &[]).unwrap();
        assert_bit_identical(&exact, &approx, &format!("epoch 2, user {user}"));
        assert_eq!(approx.epoch, 2, "answer must come from the new epoch");
    }
}

/// Scales item rows `rows` of `model` far from where they were, so their
/// posting lists, codes and radii must move.
fn move_rows(model: &mut FactorModel, rows: impl IntoIterator<Item = usize>) {
    for j in rows {
        let row: Vec<f64> = model.h.row(j).iter().map(|v| v * -3.0 + 0.7).collect();
        model.h.set_row(j, &row);
    }
}

/// Asserts `snap` carries an index stamped with it, and that probing
/// every centroid of it answers like the exact scan for every user.
fn assert_carries_its_index(snap: &ModelSnapshot, ctx: &str) {
    let index = snap.ivf().unwrap_or_else(|| panic!("{ctx}: no index"));
    assert_eq!(
        index.stamp(),
        (snap.epoch(), snap.updates_at()),
        "{ctx}: stamp"
    );
    assert_eq!(index.num_items(), snap.num_items(), "{ctx}: items");
    for user in 0..snap.num_users() as Idx {
        let full = index.top_k(snap, user, 10, index.n_centroids(), &[]);
        assert_bit_identical(
            &snap.top_k(user, 10, &[]),
            &full,
            &format!("{ctx}, user {user}"),
        );
    }
}

/// The row clocks restart at `begin_run`, so an index kept from the last
/// run cannot be patched from them: rows changed early in the new run
/// (below the old index's watermark) would be missed by every later
/// patch.  An engine kept across runs must still answer exactly — after
/// exact publishes (run 2) and after a cooperative build whose first
/// contributions carry clocks below the last run's watermark (run 3).
#[test]
fn an_engine_kept_across_runs_answers_from_the_new_run() {
    let (users, items, k) = (40, 400, 6);
    let mut model = FactorModel::init(users, items, k, 77);
    let p = SnapshotPublisher::new(1000);
    p.publish_model(&model, 1_000_000);
    let engine = QueryEngine::with_ivf_params(&p, 1, engine_params(16));
    let _ = engine.top_k_approx(0, 10, 1, &[]).unwrap();
    let answers_exactly = |run: &str| {
        let nprobe = engine.ivf_centroids().unwrap();
        for user in 0..users as Idx {
            let exact = engine.top_k(user, 10, &[]).unwrap();
            let approx = engine.top_k_approx(user, 10, nprobe, &[]).unwrap();
            assert_bit_identical(&exact, &approx, &format!("{run}, user {user}"));
        }
        assert_carries_its_index(&p.latest().unwrap(), run);
    };
    p.begin_run(users, items, k, 1);
    move_rows(&mut model, 0..200);
    p.publish_model(&model, 500_000);
    move_rows(&mut model, [399]);
    p.publish_model(&model, 1_500_000);
    answers_exactly("run 2");

    p.begin_run(users, items, k, 1);
    move_rows(&mut model, 0..200);
    p.coop_tick(0, 1_600_000, 0, &model.w, None);
    for j in 0..items {
        let clock = if j < 200 { 1_000 } else { 1_600_000 };
        p.coop_tick(0, clock, 0, &model.w, Some((j as Idx, model.h.row(j))));
    }
    assert_eq!(p.latest().unwrap().updates_at(), 1_600_000);
    answers_exactly("run 3");
}

/// An empty catalog answers the approximate path like the exact scan:
/// no items, the same snapshot stamp, and an index with no centroids.
#[test]
fn an_empty_catalog_answers_approximate_queries_like_the_exact_scan() {
    let p = publisher_for(&FactorModel::init(3, 0, 4, 1), 10);
    let engine = QueryEngine::new(&p, 1);
    for user in 0..3 {
        let exact = engine.top_k(user, 5, &[]).unwrap();
        assert!(exact.recs.is_empty());
        for nprobe in [0, 2] {
            assert_eq!(engine.top_k_approx(user, 5, nprobe, &[]).unwrap(), exact);
        }
    }
    assert_eq!(engine.ivf_centroids(), Ok(0));
}

/// Publishing does no index work on any path — an exact publish, a
/// cooperative build's last contribution, a publish after `grow`, a
/// publish into a recycled buffer — asked or not.  Once asked, each epoch's first approximate query attaches an
/// index stamped with exactly that epoch's snapshot (patched from the
/// last one, or rebuilt at the new dimensions after `grow`); a publisher
/// nobody asked never gets one.
#[test]
fn every_queried_epoch_carries_its_own_index() {
    let (users, items, k) = (12, 300, 5);
    for asked in [false, true] {
        let ctx = |path: &str| format!("asked {asked}, {path}");
        let mut model = FactorModel::init(users, items, k, 5);
        let p = SnapshotPublisher::new(1000);
        p.publish_model(&model, 100);
        let engine = QueryEngine::with_ivf_params(&p, 1, engine_params(12));
        let check = |path: &str| {
            let published = p.latest().unwrap();
            assert!(published.ivf().is_none(), "{}: publish built", ctx(path));
            if asked {
                let snap = engine.ivf_snapshot().unwrap();
                assert_eq!(snap.epoch(), published.epoch(), "{}", ctx(path));
                assert_carries_its_index(&snap, &ctx(path));
            }
        };
        check("first publish");
        move_rows(&mut model, (0..items).step_by(20));
        p.publish_model(&model, 200);
        check("publish_model, 5% churn");
        move_rows(&mut model, [3, 150, 299]);
        p.publish_model(&model, 300);
        check("publish_model, 3 rows");

        p.begin_run(users, items, k, 1);
        move_rows(&mut model, 0..10);
        p.coop_tick(0, 1000, 0, &model.w, None);
        for j in 0..items {
            assert!(p.build_in_flight(), "{}: built early", ctx("coop"));
            p.coop_tick(
                0,
                1001 + j as u64,
                0,
                &model.w,
                Some((j as Idx, model.h.row(j))),
            );
        }
        assert_eq!(p.latest().unwrap().updates_at(), 1000);
        check("cooperative build");

        let bigger = FactorModel::init(users + 3, items + 50, k, 6);
        p.grow(users + 3, items + 50);
        p.publish_model(&bigger, 5000);
        assert_eq!(p.latest().unwrap().num_items(), items + 50);
        check("publish after grow");
        // The ring recycles the queried epoch's buffer within these
        // publishes; its index must not come along.
        for e in 0..6 {
            p.publish_model(&bigger, 6000 + e);
            let snap = p.latest().unwrap();
            assert!(snap.ivf().is_none(), "{}: {e}", ctx("unqueried epochs"));
        }
    }
}

/// Engines with other params on one publisher share the run's index: the
/// run's first approximate request fixes the params, every queried epoch
/// gets one index whichever engine asks, and a full probe at the run's
/// centroid count is exact from either engine.  A new run starts unasked.
#[test]
fn engines_with_other_params_share_the_run_index() {
    let (users, items, k) = (10, 240, 4);
    let mut model = FactorModel::init(users, items, k, 9);
    let p = publisher_for(&model, 10);
    let twelve = QueryEngine::with_ivf_params(&p, 1, engine_params(12));
    let seven = QueryEngine::with_ivf_params(&p, 1, engine_params(7));
    assert_eq!(twelve.ivf_centroids().unwrap(), 12);
    for round in 0..3u64 {
        let (a, b) = (
            twelve.ivf_snapshot().unwrap(),
            seven.ivf_snapshot().unwrap(),
        );
        assert!(
            std::ptr::eq(a.ivf().unwrap(), b.ivf().unwrap()),
            "round {round}: one index per epoch"
        );
        assert_eq!(seven.ivf_centroids().unwrap(), 12, "round {round}");
        for user in 0..users as Idx {
            let exact = seven.top_k(user, 10, &[]).unwrap();
            let approx = seven.top_k_approx(user, 10, 12, &[]).unwrap();
            assert_bit_identical(&exact, &approx, &format!("round {round}, user {user}"));
        }
        move_rows(&mut model, (0..items).step_by(30));
        p.publish_model(&model, 20 + 10 * round);
    }
    p.begin_run(users, items, k, 1);
    p.publish_model(&model, 50);
    assert_eq!(seven.ivf_centroids().unwrap(), 7, "the new run's first ask");
    assert_eq!(twelve.ivf_centroids().unwrap(), 7);
}

/// Readers pinning concurrently with a publisher always get a snapshot
/// and an index that belong together: 2 readers pin through the engine,
/// probe every centroid of the index their pin carries and compare with
/// the exact scan on the same pin, while a third thread publishes 50
/// epochs of 5% churn.
#[test]
fn readers_racing_a_publisher_pin_matching_pairs() {
    let (users, items, k) = (8, 400, 6);
    let mut model = FactorModel::init(users, items, k, 31);
    let p = publisher_for(&model, 1);
    let engine = QueryEngine::with_ivf_params(&p, 1, engine_params(20));
    let done = std::sync::atomic::AtomicBool::new(false);
    let start = std::sync::Barrier::new(3);
    std::thread::scope(|scope| {
        for r in 0..2u32 {
            let (engine, done, start) = (&engine, &done, &start);
            scope.spawn(move || {
                start.wait();
                let mut checks = 0u32;
                while !done.load(std::sync::atomic::Ordering::Acquire) || checks < 4 {
                    let snap = engine.ivf_snapshot().unwrap();
                    let index = snap.ivf().expect("an IVF pin carries its index");
                    let user = (checks + r) % users as u32;
                    let full = index.top_k(&snap, user, 10, index.n_centroids(), &[]);
                    let ctx = format!("reader {r}, epoch {}", snap.epoch());
                    assert_bit_identical(&snap.top_k(user, 10, &[]), &full, &ctx);
                    checks += 1;
                }
            });
        }
        /// Stops the readers however the publishing loop ends, so a
        /// panicking publish fails the test instead of hanging it.
        struct StopOnDrop<'a>(&'a std::sync::atomic::AtomicBool);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, std::sync::atomic::Ordering::Release);
            }
        }
        let _stop = StopOnDrop(&done);
        let mut rng = SmallRng64::new(3);
        start.wait();
        for e in 0..50u64 {
            move_rows(&mut model, (0..items / 20).map(|_| rng.next_below(items)));
            p.publish_model(&model, 10 * (e + 1));
        }
    });
    assert_eq!(p.epoch(), 51);
    assert_carries_its_index(&engine.ivf_snapshot().unwrap(), "last epoch");
}
