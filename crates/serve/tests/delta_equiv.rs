//! Delta-snapshot equivalence harness: a consumer that advances its
//! item-factor replica **only** by the rows named in
//! [`SnapshotPublisher::changed_items_since`] must end up *bit*-identical
//! to a consumer that copies every full snapshot, no matter how training,
//! publishing, and catalog growth interleave.
//!
//! This is the serve-side pin for the distributed delta frames
//! (`ReplicaDelta` in `nomad-net`): the rank builds its H-delta from
//! exactly this API, so if the delta set ever *missed* a changed row the
//! driver's replica would silently diverge from the authoritative model.
//!
//! Property families:
//!
//! 1. **Random interleave** — proptest drives arbitrary
//!    train/publish/grow sequences against two consumers: a prompt one
//!    that syncs on every publish, and a laggard that skips epochs (the
//!    chaos-evicted rank) and catches up from its stale watermark in one
//!    delta.  Both must reconstruct every snapshot bit-for-bit.
//! 2. **Tightness** — the delta set may over-approximate (inclusive
//!    clock compare) but only by rows stamped at exactly the previous
//!    watermark: everything else in the set really changed.  This is
//!    what keeps steady-state deltas small, and the same test asserts the
//!    result: at ~5% churn per epoch a delta ships < 20% of item rows.
//! 3. **Grow** — growing the catalog stamps every row, so a same-shape
//!    consumer ships everything once; a reshaped catalog forces the
//!    full-resync path (mirroring the rank's full-frame rule).
//! 4. **Cooperative path** — the threaded engine stamps clocks per item
//!    hop rather than by content diff; a consumer following the deltas
//!    across cooperative builds must still reconstruct exactly.
//!
//! [`SnapshotPublisher::changed_items_since`]:
//! nomad_serve::SnapshotPublisher::changed_items_since

use std::sync::Arc;

use proptest::prelude::*;

use nomad_linalg::SmallRng64;
use nomad_matrix::Idx;
use nomad_serve::{ModelSnapshot, SnapshotPublisher};
use nomad_sgd::{FactorMatrix, FactorModel};

/// Threshold no explicit-publish test ever crosses (`u64::MAX` would
/// overflow the publisher's next-threshold arithmetic in debug builds).
const NEVER: u64 = 1 << 40;

/// A replica of the published item matrix that advances by delta sets
/// only.  `watermark` is the `updates_at` of the last snapshot applied —
/// exactly what a rank remembers about the frame it last shipped.
struct DeltaConsumer {
    h: FactorMatrix,
    watermark: u64,
    epoch: u64,
    synced: bool,
}

impl DeltaConsumer {
    fn new() -> Self {
        Self {
            h: FactorMatrix::zeros(0, 1),
            watermark: 0,
            epoch: 0,
            synced: false,
        }
    }

    /// Copies every item row — the full-frame / resync path.
    fn full_resync(&mut self, snap: &ModelSnapshot) {
        let mut h = FactorMatrix::zeros(snap.num_items(), snap.k());
        for j in 0..snap.num_items() {
            h.set_row(j, snap.item_factor(j as Idx));
        }
        self.h = h;
        self.watermark = snap.updates_at();
        self.epoch = snap.epoch();
        self.synced = true;
    }

    /// Applies one publish: full resync when the shape moved or state was
    /// lost, otherwise patches only the rows the publisher names.
    /// Returns the delta set actually applied (`None` on a full resync).
    fn sync(&mut self, publisher: &SnapshotPublisher, snap: &ModelSnapshot) -> Option<Vec<Idx>> {
        if !self.synced || self.h.rows() != snap.num_items() || self.h.k() != snap.k() {
            self.full_resync(snap);
            return None;
        }
        let changed = publisher.changed_items_since(self.watermark);
        for &j in &changed {
            self.h.set_row(j as usize, snap.item_factor(j));
        }
        self.watermark = snap.updates_at();
        self.epoch = snap.epoch();
        Some(changed)
    }

    /// The soundness oracle: after a sync, every row — patched or not —
    /// must match the snapshot bit-for-bit.  A mismatch on an unpatched
    /// row means the delta set missed a change.
    fn assert_matches(&self, snap: &ModelSnapshot, ctx: &str) {
        assert_eq!(self.h.rows(), snap.num_items(), "{ctx}: item count");
        assert_eq!(self.h.k(), snap.k(), "{ctx}: latent dim");
        for j in 0..snap.num_items() {
            let (got, want) = (self.h.row(j), snap.item_factor(j as Idx));
            assert!(
                got.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits()),
                "{ctx}: item row {j} diverged after delta apply\n  delta: {got:?}\n  full:  {want:?}"
            );
        }
    }
}

fn perturb_row(m: &mut FactorMatrix, row: usize, rng: &mut SmallRng64) {
    let k = m.k();
    for c in 0..k {
        m.row_mut(row)[c] += 0.05 * rng.next_gaussian();
    }
}

fn grown_rows(added: usize, k: usize, rng: &mut SmallRng64) -> FactorMatrix {
    let mut block = FactorMatrix::zeros(added, k);
    for r in 0..added {
        for c in 0..k {
            block.row_mut(r)[c] = rng.next_gaussian();
        }
    }
    block
}

/// One step of a generated history.
#[derive(Debug, Clone)]
enum Op {
    /// Perturb `n` random item rows and one user row.
    Train(u8),
    /// Publish the current model.
    Publish,
    /// Grow the catalog by `(users, items)` rows (either may be zero; a
    /// user-only grow keeps the consumer on the delta path but stamps
    /// every clock).
    Grow(u8, u8),
}

/// Decodes a sampled `(kind, a, b)` triple into an op with a 4:3:1
/// train/publish/grow mix (the vendored proptest stub has no
/// `prop_oneof`, so the weighting lives here).
fn decode_op((kind, a, b): (u8, u8, u8)) -> Op {
    match kind {
        0..=3 => Op::Train(1 + a % 5),
        4..=6 => Op::Publish,
        _ => Op::Grow(a % 3, b % 3),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Family 1: arbitrary interleaved histories; the prompt consumer
    /// applies every epoch's delta, the laggard skips epochs on a seeded
    /// coin and catches up from its stale watermark — both must track
    /// the full snapshots exactly, across grows included.
    #[test]
    fn delta_applied_snapshots_match_full_frames(
        raw_ops in proptest::collection::vec((0u8..8, 0u8..8, 0u8..8), 1..32),
        seed in 0u64..1024,
    ) {
        let ops: Vec<Op> = raw_ops.into_iter().map(decode_op).collect();
        let mut rng = SmallRng64::new(0xde17a ^ seed);
        let mut model = FactorModel::init(5, 24, 4, seed);
        let publisher = SnapshotPublisher::new(NEVER);
        publisher.begin_run(model.num_users(), model.num_items(), model.k(), 1);

        let mut prompt = DeltaConsumer::new();
        let mut laggard = DeltaConsumer::new();
        let mut updates = 0u64;

        for op in ops.iter().chain(std::iter::once(&Op::Publish)) {
            match *op {
                Op::Train(n) => {
                    for _ in 0..n {
                        let j = rng.next_below(model.num_items());
                        perturb_row(&mut model.h, j, &mut rng);
                        updates += 1;
                    }
                    let i = rng.next_below(model.num_users());
                    perturb_row(&mut model.w, i, &mut rng);
                    updates += 1;
                }
                Op::Grow(du, di) => {
                    if du > 0 {
                        model.w.append_rows(&grown_rows(du as usize, model.k(), &mut rng));
                    }
                    if di > 0 {
                        model.h.append_rows(&grown_rows(di as usize, model.k(), &mut rng));
                    }
                    publisher.grow(model.num_users(), model.num_items());
                }
                Op::Publish => {
                    updates += 1;
                    publisher.publish_model(&model, updates);
                    let snap = publisher.latest().expect("just published");
                    prompt.sync(&publisher, &snap);
                    prompt.assert_matches(&snap, "prompt consumer");
                    // The laggard misses roughly half the epochs — when
                    // it does sync, one delta from its old watermark must
                    // cover everything it missed.
                    if rng.next_below(2) == 0 {
                        laggard.sync(&publisher, &snap);
                        laggard.assert_matches(&snap, "laggard consumer");
                    }
                }
            }
        }
        // Final catch-up: however many epochs the laggard skipped, the
        // cumulative delta still reconstructs the latest snapshot.
        let snap = publisher.latest().expect("history ends with a publish");
        laggard.sync(&publisher, &snap);
        laggard.assert_matches(&snap, "laggard final catch-up");
        prop_assert_eq!(prompt.epoch, snap.epoch());
    }
}

/// Family 2: in steady state (no grow) the delta set is *tight* up to
/// the documented inclusive-compare slack — every named row either
/// really changed bits since the consumer's snapshot or was stamped at
/// exactly the previous watermark.  It also asserts what that buys: from
/// the second perturbation epoch on, a steady-state delta ships < 20% of
/// the item rows.
#[test]
fn steady_state_delta_is_tight_and_reconstructs() {
    let mut rng = SmallRng64::new(7);
    let mut model = FactorModel::init(6, 64, 3, 11);
    let publisher = SnapshotPublisher::new(NEVER);
    publisher.begin_run(6, 64, 3, 1);
    publisher.publish_model(&model, 10);

    let mut consumer = DeltaConsumer::new();
    let base = publisher.latest().expect("published");
    consumer.sync(&publisher, &base);

    let mut prev_changed: Vec<Idx> = (0..64).collect(); // first publish stamps all
    let mut updates = 10;
    for round in 0..8 {
        let prev = publisher.latest().expect("published");
        // Perturb 3 of 64 rows.
        let touched: Vec<usize> = (0..3).map(|_| rng.next_below(64)).collect();
        for &j in &touched {
            perturb_row(&mut model.h, j, &mut rng);
        }
        updates += 5;
        publisher.publish_model(&model, updates);
        let snap = publisher.latest().expect("published");

        let changed = consumer
            .sync(&publisher, &snap)
            .expect("same shape: must take the delta path");
        consumer.assert_matches(&snap, "steady state");
        for &j in &changed {
            let really_changed = snap
                .item_factor(j)
                .iter()
                .zip(prev.item_factor(j))
                .any(|(a, b)| a.to_bits() != b.to_bits());
            assert!(
                really_changed || prev_changed.contains(&j),
                "round {round}: row {j} in the delta set but unchanged and \
                 not carried over from the previous watermark"
            );
        }
        assert!(
            changed.len() <= touched.len() + prev_changed.len(),
            "round {round}: delta set {} rows for {} touched (+{} slack)",
            changed.len(),
            touched.len(),
            prev_changed.len()
        );
        // From round 1 on the consumer's watermark is the previous
        // perturbation epoch's publish, and the inclusive compare names
        // that epoch's rows again: the delta spans two epochs of 3-in-64
        // churn and must still ship under a fifth of the catalog.
        if round > 0 {
            assert!(
                changed.len() * 5 < 64,
                "round {round}: steady-state delta shipped {} of 64 item rows",
                changed.len()
            );
        }
        prev_changed = changed;
    }
}

/// Family 3a: a user-only grow keeps the item matrix's shape, so the
/// consumer stays on the delta path — but every clock was restamped, so
/// the one delta after the grow ships the whole catalog and reconstructs.
#[test]
fn user_grow_forces_every_item_into_one_delta() {
    let mut rng = SmallRng64::new(21);
    let mut model = FactorModel::init(4, 16, 3, 5);
    let publisher = SnapshotPublisher::new(NEVER);
    publisher.begin_run(4, 16, 3, 1);
    publisher.publish_model(&model, 100);

    let mut consumer = DeltaConsumer::new();
    consumer.sync(&publisher, &publisher.latest().expect("published"));

    model.w.append_rows(&grown_rows(3, 3, &mut rng));
    publisher.grow(7, 16);
    perturb_row(&mut model.h, 2, &mut rng);
    publisher.publish_model(&model, 130);

    let snap = publisher.latest().expect("published");
    let changed = consumer
        .sync(&publisher, &snap)
        .expect("item shape unchanged: delta path");
    assert_eq!(
        changed,
        (0..16).collect::<Vec<Idx>>(),
        "post-grow delta must name every item row"
    );
    consumer.assert_matches(&snap, "after user-only grow");
}

/// Family 3b: an item grow reshapes the catalog; the consumer detects the
/// mismatch and falls back to a full resync (the rank ships a full frame
/// in this situation), after which delta syncing resumes cleanly.
#[test]
fn item_grow_resyncs_full_then_deltas_resume() {
    let mut rng = SmallRng64::new(33);
    let mut model = FactorModel::init(4, 12, 3, 9);
    let publisher = SnapshotPublisher::new(NEVER);
    publisher.begin_run(4, 12, 3, 1);
    publisher.publish_model(&model, 50);

    let mut consumer = DeltaConsumer::new();
    consumer.sync(&publisher, &publisher.latest().expect("published"));

    model.h.append_rows(&grown_rows(5, 3, &mut rng));
    publisher.grow(4, 17);
    publisher.publish_model(&model, 80);
    let snap = publisher.latest().expect("published");
    assert!(
        consumer.sync(&publisher, &snap).is_none(),
        "reshaped catalog must force the full-resync path"
    );
    consumer.assert_matches(&snap, "after item grow");

    // The first post-resync delta carries the inclusive-compare slack
    // (every clock sits exactly at the consumer's watermark), so it may
    // reship the catalog once; it must still reconstruct.
    perturb_row(&mut model.h, 16, &mut rng);
    publisher.publish_model(&model, 90);
    let snap = publisher.latest().expect("published");
    consumer
        .sync(&publisher, &snap)
        .expect("delta path resumed");
    consumer.assert_matches(&snap, "first delta after resync");

    // One epoch later the slack is gone: back to a tight, small delta.
    perturb_row(&mut model.h, 4, &mut rng);
    publisher.publish_model(&model, 100);
    let snap = publisher.latest().expect("published");
    let changed = consumer.sync(&publisher, &snap).expect("delta path");
    assert!(
        changed.len() < 17,
        "steady-state delta two epochs after resync must not reship the catalog ({changed:?})"
    );
    assert!(
        changed.contains(&4),
        "the perturbed row must be in the delta"
    );
    consumer.assert_matches(&snap, "steady-state delta after resync");
}

/// Family 3c: state loss (the chaos-evicted rank) — the consumer is
/// replaced wholesale mid-run and must recover via full resync without
/// any cooperation from the publisher's clocks.
#[test]
fn evicted_consumer_recovers_via_full_resync() {
    let mut rng = SmallRng64::new(55);
    let mut model = FactorModel::init(5, 20, 4, 13);
    let publisher = SnapshotPublisher::new(NEVER);
    publisher.begin_run(5, 20, 4, 1);
    publisher.publish_model(&model, 10);

    let mut consumer = DeltaConsumer::new();
    consumer.sync(&publisher, &publisher.latest().expect("published"));

    for step in 0..4 {
        perturb_row(&mut model.h, rng.next_below(20), &mut rng);
        publisher.publish_model(&model, 20 + step * 10);
    }
    // Eviction: all delta state is gone, as when a rank is declared dead
    // and a fresh one joins.
    consumer = DeltaConsumer::new();
    let snap = publisher.latest().expect("published");
    assert!(
        consumer.sync(&publisher, &snap).is_none(),
        "fresh state: full frame"
    );
    consumer.assert_matches(&snap, "rejoined after eviction");

    // And deltas work from the rejoin point onward.
    perturb_row(&mut model.h, 3, &mut rng);
    publisher.publish_model(&model, 100);
    let snap = publisher.latest().expect("published");
    let changed = consumer
        .sync(&publisher, &snap)
        .expect("delta after rejoin");
    assert!(
        changed.contains(&3),
        "the perturbed row must be in the delta"
    );
    consumer.assert_matches(&snap, "delta after rejoin");
}

/// Family 4: the cooperative (threaded-engine) stamping path.  Clocks are
/// stamped per item hop with the worker's live update count — not by
/// content diff — so the delta set can lead the snapshot's `updates_at`.
/// A consumer following cooperative builds must still reconstruct every
/// published epoch exactly.
#[test]
fn coop_ticked_builds_reconstruct_through_deltas() {
    let mut rng = SmallRng64::new(99);
    let mut model = FactorModel::init(4, 6, 3, 17);
    let publisher = SnapshotPublisher::new(40);
    publisher.begin_run(4, 6, 3, 1);

    let mut consumer = DeltaConsumer::new();
    let mut seen_epoch = 0u64;
    for updates in 1..=600u64 {
        let j = rng.next_below(6);
        perturb_row(&mut model.h, j, &mut rng);
        perturb_row(&mut model.w, rng.next_below(4), &mut rng);
        publisher.coop_tick(
            0,
            updates,
            0,
            model.w.as_slice(),
            Some((j as Idx, model.h.row(j))),
        );
        if publisher.epoch() > seen_epoch {
            let snap: Arc<ModelSnapshot> = publisher.latest().expect("epoch advanced");
            seen_epoch = snap.epoch();
            consumer.sync(&publisher, &snap);
            consumer.assert_matches(&snap, "cooperative build");
        }
    }
    assert!(seen_epoch >= 2, "cooperative path never published twice");
}
