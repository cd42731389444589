//! The NOMAD token hop, written once.
//!
//! The paper's whole algorithm is one idea (Algorithm 1, lines 12–22): pop
//! a `(j, h_j)` token, sweep the locally stored column `Ω̄_j^{(q)}` with
//! SGD, pass the token on.  Every engine runs that idea through this
//! module and differs only in how the hop is *scheduled*:
//!
//! * [`sweep`] is lines 14–21.  All four engines and both serial replays
//!   call it, so "same seed ⇒ same bits" holds by construction.
//! * [`crate::routing::Router`] is line 22, the only routing-policy `match`.
//! * [`HopKernel::hop`] is the concurrent hop around them — sched-fuzz
//!   hooks, slab ownership ledger, linearization ticket, cooperative
//!   snapshot tick, push ordering — over a [`HopContext`] that supplies
//!   what genuinely differs between the threaded worker and the
//!   `nomad-net` rank worker.
//!
//! The serial and simulated engines keep their own pop/push around
//! [`sweep`] + `Router`: dense-model item rows, whole-model publishes and
//! hybrid circulation would each need context methods only they use.

#[cfg(target_arch = "x86_64")]
use nomad_linalg::vec_ops::Avx2;
use nomad_linalg::vec_ops::{prefetch_row, prefetch_rows_ahead, Kernels, Portable};
use nomad_linalg::SmallRng64;
use nomad_matrix::Idx;
use nomad_serve::SnapshotPublisher;
use nomad_sgd::{FactorMatrix, HyperParams, StepSchedule};

use crate::routing::{Router, RoutingPolicy};
use crate::slab::FactorSlab;
use crate::worker::WorkerData;

/// A nomadic token: the item index plus its total processing-pass count.
///
/// The factor vector itself lives in the engine's [`FactorSlab`]; holding
/// the token for item `j` is what entitles a worker to touch slab row `j`.
/// `pass` counts how many times the token has been processed anywhere — a
/// diagnostic mirror of the paper's per-pair update counter (the step-size
/// schedule itself stays keyed on per-*worker* pass counts, which is what
/// the serial replay reproduces).  At every quiesce point the pass counts
/// of all tokens must sum to the tickets drawn, which the engines assert
/// as part of token conservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// The item the token carries.
    pub item: Idx,
    /// How many times the token has been processed, by any worker.
    pub pass: u64,
}

/// The user-factor rows a worker owns, addressed by *global* user index.
pub trait UserRows {
    /// The factor row of `user`, which this worker must own.
    fn user_row_mut(&mut self, user: Idx) -> &mut [f64];

    /// The same row read-only — what [`sweep`] prefetches a few ratings
    /// before it updates it.
    fn user_row(&self, user: Idx) -> &[f64];

    /// The rows as one block for the cooperative snapshot build: the
    /// global index of the block's first row, and the rows, row-major and
    /// contiguous (a whole number of rows of the model's `k`).
    fn block(&self) -> (usize, &[f64]);
}

/// Full-height storage indexed globally: the dense model of the serial and
/// simulated engines and the replays, and the rank worker's `nrows x k`
/// matrix in which only the owned segments are live.
impl UserRows for FactorMatrix {
    #[inline]
    fn user_row_mut(&mut self, user: Idx) -> &mut [f64] {
        self.row_mut(user as usize)
    }

    #[inline]
    fn user_row(&self, user: Idx) -> &[f64] {
        self.row(user as usize)
    }

    #[inline]
    fn block(&self) -> (usize, &[f64]) {
        (0, self.as_slice())
    }
}

/// Algorithm 1, lines 14–21: one pass of worker `wd` over item `item`.
///
/// Records the pass (the pre-increment count is the `t` of the step-size
/// schedule, Eq. 11), then applies one SGD update per locally stored
/// rating of the item, in ascending-user order — the order every engine
/// and the serial replay share, which is what makes a serializable
/// execution reproduce *bit for bit*.  Returns the number of updates.
///
/// `h` stays in L1 for the whole pass; each `w_i` is a different row of a
/// matrix that need not fit any cache.  The column has listed those rows
/// since the token was popped, so the pass walks it as slices and
/// prefetches the row [`prefetch_rows_ahead`] ratings on while it updates
/// the current one — a hint, so arithmetic and order are what they would
/// be without it.
///
/// This is the dispatcher: it asks once per hop which form of the kernel
/// the CPU has and runs the one loop, [`sweep_on`], in it.  Same bits
/// either way.
#[inline]
pub fn sweep<U: UserRows + ?Sized>(
    wd: &mut WorkerData,
    users: &mut U,
    item: Idx,
    h: &mut [f64],
    params: &HyperParams,
) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if let Some(avx2) = Avx2::detect() {
        // SAFETY: `avx2` is the proof that this CPU has the feature.
        return unsafe { sweep_avx2(avx2, wd, users, item, h, params) };
    }
    sweep_on(Portable, wd, users, item, h, params)
}

/// [`sweep_on`] compiled with AVX2 enabled, so the wide kernel inlines
/// into the loop.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sweep_avx2<U: UserRows + ?Sized>(
    avx2: Avx2,
    wd: &mut WorkerData,
    users: &mut U,
    item: Idx,
    h: &mut [f64],
    params: &HyperParams,
) -> u64 {
    sweep_on(avx2, wd, users, item, h, params)
}

/// The body of [`sweep`], the only copy of lines 14–21, over the kernel
/// form `kernels`, public so a caller can pin one form;
/// engines call [`sweep`].
#[inline(always)]
pub fn sweep_on<K: Kernels, U: UserRows + ?Sized>(
    kernels: K,
    wd: &mut WorkerData,
    users: &mut U,
    item: Idx,
    h: &mut [f64],
    params: &HyperParams,
) -> u64 {
    let step = params.nomad_schedule().step(wd.record_pass(item));
    let (rows, ratings) = wd.local_cols.col_slices(item as usize);
    let ahead = prefetch_rows_ahead(h.len());
    for (at, (&user, &rating)) in rows.iter().zip(ratings).enumerate() {
        if let Some(&next) = rows.get(at + ahead) {
            prefetch_row(users.user_row(next));
        }
        kernels.sgd_pair_update(users.user_row_mut(user), h, rating, step, params.lambda);
    }
    rows.len() as u64
}

/// What differs between the workers that run [`HopKernel::hop`]: where
/// tokens come from and go to, and how a hop is counted.
///
/// # Safety
/// [`HopKernel::hop`] writes slab row `token.item` of every popped token
/// without further checks.  An implementation must return from `pop` only
/// tokens that index the kernel's slab and that were handed to this worker
/// — each token is in one queue or one worker's hands at a time — and
/// `push` must hand the token on exactly once, through a release/acquire
/// edge (a queue push) after which this worker never touches the row.
pub unsafe trait HopContext {
    /// How this worker stores its user rows.
    type Users: UserRows;

    /// Takes the next token off this worker's queue, if any.
    fn pop(&mut self) -> Option<Token>;

    /// Draws the hop's linearization ticket for `item`.  Called after the
    /// pop and before the sweep: the updates finish before the push, and
    /// the next owner can only draw its ticket after popping — so ticket
    /// order respects both the per-worker and the per-token order.
    fn ticket(&mut self, item: Idx);

    /// The worker's local rating slices and user rows.
    fn shard(&mut self) -> (&mut WorkerData, &mut Self::Users);

    /// Counts `updates` SGD updates done by this hop; returns the update
    /// clock the snapshot publisher is driven by.
    fn account(&mut self, updates: u64) -> u64;

    /// The update clock as seen from an idle hop.
    fn clock(&self) -> u64;

    /// How many destinations routing chooses among.
    fn destinations(&self) -> usize;

    /// The (possibly stale) queue length of destination `choice`; only
    /// consulted by [`RoutingPolicy::LeastLoaded`].
    fn load(&self, choice: usize) -> usize;

    /// The worker id behind destination `choice`.
    fn resolve(&self, choice: usize) -> usize {
        choice
    }

    /// Hands `token` — and with it slab row `token.item`, whose current
    /// contents are `h` — to worker `dest`.
    fn push(&mut self, dest: usize, token: Token, h: &[f64]);
}

/// The per-worker state every hop needs regardless of engine: identity,
/// the shared slab and publisher, and the routing RNG and cursor.
pub struct HopKernel<'a> {
    /// Worker id as the schedule controller and the slab ledger know it.
    #[cfg(feature = "sched-fuzz")]
    id: usize,
    /// This worker's contributor slot in the publisher.
    slot: usize,
    slab: &'a FactorSlab,
    publisher: Option<&'a SnapshotPublisher>,
    params: HyperParams,
    router: Router,
    rng: SmallRng64,
}

impl<'a> HopKernel<'a> {
    /// The kernel of worker `id`.  Routing draws come from a per-worker
    /// stream of `seed`, and the round-robin cursor is staggered so the
    /// first destination is the next worker over.
    pub fn new(
        id: usize,
        slot: usize,
        params: HyperParams,
        routing: RoutingPolicy,
        seed: u64,
        slab: &'a FactorSlab,
        publisher: Option<&'a SnapshotPublisher>,
    ) -> Self {
        Self {
            #[cfg(feature = "sched-fuzz")]
            id,
            slot,
            slab,
            publisher,
            params,
            router: Router::starting_at(routing, id.wrapping_add(1)),
            rng: SmallRng64::new(seed ^ (id as u64).wrapping_mul(0x9E37_79B9)),
        }
    }

    /// One token hop, with one [`SnapshotPublisher::coop_tick`] when a
    /// publisher is attached.  Returns the number of SGD updates applied,
    /// or `None` when the queue was empty (nothing is pushed then; the
    /// caller decides whether to wait).  The pop never blocks: under
    /// `sched-fuzz` the worker holds the turnstile's turn until
    /// `after_pop`, so a caller waits only after this returns.
    #[inline]
    pub fn hop<C: HopContext>(&mut self, ctx: &mut C) -> Option<u64> {
        // Hop boundary: a schedule controller may pause this worker here
        // (and observe the pop outcome below) to steer the interleaving.
        #[cfg(feature = "sched-fuzz")]
        crate::sched::hooks::before_pop(self.id);
        let Some(token) = ctx.pop() else {
            #[cfg(feature = "sched-fuzz")]
            crate::sched::hooks::after_pop(self.id, false);
            if let Some(publisher) = self.publisher {
                // An idle worker can still contribute its user block to an
                // in-flight build (it owns no token, so no item row) — a
                // starved worker cannot stall a publish.
                let clock = ctx.clock();
                let (offset, rows) = ctx.shard().1.block();
                publisher.coop_tick(self.slot, clock, offset, rows, None);
            }
            return None;
        };
        #[cfg(feature = "sched-fuzz")]
        {
            crate::sched::hooks::after_pop(self.id, true);
            self.slab.claim_row(token.item, self.id as u32);
        }
        ctx.ticket(token.item);
        // SAFETY: we hold the token for `token.item` (the `HopContext`
        // contract), so this worker is the row's unique owner until the
        // token is pushed onward below; the queue's release/acquire pair
        // hands the row between owners.
        let h = unsafe { self.slab.owner_row_mut(token.item) };
        let (wd, users) = ctx.shard();
        let updates = sweep(wd, users, token.item, h, &self.params);
        let clock = ctx.account(updates);
        if let Some(publisher) = self.publisher {
            // Must happen before the push below: this worker may only read
            // slab row `token.item` while it still holds the token.
            let (offset, rows) = ctx.shard().1.block();
            publisher.coop_tick(self.slot, clock, offset, rows, Some((token.item, &*h)));
        }

        let n = ctx.destinations();
        let rng = &mut self.rng;
        let choice = self
            .router
            .next_destination(n, |i| ctx.load(i), |b| rng.next_below(b));
        // The controller may override the routing decision (bias) and is
        // told about the hand-off; the ledger release must precede the
        // push — local or outbound, either is the hand-off edge after
        // which the row belongs to the next owner.
        #[cfg(feature = "sched-fuzz")]
        let choice = crate::sched::hooks::route(self.id, token.item, choice, n);
        let dest = ctx.resolve(choice);
        #[cfg(feature = "sched-fuzz")]
        {
            self.slab.release_row(token.item, self.id as u32);
            crate::sched::hooks::before_push(self.id, dest);
        }
        let pass = token.pass + 1;
        ctx.push(dest, Token { pass, ..token }, h);
        Some(updates)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use nomad_linalg::vec_ops::sgd_pair_update;
    use nomad_matrix::{RatingMatrix, RowPartition, TripletMatrix};

    /// Lines 14–21 as a plain loop over `col()` and the portable kernel,
    /// no look-ahead and no dispatch: what [`sweep`] must equal bit for bit.
    fn reference_sweep(
        wd: &mut WorkerData,
        w: &mut FactorMatrix,
        item: Idx,
        h: &mut [f64],
        params: &HyperParams,
    ) -> u64 {
        let step = params.nomad_schedule().step(wd.record_pass(item));
        let mut updates = 0;
        for (user, rating) in wd.local_cols.col(item as usize) {
            sgd_pair_update(w.row_mut(user as usize), h, rating, step, params.lambda);
            updates += 1;
        }
        updates
    }

    /// Sweeps columns whose local length is 0, 1, `ahead − 1`, `ahead`,
    /// `ahead + 1`, and one that ends on the last row of the worker's
    /// block (for the last worker, the last row of `W`), through the user
    /// storage `make` makes of `W` for worker `q` of `parts`; update count,
    /// `h` and every owned row must match [`reference_sweep`] exactly.
    ///
    /// At k = 3 (all tail), 10 (4n + 2) and 100 (4n), and twice each: through
    /// [`sweep`], which runs the widest form this CPU has, and through
    /// `sweep_on(Portable, …)`, so the portable instantiation stays tested
    /// where `sweep` never picks it.
    pub(crate) fn check_sweep_at_column_and_block_edges(
        parts: usize,
        make: impl for<'w> Fn(&'w mut FactorMatrix, &RowPartition, usize) -> Box<dyn UserRows + 'w>,
    ) {
        for k in [3, 10, 100] {
            check_edges_with(k, parts, &make, |wd, users, item, h, params| {
                sweep(wd, users, item, h, params)
            });
            check_edges_with(k, parts, &make, |wd, users, item, h, params| {
                sweep_on(Portable, wd, users, item, h, params)
            });
        }
    }

    fn check_edges_with(
        k: usize,
        parts: usize,
        make: &impl for<'w> Fn(&'w mut FactorMatrix, &RowPartition, usize) -> Box<dyn UserRows + 'w>,
        sweep: impl Fn(&mut WorkerData, &mut dyn UserRows, Idx, &mut [f64], &HyperParams) -> u64,
    ) {
        let params = HyperParams::netflix().with_k(k);
        let ahead = prefetch_rows_ahead(k);
        assert!(ahead >= 2, "the edge lengths below need a distance of 2+");
        let block = ahead + 3;
        // Per item, the rows of a block that rate it, relative to its start.
        let columns = [0..0, 2..3, 0..ahead - 1, 0..ahead, 0..ahead + 1, 1..block];
        let nrows = parts * block;
        let mut t = TripletMatrix::new(nrows, columns.len());
        for q in 0..parts {
            for (j, rows) in columns.iter().enumerate() {
                for i in rows.clone() {
                    let rating = 1.0 + ((i * 7 + j * 3 + q) % 5) as f64;
                    t.push((q * block + i) as Idx, j as Idx, rating);
                }
            }
        }
        let data = RatingMatrix::from_triplets(&t);
        let partition = RowPartition::contiguous(nrows, parts);
        let model = nomad_sgd::FactorModel::init(nrows, columns.len(), k, 17);

        for (q, wd) in WorkerData::build_all(&data, &partition)
            .into_iter()
            .enumerate()
        {
            let mut w = model.w.clone();
            let mut users = make(&mut w, &partition, q);
            let (mut wd, mut ref_wd) = (wd.clone(), wd);
            let mut ref_w = model.w.clone();
            for (j, rows) in columns.iter().enumerate() {
                let item = j as Idx;
                assert_eq!(wd.local_count(item), rows.len());
                let (mut h, mut ref_h) = (model.h.row(j).to_vec(), model.h.row(j).to_vec());
                let updates = sweep(&mut wd, &mut *users, item, &mut h, &params);
                let expect = reference_sweep(&mut ref_wd, &mut ref_w, item, &mut ref_h, &params);
                assert_eq!(updates, expect, "k {k} worker {q} item {j}");
                assert_eq!(updates, rows.len() as u64);
                assert_eq!(h, ref_h, "k {k} worker {q} item {j}");
            }
            assert_eq!(wd.item_passes, ref_wd.item_passes);
            let last = *partition.members(q).last().expect("a non-empty block");
            assert_eq!(last as usize, (q + 1) * block - 1);
            for &i in partition.members(q) {
                assert_eq!(users.user_row(i), ref_w.row(i as usize), "k {k} row {i}");
            }
        }
    }

    #[test]
    fn sweep_matches_a_plain_loop_at_column_and_matrix_edges() {
        // Dense storage of the serial/simulated engines (one worker owns
        // all of `W`, so the last column ends on its last row) ...
        check_sweep_at_column_and_block_edges(1, |w, _, _| Box::new(w.clone()));
        // ... and the rank worker's full-height matrix, swept by two
        // workers that each touch only their own segment.
        check_sweep_at_column_and_block_edges(2, |w, _, _| Box::new(w.clone()));
    }
}
