//! `HopKernel::hop` on a scripted in-memory context: the one place the
//! legal order of a token hop is asserted step by step — claim before
//! sweep, `coop_tick` and ledger release before push, `pass + 1` on the
//! pushed token, and an idle pop that ticks the publisher with no item row
//! and pushes nothing.  The ledger checks compile in under `sched-fuzz`.

use nomad_core::hop::{HopContext, HopKernel, Token};
use nomad_core::{FactorSlab, RoutingPolicy, WorkerData};
use nomad_matrix::{Idx, RatingMatrix, RowPartition, TripletMatrix};
use nomad_serve::SnapshotPublisher;
use nomad_sgd::{FactorMatrix, HyperParams};

/// A scripted queue, a log of every callback, and checks of what must
/// already have happened at each one.  One worker (ledger id 7, publisher
/// slot 0), two users, one item with both ratings local; the publisher is
/// due from update 1, so the first tick carrying the item row publishes.
struct Scripted<'a> {
    queue: Vec<Token>,
    wd: WorkerData,
    users: FactorMatrix,
    slab: &'a FactorSlab,
    publisher: &'a SnapshotPublisher,
    /// Slab row 0 when the hop started.
    h_before: Vec<f64>,
    log: Vec<String>,
}

// SAFETY: the scripted queue holds at most the one token for slab row 0,
// and `push` only logs it — nothing else touches the row.
unsafe impl HopContext for Scripted<'_> {
    type Users = FactorMatrix;

    fn pop(&mut self) -> Option<Token> {
        self.log.push("pop".into());
        self.queue.pop()
    }

    fn ticket(&mut self, item: Idx) {
        // Claim before sweep: the row is already worker 7's (releasing it
        // as 7 panics otherwise) and the sweep has not touched it.
        #[cfg(feature = "sched-fuzz")]
        {
            self.slab.release_row(item, 7);
            self.slab.claim_row(item, 7);
        }
        assert_eq!(self.slab.row(item as usize), &self.h_before[..]);
        self.log.push(format!("ticket {item}"));
    }

    fn shard(&mut self) -> (&mut WorkerData, &mut FactorMatrix) {
        (&mut self.wd, &mut self.users)
    }

    fn account(&mut self, updates: u64) -> u64 {
        // The sweep ran between the ticket and the accounting, and the
        // publisher has not been ticked yet.
        assert_ne!(self.slab.row(0), &self.h_before[..]);
        assert!(self.publisher.latest().is_none());
        self.log.push(format!("account {updates}"));
        40 + updates
    }

    fn clock(&self) -> u64 {
        40
    }

    fn destinations(&self) -> usize {
        3
    }

    fn load(&self, _choice: usize) -> usize {
        unreachable!("round robin never reads the load")
    }

    fn resolve(&self, choice: usize) -> usize {
        10 + choice
    }

    fn push(&mut self, dest: usize, token: Token, h: &[f64]) {
        // `coop_tick` before push: the tick with the item row published.
        assert!(self.publisher.latest().is_some());
        // Release before push: the row is free for the next owner
        // (claiming a still-owned row panics).
        #[cfg(feature = "sched-fuzz")]
        {
            self.slab.claim_row(token.item, 99);
            self.slab.release_row(token.item, 99);
        }
        assert_eq!(h, self.slab.row(token.item as usize));
        self.log.push(format!("push {token:?} to {dest}"));
    }
}

/// Runs one hop of worker 7 over `queue`; returns what `hop` returned and
/// the context for inspection.
fn one_hop<'a>(
    slab: &'a FactorSlab,
    publisher: &'a SnapshotPublisher,
    queue: Vec<Token>,
) -> (Option<u64>, Scripted<'a>) {
    let mut t = TripletMatrix::new(2, 1);
    t.push(0, 0, 4.0);
    t.push(1, 0, 2.0);
    let data = RatingMatrix::from_triplets(&t);
    let mut users = FactorMatrix::zeros(2, 2);
    users.set_row(0, &[0.5, 0.25]);
    users.set_row(1, &[0.125, 0.5]);
    publisher.begin_run(2, 1, 2, 1);
    let mut ctx = Scripted {
        queue,
        wd: WorkerData::build_all(&data, &RowPartition::contiguous(2, 1)).remove(0),
        users,
        slab,
        publisher,
        h_before: slab.row(0).to_vec(),
        log: Vec::new(),
    };
    let params = HyperParams::netflix().with_k(2);
    let policy = RoutingPolicy::RoundRobin;
    let mut kernel = HopKernel::new(7, 0, params, policy, 1, slab, Some(publisher));
    (kernel.hop(&mut ctx), ctx)
}

#[test]
fn a_hop_runs_its_steps_in_the_legal_order() {
    let mut slab = FactorSlab::zeroed(1, 2);
    slab.set_row(0, &[0.5, 0.5]);
    let publisher = SnapshotPublisher::new(1);
    let (updates, ctx) = one_hop(&slab, &publisher, vec![Token { item: 0, pass: 5 }]);
    assert_eq!(updates, Some(2));
    assert_eq!(ctx.wd.item_passes, vec![1]);
    // Round robin from worker 7's staggered cursor: 8 % 3 = choice 2,
    // resolved to worker 12; the pushed token has one more pass.
    let expected = [
        "pop",
        "ticket 0",
        "account 2",
        "push Token { item: 0, pass: 6 } to 12",
    ];
    assert_eq!(ctx.log, expected);
    // The tick carried the swept rows and the clock `account` returned.
    let snap = publisher.latest().unwrap();
    assert_eq!(snap.updates_at(), 42);
    assert_eq!(snap.item_factor(0), slab.row(0));
    assert_eq!(snap.user_factor(1), ctx.users.row(1));
}

#[test]
fn an_idle_hop_ticks_the_publisher_without_an_item_row_and_pushes_nothing() {
    let slab = FactorSlab::zeroed(1, 2);
    let publisher = SnapshotPublisher::new(1);
    let (updates, ctx) = one_hop(&slab, &publisher, Vec::new());
    assert_eq!(updates, None);
    assert_eq!(ctx.log, ["pop"]);
    assert_eq!(ctx.wd.item_passes, vec![0]);
    // The idle clock (40) was due, so the tick opened a build and
    // contributed the user block; with no item row the build stays one
    // contribution short of publishing.
    assert!(publisher.build_in_flight());
    assert!(publisher.latest().is_none());
}
