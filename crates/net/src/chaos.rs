//! Deterministic fault injection at the transport boundary: crashes and
//! partitions as a [`Transport`] wrapper.
//!
//! [`ChaosTransport`] sits between a rank loop and the real transport
//! and consults a fault source before every operation.  Two sources
//! exist:
//!
//! * **Controller-driven** ([`ChaosTransport::hooked`]) — asks the
//!   installed [`ScheduleController`](nomad_core::sched::ScheduleController)
//!   via its `transport_fault` hook, so
//!   a seeded [`FuzzController`](nomad_core::sched::FuzzController) with
//!   a `crash@<step>` / `partition@<step>` strategy decides when the
//!   victim dies.  Replayable: the fault lands at the same operation
//!   index every run.
//! * **Scripted** ([`ChaosTransport::scripted`]) — a fixed
//!   [`ChaosPlan`], for regression tests that need one exact fault
//!   without installing a controller.
//!
//! Fault semantics mirror real networks:
//!
//! * [`TransportFault::Kill`] — the endpoint is dead.  Every later send
//!   disappears (like packets from a SIGKILLed process) and every later
//!   receive fails with [`NetError::Closed`], which makes the rank loop
//!   exit just as it would on a torn-down socket.
//! * [`TransportFault::Drop`] — a partition.  Traffic is **held, not
//!   lost**: outbound messages queue inside the wrapper and inbound
//!   messages buffer unseen, and when the fault window ends the backlog
//!   is delivered in order.  That is TCP's contract — a healed
//!   partition must not violate token conservation on its own.
//!
//! The operation counter increments on every send and every successful
//! delivery, so a `crash@40` case kills the victim at its 40th
//! interaction with the mesh regardless of wall-clock timing.
//!
//! A scripted plan can also make the endpoint a deterministic
//! **straggler**: [`ChaosPlan::send_delay()`] is slept before every send,
//! holding up each token batch, progress report and `Fin` — a *slow*
//! rank must never be taken for a dead one, nor wedge quiesce.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use nomad_core::queue::Inbox;
use nomad_core::sched::{hooks, TransportFault};

use crate::transport::{NetError, Transport, Waker};
use crate::wire::Message;

/// A fixed fault script for one endpoint (see [`ChaosTransport::scripted`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Kill the endpoint at this operation index.
    pub kill_at: Option<u64>,
    /// Partition the endpoint for ops in `[start, start + len)`.
    pub partition: Option<(u64, u64)>,
    /// Sleep this long before every send of the (live) endpoint.
    pub send_delay: Duration,
}

impl ChaosPlan {
    /// Kills the endpoint at operation `op`.
    pub fn kill_at(op: u64) -> Self {
        Self {
            kill_at: Some(op),
            ..Self::default()
        }
    }

    /// Partitions the endpoint for ops in `[start, start + len)`.
    pub fn partition(start: u64, len: u64) -> Self {
        Self {
            partition: Some((start, len)),
            ..Self::default()
        }
    }

    /// Sleeps `delay` before every send of the live endpoint.
    pub fn send_delay(delay: Duration) -> Self {
        Self {
            send_delay: delay,
            ..Self::default()
        }
    }

    /// A [`crate::launch()`] `wrap` that scripts this plan on endpoint
    /// `slot` alone and leaves every other endpoint transparent.
    pub fn on<T: Transport>(self, slot: usize) -> impl Fn(T) -> ChaosTransport<T> + Sync {
        move |ep| {
            let plan = if ep.id() == slot {
                self
            } else {
                Self::default()
            };
            ChaosTransport::scripted(ep, plan)
        }
    }

    fn fault(&self, op: u64) -> TransportFault {
        if let Some(at) = self.kill_at {
            if op >= at {
                return TransportFault::Kill;
            }
        }
        if let Some((start, len)) = self.partition {
            if op >= start && op < start + len {
                return TransportFault::Drop;
            }
        }
        TransportFault::None
    }
}

enum Source {
    Hooked,
    Scripted(ChaosPlan),
}

/// The fault-injecting transport wrapper; see the module docs.
pub struct ChaosTransport<T> {
    inner: T,
    source: Source,
    ops: AtomicU64,
    killed: AtomicBool,
    /// Outbound messages held back by an active partition, in send order.
    held_out: Inbox<(usize, Message)>,
    /// Inbound messages received during a partition, invisible to the
    /// wrapped endpoint until the partition heals.
    held_in: Inbox<(usize, Message)>,
}

impl<T: Transport> ChaosTransport<T> {
    /// Wraps `inner`, deferring every fault decision to the installed
    /// [`ScheduleController`](nomad_core::sched::ScheduleController)
    /// (no controller installed → fully transparent).
    pub fn hooked(inner: T) -> Self {
        Self::with_source(inner, Source::Hooked)
    }

    /// Wraps `inner` with a fixed fault script.
    pub fn scripted(inner: T, plan: ChaosPlan) -> Self {
        Self::with_source(inner, Source::Scripted(plan))
    }

    fn with_source(inner: T, source: Source) -> Self {
        Self {
            inner,
            source,
            ops: AtomicU64::new(0),
            killed: AtomicBool::new(false),
            held_out: Inbox::new(),
            held_in: Inbox::new(),
        }
    }

    /// Whether the kill fault has fired.
    pub fn is_killed(&self) -> bool {
        self.killed.load(Ordering::Relaxed)
    }

    /// Draws the fault for the next operation and advances the counter.
    fn next_fault(&self) -> TransportFault {
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        let fault = match &self.source {
            Source::Hooked => hooks::transport_fault(self.inner.id(), op),
            Source::Scripted(plan) => plan.fault(op),
        };
        if fault == TransportFault::Kill {
            self.killed.store(true, Ordering::Relaxed);
        }
        fault
    }

    /// Delivers every partition-held outbound message (partition healed).
    fn flush_held_out(&self) -> Result<(), NetError> {
        while let Some((dest, msg)) = self.held_out.pop() {
            self.inner.send(dest, &msg)?;
        }
        Ok(())
    }
}

impl<T: Transport> Transport for ChaosTransport<T> {
    fn id(&self) -> usize {
        self.inner.id()
    }

    fn ranks(&self) -> usize {
        self.inner.ranks()
    }

    fn send(&self, dest: usize, msg: &Message) -> Result<usize, NetError> {
        if self.is_killed() {
            // A dead process's packets go nowhere; pretending success
            // keeps the wrapped loop running until a receive fails.
            return Ok(0);
        }
        if let Source::Scripted(plan) = &self.source {
            std::thread::sleep(plan.send_delay);
        }
        match self.next_fault() {
            TransportFault::Kill => Ok(0),
            TransportFault::Drop => {
                self.held_out.push((dest, msg.clone()));
                Ok(0)
            }
            TransportFault::None => {
                self.flush_held_out()?;
                self.inner.send(dest, msg)
            }
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<(usize, Message)>, NetError> {
        if self.is_killed() {
            return Err(NetError::Closed);
        }
        // Pull from the real transport first so partition-time traffic
        // keeps accumulating in the hold buffer in arrival order.
        let got = self.inner.recv_timeout(timeout)?;
        if let Some((src, msg)) = got {
            match self.next_fault() {
                TransportFault::Kill => return Err(NetError::Closed),
                TransportFault::Drop => {
                    self.held_in.push((src, msg));
                    return Ok(None);
                }
                TransportFault::None => {
                    self.flush_held_out()?;
                    // Healed: release the backlog in order before the
                    // fresh message (only the receiving thread touches
                    // `held_in`, so the pop and push need no common lock).
                    if let Some(first) = self.held_in.pop() {
                        self.held_in.push((src, msg));
                        return Ok(Some(first));
                    }
                    return Ok(Some((src, msg)));
                }
            }
        }
        // Empty receive: still check whether a partition just healed so
        // the backlog is not stuck behind an empty inbox.
        match self.next_fault() {
            TransportFault::Kill => Err(NetError::Closed),
            TransportFault::Drop => Ok(None),
            TransportFault::None => {
                self.flush_held_out()?;
                Ok(self.held_in.pop())
            }
        }
    }

    /// Wakes the wrapped endpoint: the early return then takes the empty
    /// receive path above, so it still draws a fault and releases a healed
    /// partition's backlog.
    fn waker(&self) -> Waker {
        self.inner.waker()
    }

    fn peer_down(&self, peer: usize) -> bool {
        self.inner.peer_down(peer)
    }

    fn close_peer(&self, peer: usize) {
        self.inner.close_peer(peer);
    }

    fn close(&self) {
        self.inner.close();
    }

    fn linger(&self) {
        self.inner.linger();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Loopback;

    #[test]
    fn scripted_kill_drops_sends_and_fails_receives() {
        let (driver, mut ranks) = Loopback::mesh(1);
        let chaotic = ChaosTransport::scripted(ranks.remove(0), ChaosPlan::kill_at(1));
        // Op 0: delivered.  Op 1+: dead.
        chaotic.send(1, &Message::Ping { rank: 0 }).unwrap();
        chaotic.send(1, &Message::Ping { rank: 0 }).unwrap();
        assert!(chaotic.is_killed());
        assert!(matches!(
            chaotic.recv_timeout(Duration::from_millis(1)),
            Err(NetError::Closed)
        ));
        let first = driver.recv_timeout(Duration::from_millis(50)).unwrap();
        assert!(first.is_some(), "pre-kill send must arrive");
        let second = driver.recv_timeout(Duration::from_millis(20)).unwrap();
        assert!(second.is_none(), "post-kill send must vanish");
    }

    #[test]
    fn scripted_partition_holds_traffic_until_heal() {
        let (driver, mut ranks) = Loopback::mesh(1);
        let chaotic = ChaosTransport::scripted(ranks.remove(0), ChaosPlan::partition(0, 2));
        // Ops 0 and 1 are partitioned: both sends are held.
        chaotic
            .send(
                1,
                &Message::Progress {
                    rank: 0,
                    updates: 1,
                    staleness: u64::MAX,
                    publish_gap: 0,
                },
            )
            .unwrap();
        chaotic
            .send(
                1,
                &Message::Progress {
                    rank: 0,
                    updates: 2,
                    staleness: u64::MAX,
                    publish_gap: 0,
                },
            )
            .unwrap();
        assert!(driver
            .recv_timeout(Duration::from_millis(20))
            .unwrap()
            .is_none());
        // Op 2 heals: the backlog flushes in order, then the new send.
        chaotic
            .send(
                1,
                &Message::Progress {
                    rank: 0,
                    updates: 3,
                    staleness: u64::MAX,
                    publish_gap: 0,
                },
            )
            .unwrap();
        let mut got = Vec::new();
        for _ in 0..3 {
            match driver.recv_timeout(Duration::from_millis(100)).unwrap() {
                Some((0, Message::Progress { updates, .. })) => got.push(updates),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(
            got,
            vec![1, 2, 3],
            "partition must delay, not drop or reorder"
        );
    }

    #[test]
    fn partitioned_receives_are_released_on_heal() {
        let (driver, mut ranks) = Loopback::mesh(1);
        let chaotic = ChaosTransport::scripted(ranks.remove(0), ChaosPlan::partition(0, 1));
        driver.send(0, &Message::Drain).unwrap();
        // Op 0 is partitioned: the message is held, not delivered.
        assert!(chaotic
            .recv_timeout(Duration::from_millis(20))
            .unwrap()
            .is_none());
        // Op 1 heals: the held message surfaces.
        let got = chaotic.recv_timeout(Duration::from_millis(20)).unwrap();
        assert!(matches!(got, Some((1, Message::Drain))));
    }

    #[test]
    fn a_send_delay_holds_every_send_and_still_delivers() {
        let (driver, mut ranks) = Loopback::mesh(1);
        let slow = ChaosTransport::scripted(
            ranks.remove(0),
            ChaosPlan::send_delay(Duration::from_millis(2)),
        );
        let before = std::time::Instant::now();
        slow.send(1, &Message::Fin { rank: 0 }).unwrap();
        assert!(before.elapsed() >= Duration::from_millis(2));
        let next = driver.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(next, Some((0, Message::Fin { rank: 0 })));
    }

    #[test]
    fn a_wake_passes_through_to_the_wrapped_endpoint() {
        let (driver, mut ranks) = Loopback::mesh(1);
        let chaotic = ChaosTransport::scripted(ranks.remove(0), ChaosPlan::default());
        crate::transport::tests::assert_wake_contract(&chaotic, &driver, || ());
        let (driver, ranks) = Loopback::mesh(1);
        let chaotic = ChaosTransport::hooked(driver);
        crate::transport::tests::assert_wake_contract(&chaotic, &ranks[0], || ());
    }

    #[test]
    fn without_a_controller_the_hooked_wrapper_is_transparent() {
        let (driver, mut ranks) = Loopback::mesh(1);
        let chaotic = ChaosTransport::hooked(ranks.remove(0));
        for u in 0..20 {
            chaotic
                .send(
                    1,
                    &Message::Progress {
                        rank: 0,
                        updates: u,
                        staleness: u64::MAX,
                        publish_gap: 0,
                    },
                )
                .unwrap();
        }
        for u in 0..20 {
            let (_, msg) = driver
                .recv_timeout(Duration::from_millis(100))
                .unwrap()
                .expect("transparent delivery");
            assert!(matches!(msg, Message::Progress { updates, .. } if updates == u));
        }
        assert!(!chaotic.is_killed());
    }
}
