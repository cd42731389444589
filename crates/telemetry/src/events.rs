//! Structured event tracing: a bounded lock-free ring of compact
//! [`Event`] records.
//!
//! Writers never block and never allocate: recording claims a slot with
//! one relaxed `fetch_add` on the ring cursor and stores the event's
//! four words with relaxed atomic stores behind a per-slot sequence
//! lock.  When the ring is full the oldest records are **overwritten**
//! — a trace is a sliding window ending at the interesting moment
//! (crash, quiesce), which is the only window anyone reads.
//!
//! Readers ([`EventRing::dump`]) validate each slot's sequence number
//! before and after copying it, so a record overwritten mid-read is
//! discarded rather than surfaced torn.  Timestamps are monotonic
//! microseconds since the ring was created; the dump format
//! (`kind@a@b@t<micros>`) is deliberately `strategy@seed`-shaped so a
//! trace line can be pasted next to a fuzz replay pair.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// What happened.  The `a`/`b` payload words are per-kind (documented
/// on each variant).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A training round/epoch started (`a` = epoch, `b` = update clock).
    EpochStart = 0,
    /// A training round/epoch ended (`a` = epoch, `b` = update clock).
    EpochEnd = 1,
    /// A model snapshot was published (`a` = epoch, `b` = updates_at).
    Publish = 2,
    /// A rank was evicted (`a` = rank, `b` = fleet update clock).
    Eviction = 3,
    /// A census barrier cut (`a` = census id, `b` = pass debt assigned).
    Census = 4,
    /// A rank joined mid-run (`a` = rank, `b` = fleet update clock).
    Join = 5,
    /// A query resolved (`a` = outcome code, `b` = latency micros).
    QueryOutcome = 6,
    /// A query was shed by admission control (`a` = in-flight, `b` =
    /// capacity).
    Shed = 7,
    /// A query failed over to the stale replica (`a` = query id, `b` =
    /// owning rank).
    Failover = 9,
    /// The driver broadcast `Drain` (`a` = membership epoch, `b` = fleet
    /// update clock).
    Drain = 10,
}

impl EventKind {
    /// Stable lowercase name, used in the dump format.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::EpochStart => "epoch_start",
            EventKind::EpochEnd => "epoch_end",
            EventKind::Publish => "publish",
            EventKind::Eviction => "eviction",
            EventKind::Census => "census",
            EventKind::Join => "join",
            EventKind::QueryOutcome => "query",
            EventKind::Shed => "shed",
            EventKind::Failover => "failover",
            EventKind::Drain => "drain",
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0 => EventKind::EpochStart,
            1 => EventKind::EpochEnd,
            2 => EventKind::Publish,
            3 => EventKind::Eviction,
            4 => EventKind::Census,
            5 => EventKind::Join,
            6 => EventKind::QueryOutcome,
            7 => EventKind::Shed,
            9 => EventKind::Failover,
            10 => EventKind::Drain,
            _ => return None,
        })
    }
}

/// One compact trace record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Monotonic microseconds since the ring was created.
    pub t_micros: u64,
    /// What happened.
    pub kind: EventKind,
    /// First payload word (see [`EventKind`]).
    pub a: u64,
    /// Second payload word (see [`EventKind`]).
    pub b: u64,
}

impl Event {
    /// The replay-friendly line format: `kind@a@b@t<micros>` — the same
    /// `@`-joined shape as the schedule fuzzer's `strategy@seed` pairs,
    /// so trace lines and replay specs read alike in a crash report.
    pub fn format(&self) -> String {
        format!(
            "{}@{}@{}@t{}",
            self.kind.name(),
            self.a,
            self.b,
            self.t_micros
        )
    }
}

/// One ring slot: a sequence word plus the event's four words, all
/// relaxed atomics so concurrent overwrite is a detected race, not UB.
///
/// Protocol: a writer claims ticket `i` (global cursor `fetch_add`),
/// CASes `seq` from its old even value to `2*i + 1` ("being written"),
/// stores the payload, then stores `seq = 2*i + 2` ("stable").  The CAS
/// makes writers mutually exclusive per slot: a writer that finds an
/// odd `seq` (an older write mid-flight — only possible when the ring
/// laps within the handful of stores a write takes) spins those few
/// stores out, and a writer that finds a *newer* sequence than its own
/// drops its record (it was overwritten before it began).  A reader
/// loads `seq` (acquire), copies the payload, re-loads `seq` — a
/// stable, unchanged, even sequence means the copy is whole.
struct Slot {
    seq: AtomicU64,
    t: AtomicU64,
    kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

/// A bounded lock-free trace ring with overwrite-oldest semantics.
pub struct EventRing {
    /// Recording toggle: one relaxed load on the disabled path.
    enabled: AtomicBool,
    /// Global write cursor (tickets).
    next: AtomicU64,
    /// Slot storage; length is a power of two.
    slots: Box<[Slot]>,
    /// Timestamp origin.
    start: Instant,
}

impl EventRing {
    /// A ring holding the most recent ~`capacity` events (rounded up to
    /// a power of two, minimum 8).  Recording starts enabled.
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(8).next_power_of_two();
        let slots = (0..cap)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                t: AtomicU64::new(0),
                kind: AtomicU64::new(0),
                a: AtomicU64::new(0),
                b: AtomicU64::new(0),
            })
            .collect();
        Self {
            enabled: AtomicBool::new(true),
            next: AtomicU64::new(0),
            slots,
            start: Instant::now(),
        }
    }

    /// Turns recording on or off.  Off costs one relaxed load per
    /// [`EventRing::record`] call.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is on.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Records an event: a ticket `fetch_add`, five relaxed stores, no
    /// allocation, no lock.  Overwrites the oldest record when full.
    #[inline]
    pub fn record(&self, kind: EventKind, a: u64, b: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let t = self.start.elapsed().as_micros() as u64;
        let ticket = self.next.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket as usize) & (self.slots.len() - 1)];
        let claim = 2 * ticket + 1;
        let mut cur = slot.seq.load(Ordering::Relaxed);
        loop {
            if cur >= claim {
                // The ring lapped us before we even started: a newer
                // record owns this slot; ours is the "oldest" and is
                // dropped, which is exactly the overwrite semantics.
                return;
            }
            if cur % 2 == 1 {
                // An older write is mid-flight (only possible when the
                // ring laps within the few stores a write takes); spin
                // them out.
                std::hint::spin_loop();
                cur = slot.seq.load(Ordering::Relaxed);
                continue;
            }
            match slot
                .seq
                .compare_exchange_weak(cur, claim, Ordering::Acquire, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(c) => cur = c,
            }
        }
        slot.t.store(t, Ordering::Relaxed);
        slot.kind.store(kind as u8 as u64, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.seq.store(claim + 1, Ordering::Release);
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Copies out the surviving window, oldest first.  Slots caught
    /// mid-overwrite are skipped (their replacement shows up under its
    /// own ticket).  Allocates — snapshot/quiesce path only.
    pub fn dump(&self) -> Vec<Event> {
        let mut out: Vec<(u64, Event)> = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let seq1 = slot.seq.load(Ordering::Acquire);
            if seq1 == 0 || seq1 % 2 == 1 {
                continue; // never written, or write in flight
            }
            let t = slot.t.load(Ordering::Relaxed);
            let kind = slot.kind.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            let seq2 = slot.seq.load(Ordering::Acquire);
            if seq1 != seq2 {
                continue; // overwritten while copying
            }
            let Some(kind) = EventKind::from_u8(kind as u8) else {
                continue;
            };
            out.push((
                seq1,
                Event {
                    t_micros: t,
                    kind,
                    a,
                    b,
                },
            ));
        }
        out.sort_by_key(|(seq, _)| *seq);
        out.into_iter().map(|(_, e)| e).collect()
    }

    /// The dump as replay-friendly lines (see [`Event::format`]).
    pub fn dump_lines(&self) -> Vec<String> {
        self.dump().iter().map(Event::format).collect()
    }
}

impl std::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRing")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.recorded())
            .field("enabled", &self.enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_dumps_in_order() {
        let ring = EventRing::new(8);
        ring.record(EventKind::EpochStart, 1, 0);
        ring.record(EventKind::Publish, 1, 500);
        ring.record(EventKind::EpochEnd, 1, 1000);
        let events = ring.dump();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, EventKind::EpochStart);
        assert_eq!(events[2].kind, EventKind::EpochEnd);
        assert!(
            events[0].t_micros <= events[2].t_micros,
            "monotonic timestamps"
        );
    }

    #[test]
    fn overwrites_oldest_when_full() {
        let ring = EventRing::new(8);
        for i in 0..20u64 {
            ring.record(EventKind::Publish, i, 0);
        }
        let events = ring.dump();
        assert_eq!(events.len(), 8, "bounded window");
        assert_eq!(events.first().unwrap().a, 12, "oldest surviving record");
        assert_eq!(events.last().unwrap().a, 19);
        assert_eq!(ring.recorded(), 20);
    }

    #[test]
    fn disabled_ring_records_nothing() {
        let ring = EventRing::new(8);
        ring.set_enabled(false);
        ring.record(EventKind::Shed, 1, 2);
        assert!(ring.dump().is_empty());
        assert_eq!(ring.recorded(), 0);
        ring.set_enabled(true);
        ring.record(EventKind::Shed, 1, 2);
        assert_eq!(ring.dump().len(), 1);
    }

    #[test]
    fn format_is_replay_shaped() {
        let e = Event {
            t_micros: 1523,
            kind: EventKind::Eviction,
            a: 2,
            b: 40000,
        };
        assert_eq!(e.format(), "eviction@2@40000@t1523");
    }

    #[test]
    fn concurrent_writers_never_produce_torn_records() {
        let ring = EventRing::new(16);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let ring = &ring;
                s.spawn(move || {
                    for i in 0..1000u64 {
                        // a and b carry a checkable relation.
                        ring.record(EventKind::Publish, t * 10_000 + i, (t * 10_000 + i) * 2);
                    }
                });
            }
        });
        for e in ring.dump() {
            assert_eq!(e.b, e.a * 2, "torn record surfaced");
        }
        assert_eq!(ring.recorded(), 4000);
    }
}
