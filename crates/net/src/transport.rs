//! The transport abstraction: how encoded messages move between
//! endpoints, and the in-memory [`Loopback`] used for socket-free tests.
//!
//! A *mesh* has `ranks + 1` endpoints: ranks `0..ranks` plus the driver at
//! index `ranks`.  Every endpoint can send a [`Message`] to every other,
//! and the one ordering guarantee the engine relies on is **per-edge
//! FIFO**: messages from `a` to `b` arrive in the order they were sent
//! (which is what makes the `Fin` quiesce marker sound — on a FIFO edge,
//! `Fin` cannot overtake a token).  Delivery across different senders is
//! unordered, exactly like independent TCP streams.
//!
//! [`Loopback`] moves frames through in-memory mailboxes but still runs
//! every message through the wire codec, so the byte format is exercised
//! even when no socket exists; `nomad_net::tcp` implements the same trait
//! over real `std::net` streams.
//!
//! Both keep one receive queue per endpoint, the same
//! [`nomad_core::queue::Inbox`] the workers' token queues are: its
//! `woken` flag lives under the queue's mutex, which is what lets a
//! [`Waker`] cut a blocked [`Transport::recv_timeout`] short from another
//! thread without a lost wake-up and without touching the queue.

use std::sync::Arc;
use std::time::Duration;

use nomad_core::queue::Inbox;

use crate::wire::{Message, WireError};

/// Transport-layer failure.
#[derive(Debug)]
pub enum NetError {
    /// Encoding/decoding failed.
    Wire(WireError),
    /// An underlying socket operation failed.
    Io(std::io::Error),
    /// The peer (or the whole mesh) is gone.
    Closed,
    /// A specific peer is unreachable (dead stream, never-connected
    /// slot).  Unlike [`NetError::Closed`] the rest of the mesh is
    /// fine; the comm layer reacts by re-injecting undeliverable tokens
    /// locally so they cannot be lost.
    PeerGone(usize),
    /// The protocol state machine received something impossible.
    Protocol(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Wire(e) => write!(f, "wire error: {e}"),
            NetError::Io(e) => write!(f, "io error: {e}"),
            NetError::Closed => write!(f, "endpoint closed"),
            NetError::PeerGone(p) => write!(f, "peer {p} unreachable"),
            NetError::Protocol(s) => write!(f, "protocol error: {s}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

/// One endpoint of a mesh of `ranks + 1` parties (the driver is endpoint
/// `ranks`).
///
/// Implementations must guarantee per-(sender, receiver) FIFO delivery;
/// see the module docs for why the quiesce protocol needs it.
pub trait Transport: Send {
    /// This endpoint's index (`ranks()` for the driver).
    fn id(&self) -> usize;

    /// Number of rank endpoints in the mesh.
    fn ranks(&self) -> usize;

    /// Sends `msg` to endpoint `dest`, returning the encoded payload's
    /// byte length so callers can feed byte counters without encoding
    /// twice.
    ///
    /// # Errors
    /// Fails if the destination is unreachable or encoding fails.  A
    /// message too large for one frame fails with [`NetError::Wire`]
    /// before anything is sent, and the edge stays usable.
    fn send(&self, dest: usize, msg: &Message) -> Result<usize, NetError>;

    /// Receives the next message from any endpoint, waiting up to
    /// `timeout` (`Duration::MAX`: until a frame or a wake).  `Ok(None)`
    /// means there was nothing to deliver: the timeout elapsed, or a
    /// [`Waker`] cut the wait short.
    ///
    /// # Errors
    /// Fails if the mesh is closed or a received frame fails to decode.
    fn recv_timeout(&self, timeout: Duration) -> Result<Option<(usize, Message)>, NetError>;

    /// A handle with which any thread can make this endpoint's
    /// [`recv_timeout`](Transport::recv_timeout) return early; see
    /// [`Waker`] for the contract.
    fn waker(&self) -> Waker;

    /// Whether the transport has *hard* evidence that `peer` is gone
    /// (e.g. its TCP stream hit EOF).  Loopback meshes have no such
    /// evidence channel, so the default is `false` — failure detection
    /// then rests on heartbeat timeouts alone.
    fn peer_down(&self, peer: usize) -> bool {
        let _ = peer;
        false
    }

    /// Tears down this endpoint's link to `peer` (after an eviction) so
    /// a dead stream cannot poison later sends.  Default: no-op.
    fn close_peer(&self, peer: usize) {
        let _ = peer;
    }
}

/// Cuts a blocked [`Transport::recv_timeout`] short from another thread.
///
/// [`wake`](Waker::wake) makes the endpoint's current `recv_timeout` —
/// or, if none is blocked, its next one — return at once: with the
/// oldest queued frame if there is one, with `Ok(None)` otherwise.  No
/// frame is lost or reordered, wakes raised before that return coalesce
/// into it, and a wake is never lost: the flag behind it lives under the
/// same mutex as the queue the receiver checks before it waits.
///
/// The handle is cheap to clone and outlives the endpoint harmlessly
/// (waking a dropped endpoint wakes nobody).
#[derive(Clone)]
pub struct Waker(Arc<dyn Fn() + Send + Sync>);

impl Waker {
    pub(crate) fn new(wake: impl Fn() + Send + Sync + 'static) -> Self {
        Self(Arc::new(wake))
    }

    /// Raises the wake; see the type docs.
    pub fn wake(&self) {
        (self.0)();
    }
}

/// In-memory transport: the whole mesh lives in one process and messages
/// hop between endpoints as encoded byte frames.
///
/// Per-edge FIFO holds because each inbox is a single queue protected by
/// one mutex: two sends from the same sender are pushed in program order.
pub struct Loopback {
    id: usize,
    ranks: usize,
    /// One inbox per endpoint.
    boxes: Arc<Vec<Inbox<SentFrame>>>,
}

/// An encoded frame tagged with its sender.
type SentFrame = (usize, Vec<u8>);

impl Loopback {
    /// Builds a mesh of `ranks` rank endpoints plus one driver endpoint.
    ///
    /// Returns `(driver, rank_endpoints)`; hand each rank endpoint to a
    /// thread running `run_rank` and drive the driver endpoint from the
    /// caller.
    ///
    /// # Panics
    /// Panics if `ranks == 0`.
    pub fn mesh(ranks: usize) -> (Loopback, Vec<Loopback>) {
        assert!(ranks > 0, "need at least one rank");
        let boxes = Arc::new((0..=ranks).map(|_| Inbox::new()).collect());
        let driver = Loopback {
            id: ranks,
            ranks,
            boxes: Arc::clone(&boxes),
        };
        let endpoints = (0..ranks)
            .map(|id| Loopback {
                id,
                ranks,
                boxes: Arc::clone(&boxes),
            })
            .collect();
        (driver, endpoints)
    }
}

impl Transport for Loopback {
    fn id(&self) -> usize {
        self.id
    }

    fn ranks(&self) -> usize {
        self.ranks
    }

    fn send(&self, dest: usize, msg: &Message) -> Result<usize, NetError> {
        assert!(dest <= self.ranks, "destination {dest} out of mesh");
        assert_ne!(dest, self.id, "no self-edges in the mesh");
        let bytes = msg.encode()?;
        let len = bytes.len();
        self.boxes[dest].push((self.id, bytes));
        Ok(len)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<(usize, Message)>, NetError> {
        match self.boxes[self.id].pop_timeout(timeout) {
            Some((src, bytes)) => Ok(Some((src, Message::decode(&bytes)?))),
            None => Ok(None),
        }
    }

    fn waker(&self) -> Waker {
        let (boxes, id) = (Arc::clone(&self.boxes), self.id);
        Waker::new(move || boxes[id].wake())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::wire::{
        ShardTransferPayload, TelemetryPayload, WireCols, MAX_FRAME_LEN, MAX_METRIC_NAME_LEN,
    };
    use nomad_telemetry::TelemetrySnapshot;

    /// Sends `to` the message `refused`, which must fail as a
    /// `BadLength(n)` with `len(n)`, then a `Fin` on the same edge, which
    /// must arrive intact.
    fn assert_refused(
        from: &impl Transport,
        to: &impl Transport,
        refused: &Message,
        len: impl Fn(u64) -> bool,
    ) {
        let sent = from.send(to.id(), refused);
        assert!(
            matches!(sent, Err(NetError::Wire(WireError::BadLength(n))) if len(n)),
            "got {sent:?}"
        );
        from.send(to.id(), &Message::Fin { rank: 0 }).unwrap();
        let next = to.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(next, Some((from.id(), Message::Fin { rank: 0 })));
    }

    /// A shard transfer whose factor rows alone fill a whole frame is
    /// refused, and the edge survives.  Shared with the TCP transport's
    /// tests.
    pub(crate) fn assert_oversized_is_refused(from: &impl Transport, to: &impl Transport) {
        let too_big = Message::ShardTransfer(Box::new(ShardTransferPayload {
            row_start: 0,
            k: 1,
            rows: vec![0.0; (MAX_FRAME_LEN / 8) as usize],
            cols: WireCols::default(),
        }));
        assert_refused(from, to, &too_big, |n| n > MAX_FRAME_LEN as u64);
    }

    /// A telemetry frame whose second counter name is one byte over the
    /// cap — behind fields a codec that did not measure first would
    /// already have written — is refused, and the edge survives.  Shared
    /// with the TCP transport's tests.
    pub(crate) fn assert_bad_name_is_refused(from: &impl Transport, to: &impl Transport) {
        let mut snapshot = TelemetrySnapshot::default();
        snapshot.counters.push(("engine.updates".into(), 7));
        let name = "x".repeat(MAX_METRIC_NAME_LEN + 1);
        snapshot.counters.push((name, 1));
        let bad = Message::Telemetry(Box::new(TelemetryPayload {
            rank: 0,
            seq: 1,
            snapshot,
        }));
        assert_refused(from, to, &bad, |n| n == 257);
    }

    const LONG: Duration = Duration::from_secs(5);
    const PROMPT: Duration = Duration::from_secs(1);

    /// Times one `recv_timeout(LONG)`.
    fn timed_recv(rx: &impl Transport) -> (Option<(usize, Message)>, Duration) {
        let before = std::time::Instant::now();
        let got = rx.recv_timeout(LONG).unwrap();
        (got, before.elapsed())
    }

    /// The [`Waker`] contract, checked from outside through `rx`'s waker
    /// with `tx` as the one sender.  `delivered` must block until what
    /// `tx` sent last sits in `rx`'s inbox (a no-op where `send` is
    /// synchronous).  Every receive here waits up to five seconds, so a
    /// missed wake fails an elapsed-time check instead of hanging.  Shared
    /// with the TCP and chaos transports' tests.
    pub(crate) fn assert_wake_contract<R: Transport + Sync>(
        rx: &R,
        tx: &impl Transport,
        delivered: impl Fn(),
    ) {
        let waker = rx.waker();
        let ping = |n: u32| Message::Ping { rank: n };

        // (a) Raised before the receive: not lost, returns at once.
        waker.wake();
        let (got, took) = timed_recv(rx);
        assert_eq!(got, None);
        assert!(took < PROMPT, "a wake raised early was lost ({took:?})");

        // (b) Raised around the start of a blocked receive: on whichever
        // side of the wait it lands, the receive returns promptly.
        std::thread::scope(|scope| {
            let (started, go) = std::sync::mpsc::channel();
            let blocked = scope.spawn(move || {
                started.send(()).unwrap();
                timed_recv(rx)
            });
            go.recv().unwrap();
            waker.wake();
            let (got, took) = blocked.join().unwrap();
            assert_eq!(got, None);
            assert!(took < PROMPT, "a blocked receive slept through ({took:?})");
        });

        // (c) A queued frame goes first and arrives intact, and the wake is
        // spent on it; later frames still come in FIFO order.
        tx.send(rx.id(), &ping(1)).unwrap();
        delivered();
        waker.wake();
        assert_eq!(timed_recv(rx).0, Some((tx.id(), ping(1))));
        tx.send(rx.id(), &ping(2)).unwrap();
        tx.send(rx.id(), &ping(3)).unwrap();
        assert_eq!(timed_recv(rx).0, Some((tx.id(), ping(2))));
        assert_eq!(timed_recv(rx).0, Some((tx.id(), ping(3))));

        // (d) Any number of wakes buys one empty return: the second
        // receive sleeps out its whole timeout.
        for _ in 0..5 {
            waker.clone().wake();
        }
        let (got, took) = timed_recv(rx);
        assert_eq!(got, None);
        assert!(took < PROMPT);
        let nap = Duration::from_millis(30);
        let before = std::time::Instant::now();
        assert_eq!(rx.recv_timeout(nap).unwrap(), None);
        assert!(before.elapsed() >= nap, "wakes must coalesce");
    }

    #[test]
    fn loopback_honours_the_wake_contract() {
        let (driver, ranks) = Loopback::mesh(1);
        assert_wake_contract(&driver, &ranks[0], || ());
    }

    #[test]
    fn loopback_delivers_in_per_edge_fifo_order() {
        let (driver, ranks) = Loopback::mesh(2);
        for u in [1u64, 2, 3] {
            ranks[0]
                .send(
                    2,
                    &Message::Progress {
                        rank: 0,
                        updates: u,
                        staleness: u64::MAX,
                        publish_gap: 0,
                    },
                )
                .unwrap();
        }
        ranks[1].send(2, &Message::Fin { rank: 1 }).unwrap();
        let mut from_zero = Vec::new();
        let mut fin_seen = false;
        for _ in 0..4 {
            let (src, msg) = driver
                .recv_timeout(Duration::from_secs(1))
                .unwrap()
                .expect("message pending");
            match msg {
                Message::Progress { updates, .. } => {
                    assert_eq!(src, 0);
                    from_zero.push(updates);
                }
                Message::Fin { rank } => {
                    assert_eq!((src, rank), (1, 1));
                    fin_seen = true;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(from_zero, vec![1, 2, 3], "per-edge FIFO violated");
        assert!(fin_seen);
    }

    #[test]
    fn recv_timeout_returns_none_when_idle() {
        let (driver, _ranks) = Loopback::mesh(1);
        let got = driver.recv_timeout(Duration::from_millis(10)).unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn an_oversized_message_is_refused_and_the_edge_survives() {
        let (driver, ranks) = Loopback::mesh(1);
        assert_oversized_is_refused(&ranks[0], &driver);
        assert_bad_name_is_refused(&ranks[0], &driver);
    }

    #[test]
    #[should_panic(expected = "no self-edges")]
    fn sending_to_self_is_rejected() {
        let (driver, _ranks) = Loopback::mesh(1);
        let _ = driver.send(1, &Message::Drain);
    }
}
