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

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

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
    /// `timeout`.  `Ok(None)` means the timeout elapsed with nothing to
    /// deliver.
    ///
    /// # Errors
    /// Fails if the mesh is closed or a received frame fails to decode.
    fn recv_timeout(&self, timeout: Duration) -> Result<Option<(usize, Message)>, NetError>;

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

/// A mailbox shared by every endpoint of a loopback mesh: encoded frames
/// tagged with their sender, plus a condvar so receivers can block.
struct Mailbox {
    queue: Mutex<VecDeque<(usize, Vec<u8>)>>,
    ready: Condvar,
}

impl Mailbox {
    fn new() -> Self {
        Self {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        }
    }
}

/// In-memory transport: the whole mesh lives in one process and messages
/// hop between endpoints as encoded byte frames.
///
/// Per-edge FIFO holds because each mailbox is a single queue protected by
/// one mutex: two sends from the same sender are pushed in program order.
pub struct Loopback {
    id: usize,
    ranks: usize,
    boxes: Arc<Vec<Mailbox>>,
}

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
        let boxes: Arc<Vec<Mailbox>> = Arc::new((0..=ranks).map(|_| Mailbox::new()).collect());
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
        let bytes = msg.encode_frame()?;
        let len = bytes.len();
        let mailbox = &self.boxes[dest];
        let mut queue = mailbox.queue.lock().expect("mailbox poisoned");
        queue.push_back((self.id, bytes));
        drop(queue);
        mailbox.ready.notify_one();
        Ok(len)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<(usize, Message)>, NetError> {
        let mailbox = &self.boxes[self.id];
        let mut queue = mailbox.queue.lock().expect("mailbox poisoned");
        if queue.is_empty() {
            let (guard, _) = mailbox
                .ready
                .wait_timeout(queue, timeout)
                .expect("mailbox poisoned");
            queue = guard;
        }
        match queue.pop_front() {
            Some((src, bytes)) => {
                drop(queue);
                Ok(Some((src, Message::decode(&bytes)?)))
            }
            None => Ok(None),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::wire::{ShardTransferPayload, MAX_FRAME_LEN};

    /// Sends `to` a shard transfer whose factor rows alone fill a whole
    /// frame: refused as a wire error, and the next send on the same edge
    /// is delivered.  Shared with the TCP transport's tests.
    pub(crate) fn assert_oversized_is_refused(from: &impl Transport, to: &impl Transport) {
        let too_big = Message::ShardTransfer(Box::new(ShardTransferPayload {
            row_start: 0,
            k: 1,
            rows: vec![0.0; (MAX_FRAME_LEN / 8) as usize],
            entries: Vec::new(),
        }));
        let sent = from.send(to.id(), &too_big);
        assert!(
            matches!(sent, Err(NetError::Wire(WireError::BadLength(n))) if n > MAX_FRAME_LEN as u64),
            "got {sent:?}"
        );
        from.send(to.id(), &Message::Fin { rank: 0 }).unwrap();
        let next = to.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(next, Some((from.id(), Message::Fin { rank: 0 })));
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
    }

    #[test]
    #[should_panic(expected = "no self-edges")]
    fn sending_to_self_is_rejected() {
        let (driver, _ranks) = Loopback::mesh(1);
        let _ = driver.send(1, &Message::Drain);
    }
}
