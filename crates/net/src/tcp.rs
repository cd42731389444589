//! [`Transport`] over real `std::net` TCP sockets on localhost.
//!
//! Topology is a full mesh: every rank holds one stream to the driver and
//! one to each other rank.  The mesh is built with a three-step handshake:
//!
//! 1. every rank binds its own peer listener on `127.0.0.1:0`, connects to
//!    the driver and sends `Hello { rank, port }`;
//! 2. the driver, having accepted one connection per rank, replies to each
//!    with `Peers { ports }` (every rank's listener port, indexed by rank)
//!    and closes its listener;
//! 3. rank `r` connects to every rank `s < r` (identifying itself with
//!    `PeerHello { r }`), accepts a connection from every rank `s > r`,
//!    and closes its listener.
//!
//! After the handshake every stream carries length-prefixed
//! [`crate::wire`] frames.  Each stream is split once, when it connects,
//! into two buffered halves of a fixed size: the reading half serves the
//! handshake and then moves — with whatever it has already buffered —
//! into the stream's one detached reader thread, which decodes frames
//! straight off it into a shared inbox (preserving per-stream order, which
//! is the per-edge FIFO guarantee the quiesce protocol needs); the writing
//! half sits in a per-destination slot that senders lock, so any thread of
//! the endpoint may send, and a frame crosses it without ever being held
//! whole.  The reader threads are the only threads an endpoint runs.
//!
//! ## Failure evidence and a fixed mesh
//!
//! A reader hitting EOF or an I/O error marks its source *down*
//! ([`Transport::peer_down`]) — the hard evidence the failure detector
//! uses to evict without waiting out a heartbeat timeout.  A send to a
//! dead or closed stream fails with [`NetError::PeerGone`], which the
//! comm layer answers by re-injecting the undeliverable tokens locally.
//!
//! A rank that is done calls [`TcpTransport::linger`] before it goes: a
//! socket closed with unread bytes in it is reset, and the reset can
//! discard the rank's last frames — its `Shard` — while the driver is
//! still decoding them off the stream.
//!
//! The mesh is fixed at its handshake: evictions can empty slots, but no
//! rank joins a running TCP mesh.  Mid-run joins (`Message::Join`,
//! [`crate::rank::join_rank`]) run over [`crate::transport::Loopback`].
//!
//! The same handshake serves both deployment shapes: process mode
//! (children re-exec'd by [`crate::process`]) and thread mode (rank
//! threads inside one process, used by tests to exercise the socket path
//! without `fork`).

use std::io::{BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use nomad_core::queue::Inbox;

use crate::transport::{NetError, Transport, Waker};
use crate::wire::{Message, STREAM_BUF_BYTES};

type Reader = BufReader<TcpStream>;
type Writer = BufWriter<TcpStream>;

/// Sets a connected stream up: no Nagle delay, and split into its reading
/// and writing halves, each with the one buffer it keeps for life.
fn halves(stream: TcpStream) -> Result<(Reader, Writer), NetError> {
    stream.set_nodelay(true)?;
    let writer = BufWriter::with_capacity(STREAM_BUF_BYTES, stream.try_clone()?);
    Ok((BufReader::with_capacity(STREAM_BUF_BYTES, stream), writer))
}

/// Shuts a stream down through its writing half, dropping whatever a
/// failed send left in the buffer rather than flushing it.
fn shut(writer: Writer) {
    let _ = writer.into_parts().0.shutdown(Shutdown::Both);
}

/// Endpoint state shared with the detached reader threads.
struct Shared {
    /// Write halves, indexed by endpoint id (`None` for self).  A slot
    /// empties when its stream dies under a send or its peer is closed
    /// after eviction, and never fills again.
    writers: Vec<Mutex<Option<Writer>>>,
    /// Hard down-evidence per endpoint, set by readers on EOF/error and
    /// by failed writes.
    down: Vec<AtomicBool>,
    /// Decoded messages tagged with the source endpoint.
    inbox: Inbox<(usize, Message)>,
}

/// A TCP mesh endpoint (either a rank or the driver).
pub struct TcpTransport {
    id: usize,
    ranks: usize,
    shared: Arc<Shared>,
}

/// Hands the reading half of `src`'s stream — the one the handshake read
/// from, bytes it buffered ahead included — to a reader thread.
fn spawn_reader(src: usize, reader: Reader, shared: Arc<Shared>) {
    std::thread::Builder::new()
        .name(format!("nomad-net-reader-{src}"))
        .spawn(move || {
            let mut reader = reader;
            // Stops on clean EOF or I/O error (the peer is gone) and on a
            // decode failure (the peer is broken); either way the source
            // is marked down so the failure detector has hard evidence.
            while let Ok(Some(msg)) = Message::read_from(&mut reader) {
                shared.inbox.push((src, msg));
            }
            shared.down[src].store(true, Ordering::Release);
            // Wake the receiver so it re-polls promptly and notices the
            // down flag.
            shared.inbox.wake();
        })
        .expect("spawn reader thread");
}

/// Reads exactly one frame (used during the handshake, before the
/// stream's reader thread exists).
fn read_msg(reader: &mut Reader) -> Result<Message, NetError> {
    Message::read_from(reader)?.ok_or(NetError::Closed)
}

/// How long each side of the mesh handshake waits for a counterpart
/// before giving up.  A party that dies mid-handshake (a rank child
/// crashing before it connects, say) must surface as an error here, not
/// as an indefinitely blocked `accept`.
const HANDSHAKE_DEADLINE: Duration = Duration::from_secs(60);

/// How long [`TcpTransport::linger`] waits for the peers to close: only a
/// peer that neither closes nor dies is waited out, and by then it has
/// long read what was sent to it.
const LINGER: Duration = Duration::from_secs(5);

/// Accepts one connection, erroring once `deadline` passes (a plain
/// `TcpListener::accept` has no timeout).  The accepted stream is
/// switched back to blocking mode.  Between polls it naps 50 µs, doubling
/// to at most 5 ms: a freshly spawned rank usually connects within a
/// millisecond or two, and a flat 5 ms nap made every one of them wait
/// out the rest of it.
fn accept_with_deadline(
    listener: &TcpListener,
    deadline: std::time::Instant,
    waiting_for: &str,
) -> Result<TcpStream, NetError> {
    listener.set_nonblocking(true)?;
    let mut nap = Duration::from_micros(50);
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                // Handshake reads are also bounded, so a party that
                // connects and then goes silent cannot wedge us either.
                stream.set_read_timeout(Some(HANDSHAKE_DEADLINE))?;
                return Ok(stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if std::time::Instant::now() >= deadline {
                    return Err(NetError::Protocol(format!(
                        "handshake deadline: still waiting for {waiting_for}"
                    )));
                }
                std::thread::sleep(nap);
                nap = (nap * 2).min(Duration::from_millis(5));
            }
            Err(e) => return Err(e.into()),
        }
    }
}

impl TcpTransport {
    /// Driver side of the handshake: accept one connection per rank of a
    /// `ranks`-rank mesh on `listener`, collect each rank's `Hello`,
    /// broadcast `Peers`, and close the listener.
    ///
    /// # Errors
    /// Fails on socket errors, on the handshake deadline (a rank that
    /// never connects — e.g. a crashed child process), or if a connecting
    /// party violates the handshake (wrong first message, duplicate or
    /// out-of-range rank).
    pub fn accept_ranks(listener: TcpListener, ranks: usize) -> Result<TcpTransport, NetError> {
        assert!(ranks > 0, "need at least one rank");
        let deadline = std::time::Instant::now() + HANDSHAKE_DEADLINE;
        // One slot per rank, plus the driver's own (empty) one.
        let mut streams: Vec<Option<(Reader, Writer)>> = (0..=ranks).map(|_| None).collect();
        let mut ports = vec![0u16; ranks];
        for already in 0..ranks {
            let (mut reader, writer) = halves(accept_with_deadline(
                &listener,
                deadline,
                &format!("rank hello {already}/{ranks}"),
            )?)?;
            match read_msg(&mut reader)? {
                Message::Hello { rank, port } => {
                    let r = rank as usize;
                    if r >= ranks {
                        return Err(NetError::Protocol(format!("rank {r} out of range")));
                    }
                    if streams[r].is_some() {
                        return Err(NetError::Protocol(format!("duplicate hello from rank {r}")));
                    }
                    ports[r] = port;
                    streams[r] = Some((reader, writer));
                }
                other => return Err(NetError::Protocol(format!("expected Hello, got {other:?}"))),
            }
        }
        drop(listener);
        let peers = Message::Peers { ports };
        for (_, writer) in streams.iter_mut().flatten() {
            peers.write_to(writer)?;
        }
        Self::start(ranks, streams)
    }

    /// Rank side of the handshake: connect to the driver at
    /// `driver_addr`, announce our peer listener, then wire up the mesh
    /// from the driver's `Peers` reply and close the listener.
    ///
    /// # Errors
    /// Fails on socket errors, on the handshake deadline, or on a
    /// handshake protocol violation.
    pub fn connect_rank(driver_addr: &SocketAddr, rank: usize) -> Result<TcpTransport, NetError> {
        let deadline = std::time::Instant::now() + HANDSHAKE_DEADLINE;
        let own_listener = TcpListener::bind(("127.0.0.1", 0))?;
        let own_port = own_listener.local_addr()?.port();
        let driver = TcpStream::connect(driver_addr)?;
        driver.set_read_timeout(Some(HANDSHAKE_DEADLINE))?;
        let (mut driver_reader, mut driver_writer) = halves(driver)?;
        let hello = Message::Hello {
            rank: rank as u32,
            port: own_port,
        };
        hello.write_to(&mut driver_writer)?;
        let ports = match read_msg(&mut driver_reader)? {
            Message::Peers { ports } => ports,
            other => return Err(NetError::Protocol(format!("expected Peers, got {other:?}"))),
        };
        let capacity = ports.len();
        if rank >= capacity {
            return Err(NetError::Protocol(format!(
                "rank {rank} not in a {capacity}-slot mesh"
            )));
        }

        let mut streams: Vec<Option<(Reader, Writer)>> = (0..=capacity).map(|_| None).collect();
        // Dial every rank below us.
        for (s, &port) in ports[..rank].iter().enumerate() {
            let (reader, mut writer) = halves(TcpStream::connect(("127.0.0.1", port))?)?;
            Message::PeerHello { rank: rank as u32 }.write_to(&mut writer)?;
            streams[s] = Some((reader, writer));
        }
        // Accept from every rank above us.
        let expected = capacity - rank - 1;
        for upward in 0..expected {
            let (mut reader, writer) = halves(accept_with_deadline(
                &own_listener,
                deadline,
                &format!("peer hello (expecting rank > {rank}, {upward}/{expected})"),
            )?)?;
            match read_msg(&mut reader)? {
                Message::PeerHello { rank: s } => {
                    let s = s as usize;
                    if s <= rank || s >= capacity {
                        return Err(NetError::Protocol(format!(
                            "unexpected peer hello from rank {s}"
                        )));
                    }
                    if streams[s].is_some() {
                        return Err(NetError::Protocol(format!("duplicate peer {s}")));
                    }
                    streams[s] = Some((reader, writer));
                }
                other => {
                    return Err(NetError::Protocol(format!(
                        "expected PeerHello, got {other:?}"
                    )))
                }
            }
        }
        drop(own_listener);
        streams[capacity] = Some((driver_reader, driver_writer));
        Self::start(rank, streams)
    }

    /// Builds a whole `ranks`-rank mesh inside this process: each rank's
    /// side of the handshake on a thread of its own, the driver's on the
    /// caller's.  Returns `(driver, rank_endpoints)`, as
    /// [`crate::Loopback::mesh`] does.
    ///
    /// # Errors
    /// Fails as [`Self::accept_ranks`] and [`Self::connect_rank`] do.
    pub fn mesh(ranks: usize) -> Result<(TcpTransport, Vec<TcpTransport>), NetError> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..ranks)
                .map(|r| scope.spawn(move || Self::connect_rank(&addr, r)))
                .collect();
            let driver = Self::accept_ranks(listener, ranks);
            let endpoints: Result<Vec<_>, _> = handles
                .into_iter()
                .map(|h| h.join().expect("rank handshake panicked"))
                .collect();
            Ok((driver?, endpoints?))
        })
    }

    /// Ends the handshake of endpoint `id`: `streams` holds one stream per
    /// endpoint id (`None` for `id` itself).  Steady-state reads block
    /// until EOF, each writing half goes into its slot, and each reading
    /// half moves into its reader thread.
    fn start(id: usize, streams: Vec<Option<(Reader, Writer)>>) -> Result<TcpTransport, NetError> {
        let mut readers = Vec::with_capacity(streams.len());
        let mut writers = Vec::with_capacity(streams.len());
        for (s, stream) in streams.into_iter().enumerate() {
            let writer = match stream {
                Some((reader, writer)) => {
                    reader.get_ref().set_read_timeout(None)?;
                    readers.push((s, reader));
                    Some(writer)
                }
                None => None,
            };
            writers.push(Mutex::new(writer));
        }
        let shared = Arc::new(Shared {
            down: writers.iter().map(|_| AtomicBool::new(false)).collect(),
            writers,
            inbox: Inbox::new(),
        });
        for (s, reader) in readers {
            spawn_reader(s, reader, Arc::clone(&shared));
        }
        Ok(TcpTransport {
            id,
            ranks: shared.writers.len() - 1,
            shared,
        })
    }
}

impl Transport for TcpTransport {
    fn id(&self) -> usize {
        self.id
    }

    fn ranks(&self) -> usize {
        self.ranks
    }

    fn send(&self, dest: usize, msg: &Message) -> Result<usize, NetError> {
        assert!(dest <= self.ranks, "destination {dest} out of mesh");
        assert_ne!(dest, self.id, "no self-edges in the mesh");
        let mut slot = self.shared.writers[dest].lock().expect("writer poisoned");
        let Some(writer) = slot.as_mut() else {
            return Err(NetError::PeerGone(dest));
        };
        match msg.write_to(writer) {
            Ok(n) => Ok(n),
            Err(NetError::Io(_)) => {
                // The stream died under us: hard evidence for the failure
                // detector, and the slot empties so later sends fail fast.
                if let Some(writer) = slot.take() {
                    shut(writer);
                }
                self.shared.down[dest].store(true, Ordering::Release);
                Err(NetError::PeerGone(dest))
            }
            // Refused before a byte was written: the edge is fine.
            Err(e) => Err(e),
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<(usize, Message)>, NetError> {
        Ok(self.shared.inbox.pop_timeout(timeout))
    }

    fn waker(&self) -> Waker {
        let shared = Arc::clone(&self.shared);
        Waker::new(move || shared.inbox.wake())
    }

    fn peer_down(&self, peer: usize) -> bool {
        peer < self.shared.down.len() && self.shared.down[peer].load(Ordering::Acquire)
    }

    fn close_peer(&self, peer: usize) {
        if peer >= self.shared.writers.len() {
            return;
        }
        let writer = self.shared.writers[peer]
            .lock()
            .expect("writer poisoned")
            .take();
        if let Some(writer) = writer {
            shut(writer);
        }
    }

    /// Ends a rank's part in the mesh without resetting a stream: each one
    /// is half-closed — the peer reads everything sent, then end of
    /// stream — and the reader threads go on draining until every peer has
    /// closed its side as well, or five seconds have passed.  A socket closed
    /// with bytes still unread in it (a late query, a ping) is reset, and
    /// the reset can discard this side's last frames, such as the rank's
    /// `Shard`, before the peer has read them.  The driver closes its side
    /// once it has gathered, so a rank calls this when it is done.
    fn linger(&self) {
        let open: Vec<usize> = (0..self.shared.writers.len())
            .filter(|&peer| {
                let slot = self.shared.writers[peer].lock().expect("writer poisoned");
                slot.as_ref()
                    .is_some_and(|w| w.get_ref().shutdown(Shutdown::Write).is_ok())
            })
            .collect();
        let deadline = std::time::Instant::now() + LINGER;
        while open.iter().any(|&peer| !self.peer_down(peer)) {
            let Some(left) = deadline.checked_duration_since(std::time::Instant::now()) else {
                break;
            };
            // Every reader wakes the inbox as it ends; whatever still
            // arrives is dropped.
            self.shared.inbox.pop_timeout(left);
        }
    }

    /// Shuts every stream of this endpoint down: each peer reads what was
    /// sent, then end of stream, and marks this endpoint down.
    fn close(&self) {
        for writer in &self.shared.writers {
            if let Ok(mut slot) = writer.lock() {
                if let Some(writer) = slot.take() {
                    shut(writer);
                }
            }
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // The detached reader threads see EOF and exit instead of blocking
        // forever on a half-open stream.
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handshake_builds_a_full_mesh_and_routes_messages() {
        let (driver, ranks) = TcpTransport::mesh(3).unwrap();
        // Driver → every rank.
        for (r, _) in ranks.iter().enumerate() {
            driver.send(r, &Message::Drain).unwrap();
        }
        for endpoint in &ranks {
            let (src, msg) = endpoint
                .recv_timeout(Duration::from_secs(5))
                .unwrap()
                .expect("drain pending");
            assert_eq!(src, 3, "driver is endpoint `ranks`");
            assert_eq!(msg, Message::Drain);
        }
        // Rank → rank across the mesh, both directions.
        ranks[0].send(2, &Message::Fin { rank: 0 }).unwrap();
        ranks[2].send(0, &Message::Fin { rank: 2 }).unwrap();
        let (src, msg) = ranks[2]
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .unwrap();
        assert_eq!((src, msg), (0, Message::Fin { rank: 0 }));
        let (src, msg) = ranks[0]
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .unwrap();
        assert_eq!((src, msg), (2, Message::Fin { rank: 2 }));
        // Rank → driver.
        ranks[1]
            .send(
                3,
                &Message::Progress {
                    rank: 1,
                    updates: 7,
                    staleness: u64::MAX,
                    publish_gap: 0,
                },
            )
            .unwrap();
        let (src, msg) = driver
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .unwrap();
        assert_eq!(
            (src, msg),
            (
                1,
                Message::Progress {
                    rank: 1,
                    updates: 7,
                    staleness: u64::MAX,
                    publish_gap: 0,
                }
            )
        );
    }

    #[test]
    fn streams_preserve_per_edge_fifo_order() {
        let (driver, ranks) = TcpTransport::mesh(1).unwrap();
        for u in 0..100u64 {
            ranks[0]
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
        for expect in 0..100u64 {
            let (_, msg) = driver
                .recv_timeout(Duration::from_secs(5))
                .unwrap()
                .expect("message pending");
            assert_eq!(
                msg,
                Message::Progress {
                    rank: 0,
                    updates: expect,
                    staleness: u64::MAX,
                    publish_gap: 0,
                }
            );
        }
    }

    #[test]
    fn an_oversized_message_is_refused_and_the_writer_survives() {
        let (driver, ranks) = TcpTransport::mesh(1).unwrap();
        // Not taken for a dead stream: the writer slot outlives the refusal
        // (the follow-up send is delivered) and no down-evidence is raised.
        crate::transport::tests::assert_oversized_is_refused(&ranks[0], &driver);
        assert!(!ranks[0].peer_down(1));
    }

    #[test]
    fn a_refused_metric_name_writes_nothing_and_the_edge_survives() {
        let (driver, ranks) = TcpTransport::mesh(1).unwrap();
        // Had any byte of the refused frame reached the buffer, the `Fin`
        // behind it would arrive garbled and the driver's reader would
        // mark the edge down.
        crate::transport::tests::assert_bad_name_is_refused(&ranks[0], &driver);
        assert!(!ranks[0].peer_down(1));
        assert!(!driver.peer_down(0));
    }

    #[test]
    fn a_frame_sent_with_the_hello_reaches_the_inbox() {
        use std::io::Write;
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let rank = std::thread::spawn(move || {
            // One write: the driver's handshake read buffers the Ping
            // along with the Hello, and must hand both to the reader.
            let mut bytes = Vec::new();
            Message::Hello { rank: 0, port: 9 }
                .write_to(&mut bytes)
                .unwrap();
            Message::Ping { rank: 0 }.write_to(&mut bytes).unwrap();
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(&bytes).unwrap();
            let peers = Message::read_from(&mut BufReader::new(&stream)).unwrap();
            assert_eq!(peers, Some(Message::Peers { ports: vec![9] }));
            stream
        });
        let driver = TcpTransport::accept_ranks(listener, 1).unwrap();
        let got = driver.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got, Some((0, Message::Ping { rank: 0 })));
        drop(rank.join().unwrap());
    }

    #[test]
    fn a_rank_that_lingers_delivers_its_last_frame() {
        use crate::wire::{ShardTransferPayload, WireCols};
        // The driver keeps sending while the rank closes right after a
        // 6 MB frame: a close with bytes unread resets the stream, which
        // can discard the frame's tail.  Five tries, since an unguarded
        // close loses the frame only most of the time.
        for _ in 0..5 {
            let (driver, mut ranks) = TcpTransport::mesh(1).unwrap();
            let rank = ranks.pop().unwrap();
            let last = Message::ShardTransfer(Box::new(ShardTransferPayload {
                row_start: 0,
                k: 1,
                rows: vec![0.5; 750_000],
                cols: WireCols::default(),
            }));
            let stop = AtomicBool::new(false);
            std::thread::scope(|s| {
                s.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        let _ = driver.send(0, &Message::Ping { rank: 1 });
                        std::thread::yield_now();
                    }
                });
                s.spawn(move || {
                    rank.send(1, &last).unwrap();
                    rank.linger();
                });
                let got = loop {
                    match driver.recv_timeout(Duration::from_secs(5)).unwrap() {
                        Some((_, Message::Ping { .. })) => continue,
                        other => break other,
                    }
                };
                stop.store(true, Ordering::Relaxed);
                assert!(
                    matches!(&got, Some((0, Message::ShardTransfer(p))) if p.rows.len() == 750_000),
                    "the last frame was lost: {got:?}"
                );
                driver.close_peer(0);
            });
        }
    }

    #[test]
    fn tcp_honours_the_wake_contract() {
        let (driver, ranks) = TcpTransport::mesh(1).unwrap();
        // A frame is in the inbox once the reader thread has queued it.
        crate::transport::tests::assert_wake_contract(&driver, &ranks[0], || {
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while driver.shared.inbox.is_empty() {
                assert!(std::time::Instant::now() < deadline, "frame never arrived");
                std::thread::yield_now();
            }
        });
    }

    #[test]
    fn a_dropped_peer_surfaces_as_down_and_peer_gone() {
        let (driver, mut ranks) = TcpTransport::mesh(2).unwrap();
        let dead = ranks.remove(1);
        drop(dead); // rank 1's sockets close → EOF everywhere
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !driver.peer_down(1) {
            assert!(
                std::time::Instant::now() < deadline,
                "driver never saw rank 1's EOF"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        // A send to the corpse fails with PeerGone (possibly after one
        // buffered success while the kernel drains).
        let mut gone = false;
        for _ in 0..200 {
            match driver.send(1, &Message::Drain) {
                Err(NetError::PeerGone(1)) => {
                    gone = true;
                    break;
                }
                Ok(_) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(gone, "sends to a dead peer must fail with PeerGone");
        // The surviving rank also noticed.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !ranks[0].peer_down(1) {
            assert!(
                std::time::Instant::now() < deadline,
                "rank 0 never saw rank 1's EOF"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn a_connection_after_the_handshake_is_refused() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let rank = std::thread::spawn(move || TcpTransport::connect_rank(&addr, 0).unwrap());
        let driver = TcpTransport::accept_ranks(listener, 1).unwrap();
        let rank = rank.join().unwrap();
        // The mesh is fixed at its handshake: nobody listens any more.
        assert!(
            TcpStream::connect(addr).is_err(),
            "the driver still accepts connections after its handshake"
        );
        drop((driver, rank));
    }
}
