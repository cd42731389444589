//! [`Transport`] over real `std::net` TCP sockets on localhost.
//!
//! Topology is a full mesh: every rank holds one stream to the driver and
//! one to each other rank.  The mesh is built with a three-step handshake:
//!
//! 1. every rank binds its own peer listener on `127.0.0.1:0`, connects to
//!    the driver and sends `Hello { rank, port }`;
//! 2. the driver, having accepted the initial connections, replies to each
//!    with `Peers { ports }` (every rank's listener port, indexed by mesh
//!    slot; `0` marks a slot nobody occupies yet);
//! 3. rank `r` connects to every occupied slot `s < r` (identifying
//!    itself with `PeerHello { r }`) and accepts a connection from every
//!    occupied slot `s > r`.
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
//! whole.
//!
//! ## Failure evidence and elastic membership
//!
//! A reader hitting EOF or an I/O error marks its source *down*
//! ([`Transport::peer_down`]) — the hard evidence the failure detector
//! uses to evict without waiting out a heartbeat timeout.  A send to a
//! dead or absent stream fails with [`NetError::PeerGone`], which the
//! comm layer answers by re-injecting the undeliverable tokens locally.
//!
//! A rank that is done calls [`TcpTransport::linger`] before it goes: a
//! socket closed with unread bytes in it is reset, and the reset can
//! discard the rank's last frames — its `Shard` — while the driver is
//! still decoding them off the stream.
//!
//! Both the driver and every rank keep their listeners open for the whole
//! run on a detached acceptor thread:
//!
//! * the **driver acceptor** re-runs the `Hello` handshake for a rank
//!   joining mid-run — registers the newcomer's stream, replies with the
//!   current `Peers` table, and surfaces a synthetic [`Message::Join`] in
//!   the driver's inbox so `run_driver` admits it like a loopback join;
//! * each **rank acceptor** accepts a `PeerHello` from any later joiner
//!   and wires the new edge into the mesh.
//!
//! A joiner uses [`TcpTransport::connect_joiner`] and then runs the
//! normal rank loop ([`crate::rank::run_rank`]) — its `Hello` *is* the
//! join request, so it must not send another `Join`.
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

/// Endpoint state shared with the detached reader/acceptor threads.
struct Shared {
    /// Write halves, indexed by endpoint id (`None` for self and for
    /// slots not yet connected).  Slots fill in dynamically as joiners
    /// arrive, and empty out when a peer is closed after eviction.
    writers: Vec<Mutex<Option<Writer>>>,
    /// Hard down-evidence per endpoint, set by readers on EOF/error and
    /// by failed writes.
    down: Vec<AtomicBool>,
    /// Known peer-listener ports by mesh slot (driver only; `0` = empty).
    ports: Mutex<Vec<u16>>,
    /// Decoded messages tagged with the source endpoint.
    inbox: Inbox<(usize, Message)>,
    /// Tells the acceptor thread to exit (set on drop).
    stop: AtomicBool,
}

impl Shared {
    fn new(capacity: usize) -> Self {
        Self {
            writers: (0..=capacity).map(|_| Mutex::new(None)).collect(),
            down: (0..=capacity).map(|_| AtomicBool::new(false)).collect(),
            ports: Mutex::new(vec![0; capacity]),
            inbox: Inbox::new(),
            stop: AtomicBool::new(false),
        }
    }

    fn install(&self, src: usize, writer: Writer) {
        *self.writers[src].lock().expect("writer poisoned") = Some(writer);
        self.down[src].store(false, Ordering::Release);
    }
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

/// Runs a persistent acceptor: polls `listener` until the endpoint is
/// dropped, handing each accepted stream to `admit`.
fn spawn_acceptor<F>(name: String, listener: TcpListener, shared: Arc<Shared>, admit: F)
where
    F: Fn(TcpStream, &Shared) + Send + 'static,
{
    std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            if listener.set_nonblocking(true).is_err() {
                return;
            }
            while !shared.stop.load(Ordering::Acquire) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let ok = stream.set_nonblocking(false).is_ok()
                            && stream.set_read_timeout(Some(HANDSHAKE_DEADLINE)).is_ok();
                        if ok {
                            admit(stream, &shared);
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Err(_) => return,
                }
            }
        })
        .expect("spawn acceptor thread");
}

impl TcpTransport {
    /// Driver side of the handshake: accept `initial` connections on
    /// `listener` for a mesh of `capacity` slots, collect each rank's
    /// `Hello`, broadcast `Peers`, then keep accepting joiners for the
    /// rest of the run.
    ///
    /// # Errors
    /// Fails on socket errors, on the handshake deadline (a rank that
    /// never connects — e.g. a crashed child process), or if a connecting
    /// party violates the handshake (wrong first message, duplicate or
    /// out-of-range rank).
    pub fn accept_ranks_elastic(
        listener: TcpListener,
        capacity: usize,
        initial: usize,
    ) -> Result<TcpTransport, NetError> {
        assert!(capacity > 0, "need at least one rank");
        assert!(
            initial >= 1 && initial <= capacity,
            "bad initial rank count"
        );
        let deadline = std::time::Instant::now() + HANDSHAKE_DEADLINE;
        let mut streams: Vec<Option<(Reader, Writer)>> = (0..capacity).map(|_| None).collect();
        let mut ports = vec![0u16; capacity];
        for already in 0..initial {
            let (mut reader, writer) = halves(accept_with_deadline(
                &listener,
                deadline,
                &format!("rank hello {already}/{initial}"),
            )?)?;
            match read_msg(&mut reader)? {
                Message::Hello { rank, port } => {
                    let r = rank as usize;
                    if r >= initial {
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
        let peers = Message::Peers {
            ports: ports.clone(),
        };
        for (_, writer) in streams.iter_mut().flatten() {
            peers.write_to(writer)?;
        }
        let shared = Arc::new(Shared::new(capacity));
        *shared.ports.lock().expect("ports poisoned") = ports;
        for (r, stream) in streams.into_iter().enumerate() {
            let Some((reader, writer)) = stream else {
                continue;
            };
            // Steady-state reads block indefinitely (EOF signals a dead
            // peer); only the handshake was deadline-bounded.
            reader.get_ref().set_read_timeout(None)?;
            shared.install(r, writer);
            spawn_reader(r, reader, Arc::clone(&shared));
        }
        // Keep the door open: later Hellos are mid-run joins.
        {
            let shared = Arc::clone(&shared);
            spawn_acceptor(
                "nomad-net-driver-acceptor".into(),
                listener,
                Arc::clone(&shared),
                move |stream, sh| {
                    let Ok((mut reader, mut writer)) = halves(stream) else {
                        return;
                    };
                    let Ok(Message::Hello { rank, port }) = read_msg(&mut reader) else {
                        return;
                    };
                    let r = rank as usize;
                    if r >= sh.writers.len() - 1 {
                        return;
                    }
                    {
                        let mut slot = sh.writers[r].lock().expect("writer poisoned");
                        if slot.is_some() {
                            return; // occupied slot; drop the impostor
                        }
                        let ports = {
                            let mut ports = sh.ports.lock().expect("ports poisoned");
                            ports[r] = port;
                            ports.clone()
                        };
                        if (Message::Peers { ports }).write_to(&mut writer).is_err()
                            || reader.get_ref().set_read_timeout(None).is_err()
                        {
                            return;
                        }
                        *slot = Some(writer);
                        sh.down[r].store(false, Ordering::Release);
                    }
                    spawn_reader(r, reader, Arc::clone(&shared));
                    // Writer registered: the driver's Setup reply to this
                    // synthetic Join will find the stream.
                    sh.inbox.push((r, Message::Join { rank }));
                },
            );
        }
        Ok(TcpTransport {
            id: capacity,
            ranks: capacity,
            shared,
        })
    }

    /// Driver side of the handshake with every mesh slot active from the
    /// start (the pre-elastic shape).
    ///
    /// # Errors
    /// See [`TcpTransport::accept_ranks_elastic`].
    pub fn accept_ranks(listener: TcpListener, ranks: usize) -> Result<TcpTransport, NetError> {
        Self::accept_ranks_elastic(listener, ranks, ranks)
    }

    /// Rank side of the handshake: connect to the driver at
    /// `driver_addr`, announce our peer listener, then wire up the mesh
    /// from the driver's `Peers` reply.  Used both by initial ranks and
    /// by mid-run joiners ([`TcpTransport::connect_joiner`] is this plus
    /// the join semantics documented there).
    ///
    /// # Errors
    /// Fails on socket errors, on the handshake deadline, or on a
    /// handshake protocol violation.
    pub fn connect_rank(driver_addr: &SocketAddr, rank: usize) -> Result<TcpTransport, NetError> {
        Self::connect_inner(driver_addr, rank, false)
    }

    /// Joins a *running* mesh as `rank`: the driver's acceptor registers
    /// this connection, replies with the current `Peers` table, and
    /// surfaces the `Hello` to `run_driver` as a [`Message::Join`] — so
    /// the caller must follow with [`crate::rank::run_rank`] (NOT
    /// `join_rank`; the join request has already been made).
    ///
    /// # Errors
    /// Fails on socket errors or a handshake protocol violation.
    pub fn connect_joiner(driver_addr: &SocketAddr, rank: usize) -> Result<TcpTransport, NetError> {
        Self::connect_inner(driver_addr, rank, true)
    }

    fn connect_inner(
        driver_addr: &SocketAddr,
        rank: usize,
        joining: bool,
    ) -> Result<TcpTransport, NetError> {
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

        let mut peer_streams: Vec<Option<(Reader, Writer)>> = (0..capacity).map(|_| None).collect();
        // Dial every occupied slot below us (a joiner dials everyone it
        // knows about — all occupied slots but itself).
        for (s, &port) in ports.iter().enumerate() {
            let dial = port != 0 && s != rank && (joining || s < rank);
            if !dial {
                continue;
            }
            let (reader, mut writer) = halves(TcpStream::connect(("127.0.0.1", port))?)?;
            Message::PeerHello { rank: rank as u32 }.write_to(&mut writer)?;
            peer_streams[s] = Some((reader, writer));
        }
        // Accept from every occupied slot above us (initial handshake
        // only: a joiner's later peers arrive via the acceptor thread).
        if !joining {
            let expected = ports
                .iter()
                .enumerate()
                .filter(|&(s, &p)| s > rank && p != 0)
                .count();
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
                        if peer_streams[s].is_some() {
                            return Err(NetError::Protocol(format!("duplicate peer {s}")));
                        }
                        peer_streams[s] = Some((reader, writer));
                    }
                    other => {
                        return Err(NetError::Protocol(format!(
                            "expected PeerHello, got {other:?}"
                        )))
                    }
                }
            }
        }

        let shared = Arc::new(Shared::new(capacity));
        for (s, stream) in peer_streams.into_iter().enumerate() {
            let Some((reader, writer)) = stream else {
                continue;
            };
            // Handshake over: steady-state reads block until EOF.
            reader.get_ref().set_read_timeout(None)?;
            shared.install(s, writer);
            spawn_reader(s, reader, Arc::clone(&shared));
        }
        driver_reader.get_ref().set_read_timeout(None)?;
        shared.install(capacity, driver_writer);
        spawn_reader(capacity, driver_reader, Arc::clone(&shared));
        // Keep our own door open for ranks that join after us.
        {
            let shared_for_admit = Arc::clone(&shared);
            spawn_acceptor(
                format!("nomad-net-rank-{rank}-acceptor"),
                own_listener,
                Arc::clone(&shared),
                move |stream, sh| {
                    let Ok((mut reader, writer)) = halves(stream) else {
                        return;
                    };
                    let Ok(Message::PeerHello { rank: s }) = read_msg(&mut reader) else {
                        return;
                    };
                    let s = s as usize;
                    if s >= sh.writers.len() - 1 || s == rank {
                        return;
                    }
                    {
                        let mut slot = sh.writers[s].lock().expect("writer poisoned");
                        if slot.is_some() {
                            return;
                        }
                        if reader.get_ref().set_read_timeout(None).is_err() {
                            return;
                        }
                        *slot = Some(writer);
                        sh.down[s].store(false, Ordering::Release);
                    }
                    spawn_reader(s, reader, Arc::clone(&shared_for_admit));
                },
            );
        }
        Ok(TcpTransport {
            id: rank,
            ranks: capacity,
            shared,
        })
    }

    /// Ends a rank's part in the mesh without resetting a stream: each one
    /// is half-closed — the peer reads everything sent, then end of
    /// stream — and the reader threads go on draining until every peer has
    /// closed its side as well, or five seconds have passed.  A socket closed
    /// with bytes still unread in it (a late query, a ping) is reset, and
    /// the reset can discard this side's last frames, such as the rank's
    /// `Shard`, before the peer has read them.  The driver closes its side
    /// once it has gathered, so a rank calls this when it is done.
    pub fn linger(&self) {
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
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // Stop the acceptor and shut the sockets down so the detached
        // reader threads see EOF and exit instead of blocking forever on
        // a half-open stream.
        self.shared.stop.store(true, Ordering::Release);
        for writer in &self.shared.writers {
            if let Ok(mut slot) = writer.lock() {
                if let Some(writer) = slot.take() {
                    shut(writer);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a full in-process TCP mesh: the driver on the caller thread,
    /// every rank endpoint created on its own thread, then all endpoints
    /// returned for the test body to script.
    fn tcp_mesh(ranks: usize) -> (TcpTransport, Vec<TcpTransport>) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let handles: Vec<_> = (0..ranks)
            .map(|r| std::thread::spawn(move || TcpTransport::connect_rank(&addr, r).unwrap()))
            .collect();
        let driver = TcpTransport::accept_ranks(listener, ranks).unwrap();
        let endpoints = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (driver, endpoints)
    }

    #[test]
    fn handshake_builds_a_full_mesh_and_routes_messages() {
        let (driver, ranks) = tcp_mesh(3);
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
        let (driver, ranks) = tcp_mesh(1);
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
        let (driver, ranks) = tcp_mesh(1);
        // Not taken for a dead stream: the writer slot outlives the refusal
        // (the follow-up send is delivered) and no down-evidence is raised.
        crate::transport::tests::assert_oversized_is_refused(&ranks[0], &driver);
        assert!(!ranks[0].peer_down(1));
    }

    #[test]
    fn a_refused_metric_name_writes_nothing_and_the_edge_survives() {
        let (driver, ranks) = tcp_mesh(1);
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
            let (driver, mut ranks) = tcp_mesh(1);
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
        let (driver, ranks) = tcp_mesh(1);
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
        let (driver, mut ranks) = tcp_mesh(2);
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
    fn a_joiner_is_wired_into_a_running_mesh() {
        // Capacity-2 mesh that starts with only rank 0.
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let rank0 = std::thread::spawn(move || TcpTransport::connect_rank(&addr, 0).unwrap());
        let driver = TcpTransport::accept_ranks_elastic(listener, 2, 1).unwrap();
        let rank0 = rank0.join().unwrap();
        assert_eq!(driver.ranks(), 2);
        assert!(
            matches!(driver.send(1, &Message::Drain), Err(NetError::PeerGone(1))),
            "empty slot must report PeerGone"
        );

        // Rank 1 joins mid-run: its Hello surfaces as a synthetic Join.
        let joiner = TcpTransport::connect_joiner(&addr, 1).unwrap();
        let (src, msg) = driver
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .expect("join pending");
        assert_eq!((src, msg), (1, Message::Join { rank: 1 }));

        // Driver → joiner (the Setup path), joiner ↔ rank 0 (token paths).
        driver.send(1, &Message::Drain).unwrap();
        let (src, msg) = joiner
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .expect("driver reaches the joiner");
        assert_eq!((src, msg), (2, Message::Drain));
        joiner.send(0, &Message::Fin { rank: 1 }).unwrap();
        let (src, msg) = rank0
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .expect("joiner reaches rank 0");
        assert_eq!((src, msg), (1, Message::Fin { rank: 1 }));
        // Rank 0 → joiner uses the edge the joiner dialed.
        rank0.send(1, &Message::Fin { rank: 0 }).unwrap();
        let (src, msg) = joiner
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .expect("rank 0 reaches the joiner");
        assert_eq!((src, msg), (0, Message::Fin { rank: 0 }));
    }
}
