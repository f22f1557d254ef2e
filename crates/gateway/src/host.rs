//! The connection host: one appliance panel served to many real TCP
//! clients from one thread.
//!
//! ```text
//!   listener, conn 0..N ──► poll(2) ──┬─► accept ──► SessionHost::open
//!                                     ├─► read ──► FrameReader ──► SessionHost::receive
//!                                     └─► write ◄── pending bytes ◄── Output::Send
//!                                          (replies and pump shares)
//! ```
//!
//! The `gw-state` thread owns the listener, every non-blocking socket,
//! the [`Ui`] and a [`SessionHost`]: no socket threads, locks or
//! channels, so protocol handling stays strictly serialized. This
//! module keeps only the I/O: the sockets, their frame readers, the
//! fairness rule, the pending bytes and the flight-recorder tap. The
//! sessions (naming, adoption, displacement, expiry, and which
//! connection each share of a pump goes to) are the sans-I/O
//! [`SessionHost`] in `uniint_core::host`, whose docs describe session
//! adoption. The loop hands it each decoded message and each socket it
//! closed, stamped with the microseconds since the gateway started, and
//! carries out what it returns.
//!
//! Each pass waits in one `poll(2)` on every socket, moves the bytes
//! that are ready, handles whole frames, then ticks the host, which
//! pumps. One read takes at most 16 KiB, and at most one frame of the
//! largest size accepted; a connection whose reader holds a whole frame
//! is not read again until it is handled, so unread bytes wait in the
//! kernel.
//!
//! Outbound, each connection's replies, or its share of a pump, are
//! encoded into one batch of frames, appended to its pending bytes and
//! written at once; what the socket does not take waits for `POLLOUT`.
//! The flight recorder reads each frame's body from that batch, so every
//! byte is encoded once. The protocol is pull-driven, so damage that
//! piles up between a client's requests merges inside its server
//! session; a client that still falls `MAX_QUEUED_BYTES` behind is
//! dropped. A connection that closes (its peer sent its last byte, the
//! host closed it, or it sent a frame that does not decode) is no
//! longer read and gets at most `SHUTDOWN_FLUSH` to write what it holds;
//! [`Gateway::shutdown`] closes every connection that way. When its
//! socket is finally closed the loop tells the host, which detaches the
//! session it served.

use std::collections::{HashMap, VecDeque};
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub use uniint_core::host::ConnId;
use uniint_core::host::{Output, SessionHost};
use uniint_core::multi::MultiServer;
use uniint_core::tap::{Direction, SharedTap};
use uniint_protocol::message::{ClientMessage, FrameReader, ServerMessage};
use uniint_telemetry::registry::{Counter, Gauge, Registry};
use uniint_wsys::ui::Ui;

use crate::codec::{self, DEFAULT_MAX_FRAME, READ_CHUNK};
use crate::poll::{self, PollFd, POLLIN, POLLOUT};

/// Most encoded bytes one connection may hold unwritten. A batch that
/// would take non-empty pending bytes past this drops the connection;
/// empty pending bytes always take the next batch, however large.
const MAX_QUEUED_BYTES: usize = 8 << 20;

/// How long the loop waits for a socket before a housekeeping pass
/// (the host's tick: held Hellos, session expiry, damage pump), and the
/// most time it spends handling frames between two pumps.
const TICK: Duration = Duration::from_millis(10);

/// How long a closing connection may take to write what it holds before
/// its socket is closed anyway: a client that stopped reading would
/// otherwise keep it forever.
const SHUTDOWN_FLUSH: Duration = Duration::from_secs(1);

/// Settings of a [`Gateway`].
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Address the gateway listens on. Defaults to `127.0.0.1:0`
    /// (loopback, ephemeral port); bind `0.0.0.0:<port>` to serve a
    /// real network.
    pub bind_addr: SocketAddr,
    /// Largest frame accepted from a client, bytes. Frames declaring
    /// more are rejected before allocation and the connection dropped.
    pub max_frame: usize,
    /// How long a session may stay detached (no socket) before it is
    /// reaped and its name and server slot freed. Defaults to 60 s.
    pub session_grace: Duration,
    /// Flight-recorder tap (see `uniint-trace`). When set, the state
    /// thread records the body of every client frame it processes and
    /// of every server frame it queues, the same bytes the socket
    /// carries, stamped with microseconds since gateway start and
    /// channelled by connection id. `None` (the default) costs one
    /// branch per message.
    pub recorder: Option<SharedTap>,
}

impl Default for GatewayConfig {
    fn default() -> GatewayConfig {
        GatewayConfig {
            bind_addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            max_frame: DEFAULT_MAX_FRAME,
            session_grace: Duration::from_secs(60),
            recorder: None,
        }
    }
}

/// Appends `batch` (whole frames) to a connection's `pending` bytes.
/// Returns false, having freed `pending`, if that would take non-empty
/// pending bytes past `cap`: the connection must then be dropped.
fn enqueue(pending: &mut VecDeque<u8>, batch: Vec<u8>, cap: usize) -> bool {
    if !pending.is_empty() && pending.len() + batch.len() > cap {
        *pending = VecDeque::new();
        return false;
    }
    codec::queue(pending, batch);
    true
}

/// One accepted connection.
struct Conn {
    /// Non-blocking, like the listener.
    socket: TcpStream,
    /// Bytes read and not yet handled.
    reader: FrameReader,
    /// Whether `reader` may hold a whole frame not yet handled. The
    /// socket is not read again until it holds none.
    backlog: bool,
    /// Encoded frames not yet written, oldest first; see
    /// [`MAX_QUEUED_BYTES`].
    pending: VecDeque<u8>,
    /// Once the connection is closing: when its socket is closed even if
    /// `pending` has not drained.
    closing: Option<Instant>,
}

impl Conn {
    /// What the loop waits for on this connection.
    fn poll_fd(&self) -> PollFd {
        let mut events = if self.pending.is_empty() { 0 } else { POLLOUT };
        if self.closing.is_none() && !self.backlog {
            events |= POLLIN;
        }
        PollFd::new(Some(&self.socket), events)
    }
}

/// A running gateway: an appliance panel listening on a TCP port.
///
/// Created with [`Gateway::spawn`]; the panel [`Ui`] moves into the
/// state thread and comes back out of [`Gateway::shutdown`].
#[derive(Debug)]
pub struct Gateway {
    addr: SocketAddr,
    registry: Registry,
    stop: Arc<AtomicBool>,
    state: JoinHandle<Ui>,
}

impl Gateway {
    /// Binds `config.bind_addr` (loopback + ephemeral port by default)
    /// and starts serving `ui`.
    pub fn spawn(ui: Ui, config: GatewayConfig, registry: Registry) -> io::Result<Gateway> {
        let listener = TcpListener::bind(config.bind_addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let multi = MultiServer::with_telemetry(registry.clone());
        let host = SessionHost::new(multi, &registry, config.session_grace.as_micros() as u64);
        let io = Io::new(listener, config, &registry);
        let stop = Arc::new(AtomicBool::new(false));
        let state = {
            let stop = stop.clone();
            std::thread::Builder::new()
                .name("gw-state".into())
                .spawn(move || state_loop(ui, &stop, host, io))?
        };
        Ok(Gateway {
            addr,
            registry,
            stop,
            state,
        })
    }

    /// The address clients connect to (resolves the ephemeral port when
    /// `bind_addr` asked for port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The registry all gateway and per-session counters land in.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Stops serving and returns the panel [`Ui`] in its final state.
    /// The state thread notices within one `TICK`; every connection then
    /// gets `SHUTDOWN_FLUSH` to write what it holds before its socket is
    /// closed.
    pub fn shutdown(self) -> Ui {
        self.stop.store(true, Ordering::SeqCst);
        self.state.join().expect("state thread never panics")
    }
}

/// The gateway's one thread: waits on every socket, moves their bytes,
/// and drives the panel and every session. Once `stop` is set it closes
/// every connection, and returns when the last one is gone.
fn state_loop(mut ui: Ui, stop: &AtomicBool, mut host: SessionHost, mut io: Io) -> Ui {
    // One read takes no more than the client's, and at most one frame
    // of the largest size accepted.
    let mut scratch = vec![0; io.max_frame.saturating_add(4).min(READ_CHUNK)];
    let mut fds: Vec<PollFd> = Vec::new();
    let mut ids: Vec<ConnId> = Vec::new();
    let mut listening = true;
    let mut stopping = false;
    loop {
        if !stopping && stop.load(Ordering::SeqCst) {
            stopping = true;
            for id in io.conns.keys().copied().collect::<Vec<_>>() {
                io.close(id, SHUTDOWN_FLUSH);
            }
        }
        io.sweep(&mut host);
        if stopping && io.conns.is_empty() {
            return ui;
        }

        fds.clear();
        ids.clear();
        fds.push(PollFd::new(
            (listening && !stopping).then_some(&io.listener),
            POLLIN,
        ));
        for (&id, conn) in &io.conns {
            ids.push(id);
            fds.push(conn.poll_fd());
        }
        // Whole frames already read are handled now, not after a wait.
        let backlog = io.conns.values().any(|c| c.backlog);
        poll::wait(&mut fds, if backlog { Duration::ZERO } else { TICK });

        // A listener that failed to accept sits out the next wait: it may
        // stay readable while the process is out of descriptors.
        listening = fds[0].revents == 0 || io.accept(&mut host);
        for (fd, &id) in fds[1..].iter().zip(&ids) {
            if fd.revents != 0 {
                if fd.events & POLLIN != 0 {
                    io.read(id, &mut scratch);
                }
                io.flush(id);
            }
        }
        if !stopping {
            io.handle_frames(&mut host, &mut ui);
            let now_us = io.started.elapsed().as_micros() as u64;
            io.deliver(host.tick(&mut ui, now_us), now_us);
        }
        io.queue_bytes
            .set(io.conns.values().map(|c| c.pending.len()).sum::<usize>() as i64);
    }
}

/// The I/O of the state thread: the listener, each connection's socket,
/// reader and pending bytes, and the counters of the bytes they move.
/// The sessions they serve are the loop's [`SessionHost`], which counts
/// into the same registry.
struct Io {
    listener: TcpListener,
    conns: HashMap<ConnId, Conn>,
    /// Largest frame accepted from a client.
    max_frame: usize,
    /// Flight-recorder tap from [`GatewayConfig::recorder`].
    recorder: Option<SharedTap>,
    /// The origin of the host's clock and of recorded timestamps.
    started: Instant,
    accepted: Counter,
    frames_in: Counter,
    bytes_in: Counter,
    bytes_out: Counter,
    decode_errors: Counter,
    dropped_connections: Counter,
    /// Pending bytes summed over every connection, as each pass of the
    /// loop leaves them.
    queue_bytes: Gauge,
}

impl Io {
    fn new(listener: TcpListener, cfg: GatewayConfig, r: &Registry) -> Io {
        Io {
            listener,
            conns: HashMap::new(),
            max_frame: cfg.max_frame,
            recorder: cfg.recorder,
            started: Instant::now(),
            accepted: r.counter("gateway.accepted"),
            frames_in: r.counter("gateway.frames_in"),
            bytes_in: r.counter("gateway.bytes_in"),
            bytes_out: r.counter("gateway.bytes_out"),
            decode_errors: r.counter("gateway.decode_errors"),
            dropped_connections: r.counter("gateway.dropped_connections"),
            queue_bytes: r.gauge("gateway.queue_bytes"),
        }
    }

    /// Accepts every connection waiting on the listener, each a new
    /// connection of `host`. Returns false if accepting failed for
    /// another reason than none being left.
    fn accept(&mut self, host: &mut SessionHost) -> bool {
        loop {
            match self.listener.accept() {
                Ok((socket, _peer)) => {
                    self.accepted.inc();
                    // Frames are latency-sensitive, and no socket may
                    // block the loop; one that cannot be set up is dropped.
                    if socket.set_nodelay(true).is_ok() && socket.set_nonblocking(true).is_ok() {
                        let conn = Conn {
                            socket,
                            reader: FrameReader::with_max_body(self.max_frame),
                            backlog: false,
                            pending: VecDeque::new(),
                            closing: None,
                        };
                        self.conns.insert(host.open(), conn);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
    }

    /// Reads once from connection `id` into its frame reader.
    fn read(&mut self, id: ConnId, scratch: &mut [u8]) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        match codec::read_into(&conn.socket, &mut conn.reader, scratch) {
            Ok(None) => {}
            // The peer sent its last byte.
            Ok(Some(0)) => self.close(id, SHUTDOWN_FLUSH),
            Ok(Some(n)) => {
                self.bytes_in.add(n as u64);
                conn.backlog = true;
            }
            Err(_) => self.close(id, Duration::ZERO),
        }
    }

    /// Writes as much of connection `id`'s pending bytes as its socket
    /// takes now.
    fn flush(&mut self, id: ConnId) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let held = conn.pending.len();
        let written = codec::write_pending(&conn.socket, &mut conn.pending);
        self.bytes_out.add((held - conn.pending.len()) as u64);
        if written.is_err() {
            self.close(id, Duration::ZERO);
        }
    }

    /// Starts closing connection `id`: it is no longer read, and
    /// [`Io::sweep`] drops it once its pending bytes are written, or once
    /// `flush` has passed (a zero `flush` drops it at the next sweep,
    /// whatever it holds). A connection already closing keeps its first
    /// deadline.
    fn close(&mut self, id: ConnId, flush: Duration) {
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.closing.get_or_insert(Instant::now() + flush);
            conn.backlog = false;
        }
    }

    /// Drops the closing connections that wrote what they held or ran
    /// out of time, which closes their sockets, and tells `host` they
    /// are gone.
    fn sweep(&mut self, host: &mut SessionHost) {
        let now = Instant::now();
        let now_us = now.duration_since(self.started).as_micros() as u64;
        self.conns.retain(|&id, c| {
            let open = c
                .closing
                .is_none_or(|end| !c.pending.is_empty() && now < end);
            if !open {
                host.close(id, now_us);
            }
            open
        });
    }

    /// Hands the whole frames read so far to `host`, one per connection
    /// per round, for at most one [`TICK`]: update requests wait for the
    /// pump that follows, so a client flooding frames must not hold back
    /// the others.
    fn handle_frames(&mut self, host: &mut SessionHost, ui: &mut Ui) {
        let began = self.started.elapsed();
        let mut busy: Vec<ConnId> = self
            .conns
            .iter()
            .filter(|(_, c)| c.backlog)
            .map(|(&id, _)| id)
            .collect();
        while !busy.is_empty() {
            let now = self.started.elapsed();
            if now >= began + TICK {
                break;
            }
            let now_us = now.as_micros() as u64;
            busy.retain(|&id| match self.next_message(id, now_us) {
                Some(msg) => {
                    self.deliver(host.receive(ui, id, msg, now_us), now_us);
                    true
                }
                None => false,
            });
        }
    }

    /// Decodes the next whole frame read from connection `id`, or `None`
    /// once it holds none. A frame that is too large or does not decode
    /// closes the connection: the peer is hostile or broken.
    fn next_message(&mut self, id: ConnId, now_us: u64) -> Option<ClientMessage> {
        let conn = self.conns.get_mut(&id).filter(|c| c.backlog)?;
        let decoded = match conn.reader.next_frame() {
            Ok(None) => {
                conn.backlog = false;
                return None;
            }
            Ok(Some(body)) => ClientMessage::decode_body(&mut body.as_slice()).map(|m| (m, body)),
            Err(e) => Err(e),
        };
        let Ok((msg, body)) = decoded else {
            self.decode_errors.inc();
            self.close(id, SHUTDOWN_FLUSH);
            return None;
        };
        self.frames_in.inc();
        if let Some(tap) = &self.recorder {
            // Recorded as the loop consumes it, in arrival order.
            tap.record(now_us, id as u32, Direction::ToServer, &body);
        }
        Some(msg)
    }

    /// Carries out what the host asked, in order.
    fn deliver(&mut self, out: impl Iterator<Item = Output>, now_us: u64) {
        for o in out {
            match o {
                Output::Send(id, msgs) => self.push_to(id, &msgs, now_us),
                Output::Close(id) => self.close(id, SHUTDOWN_FLUSH),
            }
        }
    }

    /// Encodes `replies` into one batch of frames, records each frame's
    /// body from that batch, and queues it for connection `id`, which
    /// writes it at once. A closing connection takes nothing more.
    fn push_to(&mut self, id: ConnId, replies: &[ServerMessage], now_us: u64) {
        let Some(conn) = self.conns.get_mut(&id).filter(|c| c.closing.is_none()) else {
            return;
        };
        let mut batch = Vec::new();
        for r in replies {
            let start = batch.len();
            r.encode(&mut batch);
            if let Some(tap) = &self.recorder {
                // Recorded as queued, in the order the sessions produced
                // the messages.
                tap.record(now_us, id as u32, Direction::ToClient, &batch[start + 4..]);
            }
        }
        if enqueue(&mut conn.pending, batch, MAX_QUEUED_BYTES) {
            self.flush(id);
        } else {
            // The session stays, detached once the socket is swept.
            self.dropped_connections.inc();
            self.close(id, Duration::ZERO);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use uniint_protocol::message::{encode_server, RectUpdate};
    use uniint_raster::geom::Rect;
    use uniint_raster::pixel::PixelFormat;

    fn update(seq: u64, x: i32, payload_len: usize) -> ServerMessage {
        ServerMessage::Update {
            seq,
            format: PixelFormat::Rgb888,
            rects: vec![RectUpdate {
                rect: Rect::new(x, 0, 1, 1),
                encoding: uniint_protocol::encoding::Encoding::Raw,
                payload: vec![0; payload_len],
            }],
        }
    }

    /// Decodes every whole frame in `bytes`.
    fn frames(bytes: &[u8]) -> Vec<ServerMessage> {
        let mut reader = FrameReader::new();
        reader.feed(bytes);
        let mut msgs = Vec::new();
        while let Some(frame) = reader.next_frame().unwrap() {
            msgs.push(ServerMessage::decode_body(&mut frame.as_slice()).unwrap());
        }
        assert_eq!(reader.buffered(), 0, "only whole frames");
        msgs
    }

    #[test]
    fn a_batch_past_the_bound_frees_the_pending_bytes() {
        let mut pending = VecDeque::new();
        assert!(enqueue(&mut pending, vec![1; 5], 8));
        assert!(enqueue(&mut pending, vec![2; 3], 8), "exactly at the bound");
        assert!(!enqueue(&mut pending, vec![3], 8));
        assert_eq!(pending.capacity(), 0, "an overflow lets go of the bytes");
    }

    #[test]
    fn empty_pending_bytes_take_a_batch_larger_than_the_bound() {
        let mut pending = VecDeque::new();
        assert!(enqueue(&mut pending, vec![7; 10], 4));
        assert_eq!(Vec::from(std::mem::take(&mut pending)), vec![7; 10]);
        assert!(enqueue(&mut pending, vec![8; 10], 4), "empty again");
    }

    #[test]
    fn frames_leave_in_the_order_they_were_queued() {
        // Update / Resize / Update reach the socket as three frames in
        // that order: replaying the second update before the resize
        // would paint it into the old geometry.
        let msgs = [
            update(1, 0, 3),
            ServerMessage::Resize {
                width: 10,
                height: 10,
            },
            update(2, 1, 3),
        ];
        let mut pending = VecDeque::new();
        for m in &msgs {
            assert!(enqueue(&mut pending, encode_server(m), MAX_QUEUED_BYTES));
        }
        assert_eq!(frames(pending.make_contiguous()), msgs);
    }

    #[test]
    fn a_closing_connection_writes_what_it_holds_then_is_dropped() {
        let mut h = Harness::new();
        let id = h.connect();
        // Fill the socket until bytes wait in the connection.
        let mut queued = 0;
        while h.st.conns[&id].pending.is_empty() {
            h.st.push_to(id, &[update(queued, 0, 1 << 20)], 0);
            queued += 1;
        }
        h.st.close(id, SHUTDOWN_FLUSH);
        h.st.push_to(id, &[ServerMessage::Bell], 0);
        h.st.sweep(&mut h.host);
        assert!(h.st.conns.contains_key(&id), "kept while it holds bytes");

        let mut peer = h.peers.pop().expect("peer");
        let read = std::thread::spawn(move || {
            let mut bytes = Vec::new();
            peer.read_to_end(&mut bytes).map(|_| bytes)
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while h.st.conns.contains_key(&id) {
            assert!(Instant::now() < deadline, "never drained");
            h.st.flush(id);
            h.st.sweep(&mut h.host);
            std::thread::sleep(Duration::from_millis(1));
        }
        let sent = frames(&read.join().unwrap().expect("read to EOF"));
        let expected: Vec<_> = (0..queued).map(|seq| update(seq, 0, 1 << 20)).collect();
        assert_eq!(
            sent, expected,
            "every queued frame, and nothing after the close"
        );
    }

    /// The state thread's sockets, on loopback sockets whose peers
    /// never read.
    struct Harness {
        st: Io,
        host: SessionHost,
        peers: Vec<TcpStream>,
    }

    impl Harness {
        fn new() -> Harness {
            let registry = Registry::new();
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let st = Io::new(listener, GatewayConfig::default(), &registry);
            Harness {
                st,
                host: SessionHost::new(MultiServer::new(), &registry, 0),
                peers: Vec::new(),
            }
        }

        fn connect(&mut self) -> ConnId {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            self.peers.push(peer);
            let socket = listener.accept().unwrap().0;
            socket.set_nonblocking(true).unwrap();
            let id = self.host.open();
            let conn = Conn {
                socket,
                reader: FrameReader::new(),
                backlog: false,
                pending: VecDeque::new(),
                closing: None,
            };
            self.st.conns.insert(id, conn);
            id
        }
    }
}
