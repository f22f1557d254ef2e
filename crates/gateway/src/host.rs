//! The connection host: one appliance panel served to many real TCP
//! clients from one thread.
//!
//! ```text
//!   listener, conn 0..N ──► poll(2) ──┬─► accept
//!                                     ├─► read ──► FrameReader ──► handle_msg
//!                                     └─► write ◄── pending bytes ◄── push_to
//!                                          (replies and pump_all shares)
//! ```
//!
//! The `gw-state` thread owns the listener, every non-blocking socket,
//! the [`Ui`] and the [`MultiServer`]: no socket threads, locks or
//! channels, so protocol handling stays strictly serialized. Each pass
//! waits in one `poll(2)` on every socket, moves the bytes that are
//! ready, handles whole frames, then pumps. One read takes at most
//! 16 KiB, and at most one frame of the largest size accepted; a
//! connection whose reader holds a whole frame is not read again until
//! it is handled, so unread bytes wait in the kernel.
//!
//! Outbound, each connection's replies, or its share of a pump, are
//! encoded into one batch of frames, appended to its pending bytes and
//! written at once; what the socket does not take waits for `POLLOUT`.
//! The flight recorder reads each frame's body from that batch, so every
//! byte is encoded once. The protocol is pull-driven, so damage that
//! piles up between a client's requests merges inside its server
//! session; a client that still falls `MAX_QUEUED_BYTES` behind is
//! dropped. A connection that closes (its peer sent its last byte,
//! another socket displaced it, or it broke the protocol) is no longer
//! read and gets at most `SHUTDOWN_FLUSH` to write what it holds;
//! [`Gateway::shutdown`] closes every connection that way.
//!
//! Reconnects are handled by *session adoption*: sessions are keyed by
//! the client name from `Hello`. A `Hello` for a known name followed by
//! `Resume` re-binds the existing server session — with its damage
//! account and send log intact — to the new socket, so the resume is
//! incremental instead of a full refresh.
//!
//! Each session has one record: its name, and whether it is attached to
//! a connection or detached since some instant. Every lifecycle path
//! goes through one `attach`/`detach` pair, and a connection speaks for
//! a session only while that session's record names it: late messages
//! from a displaced socket are dropped. Retired sessions free their
//! [`MultiServer`] slot, which the next session reuses.

use std::collections::{HashMap, VecDeque};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use uniint_core::multi::{ClientId, MultiServer};
use uniint_core::tap::{Direction, SharedTap};
use uniint_protocol::message::{ClientMessage, FrameReader, ServerMessage};
use uniint_telemetry::registry::{Counter, Gauge, Registry};
use uniint_wsys::ui::Ui;

use crate::codec::{check_hello_version, DEFAULT_MAX_FRAME, READ_CHUNK};
use crate::poll::{self, PollFd, POLLIN, POLLOUT};

/// Identifies one TCP connection. Not the same as a session: a session
/// survives reconnects, a connection does not.
pub type ConnId = usize;

/// Most encoded bytes one connection may hold unwritten. A batch that
/// would take non-empty pending bytes past this drops the connection;
/// empty pending bytes always take the next batch, however large.
const MAX_QUEUED_BYTES: usize = 8 << 20;

/// How long a `Hello` for an already-known name is held back waiting
/// for a `Resume` to disambiguate reconnect from name reuse. A fresh
/// client (crashed and restarted) sends only the Hello, so once this
/// grace elapses the Hello is resolved as a replacement and the
/// handshake completes.
const HELLO_GRACE: Duration = Duration::from_millis(250);

/// How long the loop waits for a socket before a housekeeping pass
/// (held Hellos, session expiry, damage pump), and the most time it
/// spends handling frames between two pumps.
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
    if pending.is_empty() {
        *pending = batch.into();
    } else if pending.len() + batch.len() > cap {
        *pending = VecDeque::new();
        return false;
    } else {
        pending.extend(batch);
    }
    true
}

/// The gateway's counters.
struct StateMetrics {
    accepted: Counter,
    frames_in: Counter,
    bytes_in: Counter,
    bytes_out: Counter,
    reconnects: Counter,
    resumes: Counter,
    rejected_version: Counter,
    decode_errors: Counter,
    dropped_connections: Counter,
    expired_sessions: Counter,
    queue_bytes: Gauge,
}

impl StateMetrics {
    fn new(r: &Registry) -> StateMetrics {
        StateMetrics {
            accepted: r.counter("gateway.accepted"),
            frames_in: r.counter("gateway.frames_in"),
            bytes_in: r.counter("gateway.bytes_in"),
            bytes_out: r.counter("gateway.bytes_out"),
            reconnects: r.counter("gateway.reconnects"),
            resumes: r.counter("gateway.resumes"),
            rejected_version: r.counter("gateway.rejected_version"),
            decode_errors: r.counter("gateway.decode_errors"),
            dropped_connections: r.counter("gateway.dropped_connections"),
            expired_sessions: r.counter("gateway.expired_sessions"),
            queue_bytes: r.gauge("gateway.queue_bytes"),
        }
    }
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
    /// The session this connection last bound. It speaks for that
    /// session only while the session's record names it.
    session: Option<ClientId>,
    /// A `Hello` for an already-known name, held back until either the
    /// next message disambiguates reconnect (`Resume` follows) from a
    /// fresh client reusing the name (anything else follows), or
    /// [`HELLO_GRACE`] elapses — a fresh client sends nothing after its
    /// Hello, so the timeout resolves it as a replacement instead of
    /// hanging its handshake.
    held: Option<HeldHello>,
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

/// A version-checked `Hello` waiting for its follow-up message.
struct HeldHello {
    name: String,
    version: u16,
    since: Instant,
}

/// Where a session's output goes. A session is attached to exactly one
/// connection or to none, never both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Link {
    Attached(ConnId),
    /// No socket since this instant; reaped after `session_grace`.
    Detached(Instant),
}

/// One name-keyed session; it survives its sockets.
struct Session {
    name: String,
    link: Link,
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
        let stop = Arc::new(AtomicBool::new(false));
        let state = {
            let stop = stop.clone();
            let registry = registry.clone();
            std::thread::Builder::new()
                .name("gw-state".into())
                .spawn(move || state_loop(ui, listener, &stop, config, registry))?
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
fn state_loop(
    mut ui: Ui,
    listener: TcpListener,
    stop: &AtomicBool,
    cfg: GatewayConfig,
    registry: Registry,
) -> Ui {
    // One read takes no more than the client's, and at most one frame
    // of the largest size accepted.
    let mut scratch = vec![0; cfg.max_frame.saturating_add(4).min(READ_CHUNK)];
    let mut st = State::new(registry, cfg);
    let mut fds: Vec<PollFd> = Vec::new();
    let mut ids: Vec<ConnId> = Vec::new();
    let mut listening = true;
    let mut stopping = false;
    loop {
        if !stopping && stop.load(Ordering::SeqCst) {
            stopping = true;
            let all: Vec<ConnId> = st.conns.keys().copied().collect();
            for id in all {
                st.close(id, SHUTDOWN_FLUSH);
            }
        }
        st.sweep();
        if stopping && st.conns.is_empty() {
            return ui;
        }

        fds.clear();
        ids.clear();
        fds.push(PollFd::new(
            (listening && !stopping).then_some(&listener),
            POLLIN,
        ));
        for (&id, conn) in &st.conns {
            ids.push(id);
            fds.push(conn.poll_fd());
        }
        // Whole frames already read are handled now, not after a wait.
        let backlog = st.conns.values().any(|c| c.backlog);
        poll::wait(&mut fds, if backlog { Duration::ZERO } else { TICK });

        // A listener that failed to accept sits out the next wait: it may
        // stay readable while the process is out of descriptors.
        listening = fds[0].revents == 0 || st.accept(&listener);
        for (fd, &id) in fds[1..].iter().zip(&ids) {
            if fd.revents != 0 {
                if fd.events & POLLIN != 0 {
                    st.read(id, &mut scratch);
                }
                st.flush(id);
            }
        }
        if !stopping {
            st.handle_frames(&mut ui);
            st.resolve_stale_hellos(&mut ui);
            st.expire_detached_sessions();
            let batches = st.multi.pump_all(&mut ui);
            st.route_batches(batches);
        }
    }
}

/// The whole mutable world of the state thread.
struct State {
    multi: MultiServer,
    conns: HashMap<ConnId, Conn>,
    next_conn: ConnId,
    /// One record per live `MultiServer` client. Sessions survive their
    /// sockets, so a name can come back and resume incrementally.
    sessions: HashMap<ClientId, Session>,
    /// How long a detached session lives before it is reaped.
    session_grace: Duration,
    /// Largest frame accepted from a client.
    max_frame: usize,
    metrics: StateMetrics,
    registry: Registry,
    /// Flight-recorder tap from [`GatewayConfig::recorder`].
    recorder: Option<SharedTap>,
    /// Timestamp origin for recorded messages.
    started: Instant,
}

impl State {
    fn new(registry: Registry, cfg: GatewayConfig) -> State {
        State {
            multi: MultiServer::with_telemetry(registry.clone()),
            conns: HashMap::new(),
            next_conn: 0,
            sessions: HashMap::new(),
            session_grace: cfg.session_grace,
            max_frame: cfg.max_frame,
            metrics: StateMetrics::new(&registry),
            registry,
            recorder: cfg.recorder,
            started: Instant::now(),
        }
    }

    /// Accepts every connection waiting on `listener`. Returns false if
    /// accepting failed for another reason than none being left.
    fn accept(&mut self, listener: &TcpListener) -> bool {
        loop {
            match listener.accept() {
                Ok((socket, _peer)) => {
                    self.metrics.accepted.inc();
                    self.connect(socket);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
    }

    /// Takes on an accepted socket as a new connection, unless the socket
    /// cannot be set up.
    fn connect(&mut self, socket: TcpStream) -> Option<ConnId> {
        // Frames are latency-sensitive, and no socket may block the loop.
        socket.set_nodelay(true).ok()?;
        socket.set_nonblocking(true).ok()?;
        let id = self.next_conn;
        self.next_conn += 1;
        let conn = Conn {
            socket,
            reader: FrameReader::with_max_body(self.max_frame),
            backlog: false,
            pending: VecDeque::new(),
            closing: None,
            session: None,
            held: None,
        };
        self.conns.insert(id, conn);
        Some(id)
    }

    /// Reads once from connection `id` into its frame reader.
    fn read(&mut self, id: ConnId, scratch: &mut [u8]) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        match (&conn.socket).read(scratch) {
            // The peer sent its last byte.
            Ok(0) => self.close(id, SHUTDOWN_FLUSH),
            Ok(n) => {
                self.metrics.bytes_in.add(n as u64);
                conn.reader.feed(&scratch[..n]);
                conn.backlog = true;
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            Err(_) => self.abort(id),
        }
    }

    /// Writes as much of connection `id`'s pending bytes as its socket
    /// takes now.
    fn flush(&mut self, id: ConnId) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        while !conn.pending.is_empty() {
            match (&conn.socket).write(conn.pending.as_slices().0) {
                Ok(n) if n > 0 => {
                    self.metrics.bytes_out.add(n as u64);
                    conn.pending.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                _ => return self.abort(id),
            }
        }
        // Lets go of the batch just written.
        conn.pending = VecDeque::new();
    }

    /// Starts closing connection `id`: it is no longer read, its session
    /// is detached, and [`State::sweep`] drops it once its pending bytes
    /// are written, or once `flush` has passed. A connection already
    /// closing keeps its first deadline.
    fn close(&mut self, id: ConnId, flush: Duration) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        conn.closing.get_or_insert(Instant::now() + flush);
        conn.backlog = false;
        conn.held = None;
        if let Some(sid) = conn.session {
            self.detach(sid, id);
        }
    }

    /// Drops connection `id` at the next sweep, with whatever it holds.
    fn abort(&mut self, id: ConnId) {
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.pending = VecDeque::new();
        }
        self.close(id, Duration::ZERO);
    }

    /// Closes connection `id` for breaking the protocol.
    fn reject(&mut self, id: ConnId) {
        self.metrics.decode_errors.inc();
        self.close(id, SHUTDOWN_FLUSH);
    }

    /// Drops the closing connections that wrote what they held or ran
    /// out of time, which closes their sockets.
    fn sweep(&mut self) {
        let now = Instant::now();
        self.conns.retain(|_, c| {
            c.closing
                .is_none_or(|end| !c.pending.is_empty() && now < end)
        });
    }

    /// Handles the whole frames read so far, one per connection per
    /// round, for at most one [`TICK`]: update requests wait for the pump
    /// that follows, so a client flooding frames must not hold back the
    /// others.
    fn handle_frames(&mut self, ui: &mut Ui) {
        let began = Instant::now();
        let mut busy: Vec<ConnId> = self
            .conns
            .iter()
            .filter(|(_, c)| c.backlog)
            .map(|(&id, _)| id)
            .collect();
        while !busy.is_empty() && began.elapsed() < TICK {
            busy.retain(|&id| self.handle_next_frame(ui, id));
        }
    }

    /// Handles the next whole frame read from connection `id`. Returns
    /// whether the connection may hold another.
    fn handle_next_frame(&mut self, ui: &mut Ui, id: ConnId) -> bool {
        let Some(conn) = self.conns.get_mut(&id).filter(|c| c.backlog) else {
            return false;
        };
        let decoded = match conn.reader.next_frame() {
            Ok(None) => {
                conn.backlog = false;
                return false;
            }
            Ok(Some(body)) => ClientMessage::decode_body(&mut body.as_slice()).map(|m| (m, body)),
            Err(e) => Err(e),
        };
        // An oversized frame or an undecodable body: the peer is hostile
        // or broken.
        let Ok((msg, body)) = decoded else {
            self.reject(id);
            return false;
        };
        self.metrics.frames_in.inc();
        self.handle_msg(ui, id, msg, &body);
        true
    }

    /// The session named `name`, if one is live.
    fn find(&self, name: &str) -> Option<ClientId> {
        self.sessions
            .iter()
            .find(|(_, s)| s.name == name)
            .map(|(sid, _)| *sid)
    }

    /// Points session `sid` at connection `id`. The connection the
    /// record named before, if any, is displaced: it closes, and its
    /// late messages no longer reach the session.
    fn attach(&mut self, sid: ClientId, id: ConnId) {
        let Some(session) = self.sessions.get_mut(&sid) else {
            return;
        };
        if let Link::Attached(old) = std::mem::replace(&mut session.link, Link::Attached(id)) {
            self.close(old, SHUTDOWN_FLUSH);
        }
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.session = Some(sid);
        }
    }

    /// Detaches session `sid` from connection `id`, if its record names
    /// that connection. The session stays alive: damage keeps
    /// accumulating in the server session (bounded by the screen area),
    /// so the same client name can come back and resume incrementally —
    /// until `session_grace` reaps it.
    fn detach(&mut self, sid: ClientId, id: ConnId) {
        if let Some(session) = self.sessions.get_mut(&sid) {
            if session.link == Link::Attached(id) {
                session.link = Link::Detached(Instant::now());
            }
        }
    }

    /// Ends session `sid`: frees its name and its server slot, and
    /// closes the connection it was attached to. Returns its name.
    fn retire(&mut self, sid: ClientId) -> Option<String> {
        let session = self.sessions.remove(&sid)?;
        if let Link::Attached(id) = session.link {
            self.close(id, SHUTDOWN_FLUSH);
        }
        self.multi.disconnect(sid);
        Some(session.name)
    }

    /// Binds `id` to a brand-new session for `name`, displacing (and
    /// disconnecting) any previous session under that name, and
    /// forwards the Hello so the normal handshake replies flow.
    fn open_session(&mut self, ui: &mut Ui, id: ConnId, name: String, version: u16) {
        if let Some(old) = self.find(&name) {
            self.retire(old);
        }
        let sid = self.multi.accept(ui);
        let link = Link::Detached(Instant::now());
        self.sessions.insert(
            sid,
            Session {
                name: name.clone(),
                link,
            },
        );
        self.attach(sid, id);
        let replies = self
            .multi
            .handle_message(ui, sid, ClientMessage::Hello { version, name });
        self.push_to(id, &replies);
    }

    /// Resolves held-back `Hello`s whose grace elapsed with no follow-up
    /// message: the peer is a fresh client reusing a known name (a
    /// reconnecting client sends `Resume` immediately after its Hello),
    /// so it displaces the old session and handshakes normally.
    fn resolve_stale_hellos(&mut self, ui: &mut Ui) {
        let stale: Vec<ConnId> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                c.held
                    .as_ref()
                    .is_some_and(|h| h.since.elapsed() >= HELLO_GRACE)
            })
            .map(|(id, _)| *id)
            .collect();
        for id in stale {
            if let Some(held) = self.conns.get_mut(&id).and_then(|c| c.held.take()) {
                self.open_session(ui, id, held.name, held.version);
            }
        }
    }

    /// Reaps sessions that have been detached longer than
    /// `session_grace`, freeing their name and their `MultiServer` slot.
    fn expire_detached_sessions(&mut self) {
        let grace = self.session_grace;
        let expired: Vec<ClientId> = self
            .sessions
            .iter()
            .filter(|(_, s)| matches!(s.link, Link::Detached(since) if since.elapsed() >= grace))
            .map(|(sid, _)| *sid)
            .collect();
        for sid in expired {
            if let Some(name) = self.retire(sid) {
                self.metrics.expired_sessions.inc();
                self.registry
                    .journal()
                    .record("gateway.session_expired", name);
            }
        }
    }

    /// Applies one client message, decoded from frame `body`: version
    /// policy, name-keyed session adoption, then normal protocol
    /// dispatch into the [`MultiServer`].
    fn handle_msg(&mut self, ui: &mut Ui, id: ConnId, msg: ClientMessage, body: &[u8]) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        // A held-back Hello resolves on the very next message (or, if
        // none comes, on the `HELLO_GRACE` timeout in housekeeping).
        let held = conn.held.take();
        if let Some(tap) = &self.recorder {
            // Recorded at the moment the state thread consumes the
            // message (held-back Hellos are recorded here too, in
            // arrival order, even though their processing is deferred).
            tap.record(
                self.started.elapsed().as_micros() as u64,
                id as u32,
                Direction::ToServer,
                body,
            );
        }

        if let Some(held) = held {
            // Adopt the existing session only on Resume; its name may
            // also have been reaped between hold and resolution, in
            // which case a fresh session is the only option left.
            match (&msg, self.find(&held.name)) {
                (ClientMessage::Resume { .. }, Some(sid)) => {
                    // Reconnect: adopt the existing session wholesale.
                    // The Hello is deliberately *not* forwarded — a
                    // Hello resets server-side session state, which is
                    // exactly what an incremental resume must avoid.
                    self.attach(sid, id);
                    self.metrics.reconnects.inc();
                    self.registry
                        .journal()
                        .record("gateway.reconnect", held.name);
                }
                // A fresh client reusing a known name: the old session
                // is abandoned in its favour.
                _ => self.open_session(ui, id, held.name, held.version),
            }
            // Fall through: `msg` itself is processed below.
        }

        let session = self.conns[&id].session;
        match msg {
            ClientMessage::Hello { version, name } => {
                if check_hello_version(version).is_err() {
                    self.metrics.rejected_version.inc();
                    self.registry
                        .journal()
                        .record("gateway.rejected_version", format!("{name}: v{version}"));
                    self.close(id, SHUTDOWN_FLUSH);
                    return;
                }
                // A re-Hello from a bound connection rebinds it: detach
                // the old session first so only one seq stream ever
                // writes to this socket.
                if let Some(sid) = session {
                    self.detach(sid, id);
                }
                if self.find(&name).is_some() {
                    // Known name: reconnect or collision? The next
                    // message tells (Resume means reconnect), and the
                    // HELLO_GRACE timeout resolves the silent case.
                    let since = Instant::now();
                    if let Some(conn) = self.conns.get_mut(&id) {
                        conn.held = Some(HeldHello {
                            name,
                            version,
                            since,
                        });
                    }
                    return;
                }
                self.open_session(ui, id, name, version);
            }
            // A connection speaks for the session it bound only while
            // that session's record names it.
            msg => match session {
                Some(sid)
                    if self
                        .sessions
                        .get(&sid)
                        .is_some_and(|s| s.link == Link::Attached(id)) =>
                {
                    if matches!(msg, ClientMessage::Resume { .. }) {
                        self.metrics.resumes.inc();
                    }
                    let replies = self.multi.handle_message(ui, sid, msg);
                    self.push_to(id, &replies);
                }
                // Displaced: the session answers to another socket now.
                Some(_) => {}
                // Message before any Hello: protocol abuse, drop the peer.
                None => self.reject(id),
            },
        }
    }

    /// Encodes `replies` into one batch of frames, records each frame's
    /// body from that batch, and queues it for connection `id`, which
    /// writes it at once. A closing connection takes nothing more.
    fn push_to(&mut self, id: ConnId, replies: &[ServerMessage]) {
        if replies.is_empty() {
            return;
        }
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
                tap.record(
                    self.started.elapsed().as_micros() as u64,
                    id as u32,
                    Direction::ToClient,
                    &batch[start + 4..],
                );
            }
        }
        if enqueue(&mut conn.pending, batch, MAX_QUEUED_BYTES) {
            self.flush(id);
        } else {
            // The session stays, detached.
            self.metrics.dropped_connections.inc();
            self.abort(id);
        }
        let queued = self.conns.get(&id).map_or(0, |c| c.pending.len());
        self.metrics.queue_bytes.set(queued as i64);
    }

    fn route_batches(&mut self, batches: Vec<(ClientId, Vec<ServerMessage>)>) {
        for (sid, msgs) in batches {
            // A detached session's updates stay as damage inside the
            // server session until the name resumes.
            if let Some(&Session {
                link: Link::Attached(id),
                ..
            }) = self.sessions.get(&sid)
            {
                self.push_to(id, &msgs);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniint_protocol::input::InputEvent;
    use uniint_protocol::message::{encode_client, encode_server, RectUpdate};
    use uniint_raster::geom::Rect;
    use uniint_raster::pixel::PixelFormat;
    use uniint_wsys::prelude::{Button, Theme};

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
            h.st.push_to(id, &[update(queued, 0, 1 << 20)]);
            queued += 1;
        }
        h.st.close(id, SHUTDOWN_FLUSH);
        h.st.push_to(id, &[ServerMessage::Bell]);
        h.st.sweep();
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
            h.st.sweep();
            std::thread::sleep(Duration::from_millis(1));
        }
        let sent = frames(&read.join().unwrap().expect("read to EOF"));
        let expected: Vec<_> = (0..queued).map(|seq| update(seq, 0, 1 << 20)).collect();
        assert_eq!(
            sent, expected,
            "every queued frame, and nothing after the close"
        );
    }

    /// The state thread's logic on loopback sockets whose peers never
    /// read.
    struct Harness {
        st: State,
        ui: Ui,
        peers: Vec<TcpStream>,
    }

    impl Harness {
        fn new() -> Harness {
            let mut ui = Ui::new(160, 120, Theme::classic(), "state");
            ui.add(Button::new("Power"), Rect::new(20, 20, 80, 24));
            Harness {
                st: State::new(Registry::new(), GatewayConfig::default()),
                ui,
                peers: Vec::new(),
            }
        }

        fn connect(&mut self) -> ConnId {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            self.peers.push(peer);
            let socket = listener.accept().unwrap().0;
            self.st.connect(socket).expect("socket set up")
        }

        fn send(&mut self, id: ConnId, msgs: impl IntoIterator<Item = ClientMessage>) {
            for msg in msgs {
                let frame = encode_client(&msg);
                self.st.handle_msg(&mut self.ui, id, msg, &frame[4..]);
            }
        }

        /// Whether connection `id` is closing.
        fn closed(&self, id: ConnId) -> bool {
            self.st.conns[&id].closing.is_some()
        }

        /// Clicks the panel fired since the last call.
        fn clicks(&mut self) -> usize {
            self.ui.take_actions().len()
        }
    }

    fn hello(name: &str) -> ClientMessage {
        ClientMessage::Hello {
            version: uniint_protocol::message::PROTOCOL_VERSION,
            name: name.into(),
        }
    }

    fn click() -> Vec<ClientMessage> {
        InputEvent::click(40, 30)
            .into_iter()
            .map(ClientMessage::Input)
            .collect()
    }

    #[test]
    fn a_connection_displaced_by_resume_no_longer_speaks_for_the_session() {
        let mut h = Harness::new();
        let first = h.connect();
        h.send(first, [hello("x")]);
        let second = h.connect();
        h.send(
            second,
            [hello("x"), ClientMessage::Resume { last_update_seq: 0 }],
        );
        assert!(h.closed(first), "the adopting socket displaces the first");

        h.send(first, click());
        assert_eq!(h.clicks(), 0, "a late click from the displaced socket");
        h.send(second, click());
        assert_eq!(h.clicks(), 1, "the adopting socket's click");
        assert!(!h.closed(second));
    }

    #[test]
    fn a_replaced_connection_does_not_reach_the_session_in_its_freed_slot() {
        let mut h = Harness::new();
        let first = h.connect();
        h.send(first, [hello("x")]);
        let replaced = h.st.conns[&first].session.expect("bound");
        // A fresh client reusing the name: anything but Resume after the
        // Hello replaces the old session instead of adopting it.
        let second = h.connect();
        h.send(second, [hello("x"), ClientMessage::SetEncodings(vec![])]);
        assert!(h.closed(first), "the replacing socket displaces the first");
        assert_eq!(
            h.st.conns[&second].session,
            Some(replaced),
            "the new session reuses the freed slot"
        );

        h.send(first, click());
        assert_eq!(h.clicks(), 0, "a late click from the replaced socket");
        h.send(second, click());
        assert_eq!(h.clicks(), 1, "the new session's click");
    }
}
