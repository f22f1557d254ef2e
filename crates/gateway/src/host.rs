//! The concurrent connection host: one appliance panel served to many
//! real TCP clients.
//!
//! Thread layout (all plain `std::thread`, no async runtime):
//!
//! ```text
//!            accept thread ──spawns──► reader thread (per conn)
//!                                      writer thread (per conn)
//!                   │                        │          ▲
//!                   ▼         events        ▼          │ bounded ByteQueue
//!              state thread ◄────────────────          │
//!          (owns Ui + MultiServer) ─────────────────────
//! ```
//!
//! Every reader forwards decoded [`ClientMessage`]s, each with the
//! frame body it came in, into one unbounded channel; the single state
//! thread owns the [`Ui`] and the [`MultiServer`] so protocol handling
//! stays strictly serialized — the concurrency lives at the sockets,
//! not in the session logic.
//!
//! Outbound, the state thread encodes each connection's replies, or its
//! share of a pump, into one batch of frames and appends it to the
//! connection's bounded byte queue with one lock and one wake. The
//! flight recorder reads each frame's body from that batch, and the
//! writer thread sends everything queued with one `write_all`, so every
//! byte is encoded once. Nothing merges at the queue: the protocol is
//! pull-driven, so a session sends an update only in answer to the
//! client's request, and damage that piles up in between merges inside
//! the server session. A client that still falls `MAX_QUEUED_BYTES`
//! behind is dropped rather than allowed to buffer the gateway into the
//! ground.
//!
//! Reconnects are handled by *session adoption*: sessions are keyed by
//! the client name from `Hello`. A `Hello` for a known name followed by
//! `Resume` re-binds the existing server session — with its damage
//! account and send log intact — to the new socket, so the resume is
//! incremental instead of a full refresh.
//!
//! Each session has one record in the state thread: its name, and
//! whether it is attached to a connection or detached since some
//! instant. Every lifecycle path goes through one `attach`/`detach`
//! pair, and a connection speaks for a session only while that
//! session's record names it: late messages from a displaced socket are
//! dropped. Retired sessions free their [`MultiServer`] slot, which the
//! next session reuses.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use uniint_core::multi::{ClientId, MultiServer};
use uniint_core::tap::{Direction, SharedTap};
use uniint_protocol::message::{ClientMessage, ServerMessage};
use uniint_telemetry::registry::{Counter, Gauge, Registry};
use uniint_wsys::ui::Ui;

use crate::codec::{check_hello_version, FramedSocket, ReadStatus, DEFAULT_MAX_FRAME};

/// Identifies one TCP connection. Not the same as a session: a session
/// survives reconnects, a connection does not.
pub type ConnId = usize;

/// Most encoded bytes one connection's outbound queue may hold. A push
/// that would take a non-empty queue past this closes the connection;
/// an empty queue always takes the next batch, however large.
const MAX_QUEUED_BYTES: usize = 8 << 20;

/// How long a `Hello` for an already-known name is held back waiting
/// for a `Resume` to disambiguate reconnect from name reuse. A fresh
/// client (crashed and restarted) sends only the Hello, so once this
/// grace elapses the Hello is resolved as a replacement and the
/// handshake completes.
const HELLO_GRACE: Duration = Duration::from_millis(250);

/// How long the state thread waits for an event before running a
/// housekeeping pass (held Hellos, session expiry, damage pump), and the
/// most time it spends handling events between two pumps.
const TICK: Duration = Duration::from_millis(10);

/// How long [`Gateway::shutdown`] lets the writers flush what is queued
/// before it shuts the sockets of those still sending: a writer blocked
/// on a client that stopped reading would otherwise never return.
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

/// What [`ByteQueue::push`] did with a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pushed {
    /// Appended after whatever was queued.
    Queued,
    /// The batch would have taken the queue past its bound: the queue is
    /// now closed and emptied, and the connection must be dropped.
    Overflow,
    /// Queue already closed; batch discarded.
    Closed,
}

/// A bounded queue of encoded frames, one per connection. The state
/// thread appends each pump's frames as one batch; the connection's
/// writer thread takes everything queued and sends it.
#[derive(Debug)]
struct ByteQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
    /// Most bytes the queue may hold; see [`MAX_QUEUED_BYTES`].
    cap: usize,
}

#[derive(Debug, Default)]
struct QueueInner {
    bytes: Vec<u8>,
    closed: bool,
}

impl ByteQueue {
    fn new(cap: usize) -> ByteQueue {
        ByteQueue {
            inner: Mutex::default(),
            ready: Condvar::new(),
            cap,
        }
    }

    /// Appends `batch` (whole frames) with one lock and one wake.
    fn push(&self, batch: Vec<u8>) -> Pushed {
        let mut q = self.inner.lock().expect("queue poisoned");
        if q.closed {
            return Pushed::Closed;
        }
        if q.bytes.is_empty() {
            q.bytes = batch;
        } else if q.bytes.len() + batch.len() > self.cap {
            q.closed = true;
            q.bytes = Vec::new();
            self.ready.notify_all();
            return Pushed::Overflow;
        } else {
            q.bytes.extend_from_slice(&batch);
        }
        self.ready.notify_one();
        Pushed::Queued
    }

    /// Blocks until bytes are queued or the queue is closed, then takes
    /// everything queued. `None` once the queue is closed and empty.
    fn pop(&self) -> Option<Vec<u8>> {
        let mut q = self.inner.lock().expect("queue poisoned");
        loop {
            if !q.bytes.is_empty() {
                return Some(std::mem::take(&mut q.bytes));
            }
            if q.closed {
                return None;
            }
            q = self.ready.wait(q).expect("queue poisoned");
        }
    }

    /// Closes the queue; the writer sends what is left and exits.
    fn close(&self) {
        let mut q = self.inner.lock().expect("queue poisoned");
        q.closed = true;
        self.ready.notify_all();
    }

    /// Bytes queued and not yet taken by the writer.
    fn len(&self) -> usize {
        self.inner.lock().expect("queue poisoned").bytes.len()
    }
}

/// Events flowing from accept/reader threads into the state thread.
#[derive(Debug)]
enum Event {
    /// A socket connected; its writer listens on the queue.
    Connected(ConnId, Arc<ByteQueue>, TcpStream),
    /// One decoded message from a connection, with the frame body it
    /// was decoded from.
    Msg(ConnId, ClientMessage, Vec<u8>),
    /// Socket gone (EOF, error, oversized frame...).
    Disconnected(ConnId),
    /// Orderly gateway shutdown.
    Shutdown,
}

/// Counters the state thread maintains (socket-side counters live in
/// the reader/writer threads and share the registry by name).
struct StateMetrics {
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

/// Per-connection bookkeeping inside the state thread.
struct Conn {
    queue: Arc<ByteQueue>,
    /// A handle on the socket, to shut it when the queue overflows: the
    /// writer may be blocked sending to a client that stopped reading.
    /// `None` only in tests without sockets.
    socket: Option<TcpStream>,
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
    events: Sender<Event>,
    accept_handle: Option<JoinHandle<()>>,
    state_handle: Option<JoinHandle<Ui>>,
    conn_io: Arc<Mutex<Vec<ConnIo>>>,
}

/// The reader and writer threads of one accepted connection, with a
/// handle on its socket: shutting the socket ends a writer blocked on a
/// client that stopped reading, whether or not the state thread still
/// knows the connection.
#[derive(Debug)]
struct ConnIo {
    socket: TcpStream,
    threads: [JoinHandle<()>; 2],
}

impl ConnIo {
    fn finished(&self) -> bool {
        self.threads.iter().all(|t| t.is_finished())
    }
}

impl Gateway {
    /// Binds `config.bind_addr` (loopback + ephemeral port by default)
    /// and starts serving `ui`.
    pub fn spawn(ui: Ui, config: GatewayConfig, registry: Registry) -> io::Result<Gateway> {
        let listener = TcpListener::bind(config.bind_addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = unbounded::<Event>();
        let conn_io: Arc<Mutex<Vec<ConnIo>>> = Arc::new(Mutex::new(Vec::new()));

        let accept_handle = {
            let stop = stop.clone();
            let tx = tx.clone();
            let conn_io = conn_io.clone();
            let max_frame = config.max_frame;
            let registry = registry.clone();
            std::thread::Builder::new()
                .name("gw-accept".into())
                .spawn(move || accept_loop(listener, stop, tx, conn_io, max_frame, registry))?
        };

        let state_handle = {
            let registry = registry.clone();
            std::thread::Builder::new()
                .name("gw-state".into())
                .spawn(move || state_loop(ui, rx, config, registry))?
        };

        Ok(Gateway {
            addr,
            registry,
            stop,
            events: tx,
            accept_handle: Some(accept_handle),
            state_handle: Some(state_handle),
            conn_io,
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

    /// Stops every thread, closes every connection and returns the
    /// panel [`Ui`] in its final state. Writers get a second to send
    /// what is queued; then every socket is shut, which ends a writer
    /// still blocked on a client that stopped reading.
    pub fn shutdown(mut self) -> Ui {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.events.send(Event::Shutdown);
        let ui = self
            .state_handle
            .take()
            .expect("shutdown runs once")
            .join()
            .expect("state thread never panics");
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        let conns = std::mem::take(&mut *self.conn_io.lock().expect("conn io poisoned"));
        let deadline = Instant::now() + SHUTDOWN_FLUSH;
        while conns.iter().any(|c| !c.finished()) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        for conn in conns {
            let _ = conn.socket.shutdown(std::net::Shutdown::Both);
            for t in conn.threads {
                let _ = t.join();
            }
        }
        ui
    }
}

fn accept_loop(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    tx: Sender<Event>,
    conn_io: Arc<Mutex<Vec<ConnIo>>>,
    max_frame: usize,
    registry: Registry,
) {
    let next_id = AtomicUsize::new(0);
    let accepted = registry.counter("gateway.accepted");
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let id = next_id.fetch_add(1, Ordering::SeqCst);
                accepted.inc();
                match spawn_conn(id, stream, &stop, &tx, max_frame, &registry) {
                    Ok(io) => {
                        let mut conns = conn_io.lock().expect("conn io poisoned");
                        // Connections that ended release their socket
                        // and threads here, not at shutdown.
                        conns.retain(|c| !c.finished());
                        conns.push(io);
                    }
                    Err(_) => {
                        let _ = tx.send(Event::Disconnected(id));
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Starts the reader and writer threads for one accepted socket.
fn spawn_conn(
    id: ConnId,
    stream: TcpStream,
    stop: &Arc<AtomicBool>,
    tx: &Sender<Event>,
    max_frame: usize,
    registry: &Registry,
) -> io::Result<ConnIo> {
    let queue = Arc::new(ByteQueue::new(MAX_QUEUED_BYTES));
    let write_half = stream.try_clone()?;
    let handle = stream.try_clone()?;
    let socket = stream.try_clone()?;
    let mut sock = FramedSocket::new(stream, max_frame, Duration::from_millis(20))?;
    let _ = tx.send(Event::Connected(id, queue.clone(), handle));

    let reader = {
        let stop = stop.clone();
        let tx = tx.clone();
        let queue = queue.clone();
        let frames_in = registry.counter("gateway.frames_in");
        let bytes_in = registry.counter("gateway.bytes_in");
        let decode_errors = registry.counter("gateway.decode_errors");
        std::thread::Builder::new()
            .name(format!("gw-read-{id}"))
            .spawn(move || {
                'conn: loop {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    match sock.fill() {
                        Ok(ReadStatus::Eof) | Err(_) => break,
                        Ok(ReadStatus::Idle) => continue,
                        Ok(ReadStatus::Data(n)) => bytes_in.add(n as u64),
                    }
                    loop {
                        match sock.next_frame() {
                            Ok(Some(frame)) => {
                                match ClientMessage::decode_body(&mut frame.as_slice()) {
                                    Ok(msg) => {
                                        frames_in.inc();
                                        let _ = tx.send(Event::Msg(id, msg, frame));
                                    }
                                    Err(_) => {
                                        decode_errors.inc();
                                        break 'conn;
                                    }
                                }
                            }
                            Ok(None) => break,
                            Err(_) => {
                                // Oversized or corrupt framing: the peer
                                // is hostile or broken either way.
                                decode_errors.inc();
                                break 'conn;
                            }
                        }
                    }
                }
                queue.close();
                let _ = tx.send(Event::Disconnected(id));
            })?
    };

    let writer = {
        let queue = queue.clone();
        let bytes_out = registry.counter("gateway.bytes_out");
        std::thread::Builder::new()
            .name(format!("gw-write-{id}"))
            .spawn(move || {
                use std::io::Write;
                let mut out = write_half;
                while let Some(bytes) = queue.pop() {
                    if out.write_all(&bytes).is_err() {
                        queue.close();
                        break;
                    }
                    bytes_out.add(bytes.len() as u64);
                }
                // Waking the reader (EOF) is what turns "writer gave up"
                // into a full disconnect.
                let _ = out.shutdown(std::net::Shutdown::Both);
            })?
    };

    Ok(ConnIo {
        socket,
        threads: [reader, writer],
    })
}

/// The whole mutable world of the state thread.
struct State {
    multi: MultiServer,
    conns: HashMap<ConnId, Conn>,
    /// One record per live `MultiServer` client. Sessions survive their
    /// sockets, so a name can come back and resume incrementally.
    sessions: HashMap<ClientId, Session>,
    /// How long a detached session lives before it is reaped.
    session_grace: Duration,
    metrics: StateMetrics,
    registry: Registry,
    /// Flight-recorder tap from [`GatewayConfig::recorder`].
    recorder: Option<SharedTap>,
    /// Timestamp origin for recorded messages.
    started: Instant,
}

/// The single thread owning the panel and all protocol sessions. On
/// exit it closes every queue, so each writer sends what is left.
fn state_loop(mut ui: Ui, rx: Receiver<Event>, cfg: GatewayConfig, registry: Registry) -> Ui {
    let mut st = State::new(registry, cfg.session_grace, cfg.recorder);
    loop {
        let first = match rx.recv_timeout(TICK) {
            Ok(ev) => Some(ev),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        // Pump at least once a tick however fast events arrive: update
        // requests wait for the pump, so a client flooding the channel
        // must not starve the others.
        let began = Instant::now();
        let mut stop = false;
        for ev in first.into_iter().chain(rx.try_iter()) {
            match ev {
                Event::Connected(id, queue, socket) => st.connect(id, queue, Some(socket)),
                Event::Msg(id, msg, body) => st.handle_msg(&mut ui, id, msg, &body),
                Event::Disconnected(id) => st.drop_conn(id),
                Event::Shutdown => stop = true,
            }
            if began.elapsed() >= TICK {
                break;
            }
        }
        if stop {
            break;
        }
        st.resolve_stale_hellos(&mut ui);
        st.expire_detached_sessions();
        let batches = st.multi.pump_all(&mut ui);
        st.route_batches(batches);
    }

    for conn in st.conns.values() {
        conn.queue.close();
    }
    ui
}

impl State {
    fn new(registry: Registry, session_grace: Duration, recorder: Option<SharedTap>) -> State {
        State {
            multi: MultiServer::with_telemetry(registry.clone()),
            conns: HashMap::new(),
            sessions: HashMap::new(),
            session_grace,
            metrics: StateMetrics::new(&registry),
            registry,
            recorder,
            started: Instant::now(),
        }
    }

    fn connect(&mut self, id: ConnId, queue: Arc<ByteQueue>, socket: Option<TcpStream>) {
        let conn = Conn {
            queue,
            socket,
            session: None,
            held: None,
        };
        self.conns.insert(id, conn);
    }

    /// The session named `name`, if one is live.
    fn find(&self, name: &str) -> Option<ClientId> {
        self.sessions
            .iter()
            .find(|(_, s)| s.name == name)
            .map(|(sid, _)| *sid)
    }

    /// Points session `sid` at connection `id`. The connection the
    /// record named before, if any, is displaced: its queue closes, and
    /// its late messages no longer reach the session.
    fn attach(&mut self, sid: ClientId, id: ConnId) {
        let Some(session) = self.sessions.get_mut(&sid) else {
            return;
        };
        if let Link::Attached(old) = std::mem::replace(&mut session.link, Link::Attached(id)) {
            if let Some(stale) = self.conns.get(&old) {
                stale.queue.close();
            }
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
            if let Some(conn) = self.conns.get(&id) {
                conn.queue.close();
            }
        }
        self.multi.disconnect(sid);
        Some(session.name)
    }

    /// Unbinds a dead socket; its session stays, detached.
    fn drop_conn(&mut self, id: ConnId) {
        if let Some(conn) = self.conns.remove(&id) {
            conn.queue.close();
            if let Some(sid) = conn.session {
                self.detach(sid, id);
            }
        }
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
                    self.conns[&id].queue.close();
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
                None => {
                    // Message before any Hello: protocol abuse, drop the peer.
                    self.metrics.decode_errors.inc();
                    self.conns[&id].queue.close();
                }
            },
        }
    }

    /// Encodes `replies` into one batch of frames, records each frame's
    /// body from that batch, and queues it for connection `id`.
    fn push_to(&mut self, id: ConnId, replies: &[ServerMessage]) {
        if replies.is_empty() {
            return;
        }
        let Some(conn) = self.conns.get(&id) else {
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
        if conn.queue.push(batch) == Pushed::Overflow {
            self.metrics.dropped_connections.inc();
            if let Some(socket) = &conn.socket {
                // Unblocks the writer and ends the reader with EOF, so the
                // connection goes; its session stays, detached.
                let _ = socket.shutdown(std::net::Shutdown::Both);
            }
        }
        self.metrics.queue_bytes.set(conn.queue.len() as i64);
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
    use uniint_protocol::message::{encode_client, encode_server, FrameReader, RectUpdate};
    use uniint_raster::geom::Rect;
    use uniint_raster::pixel::PixelFormat;
    use uniint_wsys::prelude::{Button, Theme};

    fn update(seq: u64, x: i32) -> ServerMessage {
        ServerMessage::Update {
            seq,
            format: PixelFormat::Rgb888,
            rects: vec![RectUpdate {
                rect: Rect::new(x, 0, 1, 1),
                encoding: uniint_protocol::encoding::Encoding::Raw,
                payload: vec![0, 0, 0],
            }],
        }
    }

    #[test]
    fn a_push_past_the_bound_closes_the_queue() {
        let q = ByteQueue::new(8);
        assert_eq!(q.push(vec![1; 5]), Pushed::Queued);
        assert_eq!(q.push(vec![2; 3]), Pushed::Queued, "exactly at the bound");
        assert_eq!(q.push(vec![3]), Pushed::Overflow);
        assert_eq!(q.len(), 0, "an overflowing queue lets go of its bytes");
        assert_eq!(q.push(vec![4]), Pushed::Closed);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn an_empty_queue_takes_a_batch_larger_than_the_bound() {
        let q = ByteQueue::new(4);
        assert_eq!(q.push(vec![7; 10]), Pushed::Queued);
        assert_eq!(q.pop(), Some(vec![7; 10]));
        assert_eq!(q.push(vec![8; 10]), Pushed::Queued, "empty again");
    }

    #[test]
    fn a_closed_queue_hands_out_what_it_held_then_ends() {
        let q = ByteQueue::new(64);
        q.push(vec![1, 2]);
        q.push(vec![3]);
        q.close();
        assert_eq!(q.push(vec![4]), Pushed::Closed);
        assert_eq!(q.pop(), Some(vec![1, 2, 3]));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn frames_leave_in_the_order_they_were_queued() {
        // Update / Resize / Update reach the socket as three frames in
        // that order: replaying the second update before the resize
        // would paint it into the old geometry.
        let msgs = [
            update(1, 0),
            ServerMessage::Resize {
                width: 10,
                height: 10,
            },
            update(2, 1),
        ];
        let q = ByteQueue::new(MAX_QUEUED_BYTES);
        for m in &msgs {
            q.push(encode_server(m));
        }
        let mut reader = FrameReader::new();
        reader.feed(&q.pop().expect("queued bytes"));
        for m in &msgs {
            let frame = reader.next_frame().unwrap().expect("whole frame");
            assert_eq!(
                &ServerMessage::decode_body(&mut frame.as_slice()).unwrap(),
                m
            );
        }
        assert_eq!(reader.buffered(), 0);
    }

    /// The state thread's logic without sockets: each connection is a
    /// bare outbound queue.
    struct Harness {
        st: State,
        ui: Ui,
        queues: HashMap<ConnId, Arc<ByteQueue>>,
    }

    impl Harness {
        fn new() -> Harness {
            let mut ui = Ui::new(160, 120, Theme::classic(), "state");
            ui.add(Button::new("Power"), Rect::new(20, 20, 80, 24));
            let grace = GatewayConfig::default().session_grace;
            Harness {
                st: State::new(Registry::new(), grace, None),
                ui,
                queues: HashMap::new(),
            }
        }

        fn connect(&mut self, id: ConnId) {
            let queue = Arc::new(ByteQueue::new(MAX_QUEUED_BYTES));
            self.queues.insert(id, queue.clone());
            self.st.connect(id, queue, None);
        }

        fn send(&mut self, id: ConnId, msgs: impl IntoIterator<Item = ClientMessage>) {
            for msg in msgs {
                let frame = encode_client(&msg);
                self.st.handle_msg(&mut self.ui, id, msg, &frame[4..]);
            }
        }

        /// Whether connection `id`'s queue was closed.
        fn closed(&self, id: ConnId) -> bool {
            self.queues[&id].inner.lock().unwrap().closed
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
        h.connect(0);
        h.send(0, [hello("x")]);
        h.connect(1);
        h.send(
            1,
            [hello("x"), ClientMessage::Resume { last_update_seq: 0 }],
        );
        assert!(h.closed(0), "the adopting socket displaces the first");

        h.send(0, click());
        assert_eq!(h.clicks(), 0, "a late click from the displaced socket");
        h.send(1, click());
        assert_eq!(h.clicks(), 1, "the adopting socket's click");
        assert!(!h.closed(1));
    }

    #[test]
    fn a_replaced_connection_does_not_reach_the_session_in_its_freed_slot() {
        let mut h = Harness::new();
        h.connect(0);
        h.send(0, [hello("x")]);
        let replaced = h.st.conns[&0].session.expect("bound");
        // A fresh client reusing the name: anything but Resume after the
        // Hello replaces the old session instead of adopting it.
        h.connect(1);
        h.send(1, [hello("x"), ClientMessage::SetEncodings(vec![])]);
        assert!(h.closed(0), "the replacing socket displaces the first");
        assert_eq!(
            h.st.conns[&1].session,
            Some(replaced),
            "the new session reuses the freed slot"
        );

        h.send(0, click());
        assert_eq!(h.clicks(), 0, "a late click from the replaced socket");
        h.send(1, click());
        assert_eq!(h.clicks(), 1, "the new session's click");
    }
}
