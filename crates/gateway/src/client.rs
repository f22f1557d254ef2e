//! The proxy-side connection lifecycle over a real TCP socket.
//!
//! [`GatewayClient`] wraps a [`uniint_core::proxy::UniIntProxy`] and one
//! non-blocking socket, and detects broken connections (end of stream or
//! a read error; a failed write shows up on the next read). Everything
//! else is the same [`ResumeMachine`] that
//! [`uniint_core::session::SimSession`] drives: it decodes the frames
//! read, decides what is written and when, and steps the recovery. The
//! client only moves bytes, with the gateway's own helpers
//! (`codec::read_into`, `codec::write_pending`): it reads into a
//! frame reader bounded by [`DEFAULT_MAX_FRAME`], writes through pending
//! bytes, keeps each backoff delay as the deadline of its next reconnect
//! attempt, and writes the machine's reattach on each fresh socket.
//!
//! Nothing here sleeps. [`pump_clients`] serves any number of clients
//! from one thread with the gateway loop's shape: one `poll(2)` of at
//! most `POLL`, cut short by the earliest reconnect deadline, then the
//! reads and reconnects that are ready. [`GatewayClient::pump_once`] is
//! that call for one client. Only the connect blocks, for at most the
//! longest backoff delay (500 ms): a gateway that is gone and refuses
//! it, as loopback does, costs no wait, but one whose host drops the
//! connect holds every client on the thread for that long per attempt.
//!
//! What the proxy queues between calls (a device switch, a supervisor's
//! notices, a recovery) leaves first at the next pump or send: both
//! flush its outbox through [`ResumeMachine::flush`].
//!
//! Each batch of messages leaves in one write: the proxy's outbox with
//! the messages of one [`GatewayClient::send_messages`] (or input), all
//! replies to the frames of one read, a `ResumeAck`'s retransmission
//! among them, and a reconnect's `Hello` with its `Resume`.

use std::collections::VecDeque;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use uniint_core::plugin::{DeviceEvent, DeviceFrame};
use uniint_core::proxy::{ProxyStats, UniIntProxy};
use uniint_core::resume::{BackoffPolicy, ResumeMachine, SessionError};
use uniint_protocol::message::{ClientMessage, FrameReader};

use crate::codec::{self, DEFAULT_MAX_FRAME, READ_CHUNK};
use crate::poll::{self, PollFd, POLLIN, POLLOUT};

/// The gateway's reconnect schedule: 10 ms doubling to 500 ms, 10 tries.
const BACKOFF: BackoffPolicy = BackoffPolicy {
    base_us: 10_000,
    cap_us: 500_000,
    max_attempts: 10,
};

/// Longest wait of one [`pump_clients`] call.
const POLL: Duration = Duration::from_millis(10);

/// A UniInt proxy attached to a [`crate::host::Gateway`] over TCP.
#[derive(Debug)]
pub struct GatewayClient {
    /// The protocol engine: framebuffer cache, device plug-ins, stats.
    pub proxy: UniIntProxy,
    addr: SocketAddr,
    /// Non-blocking. After a break, the dead connection's until a
    /// reconnect replaces it.
    stream: TcpStream,
    /// Server bytes read and not yet handled.
    frames: FrameReader,
    /// What one read takes, before it goes to `frames`.
    scratch: Box<[u8]>,
    /// Encoded client messages the socket has not taken yet.
    pending: VecDeque<u8>,
    /// After a break: when the next reconnect attempt is due.
    reconnect_at: Option<Instant>,
    /// The proxy-side driver: retransmission log, backoff, resume state
    /// and delivered frames.
    resume: ResumeMachine,
}

/// Opens a connection to the gateway: non-blocking, and without Nagle
/// (frames are latency-sensitive). The connect itself blocks, for at
/// most the longest backoff delay.
fn open(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_micros(BACKOFF.cap_us))?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

impl GatewayClient {
    /// Connects to `addr` with a private telemetry registry, completing
    /// the protocol handshake before returning.
    pub fn connect(
        addr: SocketAddr,
        name: impl Into<String>,
        seed: u64,
    ) -> Result<GatewayClient, SessionError> {
        let mut c = GatewayClient {
            proxy: UniIntProxy::new(name),
            addr,
            stream: open(addr)?,
            frames: FrameReader::with_max_body(DEFAULT_MAX_FRAME),
            scratch: vec![0; READ_CHUNK].into(),
            pending: VecDeque::new(),
            reconnect_at: None,
            resume: ResumeMachine::new(BACKOFF, seed),
        };
        let hello = c.proxy.connect();
        c.send_messages(hello);
        let deadline = Instant::now() + Duration::from_secs(10);
        while !c.proxy.is_connected() {
            if Instant::now() > deadline {
                let e = io::Error::new(io::ErrorKind::TimedOut, "handshake never completed");
                return Err(e.into());
            }
            c.pump_once()?;
        }
        Ok(c)
    }

    /// The client name sessions are keyed by.
    pub fn name(&self) -> &str {
        self.proxy.name()
    }

    /// Accumulated proxy statistics (stalls, resumes, retransmits...).
    pub fn stats(&self) -> ProxyStats {
        self.proxy.stats()
    }

    /// Bell count so far.
    pub fn bells(&self) -> u32 {
        self.resume.bells()
    }

    /// Frames delivered to the output device so far.
    pub fn frames_delivered(&self) -> u64 {
        self.resume.frames_delivered()
    }

    /// The most recent adapted device frame.
    pub fn last_frame(&self) -> Option<&DeviceFrame> {
        self.resume.last_frame()
    }

    /// Takes the most recent adapted frame.
    pub fn take_frame(&mut self) -> Option<DeviceFrame> {
        self.resume.take_frame()
    }

    /// Translates a device-native event through the input plug-in and
    /// sends the resulting protocol messages.
    pub fn device_input(&mut self, ev: &DeviceEvent) {
        let msgs = self.proxy.device_input(ev);
        self.send_messages(msgs);
    }

    /// Sends the proxy's outbox, then arbitrary client messages: the
    /// resume machine logs them for retransmission like any other
    /// traffic and writes them in one batch, or holds them while the
    /// connection is down or a resume awaits its ack.
    pub fn send_messages(&mut self, msgs: Vec<ClientMessage>) {
        let mut batch = Vec::new();
        let mut encode = |m: &ClientMessage| m.encode(&mut batch);
        self.resume.flush(&mut self.proxy, &mut encode);
        self.resume.send(msgs, encode);
        self.write(batch);
    }

    /// Severs the TCP connection abruptly, as a cable pull or crashed
    /// process would. The next [`pump_once`](Self::pump_once) detects
    /// the break and starts the reconnect/resume path.
    pub fn kill_socket(&self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    /// [`pump_clients`] for this client alone: waits at most `POLL` for
    /// its socket or its reconnect deadline, then moves what is ready.
    /// Detects connection breaks and recovers them (reconnect +
    /// incremental resume) transparently.
    ///
    /// Returns `true` when at least one server frame was processed.
    ///
    /// # Errors
    ///
    /// [`SessionError::Stalled`] when the gateway stayed unreachable for
    /// the whole backoff budget; [`SessionError::Protocol`] on an
    /// undecodable (hostile) byte stream.
    pub fn pump_once(&mut self) -> Result<bool, SessionError> {
        pump_clients(std::slice::from_mut(self)).remove(0)
    }

    /// Queues `batch` behind the pending bytes and writes what the
    /// socket takes now; with no bytes pending, the batch leaves in one
    /// `write`. Write errors are deliberately swallowed: the messages
    /// *are* logged, the broken socket surfaces on the next read, and
    /// the resume handshake retransmits everything the server never saw.
    fn write(&mut self, batch: Vec<u8>) {
        codec::queue(&mut self.pending, batch);
        let _ = codec::write_pending(&self.stream, &mut self.pending);
    }

    /// What [`pump_clients`] waits for on this client: its socket's
    /// bytes, and room for its pending bytes; nothing while it waits to
    /// reconnect.
    fn poll_fd(&self) -> PollFd {
        let out = if self.pending.is_empty() { 0 } else { POLLOUT };
        let socket = self.reconnect_at.is_none().then_some(&self.stream);
        PollFd::new(socket, POLLIN | out)
    }

    /// Moves what the wait found ready: makes the reconnect attempt that
    /// is due, or writes pending bytes and reads once from a socket that
    /// polled readable (or hung up), and handles the frames read.
    fn step(&mut self, revents: i16) -> Result<bool, SessionError> {
        if let Some(at) = self.reconnect_at {
            let due = Instant::now() >= at;
            return if due { self.reconnect() } else { Ok(false) };
        }
        if revents == 0 {
            return Ok(false);
        }
        let _ = codec::write_pending(&self.stream, &mut self.pending);
        // Readable, or hung up: either way, the read tells.
        if revents & !POLLOUT == 0 {
            return Ok(false);
        }
        match codec::read_into(&self.stream, &mut self.frames, &mut self.scratch) {
            Ok(None) => Ok(false),
            Ok(Some(0)) | Err(_) => self.broke(),
            Ok(Some(_)) => {
                let mut replies = Vec::new();
                let (resume, proxy, frames) = (&mut self.resume, &mut self.proxy, &mut self.frames);
                let handled = resume.receive_frames(proxy, frames, |m| m.encode(&mut replies));
                // Replies leave even when a later frame failed.
                self.write(replies);
                handled
            }
        }
    }

    /// The connection is down: schedules the next reconnect attempt
    /// after the machine's backoff delay.
    fn broke(&mut self) -> Result<bool, SessionError> {
        let delay_us = self.resume.retry(&mut self.proxy)?;
        self.reconnect_at = Some(Instant::now() + Duration::from_micros(delay_us));
        Ok(false)
    }

    /// Makes the reconnect attempt that is due. A fresh socket gets a
    /// fresh reader and pending bytes, for what the dead connection held
    /// half-received or unwritten is gone (the resume retransmits what
    /// the server missed), and then the machine's reattach in one batch.
    /// A refused attempt schedules the next.
    fn reconnect(&mut self) -> Result<bool, SessionError> {
        self.reconnect_at = None;
        let Ok(stream) = open(self.addr) else {
            return self.broke();
        };
        self.stream = stream;
        self.frames = FrameReader::with_max_body(DEFAULT_MAX_FRAME);
        self.pending = VecDeque::new();
        let mut batch = Vec::new();
        for m in self.resume.reconnected(&mut self.proxy).messages() {
            m.encode(&mut batch);
        }
        self.write(batch);
        Ok(false)
    }
}

/// Moves the bytes of every client in `clients` from one thread, the way
/// the gateway's loop does: first each client's proxy outbox, then one
/// `poll(2)` on every connected client's socket for at most `POLL`, cut
/// short by the earliest reconnect deadline; then each reconnect attempt
/// that is due, and a read of each socket that polled readable, with its
/// frames handled.
///
/// Returns one result per client, in order, as
/// [`GatewayClient::pump_once`] would.
pub fn pump_clients(clients: &mut [GatewayClient]) -> Vec<Result<bool, SessionError>> {
    for c in clients.iter_mut() {
        c.send_messages(Vec::new());
    }
    let now = Instant::now();
    let timeout = clients
        .iter()
        .filter_map(|c| Some(c.reconnect_at?.saturating_duration_since(now)))
        .fold(POLL, Duration::min);
    let mut fds: Vec<PollFd> = clients.iter().map(GatewayClient::poll_fd).collect();
    poll::wait(&mut fds, timeout);
    clients
        .iter_mut()
        .zip(&fds)
        .map(|(c, fd)| c.step(fd.revents))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;
    use std::sync::mpsc;
    use uniint_protocol::error::ProtocolError;
    use uniint_protocol::message::{encode_server, ServerMessage, PROTOCOL_VERSION};
    use uniint_raster::pixel::PixelFormat;

    #[test]
    fn a_frame_past_the_bound_is_refused_before_its_body() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (go, ready) = mpsc::channel::<()>();
        // A fake gateway: it completes the handshake, then declares a
        // 1 GiB body, of which only the length prefix ever ships.
        let server = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let init = ServerMessage::Init {
                version: PROTOCOL_VERSION,
                width: 16,
                height: 16,
                format: PixelFormat::Rgb888,
                name: "fake".into(),
            };
            sock.write_all(&encode_server(&init)).unwrap();
            ready.recv().unwrap();
            sock.write_all(&(1u32 << 30).to_be_bytes()).unwrap();
            sock
        });
        let mut c = GatewayClient::connect(addr, "bounded", 1).expect("handshake");
        go.send(()).unwrap();
        let _keep = server.join().unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        let err = loop {
            match c.pump_once() {
                Ok(_) => assert!(Instant::now() < deadline, "the length prefix never came"),
                Err(e) => break e,
            }
        };
        assert!(
            matches!(
                err,
                SessionError::Protocol(ProtocolError::FrameTooLarge { declared, max })
                    if declared == 1 << 30 && max == DEFAULT_MAX_FRAME as u64
            ),
            "{err}"
        );
        assert_eq!(c.frames.buffered(), 4, "only the length prefix is held");
    }
}
