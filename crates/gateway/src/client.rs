//! The proxy-side connection lifecycle over a real TCP socket.
//!
//! [`GatewayClient`] wraps a [`uniint_core::proxy::UniIntProxy`] and
//! detects broken connections (EOF or read error; a failed write shows
//! up as EOF on the next read). Everything else is the same
//! [`ResumeMachine`] that [`uniint_core::session::SimSession`] drives:
//! it decodes the frames read, decides what is written and when, and
//! runs the recovery. The client only moves bytes: it fills and writes
//! the socket, sleeps out each backoff delay, and reconnects with a
//! fresh `TcpStream`, on which it writes the machine's reattach.
//!
//! Each batch of messages leaves in one write: the messages of one
//! [`GatewayClient::send_messages`] (or input, or renegotiation), all
//! replies to the frames of one [`GatewayClient::pump_once`] read, a
//! `ResumeAck`'s retransmission among them, and a reconnect's `Hello`
//! with its `Resume`.

use std::io;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use uniint_core::plugin::{DeviceEvent, DeviceFrame, InputPlugin, OutputPlugin};
use uniint_core::proxy::{ProxyStats, UniIntProxy};
use uniint_core::resume::{BackoffPolicy, ResumeMachine, SessionError};
use uniint_protocol::message::ClientMessage;

use crate::codec::{FramedSocket, ReadStatus, DEFAULT_MAX_FRAME};

/// The gateway's reconnect schedule: 10 ms doubling to 500 ms, 10 tries.
const BACKOFF: BackoffPolicy = BackoffPolicy {
    base_us: 10_000,
    cap_us: 500_000,
    max_attempts: 10,
};

/// Socket read timeout per [`GatewayClient::pump_once`] call.
const POLL: Duration = Duration::from_millis(10);

/// A UniInt proxy attached to a [`crate::host::Gateway`] over TCP.
#[derive(Debug)]
pub struct GatewayClient {
    /// The protocol engine: framebuffer cache, device plug-ins, stats.
    pub proxy: UniIntProxy,
    addr: SocketAddr,
    sock: FramedSocket,
    /// The proxy-side driver: retransmission log, backoff, resume state
    /// and delivered frames.
    resume: ResumeMachine,
}

impl GatewayClient {
    /// Connects to `addr` with a private telemetry registry, completing
    /// the protocol handshake before returning.
    pub fn connect(
        addr: SocketAddr,
        name: impl Into<String>,
        seed: u64,
    ) -> Result<GatewayClient, SessionError> {
        let stream = TcpStream::connect(addr)?;
        let mut c = GatewayClient {
            proxy: UniIntProxy::new(name),
            addr,
            sock: FramedSocket::new(stream, DEFAULT_MAX_FRAME, POLL)?,
            resume: ResumeMachine::new(BACKOFF, seed),
        };
        let hello = c.proxy.connect();
        c.send_logged(hello);
        let deadline = Instant::now() + Duration::from_secs(10);
        while !c.proxy.is_connected() {
            c.pump_once()?;
            if Instant::now() > deadline {
                return Err(SessionError::Io(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "handshake never completed",
                )));
            }
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

    /// Installs an input plug-in (see [`UniIntProxy::attach_input`]).
    pub fn attach_input(&mut self, plugin: Box<dyn InputPlugin>) {
        self.proxy.attach_input(plugin);
    }

    /// Installs an output plug-in and sends the session renegotiation it
    /// requires (pixel format, encodings, full refresh).
    pub fn attach_output(&mut self, plugin: Box<dyn OutputPlugin>) {
        let msgs = self.proxy.attach_output(plugin);
        self.send_logged(msgs);
    }

    /// Translates a device-native event through the input plug-in and
    /// sends the resulting protocol messages.
    pub fn device_input(&mut self, ev: &DeviceEvent) {
        let msgs = self.proxy.device_input(ev);
        self.send_logged(msgs);
    }

    /// Sends arbitrary client messages (they enter the retransmission
    /// log like any other traffic).
    pub fn send_messages(&mut self, msgs: Vec<ClientMessage>) {
        self.send_logged(msgs);
    }

    /// Severs the TCP connection abruptly, as a cable pull or crashed
    /// process would. The next [`pump_once`](Self::pump_once) detects
    /// the break and runs the reconnect/resume path.
    pub fn kill_socket(&self) {
        let _ = self.sock.stream().shutdown(Shutdown::Both);
    }

    /// One poll cycle: read what arrived, and hand its frames to the
    /// resume machine, which feeds the proxy and queues its replies.
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
        match self.sock.fill() {
            Ok(ReadStatus::Idle) => Ok(false),
            Ok(ReadStatus::Eof) | Err(_) => {
                self.reconnect()?;
                Ok(false)
            }
            Ok(ReadStatus::Data(_)) => {
                let (frames, queue) = self.sock.split();
                let handled = self.resume.receive_frames(&mut self.proxy, frames, queue);
                // Replies leave even when a later frame failed.
                let _ = self.sock.send_batch();
                handled
            }
        }
    }

    /// Hands client messages to the resume machine, which logs them and
    /// writes them in one batch (or holds them while a resume awaits its
    /// ack).
    ///
    /// Write errors are deliberately swallowed: the messages *are* logged,
    /// the broken socket surfaces as EOF on the next read, and the
    /// resume handshake retransmits everything the server never saw.
    fn send_logged(&mut self, msgs: Vec<ClientMessage>) {
        self.resume.send(msgs, |m| self.sock.queue(m));
        let _ = self.sock.send_batch();
    }

    /// Re-establishes TCP under the backoff schedule, then writes the
    /// machine's reattach in one batch. A fresh `FramedSocket` also
    /// discards any half-received frame from the dead connection.
    fn reconnect(&mut self) -> Result<(), SessionError> {
        let reattach = self.resume.recover(&mut self.proxy, |delay_us| {
            thread::sleep(Duration::from_micros(delay_us));
            TcpStream::connect(self.addr)
                .and_then(|s| FramedSocket::new(s, DEFAULT_MAX_FRAME, POLL))
                .map(|fresh| self.sock = fresh)
                .is_ok()
        })?;
        reattach.messages().iter().for_each(|m| self.sock.queue(m));
        let _ = self.sock.send_batch();
        Ok(())
    }
}
