//! The proxy-side connection lifecycle over a real TCP socket.
//!
//! [`GatewayClient`] wraps a [`uniint_core::proxy::UniIntProxy`] and
//! detects broken connections (EOF or read error; a failed write shows
//! up as EOF on the next read). Everything else is the same
//! [`ResumeMachine`] that [`uniint_core::session::SimSession`] uses: it
//! decides what is written and when, and runs the recovery. The client
//! only moves bytes: it fills and writes the socket, sleeps out each
//! backoff delay, reconnects with a fresh `TcpStream`, and sends a raw
//! `Hello` before the machine's `Resume`, since the gateway keys
//! sessions by name.
//!
//! Each batch of messages leaves in one write: the messages of one
//! [`GatewayClient::send_messages`] (or input, or renegotiation), all
//! replies to the frames of one [`GatewayClient::pump_once`] read, a
//! `ResumeAck`'s retransmission among them, and a reconnect's `Hello`
//! with its reattach messages.

use std::io;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use uniint_core::plugin::{DeviceEvent, DeviceFrame, InputPlugin, OutputPlugin};
use uniint_core::proxy::{ProxyStats, UniIntProxy};
use uniint_core::resume::{BackoffPolicy, Reattach, ResumeMachine, Stalled};
use uniint_protocol::error::ProtocolError;
use uniint_protocol::message::{ClientMessage, ServerMessage, PROTOCOL_VERSION};

use crate::codec::{FramedSocket, ReadStatus, DEFAULT_MAX_FRAME};

/// The gateway's reconnect schedule: 10 ms doubling to 500 ms, 10 tries.
const BACKOFF: BackoffPolicy = BackoffPolicy {
    base_us: 10_000,
    cap_us: 500_000,
    max_attempts: 10,
};

/// Socket read timeout per [`GatewayClient::pump_once`] call.
const POLL: Duration = Duration::from_millis(10);

/// Why a [`GatewayClient`] operation failed.
#[derive(Debug)]
pub enum GatewayError {
    /// Socket-level failure outside the recoverable set.
    Io(io::Error),
    /// The server sent something undecodable.
    Protocol(ProtocolError),
    /// The connection stalled and every reconnect attempt failed.
    Stalled {
        /// Reconnect attempts made before giving up.
        attempts: u32,
    },
}

impl From<Stalled> for GatewayError {
    fn from(Stalled { attempts }: Stalled) -> GatewayError {
        GatewayError::Stalled { attempts }
    }
}

impl From<io::Error> for GatewayError {
    fn from(e: io::Error) -> GatewayError {
        GatewayError::Io(e)
    }
}

impl From<ProtocolError> for GatewayError {
    fn from(e: ProtocolError) -> GatewayError {
        GatewayError::Protocol(e)
    }
}

impl std::fmt::Display for GatewayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GatewayError::Io(e) => write!(f, "socket error: {e}"),
            GatewayError::Protocol(e) => write!(f, "protocol error: {e}"),
            GatewayError::Stalled { attempts } => {
                write!(f, "stalled; gave up after {attempts} reconnect attempts")
            }
        }
    }
}

impl std::error::Error for GatewayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GatewayError::Io(e) => Some(e),
            GatewayError::Protocol(e) => Some(e),
            GatewayError::Stalled { .. } => None,
        }
    }
}

/// A UniInt proxy attached to a [`crate::host::Gateway`] over TCP.
#[derive(Debug)]
pub struct GatewayClient {
    /// The protocol engine: framebuffer cache, device plug-ins, stats.
    pub proxy: UniIntProxy,
    addr: SocketAddr,
    sock: FramedSocket,
    /// Retransmission log, backoff and resume state.
    resume: ResumeMachine,
    last_frame: Option<DeviceFrame>,
    frames_delivered: u64,
    bells: u32,
}

impl GatewayClient {
    /// Connects to `addr` with a private telemetry registry, completing
    /// the protocol handshake before returning.
    pub fn connect(
        addr: SocketAddr,
        name: impl Into<String>,
        seed: u64,
    ) -> Result<GatewayClient, GatewayError> {
        let stream = TcpStream::connect(addr)?;
        let mut c = GatewayClient {
            proxy: UniIntProxy::new(name),
            addr,
            sock: FramedSocket::new(stream, DEFAULT_MAX_FRAME, POLL)?,
            resume: ResumeMachine::new(BACKOFF, seed),
            last_frame: None,
            frames_delivered: 0,
            bells: 0,
        };
        let hello = c.proxy.connect();
        c.send_logged(hello);
        let deadline = Instant::now() + Duration::from_secs(10);
        while !c.proxy.is_connected() {
            c.pump_once()?;
            if Instant::now() > deadline {
                return Err(GatewayError::Io(io::Error::new(
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
        self.bells
    }

    /// Frames delivered to the output device so far.
    pub fn frames_delivered(&self) -> u64 {
        self.frames_delivered
    }

    /// The most recent adapted device frame.
    pub fn last_frame(&self) -> Option<&DeviceFrame> {
        self.last_frame.as_ref()
    }

    /// Takes the most recent adapted frame.
    pub fn take_frame(&mut self) -> Option<DeviceFrame> {
        self.last_frame.take()
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

    /// One poll cycle: read what arrived, decode frames, feed the proxy,
    /// send its replies. Detects connection breaks and recovers them
    /// (reconnect + incremental resume) transparently.
    ///
    /// Returns `true` when at least one server frame was processed.
    ///
    /// # Errors
    ///
    /// [`GatewayError::Stalled`] when the gateway stayed unreachable for
    /// the whole backoff budget; [`GatewayError::Protocol`] on an
    /// undecodable (hostile) byte stream.
    pub fn pump_once(&mut self) -> Result<bool, GatewayError> {
        match self.sock.fill() {
            Ok(ReadStatus::Idle) => Ok(false),
            Ok(ReadStatus::Eof) | Err(_) => {
                self.reconnect()?;
                Ok(false)
            }
            Ok(ReadStatus::Data(_)) => {
                let handled = self.handle_frames();
                // Replies leave even when a later frame failed.
                let _ = self.sock.send_batch();
                handled
            }
        }
    }

    /// Handles every whole frame read so far, queueing the replies.
    /// Returns `true` when there was at least one.
    fn handle_frames(&mut self) -> Result<bool, GatewayError> {
        let mut processed = false;
        while let Some(frame) = self.sock.next_frame()? {
            processed = true;
            let msg = ServerMessage::decode_body(&mut frame.as_slice())?;
            let out = self
                .resume
                .receive(&mut self.proxy, &msg, |m| self.sock.queue(m))?;
            if let Some(f) = out.frame {
                self.last_frame = Some(f);
                self.frames_delivered += 1;
            }
            if out.bell {
                self.bells += 1;
            }
        }
        Ok(processed)
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

    /// Re-establishes TCP under the backoff schedule, then reattaches
    /// the protocol session. A fresh `FramedSocket` also discards any
    /// half-received frame from the dead connection.
    fn reconnect(&mut self) -> Result<(), GatewayError> {
        let reattach = self.resume.recover(&mut self.proxy, |delay_us| {
            thread::sleep(Duration::from_micros(delay_us));
            TcpStream::connect(self.addr)
                .and_then(|s| FramedSocket::new(s, DEFAULT_MAX_FRAME, POLL))
                .map(|fresh| self.sock = fresh)
                .is_ok()
        })?;
        if let Reattach::Resume(_) = reattach {
            // The gateway keys sessions by name: announce it first.
            self.sock.queue(&ClientMessage::Hello {
                version: PROTOCOL_VERSION,
                name: self.proxy.name().to_owned(),
            });
        }
        for m in reattach.messages() {
            self.sock.queue(m);
        }
        let _ = self.sock.send_batch();
        Ok(())
    }
}
