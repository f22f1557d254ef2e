//! The proxy side of a connection: what goes on the wire, and how a
//! broken connection is brought back.
//!
//! [`ResumeMachine`] is the one proxy-side driver. It holds all recovery
//! state, the frames delivered to the output device and the bells, and
//! does no I/O. A transport ([`crate::session::SimSession`] over the
//! network simulator, `uniint_gateway::client::GatewayClient` over TCP)
//! moves bytes and hands everything else to three entry points:
//!
//! - [`send`](ResumeMachine::send) logs each client message and writes
//!   it, unless the connection is down or a `Resume` is waiting for its
//!   ack: then the message is held, unwritten, and goes out with the
//!   ack's retransmissions. Each transport [`flush`](ResumeMachine::flush)es
//!   the proxy's outbox this way before it moves bytes.
//! - [`receive_frames`](ResumeMachine::receive_frames) decodes every
//!   whole frame the transport has read and hands each server message
//!   to the proxy. Once the proxy has accepted a `ResumeAck`, the
//!   machine resends the log tail the server never saw (and escalates if
//!   it must); then the proxy's replies go through `send`.
//! - [`retry`](ResumeMachine::retry) and
//!   [`reconnected`](ResumeMachine::reconnected) step the backoff after
//!   the transport finds the connection dead. Each `retry` counts one
//!   reconnect attempt and answers how long to wait before making it;
//!   the transport keeps that delay as its own deadline (virtual time in
//!   the simulator, a wall-clock instant on TCP), so the machine never
//!   waits. Once an attempt works, `reconnected` answers how to restart
//!   the conversation ([`Reattach`]).
//!
//! Both transports fail with one [`SessionError`].
//!
//! The rules behind them:
//!
//! - **Backoff.** The first `retry` after a break records the stall.
//!   Attempt delays start at the policy's base and double up to its cap,
//!   plus jitter drawn from `0..=delay/4` by an RNG seeded from the
//!   session seed; past the attempt budget the machine reports
//!   [`SessionError::Stalled`], and the next `retry` starts a new
//!   recovery.
//! - **Reattach.** After a reconnect the proxy sends `Hello` then
//!   `Resume` on the new connection, neither logged: the session host
//!   finds the session by the `Hello`'s name and adopts it on the
//!   `Resume` without forwarding that `Hello`, and the server leaves
//!   `Resume` out of its received-message count. A break that beat the
//!   handshake starts over with a fresh, logged `Hello`.
//! - **Retransmission.** Every other client message is logged in send
//!   order; `ResumeAck::client_msgs_received` indexes into the log, and
//!   the tail past it is resent verbatim. Messages held while the resume
//!   was unacked are part of that tail, so each reaches the server once
//!   and in order. The log is trimmed only on acks.
//! - **Escalation.** After [`MAX_FAILED_RESUMES`] resumes in a row die
//!   before their ack, the next ack's retransmissions are followed by a
//!   full refresh ([`UniIntProxy::recover`], taken from the outbox and
//!   logged), and then by the ack's own fetch.

use crate::plugin::DeviceFrame;
use crate::proxy::{ProxyOutput, UniIntProxy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uniint_protocol::error::ProtocolError;
use uniint_protocol::message::{ClientMessage, FrameReader, ServerMessage};

/// Mixed into the session seed for the backoff RNG, so jitter draws are
/// independent of every other RNG seeded from the same session seed.
const BACKOFF_SEED_SALT: u64 = 0x5e55_10e5_b0ff_0e5e;

/// Consecutive resumes that may die on the wire before the session
/// escalates to a full refresh instead of an incremental one.
pub const MAX_FAILED_RESUMES: u32 = 3;

/// A transport's reconnect schedule: exponential backoff with jitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Delay before the first reconnect attempt, microseconds.
    pub base_us: u64,
    /// Delay ceiling, microseconds.
    pub cap_us: u64,
    /// Reconnect attempts per stall before giving up.
    pub max_attempts: u32,
}

/// Why a proxy-side session operation failed, on either transport.
#[derive(Debug)]
pub enum SessionError {
    /// Socket-level failure outside the recoverable set.
    Io(std::io::Error),
    /// The server sent something undecodable or invalid.
    Protocol(ProtocolError),
    /// The connection stalled and every reconnect attempt failed: the
    /// link never came back within the backoff budget.
    Stalled {
        /// Reconnect attempts made before giving up.
        attempts: u32,
    },
}

impl From<std::io::Error> for SessionError {
    fn from(e: std::io::Error) -> SessionError {
        SessionError::Io(e)
    }
}

impl From<ProtocolError> for SessionError {
    fn from(e: ProtocolError) -> SessionError {
        SessionError::Protocol(e)
    }
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Io(e) => write!(f, "socket error: {e}"),
            SessionError::Protocol(e) => write!(f, "protocol error: {e}"),
            SessionError::Stalled { attempts } => {
                write!(f, "stalled; gave up after {attempts} reconnect attempts")
            }
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::Io(e) => Some(e),
            SessionError::Protocol(e) => Some(e),
            SessionError::Stalled { .. } => None,
        }
    }
}

/// How to restart the protocol conversation on a fresh connection.
#[derive(Debug, Clone, PartialEq)]
pub enum Reattach {
    /// The break beat the handshake: the session starts over with these
    /// messages (a new `Hello`), already logged.
    Fresh(Vec<ClientMessage>),
    /// Resume the established session with `Hello` then `Resume`, both
    /// unlogged. Until the ack arrives, [`ResumeMachine::send`] holds new
    /// traffic.
    Resume(Vec<ClientMessage>),
}

impl Reattach {
    /// The messages to write on the new connection, in order.
    pub fn messages(&self) -> &[ClientMessage] {
        match self {
            Reattach::Fresh(msgs) | Reattach::Resume(msgs) => msgs,
        }
    }
}

/// The proxy side of one connection; see the module docs.
#[derive(Debug)]
pub struct ResumeMachine {
    policy: BackoffPolicy,
    /// Every logged client message in send order, minus an acknowledged
    /// prefix of `log_offset` messages.
    log: Vec<ClientMessage>,
    log_offset: u64,
    rng: StdRng,
    /// While the connection is down: the attempts made so far and the
    /// undithered delay before the next.
    backoff: Option<(u32, u64)>,
    /// Resumes sent since the last ack: all but the newest were lost.
    /// While it is nonzero, new traffic is logged but not written.
    unacked_resumes: u32,
    /// The next ack must be followed by a full refresh.
    escalate: bool,
    last_frame: Option<DeviceFrame>,
    frames_delivered: u64,
    bells: u32,
}

impl ResumeMachine {
    /// A machine for a session seeded with `seed`.
    pub fn new(policy: BackoffPolicy, seed: u64) -> ResumeMachine {
        ResumeMachine {
            policy,
            log: Vec::new(),
            log_offset: 0,
            rng: StdRng::seed_from_u64(seed ^ BACKOFF_SEED_SALT),
            backoff: None,
            unacked_resumes: 0,
            escalate: false,
            last_frame: None,
            frames_delivered: 0,
            bells: 0,
        }
    }

    /// The most recent frame adapted for the output device.
    pub fn last_frame(&self) -> Option<&DeviceFrame> {
        self.last_frame.as_ref()
    }

    /// Takes the most recent adapted frame.
    pub fn take_frame(&mut self) -> Option<DeviceFrame> {
        self.last_frame.take()
    }

    /// Frames delivered to the output device so far.
    pub fn frames_delivered(&self) -> u64 {
        self.frames_delivered
    }

    /// Bell count so far.
    pub fn bells(&self) -> u32 {
        self.bells
    }

    /// Logs regular client messages in order and writes each one, or
    /// holds it while the connection is down or a `Resume` waits for its
    /// ack.
    ///
    /// All client traffic except the [`Reattach`] messages must pass
    /// through here, so the log stays aligned with the server's count.
    pub fn send(&mut self, msgs: Vec<ClientMessage>, mut write: impl FnMut(&ClientMessage)) {
        for m in msgs {
            if self.unacked_resumes == 0 && self.backoff.is_none() {
                write(&m);
            }
            self.log.push(m);
        }
    }

    /// [`send`](Self::send)s every message queued in `proxy`'s outbox.
    pub fn flush(&mut self, proxy: &mut UniIntProxy, write: impl FnMut(&ClientMessage)) {
        self.send(proxy.take_outbox(), write);
    }

    /// Decodes every whole frame in `frames` and [`receive`](Self::receive)s
    /// each server message, keeping the adapted frames and bells. Returns
    /// whether there was at least one frame.
    ///
    /// # Errors
    ///
    /// [`SessionError::Protocol`] for a frame that is too large or does
    /// not decode, or a message the proxy refuses; the frames before it
    /// were handled and their replies written.
    pub fn receive_frames(
        &mut self,
        proxy: &mut UniIntProxy,
        frames: &mut FrameReader,
        mut write: impl FnMut(&ClientMessage),
    ) -> Result<bool, SessionError> {
        let mut handled = false;
        while let Some(frame) = frames.next_frame()? {
            handled = true;
            let msg = ServerMessage::decode_body(&mut frame.as_slice())?;
            let out = self.receive(proxy, &msg, &mut write)?;
            if let Some(f) = out.frame {
                self.last_frame = Some(f);
                self.frames_delivered += 1;
            }
            self.bells += u32::from(out.bell);
        }
        Ok(handled)
    }

    /// Handles one server message: the proxy takes it first; an accepted
    /// `ResumeAck` then writes the client messages the server reports
    /// missing (then a full refresh if the session escalated); last, the
    /// proxy's replies go through [`send`](Self::send). Returns the
    /// proxy's output with its messages already sent.
    ///
    /// # Errors
    ///
    /// Propagates [`UniIntProxy::handle_server`]'s errors; a refused
    /// message writes nothing.
    pub fn receive(
        &mut self,
        proxy: &mut UniIntProxy,
        msg: &ServerMessage,
        mut write: impl FnMut(&ClientMessage),
    ) -> Result<ProxyOutput, ProtocolError> {
        let mut out = proxy.handle_server(msg)?;
        if let ServerMessage::ResumeAck {
            client_msgs_received,
            ..
        } = msg
        {
            self.acked(proxy, *client_msgs_received);
            self.log.iter().for_each(&mut write);
        }
        self.send(std::mem::take(&mut out.messages), write);
        Ok(out)
    }

    /// The connection is down: counts one reconnect attempt and returns
    /// how long to wait before making it, in microseconds. The first call
    /// after a break records the stall.
    ///
    /// # Errors
    ///
    /// [`SessionError::Stalled`] once the attempt budget is spent; the
    /// next call starts a new recovery.
    pub fn retry(&mut self, proxy: &mut UniIntProxy) -> Result<u64, SessionError> {
        let (attempts, delay_us) = self.backoff.get_or_insert_with(|| {
            proxy.record_stall();
            (0, self.policy.base_us)
        });
        if *attempts == self.policy.max_attempts {
            self.backoff = None;
            return Err(SessionError::Stalled {
                attempts: self.policy.max_attempts,
            });
        }
        proxy.record_backoff_attempt();
        *attempts += 1;
        let delay = std::mem::replace(delay_us, (*delay_us * 2).min(self.policy.cap_us));
        Ok(delay + self.rng.gen_range(0..=delay / 4))
    }

    /// The reconnect attempt worked: ends the recovery and returns how to
    /// restart the conversation. The transport writes
    /// [`Reattach::messages`] on the new connection.
    pub fn reconnected(&mut self, proxy: &mut UniIntProxy) -> Reattach {
        self.backoff = None;
        if !proxy.is_connected() {
            let hello = proxy.connect();
            self.log = hello.clone();
            self.log_offset = 0;
            self.unacked_resumes = 0;
            self.escalate = false;
            return Reattach::Fresh(hello);
        }
        self.unacked_resumes += 1;
        if self.unacked_resumes > MAX_FAILED_RESUMES {
            // Start counting lost resumes afresh from this one.
            self.unacked_resumes = 1;
            self.escalate = true;
        }
        Reattach::Resume(vec![proxy.hello(), proxy.make_resume()])
    }

    /// The server acknowledged a resume having received
    /// `client_msgs_received` client messages: trims the log to the
    /// messages it is missing, which are now to be resent, and appends
    /// the full refresh if the session escalated.
    fn acked(&mut self, proxy: &mut UniIntProxy, client_msgs_received: u64) {
        self.unacked_resumes = 0;
        let start = client_msgs_received.saturating_sub(self.log_offset) as usize;
        if start > 0 {
            // Everything before the ack count is known-received.
            self.log.drain(..start.min(self.log.len()));
            self.log_offset = client_msgs_received.min(self.log_offset + start as u64);
        }
        proxy.record_retransmits(self.log.len() as u64);
        if std::mem::take(&mut self.escalate) {
            proxy.recover();
            self.log.extend(proxy.take_outbox());
        }
    }
}
