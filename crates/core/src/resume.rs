//! The proxy side of a connection: what goes on the wire, and how a
//! broken connection is brought back.
//!
//! [`ResumeMachine`] holds all recovery state and does no I/O. A
//! transport ([`crate::session::SimSession`] over the network simulator,
//! `uniint_gateway::client::GatewayClient` over TCP) moves bytes and
//! hands everything else to three entry points:
//!
//! - [`send`](ResumeMachine::send) logs each client message and writes
//!   it, unless a `Resume` is waiting for its ack: then the message is
//!   held, unwritten, and goes out with the ack's retransmissions.
//! - [`receive`](ResumeMachine::receive) takes each decoded server
//!   message. A `ResumeAck` first resends the log tail the server never
//!   saw (and escalates if it must); then the proxy handles the message
//!   and its replies go through `send`.
//! - [`recover`](ResumeMachine::recover) runs the backoff loop after the
//!   transport finds the connection dead. A closure per attempt waits
//!   out the delay, tries to reconnect and reports whether it worked;
//!   the machine answers how to restart the conversation ([`Reattach`]).
//!
//! The rules behind them:
//!
//! - **Backoff.** Attempt delays start at the policy's base and double up
//!   to its cap, plus jitter drawn from `0..=delay/4` by an RNG seeded
//!   from the session seed; past the attempt budget the machine reports
//!   [`Stalled`].
//! - **Resume.** After a reconnect the proxy sends `Resume`, unlogged
//!   because the server leaves it out of its received-message count.
//! - **Retransmission.** Every other client message is logged in send
//!   order; `ResumeAck::client_msgs_received` indexes into the log, and
//!   the tail past it is resent verbatim. Messages held while the resume
//!   was unacked are part of that tail, so each reaches the server once
//!   and in order. The log is trimmed only on acks.
//! - **Escalation.** After [`MAX_FAILED_RESUMES`] resumes in a row die
//!   before their ack, the next ack's retransmissions are followed by a
//!   full refresh ([`UniIntProxy::recover`]).

use crate::proxy::{ProxyOutput, UniIntProxy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uniint_protocol::error::ProtocolError;
use uniint_protocol::message::{ClientMessage, ServerMessage};

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

/// Every reconnect attempt of a stall failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stalled {
    /// Reconnect attempts made before giving up.
    pub attempts: u32,
}

/// How to restart the protocol conversation on a fresh connection.
#[derive(Debug, Clone, PartialEq)]
pub enum Reattach {
    /// The break beat the handshake: the session starts over with these
    /// messages (a new `Hello`), already logged.
    Fresh(Vec<ClientMessage>),
    /// Resume the established session with this `Resume`, unlogged.
    /// Until its ack arrives, [`ResumeMachine::send`] holds new traffic.
    Resume(ClientMessage),
}

impl Reattach {
    /// The messages to write on the new connection, in order.
    pub fn messages(&self) -> &[ClientMessage] {
        match self {
            Reattach::Fresh(msgs) => msgs,
            Reattach::Resume(resume) => std::slice::from_ref(resume),
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
    /// Resumes sent since the last ack: all but the newest were lost.
    /// While it is nonzero, new traffic is logged but not written.
    unacked_resumes: u32,
    /// The next ack must be followed by a full refresh.
    escalate: bool,
}

impl ResumeMachine {
    /// A machine for a session seeded with `seed`.
    pub fn new(policy: BackoffPolicy, seed: u64) -> ResumeMachine {
        ResumeMachine {
            policy,
            log: Vec::new(),
            log_offset: 0,
            rng: StdRng::seed_from_u64(seed ^ BACKOFF_SEED_SALT),
            unacked_resumes: 0,
            escalate: false,
        }
    }

    /// Logs regular client messages in order and writes each one, or
    /// holds it while a `Resume` waits for its ack.
    ///
    /// All client traffic except the [`Reattach`] messages must pass
    /// through here, so the log stays aligned with the server's count.
    pub fn send(&mut self, msgs: Vec<ClientMessage>, mut write: impl FnMut(&ClientMessage)) {
        for m in msgs {
            if self.unacked_resumes == 0 {
                write(&m);
            }
            self.log.push(m);
        }
    }

    /// Handles one server message: a `ResumeAck` first writes the
    /// client messages the server reports missing (then a full refresh
    /// if the session escalated); then the proxy handles the message and
    /// its replies go through [`send`](Self::send). Returns the proxy's
    /// output with its messages already sent.
    ///
    /// # Errors
    ///
    /// Propagates [`UniIntProxy::handle_server`]'s errors.
    pub fn receive(
        &mut self,
        proxy: &mut UniIntProxy,
        msg: &ServerMessage,
        mut write: impl FnMut(&ClientMessage),
    ) -> Result<ProxyOutput, ProtocolError> {
        if let ServerMessage::ResumeAck {
            client_msgs_received,
            ..
        } = msg
        {
            self.acked(proxy, *client_msgs_received);
            self.log.iter().for_each(&mut write);
        }
        let mut out = proxy.handle_server(msg)?;
        self.send(std::mem::take(&mut out.messages), write);
        Ok(out)
    }

    /// The connection broke: runs reconnect attempts under the backoff
    /// schedule. `attempt(delay_us)` waits `delay_us`, tries to reconnect
    /// and returns whether it worked. On success, returns how to restart
    /// the conversation; the transport writes [`Reattach::messages`].
    ///
    /// # Errors
    ///
    /// [`Stalled`] once the attempt budget is spent.
    pub fn recover(
        &mut self,
        proxy: &mut UniIntProxy,
        mut attempt: impl FnMut(u64) -> bool,
    ) -> Result<Reattach, Stalled> {
        proxy.record_stall();
        let mut delay_us = self.policy.base_us;
        for _ in 0..self.policy.max_attempts {
            proxy.record_backoff_attempt();
            if attempt(delay_us + self.rng.gen_range(0..=delay_us / 4)) {
                return Ok(self.reattach(proxy));
            }
            delay_us = (delay_us * 2).min(self.policy.cap_us);
        }
        Err(Stalled {
            attempts: self.policy.max_attempts,
        })
    }

    fn reattach(&mut self, proxy: &mut UniIntProxy) -> Reattach {
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
        Reattach::Resume(proxy.make_resume())
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
            self.log.extend(proxy.recover());
        }
    }
}
