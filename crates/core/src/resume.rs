//! The reconnect/resume state machine every proxy transport drives.
//!
//! [`ResumeMachine`] holds all recovery state and does no I/O. Events go
//! in (message sent, link broke, attempt failed, reconnected, `ResumeAck`);
//! out come backoff delays and messages to send. Waiting, reconnecting and
//! writing bytes stay with the transport: [`crate::session::SimSession`]
//! over the network simulator, `uniint_gateway::client::GatewayClient`
//! over TCP.
//!
//! - **Backoff.** Attempt delays start at the policy's base and double up
//!   to its cap, plus jitter drawn from `0..=delay/4` by an RNG seeded
//!   from the session seed; past the attempt budget the machine reports
//!   [`Stalled`].
//! - **Resume.** After a reconnect the proxy sends `Resume`, unlogged
//!   because the server leaves it out of its received-message count.
//! - **Retransmission.** Every other client message is logged in send
//!   order; `ResumeAck::client_msgs_received` indexes into the log, and
//!   the tail past it is resent verbatim. The log is trimmed only on acks.
//! - **Escalation.** After [`MAX_FAILED_RESUMES`] resumes in a row die
//!   before their ack, the next ack's retransmissions are followed by a
//!   full refresh ([`UniIntProxy::recover`]).

use crate::proxy::UniIntProxy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uniint_protocol::message::ClientMessage;

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
    /// The break beat the handshake: send these (a new `Hello`) as
    /// regular logged traffic.
    Fresh(Vec<ClientMessage>),
    /// Resume the established session: send this `Resume` unlogged.
    Resume(ClientMessage),
}

/// Recovery state for one proxy connection; see the module docs.
#[derive(Debug)]
pub struct ResumeMachine {
    policy: BackoffPolicy,
    /// Every logged client message in send order, minus an acknowledged
    /// prefix of `log_offset` messages.
    log: Vec<ClientMessage>,
    log_offset: u64,
    rng: StdRng,
    /// Resumes sent since the last ack: all but the newest were lost.
    unacked_resumes: u32,
    /// The next ack must be followed by a full refresh.
    escalate: bool,
    /// Un-jittered delay of the current attempt, microseconds.
    delay_us: u64,
    /// Attempts made in the current stall.
    attempts: u32,
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
            delay_us: policy.base_us,
            attempts: 0,
        }
    }

    /// Logs a regular client message the transport has just sent.
    ///
    /// Every message except `Resume` and retransmissions must pass
    /// through here, so the log stays aligned with the server's count.
    pub fn sent(&mut self, m: ClientMessage) {
        self.log.push(m);
    }

    /// The connection broke: records the stall and returns the delay
    /// before the first reconnect attempt, in microseconds.
    pub fn link_broke(&mut self, proxy: &mut UniIntProxy) -> Result<u64, Stalled> {
        proxy.record_stall();
        self.delay_us = self.policy.base_us;
        self.attempts = 0;
        self.next_attempt(proxy)
    }

    /// The last reconnect attempt failed: returns the delay before the
    /// next one, or [`Stalled`] once the attempt budget is spent.
    pub fn attempt_failed(&mut self, proxy: &mut UniIntProxy) -> Result<u64, Stalled> {
        self.delay_us = (self.delay_us * 2).min(self.policy.cap_us);
        self.next_attempt(proxy)
    }

    fn next_attempt(&mut self, proxy: &mut UniIntProxy) -> Result<u64, Stalled> {
        if self.attempts >= self.policy.max_attempts {
            return Err(Stalled {
                attempts: self.attempts,
            });
        }
        self.attempts += 1;
        proxy.record_backoff_attempt();
        Ok(self.delay_us + self.rng.gen_range(0..=self.delay_us / 4))
    }

    /// A reconnect attempt succeeded: how to restart the conversation.
    pub fn reconnected(&mut self, proxy: &mut UniIntProxy) -> Reattach {
        if !proxy.is_connected() {
            self.log.clear();
            self.log_offset = 0;
            self.unacked_resumes = 0;
            self.escalate = false;
            return Reattach::Fresh(proxy.connect());
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
    /// `client_msgs_received` client messages. Returns what to send, in
    /// order and all already logged: every message the server reports
    /// missing, then the full-refresh request if the session escalated.
    pub fn resume_acked(
        &mut self,
        proxy: &mut UniIntProxy,
        client_msgs_received: u64,
    ) -> &[ClientMessage] {
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
        &self.log
    }
}
