//! Scriptable fault schedules and the event trace they produce.
//!
//! A [`FaultSchedule`] attaches to a link (see
//! [`Simulator::set_link_faults`](crate::sim::Simulator::set_link_faults))
//! and scripts when that link misbehaves:
//!
//! * **Link flaps** — scheduled `[start, end)` windows of virtual time in
//!   which the link is physically down. Traffic hitting a flap window
//!   breaks the connection (see below).
//! * **Burst loss** — a Gilbert–Elliott two-state chain. Each send
//!   advances the chain; in the *bad* state packets drop with
//!   `drop_prob`, producing correlated loss bursts rather than
//!   independent drops.
//! * **Latency spikes** — windows adding a fixed extra delay to every
//!   packet sent while they are open.
//!
//! A link is one connection, reliable and in order between hard faults.
//! Latency spikes are the only *soft* fault: they delay packets but
//! never reorder, copy or lose one. Flap and burst drops are *hard*
//! faults: they model a broken transport connection, so the simulator
//! tears the link down — every in-flight packet on the link is purged
//! and later sends are dropped until
//! [`Simulator::reconnect`](crate::sim::Simulator::reconnect) succeeds.
//! This gives the session layer a crisp invariant: within one
//! connection, the receiver always holds an exact *prefix* of what the
//! sender pushed, which is what makes count-based resume
//! (`ClientMessage::Resume`) sound.
//!
//! All randomness comes from the simulator's seeded generator, so one
//! seed plus one schedule reproduces the exact same [`TraceEvent`]
//! sequence every run.

/// Parameters of a Gilbert–Elliott two-state loss chain.
///
/// The chain starts in the *good* state. On every send it transitions:
/// good→bad with `p_enter`, bad→good with `p_exit`. While bad, each
/// packet drops with `drop_prob` (a hard fault, breaking the link).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// Probability per send of entering the bad (bursty) state.
    pub p_enter: f64,
    /// Probability per send of leaving the bad state.
    pub p_exit: f64,
    /// Drop probability per packet while in the bad state.
    pub drop_prob: f64,
}

/// A scheduled window of extra one-way delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySpike {
    /// Window start, inclusive, microseconds of virtual time.
    pub start_us: u64,
    /// Window end, exclusive.
    pub end_us: u64,
    /// Extra delay added to packets sent inside the window.
    pub extra_us: u64,
}

/// A deterministic script of link faults.
///
/// Build one with the fluent constructors and attach it with
/// [`Simulator::set_link_faults`](crate::sim::Simulator::set_link_faults):
///
/// ```
/// use uniint_netsim::prelude::*;
/// let sched = FaultSchedule::new()
///     .flap(1_000_000, 3_000_000)          // down from t=1s to t=3s
///     .burst_loss(0.05, 0.5, 0.9)          // Gilbert–Elliott bursts
///     .latency_spike(5_000_000, 5_500_000, 200_000);
/// let mut sim = Simulator::new(7);
/// let (a, _b) = sim.link(LinkProfile::wifi80211b());
/// sim.set_link_faults(a, sched);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    /// Link-down windows `[start, end)` in virtual microseconds.
    pub flaps: Vec<(u64, u64)>,
    /// Optional Gilbert–Elliott burst-loss chain.
    pub burst: Option<GilbertElliott>,
    /// Scheduled latency spikes.
    pub spikes: Vec<LatencySpike>,
}

impl FaultSchedule {
    /// An empty schedule (no faults).
    pub fn new() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// Adds a link-down window `[start_us, end_us)`.
    pub fn flap(mut self, start_us: u64, end_us: u64) -> FaultSchedule {
        assert!(start_us < end_us, "empty flap window");
        self.flaps.push((start_us, end_us));
        self
    }

    /// Enables Gilbert–Elliott burst loss.
    pub fn burst_loss(mut self, p_enter: f64, p_exit: f64, drop_prob: f64) -> FaultSchedule {
        self.burst = Some(GilbertElliott {
            p_enter,
            p_exit,
            drop_prob,
        });
        self
    }

    /// Adds a latency-spike window `[start_us, end_us)` with `extra_us`
    /// additional one-way delay.
    pub fn latency_spike(mut self, start_us: u64, end_us: u64, extra_us: u64) -> FaultSchedule {
        assert!(start_us < end_us, "empty spike window");
        self.spikes.push(LatencySpike {
            start_us,
            end_us,
            extra_us,
        });
        self
    }

    /// Whether `t_us` falls inside any flap window.
    pub fn in_flap(&self, t_us: u64) -> bool {
        self.flaps.iter().any(|&(s, e)| (s..e).contains(&t_us))
    }

    /// Extra latency applying to a packet sent at `t_us`.
    pub fn spike_extra(&self, t_us: u64) -> u64 {
        self.spikes
            .iter()
            .filter(|s| (s.start_us..s.end_us).contains(&t_us))
            .map(|s| s.extra_us)
            .sum()
    }
}

/// Why a packet (or connection) was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropCause {
    /// Sent or arriving inside a scheduled flap window.
    Flap,
    /// Dropped by the Gilbert–Elliott bad state.
    Burst,
    /// Sent while the connection was already torn down.
    LinkDown,
    /// Was in flight when the connection broke.
    Purged,
}

/// What happened at one instant of the simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceKind {
    /// A payload was handed to the simulator for transmission.
    Send {
        /// Sending endpoint index.
        from: usize,
        /// Payload size in bytes.
        bytes: usize,
    },
    /// A payload reached its destination inbox.
    Deliver {
        /// Receiving endpoint index.
        to: usize,
        /// Payload size in bytes.
        bytes: usize,
    },
    /// A payload was dropped.
    Drop {
        /// Intended receiving endpoint index.
        to: usize,
        /// Why it was dropped.
        cause: DropCause,
    },
    /// The connection between endpoints `a` and `b` broke.
    LinkDown {
        /// Lower endpoint index of the link.
        a: usize,
        /// Higher endpoint index of the link.
        b: usize,
    },
    /// A reconnect attempt succeeded, restoring the link.
    Reconnect {
        /// Lower endpoint index of the link.
        a: usize,
        /// Higher endpoint index of the link.
        b: usize,
    },
    /// A reconnect attempt failed (still inside a flap window).
    ReconnectFailed {
        /// Lower endpoint index of the link.
        a: usize,
        /// Higher endpoint index of the link.
        b: usize,
    },
}

/// One timestamped simulation event.
///
/// Traces from two runs with the same seed and schedule compare equal —
/// the determinism tests assert exactly that.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time of the event, microseconds.
    pub t_us: u64,
    /// What happened.
    pub kind: TraceKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flap_windows_are_half_open() {
        let s = FaultSchedule::new().flap(100, 200);
        assert!(!s.in_flap(99));
        assert!(s.in_flap(100));
        assert!(s.in_flap(199));
        assert!(!s.in_flap(200));
    }

    #[test]
    fn spike_extra_sums_overlapping_windows() {
        let s = FaultSchedule::new()
            .latency_spike(0, 100, 10)
            .latency_spike(50, 150, 5);
        assert_eq!(s.spike_extra(25), 10);
        assert_eq!(s.spike_extra(75), 15);
        assert_eq!(s.spike_extra(125), 5);
        assert_eq!(s.spike_extra(200), 0);
    }

    #[test]
    fn builder_composes() {
        let s = FaultSchedule::new()
            .flap(1, 2)
            .burst_loss(0.1, 0.5, 0.9)
            .latency_spike(3, 4, 5);
        assert_eq!(s.flaps.len(), 1);
        assert!(s.burst.is_some());
        assert_eq!(s.spikes.len(), 1);
    }
}
