//! A deterministic discrete-event simulator of point-to-point links.
//!
//! The UniInt benchmarks sweep link conditions (wired, WLAN, Bluetooth,
//! cellular) reproducibly: all randomness (jitter, loss) comes from a
//! seeded generator, so a given seed always produces identical timings.
//!
//! Links can additionally carry a scripted [`FaultSchedule`] — flaps,
//! burst loss, latency spikes, reorder, duplication. Hard faults (flaps
//! and burst drops) model a broken transport connection: the link goes
//! down, in-flight packets are purged, and traffic flows again only
//! after a successful [`Simulator::reconnect`]. See [`crate::fault`] for
//! the full fault model.

use crate::fault::{DropCause, FaultSchedule, TraceEvent, TraceKind};
use crate::link::LinkProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use uniint_telemetry::histogram::Histogram;
use uniint_telemetry::registry::{Counter, Registry};

/// Identifies one end of a simulated link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Endpoint(usize);

impl Endpoint {
    /// The endpoint's index, as it appears in [`TraceEvent`]s.
    pub fn index(&self) -> usize {
        self.0
    }
}

#[derive(Debug)]
struct EndpointState {
    peer: usize,
    profile: LinkProfile,
    /// When the transmitter is next free (serialization queueing).
    tx_free_at: u64,
    inbox: VecDeque<Vec<u8>>,
    bytes_sent: u64,
    messages_sent: u64,
    /// Scripted faults applying to traffic sent from this endpoint.
    faults: FaultSchedule,
    /// Gilbert–Elliott chain state (true = bad/bursty).
    ge_bad: bool,
    /// Whether the connection through this endpoint is up.
    up: bool,
}

#[derive(Debug)]
struct Delivery {
    to: usize,
    payload: Vec<u8>,
    /// Virtual time the payload was handed to [`Simulator::send`];
    /// delivery latency histograms are `arrival - sent_at`.
    sent_at: u64,
}

/// Telemetry handles for one link (both directions share them).
#[derive(Debug)]
struct LinkTelemetry {
    sends: Counter,
    delivered: Counter,
    dropped: Counter,
    delivery_us: Histogram,
}

impl LinkTelemetry {
    fn new(registry: &Registry, link_id: usize) -> LinkTelemetry {
        LinkTelemetry {
            sends: registry.counter(&format!("netsim.link{link_id}.sends")),
            delivered: registry.counter(&format!("netsim.link{link_id}.delivered")),
            dropped: registry.counter(&format!("netsim.link{link_id}.dropped")),
            delivery_us: registry.histogram(&format!("netsim.link{link_id}.delivery_us")),
        }
    }
}

/// Pre-registered handles for the whole simulator. Updates on the send
/// and delivery paths are atomic operations only; the registry lock is
/// touched exclusively here, at registration.
#[derive(Debug)]
struct SimTelemetry {
    registry: Registry,
    sends: Counter,
    delivered: Counter,
    drop_flap: Counter,
    drop_burst: Counter,
    drop_link_down: Counter,
    drop_purged: Counter,
    link_downs: Counter,
    reconnects: Counter,
    reconnects_failed: Counter,
    links: Vec<LinkTelemetry>,
}

impl SimTelemetry {
    fn new(registry: Registry) -> SimTelemetry {
        SimTelemetry {
            sends: registry.counter("netsim.sends"),
            delivered: registry.counter("netsim.delivered"),
            drop_flap: registry.counter("netsim.drops.flap"),
            drop_burst: registry.counter("netsim.drops.burst"),
            drop_link_down: registry.counter("netsim.drops.link_down"),
            drop_purged: registry.counter("netsim.drops.purged"),
            link_downs: registry.counter("netsim.link_downs"),
            reconnects: registry.counter("netsim.reconnects"),
            reconnects_failed: registry.counter("netsim.reconnects_failed"),
            links: Vec::new(),
            registry,
        }
    }

    fn drop_counter(&self, cause: DropCause) -> &Counter {
        match cause {
            DropCause::Flap => &self.drop_flap,
            DropCause::Burst => &self.drop_burst,
            DropCause::LinkDown => &self.drop_link_down,
            DropCause::Purged => &self.drop_purged,
        }
    }
}

/// The simulator: owns all endpoints, a virtual clock and the in-flight
/// message queue.
///
/// ```
/// use uniint_netsim::prelude::*;
/// let mut sim = Simulator::new(42);
/// let (a, b) = sim.link(LinkProfile::wifi80211b());
/// sim.send(a, b"hello".to_vec());
/// sim.run_until_idle();
/// assert_eq!(sim.recv(b), Some(b"hello".to_vec()));
/// ```
#[derive(Debug)]
pub struct Simulator {
    now_us: u64,
    endpoints: Vec<EndpointState>,
    queue: BinaryHeap<Reverse<(u64, u64)>>,
    deliveries: std::collections::HashMap<u64, Delivery>,
    seq: u64,
    rng: StdRng,
    trace: Vec<TraceEvent>,
    tracing: bool,
    telemetry: Option<SimTelemetry>,
}

impl Simulator {
    /// Creates a simulator; `seed` fixes all jitter/loss decisions.
    pub fn new(seed: u64) -> Simulator {
        Simulator {
            now_us: 0,
            endpoints: Vec::new(),
            queue: BinaryHeap::new(),
            deliveries: std::collections::HashMap::new(),
            seq: 0,
            rng: StdRng::seed_from_u64(seed),
            trace: Vec::new(),
            tracing: false,
            telemetry: None,
        }
    }

    /// Current virtual time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// Attaches a telemetry registry. From here on the simulator drives
    /// the registry's virtual clock (the determinism anchor for every
    /// other instrumented subsystem) and records per-link send/deliver/
    /// drop counters plus delivery-latency histograms. Links created
    /// before or after attachment are both covered.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        let mut telemetry = SimTelemetry::new(registry.clone());
        for link_id in 0..self.endpoints.len() / 2 {
            telemetry.links.push(LinkTelemetry::new(registry, link_id));
        }
        registry.clock().set_us(self.now_us);
        self.telemetry = Some(telemetry);
    }

    /// Advances the attached registry clock to the simulator clock.
    fn drive_clock(&self) {
        if let Some(t) = &self.telemetry {
            t.registry.clock().set_us(self.now_us);
        }
    }

    /// Counts a drop on `to`'s link under `cause`.
    fn tele_drop(&self, to: usize, cause: DropCause) {
        if let Some(t) = &self.telemetry {
            t.drop_counter(cause).inc();
            t.links[to / 2].dropped.inc();
        }
    }

    /// Creates a bidirectional link, returning its two endpoints.
    pub fn link(&mut self, profile: LinkProfile) -> (Endpoint, Endpoint) {
        let a = self.endpoints.len();
        let b = a + 1;
        for peer in [b, a] {
            self.endpoints.push(EndpointState {
                peer,
                profile,
                tx_free_at: 0,
                inbox: VecDeque::new(),
                bytes_sent: 0,
                messages_sent: 0,
                faults: FaultSchedule::default(),
                ge_bad: false,
                up: true,
            });
        }
        if let Some(t) = &mut self.telemetry {
            let registry = t.registry.clone();
            t.links.push(LinkTelemetry::new(&registry, a / 2));
        }
        (Endpoint(a), Endpoint(b))
    }

    /// Attaches `schedule` to the link containing `ep` (both directions).
    pub fn set_link_faults(&mut self, ep: Endpoint, schedule: FaultSchedule) {
        let peer = self.endpoints[ep.0].peer;
        self.endpoints[ep.0].faults = schedule.clone();
        self.endpoints[peer].faults = schedule;
    }

    /// Enables or disables event tracing (see [`Simulator::take_trace`]).
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// Drains and returns the recorded event trace.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.trace)
    }

    fn trace_push(&mut self, kind: TraceKind) {
        if self.tracing {
            self.trace.push(TraceEvent {
                t_us: self.now_us,
                kind,
            });
        }
    }

    /// Whether the connection through `ep`'s link is currently up.
    pub fn link_up(&self, ep: Endpoint) -> bool {
        self.endpoints[ep.0].up
    }

    /// Tears the connection down: purges all in-flight packets on `ep`'s
    /// link and drops later sends until [`Simulator::reconnect`].
    fn break_link(&mut self, idx: usize) {
        let peer = self.endpoints[idx].peer;
        if !self.endpoints[idx].up && !self.endpoints[peer].up {
            return;
        }
        self.endpoints[idx].up = false;
        self.endpoints[peer].up = false;
        // Purge in-flight packets towards either end, in deterministic
        // (send) order.
        let mut purged: Vec<u64> = self
            .deliveries
            .iter()
            .filter(|(_, d)| d.to == idx || d.to == peer)
            .map(|(&s, _)| s)
            .collect();
        purged.sort_unstable();
        for s in purged {
            let d = self.deliveries.remove(&s).expect("purged seq exists");
            self.trace_push(TraceKind::Drop {
                to: d.to,
                cause: DropCause::Purged,
            });
            self.tele_drop(d.to, DropCause::Purged);
        }
        let (a, b) = (idx.min(peer), idx.max(peer));
        self.trace_push(TraceKind::LinkDown { a, b });
        if let Some(t) = &self.telemetry {
            t.link_downs.inc();
            t.registry
                .journal()
                .record("netsim.link_down", format!("link {}", a / 2));
        }
    }

    /// Attempts to restore a torn-down connection. Fails (returning
    /// `false`) while the current time is inside a flap window; on
    /// success the Gilbert–Elliott chain resets to the good state.
    pub fn reconnect(&mut self, ep: Endpoint) -> bool {
        let idx = ep.0;
        let peer = self.endpoints[idx].peer;
        let (a, b) = (idx.min(peer), idx.max(peer));
        let now = self.now_us;
        if self.endpoints[idx].faults.in_flap(now) || self.endpoints[peer].faults.in_flap(now) {
            self.trace_push(TraceKind::ReconnectFailed { a, b });
            if let Some(t) = &self.telemetry {
                t.reconnects_failed.inc();
            }
            return false;
        }
        for i in [idx, peer] {
            self.endpoints[i].up = true;
            self.endpoints[i].ge_bad = false;
            self.endpoints[i].tx_free_at = self.endpoints[i].tx_free_at.max(now);
        }
        self.trace_push(TraceKind::Reconnect { a, b });
        if let Some(t) = &self.telemetry {
            t.reconnects.inc();
            t.registry
                .journal()
                .record("netsim.reconnect", format!("link {}", a / 2));
        }
        true
    }

    /// Queues `payload` for delivery to the peer of `from`. Delivery time
    /// accounts for serialization (bandwidth), propagation (latency),
    /// jitter, and loss-induced retransmissions. Absent hard faults the
    /// link is reliable and in-order; flap or burst faults break the
    /// connection (the payload and everything in flight is dropped).
    pub fn send(&mut self, from: Endpoint, payload: Vec<u8>) {
        let size = payload.len();
        let to = self.endpoints[from.0].peer;
        self.trace_push(TraceKind::Send {
            from: from.0,
            bytes: size,
        });
        {
            let ep = &mut self.endpoints[from.0];
            ep.bytes_sent += size as u64;
            ep.messages_sent += 1;
        }
        if let Some(t) = &self.telemetry {
            t.sends.inc();
            t.links[from.0 / 2].sends.inc();
        }
        if !self.endpoints[from.0].up {
            self.trace_push(TraceKind::Drop {
                to,
                cause: DropCause::LinkDown,
            });
            self.tele_drop(to, DropCause::LinkDown);
            return;
        }
        if self.endpoints[from.0].faults.in_flap(self.now_us) {
            self.trace_push(TraceKind::Drop {
                to,
                cause: DropCause::Flap,
            });
            self.tele_drop(to, DropCause::Flap);
            self.break_link(from.0);
            return;
        }
        // Advance the Gilbert–Elliott chain once per send.
        if let Some(ge) = self.endpoints[from.0].faults.burst {
            let bad = self.endpoints[from.0].ge_bad;
            let flip = if bad {
                self.rng.gen_bool(ge.p_exit)
            } else {
                self.rng.gen_bool(ge.p_enter)
            };
            let bad = bad ^ flip;
            self.endpoints[from.0].ge_bad = bad;
            if bad && self.rng.gen_bool(ge.drop_prob) {
                self.trace_push(TraceKind::Drop {
                    to,
                    cause: DropCause::Burst,
                });
                self.tele_drop(to, DropCause::Burst);
                self.break_link(from.0);
                return;
            }
        }
        let mut arrival = {
            let ep = &mut self.endpoints[from.0];
            let p = ep.profile;
            let tx_start = ep.tx_free_at.max(self.now_us);
            let tx_time = p.tx_time_us(size);
            ep.tx_free_at = tx_start + tx_time;
            let mut arrival = tx_start + tx_time + p.latency_us;
            if p.jitter_us > 0 {
                arrival += self.rng.gen_range(0..=p.jitter_us);
            }
            // Each loss costs one RTT before the retransmission lands.
            while p.loss > 0.0 && self.rng.gen_bool(p.loss) {
                arrival += 2 * p.latency_us + tx_time;
            }
            arrival
        };
        arrival += self.endpoints[from.0].faults.spike_extra(self.now_us);
        // In-order guarantee: never deliver before anything already queued
        // towards the same endpoint — unless the reorder fault fires.
        let reordered = match self.endpoints[from.0].faults.reorder {
            Some(r) if self.rng.gen_bool(r.prob) => {
                arrival = arrival.saturating_sub(r.skew_us).max(self.now_us);
                self.trace_push(TraceKind::Reorder { to });
                true
            }
            _ => false,
        };
        if !reordered {
            arrival = arrival.max(self.last_arrival_to(to));
        }
        self.seq += 1;
        self.deliveries.insert(
            self.seq,
            Delivery {
                to,
                payload: payload.clone(),
                sent_at: self.now_us,
            },
        );
        self.queue.push(Reverse((arrival, self.seq)));
        let dup = self.endpoints[from.0].faults.duplicate_prob;
        if dup > 0.0 && self.rng.gen_bool(dup) {
            self.trace_push(TraceKind::Duplicate { to });
            self.seq += 1;
            self.deliveries.insert(
                self.seq,
                Delivery {
                    to,
                    payload,
                    sent_at: self.now_us,
                },
            );
            self.queue.push(Reverse((arrival + 1, self.seq)));
        }
    }

    fn last_arrival_to(&self, to: usize) -> u64 {
        self.queue
            .iter()
            .filter(|Reverse((_, s))| self.deliveries.get(s).map(|d| d.to) == Some(to))
            .map(|Reverse((t, _))| *t)
            .max()
            .unwrap_or(0)
    }

    /// Pops one delivered message from `ep`'s inbox.
    pub fn recv(&mut self, ep: Endpoint) -> Option<Vec<u8>> {
        self.endpoints[ep.0].inbox.pop_front()
    }

    /// Number of messages waiting in `ep`'s inbox.
    pub fn pending(&self, ep: Endpoint) -> usize {
        self.endpoints[ep.0].inbox.len()
    }

    /// Number of packets currently in flight (all links).
    pub fn in_flight(&self) -> usize {
        self.deliveries.len()
    }

    /// Bytes sent from `ep` since creation (attempted sends included).
    pub fn bytes_sent(&self, ep: Endpoint) -> u64 {
        self.endpoints[ep.0].bytes_sent
    }

    /// Messages sent from `ep` since creation (attempted sends included).
    pub fn messages_sent(&self, ep: Endpoint) -> u64 {
        self.endpoints[ep.0].messages_sent
    }

    /// Processes the next in-flight message, advancing the clock to its
    /// arrival. Returns the new time, or `None` when nothing is in flight.
    /// A message whose arrival lands inside a flap window is dropped (and
    /// breaks the connection) instead of delivered; the clock still
    /// advances and `Some` is returned.
    pub fn step(&mut self) -> Option<u64> {
        loop {
            let Reverse((t, seq)) = self.queue.pop()?;
            // Purged entries stay in the heap; skip without advancing time.
            let Some(d) = self.deliveries.remove(&seq) else {
                continue;
            };
            self.now_us = self.now_us.max(t);
            self.drive_clock();
            if self.endpoints[d.to].faults.in_flap(self.now_us) {
                self.trace_push(TraceKind::Drop {
                    to: d.to,
                    cause: DropCause::Flap,
                });
                self.tele_drop(d.to, DropCause::Flap);
                self.break_link(d.to);
                return Some(self.now_us);
            }
            let bytes = d.payload.len();
            self.endpoints[d.to].inbox.push_back(d.payload);
            self.trace_push(TraceKind::Deliver { to: d.to, bytes });
            if let Some(tele) = &self.telemetry {
                tele.delivered.inc();
                let link = &tele.links[d.to / 2];
                link.delivered.inc();
                link.delivery_us
                    .record(self.now_us.saturating_sub(d.sent_at));
            }
            return Some(self.now_us);
        }
    }

    /// Runs until no messages are in flight.
    pub fn run_until_idle(&mut self) {
        while self.step().is_some() {}
    }

    /// Runs until virtual time reaches `t_us` (messages arriving later
    /// stay in flight). The clock always ends at `t_us` or later.
    pub fn run_until(&mut self, t_us: u64) {
        while let Some(&Reverse((t, _))) = self.queue.peek() {
            if t > t_us {
                break;
            }
            self.step();
        }
        self.now_us = self.now_us.max(t_us);
        self.drive_clock();
    }

    /// Advances the clock without delivering anything earlier.
    pub fn advance(&mut self, dt_us: u64) {
        let target = self.now_us + dt_us;
        self.run_until(target);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_latency_matches_profile() {
        let mut sim = Simulator::new(1);
        let (a, b) = sim.link(LinkProfile::ethernet100());
        sim.send(a, vec![0u8; 125]); // 125B at 100Mb/s = 10us tx
        sim.run_until_idle();
        // latency 200 + tx 10 + jitter 0..=50
        assert!((210..=260).contains(&sim.now_us()), "{}", sim.now_us());
        assert_eq!(sim.recv(b), Some(vec![0u8; 125]));
    }

    #[test]
    fn in_order_delivery() {
        let mut sim = Simulator::new(7);
        let (a, b) = sim.link(LinkProfile::wifi80211b());
        for i in 0..20u8 {
            sim.send(a, vec![i]);
        }
        sim.run_until_idle();
        let got: Vec<u8> = std::iter::from_fn(|| sim.recv(b)).map(|v| v[0]).collect();
        assert_eq!(got, (0..20).collect::<Vec<u8>>());
    }

    #[test]
    fn determinism_same_seed() {
        let run = |seed| {
            let mut sim = Simulator::new(seed);
            let (a, _b) = sim.link(LinkProfile::cellular_gprs());
            for _ in 0..10 {
                sim.send(a, vec![0u8; 100]);
            }
            sim.run_until_idle();
            sim.now_us()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds should differ");
    }

    #[test]
    fn bandwidth_queueing_serializes() {
        let mut sim = Simulator::new(1);
        let (a, _b) = sim.link(LinkProfile::bluetooth());
        // Two 1 KB messages back-to-back: second waits for first's tx.
        sim.send(a, vec![0u8; 1000]);
        sim.send(a, vec![0u8; 1000]);
        sim.run_until_idle();
        let one_tx = LinkProfile::bluetooth().tx_time_us(1000);
        assert!(
            sim.now_us() >= 2 * one_tx,
            "{} < {}",
            sim.now_us(),
            2 * one_tx
        );
    }

    #[test]
    fn both_directions_work() {
        let mut sim = Simulator::new(1);
        let (a, b) = sim.link(LinkProfile::ideal());
        sim.send(a, b"to-b".to_vec());
        sim.send(b, b"to-a".to_vec());
        sim.run_until_idle();
        assert_eq!(sim.recv(b), Some(b"to-b".to_vec()));
        assert_eq!(sim.recv(a), Some(b"to-a".to_vec()));
    }

    #[test]
    fn run_until_leaves_late_messages_in_flight() {
        let mut sim = Simulator::new(1);
        let (a, b) = sim.link(LinkProfile::cellular_gprs());
        sim.send(a, vec![1]);
        sim.run_until(10); // far before the 300ms latency
        assert_eq!(sim.pending(b), 0);
        assert_eq!(sim.now_us(), 10);
        sim.run_until_idle();
        assert_eq!(sim.pending(b), 1);
    }

    #[test]
    fn stats_track_traffic() {
        let mut sim = Simulator::new(1);
        let (a, _b) = sim.link(LinkProfile::ideal());
        sim.send(a, vec![0u8; 10]);
        sim.send(a, vec![0u8; 20]);
        assert_eq!(sim.bytes_sent(a), 30);
        assert_eq!(sim.messages_sent(a), 2);
    }

    #[test]
    fn multiple_links_independent() {
        let mut sim = Simulator::new(1);
        let (a1, b1) = sim.link(LinkProfile::ideal());
        let (a2, b2) = sim.link(LinkProfile::ideal());
        sim.send(a1, vec![1]);
        sim.send(a2, vec![2]);
        sim.run_until_idle();
        assert_eq!(sim.recv(b1), Some(vec![1]));
        assert_eq!(sim.recv(b2), Some(vec![2]));
        assert_eq!(sim.recv(b1), None);
    }

    #[test]
    fn lossy_link_still_reliable() {
        let mut sim = Simulator::new(9);
        let (a, b) = sim.link(LinkProfile {
            loss: 0.5,
            ..LinkProfile::bluetooth()
        });
        for i in 0..50u8 {
            sim.send(a, vec![i]);
        }
        sim.run_until_idle();
        let got: Vec<u8> = std::iter::from_fn(|| sim.recv(b)).map(|v| v[0]).collect();
        assert_eq!(got.len(), 50, "reliable despite loss");
        assert_eq!(got, (0..50).collect::<Vec<u8>>());
    }

    #[test]
    fn advance_moves_clock() {
        let mut sim = Simulator::new(1);
        sim.advance(1_000);
        assert_eq!(sim.now_us(), 1_000);
    }

    #[test]
    fn flap_breaks_connection_and_drops_prefix_cleanly() {
        let mut sim = Simulator::new(3);
        let (a, b) = sim.link(LinkProfile::ideal());
        sim.set_link_faults(a, FaultSchedule::new().flap(1_000, 2_000));
        sim.send(a, vec![0]); // t=0: delivered
        sim.run_until_idle();
        sim.advance(1_500); // inside flap window
        sim.send(a, vec![1]); // dropped, breaks link
        assert!(!sim.link_up(a));
        sim.send(a, vec![2]); // dropped: link down
        sim.advance(1_000); // t=2500, flap over
        assert!(!sim.link_up(a), "stays down until explicit reconnect");
        assert!(sim.reconnect(a));
        sim.send(a, vec![3]);
        sim.run_until_idle();
        let got: Vec<u8> = std::iter::from_fn(|| sim.recv(b)).map(|v| v[0]).collect();
        assert_eq!(got, vec![0, 3], "receiver sees an exact prefix + resumed");
    }

    #[test]
    fn reconnect_fails_inside_flap_window() {
        let mut sim = Simulator::new(3);
        let (a, _b) = sim.link(LinkProfile::ideal());
        sim.set_link_faults(a, FaultSchedule::new().flap(0, 5_000));
        sim.send(a, vec![1]); // breaks immediately
        assert!(!sim.link_up(a));
        assert!(!sim.reconnect(a), "still inside flap");
        sim.advance(5_000);
        assert!(sim.reconnect(a));
        assert!(sim.link_up(a));
    }

    #[test]
    fn in_flight_packets_purged_on_break() {
        let mut sim = Simulator::new(3);
        let (a, b) = sim.link(LinkProfile::cellular_gprs());
        sim.set_link_faults(a, FaultSchedule::new().flap(10_000, 20_000));
        // Sent at t=0 but 300ms latency means arrival is inside... no —
        // arrival ~300ms is after the flap. Arrange arrivals in flight at
        // break time instead: send, then advance into the window and send
        // again, breaking the link while the first is still in flight.
        sim.send(a, vec![1]);
        sim.run_until(15_000); // inside flap; first packet still in flight
        sim.send(a, vec![2]); // hard fault: break + purge
        sim.run_until_idle();
        assert_eq!(sim.pending(b), 0, "in-flight packet was purged");
        assert_eq!(sim.in_flight(), 0);
    }

    #[test]
    fn arrival_inside_flap_window_breaks_link() {
        let mut sim = Simulator::new(3);
        let (a, b) = sim.link(LinkProfile {
            latency_us: 10_000,
            jitter_us: 0,
            ..LinkProfile::ideal()
        });
        sim.set_link_faults(a, FaultSchedule::new().flap(9_000, 12_000));
        sim.send(a, vec![1]); // sent at t=0 (link fine), arrives t=10_000
        sim.run_until_idle();
        assert_eq!(sim.pending(b), 0, "arrival in flap is dropped");
        assert!(!sim.link_up(a));
    }

    #[test]
    fn burst_loss_is_deterministic_and_breaks_link() {
        let run = |seed: u64| {
            let mut sim = Simulator::new(seed);
            let (a, b) = sim.link(LinkProfile::ideal());
            sim.set_link_faults(a, FaultSchedule::new().burst_loss(0.2, 0.3, 1.0));
            let mut delivered = 0u32;
            for i in 0..100u8 {
                if !sim.link_up(a) {
                    sim.reconnect(a);
                }
                sim.send(a, vec![i]);
                sim.run_until_idle();
                delivered += sim.recv(b).is_some() as u32;
            }
            delivered
        };
        let d = run(11);
        assert!(d < 100, "some bursts must drop");
        assert!(d > 10, "chain must recover");
        assert_eq!(run(11), d, "same seed, same drops");
    }

    #[test]
    fn latency_spike_delays_packets_in_window() {
        let mut sim = Simulator::new(1);
        let (a, b) = sim.link(LinkProfile::ideal());
        sim.set_link_faults(a, FaultSchedule::new().latency_spike(0, 10, 100_000));
        sim.send(a, vec![1]); // inside spike
        sim.run_until_idle();
        assert!(sim.now_us() >= 100_000, "{}", sim.now_us());
        assert_eq!(sim.recv(b), Some(vec![1]));
        // Outside the window there is no extra delay.
        let before = sim.now_us();
        sim.send(a, vec![2]);
        sim.run_until_idle();
        assert_eq!(sim.now_us(), before);
    }

    #[test]
    fn duplicate_fault_delivers_twice() {
        let mut sim = Simulator::new(1);
        let (a, b) = sim.link(LinkProfile::ideal());
        sim.set_link_faults(a, FaultSchedule::new().duplicate(1.0));
        sim.send(a, vec![9]);
        sim.run_until_idle();
        assert_eq!(sim.recv(b), Some(vec![9]));
        assert_eq!(sim.recv(b), Some(vec![9]));
        assert_eq!(sim.recv(b), None);
    }

    #[test]
    fn reorder_fault_can_break_fifo() {
        let mut sim = Simulator::new(5);
        let (a, b) = sim.link(LinkProfile {
            latency_us: 10_000,
            ..LinkProfile::ideal()
        });
        sim.set_link_faults(a, FaultSchedule::new().reorder(0.5, 9_000));
        let mut out_of_order = false;
        let mut last = None;
        for round in 0..20 {
            for i in 0..5u8 {
                sim.send(a, vec![round * 5 + i]);
            }
            sim.run_until_idle();
            while let Some(v) = sim.recv(b) {
                if let Some(prev) = last {
                    if v[0] < prev {
                        out_of_order = true;
                    }
                }
                last = Some(v[0]);
            }
        }
        assert!(out_of_order, "reorder fault should break FIFO sometimes");
    }

    #[test]
    fn trace_is_identical_across_identical_runs() {
        let run = || {
            let mut sim = Simulator::new(77);
            sim.set_tracing(true);
            let (a, b) = sim.link(LinkProfile::wifi80211b());
            sim.set_link_faults(
                a,
                FaultSchedule::new()
                    .flap(50_000, 80_000)
                    .burst_loss(0.1, 0.4, 0.8)
                    .latency_spike(100_000, 120_000, 30_000),
            );
            for i in 0..40u8 {
                if !sim.link_up(a) {
                    sim.reconnect(a);
                }
                sim.send(a, vec![i; 64]);
                sim.advance(5_000);
            }
            sim.run_until_idle();
            while sim.recv(b).is_some() {}
            sim.take_trace()
        };
        let t1 = run();
        let t2 = run();
        assert!(!t1.is_empty());
        assert_eq!(t1, t2, "same seed + schedule must reproduce the trace");
        assert!(t1
            .iter()
            .any(|e| matches!(e.kind, TraceKind::LinkDown { .. })));
    }

    #[test]
    fn telemetry_tracks_links_and_drives_clock() {
        let registry = Registry::new();
        let mut sim = Simulator::new(5);
        let (a, _b) = sim.link(LinkProfile::ideal());
        sim.attach_telemetry(&registry);
        let (c, _d) = sim.link(LinkProfile::ideal()); // created after attach
        sim.set_link_faults(a, FaultSchedule::new().flap(1_000, 2_000));
        sim.send(a, vec![0u8; 64]);
        sim.send(c, vec![0u8; 64]);
        sim.run_until_idle();
        sim.run_until(1_500); // inside the flap window
        sim.send(a, vec![1]); // inside flap: dropped, breaks link
        let snap = registry.snapshot();
        assert_eq!(snap.counters["netsim.sends"], 3);
        assert_eq!(snap.counters["netsim.delivered"], 2);
        assert_eq!(snap.counters["netsim.drops.flap"], 1);
        assert_eq!(snap.counters["netsim.link_downs"], 1);
        assert_eq!(snap.counters["netsim.link0.sends"], 2);
        assert_eq!(snap.counters["netsim.link1.sends"], 1);
        assert_eq!(snap.histograms["netsim.link1.delivery_us"].count, 1);
        assert_eq!(registry.now_us(), sim.now_us());
    }

    #[test]
    fn telemetry_snapshot_is_byte_identical_across_runs() {
        let run = || {
            let registry = Registry::new();
            let mut sim = Simulator::new(21);
            sim.attach_telemetry(&registry);
            let (a, b) = sim.link(LinkProfile::cellular_gprs());
            sim.set_link_faults(a, FaultSchedule::new().burst_loss(0.1, 0.4, 0.9));
            for i in 0..30u8 {
                if !sim.link_up(a) {
                    sim.reconnect(a);
                }
                sim.send(a, vec![i; 40]);
                sim.advance(2_000);
            }
            sim.run_until_idle();
            while sim.recv(b).is_some() {}
            registry.snapshot().to_json()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn trace_disabled_by_default() {
        let mut sim = Simulator::new(1);
        let (a, _b) = sim.link(LinkProfile::ideal());
        sim.send(a, vec![1]);
        sim.run_until_idle();
        assert!(sim.take_trace().is_empty());
    }
}
