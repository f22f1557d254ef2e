//! Property tests for the network simulator: determinism, in-order
//! reliable delivery, conservation of messages, and the link contract
//! under hard faults (each connection delivers a prefix of its stream).

use proptest::prelude::*;
use uniint_netsim::prelude::*;

fn arb_profile() -> impl Strategy<Value = LinkProfile> {
    (0u64..500_000, 1u64..100_000_000, 0u64..50_000, 0.0f64..0.4).prop_map(
        |(latency_us, bandwidth_bps, jitter_us, loss)| LinkProfile {
            latency_us,
            bandwidth_bps,
            jitter_us,
            loss,
            name: "arb",
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_messages_delivered_in_order(
        profile in arb_profile(),
        seed in any::<u64>(),
        msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..40),
    ) {
        let mut sim = Simulator::new(seed);
        let (a, b) = sim.link(profile);
        for m in &msgs {
            sim.send(a, m.clone());
        }
        sim.run_until_idle();
        let got: Vec<Vec<u8>> = std::iter::from_fn(|| sim.recv(b)).collect();
        prop_assert_eq!(got, msgs, "reliable, in-order, complete");
    }

    #[test]
    fn virtual_time_is_deterministic(profile in arb_profile(), seed in any::<u64>(), n in 1usize..20) {
        let run = || {
            let mut sim = Simulator::new(seed);
            let (a, _b) = sim.link(profile);
            for i in 0..n {
                sim.send(a, vec![i as u8; (i * 13) % 64 + 1]);
            }
            sim.run_until_idle();
            sim.now_us()
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn time_never_goes_backwards(
        profile in arb_profile(),
        seed in any::<u64>(),
        n in 1usize..30,
    ) {
        let mut sim = Simulator::new(seed);
        let (a, b) = sim.link(profile);
        for i in 0..n {
            if i % 2 == 0 {
                sim.send(a, vec![1]);
            } else {
                sim.send(b, vec![2]);
            }
        }
        let mut last = sim.now_us();
        while let Some(t) = sim.step() {
            prop_assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn delivery_no_earlier_than_latency(profile in arb_profile(), seed in any::<u64>()) {
        let mut sim = Simulator::new(seed);
        let (a, _b) = sim.link(profile);
        sim.send(a, vec![0u8; 32]);
        sim.run_until_idle();
        let min = profile.latency_us + profile.tx_time_us(32);
        prop_assert!(sim.now_us() >= min, "{} < {}", sim.now_us(), min);
    }

    #[test]
    fn bidirectional_links_isolate_directions(
        profile in arb_profile(),
        seed in any::<u64>(),
        na in 0usize..10,
        nb in 0usize..10,
    ) {
        let mut sim = Simulator::new(seed);
        let (a, b) = sim.link(profile);
        for _ in 0..na {
            sim.send(a, vec![b'a']);
        }
        for _ in 0..nb {
            sim.send(b, vec![b'b']);
        }
        sim.run_until_idle();
        let at_b: Vec<_> = std::iter::from_fn(|| sim.recv(b)).collect();
        let at_a: Vec<_> = std::iter::from_fn(|| sim.recv(a)).collect();
        prop_assert_eq!(at_b.len(), na);
        prop_assert_eq!(at_a.len(), nb);
        prop_assert!(at_b.iter().all(|m| m == &vec![b'a']));
        prop_assert!(at_a.iter().all(|m| m == &vec![b'b']));
    }
}

/// Flaps, burst loss and latency spikes in the first two seconds.
fn arb_schedule() -> impl Strategy<Value = FaultSchedule> {
    let window = || (0u64..2_000_000, 1u64..400_000);
    (
        proptest::collection::vec(window(), 0..3),
        proptest::option::of((0.0f64..0.3, 0.2f64..1.0, 0.0f64..1.0)),
        proptest::collection::vec((window(), 0u64..300_000), 0..3),
    )
        .prop_map(|(flaps, burst, spikes)| {
            let mut s = FaultSchedule::new();
            for (start, len) in flaps {
                s = s.flap(start, start + len);
            }
            if let Some((enter, exit, drop)) = burst {
                s = s.burst_loss(enter, exit, drop);
            }
            for ((start, len), extra) in spikes {
                s = s.latency_spike(start, start + len, extra);
            }
            s
        })
}

#[derive(Debug, Clone)]
enum Op {
    /// Sends from one end of a link (`back`: the second endpoint).
    Send {
        link: usize,
        back: bool,
        pad: usize,
    },
    RunUntil(u64),
    Advance(u64),
    Step,
    /// Reconnects a link that is down, as a client does.
    Reconnect(usize),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0usize..2, any::<bool>(), 0usize..600)
            .prop_map(|(link, back, pad)| Op::Send { link, back, pad }),
        1 => (0u64..600_000).prop_map(Op::RunUntil),
        1 => (0u64..300_000).prop_map(Op::Advance),
        1 => Just(Op::Step),
        1 => (0usize..2).prop_map(Op::Reconnect),
    ]
}

/// A message names its link's connection epoch and its place in the
/// sender's stream within that epoch.
fn message(epoch: u32, index: u32, pad: usize) -> Vec<u8> {
    let mut m = [epoch.to_le_bytes(), index.to_le_bytes()].concat();
    m.resize(8 + pad, 0xAB);
    m
}

struct Contract {
    sim: Simulator,
    /// The two endpoints of each link.
    ends: [[Endpoint; 2]; 2],
    /// Each link's connection epoch: bumped by every reconnect.
    epoch: [u32; 2],
    /// Per endpoint index: messages sent and received this epoch.
    sent: [u32; 4],
    received: [u32; 4],
}

impl Contract {
    fn new(seed: u64, profiles: [LinkProfile; 2], faults: [FaultSchedule; 2]) -> Contract {
        let mut sim = Simulator::new(seed);
        sim.set_tracing(true);
        let mut ends = Vec::new();
        for (profile, schedule) in profiles.into_iter().zip(faults) {
            let (a, b) = sim.link(profile);
            sim.set_link_faults(a, schedule);
            ends.push([a, b]);
        }
        Contract {
            sim,
            ends: [ends[0], ends[1]],
            epoch: [0; 2],
            sent: [0; 4],
            received: [0; 4],
        }
    }

    /// `run_until(t)` ends at `max(now, t)` and neither delivers nor
    /// drops anything arriving after `t`.
    fn run_until(&mut self, t_us: u64) -> Result<(), TestCaseError> {
        let before = self.sim.now_us();
        self.sim.run_until(t_us);
        prop_assert_eq!(self.sim.now_us(), before.max(t_us), "run_until({})", t_us);
        for e in self.sim.take_trace() {
            prop_assert!(e.t_us <= t_us, "{:?} after run_until({})", e, t_us);
        }
        Ok(())
    }

    fn apply(&mut self, op: Op) -> Result<(), TestCaseError> {
        match op {
            Op::Send { link, back, pad } => {
                let from = self.ends[link][back as usize];
                let n = &mut self.sent[from.index()];
                self.sim.send(from, message(self.epoch[link], *n, pad));
                *n += 1;
            }
            Op::RunUntil(dt) => self.run_until(self.sim.now_us() + dt)?,
            Op::Advance(dt) => {
                let target = self.sim.now_us() + dt;
                self.sim.advance(dt);
                prop_assert_eq!(self.sim.now_us(), target);
            }
            Op::Step => {
                self.sim.step();
            }
            Op::Reconnect(link) => {
                let [a, b] = self.ends[link];
                if !self.sim.link_up(a) && self.sim.reconnect(a) {
                    self.epoch[link] += 1;
                    for ep in [a, b] {
                        self.sent[ep.index()] = 0;
                        self.received[ep.index()] = 0;
                    }
                }
            }
        }
        self.sim.take_trace();
        self.drain()
    }

    /// Each endpoint holds the next messages of its peer's stream in the
    /// current epoch, in order. No reconnect happens between a delivery
    /// and this check, so nothing from an earlier epoch may show up.
    fn drain(&mut self) -> Result<(), TestCaseError> {
        for (link, ends) in self.ends.into_iter().enumerate() {
            for ep in ends {
                while let Some(m) = self.sim.recv(ep) {
                    let epoch = u32::from_le_bytes(m[..4].try_into().unwrap());
                    let index = u32::from_le_bytes(m[4..8].try_into().unwrap());
                    let next = &mut self.received[ep.index()];
                    prop_assert_eq!(
                        (epoch, index),
                        (self.epoch[link], *next),
                        "endpoint {} got a message out of its prefix",
                        ep.index()
                    );
                    *next += 1;
                }
            }
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn each_connection_delivers_a_prefix_and_run_until_stops_at_its_target(
        seed in any::<u64>(),
        profiles in (arb_profile(), arb_profile()),
        faults in (arb_schedule(), arb_schedule()),
        ops in proptest::collection::vec(arb_op(), 1..80),
    ) {
        let mut c = Contract::new(seed, [profiles.0, profiles.1], [faults.0, faults.1]);
        for op in ops {
            c.apply(op)?;
        }
        c.sim.run_until_idle();
        c.drain()?;
        // A connection that is still up lost nothing it carried.
        for [a, b] in c.ends {
            if c.sim.link_up(a) {
                prop_assert_eq!(c.received[b.index()], c.sent[a.index()]);
                prop_assert_eq!(c.received[a.index()], c.sent[b.index()]);
            }
        }
    }
}
