//! Device-level chaos: scripted plug-in faults, the dual of
//! `uniint_netsim::fault` for the device boundary.
//!
//! Where `netsim::fault::FaultSchedule` corrupts the *link* (loss bursts,
//! flaps, latency spikes), [`DeviceFaultSchedule`] corrupts the *device*:
//! its plug-ins panic, stall, emit garbage or storm events on scripted
//! call indices. Both are seeded and fully deterministic, so a chaos run
//! that fails reproduces exactly from its seed.
//!
//! # Schedule format
//!
//! A schedule maps **call indices** (0-based, counted separately for
//! input `translate` and output `adapt` calls) to faults:
//!
//! ```
//! use uniint_devices::chaos::{DeviceFaultSchedule, Fault};
//! let sched = DeviceFaultSchedule::new()
//!     .panic_on_input(2)        // 3rd translate call panics
//!     .stall_on_adapt(0)        // 1st adapt call spins until its budget dies
//!     .garbage_on_input(5)      // 6th translate returns out-of-range pointers
//!     .storm_on_input(7, 500)   // 8th translate repeats its events 500×
//!     .die_after_inputs(10);    // device stops responding afterwards
//! assert_eq!(sched.input_fault(2), Some(Fault::Panic));
//! ```
//!
//! Faults on indices never reached simply do not fire — schedules are
//! scripts, not invariants. Injected stalls burn the supervisor's step
//! budget via [`uniint_core::supervisor::consume_fuel`], so they are
//! finite under supervision and a no-op without it.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uniint_core::coordinator::InteractionDevice;
use uniint_core::plugin::{DeviceEvent, DeviceFrame, InputContext, InputPlugin, OutputPlugin};
use uniint_core::supervisor::consume_fuel;
use uniint_protocol::input::{ButtonMask, InputEvent};
use uniint_raster::color::Color;
use uniint_raster::framebuffer::Framebuffer;
use uniint_telemetry::journal::Journal;
use uniint_telemetry::registry::{Counter, Registry};

/// One scripted plug-in fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The plug-in call panics.
    Panic,
    /// The call spins until the supervisor's step budget is exhausted.
    Stall,
    /// The call returns invalid data: far out-of-range pointer events,
    /// or a frame larger than the device's declared screen.
    Garbage,
    /// The call returns its events repeated this many times (input only;
    /// on adapt it behaves like a clean call).
    Storm(u32),
}

/// Scripted faults for one device, by plug-in call index.
#[derive(Debug, Clone, Default)]
pub struct DeviceFaultSchedule {
    input: BTreeMap<u64, Fault>,
    adapt: BTreeMap<u64, Fault>,
    die_after: Option<u64>,
}

impl DeviceFaultSchedule {
    /// An empty schedule (the device behaves perfectly).
    pub fn new() -> DeviceFaultSchedule {
        DeviceFaultSchedule::default()
    }

    /// The `n`-th `translate` call panics.
    pub fn panic_on_input(mut self, n: u64) -> DeviceFaultSchedule {
        self.input.insert(n, Fault::Panic);
        self
    }

    /// The `n`-th `translate` call stalls.
    pub fn stall_on_input(mut self, n: u64) -> DeviceFaultSchedule {
        self.input.insert(n, Fault::Stall);
        self
    }

    /// The `n`-th `translate` call returns out-of-range pointer events.
    pub fn garbage_on_input(mut self, n: u64) -> DeviceFaultSchedule {
        self.input.insert(n, Fault::Garbage);
        self
    }

    /// The `n`-th `translate` call repeats its events `k` times.
    pub fn storm_on_input(mut self, n: u64, k: u32) -> DeviceFaultSchedule {
        self.input.insert(n, Fault::Storm(k));
        self
    }

    /// The `n`-th `adapt` call panics.
    pub fn panic_on_adapt(mut self, n: u64) -> DeviceFaultSchedule {
        self.adapt.insert(n, Fault::Panic);
        self
    }

    /// The `n`-th `adapt` call stalls.
    pub fn stall_on_adapt(mut self, n: u64) -> DeviceFaultSchedule {
        self.adapt.insert(n, Fault::Stall);
        self
    }

    /// After `n` `translate` calls the device goes silent: later calls
    /// return nothing (the harness should also stop heartbeating it).
    pub fn die_after_inputs(mut self, n: u64) -> DeviceFaultSchedule {
        self.die_after = Some(n);
        self
    }

    /// The fault scripted for `translate` call `n`, if any.
    pub fn input_fault(&self, n: u64) -> Option<Fault> {
        self.input.get(&n).copied()
    }

    /// The fault scripted for `adapt` call `n`, if any.
    pub fn adapt_fault(&self, n: u64) -> Option<Fault> {
        self.adapt.get(&n).copied()
    }
}

/// Pre-registered telemetry handles for one chaos-wrapped device.
#[derive(Debug)]
struct ChaosTelemetry {
    faults_injected: Counter,
    journal: Journal,
}

#[derive(Debug)]
struct FaultyState {
    schedule: DeviceFaultSchedule,
    input_calls: u64,
    adapt_calls: u64,
    rng: StdRng,
    telemetry: Option<ChaosTelemetry>,
}

impl FaultyState {
    fn dead(&self) -> bool {
        self.schedule
            .die_after
            .is_some_and(|n| self.input_calls >= n)
    }

    /// Counts and journals one scripted fault as it fires.
    fn note_fault(&self, site: &str, n: u64, fault: Fault) {
        if let Some(t) = &self.telemetry {
            t.faults_injected.inc();
            t.journal
                .record("chaos.fault", format!("{site} call {n}: {fault:?}"));
        }
    }
}

/// Observer handle onto a [`FaultyDevice`]'s shared state, for test
/// assertions (how far did the script get, is the device dead).
#[derive(Debug, Clone)]
pub struct FaultyHandle(Arc<Mutex<FaultyState>>);

impl FaultyHandle {
    /// Whether the scripted death point has been reached.
    pub fn is_dead(&self) -> bool {
        self.0.lock().map(|s| s.dead()).unwrap_or(true)
    }

    /// `translate` calls made so far (across plug-in re-uploads).
    pub fn input_calls(&self) -> u64 {
        self.0.lock().map(|s| s.input_calls).unwrap_or(0)
    }

    /// `adapt` calls made so far (across plug-in re-uploads).
    pub fn adapt_calls(&self) -> u64 {
        self.0.lock().map(|s| s.adapt_calls).unwrap_or(0)
    }
}

/// Wraps an [`InteractionDevice`] so the plug-ins it uploads misbehave
/// per `schedule`. Call counters live in the wrapper and persist across
/// plug-in re-uploads (quarantine → readmission → fresh factory call),
/// so a schedule indexes the device's lifetime, not one plug-in's.
pub struct FaultyDevice;

impl FaultyDevice {
    /// Applies `schedule` to `device`'s plug-ins. `seed` drives the
    /// garbage generator, keeping runs bit-reproducible.
    pub fn wrap(
        device: InteractionDevice,
        schedule: DeviceFaultSchedule,
        seed: u64,
    ) -> (InteractionDevice, FaultyHandle) {
        FaultyDevice::wrap_inner(device, schedule, seed, None)
    }

    /// Like [`FaultyDevice::wrap`], but records every fired fault into
    /// `registry`: counter `chaos.faults_injected` plus a `chaos.fault`
    /// journal event naming the call site, index and fault kind.
    pub fn wrap_with_telemetry(
        device: InteractionDevice,
        schedule: DeviceFaultSchedule,
        seed: u64,
        registry: &Registry,
    ) -> (InteractionDevice, FaultyHandle) {
        let telemetry = ChaosTelemetry {
            faults_injected: registry.counter("chaos.faults_injected"),
            journal: registry.journal().clone(),
        };
        FaultyDevice::wrap_inner(device, schedule, seed, Some(telemetry))
    }

    fn wrap_inner(
        device: InteractionDevice,
        schedule: DeviceFaultSchedule,
        seed: u64,
        telemetry: Option<ChaosTelemetry>,
    ) -> (InteractionDevice, FaultyHandle) {
        let state = Arc::new(Mutex::new(FaultyState {
            schedule,
            input_calls: 0,
            adapt_calls: 0,
            rng: StdRng::seed_from_u64(seed ^ 0x000f_a017_dead_beef),
            telemetry,
        }));
        let handle = FaultyHandle(state.clone());
        let in_state = state.clone();
        let device = device.map_input_factory(move |f| {
            let state = in_state.clone();
            Box::new(move || {
                Box::new(FaultyInput {
                    state: state.clone(),
                    inner: f(),
                })
            })
        });
        let device = device.map_output_factory(move |f| {
            let state = state.clone();
            Box::new(move || {
                Box::new(FaultyOutput {
                    state: state.clone(),
                    inner: f(),
                })
            })
        });
        (device, handle)
    }
}

/// Spins the supervisor's step budget away (finite under supervision,
/// immediate exit without one).
fn burn_budget() {
    while consume_fuel(1024) {}
}

#[derive(Debug)]
struct FaultyInput {
    state: Arc<Mutex<FaultyState>>,
    inner: Box<dyn InputPlugin>,
}

impl InputPlugin for FaultyInput {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn translate(&mut self, ev: &DeviceEvent, ctx: &InputContext) -> Vec<InputEvent> {
        let (fault, garbage_xy) = {
            let Ok(mut s) = self.state.lock() else {
                return Vec::new();
            };
            if s.dead() {
                return Vec::new();
            }
            let n = s.input_calls;
            s.input_calls += 1;
            let fault = s.schedule.input_fault(n);
            if let Some(f) = fault {
                s.note_fault("translate", n, f);
            }
            // Pre-draw garbage coordinates while the lock is held so the
            // RNG consumption order stays deterministic.
            let xy = if fault == Some(Fault::Garbage) {
                (0..4)
                    .map(|_| {
                        (
                            u16::MAX - s.rng.gen_range(0..128u16),
                            u16::MAX - s.rng.gen_range(0..128u16),
                        )
                    })
                    .collect()
            } else {
                Vec::new()
            };
            (fault, xy)
        };
        match fault {
            Some(Fault::Panic) => panic!("injected plug-in panic (scripted chaos)"),
            Some(Fault::Stall) => {
                burn_budget();
                Vec::new()
            }
            Some(Fault::Garbage) => garbage_xy
                .into_iter()
                .map(|(x, y)| InputEvent::Pointer {
                    x,
                    y,
                    buttons: ButtonMask::NONE,
                })
                .collect(),
            Some(Fault::Storm(k)) => {
                let base = self.inner.translate(ev, ctx);
                let mut out = Vec::with_capacity(base.len() * k as usize);
                for _ in 0..k.max(1) {
                    out.extend(base.iter().copied());
                }
                out
            }
            None => self.inner.translate(ev, ctx),
        }
    }
}

#[derive(Debug)]
struct FaultyOutput {
    state: Arc<Mutex<FaultyState>>,
    inner: Box<dyn OutputPlugin>,
}

impl OutputPlugin for FaultyOutput {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn caps(&self) -> uniint_core::plugin::OutputCaps {
        self.inner.caps()
    }

    fn adapt(&mut self, server_frame: &Framebuffer) -> DeviceFrame {
        let fault = {
            let Ok(mut s) = self.state.lock() else {
                return self.inner.adapt(server_frame);
            };
            let n = s.adapt_calls;
            s.adapt_calls += 1;
            let fault = s.schedule.adapt_fault(n);
            if let Some(f) = fault {
                s.note_fault("adapt", n, f);
            }
            fault
        };
        match fault {
            Some(Fault::Panic) => panic!("injected plug-in panic (scripted chaos)"),
            Some(Fault::Stall) => {
                burn_budget();
                self.inner.adapt(server_frame)
            }
            Some(Fault::Garbage) => {
                // Twice the declared screen: the supervisor must reject it.
                let caps = self.inner.caps();
                let fb =
                    Framebuffer::new(caps.size.w.max(1) * 2, caps.size.h.max(1) * 2, Color::WHITE);
                DeviceFrame::new(fb, caps.format, 0)
            }
            Some(Fault::Storm(_)) | None => self.inner.adapt(server_frame),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimPda;
    use uniint_core::prelude::{Supervisor, UniIntProxy};
    use uniint_core::proxy::MAX_EVENTS_PER_DEVICE_EVENT;
    use uniint_protocol::message::ServerMessage;
    use uniint_raster::pixel::PixelFormat;

    fn connected_proxy() -> UniIntProxy {
        let mut p = UniIntProxy::new("p");
        p.handle_server(&ServerMessage::Init {
            version: 1,
            width: 240,
            height: 320,
            format: PixelFormat::Rgb888,
            name: "t".into(),
        })
        .unwrap();
        p
    }

    #[test]
    fn scripted_panic_fires_on_exact_call() {
        let (dev, _h) = FaultyDevice::wrap(
            SimPda::interaction_device("pda"),
            DeviceFaultSchedule::new().panic_on_input(1),
            7,
        );
        let mut proxy = connected_proxy();
        let mut coord = uniint_core::coordinator::Coordinator::new(
            uniint_core::context::UserProfile::neutral("u"),
            uniint_core::context::Situation::idle("z"),
        );
        let mut sup = Supervisor::new(7);
        coord.register(sup.supervise(dev), &mut proxy);
        // Call 0 clean, call 1 panics (contained), call 2 clean again.
        let tap = SimPda::tap(10, 10);
        assert!(!proxy.device_input(&tap[0]).is_empty());
        assert!(proxy.device_input(&tap[1]).is_empty(), "panic contained");
        let tap2 = SimPda::tap(10, 10);
        assert!(!proxy.device_input(&tap2[0]).is_empty());
        sup.tick(0, &mut coord, &mut proxy);
        assert_eq!(sup.stats().plugin_panics, 1);
    }

    #[test]
    fn garbage_events_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let (dev, _h) = FaultyDevice::wrap(
                SimPda::interaction_device("pda"),
                DeviceFaultSchedule::new().garbage_on_input(0),
                seed,
            );
            let mut proxy = connected_proxy();
            let mut coord = uniint_core::coordinator::Coordinator::new(
                uniint_core::context::UserProfile::neutral("u"),
                uniint_core::context::Situation::idle("z"),
            );
            coord.register(dev, &mut proxy);
            // Unsupervised here: garbage passes through; capture it.
            proxy.device_input(&DeviceEvent::StylusDown { x: 1, y: 1 })
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100), "different seed, different garbage");
    }

    #[test]
    fn storm_is_capped_by_proxy_flood_protection() {
        let (dev, _h) = FaultyDevice::wrap(
            SimPda::interaction_device("pda"),
            DeviceFaultSchedule::new().storm_on_input(0, 5000),
            7,
        );
        let mut proxy = connected_proxy();
        let mut coord = uniint_core::coordinator::Coordinator::new(
            uniint_core::context::UserProfile::neutral("u"),
            uniint_core::context::Situation::idle("z"),
        );
        coord.register(dev, &mut proxy);
        let msgs = proxy.device_input(&DeviceEvent::StylusDown { x: 5, y: 5 });
        assert!(msgs.len() <= MAX_EVENTS_PER_DEVICE_EVENT);
        let st = proxy.stats();
        assert!(st.events_coalesced + st.flood_dropped > 0, "{st:?}");
    }

    #[test]
    fn death_silences_input() {
        let (dev, h) = FaultyDevice::wrap(
            SimPda::interaction_device("pda"),
            DeviceFaultSchedule::new().die_after_inputs(2),
            7,
        );
        let mut proxy = connected_proxy();
        let mut coord = uniint_core::coordinator::Coordinator::new(
            uniint_core::context::UserProfile::neutral("u"),
            uniint_core::context::Situation::idle("z"),
        );
        coord.register(dev, &mut proxy);
        let tap = SimPda::tap(10, 10);
        assert!(!proxy.device_input(&tap[0]).is_empty());
        assert!(!proxy.device_input(&tap[1]).is_empty());
        assert!(h.is_dead());
        assert!(
            proxy.device_input(&tap[0]).is_empty(),
            "dead device is mute"
        );
        assert_eq!(h.input_calls(), 2, "dead calls are not counted");
    }

    #[test]
    fn telemetry_counts_and_journals_fired_faults() {
        let registry = Registry::new();
        let (dev, _h) = FaultyDevice::wrap_with_telemetry(
            SimPda::interaction_device("pda"),
            DeviceFaultSchedule::new()
                .garbage_on_input(0)
                .storm_on_input(1, 3),
            7,
            &registry,
        );
        let mut proxy = connected_proxy();
        let mut coord = uniint_core::coordinator::Coordinator::new(
            uniint_core::context::UserProfile::neutral("u"),
            uniint_core::context::Situation::idle("z"),
        );
        coord.register(dev, &mut proxy);
        let tap = SimPda::tap(10, 10);
        let _ = proxy.device_input(&tap[0]); // garbage fires
        let _ = proxy.device_input(&tap[1]); // storm fires
        let tap2 = SimPda::tap(10, 10);
        let _ = proxy.device_input(&tap2[0]); // clean: no fault scripted
        assert_eq!(registry.counter("chaos.faults_injected").get(), 2);
        let events = registry.journal().events();
        let chaos: Vec<_> = events.iter().filter(|e| e.name == "chaos.fault").collect();
        assert_eq!(chaos.len(), 2);
        assert!(chaos[0].detail.contains("translate call 0: Garbage"));
        assert!(chaos[1].detail.contains("translate call 1: Storm(3)"));
    }

    #[test]
    fn stall_without_supervisor_is_noop() {
        let (dev, _h) = FaultyDevice::wrap(
            SimPda::interaction_device("pda"),
            DeviceFaultSchedule::new().stall_on_input(0),
            7,
        );
        let mut proxy = connected_proxy();
        let mut coord = uniint_core::coordinator::Coordinator::new(
            uniint_core::context::UserProfile::neutral("u"),
            uniint_core::context::Situation::idle("z"),
        );
        coord.register(dev, &mut proxy);
        // The PDA's screen queued its renegotiation.
        assert!(!proxy.take_outbox().is_empty());
        // Unsupervised: consume_fuel returns false immediately, so this
        // returns (empty) instead of hanging the test suite.
        assert!(proxy
            .device_input(&DeviceEvent::StylusDown { x: 1, y: 1 })
            .is_empty());
    }
}
