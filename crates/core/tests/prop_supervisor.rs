//! Model test for the supervisor's health machine: supervised devices
//! whose plug-ins follow a fault script are driven through random
//! interleavings of plug-in calls, heartbeats and ticks at rising times.
//! After every tick the reported events must replay to each device's
//! health, chain from one to the next, never leave `Dead`, and lead the
//! tick's messages as one `DeviceHealth` notice each.

use std::collections::BTreeMap;

use proptest::prelude::*;
use uniint_core::context::{DeviceDescriptor, InputModality, Situation, UserProfile};
use uniint_core::coordinator::{Coordinator, InteractionDevice};
use uniint_core::plugin::{DeviceEvent, InputContext, InputPlugin};
use uniint_core::proxy::UniIntProxy;
use uniint_core::supervisor::{consume_fuel, HealthEvent, Supervisor};
use uniint_protocol::input::{ButtonMask, InputEvent};
use uniint_protocol::message::{ClientMessage, DeviceHealthState, ServerMessage};
use uniint_raster::geom::Size;
use uniint_raster::pixel::PixelFormat;

/// What one scripted plug-in call does.
#[derive(Debug, Clone, Copy)]
enum Step {
    Clean,
    Panic,
    Stall,
    OutOfRange,
}

/// An input plug-in that plays its script, one step per call, then
/// calls cleanly.
#[derive(Debug)]
struct Scripted {
    script: Vec<Step>,
    next: usize,
}

impl InputPlugin for Scripted {
    fn kind(&self) -> &'static str {
        "scripted"
    }

    fn translate(&mut self, _: &DeviceEvent, _: &InputContext) -> Vec<InputEvent> {
        let step = self.script.get(self.next).copied();
        self.next += 1;
        match step.unwrap_or(Step::Clean) {
            Step::Clean => InputEvent::key_tap('x'.into()).to_vec(),
            Step::Panic => panic!("scripted fault"),
            Step::Stall => {
                while consume_fuel(64) {}
                Vec::new()
            }
            Step::OutOfRange => vec![InputEvent::Pointer {
                x: u16::MAX,
                y: u16::MAX,
                buttons: ButtonMask::NONE,
            }],
        }
    }
}

/// One operation of a run; every operation first advances the clock.
#[derive(Debug, Clone, Copy)]
enum Op {
    Call(usize),
    Heartbeat(usize),
    Tick,
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => Just(Step::Clean),
        1 => Just(Step::Panic),
        1 => Just(Step::Stall),
        1 => Just(Step::OutOfRange),
    ]
}

fn arb_op(devices: usize) -> impl Strategy<Value = (u64, Op)> {
    let op = prop_oneof![
        8 => (0..devices).prop_map(Op::Call),
        3 => (0..devices).prop_map(Op::Heartbeat),
        3 => Just(Op::Tick),
    ];
    (0u64..150_000, op)
}

fn arb_run() -> impl Strategy<Value = (Vec<Vec<Step>>, Vec<(u64, Op)>)> {
    (1usize..4).prop_flat_map(|n| {
        (
            proptest::collection::vec(proptest::collection::vec(arb_step(), 0..16), n..n + 1),
            proptest::collection::vec(arb_op(n), 1..160),
        )
    })
}

fn connected_proxy() -> UniIntProxy {
    let mut p = UniIntProxy::new("p");
    p.handle_server(&ServerMessage::Init {
        version: 1,
        width: 64,
        height: 48,
        format: PixelFormat::Rgb888,
        name: "t".into(),
    })
    .unwrap();
    p
}

/// Replays `events` from `Healthy`, checking that each starts where the
/// previous one left its device and that nothing leaves `Dead`.
fn replay(events: &[HealthEvent]) -> Result<BTreeMap<&str, DeviceHealthState>, String> {
    let mut health = BTreeMap::new();
    for e in events {
        let at = health
            .entry(e.device.as_str())
            .or_insert(DeviceHealthState::Healthy);
        if e.from != *at {
            return Err(format!("{e:?} does not start from {at:?}"));
        }
        if *at == DeviceHealthState::Dead {
            return Err(format!("{e:?} leaves Dead"));
        }
        *at = e.to;
    }
    Ok(health)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn reported_events_replay_to_every_devices_health(
        (scripts, ops) in arb_run(),
        seed in 0u64..1_000,
    ) {
        let mut sup = Supervisor::new(seed);
        let mut proxy = connected_proxy();
        let mut coord = Coordinator::new(UserProfile::neutral("u"), Situation::idle("kitchen"));
        let ids: Vec<String> = (0..scripts.len()).map(|i| format!("dev-{i}")).collect();
        let mut plugins = Vec::new();
        for (id, script) in ids.iter().zip(&scripts) {
            // Registered so ticks drive failover; called through its own
            // shim so every device's script runs whichever is active.
            let script2 = script.clone();
            let device = InteractionDevice::new(
                DeviceDescriptor::carried(id, id).with_input(InputModality::Keypad),
            )
            .with_input_factory(Box::new(move || {
                Box::new(Scripted { script: script2.clone(), next: 0 })
            }));
            coord.register(sup.supervise(device), &mut proxy);
            let plugin = Scripted { script: script.clone(), next: 0 };
            plugins.push(sup.wrap_input(id, Box::new(plugin)));
        }
        let ctx = InputContext {
            server_size: Size::new(64, 48),
            device_view: Size::new(64, 48),
        };
        let mut now = 0u64;
        let mut events = Vec::new();
        for (dt, op) in ops {
            now += dt;
            match op {
                Op::Call(i) => {
                    plugins[i].translate(&DeviceEvent::KeypadSelect, &ctx);
                }
                Op::Heartbeat(i) => sup.heartbeat(&ids[i], now),
                Op::Tick => {
                    let report = sup.tick(now, &mut coord, &mut proxy);
                    let notices: Vec<ClientMessage> = report
                        .events
                        .iter()
                        .map(|e| ClientMessage::DeviceHealth {
                            device: e.device.clone(),
                            state: e.to,
                        })
                        .collect();
                    let queued = proxy.take_outbox();
                    prop_assert!(queued.starts_with(&notices), "{:?}", queued);
                    let all_notices = queued
                        .iter()
                        .filter(|m| matches!(m, ClientMessage::DeviceHealth { .. }))
                        .count();
                    prop_assert_eq!(all_notices, notices.len(), "one notice per event");
                    events.extend(report.events);
                    let replayed = replay(&events).map_err(TestCaseError::fail)?;
                    for id in &ids {
                        let want = replayed.get(id.as_str()).copied().unwrap_or_default();
                        prop_assert_eq!(sup.health(id), Some(want), "{} at {} µs", id, now);
                    }
                }
            }
        }
    }
}
