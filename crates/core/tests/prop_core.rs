//! Property tests for the selection policy, the coordinator that applies
//! it, and the situation tracker: determinism, zone gating, hands-busy
//! safety, and a coordinator that always holds the policy's choice, whose
//! switches reach the server by a session's pump alone.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use uniint_core::context::{
    rank, select, Activity, DeviceDescriptor, InputModality, Noise, OutputProfile, Role, Situation,
    UserProfile,
};
use uniint_core::coordinator::{Coordinator, InteractionDevice};
use uniint_core::plugin::{
    DeviceEvent, DeviceFrame, InputContext, InputPlugin, OutputCaps, OutputPlugin,
};
use uniint_core::proxy::UniIntProxy;
use uniint_core::sensors::{SensorReading, SituationTracker};
use uniint_core::session::LocalSession;
use uniint_protocol::input::InputEvent;
use uniint_protocol::message::ServerMessage;
use uniint_raster::color::Color;
use uniint_raster::dither::DitherMode;
use uniint_raster::framebuffer::Framebuffer;
use uniint_raster::geom::{Rect, Size};
use uniint_raster::pixel::PixelFormat;
use uniint_raster::scale::{scale_to_fit, ScaleFilter};
use uniint_wsys::prelude::{Button, Theme};
use uniint_wsys::ui::Ui;

fn arb_zone() -> impl Strategy<Value = String> {
    proptest::sample::select(vec![
        "kitchen".to_string(),
        "living-room".to_string(),
        "bedroom".to_string(),
        "hall".to_string(),
    ])
}

fn arb_modality() -> impl Strategy<Value = InputModality> {
    proptest::sample::select(InputModality::ALL.to_vec())
}

fn arb_device(i: usize) -> impl Strategy<Value = DeviceDescriptor> {
    (
        proptest::option::of(arb_zone()),
        proptest::option::of(arb_modality()),
        proptest::option::of((16u32..800, 16u32..800, 1u32..25, any::<bool>())),
    )
        .prop_map(move |(zone, input, output)| {
            let mut d = DeviceDescriptor {
                id: format!("dev-{i}"),
                name: format!("Device {i}"),
                zone,
                input: None,
                output: None,
            };
            d.input = input;
            d.output = output.map(|(w, h, depth, far)| OutputProfile {
                size: Size::new(w, h),
                depth_bits: depth,
                far_readable: far,
            });
            d
        })
}

fn arb_devices() -> impl Strategy<Value = Vec<DeviceDescriptor>> {
    (1usize..8).prop_flat_map(|n| {
        let mut strategies = Vec::new();
        for i in 0..n {
            strategies.push(arb_device(i).boxed());
        }
        strategies
    })
}

fn arb_situation() -> impl Strategy<Value = Situation> {
    (
        arb_zone(),
        proptest::sample::select(vec![
            Activity::Idle,
            Activity::Cooking,
            Activity::WatchingTv,
            Activity::Working,
            Activity::Walking,
            Activity::Sleeping,
        ]),
        any::<bool>(),
        proptest::sample::select(vec![Noise::Quiet, Noise::Moderate, Noise::Loud]),
    )
        .prop_map(|(zone, activity, hands_busy, noise)| Situation {
            zone,
            activity,
            hands_busy,
            noise,
        })
}

/// Device slots the coordinator model draws from; slot `i` is `dev-{i}`.
const SLOTS: usize = 6;
/// Plug-in kinds per slot, so `proxy.attached()` names the device.
const INPUT_KINDS: [&str; SLOTS] = ["in-0", "in-1", "in-2", "in-3", "in-4", "in-5"];
const OUTPUT_KINDS: [&str; SLOTS] = ["out-0", "out-1", "out-2", "out-3", "out-4", "out-5"];
/// Transport format per slot: every format but the palette one, so an
/// output switch changes what the server sends.
const OUTPUT_FORMATS: [PixelFormat; SLOTS] = [
    PixelFormat::Rgb888,
    PixelFormat::Rgb565,
    PixelFormat::Rgb444,
    PixelFormat::Gray8,
    PixelFormat::Gray4,
    PixelFormat::Mono1,
];

#[derive(Debug)]
struct NullInput(&'static str);
impl InputPlugin for NullInput {
    fn kind(&self) -> &'static str {
        self.0
    }
    fn translate(&mut self, _: &DeviceEvent, _: &InputContext) -> Vec<InputEvent> {
        Vec::new()
    }
}

/// The output plug-in of a slot.
#[derive(Debug)]
struct NullOutput(usize);
impl OutputPlugin for NullOutput {
    fn kind(&self) -> &'static str {
        OUTPUT_KINDS[self.0]
    }
    fn caps(&self) -> OutputCaps {
        OutputCaps {
            size: Size::new(32, 32),
            format: OUTPUT_FORMATS[self.0],
            dither: DitherMode::None,
            scale: ScaleFilter::Nearest,
        }
    }
    fn adapt(&mut self, fb: &Framebuffer) -> DeviceFrame {
        let frame = scale_to_fit(fb, Size::new(32, 32), ScaleFilter::Nearest);
        DeviceFrame::new(frame, OUTPUT_FORMATS[self.0], 0)
    }
}

/// One step of the coordinator model.
#[derive(Debug, Clone)]
enum Op {
    /// Register `device` into its slot, with or without each factory.
    Register {
        slot: usize,
        device: DeviceDescriptor,
        input: bool,
        output: bool,
    },
    Unregister(usize),
    /// `set_available` followed by `reselect`, as the supervisor does.
    SetAvailable(usize, bool),
    SetSituation(Situation),
    SetProfile(UserProfile),
}

fn arb_profile() -> impl Strategy<Value = UserProfile> {
    (
        proptest::collection::vec(arb_modality(), 0..4),
        any::<bool>(),
    )
        .prop_map(|(input_ranking, prefers_large_screen)| UserProfile {
            name: "u".into(),
            input_ranking,
            prefers_large_screen,
        })
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..SLOTS).prop_flat_map(|slot| {
            (arb_device(slot), any::<bool>(), any::<bool>()).prop_map(
                move |(device, input, output)| Op::Register {
                    slot,
                    device,
                    input,
                    output,
                },
            )
        }),
        2 => (0..SLOTS).prop_map(Op::Unregister),
        2 => ((0..SLOTS), any::<bool>()).prop_map(|(slot, on)| Op::SetAvailable(slot, on)),
        1 => arb_situation().prop_map(Op::SetSituation),
        1 => arb_profile().prop_map(Op::SetProfile),
    ]
}

/// What the test knows about a registered slot.
struct Registered {
    device: DeviceDescriptor,
    input: bool,
    output: bool,
}

/// The coordinator's registrations and exclusions, kept independently.
struct Model {
    registered: BTreeMap<usize, Registered>,
    excluded: BTreeSet<String>,
    situation: Situation,
    profile: UserProfile,
}

impl Model {
    /// The policy's choice per role over the registered, available
    /// devices that carry that role's factory.
    fn expected(&self) -> (Option<String>, Option<String>) {
        let candidates = |has: fn(&Registered) -> bool| -> Vec<DeviceDescriptor> {
            self.registered
                .values()
                .filter(|r| has(r) && !self.excluded.contains(&r.device.id))
                .map(|r| r.device.clone())
                .collect()
        };
        let inputs = candidates(|r| r.input);
        let outputs = candidates(|r| r.output);
        (
            select(Role::Input, &inputs, &self.situation, &self.profile).map(|d| d.id.clone()),
            select(Role::Output, &outputs, &self.situation, &self.profile).map(|d| d.id.clone()),
        )
    }
}

fn kind_of(kinds: &[&'static str; SLOTS], id: Option<&str>) -> Option<&'static str> {
    id.map(|id| kinds[id.trim_start_matches("dev-").parse::<usize>().unwrap()])
}

/// A role's report entry names the new active device exactly when the
/// active id changed, or when re-registering the active device replaced
/// its stale plug-in with a fresh one.
fn check_named(
    named: Option<&str>,
    before: Option<&str>,
    after: Option<&str>,
    reattached: bool,
) -> Result<(), TestCaseError> {
    let changed = before != after || reattached;
    prop_assert_eq!(named, after.filter(|_| changed));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn coordinator_always_holds_the_policy_choice(
        ops in proptest::collection::vec(arb_op(), 1..40),
        sit in arb_situation(),
    ) {
        let mut proxy = UniIntProxy::new("p");
        proxy
            .handle_server(&ServerMessage::Init {
                version: 1,
                width: 64,
                height: 48,
                format: PixelFormat::Rgb888,
                name: "panel".into(),
            })
            .unwrap();
        let profile = UserProfile::neutral("u");
        let mut coord = Coordinator::new(profile.clone(), sit.clone());
        // The same ops over a session, whose pump alone must carry each
        // switch to the server.
        let mut ui = Ui::new(64, 48, Theme::classic(), "panel");
        ui.add(Button::new("Power"), Rect::new(8, 8, 48, 20));
        let mut session = LocalSession::connect(&mut ui);
        let mut session_coord = Coordinator::new(profile.clone(), sit.clone());
        // Applies `op` to `coord`, switching `proxy`'s plug-ins.
        let apply = |op: &Op, coord: &mut Coordinator, proxy: &mut UniIntProxy| match op.clone() {
            Op::Register { slot, device, input, output } => {
                let mut dev = InteractionDevice::new(device);
                if input {
                    let kind = INPUT_KINDS[slot];
                    dev = dev.with_input_factory(Box::new(move || Box::new(NullInput(kind))));
                }
                if output {
                    dev = dev.with_output_factory(Box::new(move || Box::new(NullOutput(slot))));
                }
                coord.register(dev, proxy)
            }
            Op::Unregister(slot) => coord.unregister(&format!("dev-{slot}"), proxy),
            Op::SetAvailable(slot, on) => {
                coord.set_available(&format!("dev-{slot}"), on);
                coord.reselect(proxy)
            }
            Op::SetSituation(sit) => coord.set_situation(sit, proxy),
            Op::SetProfile(profile) => coord.set_profile(profile, proxy),
        };
        let mut model = Model {
            registered: BTreeMap::new(),
            excluded: BTreeSet::new(),
            situation: sit,
            profile,
        };
        for op in ops {
            let before = (
                coord.active_input().map(str::to_owned),
                coord.active_output().map(str::to_owned),
            );
            let mut registered_id = None;
            match op.clone() {
                Op::Register { slot, device, input, output } => {
                    registered_id = Some(device.id.clone());
                    model.registered.insert(slot, Registered { device, input, output });
                }
                Op::Unregister(slot) => { model.registered.remove(&slot); }
                Op::SetAvailable(slot, true) => { model.excluded.remove(&format!("dev-{slot}")); }
                Op::SetAvailable(slot, false) => { model.excluded.insert(format!("dev-{slot}")); }
                Op::SetSituation(sit) => model.situation = sit,
                Op::SetProfile(profile) => model.profile = profile,
            }
            let report = apply(&op, &mut coord, &mut proxy);

            // 1. Each role holds the policy's choice.
            let (want_in, want_out) = model.expected();
            prop_assert_eq!(coord.active_input(), want_in.as_deref(), "after {:?}", op);
            prop_assert_eq!(coord.active_output(), want_out.as_deref(), "after {:?}", op);

            // 2. The proxy runs the active devices' plug-ins.
            let attached = proxy.attached();
            prop_assert_eq!(attached.0, kind_of(&INPUT_KINDS, coord.active_input()));
            prop_assert_eq!(attached.1, kind_of(&OUTPUT_KINDS, coord.active_output()));

            // 3. The report names exactly the roles that changed;
            // registering the active device again replaces its plug-in.
            let reattached = |was: &Option<String>| was.is_some() && *was == registered_id;
            check_named(
                report.input_switched_to.as_deref(),
                before.0.as_deref(),
                coord.active_input(),
                reattached(&before.0),
            )?;
            check_named(
                report.output_switched_to.as_deref(),
                before.1.as_deref(),
                coord.active_output(),
                reattached(&before.1),
            )?;
            prop_assert_eq!(
                proxy.take_outbox().is_empty(),
                report.output_switched_to.is_none(),
                "renegotiation only on an output switch, after {:?}",
                op
            );

            // 4. Over a session, a pump after the op is all it takes: the
            // proxy then holds the panel in its transport format.
            prop_assert_eq!(&apply(&op, &mut session_coord, &mut session.proxy), &report);
            session.pump(&mut ui);
            let format = session.proxy.transport_format();
            let panel = ui.framebuffer().pixels();
            let want: Vec<Color> = panel.iter().map(|&c| format.reduce(c)).collect();
            let fb = session.proxy.server_frame().expect("a session");
            prop_assert!(fb.pixels() == &want[..], "{:?} frame, after {:?}", format, op);
        }
    }

    #[test]
    fn selection_is_deterministic(devices in arb_devices(), sit in arb_situation()) {
        let user = UserProfile::neutral("u");
        let a = select(Role::Input, &devices, &sit, &user).map(|d| d.id.clone());
        let b = select(Role::Input, &devices, &sit, &user).map(|d| d.id.clone());
        prop_assert_eq!(a, b);
    }

    #[test]
    fn selected_devices_have_capability(devices in arb_devices(), sit in arb_situation()) {
        let user = UserProfile::neutral("u");
        if let Some(d) = select(Role::Input, &devices, &sit, &user) {
            prop_assert!(d.input.is_some());
        }
        if let Some(d) = select(Role::Output, &devices, &sit, &user) {
            prop_assert!(d.output.is_some());
        }
    }

    #[test]
    fn fixed_devices_never_selected_in_other_rooms(devices in arb_devices(), sit in arb_situation()) {
        let user = UserProfile::neutral("u");
        for sel in [
            select(Role::Input, &devices, &sit, &user),
            select(Role::Output, &devices, &sit, &user),
        ]
        .into_iter()
        .flatten()
        {
            if let Some(z) = &sel.zone {
                prop_assert_eq!(z, &sit.zone, "fixed device selected outside its room");
            }
        }
    }

    #[test]
    fn ranking_scores_are_sorted(devices in arb_devices(), sit in arb_situation()) {
        let user = UserProfile::neutral("u");
        let ranked = rank(Role::Input, &devices, &sit, &user);
        for w in ranked.windows(2) {
            prop_assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn preference_never_overrides_reachability(sit in arb_situation(), m in arb_modality()) {
        // A massively preferred device in another room still loses to any
        // reachable one.
        let far = DeviceDescriptor::fixed("far", "Far", "nowhere-zone").with_input(m);
        let near = DeviceDescriptor::carried("near", "Near").with_input(InputModality::Stylus);
        let mut user = UserProfile::neutral("u");
        user.input_ranking = vec![m];
        let devices = vec![far, near];
        let best = select(Role::Input, &devices, &sit, &user).unwrap();
        prop_assert_eq!(best.id.as_str(), "near");
    }

    #[test]
    fn tracker_committed_is_always_a_derivable_state(
        readings in proptest::collection::vec(
            prop_oneof![
                arb_zone().prop_map(|zone| SensorReading::Badge { zone }),
                proptest::sample::select(vec![Noise::Quiet, Noise::Moderate, Noise::Loud])
                    .prop_map(SensorReading::NoiseLevel),
                any::<bool>().prop_map(SensorReading::StoveActive),
                any::<bool>().prop_map(SensorReading::SofaOccupied),
                any::<bool>().prop_map(SensorReading::BedroomDark),
                any::<bool>().prop_map(SensorReading::Walking),
                any::<bool>().prop_map(SensorReading::HandsBusy),
            ],
            1..40,
        ),
        hysteresis in 0u64..5_000,
    ) {
        let mut t = SituationTracker::new("hall", hysteresis);
        let mut now = 0u64;
        for r in readings {
            now += 700;
            let _ = t.observe(now, r);
        }
        // Let everything settle; committed must equal pending.
        let _ = t.tick(now + hysteresis + 1);
        prop_assert_eq!(t.situation(), t.pending());
    }

    #[test]
    fn tracker_never_commits_before_hysteresis(hysteresis in 100u64..10_000) {
        let mut t = SituationTracker::new("hall", hysteresis);
        let changed = t.observe(0, SensorReading::Walking(true));
        prop_assert!(changed.is_none());
        prop_assert!(t.tick(hysteresis - 1).is_none());
        prop_assert!(t.tick(hysteresis).is_some());
    }
}
