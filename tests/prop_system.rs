//! System-level property tests: random event storms against the full
//! pipeline must never panic and must preserve appliance-state
//! invariants.

use proptest::prelude::*;
use uniint::prelude::*;

fn arb_device_event() -> impl Strategy<Value = DeviceEvent> {
    prop_oneof![
        (any::<u16>(), any::<u16>()).prop_map(|(x, y)| DeviceEvent::StylusDown {
            x: x % 400,
            y: y % 400
        }),
        (any::<u16>(), any::<u16>()).prop_map(|(x, y)| DeviceEvent::StylusMove {
            x: x % 400,
            y: y % 400
        }),
        (any::<u16>(), any::<u16>()).prop_map(|(x, y)| DeviceEvent::StylusUp {
            x: x % 400,
            y: y % 400
        }),
        (0u8..12).prop_map(DeviceEvent::KeypadDigit),
        proptest::sample::select(vec![Nav::Up, Nav::Down, Nav::Left, Nav::Right])
            .prop_map(DeviceEvent::KeypadNav),
        Just(DeviceEvent::KeypadSelect),
        Just(DeviceEvent::KeypadBack),
        proptest::sample::select(vec![
            "next",
            "select",
            "up",
            "down",
            "left",
            "right",
            "louder",
            "five",
            "garbage words",
        ])
        .prop_map(|s| DeviceEvent::Voice(s.to_string())),
        proptest::sample::select(vec![
            Gesture::Swipe(Nav::Up),
            Gesture::Swipe(Nav::Down),
            Gesture::Fist,
            Gesture::Palm,
            Gesture::Circle,
        ])
        .prop_map(DeviceEvent::Gesture),
        proptest::sample::select(vec![
            RemoteKey::Power,
            RemoteKey::Ok,
            RemoteKey::Menu,
            RemoteKey::ChannelUp,
            RemoteKey::VolumeDown,
            RemoteKey::Mute,
            RemoteKey::Digit(5),
        ])
        .prop_map(DeviceEvent::Remote),
        any::<char>().prop_map(DeviceEvent::Char),
    ]
}

fn full_home() -> (HomeNetwork, ControlPanelApp) {
    let mut net = HomeNetwork::new();
    net.attach(
        DeviceSpec::new("TV", "living-room")
            .with_fcm(TunerFcm::new("TV Tuner", 12))
            .with_fcm(DisplayFcm::new("TV Display", 3)),
    );
    net.attach(DeviceSpec::new("VCR", "living-room").with_fcm(VcrFcm::new("Deck", 3600)));
    net.attach(DeviceSpec::new("Amp", "living-room").with_fcm(AmplifierFcm::new("Amp")));
    net.attach(DeviceSpec::new("AC", "living-room").with_fcm(AirconFcm::new("AC", 280)));
    let app = ControlPanelApp::new(&mut net, None, Theme::classic());
    (net, app)
}

/// Checks every appliance invariant reachable through status snapshots.
fn assert_appliance_invariants(net: &HomeNetwork) {
    for seid in net.find_fcms(&Query::new()) {
        for var in net.status(seid).unwrap() {
            match var {
                StateVar::Volume(v) | StateVar::Brightness(v) | StateVar::Dimmer(v) => {
                    assert!((0..=100).contains(&v), "{seid}: {var:?}");
                }
                StateVar::Channel(c) => assert!((1..=12).contains(&c), "{seid}: {var:?}"),
                StateVar::TargetTemp(t) => assert!((100..=350).contains(&t), "{seid}: {var:?}"),
                StateVar::TapePos(p) => assert!(p <= 3600, "{seid}: {var:?}"),
                _ => {}
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn event_storm_never_panics_and_preserves_invariants(
        events in proptest::collection::vec(arb_device_event(), 1..60),
        plugin_idx in 0usize..5,
    ) {
        let (mut net, mut app) = full_home();
        let mut session = LocalSession::connect(app.ui_mut());
        let plugin: Box<dyn uniint::core::plugin::InputPlugin> = match plugin_idx {
            0 => Box::new(StylusPlugin::new()),
            1 => Box::new(KeypadPlugin::new()),
            2 => Box::new(VoicePlugin::new()),
            3 => Box::new(GesturePlugin::new()),
            _ => Box::new(RemotePlugin::new()),
        };
        session.proxy.attach_input(plugin);
        session.proxy.attach_output(Box::new(ScreenPlugin::pda()));
        session.pump(app.ui_mut());

        for ev in &events {
            session.device_input(app.ui_mut(), ev);
            app.process(&mut net);
        }
        assert_appliance_invariants(&net);
        // The proxy's view stays consistent with the UI.
        session.pump(app.ui_mut());
        let remote = session.proxy.server_frame().unwrap();
        prop_assert_eq!(remote.size(), app.ui().size());
    }

    #[test]
    fn random_hotplug_sequences_keep_panel_consistent(ops in proptest::collection::vec(any::<bool>(), 1..20)) {
        let mut net = HomeNetwork::new();
        net.attach(DeviceSpec::new("TV", "zone").with_fcm(TunerFcm::new("Tuner", 5)));
        let mut app = ControlPanelApp::new(&mut net, None, Theme::classic());
        let mut session = LocalSession::connect(app.ui_mut());
        let mut spare: Vec<Guid> = Vec::new();
        for attach in ops {
            if attach {
                let g = net.attach(
                    DeviceSpec::new("Lamp", "zone").with_fcm(LightFcm::new("Lamp")),
                );
                spare.push(g);
            } else if let Some(g) = spare.pop() {
                net.detach(g);
            }
            app.process(&mut net);
            session.pump(app.ui_mut());
            // Section count mirrors the registry.
            let fcm_count = net.find_fcms(&Query::new()).len();
            prop_assert_eq!(app.section_count(), fcm_count);
            // Proxy framebuffer matches the recomposed window.
            let remote = session.proxy.server_frame().unwrap();
            prop_assert_eq!(remote.size(), app.ui().size());
        }
    }

    #[test]
    fn proxy_view_equals_server_view_after_any_interaction(
        taps in proptest::collection::vec((any::<u16>(), any::<u16>()), 1..20)
    ) {
        let (mut net, mut app) = full_home();
        let mut session = LocalSession::connect(app.ui_mut());
        session.proxy.attach_input(Box::new(StylusPlugin::new()));
        for (x, y) in taps {
            for ev in SimPda::tap(x % 400, y % 500) {
                session.device_input(app.ui_mut(), &ev);
            }
            app.process(&mut net);
            session.pump(app.ui_mut());
        }
        // Pixel-exact agreement (RGB888 transport).
        let remote = session.proxy.server_frame().unwrap();
        prop_assert_eq!(remote, app.ui().framebuffer());
    }
}
