//! Dynamic device switching: the coordinator reacts to situation changes
//! mid-session, swapping plug-ins while the appliance GUI keeps running.

use uniint::prelude::*;

fn cooking(zone: &str) -> Situation {
    Situation {
        zone: zone.into(),
        activity: Activity::Cooking,
        hands_busy: true,
        noise: Noise::Moderate,
    }
}

fn sofa(zone: &str) -> Situation {
    Situation {
        zone: zone.into(),
        activity: Activity::WatchingTv,
        hands_busy: false,
        noise: Noise::Moderate,
    }
}

fn setup() -> (HomeNetwork, ControlPanelApp, LocalSession, Coordinator) {
    let mut net = HomeNetwork::new();
    net.attach(DeviceSpec::new("TV", "living-room").with_fcm(TunerFcm::new("TV Tuner", 12)));
    let mut app = ControlPanelApp::new(&mut net, None, Theme::classic());
    let session = LocalSession::connect(app.ui_mut());
    let coord = Coordinator::new(UserProfile::neutral("alice"), Situation::idle("hallway"));
    (net, app, session, coord)
}

/// [`setup`] with the standard home registered, one pump per device.
fn home() -> (HomeNetwork, ControlPanelApp, LocalSession, Coordinator) {
    let (net, mut app, mut session, mut coord) = setup();
    for d in standard_home("kitchen", "living-room") {
        coord.register(d, &mut session.proxy);
        session.pump(app.ui_mut());
    }
    (net, app, session, coord)
}

#[test]
fn walking_to_kitchen_switches_to_voice_and_terminal() {
    let (_net, mut app, mut session, mut coord) = home();
    // In the hallway only carried devices are reachable.
    assert_eq!(coord.active_input(), Some("pda-1"));

    // The user walks into the kitchen and starts cooking.
    let report = coord.set_situation(cooking("kitchen"), &mut session.proxy);
    assert_eq!(report.input_switched_to.as_deref(), Some("mic-kitchen"));
    assert_eq!(session.proxy.attached().0, Some("voice"));
    // Output: hands busy penalizes handhelds; the kitchen terminal wins.
    assert_eq!(coord.active_output(), Some("term-kitchen"));
    session.pump(app.ui_mut());
    assert!(
        session.last_frame().is_some(),
        "terminal got a frame after switch"
    );
}

#[test]
fn sofa_selects_remote_and_tv() {
    let (_net, mut app, mut session, mut coord) = home();
    let report = coord.set_situation(sofa("living-room"), &mut session.proxy);
    assert_eq!(report.input_switched_to.as_deref(), Some("remote-lr"));
    assert_eq!(report.output_switched_to.as_deref(), Some("tv-lr"));
    session.pump(app.ui_mut());
    let frame = session.last_frame().expect("tv frame");
    assert_eq!(frame.format, PixelFormat::Rgb888);
    assert_eq!(frame.frame.width(), 640);
}

#[test]
fn session_survives_switch_mid_interaction() {
    let (mut net, mut app, mut session, mut coord) = home();
    // Start on the sofa with the remote: power the TV via mnemonic.
    coord.set_situation(sofa("living-room"), &mut session.proxy);
    session.pump(app.ui_mut());
    app.ui_mut().set_focus(None);
    session.device_input(app.ui_mut(), &SimRemote::press(RemoteKey::Power));
    app.process(&mut net);

    // Walk to the kitchen, cook, and keep controlling the same panel by
    // voice: channel up via focus navigation.
    coord.set_situation(cooking("kitchen"), &mut session.proxy);
    session.pump(app.ui_mut());
    session.device_input(
        app.ui_mut(),
        &DeviceEvent::Voice("next next next select".into()),
    );
    app.process(&mut net);

    let tuner = net.find_fcms(&Query::new().class(FcmClass::Tuner))[0];
    let vars = net.status(tuner).unwrap();
    assert!(vars.contains(&StateVar::Power(true)));
    assert!(vars.contains(&StateVar::Channel(2)), "{vars:?}");
}

#[test]
fn device_disconnect_falls_back() {
    let (_net, _app, mut session, mut coord) = home();
    coord.set_situation(cooking("kitchen"), &mut session.proxy);
    assert_eq!(coord.active_input(), Some("mic-kitchen"));
    // The microphone dies.
    let report = coord.unregister("mic-kitchen", &mut session.proxy);
    assert!(
        report.input_switched_to.is_some(),
        "fell back to another device"
    );
    assert_ne!(coord.active_input(), Some("mic-kitchen"));
}

#[test]
fn all_devices_gone_detaches_cleanly() {
    let (_net, mut app, mut session, mut coord) = setup();
    coord.register(SimPda::interaction_device("pda-1"), &mut session.proxy);
    session.pump(app.ui_mut());
    assert_eq!(coord.active_input(), Some("pda-1"));
    coord.unregister("pda-1", &mut session.proxy);
    assert_eq!(coord.active_input(), None);
    assert_eq!(session.proxy.attached(), (None, None));
    // Events are dropped but nothing panics.
    session.device_input(app.ui_mut(), &DeviceEvent::KeypadSelect);
    assert_eq!(session.proxy.stats().events_dropped, 1);
}

#[test]
fn preference_update_switches_input() {
    let (_net, mut app, mut session, mut coord) = setup();
    for d in [
        SimPda::interaction_device("pda-1"),
        SimPhone::interaction_device("phone-1"),
    ] {
        coord.register(d, &mut session.proxy);
        session.pump(app.ui_mut());
    }
    let mut profile = UserProfile::neutral("bob");
    profile.input_ranking = vec![InputModality::Keypad];
    let report = coord.set_profile(profile, &mut session.proxy);
    assert_eq!(report.input_switched_to.as_deref(), Some("phone-1"));
    assert_eq!(session.proxy.attached().0, Some("phone-keypad"));
}

#[test]
fn output_switch_changes_format_and_size() {
    let (_net, mut app, mut session, mut coord) = home();
    // Sofa: TV (640x480 RGB).
    coord.set_situation(sofa("living-room"), &mut session.proxy);
    session.pump(app.ui_mut());
    let tv_frame = session.take_frame().expect("tv frame");
    // Hallway: carried PDA wins (RGB444, 240-wide fit).
    let report = coord.set_situation(Situation::idle("hallway"), &mut session.proxy);
    assert_eq!(report.output_switched_to.as_deref(), Some("pda-1"));
    session.pump(app.ui_mut());
    let pda_frame = session.take_frame().expect("pda frame");
    assert_eq!(tv_frame.format, PixelFormat::Rgb888);
    assert_eq!(pda_frame.format, PixelFormat::Rgb444);
    assert!(pda_frame.frame.width() <= 240);
    assert!(pda_frame.wire_bytes < tv_frame.wire_bytes);
}

#[test]
fn sensor_fusion_drives_switching() {
    // End-to-end context loop: sensors → SituationTracker → Coordinator
    // → proxy plug-in switches, with hysteresis filtering blips.
    let (_net, mut app, mut session, mut coord) = home();
    let mut tracker = SituationTracker::new("hallway", 2_000);

    // The user walks to the kitchen and starts cooking.
    let mut t = 0u64;
    let apply = |tracker: &mut SituationTracker,
                 coord: &mut Coordinator,
                 session: &mut LocalSession,
                 app: &mut ControlPanelApp,
                 now: u64,
                 reading: SensorReading| {
        if let Some(sit) = tracker.observe(now, reading) {
            coord.set_situation(sit, &mut session.proxy);
            session.pump(app.ui_mut());
        }
    };
    apply(
        &mut tracker,
        &mut coord,
        &mut session,
        &mut app,
        t,
        SensorReading::Badge {
            zone: "kitchen".into(),
        },
    );
    t += 3_000;
    if let Some(sit) = tracker.tick(t) {
        coord.set_situation(sit, &mut session.proxy);
        session.pump(app.ui_mut());
    }
    apply(
        &mut tracker,
        &mut coord,
        &mut session,
        &mut app,
        t,
        SensorReading::StoveActive(true),
    );
    t += 3_000;
    if let Some(sit) = tracker.tick(t) {
        coord.set_situation(sit, &mut session.proxy);
        session.pump(app.ui_mut());
    }
    assert_eq!(coord.situation().activity, Activity::Cooking);
    assert_eq!(coord.active_input(), Some("mic-kitchen"));

    // A 500ms stove blip off→on must not switch anything.
    let before = coord.active_input().map(str::to_owned);
    apply(
        &mut tracker,
        &mut coord,
        &mut session,
        &mut app,
        t,
        SensorReading::StoveActive(false),
    );
    t += 500;
    apply(
        &mut tracker,
        &mut coord,
        &mut session,
        &mut app,
        t,
        SensorReading::StoveActive(true),
    );
    t += 3_000;
    if let Some(sit) = tracker.tick(t) {
        coord.set_situation(sit, &mut session.proxy);
        session.pump(app.ui_mut());
    }
    assert_eq!(
        coord.active_input().map(str::to_owned),
        before,
        "blip filtered"
    );
}
