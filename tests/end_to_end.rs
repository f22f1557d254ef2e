//! Full-pipeline integration tests: HAVi appliances → control-panel
//! application → UniInt server → universal interaction protocol → UniInt
//! proxy → interaction device plug-ins, and back.

use uniint::prelude::*;

/// A home with TV (tuner+display), VCR and amplifier in the living room.
fn living_room() -> (HomeNetwork, Seid, Seid, Seid) {
    let mut net = HomeNetwork::new();
    let tv = net.attach(
        DeviceSpec::new("TV", "living-room")
            .with_fcm(TunerFcm::new("TV Tuner", 12))
            .with_fcm(DisplayFcm::new("TV Display", 2)),
    );
    let vcr = net.attach(DeviceSpec::new("VCR", "living-room").with_fcm(VcrFcm::new("Deck", 3600)));
    let amp = net.attach(DeviceSpec::new("Amp", "living-room").with_fcm(AmplifierFcm::new("Amp")));
    (net, Seid::new(tv, 1), Seid::new(vcr, 1), Seid::new(amp, 1))
}

#[test]
fn phone_keypad_controls_tv_power() {
    let (mut net, tuner, ..) = living_room();
    let mut app = ControlPanelApp::new(&mut net, None, Theme::classic());
    let mut session = LocalSession::connect(app.ui_mut());
    session.proxy.attach_input(Box::new(KeypadPlugin::new()));
    let msgs = session
        .proxy
        .attach_output(Box::new(ScreenPlugin::phone_lcd()));
    session.deliver_to_server(app.ui_mut(), msgs);

    // The first focusable widget is the tuner's power toggle; keypad
    // select activates it.
    session.device_input(app.ui_mut(), &SimPhone::press('5').unwrap());
    let report = app.process(&mut net);
    assert_eq!(report.commands_sent, 1);
    let vars = net.status(tuner).unwrap();
    assert!(vars.contains(&StateVar::Power(true)));

    // The mono LCD frame exists and is 1-bit.
    let frame = session.last_frame().expect("phone got a frame");
    assert_eq!(frame.format, PixelFormat::Mono1);
    assert!(frame.frame.width() <= 128);
}

#[test]
fn pda_stylus_tap_clicks_widgets() {
    let (mut net, tuner, ..) = living_room();
    let mut app = ControlPanelApp::new(&mut net, None, Theme::classic());
    let mut session = LocalSession::connect(app.ui_mut());
    session.proxy.attach_input(Box::new(StylusPlugin::new()));
    let msgs = session.proxy.attach_output(Box::new(ScreenPlugin::pda()));
    session.deliver_to_server(app.ui_mut(), msgs);

    // Find the power toggle's center in *server* coordinates, then map it
    // to the PDA's fitted view to simulate where the user would tap.
    let server_size = app.ui().size();
    let power_rect = app
        .ui()
        .widget_ids()
        .into_iter()
        .find_map(|id| {
            app.ui().widget::<Toggle>(id)?;
            app.ui().widget_rect(id)
        })
        .expect("a power toggle exists");
    let center = power_rect.center();
    let view = uniint::core::proxy::fitted_view(server_size, Size::new(240, 320));
    let dx = (center.x as u64 * view.w as u64 / server_size.w as u64) as u16;
    let dy = (center.y as u64 * view.h as u64 / server_size.h as u64) as u16;
    for ev in SimPda::tap(dx, dy) {
        session.device_input(app.ui_mut(), &ev);
    }
    let report = app.process(&mut net);
    assert_eq!(report.commands_sent, 1);
    assert!(net.status(tuner).unwrap().contains(&StateVar::Power(true)));
}

#[test]
fn voice_commands_drive_panel() {
    let (mut net, tuner, ..) = living_room();
    let mut app = ControlPanelApp::new(&mut net, None, Theme::classic());
    let mut session = LocalSession::connect(app.ui_mut());
    session.proxy.attach_input(Box::new(VoicePlugin::new()));

    let mut recognizer = VoiceRecognizer::perfect();
    // "select" activates the focused power toggle.
    let ev = recognizer.hear("select").unwrap();
    session.device_input(app.ui_mut(), &ev);
    app.process(&mut net);
    assert!(net.status(tuner).unwrap().contains(&StateVar::Power(true)));

    // Channel up: "next next select" walks focus to the Ch+ button? The
    // layout puts Ch- then Ch+ after the toggle; navigate and activate.
    let ev = recognizer.hear("next next select").unwrap();
    session.device_input(app.ui_mut(), &ev);
    app.process(&mut net);
    let vars = net.status(tuner).unwrap();
    assert!(
        vars.contains(&StateVar::Channel(2)),
        "channel stepped up: {vars:?}"
    );
}

#[test]
fn noisy_recognizer_drops_commands_without_crashing() {
    let (mut net, tuner, ..) = living_room();
    let mut app = ControlPanelApp::new(&mut net, None, Theme::classic());
    let mut session = LocalSession::connect(app.ui_mut());
    session.proxy.attach_input(Box::new(VoicePlugin::new()));
    let mut recognizer = VoiceRecognizer::new(3, 0.3);
    for _ in 0..20 {
        if let Some(ev) = recognizer.hear("select") {
            session.device_input(app.ui_mut(), &ev);
        }
        app.process(&mut net);
    }
    // Whatever got through toggled power some number of times; the FCM
    // state must still be a valid boolean (no corruption).
    let vars = net.status(tuner).unwrap();
    assert!(vars.iter().any(|v| matches!(v, StateVar::Power(_))));
}

#[test]
fn remote_mnemonics_power_and_volume() {
    let (mut net, _, _, amp) = living_room();
    net.send(amp, &FcmCommand::SetPower(true)).unwrap();
    let mut app = ControlPanelApp::new(&mut net, None, Theme::classic());
    app.process(&mut net);
    let mut session = LocalSession::connect(app.ui_mut());
    session.proxy.attach_input(Box::new(RemotePlugin::new()));

    // Clear focus so the 'p' mnemonic is not consumed by a text field.
    app.ui_mut().set_focus(None);
    session.device_input(app.ui_mut(), &SimRemote::press(RemoteKey::Power));
    let report = app.process(&mut net);
    assert_eq!(report.commands_sent, 1, "power mnemonic fired");
}

#[test]
fn appliance_state_changes_reach_the_device_screen() {
    let (mut net, tuner, ..) = living_room();
    let mut app = ControlPanelApp::new(&mut net, None, Theme::classic());
    let mut session = LocalSession::connect(app.ui_mut());
    let msgs = session.proxy.attach_output(Box::new(ScreenPlugin::tv()));
    session.deliver_to_server(app.ui_mut(), msgs);
    let before = session.take_frame().expect("initial frame");

    // The appliance changes state on its own (someone used the front
    // panel); the GUI updates and a new frame reaches the output device.
    net.send(tuner, &FcmCommand::SetPower(true)).unwrap();
    net.send(tuner, &FcmCommand::SetChannel(9)).unwrap();
    app.process(&mut net);
    session.pump(app.ui_mut());
    let after = session.take_frame().expect("updated frame");
    assert_ne!(before.frame, after.frame, "channel digit repainted");
}

#[test]
fn hotplug_recomposition_propagates_resize() {
    let (mut net, ..) = living_room();
    let mut app = ControlPanelApp::new(&mut net, None, Theme::classic());
    let mut session = LocalSession::connect(app.ui_mut());
    let h_before = session.proxy.server_size().unwrap().h;

    net.attach(DeviceSpec::new("Light", "living-room").with_fcm(LightFcm::new("Lamp")));
    let report = app.process(&mut net);
    assert!(report.recomposed);
    session.pump(app.ui_mut());
    let h_after = session.proxy.server_size().unwrap().h;
    assert!(h_after > h_before, "panel grew: {h_before} -> {h_after}");

    // The proxy's reconstructed framebuffer matches the new UI exactly.
    let remote = session.proxy.server_frame().unwrap();
    assert_eq!(remote.size(), app.ui().size());
}

#[test]
fn vcr_transport_and_simulated_time() {
    let (mut net, _, vcr, _) = living_room();
    net.send(vcr, &FcmCommand::SetPower(true)).unwrap();
    let mut app = ControlPanelApp::new(&mut net, None, Theme::classic());
    app.process(&mut net);
    let mut session = LocalSession::connect(app.ui_mut());
    session.proxy.attach_input(Box::new(VoicePlugin::new()));

    // Navigate to the Play button by voice: the VCR section's focus order
    // within the whole panel is found by walking: use mnemonic-free path —
    // press "next" until the Play button has focus, then "select".
    let play_widget = app
        .ui()
        .widget_ids()
        .into_iter()
        .find(|&id| {
            app.ui()
                .widget::<Button>(id)
                .map(|b| b.caption() == "Play")
                .unwrap_or(false)
        })
        .expect("play button");
    for _ in 0..30 {
        if app.ui().focused() == Some(play_widget) {
            break;
        }
        session.device_input(app.ui_mut(), &DeviceEvent::Voice("next".into()));
    }
    assert_eq!(app.ui().focused(), Some(play_widget), "focus reached Play");
    session.device_input(app.ui_mut(), &DeviceEvent::Voice("select".into()));
    app.process(&mut net);

    // Time passes; the tape moves; the panel's progress bar updates.
    net.tick(10_000);
    app.process(&mut net);
    let vars = net.status(vcr).unwrap();
    assert!(vars.contains(&StateVar::TapePos(10)), "{vars:?}");
}

#[test]
fn two_zones_compose_independent_panels() {
    let mut net = HomeNetwork::new();
    net.attach(DeviceSpec::new("TV", "living-room").with_fcm(TunerFcm::new("TV Tuner", 12)));
    net.attach(DeviceSpec::new("Aircon", "bedroom").with_fcm(AirconFcm::new("Bedroom AC", 280)));
    let lr = ControlPanelApp::new(&mut net, Some("living-room"), Theme::classic());
    let br = ControlPanelApp::new(&mut net, Some("bedroom"), Theme::classic());
    assert_eq!(lr.section_count(), 1);
    assert_eq!(br.section_count(), 1);
    assert_ne!(
        lr.ui().size(),
        br.ui().size(),
        "different sections, different heights"
    );
}

#[test]
fn terminal_output_renders_panel_as_text() {
    let (mut net, ..) = living_room();
    let mut app = ControlPanelApp::new(&mut net, None, Theme::classic());
    let mut session = LocalSession::connect(app.ui_mut());
    let msgs = session
        .proxy
        .attach_output(Box::new(TerminalPlugin::standard()));
    session.deliver_to_server(app.ui_mut(), msgs);
    let frame = session.last_frame().expect("terminal frame");
    let text = TerminalPlugin::standard().render_text(frame);
    assert!(text.lines().count() >= 10);
    assert!(text.chars().any(|c| c != ' ' && c != '\n'), "panel has ink");
}

#[test]
fn camera_stream_reaches_device_screen() {
    let mut net = HomeNetwork::new();
    net.attach(DeviceSpec::new("Door Cam", "hall").with_fcm(CameraFcm::new("Door Camera", 10)));
    let mut app = ControlPanelApp::new(&mut net, None, Theme::classic());
    let mut session = LocalSession::connect(app.ui_mut());
    let msgs = session.proxy.attach_output(Box::new(ScreenPlugin::pda()));
    session.deliver_to_server(app.ui_mut(), msgs);

    let cam = net.find_fcms(&Query::new().class(FcmClass::Camera))[0];
    net.send(cam, &FcmCommand::SetPower(true)).unwrap();
    app.process(&mut net);
    session.pump(app.ui_mut());
    let f1 = session.take_frame().expect("first frame");

    // Stream for half a simulated second: the panel's image view updates
    // and the adapted frame on the PDA changes.
    net.tick(500);
    app.process(&mut net);
    session.pump(app.ui_mut());
    let f2 = session.take_frame().expect("second frame");
    assert_ne!(f1.frame, f2.frame, "camera motion visible on the PDA");
}

#[test]
fn paged_panel_operated_from_phone() {
    // A big home on a 128x128 phone: the panel pages itself, the tab bar
    // is driven with keypad navigation, and controls on page 2 work.
    let mut net = HomeNetwork::new();
    for i in 0..6 {
        net.attach(
            DeviceSpec::new(format!("Amp{i}"), "lr")
                .with_fcm(AmplifierFcm::new(format!("Amp {i}"))),
        );
    }
    let mut app = ControlPanelApp::new_paged(&mut net, None, Theme::classic(), 160);
    assert!(app.page_count() > 1);
    let mut session = LocalSession::connect(app.ui_mut());
    session.proxy.attach_input(Box::new(KeypadPlugin::new()));
    let msgs = session
        .proxy
        .attach_output(Box::new(ScreenPlugin::phone_lcd()));
    session.deliver_to_server(app.ui_mut(), msgs);
    let page0_frame = session.take_frame().expect("frame");

    // Focus the tab bar (first focusable) and move right: page 2.
    let tabbar_id = app.ui().widget_ids()[0];
    app.ui_mut().set_focus(Some(tabbar_id));
    session.device_input(app.ui_mut(), &SimPhone::press('6').unwrap());
    app.process(&mut net);
    assert_eq!(app.current_page(), 1);
    session.pump(app.ui_mut());
    let page1_frame = session.take_frame().expect("frame after page switch");
    assert_ne!(
        page0_frame.frame, page1_frame.frame,
        "page switch repainted the LCD"
    );

    // Tab to a widget on page 2 and activate it.
    session.device_input(app.ui_mut(), &DeviceEvent::Voice("x".into())); // no-op (keypad attached)
    for _ in 0..2 {
        session.device_input(app.ui_mut(), &SimPhone::press('8').unwrap());
    }
    session.device_input(app.ui_mut(), &SimPhone::press('5').unwrap());
    let report = app.process(&mut net);
    assert!(report.commands_sent >= 1, "page-2 widget fired: {report:?}");
}

#[test]
fn multi_viewer_family_shares_one_panel() {
    let mut net = HomeNetwork::new();
    net.attach(DeviceSpec::new("TV", "lr").with_fcm(TunerFcm::new("Tuner", 12)));
    let mut app = ControlPanelApp::new(&mut net, None, Theme::classic());
    let mut session = LocalSession::connect(app.ui_mut());
    let viewers = [0, session.join(app.ui_mut(), "b")];
    session.proxy.attach_input(Box::new(KeypadPlugin::new()));

    // Viewer 0 powers the TV; the change must reach viewer 1.
    session.device_input(app.ui_mut(), &SimPhone::press('5').unwrap());
    app.process(&mut net);
    session.pump(app.ui_mut());
    let tuner = net.find_fcms(&Query::new().class(FcmClass::Tuner))[0];
    assert!(net.status(tuner).unwrap().contains(&StateVar::Power(true)));
    for i in viewers {
        assert_eq!(
            session.viewer(i).server_frame().unwrap(),
            app.ui().framebuffer(),
            "viewer {i} in sync"
        );
    }
}
