//! Sessions across the simulated network: link sweeps, serialization
//! robustness, and timing sanity.

use uniint::prelude::*;

fn panel_net() -> (HomeNetwork, ControlPanelApp) {
    let mut net = HomeNetwork::new();
    net.attach(
        DeviceSpec::new("TV", "living-room")
            .with_fcm(TunerFcm::new("TV Tuner", 12))
            .with_fcm(DisplayFcm::new("TV Display", 2)),
    );
    let app = ControlPanelApp::new(&mut net, None, Theme::classic());
    (net, app)
}

#[test]
fn session_works_over_every_link_profile() {
    for link in LinkProfile::presets() {
        let (mut net, mut app) = panel_net();
        let mut s =
            SimSession::connect(app.ui_mut(), link, 11).unwrap_or_else(|e| panic!("{link}: {e}"));
        s.proxy.attach_input(Box::new(KeypadPlugin::new()));
        s.device_input(app.ui_mut(), &SimPhone::press('5').unwrap())
            .unwrap();
        app.process(&mut net);
        s.settle(app.ui_mut()).unwrap();
        let tuner = net.find_fcms(&Query::new().class(FcmClass::Tuner))[0];
        assert!(
            net.status(tuner).unwrap().contains(&StateVar::Power(true)),
            "{link}: power command arrived"
        );
    }
}

#[test]
fn hotplug_resize_reaches_a_simulated_session() {
    let (mut net, mut app) = panel_net();
    let mut s = SimSession::connect(app.ui_mut(), LinkProfile::ethernet100(), 7).unwrap();
    let before = app.ui().size();
    net.attach(DeviceSpec::new("Light", "living-room").with_fcm(LightFcm::new("Lamp")));
    assert!(app.process(&mut net).recomposed);
    assert_ne!(app.ui().size(), before, "the panel grew");
    s.settle(app.ui_mut()).unwrap();
    // The host's pump announced the new size; the proxy holds the panel.
    assert_eq!(s.proxy.server_size(), Some(app.ui().size()));
    assert_eq!(s.proxy.server_frame(), Some(app.ui().framebuffer()));
}

#[test]
fn handshake_time_ordering_matches_link_speed() {
    let mut times = Vec::new();
    for link in LinkProfile::presets() {
        let (_net, mut app) = panel_net();
        let s = SimSession::connect(app.ui_mut(), link, 5).unwrap();
        times.push((link.name, s.now_us()));
    }
    for w in times.windows(2) {
        assert!(
            w[0].1 < w[1].1,
            "slower link should take longer: {:?} vs {:?}",
            w[0],
            w[1]
        );
    }
}

#[test]
fn mono_transport_is_smaller_than_truecolor() {
    // The same panel shipped once at RGB888 and once at Mono1: the mono
    // session's initial full update must be much smaller.
    let payload = |mono: bool| {
        let (_net, mut app) = panel_net();
        let mut session = LocalSession::connect(app.ui_mut());
        let before = session.server().stats().payload_bytes;
        if mono {
            let msgs = session
                .proxy
                .attach_output(Box::new(ScreenPlugin::phone_lcd()));
            session.deliver_to_server(app.ui_mut(), msgs);
            session.server().stats().payload_bytes - before
        } else {
            before
        }
    };
    let rgb = payload(false);
    let mono = payload(true);
    assert!(
        mono < rgb,
        "mono full update {mono} < rgb full update {rgb}"
    );
}

#[test]
fn wire_bytes_scale_with_pixel_format() {
    // Compare the *payload* the server produces for the same panel at
    // RGB888 vs Mono1 through server stats (wire-format agnostic check).
    let run = |mono: bool| {
        let (_net, mut app) = panel_net();
        let mut session = LocalSession::connect(app.ui_mut());
        if mono {
            let msgs = session
                .proxy
                .attach_output(Box::new(ScreenPlugin::phone_lcd()));
            session.deliver_to_server(app.ui_mut(), msgs);
        }
        session.server().stats().payload_bytes
    };
    let rgb = run(false);
    let mono = run(true);
    // The mono session re-sent everything in Mono1 *after* the RGB888
    // initial update, so compare against 2x: total must still be well
    // under two full RGB frames.
    assert!(mono < 2 * rgb, "mono resend {mono} < 2x rgb {rgb}");
}

#[test]
fn corrupted_stream_is_rejected_not_panicking() {
    use uniint::protocol::message::FrameReader;
    let mut reader = FrameReader::new();
    // Random garbage with a plausible length prefix.
    reader.feed(&[0, 0, 0, 4, 0xde, 0xad, 0xbe, 0xef]);
    let frame = reader.next_frame().unwrap().unwrap();
    assert!(ServerMessage::decode_body(&mut frame.as_slice()).is_err());
    assert!(ClientMessage::decode_body(&mut frame.as_slice()).is_err());
}

#[test]
fn gprs_latency_dominates_input_round_trip() {
    let (mut net, mut app) = panel_net();
    let mut s = SimSession::connect(app.ui_mut(), LinkProfile::cellular_gprs(), 2).unwrap();
    s.proxy.attach_input(Box::new(KeypadPlugin::new()));
    let t0 = s.now_us();
    s.device_input(app.ui_mut(), &SimPhone::press('5').unwrap())
        .unwrap();
    app.process(&mut net);
    s.settle(app.ui_mut()).unwrap();
    let elapsed = s.now_us() - t0;
    // One-way latency is 300ms; a press+release plus the repaint updates
    // must take at least one one-way trip.
    assert!(elapsed >= 300_000, "gprs round trip {elapsed}us");
}
