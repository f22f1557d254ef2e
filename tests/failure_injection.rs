//! Failure injection: lossy links, corrupt streams, proxy recovery, and
//! appliance misbehavior under concurrent control.

use uniint::prelude::*;
use uniint::protocol::message::RectUpdate;

#[test]
fn session_survives_extremely_lossy_link() {
    // 30% per-packet loss (retransmission-modelled): the session is slow
    // but every command still lands, in order.
    let lossy = LinkProfile {
        loss: 0.3,
        ..LinkProfile::wifi80211b()
    };
    let mut net = HomeNetwork::new();
    net.attach(DeviceSpec::new("TV", "lr").with_fcm(TunerFcm::new("Tuner", 12)));
    let mut app = ControlPanelApp::new(&mut net, None, Theme::classic());
    let mut s = SimSession::connect(app.ui_mut(), lossy, 123).unwrap();
    s.proxy.attach_input(Box::new(KeypadPlugin::new()));
    // Toggle power 5 times.
    for _ in 0..5 {
        s.device_input(app.ui_mut(), &SimPhone::press('5').unwrap())
            .unwrap();
        app.process(&mut net);
        s.settle(app.ui_mut()).unwrap();
    }
    let tuner = net.find_fcms(&Query::new().class(FcmClass::Tuner))[0];
    // Odd number of toggles → powered on.
    assert!(net.status(tuner).unwrap().contains(&StateVar::Power(true)));
    // And the proxy's screen equals the server's.
    assert_eq!(s.proxy.server_frame().unwrap(), app.ui().framebuffer());
}

#[test]
fn proxy_recovers_from_corrupt_update() {
    let mut proxy = UniIntProxy::new("p");
    proxy
        .handle_server(&ServerMessage::Init {
            version: 1,
            width: 32,
            height: 32,
            format: PixelFormat::Rgb888,
            name: "x".into(),
        })
        .unwrap();
    // A good update paints white.
    let white = vec![Color::WHITE; 32 * 32];
    let payload = encode_rect(
        &white,
        Rect::new(0, 0, 32, 32),
        Encoding::Raw,
        PixelFormat::Rgb888,
    );
    proxy
        .handle_server(&ServerMessage::Update {
            seq: 1,
            format: PixelFormat::Rgb888,
            rects: vec![RectUpdate {
                rect: Rect::new(0, 0, 32, 32),
                encoding: Encoding::Raw,
                payload,
            }],
        })
        .unwrap();
    // A corrupt update fails...
    let bad = ServerMessage::Update {
        seq: 2,
        format: PixelFormat::Rgb888,
        rects: vec![RectUpdate {
            rect: Rect::new(0, 0, 32, 32),
            encoding: Encoding::Rre,
            payload: vec![0xff; 4],
        }],
    };
    assert!(proxy.handle_server(&bad).is_err());
    // ...recovery requests a full refresh, and a subsequent good update
    // restores a consistent screen.
    let msgs = proxy.recover();
    assert!(!msgs.is_empty());
    let green = vec![Color::GREEN; 32 * 32];
    let payload = encode_rect(
        &green,
        Rect::new(0, 0, 32, 32),
        Encoding::Raw,
        PixelFormat::Rgb888,
    );
    proxy
        .handle_server(&ServerMessage::Update {
            seq: 3,
            format: PixelFormat::Rgb888,
            rects: vec![RectUpdate {
                rect: Rect::new(0, 0, 32, 32),
                encoding: Encoding::Raw,
                payload,
            }],
        })
        .unwrap();
    assert!(proxy
        .server_frame()
        .unwrap()
        .pixels()
        .iter()
        .all(|&c| c == Color::GREEN));
}

#[test]
fn malformed_frames_from_wire_do_not_panic() {
    use uniint::protocol::message::FrameReader;
    // Feed every prefix of a valid stream plus mutations of each byte.
    let mut wire_bytes = Vec::new();
    wire_bytes.extend(uniint::protocol::message::encode_server(
        &ServerMessage::Init {
            version: 1,
            width: 10,
            height: 10,
            format: PixelFormat::Rgb888,
            name: "x".into(),
        },
    ));
    wire_bytes.extend(uniint::protocol::message::encode_server(
        &ServerMessage::Bell,
    ));
    for i in 0..wire_bytes.len() {
        // Prefix.
        let mut r = FrameReader::new();
        r.feed(&wire_bytes[..i]);
        while let Ok(Some(frame)) = r.next_frame() {
            let _ = ServerMessage::decode_body(&mut frame.as_slice());
        }
        // Single-byte corruption.
        let mut mutated = wire_bytes.clone();
        mutated[i] ^= 0x5a;
        let mut r = FrameReader::new();
        r.feed(&mutated);
        loop {
            match r.next_frame() {
                Ok(Some(frame)) => {
                    let _ = ServerMessage::decode_body(&mut frame.as_slice());
                }
                Ok(None) => break,
                Err(_) => break,
            }
        }
    }
}

#[test]
fn appliance_refusals_do_not_desync_panel() {
    // Two controllers race: a second panel powers the tuner off between
    // our panel's actions; our panel's refused commands ring the bell but
    // state stays consistent via events.
    let mut net = HomeNetwork::new();
    net.attach(DeviceSpec::new("TV", "lr").with_fcm(TunerFcm::new("Tuner", 12)));
    let tuner = net.find_fcms(&Query::new().class(FcmClass::Tuner))[0];
    let mut panel_a = ControlPanelApp::new(&mut net, None, Theme::classic());
    let mut panel_b = ControlPanelApp::new(&mut net, None, Theme::classic());

    // A powers on.
    net.send(tuner, &FcmCommand::SetPower(true)).unwrap();
    panel_a.process(&mut net);
    panel_b.process(&mut net);

    // B powers off behind A's back.
    net.send(tuner, &FcmCommand::SetPower(false)).unwrap();
    panel_b.process(&mut net);
    panel_a.process(&mut net);

    // A tries to change channel on the now-off tuner: refused, bell.
    // (drive it through the widget path)
    let ch_up = panel_a
        .ui()
        .widget_ids()
        .into_iter()
        .find(|&id| {
            panel_a
                .ui()
                .widget::<Button>(id)
                .map(|b| b.caption() == "Ch+")
                .unwrap_or(false)
        })
        .unwrap();
    let c = panel_a.ui().widget_rect(ch_up).unwrap().center();
    for ev in uniint::protocol::input::InputEvent::click(c.x as u16, c.y as u16) {
        panel_a.ui_mut().dispatch(ev);
    }
    let report = panel_a.process(&mut net);
    assert_eq!(report.commands_failed, 1);
    assert!(panel_a.ui_mut().take_bell());
    // Both panels agree the tuner is off.
    for panel in [&panel_a, &panel_b] {
        let toggles: Vec<bool> = panel
            .ui()
            .widget_ids()
            .into_iter()
            .filter_map(|id| panel.ui().widget::<Toggle>(id).map(|t| t.is_on()))
            .collect();
        assert!(toggles.iter().all(|&on| !on), "{toggles:?}");
    }
}

#[test]
fn device_storm_during_hotplug_is_safe() {
    let mut net = HomeNetwork::new();
    net.attach(DeviceSpec::new("TV", "lr").with_fcm(TunerFcm::new("Tuner", 12)));
    let mut app = ControlPanelApp::new(&mut net, None, Theme::classic());
    let mut session = LocalSession::connect(app.ui_mut());
    session.proxy.attach_input(Box::new(KeypadPlugin::new()));

    for round in 0..10 {
        // Input events race with hot-plug.
        session.device_input(app.ui_mut(), &SimPhone::press('8').unwrap());
        if round % 3 == 0 {
            net.attach(DeviceSpec::new(format!("L{round}"), "lr").with_fcm(LightFcm::new("L")));
        }
        if round % 4 == 1 {
            if let Some(&g) = net.device_guids().iter().next_back() {
                // Never detach the TV (first device).
                if net.device_guids().len() > 1 {
                    net.detach(g);
                }
            }
        }
        app.process(&mut net);
        session.device_input(app.ui_mut(), &SimPhone::press('5').unwrap());
        app.process(&mut net);
        session.pump(app.ui_mut());
        assert_eq!(
            session.proxy.server_frame().unwrap().size(),
            app.ui().size(),
            "round {round}"
        );
    }
}

/// One interaction round under an active fault schedule; returns the
/// session for post-mortem assertions.
fn interact_under_faults(
    link: LinkProfile,
    seed: u64,
    schedule: impl Fn(u64) -> FaultSchedule,
) -> (HomeNetwork, ControlPanelApp, SimSession) {
    let mut net = HomeNetwork::new();
    net.attach(
        DeviceSpec::new("TV", "living-room")
            .with_fcm(TunerFcm::new("TV Tuner", 12))
            .with_fcm(DisplayFcm::new("TV Display", 2)),
    );
    let mut app = ControlPanelApp::new(&mut net, None, Theme::classic());
    let mut s = SimSession::connect(app.ui_mut(), link, seed)
        .unwrap_or_else(|e| panic!("{}: connect: {e}", link.name));
    s.proxy.attach_input(Box::new(KeypadPlugin::new()));
    let ep = s.proxy_endpoint();
    let t0 = s.now_us();
    s.sim.set_link_faults(ep, schedule(t0));
    // Toggle TV power while the fault schedule is live.
    s.device_input(app.ui_mut(), &SimPhone::press('5').unwrap())
        .unwrap_or_else(|e| panic!("{}: input: {e}", link.name));
    app.process(&mut net);
    s.settle(app.ui_mut())
        .unwrap_or_else(|e| panic!("{}: settle: {e}", link.name));
    (net, app, s)
}

/// Every {link} × {fault} pair over 32 seeds: one keypad press lands
/// exactly once and the proxy converges. Prints one `FAULT-MATRIX` line
/// of recovery counters, summed over the seeds, per pair; CI runs the
/// test twice and diffs the lines.
#[test]
fn fault_matrix_converges_on_every_link() {
    let links = [
        LinkProfile::wifi80211b(),
        LinkProfile::bluetooth(),
        LinkProfile::cellular_gprs(),
    ];
    type Fault = (&'static str, fn(u64) -> FaultSchedule);
    let faults: [Fault; 3] = [
        ("burst-loss", |_t0| {
            FaultSchedule::new().burst_loss(0.05, 0.7, 0.8)
        }),
        ("flap", |t0| FaultSchedule::new().flap(t0, t0 + 2_000_000)),
        ("latency-spike", |t0| {
            FaultSchedule::new().latency_spike(t0, t0 + 3_000_000, 250_000)
        }),
    ];
    for link in links {
        for (fault_name, schedule) in faults {
            let (mut resumes, mut full_resyncs, mut retransmits, mut virtual_us) = (0, 0, 0, 0);
            for seed in 0..32 {
                let (net, app, s) = interact_under_faults(link, seed, schedule);
                let case = format!("{}/{fault_name}/seed {seed}", link.name);
                assert_eq!(
                    s.server().stats().inputs_injected,
                    2,
                    "{case}: key down and up applied exactly once"
                );
                let tuner = net.find_fcms(&Query::new().class(FcmClass::Tuner))[0];
                assert!(
                    net.status(tuner).unwrap().contains(&StateVar::Power(true)),
                    "{case}: power command arrived"
                );
                assert_eq!(
                    s.proxy.server_frame().unwrap(),
                    app.ui().framebuffer(),
                    "{case}: proxy converged to the server framebuffer"
                );
                let st = s.proxy.stats();
                resumes += st.resumes;
                full_resyncs += st.full_resyncs;
                retransmits += st.retransmits;
                virtual_us += s.now_us();
            }
            println!(
                "FAULT-MATRIX {} {fault_name} resumes={resumes} full_resyncs={full_resyncs} \
                 retransmits={retransmits} virtual_us={virtual_us}",
                link.name
            );
        }
    }
}

#[test]
fn flap_recovery_is_incremental_not_full_resync() {
    // The acceptance scenario: a 2 s link flap in the middle of an
    // interaction must be healed by *incremental* resume.
    let (_net, _app, s) = interact_under_faults(LinkProfile::wifi80211b(), 42, |t0| {
        FaultSchedule::new().flap(t0, t0 + 2_000_000)
    });
    let st = s.proxy.stats();
    assert!(st.resumes >= 1, "incremental resume happened: {st:?}");
    assert_eq!(
        st.full_resyncs, 0,
        "never fell back to full refresh: {st:?}"
    );
}

#[test]
fn escalated_resume_still_applies_every_keypress_once() {
    // Short flaps under a latency spike kill resume after resume before
    // its ack arrives, so the session escalates to a full refresh. The
    // refresh must not throw the retransmission count off: every toggle
    // still lands exactly once.
    let mut net = HomeNetwork::new();
    net.attach(DeviceSpec::new("TV", "lr").with_fcm(TunerFcm::new("Tuner", 12)));
    let mut app = ControlPanelApp::new(&mut net, None, Theme::classic());
    let mut s = SimSession::connect(app.ui_mut(), LinkProfile::wifi80211b(), 1).unwrap();
    s.proxy.attach_input(Box::new(KeypadPlugin::new()));
    let t0 = s.now_us();
    let mut faults = FaultSchedule::new().latency_spike(t0, t0 + 3_000_000, 80_000);
    for k in 0..12 {
        let start = t0 + 1_000 + k * 250_000;
        faults = faults.flap(start, start + 125_000);
    }
    s.sim.set_link_faults(s.proxy_endpoint(), faults);
    for _ in 0..5 {
        s.device_input(app.ui_mut(), &SimPhone::press('5').unwrap())
            .unwrap();
        app.process(&mut net);
        s.settle(app.ui_mut()).unwrap();
    }
    let st = s.proxy.stats();
    assert!(st.full_resyncs >= 1, "resumes kept dying: {st:?}");
    assert_eq!(
        s.server().stats().inputs_injected,
        10,
        "five presses, each a key down and up, applied once: {st:?}"
    );
    let tuner = net.find_fcms(&Query::new().class(FcmClass::Tuner))[0];
    assert!(net.status(tuner).unwrap().contains(&StateVar::Power(true)));
    assert_eq!(s.proxy.server_frame().unwrap(), app.ui().framebuffer());
}
