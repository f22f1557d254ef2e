//! Device-level chaos: scripted plug-in faults against the supervised
//! session. The matrix {panic, stall, garbage, storm, death} × {PDA,
//! phone, remote, voice} must always end converged — proxy framebuffer
//! byte-identical to the server, every appliance command applied exactly
//! once, zero proxy panics — and bit-reproducibly: same seed, same
//! supervisor story. Hot-plug churn, plug-in containment and the
//! built-in fallback terminal are covered alongside.

use uniint::core::coordinator::InteractionDevice;
use uniint::prelude::*;

/// The interaction device under chaos.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Target {
    Pda,
    Phone,
    Remote,
    Voice,
}

impl Target {
    const ALL: [Target; 4] = [Target::Pda, Target::Phone, Target::Remote, Target::Voice];

    fn id(self) -> &'static str {
        match self {
            Target::Pda => "pda-1",
            Target::Phone => "phone-1",
            Target::Remote => "remote-lr",
            Target::Voice => "mic-lr",
        }
    }

    fn kind(self) -> &'static str {
        match self {
            Target::Pda => "pda-stylus",
            Target::Phone => "phone-keypad",
            Target::Remote => "ir-remote",
            Target::Voice => "voice",
        }
    }

    fn modality(self) -> InputModality {
        match self {
            Target::Pda => InputModality::Stylus,
            Target::Phone => InputModality::Keypad,
            Target::Remote => InputModality::RemoteButtons,
            Target::Voice => InputModality::Voice,
        }
    }

    fn device(self) -> InteractionDevice {
        match self {
            Target::Pda => SimPda::interaction_device(self.id()),
            Target::Phone => SimPhone::interaction_device(self.id()),
            Target::Remote => SimRemote::interaction_device(self.id(), "living-room"),
            Target::Voice => VoiceRecognizer::interaction_device(self.id(), "living-room"),
        }
    }

    /// The input device that must take over when the target goes bad.
    fn backup(self) -> (InteractionDevice, InputModality, &'static str, &'static str) {
        match self {
            Target::Remote => (
                SimPhone::interaction_device("backup-phone"),
                InputModality::Keypad,
                "backup-phone",
                "phone-keypad",
            ),
            _ => (
                SimRemote::interaction_device("backup-remote", "living-room"),
                InputModality::RemoteButtons,
                "backup-remote",
                "ir-remote",
            ),
        }
    }

    /// A device event that exercises the target's plug-in without
    /// touching widget focus and without issuing any appliance command
    /// (the '7' character is bound to nothing; a stylus hover only
    /// hit-tests). Foreign events are simply ignored by whichever
    /// plug-in ends up attached, so the same event is safe to keep
    /// sending after a failover.
    fn inert_event(self) -> DeviceEvent {
        match self {
            Target::Pda => DeviceEvent::StylusMove { x: 5, y: 5 },
            Target::Phone => DeviceEvent::KeypadDigit(7),
            Target::Remote => DeviceEvent::Remote(RemoteKey::Digit(7)),
            Target::Voice => DeviceEvent::Voice("seven".into()),
        }
    }
}

/// The scripted misbehavior.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FaultKind {
    Panic,
    Stall,
    Garbage,
    Storm,
    Death,
}

impl FaultKind {
    fn schedule(self) -> DeviceFaultSchedule {
        let s = DeviceFaultSchedule::new();
        match self {
            // Four consecutive faults: three trip the quarantine, the
            // fourth relapses the first probation (exercising the
            // doubled backoff) before the device comes back clean.
            FaultKind::Panic => s
                .panic_on_input(2)
                .panic_on_input(3)
                .panic_on_input(4)
                .panic_on_input(5),
            FaultKind::Stall => s
                .stall_on_input(2)
                .stall_on_input(3)
                .stall_on_input(4)
                .stall_on_input(5),
            FaultKind::Garbage => s
                .garbage_on_input(2)
                .garbage_on_input(3)
                .garbage_on_input(4)
                .garbage_on_input(5),
            FaultKind::Storm => s
                .storm_on_input(2, 100)
                .storm_on_input(3, 100)
                .storm_on_input(4, 100),
            FaultKind::Death => s.die_after_inputs(2),
        }
    }
}

/// Everything observable about one cell run, for determinism checks.
#[derive(Debug, PartialEq)]
struct CellRun {
    sup: SupervisorStats,
    proxy: ProxyStats,
    attached: (Option<&'static str>, Option<&'static str>),
    t_end: u64,
}

fn tv_home() -> (HomeNetwork, ControlPanelApp) {
    let mut net = HomeNetwork::new();
    net.attach(DeviceSpec::new("TV", "living-room").with_fcm(TunerFcm::new("Tuner", 12)));
    let app = ControlPanelApp::new(&mut net, None, Theme::classic());
    (net, app)
}

/// The server-side center of the first power toggle on the panel.
fn power_toggle_center(app: &ControlPanelApp) -> (i32, i32) {
    let id = app
        .ui()
        .widget_ids()
        .into_iter()
        .find(|&id| app.ui().widget::<Toggle>(id).is_some())
        .expect("panel has a power toggle");
    let c = app
        .ui()
        .widget_rect(id)
        .expect("toggle has a rect")
        .center();
    (c.x, c.y)
}

/// A stylus tap landing on the power toggle, in the device-view
/// coordinates of the attached TV screen (inverting the floor division
/// in `InputContext::to_server`).
fn stylus_power_tap(app: &ControlPanelApp) -> Vec<DeviceEvent> {
    let (cx, cy) = power_toggle_center(app);
    let server = app.ui().size();
    let view = uniint::core::proxy::fitted_view(server, Size::new(640, 480));
    let dx = (cx as u64 * view.w as u64).div_ceil(server.w as u64);
    let dy = (cy as u64 * view.h as u64).div_ceil(server.h as u64);
    SimPda::tap(dx as u16, dy as u16)
}

/// The device events that toggle TV power through whichever input
/// plug-in is attached. Key-based devices go through the 'p' mnemonic
/// or the default-focused toggle; the stylus taps the widget directly —
/// none of them depend on focus having survived the chaos phase.
fn power_command(kind: &str, app: &ControlPanelApp) -> Vec<DeviceEvent> {
    match kind {
        "pda-stylus" => stylus_power_tap(app),
        "phone-keypad" => vec![DeviceEvent::KeypadSelect],
        "ir-remote" => vec![DeviceEvent::Remote(RemoteKey::Power)],
        "voice" => vec![DeviceEvent::Voice("p".into())],
        other => panic!("unexpected attached input kind {other}"),
    }
}

fn run_cell(target: Target, fault: FaultKind, seed: u64) -> CellRun {
    let cell = format!("{target:?}/{fault:?}");
    let (mut net, mut app) = tv_home();
    let mut s = SimSession::connect(app.ui_mut(), LinkProfile::wifi80211b(), seed)
        .unwrap_or_else(|e| panic!("{cell}: connect: {e}"));

    let mut sup = Supervisor::new(seed);
    let (backup_dev, backup_modality, backup_id, backup_kind) = target.backup();
    let mut profile = UserProfile::neutral("chaos");
    profile.input_ranking = vec![target.modality(), backup_modality];
    let mut coord = Coordinator::new(profile, Situation::idle("living-room"));

    let (faulty, handle) = FaultyDevice::wrap(target.device(), fault.schedule(), seed);

    for dev in [
        sup.supervise(tv_interaction_device("tv-lr", "living-room")),
        sup.supervise(backup_dev),
        sup.supervise(faulty),
    ] {
        let rep = coord.register(dev, &mut s.proxy);
        s.send_client(app.ui_mut(), rep.messages)
            .unwrap_or_else(|e| panic!("{cell}: renegotiation: {e}"));
        s.settle(app.ui_mut())
            .unwrap_or_else(|e| panic!("{cell}: settle: {e}"));
    }
    assert_eq!(
        s.proxy.attached(),
        (Some(target.kind()), Some("tv-screen")),
        "{cell}: the chaos target wins initial selection"
    );

    let mut commands_sent = 0;
    let mut commands_failed = 0;

    // Chaos phase: inert device events while the fault script fires.
    // Long enough for heartbeat death (3 × 500 ms) and for quarantine →
    // probation → relapse → second probation → clean streak to play out.
    for _ in 0..40 {
        s.sim.advance(50_000);
        let now = s.now_us();
        if !handle.is_dead() {
            sup.heartbeat(target.id(), now);
        }
        sup.heartbeat(backup_id, now);
        sup.heartbeat("tv-lr", now);
        s.device_input(app.ui_mut(), &target.inert_event())
            .unwrap_or_else(|e| panic!("{cell}: chaos input: {e}"));
        let rep = app.process(&mut net);
        commands_sent += rep.commands_sent;
        commands_failed += rep.commands_failed;
        s.settle(app.ui_mut())
            .unwrap_or_else(|e| panic!("{cell}: settle: {e}"));
        let report = sup.tick(s.now_us(), &mut coord, &mut s.proxy);
        if !report.messages.is_empty() {
            s.send_client(app.ui_mut(), report.messages)
                .unwrap_or_else(|e| panic!("{cell}: supervisor messages: {e}"));
            s.settle(app.ui_mut())
                .unwrap_or_else(|e| panic!("{cell}: settle: {e}"));
        }
    }

    // Who must be holding the input role now: a dead device never comes
    // back, a stormy one was never demoted, and the faulted ones have
    // served their probation and reattached.
    let expected_kind = if fault == FaultKind::Death {
        backup_kind
    } else {
        target.kind()
    };
    let attached_in = s.proxy.attached().0.expect("an input device is attached");
    assert_eq!(attached_in, expected_kind, "{cell}: attached input");

    // Command phase: exactly one power toggle through whatever survived.
    for ev in power_command(attached_in, &app) {
        s.device_input(app.ui_mut(), &ev)
            .unwrap_or_else(|e| panic!("{cell}: command input: {e}"));
    }
    let rep = app.process(&mut net);
    commands_sent += rep.commands_sent;
    commands_failed += rep.commands_failed;
    s.settle(app.ui_mut())
        .unwrap_or_else(|e| panic!("{cell}: settle: {e}"));

    // Exactly-once: the whole run issued one appliance command, it
    // succeeded, and the tuner is powered on.
    assert_eq!(commands_sent, 1, "{cell}: exactly one command sent");
    assert_eq!(commands_failed, 0, "{cell}: no command failed");
    let tuner = net.find_fcms(&Query::new().class(FcmClass::Tuner))[0];
    assert!(
        net.status(tuner).unwrap().contains(&StateVar::Power(true)),
        "{cell}: power command applied exactly once"
    );

    // Convergence: the proxy's framebuffer is byte-identical to the
    // server's (Rgb888 transport via the TV output).
    assert_eq!(
        s.proxy.server_frame().unwrap(),
        app.ui().framebuffer(),
        "{cell}: proxy converged to the server framebuffer"
    );

    // Per-fault supervisor story.
    let st = sup.stats();
    let pst = s.proxy.stats();
    assert_eq!(st.fallback_activations, 0, "{cell}: TV output stayed up");
    match fault {
        FaultKind::Panic => {
            assert!(st.plugin_panics >= 3, "{cell}: {st:?}");
            assert!(st.quarantines >= 1, "{cell}: {st:?}");
            assert!(st.failovers >= 1, "{cell}: {st:?}");
            assert!(st.readmissions >= 1, "{cell}: {st:?}");
        }
        FaultKind::Stall => {
            assert!(st.plugin_timeouts >= 3, "{cell}: {st:?}");
            assert!(st.quarantines >= 1, "{cell}: {st:?}");
            assert!(st.readmissions >= 1, "{cell}: {st:?}");
        }
        FaultKind::Garbage => {
            assert!(st.garbage_events >= 3, "{cell}: {st:?}");
            assert!(st.quarantines >= 1, "{cell}: {st:?}");
            assert!(st.failovers >= 1, "{cell}: {st:?}");
        }
        FaultKind::Storm => {
            // A storm is flood, not fault: the proxy's queue cap and
            // pointer coalescing absorb it without a health transition.
            assert_eq!(st.quarantines, 0, "{cell}: {st:?}");
            assert_eq!(st.failovers, 0, "{cell}: {st:?}");
            if target == Target::Pda {
                assert!(pst.events_coalesced >= 99, "{cell}: {pst:?}");
            } else {
                assert!(pst.flood_dropped >= 1, "{cell}: {pst:?}");
            }
        }
        FaultKind::Death => {
            assert!(st.deaths >= 1, "{cell}: {st:?}");
            assert!(st.failovers >= 1, "{cell}: {st:?}");
            assert!(st.heartbeat_misses >= 3, "{cell}: {st:?}");
        }
    }

    CellRun {
        sup: st,
        proxy: pst,
        attached: s.proxy.attached(),
        t_end: s.now_us(),
    }
}

/// One matrix row: every target under one fault kind, each cell run
/// twice — converged, exactly-once, and bit-identical per seed.
fn matrix_row(fault: FaultKind) {
    for (i, target) in Target::ALL.into_iter().enumerate() {
        let seed = 0xC7A05 + i as u64;
        let a = run_cell(target, fault, seed);
        let b = run_cell(target, fault, seed);
        assert_eq!(a, b, "{target:?}/{fault:?}: same seed, same story");
    }
}

#[test]
fn chaos_matrix_panic() {
    matrix_row(FaultKind::Panic);
}

#[test]
fn chaos_matrix_stall() {
    matrix_row(FaultKind::Stall);
}

#[test]
fn chaos_matrix_garbage() {
    matrix_row(FaultKind::Garbage);
}

#[test]
fn chaos_matrix_storm() {
    matrix_row(FaultKind::Storm);
}

#[test]
fn chaos_matrix_death() {
    matrix_row(FaultKind::Death);
}

// ---------------------------------------------------------------------------
// Hot-plug churn.
// ---------------------------------------------------------------------------

/// A register/unregister storm — including removal of the *active*
/// device mid-flight — must leave the proxy attached to a valid device
/// with SwitchReports that agree with the coordinator at every cycle.
#[test]
fn hotplug_churn_storm_keeps_selection_consistent() {
    let (mut net, mut app) = tv_home();
    let mut session = LocalSession::connect(app.ui_mut());
    let mut profile = UserProfile::neutral("churn");
    profile.input_ranking = vec![InputModality::Keypad];
    let mut coord = Coordinator::new(profile, Situation::idle("living-room"));

    type DeviceFn = fn() -> InteractionDevice;
    let pool: [(&str, DeviceFn); 4] = [
        ("pda-1", || SimPda::interaction_device("pda-1")),
        ("phone-1", || SimPhone::interaction_device("phone-1")),
        ("remote-lr", || {
            SimRemote::interaction_device("remote-lr", "living-room")
        }),
        ("tv-lr", || tv_interaction_device("tv-lr", "living-room")),
    ];

    for i in 0..1500usize {
        let rep = match i % 6 {
            // Churn: (re-)register, rotating through the pool. Every
            // fourth pass re-registers a device that may be active.
            0..=3 => coord.register(pool[i % 4].1(), &mut session.proxy),
            // Rip out whatever currently holds the input role.
            4 => match coord.active_input().map(str::to_owned) {
                Some(id) => coord.unregister(&id, &mut session.proxy),
                None => coord.register(pool[1].1(), &mut session.proxy),
            },
            // Unregister by rotation (often a no-op: already gone).
            _ => coord.unregister(pool[i % 4].0, &mut session.proxy),
        };
        session.deliver_to_server(app.ui_mut(), rep.messages);

        // The report and the coordinator tell the same story...
        if let Some(id) = &rep.input_switched_to {
            assert_eq!(coord.active_input(), Some(id.as_str()), "cycle {i}");
        }
        if let Some(id) = &rep.output_switched_to {
            assert_eq!(coord.active_output(), Some(id.as_str()), "cycle {i}");
        }
        // ...the proxy mirrors the coordinator...
        let (in_kind, out_kind) = session.proxy.attached();
        assert_eq!(
            coord.active_input().is_some(),
            in_kind.is_some(),
            "cycle {i}"
        );
        assert_eq!(
            coord.active_output().is_some(),
            out_kind.is_some(),
            "cycle {i}"
        );
        // ...and the active device is always a *registered* one that
        // actually carries the capability.
        if let Some(id) = coord.active_input() {
            assert!(
                coord
                    .descriptors()
                    .iter()
                    .any(|d| d.id == id && d.input.is_some()),
                "cycle {i}: active input {id} is registered"
            );
        }
        if let Some(id) = coord.active_output() {
            assert!(
                coord
                    .descriptors()
                    .iter()
                    .any(|d| d.id == id && d.output.is_some()),
                "cycle {i}: active output {id} is registered"
            );
        }

        // Interaction never wedges: an inert keypress round-trips.
        session.device_input(app.ui_mut(), &DeviceEvent::KeypadDigit(7));
        app.process(&mut net);
        session.pump(app.ui_mut());
        assert_eq!(
            session.proxy.server_frame().unwrap().size(),
            app.ui().size(),
            "cycle {i}"
        );
    }

    // After the storm: a real command still lands exactly once.
    coord.register(SimPhone::interaction_device("phone-1"), &mut session.proxy);
    assert_eq!(session.proxy.attached().0, Some("phone-keypad"));
    session.device_input(app.ui_mut(), &SimPhone::press('5').unwrap());
    let rep = app.process(&mut net);
    session.pump(app.ui_mut());
    assert_eq!(rep.commands_sent, 1);
    let tuner = net.find_fcms(&Query::new().class(FcmClass::Tuner))[0];
    assert!(net.status(tuner).unwrap().contains(&StateVar::Power(true)));
}

// ---------------------------------------------------------------------------
// Containment.
// ---------------------------------------------------------------------------

/// Shared scaffold: a faulty PDA (the preferred input) plus a healthy
/// phone backup on a local session with a supervisor.
fn contained_session(
    schedule: DeviceFaultSchedule,
) -> (
    HomeNetwork,
    ControlPanelApp,
    LocalSession,
    Supervisor,
    Coordinator,
) {
    let (mut net, mut app) = tv_home();
    let session = LocalSession::connect(app.ui_mut());
    let mut sup = Supervisor::new(5);
    let mut profile = UserProfile::neutral("containment");
    profile.input_ranking = vec![InputModality::Stylus, InputModality::Keypad];
    let mut coord = Coordinator::new(profile, Situation::idle("living-room"));
    let (faulty, _handle) = FaultyDevice::wrap(SimPda::interaction_device("pda-1"), schedule, 5);
    let mut session = session;
    for dev in [
        sup.supervise(faulty),
        sup.supervise(SimPhone::interaction_device("phone-1")),
        // A TV output keeps the transport at Rgb888 so frame convergence
        // can be asserted byte-for-byte.
        sup.supervise(tv_interaction_device("tv-lr", "living-room")),
    ] {
        let rep = coord.register(dev, &mut session.proxy);
        session.deliver_to_server(app.ui_mut(), rep.messages);
    }
    assert_eq!(session.proxy.attached().0, Some("pda-stylus"));
    let _ = &mut net;
    (net, app, session, sup, coord)
}

/// Runs the containment scenario for one fault flavor and returns the
/// supervisor stats after failover.
fn contain_and_fail_over(schedule: DeviceFaultSchedule) -> SupervisorStats {
    let (mut net, mut app, mut session, mut sup, mut coord) = contained_session(schedule);

    // Every call faults; the proxy must survive all of them.
    for _ in 0..4 {
        session.device_input(app.ui_mut(), &DeviceEvent::StylusMove { x: 5, y: 5 });
    }
    let report = sup.tick(1_000, &mut coord, &mut session.proxy);
    session.deliver_to_server(app.ui_mut(), report.messages);
    assert_eq!(
        session.proxy.attached().0,
        Some("phone-keypad"),
        "failed over to the healthy backup"
    );
    assert!(sup.stats().quarantines >= 1);
    assert!(sup.stats().failovers >= 1);
    assert!(
        session.server().stats().health_reports >= 1,
        "health notifications reached the server"
    );

    // recover() after the failover is idempotent: same request both
    // times, and the screen it rebuilds is consistent.
    let r1 = session.proxy.recover();
    assert!(!r1.is_empty());
    session.deliver_to_server(app.ui_mut(), r1.clone());
    let r2 = session.proxy.recover();
    session.deliver_to_server(app.ui_mut(), r2.clone());
    assert_eq!(r1, r2, "recover() is idempotent");
    assert_eq!(
        session.proxy.server_frame().unwrap(),
        app.ui().framebuffer()
    );

    // The interaction continues through the backup.
    session.device_input(app.ui_mut(), &SimPhone::press('5').unwrap());
    let rep = app.process(&mut net);
    assert_eq!(rep.commands_sent, 1);
    let tuner = net.find_fcms(&Query::new().class(FcmClass::Tuner))[0];
    assert!(net.status(tuner).unwrap().contains(&StateVar::Power(true)));
    sup.stats()
}

#[test]
fn panicking_plugin_is_contained_and_fails_over() {
    let st = contain_and_fail_over(
        DeviceFaultSchedule::new()
            .panic_on_input(0)
            .panic_on_input(1)
            .panic_on_input(2)
            .panic_on_input(3),
    );
    assert!(st.plugin_panics >= 3, "{st:?}");
}

#[test]
fn stalling_plugin_is_contained_and_fails_over() {
    let st = contain_and_fail_over(
        DeviceFaultSchedule::new()
            .stall_on_input(0)
            .stall_on_input(1)
            .stall_on_input(2)
            .stall_on_input(3),
    );
    assert!(st.plugin_timeouts >= 3, "{st:?}");
}

// ---------------------------------------------------------------------------
// Fallback terminal.
// ---------------------------------------------------------------------------

/// The acceptance scenario: the session's only output device dies
/// mid-interaction; the built-in fallback terminal takes over with at
/// most one full refresh and the interaction continues.
#[test]
fn only_output_device_dying_falls_back_to_terminal() {
    let (mut net, mut app) = tv_home();
    let mut session = LocalSession::connect(app.ui_mut());
    let mut sup = Supervisor::new(11);
    let mut coord = Coordinator::new(UserProfile::neutral("u"), Situation::idle("living-room"));

    // One input-only remote, one output-only TV whose adapt always
    // panics once the interaction is underway.
    let tv_schedule = (0..16).fold(DeviceFaultSchedule::new(), |s, i| s.panic_on_adapt(i));
    let (tv, _handle) = FaultyDevice::wrap(
        tv_interaction_device("tv-lr", "living-room"),
        tv_schedule,
        11,
    );
    for dev in [
        sup.supervise(SimRemote::interaction_device("remote-lr", "living-room")),
        sup.supervise(tv),
    ] {
        let rep = coord.register(dev, &mut session.proxy);
        session.deliver_to_server(app.ui_mut(), rep.messages);
    }
    assert_eq!(
        session.proxy.attached(),
        (Some("ir-remote"), Some("tv-screen"))
    );

    // Mid-interaction: the first power toggle lands while the screen is
    // already failing (the shim serves safe frames in the meantime).
    session.device_input(app.ui_mut(), &DeviceEvent::Remote(RemoteKey::Power));
    app.process(&mut net);
    session.pump(app.ui_mut());
    let tuner = net.find_fcms(&Query::new().class(FcmClass::Tuner))[0];
    assert!(net.status(tuner).unwrap().contains(&StateVar::Power(true)));
    // Force a few more adapt calls so the panics cross the threshold.
    let _ = session.proxy.adapt_current();
    let _ = session.proxy.adapt_current();

    let report = sup.tick(10_000, &mut coord, &mut session.proxy);
    assert!(report.fallback_attached, "fallback terminal attached");
    let full_refreshes = report
        .messages
        .iter()
        .filter(|m| {
            matches!(
                m,
                uniint::protocol::message::ClientMessage::UpdateRequest {
                    incremental: false,
                    ..
                }
            )
        })
        .count();
    assert_eq!(full_refreshes, 1, "no more than one full refresh");
    session.deliver_to_server(app.ui_mut(), report.messages);
    assert_eq!(session.proxy.attached().1, Some("fallback-terminal"));
    assert_eq!(sup.stats().fallback_activations, 1);
    assert!(sup.stats().plugin_panics >= 3);

    // The interaction continues on the terminal: toggle power back off.
    session.device_input(app.ui_mut(), &DeviceEvent::Remote(RemoteKey::Power));
    app.process(&mut net);
    session.pump(app.ui_mut());
    assert!(net.status(tuner).unwrap().contains(&StateVar::Power(false)));

    // And the terminal really renders: the panel aspect-fitted into the
    // 80×24 character cell grid.
    let frame = session.proxy.adapt_current().expect("fallback adapts");
    let expect = uniint::core::proxy::fitted_view(app.ui().size(), Size::new(80, 24));
    assert_eq!(frame.frame.size(), expect);
}
