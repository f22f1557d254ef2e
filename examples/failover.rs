//! Failover: the only screen dies mid-interaction and the session
//! survives on the built-in fallback terminal.
//!
//! Run with `cargo run --example failover`.
//!
//! Voice drives the kitchen control panel whose only output is a wall
//! terminal. The terminal's plug-in starts panicking on every
//! frame adaptation; the supervisor contains each panic, walks the
//! device through Degraded → Quarantined, fails the output role over —
//! and, with no other screen registered, attaches its built-in 80×24
//! fallback terminal so the interaction never goes dark.
//!
//! The run is seeded, so its output is fixed: `tests/golden/failover.txt`
//! holds it.

use uniint::prelude::*;

fn main() {
    let mut net = HomeNetwork::new();
    net.attach(DeviceSpec::new("Oven", "kitchen").with_fcm(AirconFcm::new("Oven", 280)));
    net.attach(DeviceSpec::new("TV", "kitchen").with_fcm(TunerFcm::new("Tuner", 12)));
    let mut app = ControlPanelApp::new(&mut net, None, Theme::classic());
    let mut session = LocalSession::connect(app.ui_mut());

    let mut sup = Supervisor::new(42);
    let mut coord = Coordinator::new(UserProfile::neutral("cook"), Situation::idle("kitchen"));

    // The wall terminal will panic on every frame adaptation from the
    // fourth one on — a driver bug that manifests mid-interaction.
    let schedule = (3..40).fold(DeviceFaultSchedule::new(), |s, i| s.panic_on_adapt(i));
    let (terminal, _handle) = FaultyDevice::wrap(
        terminal_interaction_device("term-kitchen", "kitchen"),
        schedule,
        42,
    );

    for dev in [
        sup.supervise(VoiceRecognizer::interaction_device(
            "mic-kitchen",
            "kitchen",
        )),
        sup.supervise(terminal),
    ] {
        coord.register(dev, &mut session.proxy);
        session.pump(app.ui_mut());
    }
    println!("attached: {:?}", session.proxy.attached());

    println!("\nCooking: saying \"p\" (power) and pumping frames while the wall");
    println!("terminal's plug-in starts panicking...\n");
    for step in 0..8 {
        session.device_input(app.ui_mut(), &DeviceEvent::Voice("p".into()));
        app.process(&mut net);
        session.pump(app.ui_mut());
        let _ = session.proxy.adapt_current();

        let report = sup.tick((step + 1) * 1_000, &mut coord, &mut session.proxy);
        for ev in &report.events {
            println!(
                "  t={}ms  {}: {:?} -> {:?} ({:?})",
                step + 1,
                ev.device,
                ev.from,
                ev.to,
                ev.cause
            );
        }
        if report.fallback_attached {
            println!("  t={}ms  fallback terminal attached", step + 1);
        }
        session.pump(app.ui_mut());
    }

    let st = sup.stats();
    println!("\nsupervisor stats:");
    println!("  plugin panics contained : {}", st.plugin_panics);
    println!("  quarantines             : {}", st.quarantines);
    println!("  failovers               : {}", st.failovers);
    println!("  fallback activations    : {}", st.fallback_activations);
    println!("attached now: {:?}", session.proxy.attached());

    // The interaction is still alive: the frame renders on the fallback
    // and the last keypress still reached the appliance network.
    let frame = session.proxy.adapt_current().expect("fallback renders");
    let tuner = net.find_fcms(&Query::new().class(FcmClass::Tuner))[0];
    let powered = net.status(tuner).unwrap().contains(&StateVar::Power(false));
    println!(
        "\nfallback frame: {}x{} ({:?}), TV toggled 8 times => off: {}",
        frame.frame.size().w,
        frame.frame.size().h,
        frame.format,
        powered
    );
    assert!(session.proxy.attached().1 == Some("fallback-terminal"));
    assert!(st.fallback_activations == 1 && powered);
}
