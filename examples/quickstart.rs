//! Quickstart: control a TV from a cellular phone keypad.
//!
//! Run with `cargo run --example quickstart`.
//!
//! This walks the paper's whole pipeline once: a HAVi-style home network
//! with one TV, an appliance application that composes a control panel,
//! a UniInt server exporting it, a UniInt proxy with the phone's keypad
//! input plug-in and mono-LCD output plug-in, and a simulated keypress.

use uniint::prelude::*;

fn main() {
    // 1. The home network: one TV with a tuner and a display FCM.
    let mut net = HomeNetwork::new();
    net.attach(
        DeviceSpec::new("TV", "living-room")
            .with_fcm(TunerFcm::new("TV Tuner", 12))
            .with_fcm(DisplayFcm::new("TV Display", 2)),
    );

    // 2. The appliance application composes a panel for what it found.
    let mut app = ControlPanelApp::new(&mut net, None, Theme::classic());
    println!(
        "Discovered {} controllable functions; panel is {}.",
        app.section_count(),
        app.ui().size()
    );

    // 3. A UniInt session: server + proxy, connected in memory.
    let mut session = LocalSession::connect(app.ui_mut());

    // 4. The phone uploads its plug-ins to the proxy.
    session.proxy.attach_input(Box::new(KeypadPlugin::new()));
    session
        .proxy
        .attach_output(Box::new(ScreenPlugin::phone_lcd()));
    session.pump(app.ui_mut());

    // 5. The user presses the phone's center key: the keypad plug-in
    //    turns it into a universal Return tap, the focused power toggle
    //    activates, and the application sends SetPower to the tuner FCM.
    session.device_input(app.ui_mut(), &SimPhone::press('5').unwrap());
    let report = app.process(&mut net);
    println!("Commands sent to appliances: {}", report.commands_sent);

    let tuner = net.find_fcms(&Query::new().class(FcmClass::Tuner))[0];
    println!("Tuner state: {:?}", net.status(tuner).unwrap());

    // 6. What the phone's 1-bit LCD shows right now:
    session.pump(app.ui_mut());
    let frame = session.last_frame().expect("LCD frame");
    println!(
        "\nPhone LCD ({}x{}, {}):\n",
        frame.frame.width(),
        frame.frame.height(),
        frame.format
    );
    println!("{}", ascii_art(&frame.frame));

    // The panel's pixels in one number: a stable 64-bit digest, handy
    // for golden assertions and record/replay divergence checks.
    println!(
        "Server framebuffer digest: {:016x}",
        app.ui().framebuffer().digest()
    );

    // 7. Everything above was measured: the session's server and proxy
    //    share one telemetry registry, and because no wall clock is ever
    //    consulted the snapshot below is byte-identical on every run.
    let snap = session.telemetry().snapshot();
    println!("Session telemetry:\n\n{}", snap.to_text());
    println!("Telemetry JSON:\n{}", snap.to_json());
}
