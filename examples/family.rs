//! The whole family controls one living room: three viewers — the TV
//! screen, a PDA and a phone — share the same appliance panel through a
//! multi-client UniInt server. One person's action appears on everyone's
//! device, each in its own pixel format.
//!
//! Run with `cargo run --example family`.

use uniint::core::plugin::OutputPlugin;
use uniint::prelude::*;

fn main() {
    // The shared living room.
    let mut net = HomeNetwork::new();
    net.attach(
        DeviceSpec::new("TV", "living-room")
            .with_fcm(TunerFcm::new("TV Tuner", 12))
            .with_fcm(DisplayFcm::new("TV Display", 2)),
    );
    net.attach(DeviceSpec::new("Amp", "living-room").with_fcm(AmplifierFcm::new("Hi-Fi")));
    let mut app = ControlPanelApp::new(&mut net, None, Theme::classic());

    // Each viewer connects on its own connection to the one server: the
    // TV is the session's first viewer, the PDA and the phone join it.
    let mut session = LocalSession::connect(app.ui_mut());
    let viewers = [
        ("tv", 0),
        ("pda", session.join(app.ui_mut(), "pda-viewer")),
        ("phone", session.join(app.ui_mut(), "phone-viewer")),
    ];
    // Each viewer uploads its own output plug-in.
    let outputs: [Box<dyn OutputPlugin>; 3] = [
        Box::new(ScreenPlugin::tv()),
        Box::new(ScreenPlugin::pda()),
        Box::new(ScreenPlugin::phone_lcd()),
    ];
    for ((_, v), out) in viewers.into_iter().zip(outputs) {
        let msgs = session.viewer_mut(v).attach_output(out);
        session.send_as(app.ui_mut(), v, msgs);
    }
    // Dad's phone also gets the keypad input plug-in.
    let (_, phone) = viewers[2];
    session
        .viewer_mut(phone)
        .attach_input(Box::new(KeypadPlugin::new()));

    // Dad presses select: the TV powers on; everyone's screen updates.
    let msgs = session
        .viewer_mut(phone)
        .device_input(&SimPhone::press('5').unwrap());
    session.send_as(app.ui_mut(), phone, msgs);
    app.process(&mut net);
    session.pump(app.ui_mut());

    let tuner = net.find_fcms(&Query::new().class(FcmClass::Tuner))[0];
    println!(
        "After dad's keypress: tuner = {:?}\n",
        net.status(tuner).unwrap()
    );
    for (name, v) in viewers {
        let fb = session.viewer(v).server_frame().expect("synced");
        // Viewers transporting in a reduced format hold format-reduced
        // pixels; the RGB888 viewer matches the server bit-for-bit.
        println!(
            "  {:<6} sees a {}x{} panel ({})",
            name,
            fb.width(),
            fb.height(),
            if fb == app.ui().framebuffer() {
                "bit-identical to the server"
            } else {
                "format-reduced transport"
            },
        );
    }
    println!(
        "\nserver sent {} update rects, {} bytes total across {} viewers",
        session.server().stats().rects_sent,
        session.server().stats().payload_bytes,
        session.server().client_count(),
    );
}
