//! Living-room scenario: the composed TV + VCR + amplifier panel, driven
//! from the sofa with an IR remote on the television screen, with a VCR
//! hot-plugged mid-session — the paper's "composed GUI for TV and VCR if
//! both are currently available".
//!
//! Run with `cargo run --example living_room`.

use uniint::prelude::*;

fn main() {
    // A living room with a TV and an amplifier; the VCR arrives later.
    let mut net = HomeNetwork::new();
    net.attach(
        DeviceSpec::new("TV", "living-room")
            .with_fcm(TunerFcm::new("TV Tuner", 12))
            .with_fcm(DisplayFcm::new("TV Display", 2)),
    );
    net.attach(DeviceSpec::new("Amp", "living-room").with_fcm(AmplifierFcm::new("Hi-Fi Amp")));

    let mut app = ControlPanelApp::new(&mut net, Some("living-room"), Theme::tv());
    let mut session = LocalSession::connect(app.ui_mut());

    // The coordinator watches the user's situation; on the sofa it picks
    // the remote controller + the TV screen automatically.
    let mut coord = Coordinator::new(
        UserProfile::neutral("alice"),
        Situation {
            zone: "living-room".into(),
            activity: Activity::WatchingTv,
            hands_busy: false,
            noise: Noise::Moderate,
        },
    );
    for d in standard_home("kitchen", "living-room") {
        coord.register(d, &mut session.proxy);
        session.pump(app.ui_mut());
    }
    println!(
        "Selected input: {:?}, output: {:?}",
        coord.active_input(),
        coord.active_output()
    );

    // Power on the TV with the remote's power button (mnemonic 'p').
    app.ui_mut().set_focus(None);
    session.device_input(app.ui_mut(), &SimRemote::press(RemoteKey::Power));
    app.process(&mut net);

    // Channel surf: two channel-ups via focus navigation.
    let tuner = net.find_fcms(&Query::new().class(FcmClass::Tuner))[0];
    for _ in 0..2 {
        // Focus the Ch+ button (power → ch- → ch+) then press Ok.
        app.ui_mut().set_focus(None);
        for key in [
            RemoteKey::Menu,
            RemoteKey::Menu,
            RemoteKey::Menu,
            RemoteKey::Ok,
        ] {
            session.device_input(app.ui_mut(), &SimRemote::press(key));
        }
        app.process(&mut net);
    }
    println!("Tuner after surfing: {:?}", net.status(tuner).unwrap());

    // The VCR is plugged in: the application recomposes the panel, and
    // the next pump announces the resize to the proxy.
    println!("\n-- plugging in the VCR --");
    net.attach(DeviceSpec::new("VCR", "living-room").with_fcm(VcrFcm::new("VCR Deck", 3600)));
    app.process(&mut net);
    println!(
        "Panel now has {} sections, window {}.",
        app.section_count(),
        app.ui().size()
    );

    // Show the TV-screen rendering of the composed panel, shrunk to
    // terminal size for display here.
    session.pump(app.ui_mut());
    if let Some(frame) = session.last_frame() {
        let preview = scale(&frame.frame, Size::new(72, 30), ScaleFilter::Box);
        println!(
            "\nTV output ({}x{} {}), preview:\n",
            frame.frame.width(),
            frame.frame.height(),
            frame.format
        );
        println!("{}", ascii_art(&preview));
        print_frame_line(frame);
    }

    // Let the VCR play for a while on simulated time.
    let vcr = net.find_fcms(&Query::new().class(FcmClass::Vcr))[0];
    net.send(vcr, &FcmCommand::SetPower(true)).unwrap();
    net.send(vcr, &FcmCommand::Transport(Transport::Play))
        .unwrap();
    net.tick(30_000);
    app.process(&mut net);
    println!("VCR after 30s of playback: {:?}", net.status(vcr).unwrap());
}

/// One line that pins the adapted device frame: size, format, content
/// digest and changed area. `tests/golden/living_room.txt` holds it.
fn print_frame_line(frame: &DeviceFrame) {
    println!(
        "device frame: {} {} digest={:016x} changed={}",
        frame.frame.size(),
        frame.format,
        frame.frame.digest(),
        frame.changed.area()
    );
}
