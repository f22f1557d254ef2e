//! Kitchen scenario: the user is cooking with both hands busy, so the
//! coordinator switches input to the kitchen microphone and output to the
//! kitchen terminal — the paper's motivating example for dynamic,
//! situation-driven device selection.
//!
//! Run with `cargo run --example kitchen_voice`.

use uniint::prelude::*;

fn main() {
    // Kitchen appliances: a light and an air conditioner.
    let mut net = HomeNetwork::new();
    net.attach(
        DeviceSpec::new("Ceiling Light", "kitchen").with_fcm(LightFcm::new("Kitchen Light")),
    );
    net.attach(DeviceSpec::new("Aircon", "kitchen").with_fcm(AirconFcm::new("Kitchen AC", 299)));

    let mut app = ControlPanelApp::new(&mut net, Some("kitchen"), Theme::classic());
    let mut session = LocalSession::connect(app.ui_mut());
    let mut coord = Coordinator::new(UserProfile::neutral("bob"), Situation::idle("kitchen"));
    for d in standard_home("kitchen", "living-room") {
        coord.register(d, &mut session.proxy);
        session.pump(app.ui_mut());
    }
    println!(
        "Idle in the kitchen → input {:?}, output {:?}",
        coord.active_input(),
        coord.active_output()
    );

    // Hands get busy: kneading dough. The situation update switches the
    // session to voice + fixed terminal without touching the application.
    coord.set_situation(
        Situation {
            zone: "kitchen".into(),
            activity: Activity::Cooking,
            hands_busy: true,
            noise: Noise::Moderate,
        },
        &mut session.proxy,
    );
    session.pump(app.ui_mut());
    println!(
        "Cooking, hands busy → input {:?}, output {:?}",
        coord.active_input(),
        coord.active_output()
    );

    // Speak to the house. The recognizer is imperfect: with 90% per-word
    // accuracy some words are lost; lost commands simply do nothing.
    let mut recognizer = VoiceRecognizer::new(42, 0.9);
    let light = net.find_fcms(&Query::new().class(FcmClass::Light))[0];
    let utterances = ["select", "next", "right right", "select"];
    for u in utterances {
        match recognizer.hear(u) {
            Some(ev) => {
                println!("  heard: {ev:?}");
                session.device_input(app.ui_mut(), &ev);
            }
            None => println!("  (recognizer missed: {u:?})"),
        }
        app.process(&mut net);
    }
    println!("Light state: {:?}", net.status(light).unwrap());

    // What the kitchen terminal shows:
    session.pump(app.ui_mut());
    if let Some(frame) = session.last_frame() {
        println!("\nKitchen terminal view:\n");
        println!("{}", ascii_art(&frame.frame));
        print_frame_line(frame);
    }

    // The aircon hums along on simulated time, drifting to its target.
    let ac = net.find_fcms(&Query::new().class(FcmClass::AirConditioner))[0];
    net.send(ac, &FcmCommand::SetPower(true)).unwrap();
    net.send(ac, &FcmCommand::SetTargetTemp(240)).unwrap();
    net.tick(120_000);
    app.process(&mut net);
    println!("Aircon after 2 minutes: {:?}", net.status(ac).unwrap());
}

/// One line that pins the adapted device frame: size, format, content
/// digest and changed area. `tests/golden/kitchen_voice.txt` holds it.
fn print_frame_line(frame: &DeviceFrame) {
    println!(
        "device frame: {} {} digest={:016x} changed={}",
        frame.frame.size(),
        frame.format,
        frame.frame.digest(),
        frame.changed.area()
    );
}
