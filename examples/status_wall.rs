//! Status wall: the read-only monitor application on a kitchen terminal,
//! updating live while appliances change state elsewhere in the house —
//! a second, different application reached through the same universal
//! interaction stack.
//!
//! Run with `cargo run --example status_wall`.

use uniint::prelude::*;

fn main() {
    let mut net = HomeNetwork::new();
    net.attach(
        DeviceSpec::new("TV", "living-room")
            .with_fcm(TunerFcm::new("TV Tuner", 12))
            .with_fcm(DisplayFcm::new("TV Display", 2)),
    );
    net.attach(DeviceSpec::new("VCR", "living-room").with_fcm(VcrFcm::new("VCR Deck", 3600)));
    net.attach(DeviceSpec::new("AC", "bedroom").with_fcm(AirconFcm::new("Bedroom AC", 291)));
    net.attach(DeviceSpec::new("Clock", "hall").with_fcm(ClockFcm::new("Hall Clock", 8 * 3600)));

    // The monitor app, exported through UniInt to the kitchen terminal.
    let mut monitor = StatusMonitorApp::new(&mut net, Theme::classic());
    let mut session = LocalSession::connect(monitor.ui_mut());
    let msgs = session
        .proxy
        .attach_output(Box::new(TerminalPlugin::new(100, 30)));
    session.deliver_to_server(monitor.ui_mut(), msgs);

    // Life happens in the house.
    let tuner = net.find_fcms(&Query::new().class(FcmClass::Tuner))[0];
    let vcr = net.find_fcms(&Query::new().class(FcmClass::Vcr))[0];
    let ac = net.find_fcms(&Query::new().class(FcmClass::AirConditioner))[0];
    net.send(tuner, &FcmCommand::SetPower(true)).unwrap();
    net.send(tuner, &FcmCommand::SetChannel(8)).unwrap();
    net.send(vcr, &FcmCommand::SetPower(true)).unwrap();
    net.send(vcr, &FcmCommand::Transport(Transport::Play))
        .unwrap();
    net.send(ac, &FcmCommand::SetPower(true)).unwrap();
    net.send(ac, &FcmCommand::SetTargetTemp(240)).unwrap();

    // A minute of simulated time passes.
    for _ in 0..12 {
        net.tick(5_000);
        monitor.process(&mut net);
        session.pump(monitor.ui_mut());
    }

    println!("Kitchen terminal after one simulated minute:\n");
    if let Some(frame) = session.last_frame() {
        println!("{}", ascii_art(&frame.frame));
    }
    for seid in net.find_fcms(&Query::new()) {
        if let Some(text) = monitor.row_text(seid) {
            println!("  {text}");
        }
    }
}
