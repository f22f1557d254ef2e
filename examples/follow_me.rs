//! Follow-me interaction over realistic home links: the user walks
//! through the house and the same appliance panel follows them from
//! device to device — PDA over 802.11b in the hallway, TV + remote over
//! Ethernet in the living room, phone over GPRS in the garden — with the
//! discrete-event network simulator accounting for every byte.
//!
//! Run with `cargo run --example follow_me`.

use uniint::prelude::*;

fn scenario(step: &str, link: LinkProfile, sit: Situation) {
    // A fresh session per hop, as the paper's teleporting-UI systems did:
    // the desktop "moves" by reconnecting the proxy near the user.
    let mut net = HomeNetwork::new();
    net.attach(
        DeviceSpec::new("TV", "living-room")
            .with_fcm(TunerFcm::new("TV Tuner", 12))
            .with_fcm(DisplayFcm::new("TV Display", 2)),
    );
    net.attach(DeviceSpec::new("Amp", "living-room").with_fcm(AmplifierFcm::new("Amp")));
    let mut app = ControlPanelApp::new(&mut net, None, Theme::classic());

    let mut session = SimSession::connect(app.ui_mut(), link, 7).expect("connect");
    let connect_us = session.now_us();

    let mut coord = Coordinator::new(UserProfile::neutral("alice"), sit);
    // Each switch queues its renegotiation (pixel format, encodings,
    // refresh) in the proxy, and settling sends it to the server, which
    // then sends the panel in the device's format.
    for d in standard_home("kitchen", "living-room") {
        coord.register(d, &mut session.proxy);
        session
            .settle(app.ui_mut())
            .expect("renegotiate after switch");
    }
    session.settle(app.ui_mut()).expect("settle after switch");

    // One interaction: activate the focused power toggle.
    session.proxy.attach_input(Box::new(KeypadPlugin::new()));
    let t0 = session.now_us();
    session
        .device_input(app.ui_mut(), &SimPhone::press('5').unwrap())
        .expect("input");
    app.process(&mut net);
    session.settle(app.ui_mut()).expect("settle");
    let input_us = session.now_us() - t0;

    println!(
        "{step:<14} link={:<14} in={:<10} out={:<12} connect={:>8.1}ms input-rtt={:>8.1}ms wire={:>7}B",
        link.name,
        coord.active_input().unwrap_or("-"),
        coord.active_output().unwrap_or("-"),
        connect_us as f64 / 1000.0,
        input_us as f64 / 1000.0,
        session.server_wire_bytes(),
    );
}

fn main() {
    println!("The same panel follows the user through the house:\n");
    scenario(
        "hallway",
        LinkProfile::wifi80211b(),
        Situation::idle("hallway"),
    );
    scenario(
        "living room",
        LinkProfile::ethernet100(),
        Situation {
            zone: "living-room".into(),
            activity: Activity::WatchingTv,
            hands_busy: false,
            noise: Noise::Moderate,
        },
    );
    scenario(
        "kitchen",
        LinkProfile::wifi80211b(),
        Situation {
            zone: "kitchen".into(),
            activity: Activity::Cooking,
            hands_busy: true,
            noise: Noise::Moderate,
        },
    );
    scenario(
        "garden",
        LinkProfile::cellular_gprs(),
        Situation {
            zone: "garden".into(),
            activity: Activity::Walking,
            hands_busy: false,
            noise: Noise::Loud,
        },
    );
    println!("\nNote how the selected devices and the protocol cost change with");
    println!("location and situation while the appliance application never changes.");
}
