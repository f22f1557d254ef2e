//! A real-network deployment on loopback: the TV's control panel served
//! by a TCP gateway, operated simultaneously from a PDA (stylus +
//! 240x320 RGB444 screen) and a cellular phone (keypad + 128x128 mono
//! LCD) — each a separate socket client, exactly as two proxy processes
//! on a home network would connect.
//!
//! Run with `cargo run --example networked`.

use std::time::{Duration, Instant};

use uniint::core::plugin::DeviceEvent;
use uniint::devices::prelude::{KeypadPlugin, ScreenPlugin, StylusPlugin};
use uniint::gateway::prelude::*;
use uniint::telemetry::prelude::Registry;
use uniint::wsys::prelude::{Label, Theme, Toggle, Ui};
use uniint_raster::geom::Rect;

fn main() {
    // ------------------------------------------------- appliance side
    let mut ui = Ui::new(160, 120, Theme::classic(), "TV");
    ui.add(Toggle::new("Power", false), Rect::new(20, 20, 120, 28));
    ui.add(Label::new("Channel 12"), Rect::new(20, 60, 120, 20));
    let gw = Gateway::spawn(ui, GatewayConfig::default(), Registry::new())
        .expect("gateway binds loopback");
    println!("TV panel served at {}", gw.local_addr());

    // ------------------------------------------------- two proxy "processes"
    let mut pda = GatewayClient::connect(gw.local_addr(), "pda-proxy", 1).expect("pda connects");
    pda.proxy.attach_input(Box::new(StylusPlugin::new()));
    pda.proxy.attach_output(Box::new(ScreenPlugin::pda()));

    let mut phone =
        GatewayClient::connect(gw.local_addr(), "phone-proxy", 2).expect("phone connects");
    phone.proxy.attach_input(Box::new(KeypadPlugin::new()));
    phone
        .proxy
        .attach_output(Box::new(ScreenPlugin::phone_lcd()));

    // Both proxies run on this thread, in one wait. Let both drain the
    // initial full update in their own format.
    let mut proxies = [pda, phone];
    pump_until(&mut proxies, |[p, q]| {
        p.frames_delivered() >= 1 && q.frames_delivered() >= 1
    });
    let [pda, phone] = &mut proxies;
    println!(
        "connected: pda sees {}x{}, phone sees {}x{}",
        pda.last_frame().map(|f| f.frame.width()).unwrap_or(0),
        pda.last_frame().map(|f| f.frame.height()).unwrap_or(0),
        phone.last_frame().map(|f| f.frame.width()).unwrap_or(0),
        phone.last_frame().map(|f| f.frame.height()).unwrap_or(0),
    );

    // The PDA user taps the Power toggle. Stylus coordinates are in the
    // PDA's fitted-view space; the plug-in maps them back to the panel.
    let before = phone.stats().updates_applied;
    pda.device_input(&DeviceEvent::StylusDown { x: 120, y: 51 });
    pda.device_input(&DeviceEvent::StylusUp { x: 120, y: 51 });
    // The tap repaints the panel for *both* viewers.
    pump_until(&mut proxies, |[_, q]| q.stats().updates_applied > before);
    let [pda, phone] = &proxies;
    println!("pda tapped Power; phone saw the repaint too");

    let pda_stats = pda.stats();
    let phone_stats = phone.stats();
    println!(
        "pda: {} updates applied, {} frames adapted; phone: {} updates applied, {} frames adapted",
        pda_stats.updates_applied,
        pda_stats.frames_adapted,
        phone_stats.updates_applied,
        phone_stats.frames_adapted,
    );

    let mut panel = gw.shutdown();
    let actions = panel.take_actions();
    println!(
        "appliance recorded {} widget action(s); example done",
        actions.len()
    );
    assert!(!actions.is_empty(), "the tap reached the appliance");
}

/// Pumps both clients until `done` holds (bounded by a hard deadline).
fn pump_until(proxies: &mut [GatewayClient; 2], mut done: impl FnMut(&[GatewayClient; 2]) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done(proxies) {
        for r in pump_clients(proxies) {
            r.expect("pump");
        }
        assert!(Instant::now() < deadline, "networked example stalled");
    }
}
