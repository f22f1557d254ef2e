//! One script, two transports: the same interaction runs on
//! `SimSession` over the network simulator and on a `GatewayClient` over
//! loopback TCP, and the two servers must consume the same client
//! messages on each connection, apply the same actions once each, and
//! end on the framebuffer their proxies hold.
//!
//! Both runs are recorded server-side. `UpdateRequest`s are left out of
//! the comparison, and so is a `Resume`'s `last_update_seq`: how many
//! updates answer a click depends on how the pumps are timed, which the
//! two transports do differently.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use uniint::prelude::*;
use uniint::protocol::input::InputEvent;
use uniint::protocol::message::{ClientMessage, PROTOCOL_VERSION};
use uniint::telemetry::prelude::Registry;

const SEED: u64 = 0x2_7A45;

/// `SimSession`'s proxy name, so that both transports say the same
/// `Hello`.
const NAME: &str = "sim-proxy";

fn panel() -> Ui {
    let mut ui = Ui::new(160, 120, Theme::classic(), "two-transports");
    ui.add(Toggle::new("Power", false), Rect::new(20, 20, 120, 28));
    ui
}

fn click() -> Vec<ClientMessage> {
    InputEvent::click(80, 34)
        .into_iter()
        .map(ClientMessage::Input)
        .collect()
}

fn recorder() -> Recorder {
    Recorder::new(TraceHeader {
        seed: SEED,
        protocol_version: PROTOCOL_VERSION,
        pixel_format: PixelFormat::Rgb888,
    })
}

/// The client messages each recorded connection's server consumed, in
/// connection order, without `UpdateRequest`s and with every `Resume`'s
/// sequence number zeroed.
fn consumed(trace: Vec<u8>) -> Vec<Vec<ClientMessage>> {
    let reader = TraceReader::parse(trace).expect("trace parses");
    let mut conns: BTreeMap<u32, Vec<ClientMessage>> = BTreeMap::new();
    for record in reader.records() {
        let record = record.expect("record decodes");
        if record.dir != Direction::ToServer {
            continue;
        }
        let msg = ClientMessage::decode_body(&mut record.payload.as_slice()).expect("decodes");
        let msg = match msg {
            ClientMessage::UpdateRequest { .. } => continue,
            ClientMessage::Resume { .. } => ClientMessage::Resume { last_update_seq: 0 },
            other => other,
        };
        conns.entry(record.channel).or_default().push(msg);
    }
    conns.into_values().collect()
}

/// Runs the script on the simulator: a flap opens before the last
/// click. Returns the trace, the actions applied and the framebuffer
/// the proxy converged to.
fn simulated() -> (Vec<u8>, Vec<ActionEvent>, Framebuffer) {
    let rec = recorder();
    let mut ui = panel();
    let mut s =
        SimSession::connect_recorded(&mut ui, LinkProfile::wifi80211b(), SEED, Some(rec.tap()))
            .expect("session connects");
    s.proxy.attach_output(Box::new(ScreenPlugin::tv()));
    s.settle(&mut ui).expect("renegotiation settles");
    for _ in 0..2 {
        s.send_client(&mut ui, click()).expect("click settles");
    }
    let t0 = s.now_us();
    s.sim.set_link_faults(
        s.proxy_endpoint(),
        FaultSchedule::new().flap(t0, t0 + 300_000),
    );
    s.send_client(&mut ui, click())
        .expect("click survives the flap");
    s.settle(&mut ui).expect("session settles");
    assert_eq!(s.proxy.stats().resumes, 1, "{:?}", s.proxy.stats());
    let frame = s.proxy.server_frame().expect("framebuffer").clone();
    assert_eq!(&frame, ui.framebuffer(), "simulated proxy converged");
    (rec.finish().expect("trace"), ui.take_actions(), frame)
}

/// Pumps `c` until `done` holds, with a deadline: these are sockets.
fn pump_until(c: &mut GatewayClient, what: &str, done: impl Fn(&GatewayClient) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done(c) {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        c.pump_once().expect("pump");
    }
}

/// Runs the script on the gateway: the socket is killed before the
/// last click. Returns the trace, the actions applied and the
/// framebuffer the client converged to once it shows `expected`.
fn over_tcp(expected: &Framebuffer) -> (Vec<u8>, Vec<ActionEvent>, Framebuffer) {
    let rec = recorder();
    let config = GatewayConfig {
        recorder: Some(rec.tap()),
        ..GatewayConfig::default()
    };
    let gw = Gateway::spawn(panel(), config, Registry::new()).expect("gateway binds");
    let mut c = GatewayClient::connect(gw.local_addr(), NAME, SEED).expect("connect");
    c.proxy.attach_output(Box::new(ScreenPlugin::tv()));
    for _ in 0..2 {
        c.send_messages(click());
    }
    // Settle before the break, as the simulated run does: nothing sent
    // so far may be left for the second connection.
    let mut idle = 0;
    while idle < 10 {
        idle = if c.pump_once().expect("pump") {
            0
        } else {
            idle + 1
        };
    }
    c.kill_socket();
    pump_until(&mut c, "the break to be detected", |c| {
        c.stats().stalls == 1
    });
    c.send_messages(click());
    pump_until(&mut c, "the panel after the last click", |c| {
        c.stats().resumes == 1 && c.proxy.server_frame() == Some(expected)
    });
    let frame = c.proxy.server_frame().expect("framebuffer").clone();
    let mut ui = gw.shutdown();
    assert_eq!(&frame, ui.framebuffer(), "TCP client converged");
    (rec.finish().expect("trace"), ui.take_actions(), frame)
}

#[test]
fn one_script_consumes_the_same_messages_on_both_transports() {
    let (sim_trace, sim_actions, sim_frame) = simulated();
    let (tcp_trace, tcp_actions, tcp_frame) = over_tcp(&sim_frame);

    let sim = consumed(sim_trace);
    let tcp = consumed(tcp_trace);
    assert_eq!(sim, tcp, "the same messages, connection by connection");
    assert_eq!(sim.len(), 2, "one reconnect: {sim:?}");
    let hello = ClientMessage::Hello {
        version: PROTOCOL_VERSION,
        name: NAME.into(),
    };
    let resume = ClientMessage::Resume { last_update_seq: 0 };
    assert_eq!(sim[1][..2], [hello, resume], "the reconnect's opening");
    let inputs = sim.iter().flatten();
    let inputs = inputs.filter(|m| matches!(m, ClientMessage::Input(_)));
    assert_eq!(inputs.count(), 6, "three clicks, each consumed once");

    assert_eq!(sim_actions, tcp_actions);
    assert_eq!(sim_actions.len(), 3, "each click applied once");
    assert_eq!(sim_frame, tcp_frame);
}
