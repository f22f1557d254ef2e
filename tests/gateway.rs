//! Integration tests for the TCP gateway: many concurrent socket
//! clients against one panel, and the reconnect/resume lifecycle over a
//! real connection break.

use std::time::{Duration, Instant};

use uniint::gateway::prelude::*;
use uniint::protocol::input::InputEvent;
use uniint::protocol::message::ClientMessage;
use uniint::telemetry::prelude::Registry;
use uniint::wsys::prelude::{Theme, Toggle, Ui};
use uniint_raster::geom::Rect;
use uniint_raster::pixel::PixelFormat;

fn panel() -> Ui {
    let mut ui = Ui::new(160, 120, Theme::classic(), "gateway-panel");
    ui.add(Toggle::new("Power", false), Rect::new(20, 20, 120, 28));
    ui
}

fn click_msgs() -> Vec<ClientMessage> {
    InputEvent::click(80, 34)
        .into_iter()
        .map(ClientMessage::Input)
        .collect()
}

/// One wait on every client; whether any of them handled a frame.
fn pump(clients: &mut [GatewayClient]) -> bool {
    pump_clients(clients)
        .into_iter()
        .fold(false, |any, r| r.expect("pump") | any)
}

/// Pumps every client until `cond` holds (with a hard deadline — these
/// are sockets, not the simulator).
fn pump_until(
    clients: &mut [GatewayClient],
    what: &str,
    mut cond: impl FnMut(&[GatewayClient]) -> bool,
) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        pump(clients);
        if cond(clients) {
            return;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
    }
}

/// Pumps until no client has received a frame for `quiet` — the server
/// has flushed everything it owed.
fn pump_quiescent(clients: &mut [GatewayClient], quiet: Duration) {
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut last_activity = Instant::now();
    while last_activity.elapsed() < quiet {
        if pump(clients) {
            last_activity = Instant::now();
        }
        assert!(Instant::now() < deadline, "update stream never quiesced");
    }
}

#[test]
fn eight_concurrent_clients_converge_to_identical_framebuffers() {
    let gw =
        Gateway::spawn(panel(), GatewayConfig::default(), Registry::new()).expect("gateway binds");
    let addr = gw.local_addr();

    let mut clients: Vec<GatewayClient> = (0..8)
        .map(|i| GatewayClient::connect(addr, format!("viewer-{i}"), i).expect("connect"))
        .collect();

    // Every client clicks once, serialized: wait until every viewer has
    // applied at least one update for each click before the next.
    for i in 0..clients.len() {
        let before: Vec<u64> = clients.iter().map(|c| c.stats().updates_applied).collect();
        clients[i].send_messages(click_msgs());
        pump_until(&mut clients, "click to fan out to every viewer", |cs| {
            cs.iter()
                .zip(&before)
                .all(|(c, b)| c.stats().updates_applied > *b)
        });
    }
    pump_quiescent(&mut clients, Duration::from_millis(300));

    // All eight socket clients reconstructed the same pixels...
    let reference = clients[0]
        .proxy
        .server_frame()
        .expect("client 0 holds a framebuffer")
        .clone();
    for (i, c) in clients.iter().enumerate() {
        assert_eq!(
            c.proxy.server_frame().expect("framebuffer"),
            &reference,
            "viewer {i} diverged"
        );
    }

    // ...and they are exactly the appliance's own pixels (transport is
    // Rgb888 here, so equality is exact, not approximate).
    let ui = gw.shutdown();
    assert_eq!(&reference, ui.framebuffer(), "clients match the appliance");
}

#[test]
fn killed_socket_reconnects_with_backoff_and_resumes_incrementally() {
    let registry = Registry::new();
    let gw =
        Gateway::spawn(panel(), GatewayConfig::default(), registry.clone()).expect("gateway binds");
    let addr = gw.local_addr();

    let mut c0 = GatewayClient::connect(addr, "victim", 42).expect("connect victim");
    let mut c1 = GatewayClient::connect(addr, "witness", 43).expect("connect witness");

    // Let both drain their initial full updates.
    {
        let mut both = [c0, c1];
        pump_quiescent(&mut both, Duration::from_millis(200));
        [c0, c1] = both;
    }

    // Damage heads for both viewers; the victim's socket dies mid-update.
    c1.send_messages(click_msgs());
    c0.kill_socket();

    // The victim detects the break on its next pump, backs off,
    // reconnects and resumes; both end up converged.
    {
        let mut both = [c0, c1];
        pump_until(&mut both, "victim to resume after the kill", |cs| {
            cs[0].stats().resumes >= 1
        });
        pump_quiescent(&mut both, Duration::from_millis(300));
        [c0, c1] = both;
    }

    let st = c0.stats();
    assert_eq!(st.stalls, 1, "exactly one stall detected: {st:?}");
    assert!(st.backoff_attempts >= 1, "backoff ran: {st:?}");
    assert_eq!(st.resumes, 1, "resumed incrementally: {st:?}");
    assert_eq!(st.full_resyncs, 0, "no full refresh needed: {st:?}");

    let snap = registry.snapshot();
    let counter = |n: &str| snap.counters.get(n).copied().unwrap_or(0);
    assert_eq!(
        counter("gateway.reconnects"),
        1,
        "gateway adopted the session once"
    );
    assert_eq!(
        counter("gateway.resumes"),
        1,
        "one resume crossed the gateway"
    );

    let fb0 = c0.proxy.server_frame().expect("victim framebuffer").clone();
    let fb1 = c1
        .proxy
        .server_frame()
        .expect("witness framebuffer")
        .clone();
    assert_eq!(fb0, fb1, "victim converged with the witness");
    let ui = gw.shutdown();
    let converged = &fb0 == ui.framebuffer();
    assert!(converged, "victim converged with the appliance");

    // One deterministic line for the CI determinism diff: every value
    // here must be identical across runs (wall-clock metrics excluded).
    println!(
        "RESUME-COUNTERS stalls={} resumes={} full_resyncs={} gw_reconnects={} gw_resumes={} converged={}",
        st.stalls,
        st.resumes,
        st.full_resyncs,
        counter("gateway.reconnects"),
        counter("gateway.resumes"),
        converged,
    );
}

#[test]
fn killed_socket_reconnects_and_holds_a_click_until_the_resume_ack() {
    let registry = Registry::new();
    let gw =
        Gateway::spawn(panel(), GatewayConfig::default(), registry.clone()).expect("gateway binds");
    let mut c = [GatewayClient::connect(gw.local_addr(), "holder", 44).expect("connect")];
    pump_quiescent(&mut c, Duration::from_millis(200));

    // The pump that detects the break starts the backoff and returns:
    // the click is sent while the client is reconnecting, and held with
    // the log until the resume is acknowledged.
    c[0].kill_socket();
    pump_until(&mut c, "the break to be detected", |cs| {
        cs[0].stats().stalls == 1
    });
    assert_eq!(c[0].stats().resumes, 0, "ack not read yet");
    c[0].send_messages(click_msgs());
    pump_until(&mut c, "the resume to be acknowledged", |cs| {
        cs[0].stats().resumes == 1
    });
    pump_quiescent(&mut c, Duration::from_millis(300));

    let st = c[0].stats();
    let snap = registry.snapshot();
    let injected = snap
        .counters
        .get("server.inputs_injected")
        .copied()
        .unwrap_or(0);
    assert_eq!(injected, 2, "the click's two events were applied once");
    let fb = c[0].proxy.server_frame().expect("framebuffer").clone();
    let ui = gw.shutdown();
    assert_eq!(&fb, ui.framebuffer(), "client converged with the appliance");

    // Deterministic, like the line above: diffed across two CI runs.
    println!(
        "RESUME-COUNTERS held_click inputs_injected={injected} retransmits={} resumes={}",
        st.retransmits, st.resumes,
    );
}

#[test]
fn restarted_client_reuses_its_name_without_hanging() {
    // Regression: a Hello for a known name used to be held back waiting
    // for a follow-up message that a freshly started client never sends
    // during connect, so a crashed-and-restarted process reusing its
    // name hung against the 10s handshake deadline and failed — forever,
    // since sessions are name-keyed. The hello_grace timeout must
    // resolve the held Hello as a replacement instead.
    let gw =
        Gateway::spawn(panel(), GatewayConfig::default(), Registry::new()).expect("gateway binds");
    let addr = gw.local_addr();

    let first = GatewayClient::connect(addr, "phoenix", 1).expect("first connect");
    first.kill_socket();
    drop(first);

    let started = Instant::now();
    let mut reborn =
        GatewayClient::connect(addr, "phoenix", 2).expect("restarted client must handshake");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "name reuse resolved by the grace timeout, not the handshake deadline"
    );

    // And the replacement session is actually served end to end.
    let before = reborn.stats().updates_applied;
    reborn.send_messages(click_msgs());
    let deadline = Instant::now() + Duration::from_secs(10);
    while reborn.stats().updates_applied == before {
        reborn.pump_once().expect("pump");
        assert!(
            Instant::now() < deadline,
            "replacement session never served"
        );
    }
    gw.shutdown();
}

#[test]
fn detached_sessions_expire_and_free_their_name() {
    let registry = Registry::new();
    let gw = Gateway::spawn(
        panel(),
        GatewayConfig {
            session_grace: Duration::from_millis(100),
            ..GatewayConfig::default()
        },
        registry.clone(),
    )
    .expect("gateway binds");
    let addr = gw.local_addr();

    let c = GatewayClient::connect(addr, "ghost", 9).expect("connect");
    c.kill_socket();
    drop(c);

    let expired = || {
        registry
            .snapshot()
            .counters
            .get("gateway.expired_sessions")
            .copied()
            .unwrap_or(0)
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while expired() == 0 {
        assert!(Instant::now() < deadline, "detached session never expired");
        std::thread::sleep(Duration::from_millis(10));
    }

    // The name is free again: a new client with it handshakes without
    // even waiting out the held-Hello grace.
    let _reborn = GatewayClient::connect(addr, "ghost", 10).expect("reconnect after expiry");
    gw.shutdown();
}

#[test]
fn churning_names_expire_and_the_gateway_keeps_serving() {
    let registry = Registry::new();
    let gw = Gateway::spawn(
        panel(),
        GatewayConfig {
            session_grace: Duration::from_millis(50),
            ..GatewayConfig::default()
        },
        registry.clone(),
    )
    .expect("gateway binds");
    let addr = gw.local_addr();

    // A hundred one-off clients, each gone without a goodbye.
    for i in 0..100 {
        let c = GatewayClient::connect(addr, format!("churn-{i}"), i).expect("connect");
        c.kill_socket();
    }
    let expired = || {
        registry
            .snapshot()
            .counters
            .get("gateway.expired_sessions")
            .copied()
            .unwrap_or(0)
    };
    let deadline = Instant::now() + Duration::from_secs(20);
    while expired() < 100 {
        assert!(Instant::now() < deadline, "only {} expired", expired());
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(expired(), 100);

    // A client arriving after the churn is served in full.
    let mut last = [GatewayClient::connect(addr, "survivor", 100).expect("connect")];
    let before = last[0].stats().updates_applied;
    last[0].send_messages(click_msgs());
    pump_until(&mut last, "the click's update", |cs| {
        cs[0].stats().updates_applied > before
    });
    pump_quiescent(&mut last, Duration::from_millis(200));
    let frame = last[0].proxy.server_frame().expect("framebuffer").clone();
    let ui = gw.shutdown();
    assert_eq!(&frame, ui.framebuffer(), "the survivor converged");
}

#[test]
fn second_hello_on_a_bound_connection_detaches_the_first_session() {
    use std::io::Write;
    use std::net::TcpStream;
    use uniint::protocol::message::{encode_client, PROTOCOL_VERSION};

    let registry = Registry::new();
    let gw = Gateway::spawn(
        panel(),
        GatewayConfig {
            session_grace: Duration::from_millis(100),
            ..GatewayConfig::default()
        },
        registry.clone(),
    )
    .expect("gateway binds");

    let mut sock = TcpStream::connect(gw.local_addr()).expect("connect");
    let hello = |name: &str| {
        encode_client(&ClientMessage::Hello {
            version: PROTOCOL_VERSION,
            name: name.into(),
        })
    };
    sock.write_all(&hello("twin-a")).expect("hello a");
    sock.write_all(&hello("twin-b")).expect("hello b");

    // Rebinding the connection must detach "twin-a" — with the socket
    // still open it expires alone, while "twin-b" stays attached. (The
    // old bug kept both attached, interleaving two seq streams onto one
    // socket.)
    let expired = || {
        registry
            .snapshot()
            .counters
            .get("gateway.expired_sessions")
            .copied()
            .unwrap_or(0)
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while expired() == 0 {
        assert!(Instant::now() < deadline, "displaced session never expired");
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(expired(), 1, "the bound session must not expire with it");
    gw.shutdown();
}

#[test]
fn oversized_client_frame_drops_the_connection_not_the_gateway() {
    use std::io::Write;
    use std::net::TcpStream;

    let registry = Registry::new();
    let gw = Gateway::spawn(
        panel(),
        GatewayConfig {
            max_frame: 4096,
            ..GatewayConfig::default()
        },
        registry.clone(),
    )
    .expect("gateway binds");
    let addr = gw.local_addr();

    // A hostile peer declares a 1 GiB frame. The gateway must refuse it
    // at the length prefix — before any allocation — and keep serving.
    let mut evil = TcpStream::connect(addr).expect("connect");
    evil.write_all(&(1u32 << 30).to_be_bytes()).expect("write");

    let mut c = GatewayClient::connect(addr, "legit", 7).expect("legit client connects");
    let deadline = Instant::now() + Duration::from_secs(10);
    while registry
        .snapshot()
        .counters
        .get("gateway.decode_errors")
        .copied()
        .unwrap_or(0)
        == 0
    {
        c.pump_once().expect("pump");
        assert!(Instant::now() < deadline, "oversized frame never rejected");
    }

    // The legitimate session still works end to end.
    c.send_messages(click_msgs());
    let before = c.stats().updates_applied;
    let deadline = Instant::now() + Duration::from_secs(10);
    while c.stats().updates_applied == before {
        c.pump_once().expect("pump");
        assert!(Instant::now() < deadline, "gateway stopped serving");
    }
    drop(evil);
    gw.shutdown();
}

#[test]
fn client_stalls_out_when_the_gateway_is_gone() {
    let gw =
        Gateway::spawn(panel(), GatewayConfig::default(), Registry::new()).expect("gateway binds");
    let mut c = GatewayClient::connect(gw.local_addr(), "orphan", 5).expect("connect");
    gw.shutdown();

    // The closed socket reads as EOF; every reconnect is then refused
    // until the backoff budget (10 attempts) is spent.
    let deadline = Instant::now() + Duration::from_secs(20);
    let err = loop {
        match c.pump_once() {
            Ok(_) => assert!(Instant::now() < deadline, "break never detected"),
            Err(e) => break e,
        }
    };
    match err {
        SessionError::Stalled { attempts } => assert_eq!(attempts, 10),
        other => panic!("expected Stalled, got {other}"),
    }
    let st = c.stats();
    assert_eq!(st.stalls, 1, "{st:?}");
    assert_eq!(st.backoff_attempts, 10, "{st:?}");
}

#[test]
fn a_client_stalling_out_does_not_hold_up_its_loop() {
    let doomed =
        Gateway::spawn(panel(), GatewayConfig::default(), Registry::new()).expect("gateway binds");
    let live =
        Gateway::spawn(panel(), GatewayConfig::default(), Registry::new()).expect("gateway binds");
    let mut clients = [
        GatewayClient::connect(doomed.local_addr(), "orphan", 5).expect("connect orphan"),
        GatewayClient::connect(live.local_addr(), "survivor", 6).expect("connect survivor"),
    ];
    pump_quiescent(&mut clients, Duration::from_millis(100));
    doomed.shutdown();

    // The survivor clicks whenever its last click has been answered,
    // from the loop that also runs the orphan's whole backoff.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut longest = Duration::ZERO;
    let mut answered = 0;
    let mut awaited = None;
    let err = loop {
        let applied = clients[1].stats().updates_applied;
        if awaited.is_none_or(|before| applied > before) {
            answered += u32::from(awaited.is_some());
            awaited = Some(applied);
            clients[1].send_messages(click_msgs());
        }
        let began = Instant::now();
        let [orphan, survivor] = <[_; 2]>::try_from(pump_clients(&mut clients)).expect("two");
        longest = longest.max(began.elapsed());
        survivor.expect("the survivor pumps");
        if let Err(e) = orphan {
            break e;
        }
        assert!(Instant::now() < deadline, "the orphan never stalled out");
    };
    match err {
        SessionError::Stalled { attempts } => assert_eq!(attempts, 10),
        other => panic!("expected Stalled, got {other}"),
    }
    let st = clients[0].stats();
    assert_eq!(st.stalls, 1, "{st:?}");
    assert_eq!(st.backoff_attempts, 10, "{st:?}");
    assert!(
        answered >= 10,
        "only {answered} clicks answered during the backoff"
    );
    // Each pump waits at most 10 ms. The bound leaves room for a loaded
    // machine's scheduling, and stays under the 500 ms backoff delays
    // that a pump sleeping through the orphan's recovery would take.
    assert!(
        longest < Duration::from_millis(400),
        "one pump took {longest:?}, past its 10 ms wait"
    );

    pump_quiescent(&mut clients[1..], Duration::from_millis(200));
    let frame = clients[1]
        .proxy
        .server_frame()
        .expect("framebuffer")
        .clone();
    let ui = live.shutdown();
    assert_eq!(&frame, ui.framebuffer(), "the survivor converged");
}

#[test]
fn many_clients_on_one_thread_converge_to_the_panel() {
    let gw =
        Gateway::spawn(panel(), GatewayConfig::default(), Registry::new()).expect("gateway binds");
    let addr = gw.local_addr();
    let mut clients: Vec<GatewayClient> = (0..256)
        .map(|i| GatewayClient::connect(addr, format!("crowd-{i}"), i).expect("connect"))
        .collect();

    // Eight of them click in turn; every click reaches all 256.
    for i in (0..256).step_by(32) {
        let before: Vec<u64> = clients.iter().map(|c| c.stats().updates_applied).collect();
        clients[i].send_messages(click_msgs());
        pump_until(&mut clients, "a click to reach all 256 clients", |cs| {
            cs.iter()
                .zip(&before)
                .all(|(c, b)| c.stats().updates_applied > *b)
        });
    }
    pump_quiescent(&mut clients, Duration::from_millis(300));
    let frames: Vec<_> = clients
        .iter()
        .map(|c| c.proxy.server_frame().expect("framebuffer").clone())
        .collect();
    let ui = gw.shutdown();
    for (i, f) in frames.iter().enumerate() {
        assert_eq!(f, ui.framebuffer(), "client {i} diverged from the panel");
    }
}

#[test]
fn flooding_clients_do_not_starve_a_passive_viewer() {
    use std::io::Write;
    use std::net::TcpStream;
    use uniint::protocol::message::{encode_client, PROTOCOL_VERSION};

    let gw =
        Gateway::spawn(panel(), GatewayConfig::default(), Registry::new()).expect("gateway binds");
    let addr = gw.local_addr();

    // The viewer drains its first update, so its next request is parked
    // at the gateway before the flood starts.
    let mut viewer = [GatewayClient::connect(addr, "passive", 1).expect("connect")];
    pump_quiescent(&mut viewer, Duration::from_millis(100));
    let before = viewer[0].stats().updates_applied;

    // Seven clients send a burst of clicks each and never read. The
    // state thread takes a while to work through the backlog, and it
    // must pump on the way.
    let burst: Vec<u8> = click_msgs()
        .iter()
        .map(encode_client)
        .cycle()
        .take(40_000)
        .flatten()
        .collect();
    let flooders: Vec<TcpStream> = (0..7)
        .map(|i| {
            let mut s = TcpStream::connect(addr).expect("connect flooder");
            let hello = ClientMessage::Hello {
                version: PROTOCOL_VERSION,
                name: format!("flooder-{i}"),
            };
            s.write_all(&encode_client(&hello)).expect("hello");
            s.write_all(&burst).expect("burst");
            s
        })
        .collect();

    let flooded = Instant::now();
    while viewer[0].stats().updates_applied == before {
        viewer[0].pump_once().expect("pump");
        assert!(
            flooded.elapsed() < Duration::from_secs(3),
            "the passive viewer starved behind the flood"
        );
    }
    drop(flooders);
    gw.shutdown();
}

#[test]
fn passive_viewer_keeps_up_with_many_clicking_clients() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let gw =
        Gateway::spawn(panel(), GatewayConfig::default(), Registry::new()).expect("gateway binds");
    let addr = gw.local_addr();
    let mut viewer = [GatewayClient::connect(addr, "passive", 0).expect("connect")];

    // Each clicker waits for its click's update before clicking again.
    let stop = Arc::new(AtomicBool::new(false));
    let clickers: Vec<_> = (1..=64)
        .map(|i| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut c =
                    GatewayClient::connect(addr, format!("clicker-{i}"), i).expect("connect");
                while !stop.load(Ordering::Relaxed) {
                    let before = c.stats().updates_applied;
                    c.send_messages(click_msgs());
                    let deadline = Instant::now() + Duration::from_secs(5);
                    while c.stats().updates_applied == before && Instant::now() < deadline {
                        c.pump_once().expect("pump");
                    }
                }
            })
        })
        .collect();

    // The viewer never clicks, yet gets updates in every window.
    for window in 0..4 {
        let before = viewer[0].stats().updates_applied;
        let start = Instant::now();
        while start.elapsed() < Duration::from_millis(500) {
            viewer[0].pump_once().expect("pump");
        }
        assert!(
            viewer[0].stats().updates_applied > before,
            "no update for the passive viewer in window {window}"
        );
    }
    stop.store(true, Ordering::Relaxed);
    for c in clickers {
        c.join().expect("clicker");
    }

    pump_quiescent(&mut viewer, Duration::from_millis(300));
    let frame = viewer[0].proxy.server_frame().expect("framebuffer").clone();
    let ui = gw.shutdown();
    assert_eq!(
        &frame,
        ui.framebuffer(),
        "the viewer ends equal to the panel"
    );
}

/// Two toggles: a click on the one without focus moves the focus on its
/// press and flips the toggle on its release, so both events repaint.
fn two_toggles() -> Ui {
    let mut ui = Ui::new(160, 120, Theme::classic(), "gateway-panel");
    ui.add(Toggle::new("Power", false), Rect::new(20, 20, 120, 28));
    ui.add(Toggle::new("Mute", false), Rect::new(20, 60, 120, 28));
    ui
}

#[test]
fn a_click_is_answered_with_one_update_per_viewer() {
    let registry = Registry::new();
    let gw = Gateway::spawn(two_toggles(), GatewayConfig::default(), registry.clone())
        .expect("gateway binds");
    let addr = gw.local_addr();
    let mut clients: Vec<GatewayClient> = (0..2)
        .map(|i| GatewayClient::connect(addr, format!("viewer-{i}"), i).expect("connect"))
        .collect();
    let mut model = two_toggles();
    model.render();
    let shows = |cs: &[GatewayClient], model: &Ui| {
        let want = model.framebuffer().read_rect(model.framebuffer().bounds());
        cs.iter().all(|c| {
            c.proxy
                .server_frame()
                .is_some_and(|fb| fb.read_rect(fb.bounds()) == want)
        })
    };
    pump_until(&mut clients, "the panel to reach both viewers", |cs| {
        shows(cs, &model)
    });
    let updates_sent = || {
        registry
            .snapshot()
            .counters
            .get("server.updates_sent")
            .copied()
            .unwrap_or(0)
    };

    // The first toggle starts with the focus, so the clicks alternate
    // starting with the second: every press moves the focus.
    for i in 0..50 {
        let y = [74, 34][i % 2];
        let before = updates_sent();
        let click = InputEvent::click(80, y);
        clients[i % 2].send_messages(click.into_iter().map(ClientMessage::Input).collect());
        for ev in click {
            model.dispatch(ev);
        }
        model.render();
        pump_until(&mut clients, "the click to reach both viewers", |cs| {
            shows(cs, &model)
        });
        // The press and the release arrive in one write, so the gateway
        // handles both before it pumps: one update for each viewer.
        assert_eq!(updates_sent() - before, 2, "updates sent for click {i}");
    }
    gw.shutdown();
}

#[test]
fn recorded_frames_are_the_bytes_on_the_wire() {
    use std::io::{ErrorKind, Read, Write};
    use std::net::TcpStream;
    use uniint::protocol::message::{encode_client, FrameReader, ServerMessage, PROTOCOL_VERSION};
    use uniint::raster::pixel::PixelFormat;
    use uniint::trace::prelude::{Direction, Recorder, TraceHeader, TraceReader};

    let recorder = Recorder::new(TraceHeader {
        seed: 0,
        protocol_version: PROTOCOL_VERSION,
        pixel_format: PixelFormat::Rgb888,
    });
    let gw = Gateway::spawn(
        panel(),
        GatewayConfig {
            recorder: Some(recorder.tap()),
            ..GatewayConfig::default()
        },
        Registry::new(),
    )
    .expect("gateway binds");

    let mut sock = TcpStream::connect(gw.local_addr()).expect("connect");
    sock.set_read_timeout(Some(Duration::from_millis(10)))
        .expect("read timeout");
    let mut sent: Vec<Vec<u8>> = Vec::new();
    let mut received: Vec<u8> = Vec::new();
    let mut frames = FrameReader::new();
    let mut updates = 0;
    let mut buf = [0u8; 4096];
    let full = Rect::new(0, 0, 160, 120);

    // Each step ends with an update request, and waits for its update:
    // the gateway has then handled every message sent so far.
    let steps = [
        vec![
            ClientMessage::Hello {
                version: PROTOCOL_VERSION,
                name: "recorded".into(),
            },
            ClientMessage::UpdateRequest {
                incremental: false,
                rect: full,
            },
        ],
        click_msgs(),
        click_msgs(),
    ];
    for (i, mut step) in steps.into_iter().enumerate() {
        if i > 0 {
            step.push(ClientMessage::UpdateRequest {
                incremental: true,
                rect: full,
            });
        }
        for m in &step {
            let frame = encode_client(m);
            sock.write_all(&frame).expect("send");
            sent.push(frame[4..].to_vec());
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while updates <= i {
            assert!(Instant::now() < deadline, "no update for step {i}");
            match sock.read(&mut buf) {
                Ok(0) => panic!("gateway closed the socket"),
                Ok(n) => {
                    received.extend_from_slice(&buf[..n]);
                    frames.feed(&buf[..n]);
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) => panic!("read: {e}"),
            }
            while let Some(body) = frames.next_frame().expect("frame") {
                let msg = ServerMessage::decode_body(&mut body.as_slice()).expect("decode");
                updates += usize::from(matches!(msg, ServerMessage::Update { .. }));
            }
        }
    }

    // Shutdown closes the connection: the gateway writes the bytes it
    // still holds, then shuts the socket, so reading to EOF sees every
    // byte.
    gw.shutdown();
    sock.set_read_timeout(None).expect("blocking reads");
    sock.read_to_end(&mut received).expect("read to EOF");

    let trace = TraceReader::parse(recorder.finish().expect("trace")).expect("parse");
    let mut to_client = Vec::new();
    let mut to_server = Vec::new();
    for rec in trace.records() {
        let rec = rec.expect("record");
        assert_eq!(rec.channel, 0, "one connection");
        match rec.dir {
            Direction::ToClient => {
                to_client.extend_from_slice(&(rec.payload.len() as u32).to_be_bytes());
                to_client.extend_from_slice(&rec.payload);
            }
            Direction::ToServer => to_server.push(rec.payload),
        }
    }
    assert!(updates >= 3, "three updates, {updates} seen");
    assert_eq!(to_client, received, "recorded frames are the bytes sent");
    assert_eq!(to_server, sent, "recorded bodies are the bytes received");
}

#[test]
fn a_client_that_stops_reading_is_dropped_and_shutdown_still_returns() {
    use std::io::{ErrorKind, Read, Write};
    use std::net::TcpStream;
    use uniint::protocol::message::{encode_client, PROTOCOL_VERSION};

    let registry = Registry::new();
    let gw =
        Gateway::spawn(panel(), GatewayConfig::default(), registry.clone()).expect("gateway binds");
    let dropped = || {
        registry
            .snapshot()
            .counters
            .get("gateway.dropped_connections")
            .copied()
            .unwrap_or(0)
    };

    // Full refreshes, asked for and never read, fill the socket and then
    // the connection's queue until the gateway gives up on it.
    let mut sock = TcpStream::connect(gw.local_addr()).expect("connect");
    let hello = ClientMessage::Hello {
        version: PROTOCOL_VERSION,
        name: "stalled".into(),
    };
    sock.write_all(&encode_client(&hello)).expect("hello");
    let refresh = encode_client(&ClientMessage::UpdateRequest {
        incremental: false,
        rect: Rect::new(0, 0, 160, 120),
    });
    let deadline = Instant::now() + Duration::from_secs(20);
    while dropped() == 0 {
        assert!(
            Instant::now() < deadline,
            "the stalled client was never dropped"
        );
        if sock.write_all(&refresh).is_err() {
            break;
        }
    }
    assert_eq!(dropped(), 1);

    // The client still reads nothing, yet no writer stays blocked on it.
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        gw.shutdown();
        let _ = done.send(());
    });
    assert!(
        finished.recv_timeout(Duration::from_secs(10)).is_ok(),
        "shutdown hung on the dropped connection"
    );

    // The gateway shut the socket: the client reads what was in flight,
    // then the end of the stream.
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        match sock.read(&mut buf) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                assert!(
                    !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
                    "the socket was never closed"
                );
                break;
            }
        }
    }
}

/// Connects a raw client that asks for full refreshes and never reads,
/// until the socket buffers are full: the gateway then holds pending
/// bytes the socket will not take, fewer than its bound, so the
/// connection is not dropped.
fn block_the_writer(gw: &Gateway, registry: &Registry) -> std::net::TcpStream {
    use std::io::Write;
    use uniint::protocol::message::{encode_client, PROTOCOL_VERSION};

    let mut sock = std::net::TcpStream::connect(gw.local_addr()).expect("connect");
    let hello = ClientMessage::Hello {
        version: PROTOCOL_VERSION,
        name: "stopped-reading".into(),
    };
    sock.write_all(&encode_client(&hello)).expect("hello");
    stall(&mut sock, registry);
    sock
}

/// Asks for full refreshes on `sock`, reading nothing, until the
/// gateway's writes stop with a backlog left: `bytes_out` has not moved
/// for five looks 20 ms apart, and `queue_bytes` then settles above 0.
/// A gateway thread that has not run yet also leaves `bytes_out` still,
/// so until the backlog shows, the requests keep coming.
fn stall(sock: &mut std::net::TcpStream, registry: &Registry) {
    use std::io::Write;
    use uniint::protocol::message::encode_client;

    let counter = |name: &str| registry.snapshot().counters.get(name).copied().unwrap_or(0);
    let refresh = encode_client(&ClientMessage::UpdateRequest {
        incremental: false,
        rect: Rect::new(0, 0, 160, 120),
    });
    let deadline = Instant::now() + Duration::from_secs(20);
    let (mut sent, mut still) = (0, 0);
    loop {
        assert!(Instant::now() < deadline, "no backlog built up");
        for _ in 0..20 {
            sock.write_all(&refresh).expect("request");
        }
        std::thread::sleep(Duration::from_millis(20));
        let out = counter("gateway.bytes_out");
        if out != sent {
            (sent, still) = (out, 0);
        } else if still < 4 {
            still += 1;
        } else if settled_queue_bytes(registry) > 0 {
            break;
        }
    }
    assert_eq!(counter("gateway.dropped_connections"), 0);
}

/// The `gateway.queue_bytes` gauge once it has held one value for five
/// looks 20 ms apart.
fn settled_queue_bytes(registry: &Registry) -> i64 {
    let gauge = || {
        registry
            .snapshot()
            .gauges
            .get("gateway.queue_bytes")
            .copied()
            .unwrap_or(0)
    };
    let deadline = Instant::now() + Duration::from_secs(20);
    let (mut last, mut still) = (gauge(), 0);
    while still < 5 {
        assert!(Instant::now() < deadline, "the queue gauge never settled");
        std::thread::sleep(Duration::from_millis(20));
        let now = gauge();
        if now == last {
            still += 1;
        } else {
            (last, still) = (now, 0);
        }
    }
    last
}

#[test]
fn the_queue_gauge_sums_every_backlog_and_drops_to_zero() {
    use std::io::{ErrorKind, Read};

    let registry = Registry::new();
    let gw =
        Gateway::spawn(panel(), GatewayConfig::default(), registry.clone()).expect("gateway binds");
    let bytes_out = || {
        registry
            .snapshot()
            .counters
            .get("gateway.bytes_out")
            .copied()
            .unwrap_or(0)
    };
    // A viewer that reads everything holds nothing back, so the gauge is
    // the backlog of the one connection that stopped reading, even when
    // the viewer was the last connection written to.
    let mut viewer = GatewayClient::connect(gw.local_addr(), "viewer", 1).expect("connect");
    let mut sock = block_the_writer(&gw, &registry);
    let updates = viewer.stats().updates_applied;
    viewer.send_messages(click_msgs());
    pump_until(
        std::slice::from_mut(&mut viewer),
        "the click's update",
        |c| c[0].stats().updates_applied > updates,
    );
    pump_quiescent(
        std::slice::from_mut(&mut viewer),
        Duration::from_millis(100),
    );
    let backlog = settled_queue_bytes(&registry);
    assert!(
        backlog > 0,
        "a client that stopped reading leaves a backlog"
    );

    // Reading drains it: the gateway then writes exactly the backlog,
    // and the gauge reads 0.
    let written_before = bytes_out();
    sock.set_read_timeout(Some(Duration::from_millis(20)))
        .expect("read timeout");
    let mut buf = vec![0u8; 64 * 1024];
    let deadline = Instant::now() + Duration::from_secs(20);
    while bytes_out() - written_before < backlog as u64 {
        assert!(Instant::now() < deadline, "the backlog was never written");
        match sock.read(&mut buf) {
            Ok(n) => assert!(n > 0, "the gateway closed the connection"),
            Err(e) => assert!(
                matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
                "{e}"
            ),
        }
    }
    assert_eq!(settled_queue_bytes(&registry), 0);
    assert_eq!(bytes_out() - written_before, backlog as u64);

    // A connection closed while it holds a backlog takes the backlog
    // with it.
    stall(&mut sock, &registry);
    assert!(settled_queue_bytes(&registry) > 0);
    drop(sock);
    let deadline = Instant::now() + Duration::from_secs(10);
    while settled_queue_bytes(&registry) != 0 {
        assert!(
            Instant::now() < deadline,
            "a closed connection's backlog stayed counted"
        );
    }
    drop(viewer);
    gw.shutdown();
}

/// Shuts `gw` down on another thread and fails unless that returns
/// within five seconds: a closing connection whose client stopped
/// reading gets `SHUTDOWN_FLUSH` (one second) to write what it holds.
fn assert_shutdown_returns(gw: Gateway) {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        gw.shutdown();
        let _ = done.send(());
    });
    assert!(
        finished.recv_timeout(Duration::from_secs(5)).is_ok(),
        "shutdown hung on pending bytes for a client that stopped reading"
    );
}

#[test]
fn shutdown_returns_while_a_writer_is_blocked_on_a_client_that_stopped_reading() {
    let registry = Registry::new();
    let gw =
        Gateway::spawn(panel(), GatewayConfig::default(), registry.clone()).expect("gateway binds");
    let sock = block_the_writer(&gw, &registry);
    assert_shutdown_returns(gw);
    drop(sock);
}

/// A connection closed for breaking the protocol while it holds pending
/// bytes its client never reads does not hold up shutdown.
#[test]
fn shutdown_returns_when_a_blocked_writer_outlives_its_reader() {
    use std::io::Write;

    let registry = Registry::new();
    let gw =
        Gateway::spawn(panel(), GatewayConfig::default(), registry.clone()).expect("gateway binds");
    let mut sock = block_the_writer(&gw, &registry);
    // A frame with an unknown message tag closes the connection: it is
    // no longer read, and its pending bytes stay unwritten.
    sock.write_all(&[0, 0, 0, 1, 0xee]).expect("bad frame");
    let decode_errors = || {
        registry
            .snapshot()
            .counters
            .get("gateway.decode_errors")
            .copied()
            .unwrap_or(0)
    };
    let deadline = Instant::now() + Duration::from_secs(20);
    while decode_errors() == 0 {
        assert!(Instant::now() < deadline, "the bad frame was never read");
        std::thread::sleep(Duration::from_millis(5));
    }
    // A few ticks for the gateway to start closing the connection.
    std::thread::sleep(Duration::from_millis(100));
    assert_shutdown_returns(gw);
    drop(sock);
}

#[test]
fn a_displaced_client_that_stopped_reading_is_closed_within_the_flush() {
    use std::io::Write;
    use std::net::TcpStream;
    use uniint::protocol::message::{encode_client, PROTOCOL_VERSION};

    let registry = Registry::new();
    let gw =
        Gateway::spawn(panel(), GatewayConfig::default(), registry.clone()).expect("gateway binds");
    let mut stalled = block_the_writer(&gw, &registry);

    // The same name comes back on a new socket and resumes, which
    // displaces the socket that stopped reading.
    let mut fresh = TcpStream::connect(gw.local_addr()).expect("connect");
    let hello = ClientMessage::Hello {
        version: PROTOCOL_VERSION,
        name: "stopped-reading".into(),
    };
    for m in [hello, ClientMessage::Resume { last_update_seq: 0 }] {
        fresh.write_all(&encode_client(&m)).expect("send");
    }
    let reconnects = || {
        registry
            .snapshot()
            .counters
            .get("gateway.reconnects")
            .copied()
            .unwrap_or(0)
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while reconnects() == 0 {
        assert!(Instant::now() < deadline, "the resume was never adopted");
        std::thread::sleep(Duration::from_millis(5));
    }
    let displaced = Instant::now();

    // The displaced client still reads nothing, yet the gateway closes
    // its socket once the one-second flush runs out. Bytes sent to a
    // closed socket are answered with a reset, so a later send fails.
    let probe = encode_client(&ClientMessage::UpdateRequest {
        incremental: true,
        rect: Rect::new(0, 0, 160, 120),
    });
    while stalled.write_all(&probe).is_ok() {
        assert!(
            displaced.elapsed() < Duration::from_secs(3),
            "the gateway kept the displaced socket open"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(fresh);
    gw.shutdown();
}

#[test]
fn a_pump_sends_the_renegotiation_of_an_output_attached_after_init() {
    use uniint::devices::prelude::ScreenPlugin;

    let gw =
        Gateway::spawn(panel(), GatewayConfig::default(), Registry::new()).expect("gateway binds");
    let mut c = GatewayClient::connect(gw.local_addr(), "late-screen", 1).expect("connect");
    let mut model = panel();
    model.render();
    let (px, fmt) = (model.framebuffer().pixels(), PixelFormat::Rgb444);
    let reduced: Vec<_> = px.iter().map(|&p| fmt.reduce(p)).collect();
    assert_ne!(reduced, px, "Rgb444 loses colours");
    // Once the first update is in, the server owes nothing: only the
    // pump can send what the switch queues.
    let solo = std::slice::from_mut(&mut c);
    pump_until(solo, "the first update", |c| {
        c[0].stats().updates_applied > 0
    });
    solo[0].proxy.attach_output(Box::new(ScreenPlugin::pda()));
    pump_until(solo, "the PDA's format", |c| {
        c[0].proxy.server_frame().map(|fb| fb.pixels()) == Some(&reduced[..])
    });
    gw.shutdown();
}

#[test]
fn a_click_that_changes_no_pixel_is_answered_with_an_update_of_no_rects() {
    use std::sync::Arc;
    use uniint::devices::prelude::ScreenPlugin;
    use uniint::wsys::prelude::Button;

    let registry = Registry::new();
    let mut ui = Ui::new(160, 120, Theme::classic(), "gateway-panel");
    ui.add(Button::new("Power"), Rect::new(20, 20, 120, 28));
    let gw = Gateway::spawn(ui, GatewayConfig::default(), registry.clone()).expect("gateway binds");
    let mut c = GatewayClient::connect(gw.local_addr(), "pda", 1).expect("connect");
    c.proxy.attach_output(Box::new(ScreenPlugin::pda()));
    let counter = |name: &str| registry.snapshot().counters.get(name).copied().unwrap_or(0);
    let solo = std::slice::from_mut(&mut c);
    let click = |clients: &mut [GatewayClient]| {
        let before = clients[0].stats().updates_applied;
        clients[0].send_messages(click_msgs());
        pump_until(clients, "the click's update", |c| {
            c[0].stats().updates_applied > before
        });
        pump_quiescent(clients, Duration::from_millis(100));
    };
    // The panel in the PDA's format, then a click that gives the button
    // the focus.
    pump_until(solo, "the first frame", |c| c[0].last_frame().is_some());
    pump_quiescent(solo, Duration::from_millis(100));
    click(solo);
    let (seq, rects, applied) = (
        solo[0].proxy.last_update_seq(),
        counter("server.rects_sent"),
        solo[0].stats().updates_applied,
    );
    let shown = solo[0].take_frame().expect("an adapted frame");

    // The button repaints pressed and released, as it was.
    click(solo);
    assert_eq!(solo[0].stats().updates_applied, applied + 1);
    assert_eq!(solo[0].proxy.last_update_seq(), seq + 1);
    assert_eq!(counter("server.rects_sent"), rects, "no rect for no change");
    let again = solo[0].take_frame().expect("the update is adapted too");
    assert!(
        Arc::ptr_eq(&shown.frame, &again.frame),
        "the same device frame"
    );
    assert!(again.changed.is_empty());
    gw.shutdown();
}
