//! A live, threaded deployment: the appliance application + UniInt
//! server run on their own thread (the "appliance side", a
//! `SessionHost` on the wall clock), the UniInt proxy runs on the main
//! thread (the "hallway proxy box"), connected by two `std::sync::mpsc`
//! channels that carry encoded protocol frames.
//!
//! Run with `cargo run --example threaded`.

use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::{Duration, Instant};
use uniint::core::host::{Output, SessionHost};
use uniint::core::resume::{BackoffPolicy, ResumeMachine};
use uniint::prelude::*;
use uniint::protocol::message::{encode_client, encode_server, FrameReader};
use uniint::telemetry::registry::Registry;

fn main() {
    let (to_server, server_rx) = channel::<Vec<u8>>();
    let (to_proxy, proxy_rx) = channel::<Vec<u8>>();

    // ---------------------------------------------------- server thread
    let server_thread = std::thread::spawn(move || {
        let mut net = HomeNetwork::new();
        net.attach(
            DeviceSpec::new("TV", "living-room")
                .with_fcm(TunerFcm::new("TV Tuner", 12))
                .with_fcm(DisplayFcm::new("TV Display", 2)),
        );
        net.attach(DeviceSpec::new("Amp", "living-room").with_fcm(AmplifierFcm::new("Amp")));
        let mut app = ControlPanelApp::new(&mut net, None, Theme::classic());
        // The one connection's session is never retired.
        let mut host = SessionHost::new(MultiServer::new(), &Registry::new(), u64::MAX);
        let conn = host.open();
        let started = Instant::now();
        let mut reader = FrameReader::new();
        let mut commands = 0u32;

        loop {
            match server_rx.recv_timeout(Duration::from_millis(50)) {
                Ok(bytes) => reader.feed(&bytes),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            let now_us = started.elapsed().as_micros() as u64;
            let mut out = Vec::new();
            while let Ok(Some(frame)) = reader.next_frame() {
                let Ok(msg) = ClientMessage::decode_body(&mut frame.as_slice()) else {
                    continue;
                };
                out.extend(host.receive(app.ui_mut(), conn, msg, now_us));
            }
            commands += app.process(&mut net).commands_sent;
            // Answers the requests parked above, flushes app damage and
            // announces a recomposed panel's new size.
            out.extend(host.tick(app.ui_mut(), now_us));
            for o in out {
                // A send fails only once the proxy is gone; the next
                // receive then ends the loop.
                if let Output::Send(_, msgs) = o {
                    for reply in &msgs {
                        let _ = to_proxy.send(encode_server(reply));
                    }
                }
            }
            if commands >= 3 {
                // Demo complete: report and exit.
                let tuner = net.find_fcms(&Query::new().class(FcmClass::Tuner))[0];
                return (commands, net.status(tuner).unwrap());
            }
        }
        (commands, Vec::new())
    });

    // ------------------------------------------------------ proxy side
    let mut proxy = UniIntProxy::new("threaded-proxy");
    proxy.attach_input(Box::new(KeypadPlugin::new()));
    // The proxy-side driver every transport shares. A channel never
    // breaks, so its reconnect schedule is never used.
    let never = BackoffPolicy {
        base_us: 0,
        cap_us: 0,
        max_attempts: 0,
    };
    let mut resume = ResumeMachine::new(never, 1);
    let mut reader = FrameReader::new();
    // A send fails only once the server thread has finished its demo.
    let mut write = |m: &ClientMessage| {
        let _ = to_server.send(encode_client(m));
    };
    resume.send(proxy.connect(), &mut write);
    // Attach the phone LCD output once connected; then press keys.
    let mut sent_output = false;
    let presses = ['5', '8', '5', '8', '5']; // select, down, select...
    let mut press_idx = 0;
    let deadline = Instant::now() + Duration::from_secs(10);

    while Instant::now() < deadline {
        match proxy_rx.recv_timeout(Duration::from_millis(100)) {
            Ok(bytes) => reader.feed(&bytes),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        let before = resume.frames_delivered();
        if let Err(e) = resume.receive_frames(&mut proxy, &mut reader, &mut write) {
            eprintln!("decode error ({e}), recovering");
            proxy.recover();
        }
        if proxy.is_connected() && !sent_output {
            sent_output = true;
            proxy.attach_output(Box::new(ScreenPlugin::phone_lcd()));
        }
        // After each fresh frame, press the next key.
        if resume.frames_delivered() > before && press_idx < presses.len() {
            if let Some(ev) = SimPhone::press(presses[press_idx]) {
                press_idx += 1;
                resume.send(proxy.device_input(&ev), &mut write);
            }
        }
        // The renegotiation or the refresh queued above.
        resume.flush(&mut proxy, &mut write);
        if press_idx >= presses.len() && resume.frames_delivered() > press_idx as u64 {
            break;
        }
    }

    drop(to_server); // disconnect → server thread exits if still looping
    let (commands, tuner_state) = server_thread.join().expect("server thread");
    println!(
        "proxy: {} adapted frames, {press_idx} keypad presses sent",
        resume.frames_delivered()
    );
    println!("server: {commands} appliance commands executed");
    println!("tuner final state: {tuner_state:?}");
    assert!(commands >= 1, "at least the first select landed");
    println!("threaded live session OK");
}
