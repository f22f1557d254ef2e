//! A live, threaded deployment: the appliance application + UniInt
//! server run on their own thread (the "appliance side"), the UniInt
//! proxy runs on the main thread (the "hallway proxy box"), connected by
//! a real in-process duplex byte pipe with full protocol serialization.
//!
//! Run with `cargo run --example threaded`.

use std::time::Duration;
use uniint::prelude::*;
use uniint::protocol::message::{encode_client, encode_server, FrameReader};

fn main() {
    let (proxy_pipe, server_pipe) = duplex();

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
        let mut server = MultiServer::new();
        let client = server.accept(app.ui());
        let mut reader = FrameReader::new();
        let mut commands = 0u32;

        loop {
            match server_pipe.recv_timeout(Duration::from_millis(50)) {
                Ok(bytes) => reader.feed(&bytes),
                Err(PipeError::Empty) => {}
                Err(PipeError::Disconnected) => break,
            }
            while let Ok(Some(frame)) = reader.next_frame() {
                let Ok(msg) = ClientMessage::decode_body(&mut frame.as_slice()) else {
                    continue;
                };
                for reply in server.handle_message(app.ui_mut(), client, msg) {
                    server_pipe.send(encode_server(&reply));
                }
            }
            let report = app.process(&mut net);
            commands += report.commands_sent;
            let mut batches = Vec::new();
            if report.recomposed {
                batches = server.notify_resize_all(app.ui_mut());
            }
            // Answers the requests parked above and flushes app damage.
            batches.extend(server.pump_all(app.ui_mut()));
            for reply in batches.into_iter().flat_map(|(_, msgs)| msgs) {
                server_pipe.send(encode_server(&reply));
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
    let mut reader = FrameReader::new();
    for m in proxy.connect() {
        proxy_pipe.send(encode_client(&m));
    }
    // Attach the phone LCD output once connected; then press keys.
    let mut frames = 0u32;
    let mut sent_output = false;
    let presses = ['5', '8', '5', '8', '5']; // select, down, select...
    let mut press_idx = 0;
    let deadline = std::time::Instant::now() + Duration::from_secs(10);

    while std::time::Instant::now() < deadline {
        match proxy_pipe.recv_timeout(Duration::from_millis(100)) {
            Ok(bytes) => reader.feed(&bytes),
            Err(PipeError::Empty) => {}
            Err(PipeError::Disconnected) => break,
        }
        let mut got_frame = false;
        while let Ok(Some(frame)) = reader.next_frame() {
            let Ok(msg) = ServerMessage::decode_body(&mut frame.as_slice()) else {
                continue;
            };
            match proxy.handle_server(&msg) {
                Ok(out) => {
                    if out.frame.is_some() {
                        frames += 1;
                        got_frame = true;
                    }
                    for m in out.messages {
                        proxy_pipe.send(encode_client(&m));
                    }
                }
                Err(e) => {
                    eprintln!("decode error ({e}), recovering");
                    for m in proxy.recover() {
                        proxy_pipe.send(encode_client(&m));
                    }
                }
            }
        }
        if proxy.is_connected() && !sent_output {
            sent_output = true;
            for m in proxy.attach_output(Box::new(ScreenPlugin::phone_lcd())) {
                proxy_pipe.send(encode_client(&m));
            }
        }
        // After each fresh frame, press the next key.
        if got_frame && press_idx < presses.len() {
            if let Some(ev) = SimPhone::press(presses[press_idx]) {
                press_idx += 1;
                for m in proxy.device_input(&ev) {
                    proxy_pipe.send(encode_client(&m));
                }
            }
        }
        if press_idx >= presses.len() && frames > press_idx as u32 {
            break;
        }
    }

    drop(proxy_pipe); // disconnect → server thread exits if still looping
    let (commands, tuner_state) = server_thread.join().expect("server thread");
    println!(
        "proxy: {frames} adapted frames, {} keypad presses sent",
        press_idx
    );
    println!("server: {commands} appliance commands executed");
    println!("tuner final state: {tuner_state:?}");
    assert!(commands >= 1, "at least the first select landed");
    println!("threaded live session OK");
}
