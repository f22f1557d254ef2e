//! Flight recorder: capture a session, replay it bit-for-bit, verify.
//!
//! Run with `cargo run --example flight_recorder`.
//!
//! A phone keypad drives an appliance panel over flaky 802.11b while
//! the screen hops from the phone's LCD to a PDA. Every message the
//! server consumes or produces is captured to a trace; the trace is
//! then replayed twice onto fresh endpoints (byte-identical digests
//! and telemetry both times) and fully verified — a fresh server
//! regenerates the whole recorded conversation byte-for-byte.
//!
//! Everything below is seeded and virtual-clocked, so this program's
//! output is byte-identical on every run — the CI record/replay job
//! literally runs it twice and diffs the stdout. The trace itself is
//! left at `target/flight_recorder.trace` for `trace_dump`.

use uniint::prelude::*;
use uniint::protocol::message::PROTOCOL_VERSION;

const SEED: u64 = 0x5EED;

fn panel() -> Ui {
    let mut ui = Ui::new(160, 120, Theme::classic(), "recorded-panel");
    ui.add(Toggle::new("Power", false), Rect::new(20, 14, 120, 24));
    ui.add(Toggle::new("Mute", false), Rect::new(20, 46, 120, 24));
    ui.add(Toggle::new("Eco", false), Rect::new(20, 78, 120, 24));
    ui
}

fn main() {
    // --- Record -----------------------------------------------------
    let rec = Recorder::new(TraceHeader {
        seed: SEED,
        protocol_version: PROTOCOL_VERSION,
        pixel_format: PixelFormat::Rgb888,
    });
    let mut ui = panel();
    let mut s =
        SimSession::connect_recorded(&mut ui, LinkProfile::wifi80211b(), SEED, Some(rec.tap()))
            .expect("connect");
    s.proxy.attach_input(Box::new(KeypadPlugin::new()));
    s.proxy.attach_output(Box::new(ScreenPlugin::phone_lcd()));
    s.settle(&mut ui).expect("renegotiation");

    for ev in [
        DeviceEvent::KeypadSelect,
        DeviceEvent::KeypadNav(Nav::Down),
        DeviceEvent::KeypadSelect,
    ] {
        s.device_input(&mut ui, &ev).expect("input");
    }
    // Chaos mid-session: a 300 ms outage the session recovers from...
    let t0 = s.now_us();
    s.sim.set_link_faults(
        s.proxy_endpoint(),
        FaultSchedule::new().flap(t0, t0 + 300_000),
    );
    s.device_input(&mut ui, &DeviceEvent::KeypadNav(Nav::Down))
        .expect("input");
    s.device_input(&mut ui, &DeviceEvent::KeypadSelect)
        .expect("input");
    // ...and a device switch: the PDA takes the screen.
    s.proxy.attach_output(Box::new(ScreenPlugin::pda()));
    s.settle(&mut ui).expect("renegotiation");
    s.device_input(&mut ui, &DeviceEvent::KeypadSelect)
        .expect("input");

    let live_digest = s.proxy.server_frame().expect("framebuffer").digest();
    let bytes = rec.finish().expect("trace");
    let path = "target/flight_recorder.trace";
    std::fs::write(path, &bytes).expect("write trace");
    println!(
        "recorded {} bytes to {path} (inspect with `cargo run -p uniint-trace --bin trace_dump -- {path}`)",
        bytes.len()
    );

    // --- Replay, twice ----------------------------------------------
    let reader = TraceReader::parse(bytes).expect("trace parses");
    println!(
        "trace: {} records ({} c->s, {} s->c), seed {:#x}, {} dropped chunks",
        reader.record_count(),
        reader
            .records()
            .filter(|r| matches!(r, Ok(r) if r.dir == Direction::ToServer))
            .count(),
        reader
            .records()
            .filter(|r| matches!(r, Ok(r) if r.dir == Direction::ToClient))
            .count(),
        reader.header().seed,
        reader.dropped_chunks(),
    );

    let a = Replayer::new().replay(&reader).expect("replay");
    let b = Replayer::new().replay(&reader).expect("replay");
    assert_eq!(a.diff(&b), None, "two replays are byte-identical");
    println!(
        "replayed {} records / {} updates over {:.1} ms virtual time, twice: identical",
        a.records,
        a.updates_applied,
        a.virtual_elapsed_us as f64 / 1000.0
    );
    for (record, digest) in &a.digests {
        println!("  update at record {record:>3}: framebuffer digest {digest:016x}");
    }
    assert_eq!(a.final_digest(), Some(live_digest));
    println!("final digest matches the live session: {live_digest:016x}");

    // --- Verify ------------------------------------------------------
    // A fresh server over a fresh copy of the initial panel must
    // regenerate every recorded server message byte-for-byte.
    let mut fresh = panel();
    match Replayer::new().verify(&reader, &mut fresh) {
        Ok(outcome) => println!(
            "verification: {} records regenerated with zero divergence",
            outcome.records
        ),
        Err(e) => panic!("verification failed: {e}"),
    }

    println!("\nreplay telemetry:\n{}", a.snapshot.to_json());
}
