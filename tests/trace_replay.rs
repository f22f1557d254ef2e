//! Flight-recorder acceptance: a seeded multi-device session is
//! captured to a trace, and the trace replays deterministically —
//! byte-identical digests and telemetry across replays, a final
//! framebuffer digest equal to the live run's, a clean full
//! verification against a fresh server, and a divergence report that
//! pinpoints the first mutated record when the trace is tampered with.

use uniint::prelude::*;
use uniint::protocol::message::{ClientMessage, PROTOCOL_VERSION};
use uniint::trace::format::TraceWriter;

const SEED: u64 = 0xF11_6487;

/// The appliance panel under test: three switches driven by keypad
/// focus traversal, so every UI mutation travels through the protocol
/// (the precondition for full verification).
fn scenario_ui() -> Ui {
    let mut ui = Ui::new(160, 120, Theme::classic(), "trace-panel");
    ui.add(Toggle::new("Power", false), Rect::new(20, 14, 120, 24));
    ui.add(Toggle::new("Mute", false), Rect::new(20, 46, 120, 24));
    ui.add(Toggle::new("Eco", false), Rect::new(20, 78, 120, 24));
    ui
}

/// Records the scenario: a phone keypad drives the panel, the output
/// device switches mid-run (phone LCD, then PDA — two `SetPixelFormat`
/// renegotiations), and a 300 ms link flap forces a resume with
/// retransmissions before the session settles. Returns the finished
/// trace and the live run's final reconstructed-framebuffer digest.
fn record_scenario(seed: u64, config: TraceConfig) -> (Vec<u8>, u64) {
    let rec = Recorder::with_config(
        TraceHeader {
            seed,
            protocol_version: PROTOCOL_VERSION,
            pixel_format: PixelFormat::Rgb888,
        },
        config,
    );
    let mut ui = scenario_ui();
    let mut s =
        SimSession::connect_recorded(&mut ui, LinkProfile::wifi80211b(), seed, Some(rec.tap()))
            .expect("session connects");
    s.proxy.attach_input(Box::new(KeypadPlugin::new()));

    // The phone takes over the screen: renegotiation on the wire.
    s.proxy.attach_output(Box::new(ScreenPlugin::phone_lcd()));
    s.settle(&mut ui).expect("renegotiation settles");

    // Toggle Power, move focus down, toggle Mute.
    for ev in [
        DeviceEvent::KeypadSelect,
        DeviceEvent::KeypadNav(Nav::Down),
        DeviceEvent::KeypadSelect,
    ] {
        s.device_input(&mut ui, &ev).expect("input settles");
    }

    // A flap opens right as the user keeps interacting: the session
    // stalls, backs off, resumes and retransmits the lost input.
    let t0 = s.now_us();
    s.sim.set_link_faults(
        s.proxy_endpoint(),
        FaultSchedule::new().flap(t0, t0 + 300_000),
    );
    s.device_input(&mut ui, &DeviceEvent::KeypadNav(Nav::Down))
        .expect("input survives the flap");
    s.device_input(&mut ui, &DeviceEvent::KeypadSelect)
        .expect("input settles");

    // Hand the screen to a PDA: a second renegotiation, then one more
    // toggle on the new device.
    s.proxy.attach_output(Box::new(ScreenPlugin::pda()));
    s.settle(&mut ui).expect("renegotiation settles");
    s.device_input(&mut ui, &DeviceEvent::KeypadSelect)
        .expect("input settles");

    let live_digest = s
        .proxy
        .server_frame()
        .expect("proxy holds a framebuffer")
        .digest();
    (
        rec.finish().expect("first finish yields the trace"),
        live_digest,
    )
}

/// Re-serializes a trace with one payload byte flipped in record
/// `index` (the chunk CRCs are recomputed, so the file still parses —
/// only the *content* lies).
fn mutated_copy(reader: &TraceReader, index: usize) -> Vec<u8> {
    let mut w = TraceWriter::new(*reader.header());
    for (i, r) in reader.records().enumerate() {
        let mut r = r.expect("record decodes");
        if i == index {
            let last = r.payload.len() - 1;
            r.payload[last] ^= 0x01;
        }
        w.record(r.t_us, r.channel, r.dir, &r.payload);
    }
    w.finish()
}

#[test]
fn recording_is_deterministic_and_replays_byte_identically() {
    let (bytes, live_digest) = record_scenario(SEED, TraceConfig::default());
    let (bytes2, live_digest2) = record_scenario(SEED, TraceConfig::default());
    assert_eq!(bytes, bytes2, "same seed, byte-identical trace");
    assert_eq!(live_digest, live_digest2);

    let reader = TraceReader::parse(bytes).expect("trace parses");
    assert_eq!(reader.header().seed, SEED);
    assert_eq!(reader.header().protocol_version, PROTOCOL_VERSION);
    assert_eq!(reader.dropped_chunks(), 0);
    assert!(reader.record_count() > 0);

    // The conversation really exercised multiple devices: both
    // renegotiations' SetPixelFormat messages are in the trace.
    let renegotiations = reader
        .records()
        .map(|r| r.expect("record decodes"))
        .filter(|r| r.dir == Direction::ToServer)
        .filter(|r| {
            matches!(
                ClientMessage::decode_body(&mut r.payload.as_slice()),
                Ok(ClientMessage::SetPixelFormat { .. })
            )
        })
        .count();
    assert!(
        renegotiations >= 2,
        "output switches recorded: {renegotiations}"
    );

    let a = Replayer::new().replay(&reader).expect("replay runs clean");
    let b = Replayer::new().replay(&reader).expect("replay runs clean");
    assert!(a.to_server > 0 && a.to_client > 0 && a.updates_applied > 0);
    assert!(a.virtual_elapsed_us > 300_000, "flap time is in the trace");
    assert_eq!(a.diff(&b), None, "two replays are identical");
    assert_eq!(a, b);
    assert_eq!(
        a.snapshot.to_json(),
        b.snapshot.to_json(),
        "telemetry snapshots are byte-identical"
    );

    // The replayed proxy converged to the same screen the live run saw.
    assert_eq!(a.final_digest(), Some(live_digest));
}

#[test]
fn verify_regenerates_the_recording_exactly() {
    let (bytes, live_digest) = record_scenario(SEED, TraceConfig::default());
    let reader = TraceReader::parse(bytes).expect("trace parses");

    // A fresh server over a fresh copy of the initial UI regenerates
    // every recorded server message byte-for-byte.
    let mut ui = scenario_ui();
    let outcome = Replayer::new()
        .verify(&reader, &mut ui)
        .expect("verification passes with zero divergence");
    assert_eq!(outcome.final_digest(), Some(live_digest));

    // And the digest sequence agrees with a plain replay.
    let replayed = Replayer::new().replay(&reader).expect("replay runs clean");
    assert_eq!(outcome.digests, replayed.digests);
}

#[test]
fn divergence_checker_pinpoints_the_mutated_record() {
    let (bytes, _) = record_scenario(SEED, TraceConfig::default());
    let reader = TraceReader::parse(bytes).expect("trace parses");

    // Tamper with the last server→client record's payload.
    let records: Vec<TraceRecord> = reader
        .records()
        .map(|r| r.expect("record decodes"))
        .collect();
    let target = records
        .iter()
        .enumerate()
        .filter(|(_, r)| r.dir == Direction::ToClient && !r.payload.is_empty())
        .map(|(i, _)| i)
        .next_back()
        .expect("trace has server messages");

    let mutated = TraceReader::parse(mutated_copy(&reader, target)).expect("mutated trace parses");
    let mut ui = scenario_ui();
    match Replayer::new().verify(&mutated, &mut ui) {
        Err(ReplayError::Diverged(d)) => {
            assert_eq!(d.record_index, target, "first divergence is the mutation");
            assert_eq!(d.t_us, records[target].t_us);
            assert!(
                d.reason.contains("byte"),
                "reason names the byte: {}",
                d.reason
            );
        }
        other => panic!("expected divergence at record {target}, got {other:?}"),
    }
}

#[test]
fn raw_byte_flip_is_caught_by_the_chunk_crc() {
    let (mut bytes, _) = record_scenario(SEED, TraceConfig::default());
    // Flip one byte inside the first chunk's payload (past the 22-byte
    // file header and the 24-byte chunk header).
    bytes[22 + 24 + 5] ^= 0x40;
    match TraceReader::parse(bytes) {
        Err(TraceError::CrcMismatch { chunk: 0 }) => {}
        other => panic!("expected chunk-0 CRC mismatch, got {other:?}"),
    }
}

#[test]
fn bounded_recording_evicts_oldest_chunks_and_counts_them() {
    let registry = uniint::telemetry::registry::Registry::new();
    let config = TraceConfig {
        chunk_bytes: 512,
        max_trace_bytes: 2048,
    };
    let rec = Recorder::with_config(
        TraceHeader {
            seed: SEED,
            protocol_version: PROTOCOL_VERSION,
            pixel_format: PixelFormat::Rgb888,
        },
        config,
    );
    rec.attach_telemetry(&registry);

    let mut ui = scenario_ui();
    let mut s =
        SimSession::connect_recorded(&mut ui, LinkProfile::wifi80211b(), SEED, Some(rec.tap()))
            .expect("session connects");
    s.proxy.attach_input(Box::new(KeypadPlugin::new()));
    for _ in 0..4 {
        s.device_input(&mut ui, &DeviceEvent::KeypadSelect)
            .expect("input settles");
    }

    let dropped = rec.dropped_chunks();
    assert!(dropped > 0, "tiny budget forces eviction");
    assert_eq!(
        registry.counter("trace.dropped_chunks").get(),
        dropped,
        "eviction is visible in telemetry"
    );
    assert!(registry.counter("trace.records").get() > 0);

    // The bounded trace still parses and owns up to its missing head.
    let reader = TraceReader::parse(rec.finish().expect("finish yields bytes")).expect("parses");
    assert_eq!(reader.dropped_chunks(), dropped);
    assert!(reader.has_index());
}
