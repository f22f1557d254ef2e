//! Golden-snapshot and determinism tests for the telemetry JSON export.
//!
//! The quickstart scenario (phone keypad controlling a TV over a local
//! session) is replayed here and its telemetry snapshot compared
//! byte-for-byte against `tests/golden/quickstart_telemetry.json`.
//! Regenerate the golden file after an intentional pipeline change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test telemetry_snapshot
//! ```

use uniint::prelude::*;

/// Runs the quickstart scenario and returns the session's telemetry
/// snapshot as canonical JSON.
fn quickstart_telemetry_json() -> String {
    let mut net = HomeNetwork::new();
    net.attach(
        DeviceSpec::new("TV", "living-room")
            .with_fcm(TunerFcm::new("TV Tuner", 12))
            .with_fcm(DisplayFcm::new("TV Display", 2)),
    );
    let mut app = ControlPanelApp::new(&mut net, None, Theme::classic());
    let mut session = LocalSession::connect(app.ui_mut());
    session.proxy.attach_input(Box::new(KeypadPlugin::new()));
    session
        .proxy
        .attach_output(Box::new(ScreenPlugin::phone_lcd()));
    session.pump(app.ui_mut());
    session.device_input(app.ui_mut(), &SimPhone::press('5').unwrap());
    app.process(&mut net);
    session.pump(app.ui_mut());
    session.telemetry().snapshot().to_json()
}

#[test]
fn quickstart_snapshot_matches_golden_file() {
    let got = quickstart_telemetry_json();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/quickstart_telemetry.json"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| v == "1") {
        std::fs::write(path, &got).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(path).expect("golden file exists");
    assert_eq!(
        got, want,
        "telemetry snapshot drifted from the golden file; \
         run with UPDATE_GOLDEN=1 if the change is intentional"
    );
}

#[test]
fn quickstart_snapshot_is_byte_identical_across_runs() {
    assert_eq!(quickstart_telemetry_json(), quickstart_telemetry_json());
}

#[test]
fn sim_session_snapshot_is_byte_identical_across_runs() {
    // The simulated path exercises the virtual clock, per-link counters
    // and recovery machinery; with the same seed it must serialize to
    // the same bytes.
    let run = || {
        let mut net = HomeNetwork::new();
        net.attach(
            DeviceSpec::new("TV", "living-room")
                .with_fcm(TunerFcm::new("TV Tuner", 12))
                .with_fcm(DisplayFcm::new("TV Display", 2)),
        );
        let mut app = ControlPanelApp::new(&mut net, None, Theme::classic());
        let mut s = SimSession::connect(app.ui_mut(), LinkProfile::wifi80211b(), 11).unwrap();
        s.proxy.attach_input(Box::new(KeypadPlugin::new()));
        let t0 = s.now_us();
        s.sim.set_link_faults(
            s.proxy_endpoint(),
            FaultSchedule::new().flap(t0, t0 + 500_000),
        );
        s.device_input(app.ui_mut(), &SimPhone::press('5').unwrap())
            .unwrap();
        app.process(&mut net);
        s.settle(app.ui_mut()).unwrap();
        s.telemetry().snapshot().to_json()
    };
    let a = run();
    assert_eq!(a, run());
    // The simulated run produced non-trivial telemetry, not an empty shell.
    assert!(a.contains("netsim.sends"));
    assert!(a.contains("session.recovery_us"));
}
