//! Fault-schedule determinism: the whole fault timeline — every send,
//! drop, teardown, reconnect and delivery — must be bit-for-bit
//! reproducible from the seed. (Convergence of the {link} × {fault}
//! matrix is covered in `failure_injection.rs`.)

use uniint::prelude::*;

fn tv_net() -> (HomeNetwork, ControlPanelApp) {
    let mut net = HomeNetwork::new();
    net.attach(
        DeviceSpec::new("TV", "living-room")
            .with_fcm(TunerFcm::new("TV Tuner", 12))
            .with_fcm(DisplayFcm::new("TV Display", 2)),
    );
    let app = ControlPanelApp::new(&mut net, None, Theme::classic());
    (net, app)
}

/// Runs a full faulted session twice with identical seed + schedule and
/// returns everything observable: the event trace and the proxy stats.
fn traced_run(seed: u64) -> (Vec<TraceEvent>, ProxyStats, u64) {
    let (mut net, mut app) = tv_net();
    let mut s = SimSession::connect(app.ui_mut(), LinkProfile::wifi80211b(), seed).unwrap();
    s.proxy.attach_input(Box::new(KeypadPlugin::new()));
    s.sim.set_tracing(true);
    let ep = s.proxy_endpoint();
    let t0 = s.now_us();
    s.sim.set_link_faults(
        ep,
        FaultSchedule::new()
            .flap(t0 + 10_000, t0 + 700_000)
            .burst_loss(0.1, 0.6, 0.7)
            .latency_spike(t0 + 1_000_000, t0 + 1_500_000, 100_000),
    );
    for _ in 0..3 {
        s.device_input(app.ui_mut(), &SimPhone::press('5').unwrap())
            .unwrap();
        app.process(&mut net);
        s.settle(app.ui_mut()).unwrap();
    }
    (s.sim.take_trace(), s.proxy.stats(), s.now_us())
}

#[test]
fn same_seed_same_schedule_identical_traces_and_stats() {
    let (trace_a, stats_a, t_a) = traced_run(9001);
    let (trace_b, stats_b, t_b) = traced_run(9001);
    assert!(!trace_a.is_empty(), "tracing captured events");
    assert_eq!(trace_a, trace_b, "event traces are identical");
    assert_eq!(stats_a, stats_b, "proxy stats are identical");
    assert_eq!(t_a, t_b, "virtual clocks are identical");
}

#[test]
fn different_seed_diverges() {
    let (trace_a, _, _) = traced_run(9001);
    let (trace_b, _, _) = traced_run(9002);
    assert_ne!(trace_a, trace_b, "different seeds explore different fates");
}
