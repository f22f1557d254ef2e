//! Turns the traced run's spans into per-layer metrics.

use std::collections::BTreeMap;

use crate::trace::{self, Span};

/// Name of the span around each whole interaction; every other span
/// belongs to a layer.
pub const ROOT: &str = "interaction";

/// Fills the span-derived per-layer metrics, as means per interaction
/// over `n` traced interactions served to `viewers` viewers.
pub fn from_spans(
    spans: &[Span],
    n: usize,
    viewers: usize,
    layers: &mut BTreeMap<&'static str, f64>,
) {
    let totals = trace::totals(spans);
    let n = n.max(1) as f64;
    let total = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / 1e3 / n)
    };
    let own = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e3 / n);

    layers.insert("wsys.render_us", total("wsys.render"));
    layers.insert("apps.process_us", total("apps.process"));
    let pump = total("multi.pump_all");
    layers.insert("multi.pump_all_us", pump);
    layers.insert("multi.pump_us_per_viewer", pump / viewers.max(1) as f64);
    layers.insert("multi.handle_message_us", total("multi.handle_message"));
    layers.insert("proxy.handle_server_us", total("proxy.handle_server"));
    layers.insert("proxy.decode_us", own("proxy.handle_server"));
    layers.insert("proxy.device_input_us", total("proxy.device_input"));
    layers.insert("supervisor.adapt_overhead_us", own("supervisor.adapt"));
    layers.insert(
        "supervisor.translate_overhead_us",
        own("supervisor.translate"),
    );
    layers.insert("devices.adapt_us.pda", total("devices.adapt.pda"));
    layers.insert("devices.adapt_us.phone", total("devices.adapt.phone"));
    layers.insert("devices.adapt_us.tv", total("devices.adapt.tv"));
    layers.insert("devices.translate_us", total("devices.translate"));
    layers.insert("gateway.client_send_us", total("gateway.client_send"));
    layers.insert("gateway.client_recv_us", total("gateway.client_recv"));

    let root = total(ROOT);
    let layer_self: f64 = totals
        .iter()
        .filter(|(name, _)| **name != ROOT)
        .map(|(_, t)| t.self_ns as f64 / 1e3 / n)
        .sum();
    layers.insert("trace.glue_us", own(ROOT));
    layers.insert(
        "trace.layer_self_ratio",
        if root > 0.0 { layer_self / root } else { 0.0 },
    );
}

/// Mean traced interaction time, microseconds (the root span).
pub fn interaction_mean_us(spans: &[Span], n: usize) -> f64 {
    let t = trace::totals(spans);
    t.get(ROOT)
        .map_or(0.0, |t| t.total_ns as f64 / 1e3 / n.max(1) as f64)
}

/// One line per layer: mean self time per interaction and its share of
/// the traced interaction time, largest first.
pub fn self_time_table(spans: &[Span], n: usize) -> Vec<String> {
    let totals = trace::totals(spans);
    let root = interaction_mean_us(spans, n).max(f64::MIN_POSITIVE);
    let mut rows: Vec<(&str, f64)> = totals
        .iter()
        .map(|(name, t)| (*name, t.self_ns as f64 / 1e3 / n.max(1) as f64))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    rows.iter()
        .map(|(name, us)| {
            format!(
                "  self {name:<26} {us:>10.1} us  {:>5.1}%",
                100.0 * us / root
            )
        })
        .collect()
}
