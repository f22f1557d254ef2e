//! The experiment catalogue (E1–E12 plus ablations) and its fixtures.
//!
//! Every experiment in DESIGN.md §4 is defined once, in [`catalogue`], as
//! a scenario builder plus its measured step. It yields [`Row`]s of
//! deterministic counts (virtual µs, bytes, counters, digests) and
//! wall-clock medians. The `experiments` report renders the
//! [`Scale::Full`] sweeps as tables; `bench_snapshot` files the
//! [`Scale::Quick`] counts as canonical JSON and gates them against
//! `baseline.json` with [`compare`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

use uniint_apps::prelude::*;
use uniint_core::prelude::*;
use uniint_havi::prelude::*;
use uniint_raster::prelude::*;
use uniint_telemetry::json::Value;
use uniint_wsys::prelude::{Theme, Ui};

pub mod catalogue;
pub use catalogue::{Experiment, CATALOGUE};

/// Builds a home network with `n` appliances cycling through the main
/// appliance classes (TV tuner+display count as one device).
pub fn home_with(n: usize) -> HomeNetwork {
    let mut net = HomeNetwork::new();
    for i in 0..n {
        match i % 5 {
            0 => net.attach(
                DeviceSpec::new(format!("TV-{i}"), "living-room")
                    .with_fcm(TunerFcm::new(format!("Tuner {i}"), 12))
                    .with_fcm(DisplayFcm::new(format!("Display {i}"), 2)),
            ),
            1 => net.attach(
                DeviceSpec::new(format!("VCR-{i}"), "living-room")
                    .with_fcm(VcrFcm::new(format!("Deck {i}"), 3600)),
            ),
            2 => net.attach(
                DeviceSpec::new(format!("Amp-{i}"), "living-room")
                    .with_fcm(AmplifierFcm::new(format!("Amp {i}"))),
            ),
            3 => net.attach(
                DeviceSpec::new(format!("Light-{i}"), "living-room")
                    .with_fcm(LightFcm::new(format!("Light {i}"))),
            ),
            _ => net.attach(
                DeviceSpec::new(format!("AC-{i}"), "living-room")
                    .with_fcm(AirconFcm::new(format!("AC {i}"), 280)),
            ),
        };
    }
    net
}

/// The standard evaluation scene: TV + VCR + amplifier panel with a
/// connected local session.
pub fn standard_scene() -> (HomeNetwork, ControlPanelApp, LocalSession) {
    let mut net = home_with(3);
    let mut app = ControlPanelApp::new(&mut net, None, Theme::classic());
    let session = LocalSession::connect(app.ui_mut());
    (net, app, session)
}

/// Synthetic GUI damage patterns for the encoding experiment (E2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DamagePattern {
    /// First paint of a whole panel.
    FullRepaint,
    /// A slider knob moving (small chrome-colored churn).
    SliderDrag,
    /// A text label changing (small high-contrast churn).
    TextChange,
    /// Photographic content (worst case for palette encodings).
    Noise,
}

impl DamagePattern {
    /// All patterns.
    pub const ALL: [DamagePattern; 4] = [
        DamagePattern::FullRepaint,
        DamagePattern::SliderDrag,
        DamagePattern::TextChange,
        DamagePattern::Noise,
    ];

    /// Pattern name for report rows.
    pub fn name(self) -> &'static str {
        match self {
            DamagePattern::FullRepaint => "full-repaint",
            DamagePattern::SliderDrag => "slider-drag",
            DamagePattern::TextChange => "text-change",
            DamagePattern::Noise => "noise",
        }
    }

    /// Produces the damaged pixels + rect for a panel of `size`.
    pub fn generate(self, size: Size) -> (Rect, Vec<Color>) {
        let mut ui = panel_ui(size);
        ui.render();
        match self {
            DamagePattern::FullRepaint => {
                let rect = ui.framebuffer().bounds();
                let (_, px) = ui.framebuffer().read_rect(rect);
                (rect, px)
            }
            DamagePattern::SliderDrag => {
                let rect = Rect::new(
                    8,
                    (size.h as i32 / 2).max(0),
                    size.w.saturating_sub(16).max(8),
                    16,
                )
                .intersect(ui.framebuffer().bounds())
                .unwrap_or(Rect::new(0, 0, 8, 8));
                let (r, px) = ui.framebuffer().read_rect(rect);
                (r, px)
            }
            DamagePattern::TextChange => {
                let rect = Rect::new(10, 4, 120.min(size.w - 10), 12)
                    .intersect(ui.framebuffer().bounds())
                    .unwrap_or(Rect::new(0, 0, 8, 8));
                let (r, px) = ui.framebuffer().read_rect(rect);
                (r, px)
            }
            DamagePattern::Noise => {
                let rect = Rect::new(0, 0, size.w.min(160), size.h.min(120));
                let px = (0..rect.area())
                    .map(|i| {
                        Color::rgb(
                            (i * 37 % 251) as u8,
                            (i * 83 % 241) as u8,
                            (i * 61 % 239) as u8,
                        )
                    })
                    .collect();
                (rect, px)
            }
        }
    }
}

/// A rendered, realistic control panel of the given size (widgets laid
/// out like the real app but without a HAVi network behind them).
pub fn panel_ui(size: Size) -> Ui {
    use uniint_wsys::prelude::*;
    let mut ui = Ui::new(size.w, size.h, Theme::classic(), "bench-panel");
    let rows_n = (size.h / 36).max(1);
    for r in 0..rows_n {
        let y = (r * 36 + 4) as i32;
        if y + 30 > size.h as i32 {
            break;
        }
        ui.add(
            Label::new(format!("Appliance {r}")),
            Rect::new(4, y, 90.min(size.w - 8), 12),
        );
        match r % 3 {
            0 => {
                ui.add(
                    Toggle::new("Power", r % 2 == 0),
                    Rect::new(4, y + 13, 56, 18),
                );
                ui.add(Button::new("Ch+"), Rect::new(66, y + 13, 40, 18));
            }
            1 => {
                ui.add(
                    Slider::new(0, 100, (r * 17 % 100) as i32, 5),
                    Rect::new(4, y + 13, (size.w - 12).min(140), 16),
                );
            }
            _ => {
                ui.add(
                    ProgressBar::new(0, 100, (r * 29 % 100) as i32),
                    Rect::new(4, y + 13, (size.w - 12).min(120), 12),
                );
            }
        }
    }
    ui.render();
    ui
}

/// The screen sizes E2 sweeps: phone LCD, PDA, panel/TV.
pub const E2_SIZES: [Size; 3] = [
    Size::new(128, 128),
    Size::new(240, 320),
    Size::new(640, 480),
];

/// Seed behind the E12 golden trace.
pub const E12_SEED: u64 = 0xE12;

/// The appliance panel behind the E12 golden trace: three switches
/// driven purely through the protocol, so trace verification can
/// regenerate the whole recorded conversation from a fresh copy.
pub fn e12_panel() -> Ui {
    use uniint_wsys::prelude::Toggle;
    let mut ui = Ui::new(160, 120, Theme::classic(), "e12-panel");
    ui.add(Toggle::new("Power", false), Rect::new(20, 14, 120, 24));
    ui.add(Toggle::new("Mute", false), Rect::new(20, 46, 120, 24));
    ui.add(Toggle::new("Eco", false), Rect::new(20, 78, 120, 24));
    ui
}

/// Records the E12 scenario — a phone keypad over 802.11b, an output
/// switch from the phone's LCD to a PDA, and a 300 ms link flap the
/// session resumes through — and returns the finished trace bytes.
/// `record_golden` writes this to `crates/bench/golden/e12.trace`;
/// `bench_snapshot`'s E12 replays the checked-in copy.
pub fn record_e12_trace() -> Vec<u8> {
    use uniint_devices::prelude::{KeypadPlugin, ScreenPlugin};
    use uniint_netsim::prelude::{FaultSchedule, LinkProfile};
    use uniint_protocol::message::PROTOCOL_VERSION;
    use uniint_trace::prelude::{Recorder, TraceHeader};

    let rec = Recorder::new(TraceHeader {
        seed: E12_SEED,
        protocol_version: PROTOCOL_VERSION,
        pixel_format: PixelFormat::Rgb888,
    });
    let mut ui = e12_panel();
    let mut s = SimSession::connect_recorded(
        &mut ui,
        LinkProfile::wifi80211b(),
        E12_SEED,
        Some(rec.tap()),
    )
    .expect("e12 session connects");
    s.proxy.attach_input(Box::new(KeypadPlugin::new()));
    s.proxy.attach_output(Box::new(ScreenPlugin::phone_lcd()));
    s.settle(&mut ui).expect("renegotiation settles");
    for ev in [
        DeviceEvent::KeypadSelect,
        DeviceEvent::KeypadNav(Nav::Down),
        DeviceEvent::KeypadSelect,
    ] {
        s.device_input(&mut ui, &ev).expect("input settles");
    }
    let t0 = s.now_us();
    s.sim.set_link_faults(
        s.proxy_endpoint(),
        FaultSchedule::new().flap(t0, t0 + 300_000),
    );
    s.device_input(&mut ui, &DeviceEvent::KeypadNav(Nav::Down))
        .expect("input survives the flap");
    s.proxy.attach_output(Box::new(ScreenPlugin::pda()));
    s.settle(&mut ui).expect("renegotiation settles");
    s.device_input(&mut ui, &DeviceEvent::KeypadSelect)
        .expect("input settles");
    rec.finish().expect("trace finishes once")
}

/// Finds the first power toggle's center, in server coordinates.
pub fn power_center(app: &ControlPanelApp) -> (u16, u16) {
    use uniint_wsys::prelude::Toggle;
    let rect = app
        .ui()
        .widget_ids()
        .into_iter()
        .find_map(|id| {
            app.ui().widget::<Toggle>(id)?;
            app.ui().widget_rect(id)
        })
        .expect("panel has a power toggle");
    let c = rect.center();
    (c.x as u16, c.y as u16)
}

/// How large each experiment's sweep is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The snapshot's sizes, which `baseline.json` pins. Each timed step
    /// runs once, so its code is exercised but its median means nothing.
    Quick,
    /// The report's sweeps, with real wall-clock medians.
    Full,
}

impl Scale {
    /// `quick` at [`Scale::Quick`], `full` at [`Scale::Full`].
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }

    /// Median wall time of `f` over `n` runs (one run at
    /// [`Scale::Quick`]), in microseconds.
    pub fn median_us<T>(self, n: usize, mut f: impl FnMut() -> T) -> f64 {
        let mut samples: Vec<f64> = (0..self.pick(1, n))
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(f());
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        samples[samples.len() / 2]
    }
}

/// One measured value of a [`Row`].
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// A deterministic count (bytes, a telemetry counter, a digest),
    /// filed in the snapshot under its key.
    Count(String, u64),
    /// Deterministic virtual-clock microseconds, filed in the snapshot
    /// under its key; the report shows milliseconds.
    VirtualUs(String, u64),
    /// A ratio of other values (frames/s, an overhead factor); report only.
    Ratio(f64),
    /// A wall-clock median in microseconds; report only.
    MedianUs(f64),
}

impl Metric {
    /// Snapshot key and value of a deterministic metric.
    pub fn keyed(&self) -> Option<(&str, u64)> {
        match self {
            Metric::Count(k, v) | Metric::VirtualUs(k, v) => Some((k, *v)),
            Metric::Ratio(_) | Metric::MedianUs(_) => None,
        }
    }

    /// The value as the report prints it.
    pub fn display(&self) -> String {
        match self {
            Metric::Count(_, v) => v.to_string(),
            Metric::VirtualUs(_, v) => format!("{:.1}", *v as f64 / 1000.0),
            Metric::Ratio(x) | Metric::MedianUs(x) => format!("{x:.2}"),
        }
    }
}

/// One row of an experiment: a scenario label and its metrics, each
/// under a report column name.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// What the row measured.
    pub label: String,
    /// `(column, metric)` in report order.
    pub cells: Vec<(&'static str, Metric)>,
}

impl Row {
    /// An empty row.
    pub fn new(label: impl Into<String>) -> Row {
        Row {
            label: label.into(),
            cells: Vec::new(),
        }
    }

    /// Adds `metric` under `column`.
    pub fn with(mut self, column: &'static str, metric: Metric) -> Row {
        self.cells.push((column, metric));
        self
    }

    /// Adds a deterministic count, filed in the snapshot as `key`.
    pub fn count(self, column: &'static str, key: impl Into<String>, v: u64) -> Row {
        self.with(column, Metric::Count(key.into(), v))
    }

    /// Adds a wall-clock median.
    pub fn us(self, column: &'static str, median_us: f64) -> Row {
        self.with(column, Metric::MedianUs(median_us))
    }
}

/// Turns a link/pattern/counter name into a snapshot-key token.
fn slug(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

/// Runs the [`Scale::Quick`] catalogue and files every deterministic
/// metric as `{ experiment: { key: integer } }`. Wall time never enters,
/// so the same toolchain produces the same document on every run.
///
/// # Panics
///
/// If two metrics of one experiment share a key.
pub fn snapshot() -> Value {
    let mut root = Value::object();
    for e in CATALOGUE {
        let mut m = Value::object();
        for row in (e.run)(Scale::Quick) {
            for (key, v) in row.cells.iter().filter_map(|(_, m)| m.keyed()) {
                assert!(m.get(key).is_none(), "{}.{key} filed twice", e.key);
                m.insert(key, Value::UInt(v));
            }
        }
        if m.as_object().is_some_and(|o| !o.is_empty()) {
            root.insert(e.key, m);
        }
    }
    root
}

/// Counters where any increase over baseline is a regression, no matter
/// how small: resync storms, flood drops and replay divergences must
/// only ever shrink.
pub const REGRESSION_COUNTERS: [&str; 3] = ["full_resyncs", "flood_dropped", "diverged"];

/// Relative tolerance in percent for a metric, by name.
pub fn tolerance_pct(metric: &str) -> i128 {
    if metric.ends_with("_us") {
        // Virtual-time totals legitimately move when protocol pacing
        // changes; give them more headroom.
        25
    } else {
        10
    }
}

/// Compares `current` against `baseline`; returns human-readable
/// failure lines (empty = pass).
pub fn compare(current: &Value, baseline: &Value) -> Vec<String> {
    let mut failures = Vec::new();
    let Some(base_exps) = baseline.as_object() else {
        return vec!["baseline is not a JSON object".into()];
    };
    for (exp, base_metrics) in base_exps {
        let Some(base_metrics) = base_metrics.as_object() else {
            continue;
        };
        for (metric, base_v) in base_metrics {
            let Some(base) = base_v.as_i128() else {
                continue;
            };
            let cur = current
                .get(exp)
                .and_then(|e| e.get(metric))
                .and_then(|v| v.as_i128());
            let Some(cur) = cur else {
                failures.push(format!("{exp}.{metric}: missing from current snapshot"));
                continue;
            };
            // Digests are identities, not quantities: any change at all
            // means the replay reconstructed different pixels.
            if metric.ends_with("_digest") {
                if cur != base {
                    failures.push(format!(
                        "{exp}.{metric}: digest changed ({base:x} -> {cur:x})"
                    ));
                }
                continue;
            }
            let one_sided = REGRESSION_COUNTERS.iter().any(|s| metric.ends_with(s));
            if one_sided {
                if cur > base {
                    failures.push(format!(
                        "{exp}.{metric}: regression counter increased ({base} -> {cur})"
                    ));
                }
                continue;
            }
            let pct = tolerance_pct(metric);
            // Integer tolerance check: |cur - base| * 100 <= pct * |base|,
            // with a small absolute slack so tiny baselines don't pin.
            let diff = (cur - base).abs();
            let allowed = (pct * base.abs()) / 100 + 2;
            if diff > allowed {
                failures.push(format!(
                    "{exp}.{metric}: {base} -> {cur} (diff {diff} > allowed {allowed}, ±{pct}%)"
                ));
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn home_with_counts() {
        let net = home_with(7);
        assert_eq!(net.device_guids().len(), 7);
    }

    #[test]
    fn damage_patterns_generate_consistent_sizes() {
        for p in DamagePattern::ALL {
            for size in E2_SIZES {
                let (rect, px) = p.generate(size);
                assert_eq!(px.len() as u64, rect.area(), "{} {}", p.name(), size);
                assert!(!rect.is_empty());
            }
        }
    }

    #[test]
    fn standard_scene_connects() {
        let (_net, app, session) = standard_scene();
        assert!(session.proxy.is_connected());
        assert_eq!(app.section_count(), 4);
    }

    #[test]
    fn power_center_is_clickable() {
        let (mut net, mut app, _s) = standard_scene();
        let (x, y) = power_center(&app);
        for ev in uniint_protocol::input::InputEvent::click(x, y) {
            app.ui_mut().dispatch(ev);
        }
        let report = app.process(&mut net);
        assert_eq!(report.commands_sent, 1);
    }

    fn doc(json: &str) -> Value {
        uniint_telemetry::json::parse(json).expect("valid JSON")
    }

    /// Number of failures `compare` reports for `current` against `base`.
    fn failures(base: &str, current: &str) -> usize {
        compare(&doc(current), &doc(base)).len()
    }

    /// A one-metric document `{"e":{key:v}}`.
    fn one(key: &str, v: u64) -> String {
        format!(r#"{{"e":{{"{key}":{v}}}}}"#)
    }

    #[test]
    fn a_digest_change_fails_at_any_delta() {
        let base = one("final_digest", 1_000_000);
        assert_eq!(failures(&base, &base), 0);
        assert_eq!(failures(&base, &one("final_digest", 1_000_001)), 1);
        assert_eq!(failures(&base, &one("final_digest", 999_999)), 1);
    }

    #[test]
    fn regression_counters_fail_on_one_more_and_pass_on_fewer() {
        for c in REGRESSION_COUNTERS {
            for key in [c.to_string(), format!("storm_{c}")] {
                assert_eq!(failures(&one(&key, 100), &one(&key, 101)), 1, "{key}");
                assert_eq!(failures(&one(&key, 100), &one(&key, 0)), 0, "{key}");
            }
        }
    }

    #[test]
    fn us_metrics_get_25_percent_and_others_10_each_plus_2() {
        assert_eq!(
            (tolerance_pct("virtual_us"), tolerance_pct("wire_bytes")),
            (25, 10)
        );
        for (key, base, allowed) in [
            ("virtual_us", 1000, 252),
            ("wire_bytes", 1000, 102),
            ("frames", 0, 2),
        ] {
            let at = |v| one(key, v);
            assert_eq!(failures(&at(base), &at(base + allowed)), 0, "{key}");
            assert_eq!(failures(&at(base), &at(base + allowed + 1)), 1, "{key}");
            if base > 0 {
                assert_eq!(failures(&at(base), &at(base - allowed)), 0, "{key}");
                assert_eq!(failures(&at(base), &at(base - allowed - 1)), 1, "{key}");
            }
        }
    }

    #[test]
    fn a_missing_metric_fails() {
        assert_eq!(failures(r#"{"e":{"a":1,"b":2}}"#, r#"{"e":{"a":1}}"#), 1);
        assert_eq!(failures(r#"{"e":{"a":1}}"#, r#"{"f":{"a":1}}"#), 1);
    }

    #[test]
    fn extra_keys_in_the_current_snapshot_are_ignored() {
        let current = r#"{"e":{"a":1,"z":9},"f":{"b":1}}"#;
        assert_eq!(failures(r#"{"e":{"a":1}}"#, current), 0);
    }
}
