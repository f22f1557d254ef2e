//! End-to-end and per-layer benchmark of the UniInt pipeline.
//!
//! ```text
//! perfbench --workload <fanout|device_mix|gateway_tcp> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Each workload is a closed loop with one interaction in flight: an
//! input goes in, and the interaction ends when every viewer shows its
//! result. A run is a series of segments; each sets the system up afresh
//! (`setup_s` summarises these set-up times), warms up, then runs its
//! share of a fixed number of timed interactions derived from
//! `--seconds`, checking every viewer's content after each.
//! With `--trace 1` untraced segments alternate with traced ones, which
//! record spans around every layer call, and it prints per-layer metrics
//! instead of the end-to-end ones.
//!
//! Human-readable tables go to standard error; the last line of standard
//! output is one JSON object. The exit code is non-zero when any
//! correctness check failed.

mod device_mix;
mod fanout;
mod gateway_tcp;
mod layers;
mod measure;
mod report;
mod rig;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use measure::{elapsed_us, peak_rss_mb, CpuMeter};
use report::{declared, warmup, Config, Phase, Report, Sums};

/// Bytes one interaction moved, counted outside its timed span.
#[derive(Debug, Default, Clone, Copy)]
pub struct Moved {
    /// Framed server→viewer bytes.
    pub wire: u64,
    /// Device-link delta bytes.
    pub device: u64,
}

/// One benchmark workload: a system under test plus its seeded script.
///
/// A run is split into segments. Each sets the system up afresh (timed,
/// for `setup_s`), warms up, then runs its share of the timed
/// interactions. Fresh set-ups spread the luck of thread placement and
/// allocation over the run instead of fixing it once per run.
pub trait Workload: Sized {
    /// Segments per run.
    const SEGMENTS: usize;

    /// Builds the system, up to and including the first full update on
    /// every viewer, with a script of `len` interactions drawn from the
    /// seed and `segment`. `traced` installs the plug-in timing wrappers.
    fn setup(cfg: &Config, traced: bool, segment: usize, len: usize) -> Result<Self, String>;

    /// Generates interaction `i`'s input (untimed).
    fn prepare(&mut self, i: usize);

    /// Runs the prepared interaction until every viewer shows its
    /// result (timed).
    fn interact(&mut self) -> Result<(), String>;

    /// Checks the viewers and collects per-interaction figures
    /// (untimed). `traced` asks for the per-layer re-timing as well.
    fn after(&mut self, timed: bool, traced: bool, sums: &mut Sums) -> Result<Moved, String>;

    /// Damages one viewer's framebuffer behind the protocol's back.
    fn corrupt(&mut self);
}

/// Host-speed reference passes timed during each segment's timed
/// interactions, spread evenly between them.
const REFERENCE_PASSES: usize = 8;

/// Everything one series of segments measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Timed interactions of every segment, pooled.
    pub phase: Phase,
    /// Set-up time of each segment, seconds.
    pub setups_s: Vec<f64>,
    /// Each segment's factor to the reference host speed.
    pub scales: Vec<f64>,
    /// Per-interaction figures of the timed interactions.
    pub sums: Sums,
    /// Spans of the timed interactions (traced runs only).
    pub spans: Vec<trace::Span>,
}

/// Runs one segment: a fresh set-up (timed), its warm-up, then `per`
/// timed interactions, adding what it measured to `run`. Its set-up,
/// latencies and CPU time are scaled to the reference host speed
/// ([`measure::speed_scale`]) measured before it and between its timed
/// interactions. Spans (not scaled) stay in the recorder until the
/// caller takes them.
pub fn run_segment<W: Workload>(
    cfg: &Config,
    segment: usize,
    per: usize,
    traced: bool,
    run: &mut Run,
) -> Result<(), String> {
    let warm = warmup(per);
    run.phase.warmup = warm;
    let every = (per / REFERENCE_PASSES).max(1);
    let mut passes = vec![measure::reference_pass_us()];
    let lat0 = run.phase.lat_us.len();
    let t0 = Instant::now();
    let mut w = W::setup(cfg, traced, segment, warm + per)?;
    run.setups_s.push(t0.elapsed().as_secs_f64());
    let mut cpu: Option<CpuMeter> = None;
    for i in 0..warm + per {
        let timed = i >= warm;
        if i == warm {
            if traced {
                trace::resume();
            }
            cpu = Some(CpuMeter::start());
        }
        if segment == 0 && cfg.corrupt_at == Some(i) {
            w.corrupt();
        }
        w.prepare(i);
        if let Some(m) = cpu.as_mut() {
            m.resume();
        }
        trace::set_interaction((segment * (warm + per) + i) as u32);
        let t0 = Instant::now();
        let res = trace::span(layers::ROOT, || w.interact());
        let lat = elapsed_us(t0);
        if let Some(m) = cpu.as_mut() {
            m.pause();
        }
        let outcome = w
            .after(timed, traced, &mut run.sums)
            .and_then(|m| res.map(|()| m));
        let p = &mut run.phase;
        if timed {
            p.lat_us.push(lat);
            if let Ok(m) = &outcome {
                p.wire_bytes += m.wire;
                p.device_bytes += m.device;
            }
        }
        p.check(segment * (warm + per) + i, outcome.map(|_| ()));
        if timed && (i - warm) % every == every - 1 {
            // Between interactions, outside the timed span and the
            // CPU meter.
            passes.push(measure::reference_pass_us());
        }
    }
    trace::stop();
    let scale = measure::speed_scale(&passes);
    run.scales.push(scale);
    for v in &mut run.phase.lat_us[lat0..] {
        *v *= scale;
    }
    if let Some(s) = run.setups_s.last_mut() {
        *s *= scale;
    }
    run.phase.cpu_s += scale * cpu.map_or(0.0, CpuMeter::finish);
    Ok(())
}

impl From<Run> for Report {
    fn from(run: Run) -> Report {
        Report {
            phase: run.phase,
            setups_s: run.setups_s,
            scales: run.scales,
            ..Report::default()
        }
    }
}

/// The untraced run the end-to-end metrics come from: the workload's
/// segments sharing `n` timed interactions.
pub fn run_untraced<W: Workload>(cfg: &Config, n: usize) -> Result<Report, String> {
    let mut run = Run::default();
    for segment in 0..W::SEGMENTS {
        run_segment::<W>(cfg, segment, n.div_ceil(W::SEGMENTS), false, &mut run)?;
    }
    Ok(run.into())
}

/// The traced run. Untraced and traced segments alternate, so both see
/// the same host speed and their difference is the tracing overhead;
/// `also` runs further per-segment work in the same rotation. Returns
/// the untraced segments as a report and the traced ones with spans.
pub fn run_traced<W: Workload>(
    cfg: &Config,
    n: usize,
    mut also: impl FnMut(usize) -> Result<(), String>,
) -> Result<(Report, Run), String> {
    let per = n.div_ceil(W::SEGMENTS);
    let (mut plain, mut traced) = (Run::default(), Run::default());
    trace::clear();
    for segment in 0..W::SEGMENTS {
        run_segment::<W>(cfg, segment, per, false, &mut plain)?;
        also(segment)?;
        run_segment::<W>(cfg, segment, per, true, &mut traced)?;
    }
    traced.spans = trace::take();
    Ok((plain.into(), traced))
}

/// Adds the traced run: the per-layer metrics every workload shares,
/// the tracing overhead and the self-time table. Returns the traced
/// interactions' mean time, microseconds.
pub fn add_traced(report: &mut Report, traced: Run, viewers: usize) -> f64 {
    let n = traced.phase.lat_us.len();
    let spans = &traced.spans;
    layers::from_spans(spans, n, viewers, &mut report.layers);
    traced.sums.per_interaction(n, &mut report.layers);
    let untraced = report.phase.p50();
    let p50 = traced.phase.p50();
    report.layers.insert("trace.interaction_p50_us", p50);
    report.layers.insert("trace.untraced_p50_us", untraced);
    report.layers.insert("trace.overhead_us", p50 - untraced);
    report.notes.push(format!(
        "traced p50 {p50:.1} us vs untraced {untraced:.1} us: tracing overhead {:.1} us; {} spans",
        p50 - untraced,
        spans.len()
    ));
    report.notes.extend(layers::self_time_table(spans, n));
    report.absorb(&traced.phase);
    report.traced_sums = traced.sums;
    report.spans = traced.spans;
    layers::interaction_mean_us(&report.spans, n)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?.max(1)),
            "--trace" => trace = Some(num(&value)? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Runs one workload by name.
pub fn run_workload(name: &str, cfg: &Config) -> Result<Report, String> {
    match name {
        "fanout" => fanout::run(cfg),
        "device_mix" => device_mix::run(cfg),
        "gateway_tcp" => gateway_tcp::run(cfg),
        other => Err(format!(
            "unknown workload {other}; expected fanout, device_mix or gateway_tcp"
        )),
    }
}

/// The metrics the JSON result carries, as `BENCHMARK.json` declares
/// them: the end-to-end ones untraced, the per-layer ones traced (0 for
/// a layer the workload never calls).
pub fn result_metrics(report: &Report, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
    if trace {
        declared("per_layer")
            .into_iter()
            .map(|(name, unit)| (name, report.layers.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        let e2e = report.end_to_end(peak_rss_mb());
        declared("end_to_end")
            .into_iter()
            .map(|(name, unit)| {
                let &(_, v, _) = e2e
                    .iter()
                    .find(|m| m.0 == name)
                    .unwrap_or_else(|| panic!("BENCHMARK.json declares {name}, never computed"));
                (name, v, unit)
            })
            .collect()
    }
}

/// The one-line JSON result.
pub fn result_json(report: &Report, trace: bool) -> String {
    let metrics: Vec<String> = result_metrics(report, trace)
        .into_iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let p = &report.phase;
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        p.failed == 0,
        p.attempted.max(1),
        p.failed,
        metrics.join(", ")
    )
}

fn print_human(name: &str, cfg: &Config, report: &Report) {
    let p = &report.phase;
    eprintln!(
        "{name}: seed {} | {} timed interactions in {} segments, each after its own set-up \
         and {} warm-up",
        cfg.seed,
        p.lat_us.len(),
        report.setups_s.len(),
        p.warmup
    );
    let (lo, hi) = report
        .scales
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &s| (lo.min(s), hi.max(s)));
    eprintln!(
        "  timings scaled to the reference host speed by factors {lo:.3}..{hi:.3} (median {:.3})",
        measure::median(&report.scales)
    );
    let e2e = report.end_to_end(peak_rss_mb());
    for &(metric, v, unit) in &e2e {
        eprintln!("  {metric:<34} {v:>14.3} {unit}");
    }
    let mut sorted = p.lat_us.clone();
    sorted.sort_by(f64::total_cmp);
    let q = |x| measure::quantile(&sorted, x);
    let p99 = report::p99(&p.lat_us);
    eprintln!(
        "  samples: {} latencies, {} beyond p99; p10 {:.0} p90 {:.0} p99.9 {:.0} max {:.0} us",
        sorted.len(),
        sorted.iter().filter(|&&v| v > p99).count(),
        q(0.1),
        q(0.9),
        q(0.999),
        q(1.0)
    );
    if cfg.trace {
        for (metric, v, unit) in result_metrics(report, true) {
            eprintln!("  {metric:<34} {v:>14.3} {unit}");
        }
        for line in &report.notes {
            eprintln!("{line}");
        }
    }
    if let Some(f) = &p.first_failure {
        eprintln!(
            "FAILED: {} of {} interactions; first: {f}",
            p.failed, p.attempted
        );
    }
}

/// Writes the traced run's spans under `.bench_out/` in the working
/// directory.
fn write_spans(workload: &str, cfg: &Config, spans: &[trace::Span]) {
    let path =
        std::path::Path::new(".bench_out").join(format!("spans-{workload}-{}.tsv", cfg.seed));
    match trace::write_tsv(&path, spans) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        count: None,
        corrupt_at: None,
    };
    let report = match run_workload(&args.workload, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    print_human(&args.workload, &cfg, &report);
    if cfg.trace {
        write_spans(&args.workload, &cfg, &report.spans);
    }
    println!("{}", result_json(&report, cfg.trace));
    if report.phase.failed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WORKLOADS: [&str; 3] = ["fanout", "device_mix", "gateway_tcp"];

    fn tiny(trace: bool, corrupt_at: Option<usize>) -> Config {
        Config {
            seed: 7,
            seconds: 1,
            trace,
            count: Some(6),
            corrupt_at,
        }
    }

    fn assert_prints(json: &str, metrics: &[(&str, &str)]) {
        assert!(!metrics.is_empty());
        for (name, unit) in metrics {
            let entry = format!("\"{name}\": {{\"value\": ");
            let at = json
                .find(&entry)
                .unwrap_or_else(|| panic!("{name} missing in {json}"));
            let rest = &json[at + entry.len()..];
            assert!(
                rest[..rest.find('}').expect("entry closes")]
                    .ends_with(&format!("\"unit\": \"{unit}\"")),
                "{name} lacks unit {unit}"
            );
        }
    }

    fn error_rate(report: &Report) -> f64 {
        report
            .end_to_end(1.0)
            .iter()
            .find(|m| m.0 == "error_rate")
            .expect("error_rate is computed")
            .1
    }

    #[test]
    fn every_workload_prints_every_declared_metric() {
        let e2e = declared("end_to_end");
        let per_layer = declared("per_layer");
        assert!(e2e.contains(&("setup_s", "s")));
        let mut computed_layers = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            for trace in [false, true] {
                let report = run_workload(w, &tiny(trace, None)).expect("workload runs");
                assert_eq!(
                    report.phase.failed, 0,
                    "{w}: {:?}",
                    report.phase.first_failure
                );
                let json = result_json(&report, trace);
                assert!(
                    json.starts_with("{\"correct\": true, \"attempted\": "),
                    "{json}"
                );
                assert_prints(&json, if trace { &per_layer } else { &e2e });
                assert_eq!(error_rate(&report), 0.0);
                if trace {
                    computed_layers.extend(report.layers.keys().copied());
                } else {
                    let computed = report.end_to_end(1.0);
                    for (name, unit) in &e2e {
                        let m = computed.iter().find(|m| m.0 == *name).expect("computed");
                        assert_eq!(m.2, *unit, "{name}: BENCHMARK.json and the code disagree");
                    }
                }
            }
        }
        // Every per-layer figure some workload computes is declared, and
        // every declared one is computed by some workload.
        let declared_layers: std::collections::BTreeSet<&str> =
            per_layer.iter().map(|m| m.0).collect();
        assert_eq!(computed_layers, declared_layers);
    }

    #[test]
    fn corrupted_viewer_fails_the_run() {
        for w in WORKLOADS {
            // Six interactions leave one timed interaction per segment;
            // corrupt the first segment's.
            let first_timed = warmup(1);
            let report = run_workload(w, &tiny(false, Some(first_timed))).expect("workload runs");
            assert!(report.phase.failed >= 1, "{w}: corruption went unnoticed");
            assert!(error_rate(&report) > 0.0);
            assert!(result_json(&report, false).starts_with("{\"correct\": false"));
        }
    }

    #[test]
    fn unknown_workload_is_an_error() {
        assert!(run_workload("nope", &tiny(false, None)).is_err());
    }
}
