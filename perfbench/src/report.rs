//! Per-run bookkeeping and the metric tables the benchmark prints.

use std::collections::BTreeMap;

use crate::measure::{median, quantile};

/// `BENCHMARK.json`, the one list of the metrics the result carries:
/// the end-to-end metrics of an untraced run and the per-layer metrics of
/// a traced one, with their units.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric in one section (`end_to_end` or
/// `per_layer`) of `BENCHMARK.json`, in file order.
pub fn declared(section: &str) -> Vec<(&'static str, &'static str)> {
    let text = BENCHMARK_JSON;
    let key = format!("\"{section}\"");
    let start = text.find(&key).expect("BENCHMARK.json has the section") + key.len();
    let list = &text[start..];
    let list = &list[list.find('[').expect("section is a list") + 1..];
    let list = &list[..list.find(']').expect("section list closes")];
    list.split('}')
        .filter(|obj| obj.contains('{'))
        .map(|obj| (string_field(obj, "name"), string_field(obj, "unit")))
        .collect()
}

/// The string value of `"key": "value"` in one flat JSON object.
fn string_field(obj: &'static str, key: &str) -> &'static str {
    let key = format!("\"{key}\"");
    let rest = &obj[obj.find(&key).expect("metric has the key") + key.len()..];
    let rest = &rest[rest.find('"').expect("value is a string") + 1..];
    &rest[..rest.find('"').expect("string closes")]
}

/// What one workload run is configured to do.
#[derive(Debug, Clone)]
pub struct Config {
    /// Seed for every generated input.
    pub seed: u64,
    /// Nominal timed-phase length; sets the fixed interaction count.
    pub seconds: u64,
    /// Run the traced phase and report per-layer metrics.
    pub trace: bool,
    /// Fixed timed-interaction count overriding the one derived from
    /// `seconds`; the benchmark's own smoke tests run a handful.
    pub count: Option<usize>,
    /// Test hook: corrupt one viewer's framebuffer before interaction
    /// `n` so the correctness gate has something to catch.
    pub corrupt_at: Option<usize>,
}

impl Config {
    /// The fixed number of timed interactions for a workload whose
    /// nominal rate (on a 2-core x86-64 host) is `per_second`. The count
    /// depends only on `--seconds`, never on how fast this run happens
    /// to be, so byte and memory figures compare between runs.
    pub fn interactions(&self, per_second: f64, min: usize) -> usize {
        self.count
            .unwrap_or(((self.seconds as f64 * per_second).round() as usize).max(min))
    }
}

/// Warm-up interactions before a segment of `n` timed ones.
pub fn warmup(n: usize) -> usize {
    (n / 10).clamp(5, 50)
}

/// Set-up time statistic: the mean after dropping the fastest and the
/// slowest tenth. A median would flip between modes where set-up time is
/// bimodal (the gateway's accept loop polls every 5 ms, so a connection
/// either catches its first poll or waits for the next).
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 10;
    let kept = &v[cut..v.len() - cut];
    kept.iter().sum::<f64>() / kept.len().max(1) as f64
}

/// Fewest samples in a chunk of the latency statistics (five beyond a
/// chunk's p99).
const CHUNK: usize = 500;

/// Consecutive chunks of at least [`CHUNK`] samples (one chunk when
/// there are fewer).
fn chunks(lat: &[f64]) -> std::slice::Chunks<'_, f64> {
    let k = (lat.len() / CHUNK).max(1);
    lat.chunks(lat.len().div_ceil(k).max(1))
}

/// Median latency: the mean of the chunks' medians. Averaging over
/// chunks (each one or more fresh set-ups) keeps the figure steady when
/// set-ups land in different thread-placement modes.
pub fn p50(lat: &[f64]) -> f64 {
    let m: Vec<f64> = chunks(lat).map(median).collect();
    m.iter().sum::<f64>() / m.len().max(1) as f64
}

/// Tail latency: the median of the chunks' p99s, so a burst of host
/// noise in one chunk does not move it.
pub fn p99(lat: &[f64]) -> f64 {
    median(&chunks(lat).map(|c| quantile(c, 0.99)).collect::<Vec<_>>())
}

/// Completed interactions per second of timed wall time: the median
/// over chunks.
pub fn per_second(lat: &[f64]) -> f64 {
    let rates: Vec<f64> = chunks(lat)
        .map(|c| c.len() as f64 * 1e6 / c.iter().sum::<f64>().max(f64::MIN_POSITIVE))
        .collect();
    median(&rates)
}

/// Results of one phase of interactions.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latency of each timed interaction, microseconds.
    pub lat_us: Vec<f64>,
    /// Interactions run, warm-up included.
    pub attempted: u64,
    /// Warm-up interactions per segment.
    pub warmup: usize,
    /// Interactions whose correctness check failed.
    pub failed: u64,
    /// The first failure, for the log.
    pub first_failure: Option<String>,
    /// Framed server→viewer bytes over the timed interactions.
    pub wire_bytes: u64,
    /// Device-link delta bytes over the timed interactions.
    pub device_bytes: u64,
    /// CPU seconds over the timed interactions.
    pub cpu_s: f64,
}

impl Phase {
    /// Counts one interaction's correctness outcome.
    pub fn check(&mut self, index: usize, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.first_failure
                .get_or_insert_with(|| format!("interaction {index}: {e}"));
        }
    }

    /// Median latency, microseconds (see [`p50`]).
    pub fn p50(&self) -> f64 {
        p50(&self.lat_us)
    }
}

/// One workload run's full result.
#[derive(Debug, Default)]
pub struct Report {
    /// The untraced phase the end-to-end metrics come from.
    pub phase: Phase,
    /// Set-up times of the repeated set-ups, seconds.
    pub setups_s: Vec<f64>,
    /// Each segment's factor to the reference host speed.
    pub scales: Vec<f64>,
    /// Per-layer metrics (traced run only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable lines about the traced run.
    pub notes: Vec<String>,
    /// The traced run's spans, written out at exit.
    pub spans: Vec<crate::trace::Span>,
    /// The traced run's per-interaction sums.
    pub traced_sums: Sums,
}

impl Report {
    /// Counts another phase's interactions (and failures) in this
    /// report's correctness totals.
    pub fn absorb(&mut self, other: &Phase) {
        let p = &mut self.phase;
        p.attempted += other.attempted;
        p.failed += other.failed;
        if p.first_failure.is_none() {
            p.first_failure.clone_from(&other.first_failure);
        }
    }

    /// Every end-to-end figure the benchmark computes, as `(name, value,
    /// unit)` in print order. The result carries the ones
    /// `BENCHMARK.json` declares; `interaction_p99_us`,
    /// `device_bytes_per_interaction` and `error_rate` are printed for
    /// people only (see the package README).
    pub fn end_to_end(&self, peak_rss_mb: f64) -> Vec<(&'static str, f64, &'static str)> {
        let p = &self.phase;
        let n = p.lat_us.len().max(1) as f64;
        vec![
            ("setup_s", trimmed_mean(&self.setups_s), "s"),
            ("interaction_p50_us", p.p50(), "us"),
            ("interaction_p99_us", p99(&p.lat_us), "us"),
            ("interactions_per_s", per_second(&p.lat_us), "1/s"),
            ("cpu_us_per_interaction", p.cpu_s * 1e6 / n, "us"),
            ("wire_bytes_per_interaction", p.wire_bytes as f64 / n, "B"),
            (
                "device_bytes_per_interaction",
                p.device_bytes as f64 / n,
                "B",
            ),
            ("peak_rss_mb", peak_rss_mb, "MB"),
            (
                "error_rate",
                p.failed as f64 / p.attempted.max(1) as f64,
                "ratio",
            ),
        ]
    }
}

/// Sums of per-interaction figures, averaged at the end.
#[derive(Debug, Default)]
pub struct Sums(BTreeMap<&'static str, f64>);

impl Sums {
    /// Adds `v` to `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_default() += v;
    }

    /// The sum for `name` (0 when never added).
    pub fn get(&self, name: &'static str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Copies every sum into `layers`, divided by `n`. Names starting
    /// with `sum.` are totals kept for ratios, not metrics, and stay out.
    pub fn per_interaction(&self, n: usize, layers: &mut BTreeMap<&'static str, f64>) {
        for (&k, &v) in &self.0 {
            if !k.starts_with("sum.") {
                layers.insert(k, v / n.max(1) as f64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trimmed_mean_drops_the_outer_tenths() {
        let mut v: Vec<f64> = vec![7.0; 18];
        v.extend([1.0, 100.0]);
        assert_eq!(trimmed_mean(&v), 7.0);
        assert_eq!(trimmed_mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn chunked_statistics_ignore_a_burst_in_one_chunk() {
        // Three chunks of 500: one has a burst of slow interactions.
        let mut lat = vec![100.0; 1500];
        for v in &mut lat[500..520] {
            *v = 5_000.0;
        }
        assert_eq!(p99(&lat), 100.0);
        assert_eq!(p50(&lat), 100.0);
        assert_eq!(per_second(&lat), 10_000.0);
        // Fewer samples than a chunk: plain statistics over all of them.
        let few: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p99(&few), 99.0);
        assert_eq!(p50(&few), 50.0);
    }
}
