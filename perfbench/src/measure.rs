//! Clocks, counters and statistics the workloads share: the seeded
//! input generator, process CPU and peak memory from `/proc`, and
//! percentiles.

use std::time::Instant;

/// SplitMix64: a tiny seeded generator, so the same `--seed` always
/// produces the same interaction script.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so workloads
    /// drawing from one seed do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i32, hi: i32) -> i32 {
        lo + self.below((hi - lo + 1) as usize) as i32
    }

    /// One element of a non-empty slice.
    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// User+system CPU of the whole process (every thread), nanoseconds,
/// from `/proc/self/stat` (clock ticks of 1/100 s).
pub fn process_cpu_ns() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12)) * 10_000_000
}

/// CPU time of the calling thread, nanoseconds, from
/// `/proc/thread-self/schedstat`.
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size (`VmHWM`), megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The nearest-rank `q` quantile of `values` (`0 < q <= 1`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Process CPU over a timed phase, minus what the benchmark's thread
/// spends outside the timed interactions (correctness checks and
/// bookkeeping between them).
#[derive(Debug)]
pub struct CpuMeter {
    process_start: u64,
    outside_ns: u64,
    mark: Option<u64>,
}

impl CpuMeter {
    /// Starts metering at the beginning of a timed phase.
    pub fn start() -> CpuMeter {
        CpuMeter {
            process_start: process_cpu_ns(),
            outside_ns: 0,
            mark: None,
        }
    }

    /// Marks the end of a timed interaction: what follows is excluded.
    pub fn pause(&mut self) {
        self.mark = Some(thread_cpu_ns());
    }

    /// Marks the start of the next timed interaction.
    pub fn resume(&mut self) {
        if let Some(m) = self.mark.take() {
            self.outside_ns += thread_cpu_ns().saturating_sub(m);
        }
    }

    /// CPU seconds attributed to the timed interactions.
    pub fn finish(mut self) -> f64 {
        self.resume();
        let total = process_cpu_ns().saturating_sub(self.process_start);
        total.saturating_sub(self.outside_ns) as f64 / 1e9
    }
}

/// Nominal time of one [`reference_pass_us`] on an idle 2-vCPU x86-64
/// host, microseconds: the speed every timing is scaled to.
pub const REFERENCE_US: f64 = 3_000.0;

/// One pass of the host-speed reference, microseconds: fixed work
/// written in the benchmark itself, so no change to the program moves
/// it. The host this benchmark was tuned on changes speed by up to 60%
/// within minutes (vCPU steal stays near zero, so the cores themselves
/// slow down, as when a neighbour shares them), and the workloads slow
/// with it. Of the kernels tried (pixel scaling and dithering, streaming
/// and random memory access, copies, heap churn, an ordered map), heap
/// churn and an ordered map's pointer chasing and branches tracked the
/// workloads' median latency best. Every allocation stays below glibc's
/// smallest mmap threshold (128 KiB): larger ones take the mmap path or
/// not depending on what the workload freed before, which made the pass
/// time depend on the workload instead of the host.
pub fn reference_pass_us() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut next = || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x >> 32
    };
    let mut acc = 0u64;
    for _ in 0..300 {
        let n = 512 + (next() & 0x3fff) as usize * 4;
        let mut v = vec![0u8; n];
        for (i, b) in v.iter_mut().enumerate().step_by(7) {
            *b = i as u8;
        }
        let w = v.clone();
        acc += w.iter().step_by(13).map(|&b| u64::from(b)).sum::<u64>();
    }
    let mut map = std::collections::BTreeMap::new();
    for i in 0..20_000u64 {
        let k = next() >> 16;
        match k % 5 {
            0 => {
                map.insert(k, i);
            }
            1 => acc += map.get(&(k ^ 1)).copied().unwrap_or(3),
            2 => {
                map.remove(&k.wrapping_sub(7));
            }
            _ => acc += map.range(k..).next().map_or(1, |(a, b)| a ^ b),
        }
    }
    std::hint::black_box(acc);
    elapsed_us(t0)
}

/// The factor that scales a time measured alongside `passes` (reference
/// pass times, microseconds) to the reference host speed:
/// [`REFERENCE_US`] over their median.
pub fn speed_scale(passes: &[f64]) -> f64 {
    REFERENCE_US / median(passes)
}

/// Wall-clock stopwatch in microseconds.
pub fn elapsed_us(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(3, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut r = Rng::new(3, 1);
        let mut s = Rng::new(4, 1);
        assert_ne!(r.next_u64(), s.next_u64());
        for _ in 0..100 {
            let v = r.range(-2, 2);
            assert!((-2..=2).contains(&v));
        }
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn proc_readers_report_this_process() {
        assert!(peak_rss_mb() > 0.0);
        let t = thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(thread_cpu_ns() > t, "{x}");
    }
}
