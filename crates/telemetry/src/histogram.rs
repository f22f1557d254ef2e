//! Fixed-bucket latency/size histograms with deterministic quantiles.
//!
//! Buckets are power-of-two ranges: bucket 0 holds the value `0`,
//! bucket `k` (k ≥ 1) holds `[2^(k-1), 2^k - 1]`. The layout is fixed at
//! compile time, so recording is a bucket increment and two runs
//! that record the same values produce identical snapshots — no
//! adaptive resizing, no sampling.
//!
//! Quantiles are reported as the **upper bound of the bucket containing
//! the quantile rank**, clamped into `[min, max]` of the recorded
//! values. That makes `min ≤ p50 ≤ p95 ≤ p99 ≤ max` hold exactly (see
//! the property tests) while every reported number stays an integer —
//! canonical JSON never carries a float.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of buckets: one for zero plus one per power of two.
pub const BUCKETS: usize = 65;

/// Index of the bucket holding `v`.
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i`.
pub fn bucket_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

#[derive(Debug)]
struct Core {
    /// Observations per bucket; their total is the count.
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Core {
    fn default() -> Core {
        Core {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// A handle onto one registered histogram. Cloning shares the cells;
/// recording is lock-free.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    core: Arc<Core>,
}

impl Histogram {
    /// A detached histogram (normally obtained from a registry).
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation: two atomic additions, and a third
    /// read-modify-write only when `v` is a new minimum or maximum. The
    /// minimum only falls and the maximum only rises, so a value that
    /// is not beyond the extreme a plain load reads cannot be beyond the
    /// final one either.
    pub fn record(&self, v: u64) {
        let c = &self.core;
        c.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
        if v < c.min.load(Ordering::Relaxed) {
            c.min.fetch_min(v, Ordering::Relaxed);
        }
        if v > c.max.load(Ordering::Relaxed) {
            c.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Observations recorded so far: the buckets' total.
    pub fn count(&self) -> u64 {
        self.core
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }

    /// A consistent point-in-time view (quantiles computed here).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let c = &self.core;
        let buckets: Vec<u64> = c
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = buckets.iter().sum();
        let min = if count == 0 {
            0
        } else {
            c.min.load(Ordering::Relaxed)
        };
        let max = c.max.load(Ordering::Relaxed);
        let quantile = |q_num: u64, q_den: u64| -> u64 {
            if count == 0 {
                return 0;
            }
            // rank = ceil(count * q), 1-based.
            let rank = (count * q_num).div_ceil(q_den).clamp(1, count);
            let mut seen = 0u64;
            for (i, &n) in buckets.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    return bucket_bound(i).clamp(min, max);
                }
            }
            max
        };
        HistogramSnapshot {
            count,
            sum: c.sum.load(Ordering::Relaxed),
            min,
            max,
            p50: quantile(1, 2),
            p95: quantile(19, 20),
            p99: quantile(99, 100),
            buckets: buckets
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(i, &n)| (bucket_bound(i), n))
                .collect(),
        }
    }
}

/// Point-in-time view of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Median estimate (bucket upper bound, clamped to `[min, max]`).
    pub p50: u64,
    /// 95th percentile estimate.
    pub p95: u64,
    /// 99th percentile estimate.
    pub p99: u64,
    /// Non-empty buckets as `(inclusive upper bound, count)`, in
    /// ascending bound order.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean of the recorded values, rounded down (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!(
            (s.count, s.sum, s.min, s.max, s.p50, s.p95, s.p99),
            (0, 0, 0, 0, 0, 0, 0)
        );
        assert!(s.buckets.is_empty());
    }

    #[test]
    fn single_value_pins_all_quantiles() {
        let h = Histogram::new();
        h.record(777);
        let s = h.snapshot();
        assert_eq!((s.min, s.max), (777, 777));
        assert_eq!((s.p50, s.p95, s.p99), (777, 777, 777));
        assert_eq!(s.mean(), 777);
    }

    #[test]
    fn bucket_layout_is_power_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(1), 1);
        assert_eq!(bucket_bound(2), 3);
        assert_eq!(bucket_bound(64), u64::MAX);
    }

    #[test]
    fn quantiles_are_ordered() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 100, 5000, 5000, 80000, 3, 9, 0] {
            h.record(v);
        }
        let s = h.snapshot();
        assert!(s.min <= s.p50 && s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
        assert_eq!(s.count, 10);
    }

    #[test]
    fn clones_share_cells() {
        let h = Histogram::new();
        let h2 = h.clone();
        h.record(5);
        h2.record(6);
        assert_eq!(h.count(), 2);
    }
}
