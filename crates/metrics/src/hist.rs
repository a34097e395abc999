//! Sharded log-bucketed latency histogram.
//!
//! Same bucketing scheme as the paper-evaluation harness: each power of
//! two of nanoseconds is split into four sub-buckets (≤ ~19% relative
//! quantile error), covering 1ns .. ~18 minutes in 160 buckets. Each
//! shard is a cache-padded bucket array written with relaxed atomics;
//! the snapshotting reader merges shards.

use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam_utils::CachePadded;
use serde::{Deserialize, Serialize};

use crate::{shard_id, SHARDS};

const SUB_BITS: u32 = 2;
const SUBS: usize = 1 << SUB_BITS;
const POWERS: usize = 40;
const BUCKETS: usize = POWERS * SUBS;

#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUBS as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as u64;
    let power = msb.min(POWERS as u64 - 1);
    let sub = (v >> (power - SUB_BITS as u64)) & (SUBS as u64 - 1);
    (power as usize) * SUBS + sub as usize
}

/// Upper bound of bucket `b` (the value reported for quantiles that land
/// in it).
#[inline]
fn bucket_value(b: usize) -> u64 {
    if b < 2 * SUBS {
        // Buckets below `2 * SUBS` are 1:1 (those in `[SUBS, 2*SUBS)`
        // are never produced by `bucket_of`, which jumps straight from
        // the literal region to power ≥ SUB_BITS).
        return b as u64;
    }
    if b >= BUCKETS - 1 {
        // The final bucket absorbs everything past the covered range.
        return u64::MAX;
    }
    let power = (b / SUBS) as u64;
    let sub = (b % SUBS) as u64 + 1;
    (1u64 << power) + (sub << (power - SUB_BITS as u64)) - 1
}

struct Shard {
    buckets: [AtomicU64; BUCKETS],
    max: AtomicU64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            max: AtomicU64::new(0),
        }
    }
}

/// A concurrent log-bucketed histogram of nanosecond latencies.
pub struct LatencyHistogram {
    shards: Box<[CachePadded<Shard>]>,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    pub fn new() -> Self {
        let shards = (0..SHARDS)
            .map(|_| CachePadded::new(Shard::new()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        LatencyHistogram { shards }
    }

    /// Record one sample (nanoseconds) into this thread's shard.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        let shard = &self.shards[shard_id()];
        shard.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        shard.max.fetch_max(ns, Ordering::Relaxed);
    }

    /// Record a [`std::time::Duration`] sample.
    #[inline]
    pub fn record(&self, d: std::time::Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Total number of recorded samples (exact after writers quiesce).
    pub fn count(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                s.buckets
                    .iter()
                    .map(|b| b.load(Ordering::Relaxed))
                    .sum::<u64>()
            })
            .sum()
    }

    /// Merge all shards into a [`HistogramSnapshot`].
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut merged = [0u64; BUCKETS];
        let mut max = 0u64;
        for s in self.shards.iter() {
            for (m, b) in merged.iter_mut().zip(s.buckets.iter()) {
                *m += b.load(Ordering::Relaxed);
            }
            max = max.max(s.max.load(Ordering::Relaxed));
        }
        let count: u64 = merged.iter().sum();
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = ((count as f64) * q).ceil().max(1.0) as u64;
            let mut seen = 0u64;
            for (b, &n) in merged.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    return bucket_value(b).min(max);
                }
            }
            max
        };
        // Approximate mean from bucket upper bounds (≤ ~19% high).
        let mean = if count == 0 {
            0.0
        } else {
            merged
                .iter()
                .enumerate()
                .map(|(b, &n)| (bucket_value(b).min(max) as f64) * n as f64)
                .sum::<f64>()
                / count as f64
        };
        HistogramSnapshot {
            count,
            mean_ns: mean,
            p50_ns: quantile(0.50),
            p90_ns: quantile(0.90),
            p95_ns: quantile(0.95),
            p99_ns: quantile(0.99),
            p999_ns: quantile(0.999),
            max_ns: max,
        }
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LatencyHistogram(count={})", self.count())
    }
}

/// Merged percentile view of a [`LatencyHistogram`]. All latencies in
/// nanoseconds; quantiles are bucket upper bounds (≤ ~19% relative
/// error), clamped to the exact observed max.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub mean_ns: f64,
    pub p50_ns: u64,
    pub p90_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    pub p999_ns: u64,
    pub max_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone() {
        let mut prev = 0;
        for v in [0u64, 1, 3, 4, 5, 8, 100, 1_000, 1 << 20, u64::MAX >> 2] {
            let b = bucket_of(v);
            assert!(b >= prev || v < 4, "bucket order at {v}");
            assert!(bucket_value(b) >= v, "upper bound at {v}: {}", bucket_value(b));
            prev = b;
        }
    }

    #[test]
    fn quantiles_bound_samples() {
        let h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record_ns(i * 1000);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert!(s.p50_ns >= 500_000 && s.p50_ns <= 650_000, "{}", s.p50_ns);
        assert!(s.p99_ns >= 990_000, "{}", s.p99_ns);
        assert_eq!(s.max_ns, 1_000_000);
        assert!(s.p999_ns <= s.max_ns);
    }

    #[test]
    fn monotone_quantiles() {
        let h = LatencyHistogram::new();
        let mut x = 1u64;
        for _ in 0..1000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record_ns(x % 10_000_000);
        }
        let s = h.snapshot();
        let qs = [s.p50_ns, s.p90_ns, s.p95_ns, s.p99_ns, s.p999_ns, s.max_ns];
        assert!(
            qs.windows(2).all(|w| w[0] <= w[1]),
            "quantiles regress: {qs:?}"
        );
    }

    #[test]
    fn concurrent_recording_counts_everything() {
        let h = std::sync::Arc::new(LatencyHistogram::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record_ns(i);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 40_000);
        assert_eq!(h.snapshot().count, 40_000);
    }

    #[test]
    fn empty_snapshot_is_zero() {
        let s = LatencyHistogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.max_ns, 0);
        assert_eq!(s.p99_ns, 0);
    }
}
