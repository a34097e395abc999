//! Exact latency recording.
//!
//! Every recorded value is kept, so a percentile is an actual sample
//! (nearest rank), not a bucket edge: the relative error is zero, far
//! inside the 1% the benchmark's bounds need. The hot loops record only
//! every k-th operation, which keeps the sample vectors small and the
//! two `Instant::now()` reads off most operations.

/// Percentiles tried, highest first, when reporting the tail a sample
/// set supports.
const TAILS: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// A growable set of exact samples (nanoseconds, or any unit).
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<u64>,
    sorted: bool,
}

/// What a sample set supports: its median, the highest percentile with
/// at least ten samples beyond it, and the count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p50: u64,
    /// The highest of [`TAILS`] with ≥ 10 samples strictly beyond its rank.
    pub tail_pct: f64,
    pub tail: u64,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn with_capacity(n: usize) -> Self {
        Samples {
            values: Vec::with_capacity(n),
            sorted: false,
        }
    }

    #[inline]
    pub fn push(&mut self, v: u64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_unstable();
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile: the smallest sample with at least `p`%
    /// of the samples at or below it. 0 for an empty set.
    pub fn percentile(&mut self, p: f64) -> u64 {
        if self.values.is_empty() {
            return 0;
        }
        self.sort();
        self.values[rank(self.values.len(), p) - 1]
    }

    /// True when at least ten samples lie beyond the `p`-th percentile's
    /// rank, i.e. the percentile is resolved by the data.
    pub fn supports(&self, p: f64) -> bool {
        let n = self.values.len();
        n > 0 && n - rank(n, p) >= 10
    }

    pub fn summary(&mut self) -> Summary {
        let p50 = self.percentile(50.0);
        let tail_pct = TAILS
            .iter()
            .copied()
            .find(|&p| self.supports(p))
            .unwrap_or(50.0);
        Summary {
            count: self.values.len(),
            p50,
            tail_pct,
            tail: self.percentile(tail_pct),
        }
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float error (99.9 / 100 · 1000 = 999.0000000000001)
    // from pushing an exact rank up by one.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Median of a small set of per-round figures (mean of the middle two
/// for an even count). 0 for an empty set.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: impl IntoIterator<Item = u64>) -> Samples {
        let mut s = Samples::new();
        for v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn percentiles_are_exact_samples() {
        // 1..=1000 shuffled: the p-th percentile is exactly 10·p.
        let mut s = samples((1..=1000u64).map(|i| (i * 7919) % 1000 + 1));
        assert_eq!(s.percentile(50.0), 500);
        assert_eq!(s.percentile(99.0), 990);
        assert_eq!(s.percentile(99.9), 999);
        assert_eq!(s.percentile(100.0), 1000);
        assert_eq!(s.percentile(0.0), 1);
    }

    #[test]
    fn summary_reports_the_highest_supported_tail() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        let mut s = samples(1..=1000);
        let sum = s.summary();
        assert_eq!(sum.count, 1000);
        assert_eq!(sum.p50, 500);
        assert_eq!(sum.tail_pct, 99.0);
        assert_eq!(sum.tail, 990);
        // 999 samples: p99 leaves 9 beyond, so p90 is the supported tail.
        let mut s = samples(1..=999);
        let sum = s.summary();
        assert_eq!(sum.tail_pct, 90.0);
        assert_eq!(sum.tail, 900);
        // 10 000 samples resolve p99.9 but not p99.99.
        let sum = samples(1..=10_000).summary();
        assert_eq!(sum.tail_pct, 99.9);
        assert_eq!(sum.tail, 9_990);
    }

    #[test]
    fn small_and_empty_sets() {
        let mut s = Samples::new();
        assert_eq!(s.percentile(50.0), 0);
        s.push(42);
        assert_eq!(s.percentile(50.0), 42);
        assert_eq!(s.percentile(99.0), 42);
        assert_eq!(s.summary().tail_pct, 50.0);
    }

    #[test]
    fn extend_pools_rounds() {
        let mut a = samples(1..=500);
        a.extend(&samples(501..=1000));
        assert_eq!(a.percentile(50.0), 500);
        assert_eq!(a.summary().count, 1000);
    }

    #[test]
    fn median_of_rounds() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
