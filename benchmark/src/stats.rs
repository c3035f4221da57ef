//! Exact order statistics over raw samples. Latencies are kept as sorted
//! `u32` nanoseconds and read by nearest rank; `wft_obs::LatencyHistogram`
//! is never used for a reported percentile (its buckets are 25 % wide).

/// Percentiles the report may name, in ascending order.
const LADDER: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p * n` samples at or below it. Panics on an empty slice.
pub fn percentile(sorted: &[u32], p: f64) -> u32 {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank position of `p` among `n`.
fn beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest ladder percentile, at most `cap`, that still has
/// [`MIN_BEYOND`] samples beyond it; `None` when not even the median does.
pub fn supported_percentile(n: usize, cap: f64) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rfind(|&p| p <= cap && n > 0 && beyond(n, p) >= MIN_BEYOND)
}

/// Pooled raw samples of one operation class.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<u32>);

impl Samples {
    pub fn from_pooled<'a>(parts: impl IntoIterator<Item = &'a Vec<u32>>) -> Samples {
        let mut all: Vec<u32> = parts.into_iter().flatten().copied().collect();
        all.sort_unstable();
        Samples(all)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Exact percentile in microseconds; `None` without samples.
    pub fn us(&self, p: f64) -> Option<f64> {
        (!self.0.is_empty()).then(|| percentile(&self.0, p) as f64 / 1e3)
    }

    /// `(percentile, value in µs)` for the highest percentile at most `cap`
    /// that the sample count supports, falling back to the median.
    pub fn tail_us(&self, cap: f64) -> Option<(f64, f64)> {
        let p = supported_percentile(self.0.len(), cap).unwrap_or(0.5);
        self.us(p).map(|v| (p, v))
    }

    pub fn max_us(&self) -> Option<f64> {
        self.0.last().map(|&v| v as f64 / 1e3)
    }

    pub fn mean_us(&self) -> Option<f64> {
        (!self.0.is_empty())
            .then(|| self.0.iter().map(|&v| v as f64).sum::<f64>() / self.0.len() as f64 / 1e3)
    }
}

/// Median of unsorted values (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Oracle: count, over the sorted vector, how many samples are at or
    /// below each candidate and pick the first that covers `p * n`.
    fn oracle(sorted: &[u32], p: f64) -> u32 {
        let need = p * sorted.len() as f64;
        *sorted
            .iter()
            .find(|&&x| sorted.iter().filter(|&&y| y <= x).count() as f64 >= need)
            .unwrap()
    }

    #[test]
    fn percentile_matches_sorted_vector_oracle() {
        let mut rng = Rng::stream(1, 0);
        for n in [1usize, 2, 3, 10, 11, 100, 1000, 1234] {
            let mut v: Vec<u32> = (0..n).map(|_| rng.below(500) as u32).collect();
            v.sort_unstable();
            for p in [0.01, 0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(percentile(&v, p), oracle(&v, p), "n={n} p={p}");
            }
        }
    }

    #[test]
    fn reported_tail_keeps_ten_samples_beyond() {
        // 19 samples: rank(0.5) = 10, nine beyond -> nothing supported.
        assert_eq!(supported_percentile(19, 1.0), None);
        // 20 samples: rank 10, ten beyond.
        assert_eq!(supported_percentile(20, 1.0), Some(0.5));
        assert_eq!(supported_percentile(99, 1.0), Some(0.5));
        assert_eq!(supported_percentile(100, 1.0), Some(0.9));
        assert_eq!(supported_percentile(999, 1.0), Some(0.9));
        assert_eq!(supported_percentile(1000, 1.0), Some(0.99));
        assert_eq!(supported_percentile(10_000, 1.0), Some(0.999));
        assert_eq!(supported_percentile(100_000, 1.0), Some(0.9999));
        // The cap names the metric's percentile; more samples never raise it.
        assert_eq!(supported_percentile(100_000, 0.99), Some(0.99));
        // Against the oracle: whatever is reported has >= 10 strictly later
        // positions in the sorted vector.
        for n in 1..3000usize {
            if let Some(p) = supported_percentile(n, 1.0) {
                let rank = (p * n as f64).ceil() as usize;
                assert!(n - rank >= MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
