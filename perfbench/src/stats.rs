//! The benchmark's own arithmetic: percentiles that refuse to report a
//! tail the sample cannot support, plain summaries, a seeded generator
//! and order-insensitive result fingerprints.

/// The nearest-rank `p`-percentile of `samples` (any order), or `None`
/// when fewer than ten samples lie beyond it — a tail read off fewer
/// points is one or two outliers, not a percentile.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..1.0).contains(&p), "percentile {p} outside [0, 1)");
    let n = samples.len();
    // Nearest rank: the smallest sample with at least p·n samples at or
    // below it.
    let rank = ((p * n as f64 - 1e-9).ceil() as usize).max(1);
    if n < rank + 10 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The plain median of a non-empty sample (no tail rule: used for
/// summaries of a handful of repeated set-ups).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The median of the faster half of `samples` (the lower half, rounded
/// up): cold first set-ups and ones a slow stretch of the host hits fall
/// out.
pub fn faster_half_median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    median(&sorted[..sorted.len().div_ceil(2)])
}

/// The median, or 0 for a layer that did no work in this workload.
pub fn median_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// SplitMix64: the workload generator. Every input a run feeds the
/// program derives from the `--seed` argument through one of these.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Order-insensitive fingerprint of a set of ids: count plus a wrapping
/// sum of mixed ids. Two result sets agree on it exactly when they agree
/// as sets, up to a 2^-64 collision chance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Fingerprint {
    count: u64,
    sum: u64,
}

impl Fingerprint {
    pub fn add(&mut self, id: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(Rng::new(id).next_u64());
    }

    pub fn of(ids: impl IntoIterator<Item = u64>) -> Self {
        let mut f = Fingerprint::default();
        for id in ids {
            f.add(id);
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000: rank 990, exactly ten samples beyond.
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v[..999], 0.99), None);
        assert_eq!(percentile(&v[..100], 0.90), Some(90.0));
        assert_eq!(percentile(&v[..99], 0.90), None);
        assert_eq!(percentile(&v[..20], 0.50), Some(10.0));
        assert_eq!(percentile(&v[..19], 0.50), None);
        assert_eq!(percentile(&[], 0.50), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut rng = Rng::new(7);
        let mut v: Vec<f64> = (0..500).map(f64::from).collect();
        for i in (1..v.len()).rev() {
            v.swap(i, rng.below(i + 1));
        }
        assert_eq!(percentile(&v, 0.5), Some(249.0));
        assert_eq!(percentile(&v, 0.9), Some(449.0));
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn faster_half_median_drops_the_slow_half() {
        assert_eq!(faster_half_median(&[9.0, 1.0, 2.0, 8.0, 3.0]), 2.0);
        assert_eq!(faster_half_median(&[4.0, 1.0, 2.0, 3.0]), 1.5);
    }

    #[test]
    fn fingerprint_is_a_set_fingerprint() {
        assert_eq!(Fingerprint::of([1, 2, 3]), Fingerprint::of([3, 1, 2]));
        assert_ne!(Fingerprint::of([1, 2, 3]), Fingerprint::of([1, 2, 4]));
        assert_ne!(Fingerprint::of([1, 2]), Fingerprint::of([1, 2, 2]));
    }

    #[test]
    fn rng_repeats_per_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(5);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(5);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(Rng::new(5).next_u64(), Rng::new(6).next_u64());
    }
}
