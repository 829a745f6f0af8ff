//! Seeded input generation and order statistics.

/// SplitMix64: a small seeded generator, so every input depends only on
/// the workload seed and the request index.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// Independent stream `stream` of `seed` (one per request, so any
    /// request's payload can be regenerated on its own for checking).
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Nearest-rank index of quantile `q` in a sorted sample of `n`.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank quantile `q` in `[0, 1]` of a non-empty sample, by
/// selection rather than a full sort.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    let k = rank(v.len(), q);
    *v.select_nth_unstable_by(k, f64::total_cmp).1
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_matches_an_exact_sort_on_seeded_samples() {
        for seed in 0..20u64 {
            let mut rng = Rng::stream(seed, 7);
            let n = 1 + rng.below(2000);
            // Heavy-tailed, with ties: the shape of request latencies.
            let sample: Vec<f64> = (0..n)
                .map(|_| (1.0 / (1.0 - rng.unit())).ln().mul_add(3.0, 1.0).floor())
                .collect();
            let mut sorted = sample.clone();
            sorted.sort_by(f64::total_cmp);
            for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let exact = sorted[((q * n as f64).ceil() as usize).max(1) - 1];
                assert_eq!(quantile(&sample, q), exact, "seed {seed} n {n} q {q}");
            }
        }
    }

    #[test]
    fn streams_repeat_and_differ() {
        let a: Vec<u64> = (0..4).map(|_| Rng::stream(1, 2).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::stream(1, 2).next_u64(), Rng::stream(1, 3).next_u64());
        assert_ne!(Rng::stream(1, 2).next_u64(), Rng::stream(2, 2).next_u64());
    }
}
