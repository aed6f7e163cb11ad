//! Parametric distributions for workload modeling.
//!
//! Workload-modeling literature (Feitelson's archive documentation, the
//! Lublin-Feitelson model) describes runtimes, inter-arrival gaps, and
//! sizes with a small family of distributions. Samplers take uniform
//! variates from a caller-supplied source so this crate stays free of RNG
//! dependencies and samples stay reproducible by construction.

use std::f64::consts::TAU;

/// A source of uniform variates in `[0, 1)`.
///
/// Blanket-implemented for closures; `resmatch-workload` adapts its seeded
/// RNG through this trait.
pub trait UniformSource {
    /// Next uniform variate in `[0, 1)`.
    fn uniform(&mut self) -> f64;
}

impl<F: FnMut() -> f64> UniformSource for F {
    fn uniform(&mut self) -> f64 {
        self().clamp(0.0, 1.0 - f64::EPSILON)
    }
}

/// Standard normal via Box-Muller (one variate per call, two uniforms).
pub fn sample_standard_normal(src: &mut impl UniformSource) -> f64 {
    let u1 = src.uniform().max(1e-300);
    let u2 = src.uniform();
    (-2.0 * u1.ln()).sqrt() * (TAU * u2).cos()
}

/// Exponential distribution with the given rate `λ > 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    /// Rate parameter.
    pub rate: f64,
}

impl Exponential {
    /// Construct; panics unless `rate > 0`.
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        Exponential { rate }
    }

    /// Mean `1/λ`.
    pub fn mean(&self) -> f64 {
        1.0 / self.rate
    }

    /// Inverse-transform sample.
    pub fn sample(&self, src: &mut impl UniformSource) -> f64 {
        -(1.0 - src.uniform()).ln() / self.rate
    }
}

/// Log-normal distribution: `exp(N(mu, sigma²))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    /// Mean of the underlying normal.
    pub mu: f64,
    /// Standard deviation of the underlying normal (> 0).
    pub sigma: f64,
}

impl LogNormal {
    /// Construct; panics unless `sigma > 0`.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma > 0.0 && sigma.is_finite(), "sigma must be positive");
        LogNormal { mu, sigma }
    }

    /// Construct from a target median and multiplicative spread
    /// (`sigma` in log-space), the natural parameterization for runtimes.
    pub fn from_median(median: f64, sigma: f64) -> Self {
        assert!(median > 0.0, "median must be positive");
        LogNormal::new(median.ln(), sigma)
    }

    /// Distribution mean `exp(mu + sigma²/2)`.
    pub fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }

    /// Median `exp(mu)`.
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }

    /// Sample.
    pub fn sample(&self, src: &mut impl UniformSource) -> f64 {
        (self.mu + self.sigma * sample_standard_normal(src)).exp()
    }
}

/// Weibull distribution with shape `k` and scale `λ` — heavy-tailed for
/// `k < 1`, the classic fit for parallel-job inter-arrival burstiness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    /// Shape parameter (> 0).
    pub shape: f64,
    /// Scale parameter (> 0).
    pub scale: f64,
}

impl Weibull {
    /// Construct; panics unless both parameters are positive.
    pub fn new(shape: f64, scale: f64) -> Self {
        assert!(shape > 0.0 && scale > 0.0, "parameters must be positive");
        Weibull { shape, scale }
    }

    /// Inverse-transform sample: `λ(-ln(1-u))^(1/k)`.
    pub fn sample(&self, src: &mut impl UniformSource) -> f64 {
        self.scale * (-(1.0 - src.uniform()).ln()).powf(1.0 / self.shape)
    }

    /// CDF at `x >= 0`.
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            1.0 - (-(x / self.scale).powf(self.shape)).exp()
        }
    }
}

/// Gamma distribution (shape `k > 0`, scale `θ > 0`) via Marsaglia-Tsang
/// squeeze sampling (with the boost trick for `k < 1`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    /// Shape parameter.
    pub shape: f64,
    /// Scale parameter.
    pub scale: f64,
}

impl Gamma {
    /// Construct; panics unless both parameters are positive.
    pub fn new(shape: f64, scale: f64) -> Self {
        assert!(shape > 0.0 && scale > 0.0, "parameters must be positive");
        Gamma { shape, scale }
    }

    /// Mean `kθ`.
    pub fn mean(&self) -> f64 {
        self.shape * self.scale
    }

    /// Sample.
    pub fn sample(&self, src: &mut impl UniformSource) -> f64 {
        if self.shape < 1.0 {
            // Boost: Gamma(k) = Gamma(k+1) * U^(1/k).
            let boosted = Gamma::new(self.shape + 1.0, self.scale).sample(src);
            let u = src.uniform().max(1e-300);
            return boosted * u.powf(1.0 / self.shape);
        }
        let d = self.shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = sample_standard_normal(src);
            let v = 1.0 + c * x;
            if v <= 0.0 {
                continue;
            }
            let v3 = v * v * v;
            let u = src.uniform().max(1e-300);
            if u.ln() < 0.5 * x * x + d - d * v3 + d * v3.ln() {
                return d * v3 * self.scale;
            }
        }
    }
}

/// Truncated discrete Zipf over `1..=n` with exponent `s`, sampled by
/// precomputed inverse CDF — the shape of per-user activity and class-size
/// distributions in workload traces.
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Construct; panics when `n == 0` or `s` is not finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "support must be non-empty");
        assert!(s.is_finite(), "exponent must be finite");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            cdf.push(acc);
        }
        #[expect(
            clippy::expect_used,
            reason = "invariant: `n > 0` is asserted above, so the CDF is non-empty"
        )]
        let total = *cdf.last().expect("n > 0");
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Sample a value in `1..=n`.
    pub fn sample(&self, src: &mut impl UniformSource) -> usize {
        let u = src.uniform();
        self.cdf.partition_point(|&c| c < u) + 1
    }

    /// Probability mass at `k` (1-based).
    pub fn pmf(&self, k: usize) -> f64 {
        assert!(k >= 1 && k <= self.cdf.len(), "k out of support");
        if k == 1 {
            self.cdf[0]
        } else {
            self.cdf[k - 1] - self.cdf[k - 2]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic uniform source for tests (SplitMix64-based).
    struct TestSource(u64);

    impl UniformSource for TestSource {
        fn uniform(&mut self) -> f64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    fn mean_of(n: usize, mut f: impl FnMut() -> f64) -> f64 {
        (0..n).map(|_| f()).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_mean_converges() {
        let d = Exponential::new(0.25);
        let mut src = TestSource(1);
        let m = mean_of(50_000, || d.sample(&mut src));
        assert!((m - d.mean()).abs() / d.mean() < 0.03, "mean {m}");
    }

    #[test]
    fn lognormal_median_and_mean() {
        let d = LogNormal::from_median(600.0, 1.3);
        assert!((d.median() - 600.0).abs() < 1e-9);
        let mut src = TestSource(2);
        let samples: Vec<f64> = (0..50_000).map(|_| d.sample(&mut src)).collect();
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = sorted[sorted.len() / 2];
        assert!((med - 600.0).abs() / 600.0 < 0.05, "median {med}");
        let m = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!(
            (m - d.mean()).abs() / d.mean() < 0.10,
            "mean {m} vs {}",
            d.mean()
        );
    }

    #[test]
    fn weibull_cdf_matches_samples() {
        let d = Weibull::new(0.7, 100.0);
        let mut src = TestSource(3);
        let n = 40_000;
        let below: usize = (0..n).filter(|_| d.sample(&mut src) < 100.0).count();
        let expected = d.cdf(100.0);
        assert!(
            (below as f64 / n as f64 - expected).abs() < 0.02,
            "empirical {} vs cdf {expected}",
            below as f64 / n as f64
        );
        assert_eq!(d.cdf(0.0), 0.0);
        assert!(d.cdf(f64::INFINITY) <= 1.0);
    }

    #[test]
    fn gamma_mean_converges_for_large_and_small_shape() {
        for shape in [0.5, 2.5] {
            let d = Gamma::new(shape, 3.0);
            let mut src = TestSource(4);
            let m = mean_of(60_000, || d.sample(&mut src));
            assert!(
                (m - d.mean()).abs() / d.mean() < 0.05,
                "shape {shape}: mean {m} vs {}",
                d.mean()
            );
        }
    }

    #[test]
    fn gamma_samples_positive() {
        let d = Gamma::new(0.3, 1.0);
        let mut src = TestSource(5);
        for _ in 0..1_000 {
            assert!(d.sample(&mut src) >= 0.0);
        }
    }

    #[test]
    fn zipf_pmf_sums_to_one_and_is_monotone() {
        let z = Zipf::new(50, 1.4);
        let total: f64 = (1..=50).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        for k in 1..50 {
            assert!(z.pmf(k) >= z.pmf(k + 1));
        }
    }

    #[test]
    fn zipf_sampling_matches_pmf() {
        let z = Zipf::new(10, 1.0);
        let mut src = TestSource(6);
        let n = 100_000;
        let mut counts = [0usize; 10];
        for _ in 0..n {
            counts[z.sample(&mut src) - 1] += 1;
        }
        for k in 1..=10 {
            let emp = counts[k - 1] as f64 / n as f64;
            assert!(
                (emp - z.pmf(k)).abs() < 0.01,
                "k={k}: empirical {emp} vs pmf {}",
                z.pmf(k)
            );
        }
    }

    #[test]
    fn normal_moments() {
        let mut src = TestSource(7);
        let samples: Vec<f64> = (0..80_000)
            .map(|_| sample_standard_normal(&mut src))
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>()
            / (samples.len() - 1) as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "variance {var}");
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn exponential_validates() {
        let _ = Exponential::new(0.0);
    }

    #[test]
    #[should_panic(expected = "parameters must be positive")]
    fn weibull_validates() {
        let _ = Weibull::new(-1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "k out of support")]
    fn zipf_pmf_bounds() {
        let _ = Zipf::new(5, 1.0).pmf(6);
    }
}
