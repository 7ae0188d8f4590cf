//! Sampling distributions.
//!
//! HLISA draws interaction noise from normal distributions parametrised by
//! the paper's measurements (§4.1: click placement, key dwell times, scroll
//! pauses). `rand` 0.8 without `rand_distr` only offers uniform sampling, so
//! the normal variants are implemented here via the Marsaglia polar method.

use rand::Rng;

/// A normal (Gaussian) distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Creates a normal distribution.
    ///
    /// # Panics
    /// Panics if `std_dev` is negative or not finite.
    pub fn new(mean: f64, std_dev: f64) -> Self {
        assert!(
            std_dev.is_finite() && std_dev >= 0.0,
            "std_dev must be finite and non-negative, got {std_dev}"
        );
        assert!(mean.is_finite(), "mean must be finite");
        Self { mean, std_dev }
    }

    /// The distribution mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The distribution standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Draws one sample using the Marsaglia polar method.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.std_dev == 0.0 {
            return self.mean;
        }
        // Marsaglia polar: rejection-sample a point in the unit disc.
        loop {
            let u: f64 = rng.gen_range(-1.0..1.0);
            let v: f64 = rng.gen_range(-1.0..1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let factor = (-2.0 * s.ln() / s).sqrt();
                return self.mean + self.std_dev * u * factor;
            }
        }
    }

    /// Fills `out` with samples, bit-identical to calling [`Normal::sample`]
    /// once per slot (same values, same RNG draw sequence).
    ///
    /// The polar method splits into two phases per chunk: a rejection phase
    /// that only touches the RNG and stores the accepted `(u, s)` pairs, and
    /// a transform phase that runs the `ln`/`sqrt` arithmetic over the dense
    /// accepted block. The draws are interleaved identically to the one-shot
    /// path (each slot's rejection loop runs to acceptance before the next
    /// slot draws), so stream state after the fill matches a per-sample loop
    /// exactly; only the transform is hoisted out of the draw loop, which
    /// keeps the RNG hot in the rejection phase and lets the compiler
    /// pipeline the `ln` chain in the transform phase.
    pub fn fill_samples<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        if self.std_dev == 0.0 {
            out.fill(self.mean);
            return;
        }
        const CHUNK: usize = 64;
        let mut us = [0.0f64; CHUNK];
        let mut ss = [0.0f64; CHUNK];
        for block in out.chunks_mut(CHUNK) {
            // Phase A: rejection-only. Exactly the draws `sample` would make,
            // in the same order; accepted pairs land densely in `us`/`ss`.
            for slot in 0..block.len() {
                loop {
                    let u: f64 = rng.gen_range(-1.0..1.0);
                    let v: f64 = rng.gen_range(-1.0..1.0);
                    let s = u * u + v * v;
                    if s > 0.0 && s < 1.0 {
                        us[slot] = u;
                        ss[slot] = s;
                        break;
                    }
                }
            }
            // Phase B: the same transform expression as `sample`, applied to
            // the dense block. Identical expression => identical bits.
            for (slot, x) in block.iter_mut().enumerate() {
                let (u, s) = (us[slot], ss[slot]);
                let factor = (-2.0 * s.ln() / s).sqrt();
                *x = self.mean + self.std_dev * u * factor;
            }
        }
    }

    /// Probability density at `x`.
    #[cfg(test)]
    pub fn pdf(&self, x: f64) -> f64 {
        if self.std_dev == 0.0 {
            return if x == self.mean { f64::INFINITY } else { 0.0 };
        }
        let z = (x - self.mean) / self.std_dev;
        (-0.5 * z * z).exp() / (self.std_dev * (2.0 * std::f64::consts::PI).sqrt())
    }

    /// Cumulative distribution function at `x`.
    #[cfg(test)]
    pub fn cdf(&self, x: f64) -> f64 {
        if self.std_dev == 0.0 {
            return if x < self.mean { 0.0 } else { 1.0 };
        }
        let z = (x - self.mean) / (self.std_dev * std::f64::consts::SQRT_2);
        0.5 * (1.0 + erf(z))
    }
}

/// A normal distribution truncated to `[lo, hi]`, sampled by rejection.
///
/// Interaction timings cannot be negative (a key cannot be released before it
/// is pressed), so HLISA truncates every timing distribution at a physically
/// plausible floor instead of clamping — clamping would put a detectable
/// point mass at the boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncatedNormal {
    inner: Normal,
    lo: f64,
    hi: f64,
}

impl TruncatedNormal {
    /// Creates a truncated normal distribution over `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn new(mean: f64, std_dev: f64, lo: f64, hi: f64) -> Self {
        assert!(lo < hi, "invalid truncation interval [{lo}, {hi}]");
        Self {
            inner: Normal::new(mean, std_dev),
            lo,
            hi,
        }
    }

    /// Mean of the underlying (untruncated) normal.
    pub fn mean(&self) -> f64 {
        self.inner.mean()
    }

    /// Standard deviation of the underlying (untruncated) normal.
    pub fn std_dev(&self) -> f64 {
        self.inner.std_dev()
    }

    /// Lower truncation bound.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper truncation bound.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Draws one sample. Falls back to uniform sampling over the interval if
    /// the acceptance region is far in the tail (keeps worst-case cost
    /// bounded while remaining continuous over the support).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        const MAX_REJECTIONS: usize = 64;
        for _ in 0..MAX_REJECTIONS {
            let x = self.inner.sample(rng);
            if x >= self.lo && x <= self.hi {
                return x;
            }
        }
        rng.gen_range(self.lo..self.hi)
    }
}

/// A log-normal distribution: `exp(N(mu, sigma))`.
///
/// Used for heavy-tailed dwell components of the human reference model —
/// human pauses are right-skewed (Chu et al., noted in Appendix F).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    log_inner: Normal,
}

impl LogNormal {
    /// Creates a log-normal distribution with the given log-space parameters.
    pub fn new(mu: f64, sigma: f64) -> Self {
        Self {
            log_inner: Normal::new(mu, sigma),
        }
    }

    /// Creates a log-normal with (approximately) the given real-space mean
    /// and standard deviation.
    pub fn from_mean_std(mean: f64, std_dev: f64) -> Self {
        assert!(mean > 0.0, "log-normal mean must be positive");
        let var = std_dev * std_dev;
        let sigma2 = (1.0 + var / (mean * mean)).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        Self::new(mu, sigma2.sqrt())
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.log_inner.sample(rng).exp()
    }
}

/// Error function approximation (Abramowitz & Stegun 7.1.26, |err| ≤ 1.5e-7).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Standard normal CDF.
pub fn std_normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive::Summary;
    use crate::rngutil::rng_from_seed;

    #[test]
    fn normal_sample_moments() {
        let mut rng = rng_from_seed(1);
        let d = Normal::new(10.0, 2.0);
        let xs: Vec<f64> = (0..50_000).map(|_| d.sample(&mut rng)).collect();
        let s = Summary::of(&xs);
        assert!((s.mean - 10.0).abs() < 0.05, "mean={}", s.mean);
        assert!((s.std_dev - 2.0).abs() < 0.05, "std={}", s.std_dev);
    }

    #[test]
    fn normal_zero_std_is_constant() {
        let mut rng = rng_from_seed(2);
        let d = Normal::new(3.5, 0.0);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 3.5);
        }
    }

    #[test]
    fn fill_samples_matches_per_sample_loop_bit_for_bit() {
        // Values AND post-fill RNG state must match the one-shot path for
        // lengths straddling the internal chunk size (incl. 0 and 1).
        for seed in 0..200u64 {
            for n in [0usize, 1, 3, 63, 64, 65, 128, 200, 500] {
                let d = Normal::new(1.5, 2.25);
                let mut a = rng_from_seed(seed);
                let mut b = rng_from_seed(seed);
                let reference: Vec<f64> = (0..n).map(|_| d.sample(&mut a)).collect();
                let mut filled = vec![0.0; n];
                d.fill_samples(&mut b, &mut filled);
                for (i, (r, f)) in reference.iter().zip(&filled).enumerate() {
                    assert_eq!(r.to_bits(), f.to_bits(), "seed {seed} n {n} slot {i}");
                }
                assert_eq!(
                    a.gen::<u64>(),
                    b.gen::<u64>(),
                    "post-fill RNG state diverged at seed {seed} n {n}"
                );
            }
        }
    }

    #[test]
    fn fill_samples_zero_std_fills_mean_without_draws() {
        let d = Normal::new(3.5, 0.0);
        let mut a = rng_from_seed(7);
        let mut b = rng_from_seed(7);
        let mut out = vec![0.0; 17];
        d.fill_samples(&mut a, &mut out);
        assert!(out.iter().all(|x| *x == 3.5));
        assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "zero-sigma fill drew");
    }

    #[test]
    #[should_panic(expected = "std_dev")]
    fn normal_rejects_negative_std() {
        let _ = Normal::new(0.0, -1.0);
    }

    #[test]
    fn normal_cdf_basics() {
        let d = Normal::new(0.0, 1.0);
        assert!((d.cdf(0.0) - 0.5).abs() < 1e-9);
        assert!(d.cdf(3.0) > 0.998);
        assert!(d.cdf(-3.0) < 0.002);
    }

    #[test]
    fn normal_pdf_peaks_at_mean() {
        let d = Normal::new(5.0, 1.5);
        assert!(d.pdf(5.0) > d.pdf(4.0));
        assert!(d.pdf(5.0) > d.pdf(6.0));
    }

    #[test]
    fn truncated_respects_bounds() {
        let mut rng = rng_from_seed(3);
        let d = TruncatedNormal::new(0.0, 100.0, 10.0, 20.0);
        for _ in 0..5_000 {
            let x = d.sample(&mut rng);
            assert!((10.0..=20.0).contains(&x), "out of range: {x}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid truncation interval")]
    fn truncated_rejects_empty_interval() {
        let _ = TruncatedNormal::new(0.0, 1.0, 5.0, 5.0);
    }

    #[test]
    fn lognormal_is_positive_and_matches_mean() {
        let mut rng = rng_from_seed(4);
        let d = LogNormal::from_mean_std(200.0, 50.0);
        let xs: Vec<f64> = (0..50_000).map(|_| d.sample(&mut rng)).collect();
        assert!(xs.iter().all(|x| *x > 0.0));
        let s = Summary::of(&xs);
        assert!((s.mean - 200.0).abs() < 3.0, "mean={}", s.mean);
    }

    #[test]
    fn erf_reference_values() {
        // erf(0)=0, erf(1)≈0.8427, erf(-1)≈-0.8427, erf(2)≈0.9953
        assert!(erf(0.0).abs() < 1e-6);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-6);
        assert!((erf(2.0) - 0.995_322_27).abs() < 1e-6);
    }
}
