//! Descriptive statistics over `f64` slices.

/// Summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean (0 for empty samples).
    pub mean: f64,
    /// Sample standard deviation (n-1 denominator; 0 if n < 2).
    pub std_dev: f64,
    /// Minimum (0 for empty samples).
    pub min: f64,
    /// Maximum (0 for empty samples).
    pub max: f64,
    /// Median.
    pub median: f64,
}

impl Summary {
    /// Computes summary statistics of `xs`.
    pub fn of(xs: &[f64]) -> Self {
        if xs.is_empty() {
            return Self {
                n: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
                median: 0.0,
            };
        }
        let n = xs.len();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        Self {
            n,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
            median: percentile_sorted(&sorted, 50.0),
        }
    }
}

/// Returns the `p`-th percentile (0–100) of `xs` (need not be sorted).
#[cfg(test)]
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    percentile_sorted(&sorted, p)
}

/// Percentile of an already-sorted slice using linear interpolation.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    if sorted.is_empty() {
        return 0.0;
    }
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Sample standard deviation (n-1); 0 if fewer than two observations.
pub fn std_dev(xs: &[f64]) -> f64 {
    Summary::of(xs).std_dev
}

/// Pearson correlation coefficient of two equal-length samples.
///
/// Returns 0 when either sample has zero variance. The arms-race L3 detector
/// uses correlation to test behavioural *consistency* (e.g. movement speed vs
/// click accuracy, §4.2).
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "samples must be paired");
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for i in 0..n {
        let dx = xs[i] - mx;
        let dy = ys[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        0.0
    } else {
        sxy / (sxx.sqrt() * syy.sqrt())
    }
}

/// Coefficient of variation (std/mean); 0 for mean 0.
pub fn coefficient_of_variation(xs: &[f64]) -> f64 {
    let s = Summary::of(xs);
    if s.mean == 0.0 {
        0.0
    } else {
        s.std_dev / s.mean.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_simple() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.n, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!((s.std_dev - (2.5f64).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.median, 3.0);
    }

    #[test]
    fn summary_empty() {
        let s = Summary::of(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn summary_single() {
        let s = Summary::of(&[7.0]);
        assert_eq!(s.median, 7.0);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&xs, 0.0), 10.0);
        assert_eq!(percentile(&xs, 100.0), 40.0);
        assert!((percentile(&xs, 50.0) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_perfect_correlation() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [2.0, 4.0, 6.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg = [6.0, 4.0, 2.0];
        assert!((pearson(&xs, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_zero_variance() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn cv_basics() {
        assert_eq!(coefficient_of_variation(&[0.0, 0.0]), 0.0);
        let cv = coefficient_of_variation(&[9.0, 10.0, 11.0]);
        assert!(cv > 0.0 && cv < 0.2);
    }
}
