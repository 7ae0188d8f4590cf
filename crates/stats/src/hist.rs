//! 1-D and 2-D histograms.
//!
//! Used by the figure regenerators (Fig. 2 click scatter densities, Fig. 4
//! status-code bars) and by the level-2 interaction detectors.

/// A fixed-range 1-D histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `n_bins` equal-width bins.
    ///
    /// # Panics
    /// Panics if `lo >= hi` or `n_bins == 0`.
    pub fn new(lo: f64, hi: f64, n_bins: usize) -> Self {
        assert!(lo < hi, "invalid range [{lo}, {hi})");
        assert!(n_bins > 0, "need at least one bin");
        Self {
            lo,
            hi,
            bins: vec![0; n_bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let idx = ((x - self.lo) / (self.hi - self.lo) * self.bins.len() as f64) as usize;
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Adds every observation in `xs`.
    pub fn extend(&mut self, xs: &[f64]) {
        for &x in xs {
            self.add(x);
        }
    }

    /// Bin counts (within range).
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Count below range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Count at or above range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations including out-of-range.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Centre of bin `i`.
    #[cfg(test)]
    pub fn bin_center(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        self.lo + w * (i as f64 + 0.5)
    }
}

/// A fixed-range 2-D histogram (for click scatter densities).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram2d {
    x_lo: f64,
    x_hi: f64,
    y_lo: f64,
    y_hi: f64,
    nx: usize,
    ny: usize,
    cells: Vec<u64>,
    out_of_range: u64,
}

impl Histogram2d {
    /// Creates a 2-D histogram over `[x_lo, x_hi) × [y_lo, y_hi)`.
    pub fn new(x_lo: f64, x_hi: f64, y_lo: f64, y_hi: f64, nx: usize, ny: usize) -> Self {
        assert!(x_lo < x_hi && y_lo < y_hi, "invalid 2-D range");
        assert!(nx > 0 && ny > 0, "need at least one cell per axis");
        Self {
            x_lo,
            x_hi,
            y_lo,
            y_hi,
            nx,
            ny,
            cells: vec![0; nx * ny],
            out_of_range: 0,
        }
    }

    /// Adds one point.
    pub fn add(&mut self, x: f64, y: f64) {
        if x < self.x_lo || x >= self.x_hi || y < self.y_lo || y >= self.y_hi {
            self.out_of_range += 1;
            return;
        }
        let ix = (((x - self.x_lo) / (self.x_hi - self.x_lo)) * self.nx as f64) as usize;
        let iy = (((y - self.y_lo) / (self.y_hi - self.y_lo)) * self.ny as f64) as usize;
        let ix = ix.min(self.nx - 1);
        let iy = iy.min(self.ny - 1);
        self.cells[iy * self.nx + ix] += 1;
    }

    /// Count in cell `(ix, iy)`.
    pub fn cell(&self, ix: usize, iy: usize) -> u64 {
        self.cells[iy * self.nx + ix]
    }

    /// Grid width in cells.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height in cells.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Points that fell outside the histogram range.
    pub fn out_of_range(&self) -> u64 {
        self.out_of_range
    }

    /// Largest cell count (for normalising plots).
    pub fn max_cell(&self) -> u64 {
        self.cells.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bins_points() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.extend(&[0.5, 1.5, 1.6, 9.9, -1.0, 10.0]);
        assert_eq!(h.bins()[0], 1);
        assert_eq!(h.bins()[1], 2);
        assert_eq!(h.bins()[9], 1);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn bin_center_is_midpoint() {
        let h = Histogram::new(0.0, 10.0, 10);
        assert!((h.bin_center(0) - 0.5).abs() < 1e-12);
        assert!((h.bin_center(9) - 9.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid range")]
    fn histogram_rejects_bad_range() {
        let _ = Histogram::new(5.0, 5.0, 3);
    }

    #[test]
    fn hist2d_places_points() {
        let mut h = Histogram2d::new(0.0, 4.0, 0.0, 4.0, 4, 4);
        h.add(0.5, 0.5);
        h.add(3.5, 3.5);
        h.add(3.5, 3.6);
        h.add(-1.0, 2.0);
        assert_eq!(h.cell(0, 0), 1);
        assert_eq!(h.cell(3, 3), 2);
        assert_eq!(h.out_of_range(), 1);
        assert_eq!(h.max_cell(), 2);
    }
}
