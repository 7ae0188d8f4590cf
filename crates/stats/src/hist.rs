//! The 2-D histogram behind Fig. 2's click-scatter density plots
//! (`hlisa_bench::figures`, rendered by [`crate::ascii::plot_density`]).

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
