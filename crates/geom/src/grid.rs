//! Uniform spatial grids of `f64` accumulators.
//!
//! Used for **power maps** (paper Fig. 9): each cell accumulates the
//! power dissipated by the wires and converters it covers.

use crate::{BoundingBox, Point};
use core::fmt;

/// Index of a cell in a [`Grid`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GridCell {
    /// Column index (x direction).
    pub col: usize,
    /// Row index (y direction).
    pub row: usize,
}

/// A uniform grid of `f64` accumulators over a die region.
///
/// # Examples
///
/// ```
/// use operon_geom::{BoundingBox, Grid, Point};
///
/// let die = BoundingBox::new(Point::new(0, 0), Point::new(100, 100));
/// let mut g = Grid::new(die, 10, 10);
/// g.deposit(Point::new(5, 5), 2.0);
/// g.deposit(Point::new(7, 3), 1.0);
/// assert_eq!(g.value(0, 0), 3.0);
/// assert_eq!(g.total(), 3.0);
/// ```
#[derive(Clone, Debug)]
pub struct Grid {
    extent: BoundingBox,
    cols: usize,
    rows: usize,
    cells: Vec<f64>,
}

impl Grid {
    /// Creates a zero-initialized grid with `cols × rows` cells over
    /// `extent`.
    ///
    /// # Panics
    ///
    /// Panics if `cols` or `rows` is zero, or if `extent` is degenerate
    /// (zero width or height).
    pub fn new(extent: BoundingBox, cols: usize, rows: usize) -> Self {
        assert!(cols > 0 && rows > 0, "grid must have at least one cell");
        assert!(
            extent.width() > 0 && extent.height() > 0,
            "grid extent must have positive area, got {extent}"
        );
        Self {
            extent,
            cols,
            rows,
            cells: vec![0.0; cols * rows],
        }
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The region covered by the grid.
    #[inline]
    pub fn extent(&self) -> BoundingBox {
        self.extent
    }

    /// Maps a point to its cell, clamping points outside the extent to the
    /// boundary cells.
    pub fn cell_of(&self, p: Point) -> GridCell {
        let fx = (p.x - self.extent.lo().x) as f64 / self.extent.width() as f64;
        let fy = (p.y - self.extent.lo().y) as f64 / self.extent.height() as f64;
        let col = ((fx * self.cols as f64) as isize).clamp(0, self.cols as isize - 1) as usize;
        let row = ((fy * self.rows as f64) as isize).clamp(0, self.rows as isize - 1) as usize;
        GridCell { col, row }
    }

    /// Adds `amount` to the cell containing `p`.
    pub fn deposit(&mut self, p: Point, amount: f64) {
        let c = self.cell_of(p);
        self.cells[c.row * self.cols + c.col] += amount;
    }

    /// Distributes `amount` uniformly along the straight segment from `a`
    /// to `b` by sampling it at sub-cell resolution.
    ///
    /// This is how wire power is smeared over a power map: a long wire
    /// heats every cell it traverses in proportion to the length inside.
    pub fn deposit_segment(&mut self, a: Point, b: Point, amount: f64) {
        let len = a.euclidean(b);
        if len == 0.0 {
            self.deposit(a, amount);
            return;
        }
        // Sample at roughly quarter-cell pitch so that every traversed cell
        // receives its share.
        let cell_w = self.extent.width() as f64 / self.cols as f64;
        let cell_h = self.extent.height() as f64 / self.rows as f64;
        let step = (cell_w.min(cell_h) / 4.0).max(1.0);
        let samples = (len / step).ceil() as usize + 1;
        let share = amount / samples as f64;
        for i in 0..samples {
            let t = i as f64 / (samples - 1).max(1) as f64;
            let p = Point::new(
                a.x + ((b.x - a.x) as f64 * t).round() as i64,
                a.y + ((b.y - a.y) as f64 * t).round() as i64,
            );
            self.deposit(p, share);
        }
    }

    /// Value of the cell at (`col`, `row`).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn value(&self, col: usize, row: usize) -> f64 {
        assert!(
            col < self.cols && row < self.rows,
            "cell index out of bounds"
        );
        self.cells[row * self.cols + col]
    }

    /// Sum over all cells.
    pub fn total(&self) -> f64 {
        self.cells.iter().sum()
    }

    /// Maximum cell value (0.0 for an all-zero grid).
    pub fn max(&self) -> f64 {
        self.cells.iter().copied().fold(0.0, f64::max)
    }

    /// Iterates over `(cell, value)` pairs in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (GridCell, f64)> + '_ {
        self.cells.iter().enumerate().map(move |(i, &v)| {
            (
                GridCell {
                    col: i % self.cols,
                    row: i / self.cols,
                },
                v,
            )
        })
    }

    /// Returns the grid normalized so the maximum cell is 1.0.
    ///
    /// An all-zero grid is returned unchanged.
    pub fn normalized(&self) -> Grid {
        let mx = self.max();
        if mx == 0.0 {
            return self.clone();
        }
        let mut out = self.clone();
        for v in &mut out.cells {
            *v /= mx;
        }
        out
    }

    /// Cells whose value is at least `frac` of the maximum (hotspots).
    pub fn hotspots(&self, frac: f64) -> Vec<GridCell> {
        let threshold = self.max() * frac;
        if threshold == 0.0 {
            return Vec::new();
        }
        self.iter()
            .filter(|&(_, v)| v >= threshold)
            .map(|(c, _)| c)
            .collect()
    }
}

impl fmt::Display for Grid {
    /// Renders the grid as an ASCII heat map (`.:-=+*#%@` ramp), row 0 at
    /// the bottom as in die coordinates.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const RAMP: &[u8] = b" .:-=+*#%@";
        let mx = self.max();
        for row in (0..self.rows).rev() {
            for col in 0..self.cols {
                let v = self.value(col, row);
                let idx = if mx == 0.0 {
                    0
                } else {
                    (((v / mx) * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1)
                };
                write!(f, "{}", RAMP[idx] as char)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn die() -> BoundingBox {
        BoundingBox::new(Point::new(0, 0), Point::new(100, 100))
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn zero_cells_rejected() {
        let _ = Grid::new(die(), 0, 4);
    }

    #[test]
    #[should_panic(expected = "positive area")]
    fn degenerate_extent_rejected() {
        let b = BoundingBox::new(Point::new(0, 0), Point::new(0, 10));
        let _ = Grid::new(b, 2, 2);
    }

    #[test]
    fn cell_of_clamps_outside_points() {
        let g = Grid::new(die(), 10, 10);
        assert_eq!(g.cell_of(Point::new(-5, -5)), GridCell { col: 0, row: 0 });
        assert_eq!(
            g.cell_of(Point::new(1000, 1000)),
            GridCell { col: 9, row: 9 }
        );
    }

    #[test]
    fn deposit_accumulates() {
        let mut g = Grid::new(die(), 4, 4);
        g.deposit(Point::new(10, 10), 1.5);
        g.deposit(Point::new(12, 14), 0.5);
        assert_eq!(g.value(0, 0), 2.0);
        assert_eq!(g.total(), 2.0);
    }

    #[test]
    fn deposit_segment_conserves_total() {
        let mut g = Grid::new(die(), 8, 8);
        g.deposit_segment(Point::new(3, 3), Point::new(97, 91), 10.0);
        assert!((g.total() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn deposit_degenerate_segment_is_point_deposit() {
        let mut g = Grid::new(die(), 8, 8);
        g.deposit_segment(Point::new(50, 50), Point::new(50, 50), 3.0);
        let c = g.cell_of(Point::new(50, 50));
        assert_eq!(g.value(c.col, c.row), 3.0);
    }

    #[test]
    fn deposit_segment_spreads_across_cells() {
        let mut g = Grid::new(die(), 10, 1);
        g.deposit_segment(Point::new(0, 50), Point::new(99, 50), 1.0);
        let touched = g.iter().filter(|&(_, v)| v > 0.0).count();
        assert_eq!(touched, 10, "horizontal wire should heat all 10 columns");
    }

    #[test]
    fn normalized_max_is_one() {
        let mut g = Grid::new(die(), 4, 4);
        g.deposit(Point::new(10, 10), 4.0);
        g.deposit(Point::new(90, 90), 2.0);
        let n = g.normalized();
        assert_eq!(n.max(), 1.0);
        let c = n.cell_of(Point::new(90, 90));
        assert_eq!(n.value(c.col, c.row), 0.5);
    }

    #[test]
    fn normalized_zero_grid_is_unchanged() {
        let g = Grid::new(die(), 4, 4);
        assert_eq!(g.normalized().total(), 0.0);
    }

    #[test]
    fn hotspots_of_zero_grid_empty() {
        let g = Grid::new(die(), 4, 4);
        assert!(g.hotspots(0.5).is_empty());
    }

    #[test]
    fn hotspots_threshold_filters() {
        let mut g = Grid::new(die(), 4, 4);
        g.deposit(Point::new(10, 10), 10.0);
        g.deposit(Point::new(90, 90), 1.0);
        let hs = g.hotspots(0.5);
        assert_eq!(hs.len(), 1);
        assert_eq!(hs[0], g.cell_of(Point::new(10, 10)));
    }

    #[test]
    fn display_has_rows_lines() {
        let g = Grid::new(die(), 3, 5);
        let s = g.to_string();
        assert_eq!(s.lines().count(), 5);
        assert!(s.lines().all(|l| l.chars().count() == 3));
    }

    proptest! {
        #[test]
        fn total_equals_sum_of_deposits(
            deposits in proptest::collection::vec(
                ((0i64..100, 0i64..100), 0.0f64..10.0), 0..30)
        ) {
            let mut g = Grid::new(die(), 7, 7);
            let mut expected = 0.0;
            for ((x, y), amt) in deposits {
                g.deposit(Point::new(x, y), amt);
                expected += amt;
            }
            prop_assert!((g.total() - expected).abs() < 1e-9);
        }

        #[test]
        fn cell_of_in_bounds(x in -500i64..500, y in -500i64..500) {
            let g = Grid::new(die(), 9, 11);
            let c = g.cell_of(Point::new(x, y));
            prop_assert!(c.col < 9 && c.row < 11);
        }
    }
}
