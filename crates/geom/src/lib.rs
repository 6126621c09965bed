//! Fixed-point planar geometry for optical-electrical route synthesis.
//!
//! All coordinates are integer *database units* (dbu). The OPERON benchmarks
//! are up-scaled to centimeter dimensions; throughout this workspace
//! `1 dbu = 1 µm`, so [`DBU_PER_CM`] converts wirelength to the
//! centimeter scale used by the optical loss coefficients (dB/cm).
//!
//! The crate provides the primitives every other crate builds on:
//!
//! * [`Point`] — integer lattice point with Manhattan/Euclidean metrics,
//! * [`BoundingBox`] — axis-aligned boxes with overlap tests (used by the
//!   ILP variable-reduction speed-up of the paper),
//! * [`Segment`] — line segments with exact intersection predicates (the
//!   crossing index's pair test for the crossing-loss term; its
//!   sort-and-sweep discovery lives in `operon-core`),
//! * [`Grid`] — uniform spatial binning (used for hotspot power maps),
//! * [`MAX_COORD`] — the coordinate bound every input design must obey.
//!
//! # Examples
//!
//! ```
//! use operon_geom::{Point, Segment};
//!
//! let a = Segment::new(Point::new(0, 0), Point::new(10, 10));
//! let b = Segment::new(Point::new(0, 10), Point::new(10, 0));
//! assert!(a.crosses(&b));
//! ```

#![forbid(unsafe_code)]

mod bbox;
mod grid;
mod point;
mod segment;

pub use bbox::BoundingBox;
pub use grid::{Grid, GridCell};
pub use point::{FPoint, Point};
pub use segment::{Orientation, Segment};

/// Largest coordinate magnitude, in dbu, an input design may carry
/// (`2^40` dbu, about 1100 km at 1 dbu = 1 µm).
///
/// Parsers and design transforms reject anything beyond it, so geometry
/// downstream never overflows: coordinate differences fit 42 bits,
/// Manhattan lengths and [`Segment`]'s orientation cross products stay
/// exact, and sums of millions of segment lengths stay far below
/// `i64::MAX`.
pub const MAX_COORD: i64 = 1 << 40;

/// Database units per centimeter (`1 dbu = 1 µm`).
///
/// Optical loss coefficients in the literature are quoted in dB/cm; the
/// netlists store coordinates in dbu, so wirelength must be divided by this
/// constant before applying the propagation-loss coefficient.
pub const DBU_PER_CM: f64 = 10_000.0;

/// Converts a length in database units to centimeters.
///
/// # Examples
///
/// ```
/// assert_eq!(operon_geom::dbu_to_cm(20_000.0), 2.0);
/// ```
#[inline]
pub fn dbu_to_cm(dbu: f64) -> f64 {
    dbu / DBU_PER_CM
}

/// Converts a length in centimeters to database units.
///
/// # Examples
///
/// ```
/// assert_eq!(operon_geom::cm_to_dbu(1.5), 15_000.0);
/// ```
#[inline]
pub fn cm_to_dbu(cm: f64) -> f64 {
    cm * DBU_PER_CM
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversion_round_trips() {
        for v in [0.0, 1.0, 2.5, 123.456] {
            let dbu = cm_to_dbu(v);
            assert!((dbu_to_cm(dbu) - v).abs() < 1e-12);
        }
    }
}
