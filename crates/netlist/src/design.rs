//! The top-level design container.

use crate::{GroupId, SignalGroup};
use operon_geom::{BoundingBox, Point, MAX_COORD};
use serde::{Deserialize, Serialize};

/// A routing problem instance: a die outline plus signal groups.
///
/// # Examples
///
/// ```
/// use operon_geom::{BoundingBox, Point};
/// use operon_netlist::{Bit, BitId, Design, GroupId, SignalGroup};
///
/// let die = BoundingBox::new(Point::new(0, 0), Point::new(20_000, 20_000));
/// let mut design = Design::new("demo", die);
/// let bit = Bit::new(BitId::new(0), Point::new(100, 100), vec![Point::new(19_000, 400)]);
/// design.push_group(SignalGroup::new(GroupId::new(0), "bus", vec![bit]));
/// assert_eq!(design.bit_count(), 1);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Design {
    name: String,
    die: BoundingBox,
    groups: Vec<SignalGroup>,
}

impl Design {
    /// Creates an empty design over the given die.
    ///
    /// # Panics
    ///
    /// Panics if the die has zero width or height.
    pub fn new(name: impl Into<String>, die: BoundingBox) -> Self {
        assert!(
            die.width() > 0 && die.height() > 0,
            "die must have positive area, got {die}"
        );
        Self {
            name: name.into(),
            die,
            groups: Vec::new(),
        }
    }

    /// The benchmark name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The die outline.
    #[inline]
    pub fn die(&self) -> BoundingBox {
        self.die
    }

    /// All signal groups, ordered by [`GroupId`].
    #[inline]
    pub fn groups(&self) -> &[SignalGroup] {
        &self.groups
    }

    /// Looks up one group by id.
    pub fn group(&self, id: GroupId) -> Option<&SignalGroup> {
        self.groups.get(id.index())
    }

    /// Appends a group.
    ///
    /// # Panics
    ///
    /// Panics if the group's id is not the next dense index, or if any pin
    /// lies outside the die.
    pub fn push_group(&mut self, group: SignalGroup) {
        assert_eq!(
            group.id().index(),
            self.groups.len(),
            "group ids must be dense and ordered"
        );
        for bit in group.bits() {
            for pin in bit.pins() {
                assert!(
                    self.die.contains(pin),
                    "pin {pin} of {}.{} lies outside die {}",
                    group.id(),
                    bit.id(),
                    self.die
                );
            }
        }
        self.groups.push(group);
    }

    /// Number of signal groups.
    #[inline]
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Total number of signal bits across all groups (the "#Net" column of
    /// the paper's Table 1).
    pub fn bit_count(&self) -> usize {
        self.groups.iter().map(SignalGroup::bit_count).sum()
    }

    /// Total number of pins across all bits.
    pub fn pin_count(&self) -> usize {
        self.groups.iter().map(SignalGroup::pin_count).sum()
    }

    /// The die center.
    pub fn center(&self) -> Point {
        self.die.center()
    }

    /// Returns the design with every coordinate multiplied by
    /// `numerator / denominator` (rounding toward zero) — the up-scaling
    /// the paper applies to its industrial benchmarks ("up-scaling the
    /// dimension into centimeter scale"), and the unit conversion needed
    /// when importing netlists written in different database units.
    ///
    /// # Panics
    ///
    /// Panics if either factor is zero or negative, if the scaled die
    /// would be degenerate, or if a scaled coordinate would lie beyond
    /// ±[`MAX_COORD`]; [`try_rescaled`](Self::try_rescaled) reports these
    /// as `None` instead.
    ///
    /// # Examples
    ///
    /// ```
    /// use operon_netlist::synth::{generate, SynthConfig};
    ///
    /// let d = generate(&SynthConfig::small(), 1);
    /// let doubled = d.rescaled(2, 1);
    /// assert_eq!(doubled.die().width(), d.die().width() * 2);
    /// assert_eq!(doubled.bit_count(), d.bit_count());
    /// ```
    pub fn rescaled(&self, numerator: i64, denominator: i64) -> Design {
        assert!(
            numerator > 0 && denominator > 0,
            "scale factors must be positive, got {numerator}/{denominator}"
        );
        self.try_rescaled(numerator, denominator)
            .unwrap_or_else(|| panic!("scaling by {numerator}/{denominator} leaves the bounds"))
    }

    /// [`rescaled`](Self::rescaled) for untrusted factors: `None` when a
    /// factor is not positive, the scaled die would be degenerate, or a
    /// scaled coordinate would lie beyond ±[`MAX_COORD`]. The products
    /// are taken in `i128`, so no factor overflows.
    pub fn try_rescaled(&self, numerator: i64, denominator: i64) -> Option<Design> {
        if numerator <= 0 || denominator <= 0 {
            return None;
        }
        let coord = |v: i64| {
            let scaled = i128::from(v) * i128::from(numerator) / i128::from(denominator);
            i64::try_from(scaled).ok().filter(|c| c.abs() <= MAX_COORD)
        };
        let scale = |p: Point| Some(Point::new(coord(p.x)?, coord(p.y)?));
        let die = BoundingBox::new(scale(self.die.lo())?, scale(self.die.hi())?);
        if die.width() <= 0 || die.height() <= 0 {
            return None;
        }
        let mut out = Design::new(self.name.clone(), die);
        for group in &self.groups {
            let mut bits = Vec::with_capacity(group.bits().len());
            for bit in group.bits() {
                let sinks = bit
                    .sinks()
                    .iter()
                    .map(|&s| scale(s))
                    .collect::<Option<_>>()?;
                bits.push(crate::Bit::new(bit.id(), scale(bit.source())?, sinks));
            }
            out.push_group(SignalGroup::new(group.id(), group.name(), bits));
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bit, BitId};

    fn die() -> BoundingBox {
        BoundingBox::new(Point::new(0, 0), Point::new(1000, 1000))
    }

    fn group(id: u32) -> SignalGroup {
        SignalGroup::new(
            GroupId::new(id),
            format!("bus{id}"),
            vec![Bit::new(
                BitId::new(0),
                Point::new(10, 10),
                vec![Point::new(900, 900)],
            )],
        )
    }

    #[test]
    #[should_panic(expected = "positive area")]
    fn degenerate_die_rejected() {
        let _ = Design::new("bad", BoundingBox::new(Point::origin(), Point::new(0, 5)));
    }

    #[test]
    fn push_and_query_groups() {
        let mut d = Design::new("t", die());
        d.push_group(group(0));
        d.push_group(group(1));
        assert_eq!(d.group_count(), 2);
        assert_eq!(d.bit_count(), 2);
        assert_eq!(d.pin_count(), 4);
        assert!(d.group(GroupId::new(1)).is_some());
        assert!(d.group(GroupId::new(2)).is_none());
    }

    #[test]
    #[should_panic(expected = "dense and ordered")]
    fn out_of_order_group_ids_rejected() {
        let mut d = Design::new("t", die());
        d.push_group(group(1));
    }

    #[test]
    fn rescaling_preserves_structure() {
        let mut d = Design::new("t", die());
        d.push_group(group(0));
        let up = d.rescaled(3, 1);
        assert_eq!(up.die().width(), 3_000);
        assert_eq!(up.bit_count(), d.bit_count());
        assert_eq!(up.groups()[0].bits()[0].source(), Point::new(30, 30));
        // Scaling up then down restores the original exactly (the factors
        // divide every coordinate).
        let back = up.rescaled(1, 3);
        assert_eq!(back, d);
    }

    #[test]
    fn downscaling_rounds_toward_zero() {
        let mut d = Design::new("t", die());
        d.push_group(group(0));
        let down = d.rescaled(1, 7);
        assert_eq!(down.die().hi(), Point::new(142, 142));
        assert_eq!(down.groups()[0].bits()[0].source(), Point::new(1, 1));
    }

    #[test]
    fn try_rescaled_rejects_overflow_and_degenerate_dies() {
        let mut d = Design::new("t", die());
        d.push_group(group(0));
        assert_eq!(d.try_rescaled(3, 1), Some(d.rescaled(3, 1)));
        // The die's 1000 dbu corner lands exactly on the bound, then one
        // step past it; i64::MAX as a factor no longer wraps.
        assert_eq!(
            d.try_rescaled(MAX_COORD, 1_000).map(|r| r.die().hi().x),
            Some(MAX_COORD)
        );
        assert_eq!(d.try_rescaled(MAX_COORD + 1, 1_000), None);
        assert_eq!(d.try_rescaled(i64::MAX, 1), None);
        assert_eq!(d.try_rescaled(i64::MAX, i64::MAX), Some(d.clone()));
        assert_eq!(d.try_rescaled(1, 2_000), None, "degenerate die");
        assert_eq!(d.try_rescaled(0, 1), None);
        assert_eq!(d.try_rescaled(1, -1), None);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_scale_rejected() {
        let mut d = Design::new("t", die());
        d.push_group(group(0));
        let _ = d.rescaled(0, 1);
    }

    #[test]
    #[should_panic(expected = "outside die")]
    fn out_of_die_pin_rejected() {
        let mut d = Design::new("t", die());
        let g = SignalGroup::new(
            GroupId::new(0),
            "bad",
            vec![Bit::new(
                BitId::new(0),
                Point::new(10, 10),
                vec![Point::new(5000, 5000)],
            )],
        );
        d.push_group(g);
    }
}
