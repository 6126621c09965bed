//! Bentley–Ottmann sweep line over candidate segments.
//!
//! The crossing index's one production discovery: output-sensitive
//! `O((n + k) log n)` in the segment count `n` and the crossing count
//! `k`, so each crossing is found exactly once whatever the spread of
//! segment lengths (a few die-spanning trunks over many short cluster
//! stubs cost no more than their crossings). An all-pairs scan is kept
//! only as the equivalence oracle and as the fallback for coordinates
//! beyond [`SWEEP_COORD_LIMIT`].
//!
//! Determinism is load-bearing: the crossing index must be a pure function
//! of the candidate set. All event ordering here uses exact rational
//! arithmetic (`i128` numerators compared by 256-bit cross multiplication),
//! never floating point, so the pair set — and therefore everything
//! downstream of it — is bit-identical across machines and thread counts.
//! The sweep itself is sequential; callers parallelize around it.
//!
//! Degenerate handling follows [`Segment::crosses`] exactly: only *proper*
//! crossings (transversal interior-interior intersections) are reported.
//! Shared endpoints, T-junctions, and collinear overlaps are events the
//! sweep processes for ordering but never reports, because every candidate
//! pair is filtered through the same exact predicate the brute-force
//! oracle uses.

use crate::{Point, Segment};
use core::cmp::Ordering;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Coordinate magnitude bound for [`sweep_crossings`] inputs.
///
/// With `|x|, |y| < 2^40` every intermediate rational in the sweep —
/// intersection numerators up to ~`2^125`, denominators up to ~`2^83` —
/// fits `i128`, and the 256-bit comparison helpers cover every cross
/// product exactly. `2^40` dbu is ~1.1e12 units: six orders of magnitude
/// above a centimeter-scale die at µm resolution.
pub const SWEEP_COORD_LIMIT: i64 = 1 << 40;

/// Compares `a * b` with `c * d` exactly.
///
/// The factors are full-range `i128`, so the products need 256 bits;
/// magnitudes are computed as `(hi, lo)` `u128` pairs via 64-bit limbs.
#[inline]
fn cmp_prod(a: i128, b: i128, c: i128, d: i128) -> Ordering {
    // Fast path: both products computed in i128 when neither overflows.
    // Die-scale coordinates land here even for crossing-event rationals
    // (numerators ~2^44 times denominators ~2^30), which keeps the
    // per-event comparison cost to two multiplies; only coordinates
    // near the SWEEP_COORD_LIMIT bound fall through to 256 bits.
    if let (Ok(a64), Ok(b64), Ok(c64), Ok(d64)) = (
        i64::try_from(a),
        i64::try_from(b),
        i64::try_from(c),
        i64::try_from(d),
    ) {
        if let (Some(l), Some(r)) = (a64.checked_mul(b64), c64.checked_mul(d64)) {
            return l.cmp(&r);
        }
        // Factors fit i64, so the products fit i128 exactly: plain
        // 128-bit multiplies, no overflow checking needed.
        return (a * b).cmp(&(c * d));
    }
    if let (Some(l), Some(r)) = (a.checked_mul(b), c.checked_mul(d)) {
        return l.cmp(&r);
    }
    fn sign(x: i128) -> i32 {
        match x.cmp(&0) {
            Ordering::Less => -1,
            Ordering::Equal => 0,
            Ordering::Greater => 1,
        }
    }
    /// Full 256-bit magnitude product as `(hi, lo)`.
    fn wide_mul(x: u128, y: u128) -> (u128, u128) {
        const MASK: u128 = (1u128 << 64) - 1;
        let (xh, xl) = (x >> 64, x & MASK);
        let (yh, yl) = (y >> 64, y & MASK);
        let ll = xl * yl;
        let lh = xl * yh;
        let hl = xh * yl;
        let hh = xh * yh;
        let (mid, mid_carry) = lh.overflowing_add(hl);
        let (lo, lo_carry) = ll.overflowing_add(mid << 64);
        let hi = hh + (mid >> 64) + ((mid_carry as u128) << 64) + lo_carry as u128;
        (hi, lo)
    }
    let sl = sign(a) * sign(b);
    let sr = sign(c) * sign(d);
    if sl != sr {
        return sl.cmp(&sr);
    }
    if sl == 0 {
        return Ordering::Equal;
    }
    let ml = wide_mul(a.unsigned_abs(), b.unsigned_abs());
    let mr = wide_mul(c.unsigned_abs(), d.unsigned_abs());
    if sl > 0 {
        ml.cmp(&mr)
    } else {
        mr.cmp(&ml)
    }
}

/// An exact rational event point `(nx / d, ny / d)` with `d > 0`.
///
/// Fractions are deliberately *not* reduced: ordering and equality go
/// through cross multiplication, so `(2, 4, 2)` and `(1, 2, 1)` compare
/// equal anywhere the queue compares them. Segment endpoints always enter the
/// queue first (with `d == 1`), so any event at a lattice point keeps its
/// integer representation.
#[derive(Clone, Copy, Debug)]
struct EvPoint {
    nx: i128,
    ny: i128,
    d: i128,
}

impl EvPoint {
    fn integer(p: Point) -> Self {
        Self {
            nx: p.x as i128,
            ny: p.y as i128,
            d: 1,
        }
    }
}

impl PartialEq for EvPoint {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for EvPoint {}

impl PartialOrd for EvPoint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EvPoint {
    fn cmp(&self, other: &Self) -> Ordering {
        // Lexicographic (x, y); denominators are positive so the
        // cross-multiplied comparison preserves the rational order.
        cmp_prod(self.nx, other.d, other.nx, self.d)
            .then_with(|| cmp_prod(self.ny, other.d, other.ny, self.d))
    }
}

/// Per-segment sweep bookkeeping: endpoints oriented lexicographically
/// (left = min by `(x, y)`, so verticals run bottom-to-top).
struct SweepSeg {
    left: Point,
    right: Point,
    dx: i128,
    dy: i128,
    vertical: bool,
    degenerate: bool,
}

impl SweepSeg {
    fn of(s: &Segment) -> Self {
        let (left, right) = if (s.a.x, s.a.y) <= (s.b.x, s.b.y) {
            (s.a, s.b)
        } else {
            (s.b, s.a)
        };
        Self {
            left,
            right,
            dx: (right.x - left.x) as i128,
            dy: (right.y - left.y) as i128,
            vertical: left.x == right.x && left.y != right.y,
            degenerate: left == right,
        }
    }

    /// Ordering of this segment's `y` at the event's `x` versus the
    /// event's `y`. Exact: the sign of `dy·(nx − lx·d) − dx·(ny − ly·d)`
    /// over the positive denominator `dx·d`. Only valid for non-vertical
    /// segments (`dx > 0`).
    #[inline]
    fn y_at_vs(&self, p: &EvPoint) -> Ordering {
        // Integer events (d == 1: every endpoint event and any crossing
        // at a lattice point) skip the denominator entirely: two
        // multiplies, all i64 — the single hottest line of the sweep.
        if p.d == 1 {
            if let (Ok(nx), Ok(ny)) = (i64::try_from(p.nx), i64::try_from(p.ny)) {
                let fast = (|| {
                    let lhs = (self.dy as i64).checked_mul(nx.checked_sub(self.left.x)?)?;
                    let rhs = (self.dx as i64).checked_mul(ny.checked_sub(self.left.y)?)?;
                    Some(lhs.cmp(&rhs))
                })();
                if let Some(ord) = fast {
                    return ord;
                }
            }
        }
        // i64 fast path: die-scale coordinates keep every intermediate
        // (lx·d, the numerator differences, both cross products) within
        // i64, sparing the hottest comparison of the sweep any 128-bit
        // multiply. Overflow at any step falls back to the wide path.
        if let (Ok(nx), Ok(ny), Ok(d)) =
            (i64::try_from(p.nx), i64::try_from(p.ny), i64::try_from(p.d))
        {
            let fast = (|| {
                let t2 = nx.checked_sub(d.checked_mul(self.left.x)?)?;
                let t1 = ny.checked_sub(d.checked_mul(self.left.y)?)?;
                Some(
                    (self.dy as i64)
                        .checked_mul(t2)?
                        .cmp(&(self.dx as i64).checked_mul(t1)?),
                )
            })();
            if let Some(ord) = fast {
                return ord;
            }
        }
        let t1 = p.ny - self.left.y as i128 * p.d;
        let t2 = p.nx - self.left.x as i128 * p.d;
        cmp_prod(self.dy, t2, self.dx, t1)
    }

    /// Whether the segment's right endpoint is exactly the event point.
    #[inline]
    fn ends_at(&self, p: &EvPoint) -> bool {
        if p.d == 1 {
            return self.right.x as i128 == p.nx && self.right.y as i128 == p.ny;
        }
        if let (Ok(nx), Ok(ny), Ok(d)) =
            (i64::try_from(p.nx), i64::try_from(p.ny), i64::try_from(p.d))
        {
            if let (Some(px), Some(py)) = (d.checked_mul(self.right.x), d.checked_mul(self.right.y))
            {
                return px == nx && py == ny;
            }
        }
        self.right.x as i128 * p.d == p.nx && self.right.y as i128 * p.d == p.ny
    }

    /// Slope ordering (`dy/dx`, both `dx > 0`): the status order of two
    /// segments just *after* a common point is ascending slope.
    fn cmp_slope(&self, other: &Self) -> Ordering {
        cmp_prod(self.dy, other.dx, other.dy, self.dx)
    }

    /// The proper crossing point of two non-parallel segments as an exact
    /// rational event point (`d > 0`). Caller guarantees a proper
    /// crossing, so the denominator is nonzero.
    fn crossing_point(&self, other: &Self) -> EvPoint {
        let rxs = self.dx * other.dy - self.dy * other.dx;
        let qpx = (other.left.x - self.left.x) as i128;
        let qpy = (other.left.y - self.left.y) as i128;
        let u_num = qpx * other.dy - qpy * other.dx;
        let mut nx = self.left.x as i128 * rxs + u_num * self.dx;
        let mut ny = self.left.y as i128 * rxs + u_num * self.dy;
        let mut d = rxs;
        if d < 0 {
            nx = -nx;
            ny = -ny;
            d = -d;
        }
        EvPoint { nx, ny, d }
    }
}

/// If `a` and `b` cross properly beyond `p`, schedule the crossing event.
fn schedule(
    crossings: &mut BinaryHeap<Reverse<EvPoint>>,
    segs: &[SweepSeg],
    raw: &[Segment],
    p: &EvPoint,
    a: u32,
    b: u32,
) {
    if !raw[a as usize].crosses(&raw[b as usize]) {
        return;
    }
    let q = segs[a as usize].crossing_point(&segs[b as usize]);
    if q > *p {
        crossings.push(Reverse(q));
    }
}

/// Reports every properly crossing pair of segments, as `(i, j)` index
/// pairs with `i < j`, sorted and deduplicated.
///
/// The crossing predicate is exactly [`Segment::crosses`]: collinear
/// overlaps, shared endpoints, and T-junctions are not reported, and
/// degenerate segments never cross anything. The result is a pure
/// function of the input slice — no floating point, no randomness, no
/// thread-count dependence.
///
/// Coordinates must satisfy `|x|, |y| < ` [`SWEEP_COORD_LIMIT`] so every
/// intermediate rational stays exact; the function asserts this.
pub fn sweep_crossings(segments: &[Segment]) -> Vec<(u32, u32)> {
    assert!(
        segments.iter().all(|s| s.a.x.abs() < SWEEP_COORD_LIMIT
            && s.a.y.abs() < SWEEP_COORD_LIMIT
            && s.b.x.abs() < SWEEP_COORD_LIMIT
            && s.b.y.abs() < SWEEP_COORD_LIMIT),
        "sweep_crossings: coordinate magnitude exceeds SWEEP_COORD_LIMIT"
    );
    let segs: Vec<SweepSeg> = segments.iter().map(SweepSeg::of).collect();

    // Endpoint events are known up front: one `(point, id)` entry per
    // left endpoint and a `(point, MAX)` sentinel per right endpoint,
    // sorted once with cheap integer comparisons. Only the dynamically
    // discovered crossing events go through a rational-keyed tree — the
    // pending-crossing set stays small (future crossings of currently
    // adjacent pairs), so the queue never pays tree-of-rationals costs
    // proportional to n.
    let mut endpoint_events: Vec<(Point, u32)> = Vec::with_capacity(2 * segs.len());
    for (id, ss) in segs.iter().enumerate() {
        if ss.degenerate {
            continue;
        }
        endpoint_events.push((ss.left, id as u32));
        endpoint_events.push((ss.right, u32::MAX));
    }
    endpoint_events.sort_unstable();
    let mut crossings: BinaryHeap<Reverse<EvPoint>> = BinaryHeap::new();

    // Status: non-vertical segments currently intersecting the sweep
    // line, ordered bottom-to-top by y at the sweep position (slope then
    // id inside blocks that share a point). A flat vec beats a balanced
    // tree at on-chip candidate-set sizes. Verticals stay out entirely
    // and are resolved by range scans at their own x.
    let mut status: Vec<u32> = Vec::new();
    let mut out: Vec<(u32, u32)> = Vec::new();
    let mut bundle: Vec<u32> = Vec::new();
    let mut reinsert: Vec<u32> = Vec::new();
    let mut starts: Vec<u32> = Vec::new();

    let mut ei = 0usize;
    while ei < endpoint_events.len() || !crossings.is_empty() {
        // Next event: the smaller of the endpoint cursor and the first
        // pending crossing; when they coincide the crossing entry is
        // absorbed into the endpoint event.
        let next_ep = (ei < endpoint_events.len()).then(|| endpoint_events[ei].0);
        let next_xq = crossings.peek().map(|&Reverse(k)| k);
        let p = match (next_ep.map(EvPoint::integer), next_xq) {
            // On a tie the integer endpoint representation wins: `d == 1`
            // keeps every downstream comparison on the cheap path.
            (Some(e), Some(x)) => {
                if x < e {
                    x
                } else {
                    e
                }
            }
            (Some(e), None) => e,
            (None, Some(x)) => x,
            (None, None) => break,
        };
        // Consume the crossing entry at p, plus any duplicates: the heap
        // (unlike the map it replaced) does not unify equal-point pushes,
        // so duplicate schedules drain here.
        while crossings.peek().is_some_and(|&Reverse(q)| q == p) {
            crossings.pop();
        }
        // Consume every endpoint entry at p (if p is this lattice point).
        starts.clear();
        if let Some(pt) = next_ep {
            if EvPoint::integer(pt) == p {
                while ei < endpoint_events.len() && endpoint_events[ei].0 == pt {
                    let id = endpoint_events[ei].1;
                    if id != u32::MAX {
                        starts.push(id);
                    }
                    ei += 1;
                }
            }
        }

        // Contiguous block of status segments whose supporting line
        // passes through p: exactly those ending at or continuing
        // through the event point.
        let lo = status.partition_point(|&id| segs[id as usize].y_at_vs(&p) == Ordering::Less);
        // The equal block is almost always tiny (the segments actually
        // meeting at p), so a linear scan beats a second binary search.
        let mut hi = lo;
        while hi < status.len() && segs[status[hi] as usize].y_at_vs(&p) == Ordering::Equal {
            hi += 1;
        }

        // Every pair meeting at p is a crossing candidate; the exact
        // predicate keeps only proper crossings. Early hits for pairs
        // crossing elsewhere are harmless — the result is deduplicated.
        bundle.clear();
        bundle.extend_from_slice(&starts);
        bundle.extend_from_slice(&status[lo..hi]);
        for (i, &a) in bundle.iter().enumerate() {
            for &b in &bundle[i + 1..] {
                if segments[a as usize].crosses(&segments[b as usize]) {
                    out.push((a.min(b), a.max(b)));
                }
            }
        }

        // Verticals: anything properly crossing one spans its x strictly,
        // so it is in the status right now; scan the y-range.
        for &v in &starts {
            let vs = &segs[v as usize];
            if !vs.vertical {
                continue;
            }
            let plo = EvPoint::integer(vs.left);
            let phi = EvPoint::integer(vs.right);
            let from =
                status.partition_point(|&id| segs[id as usize].y_at_vs(&plo) == Ordering::Less);
            for &id in &status[from..] {
                if segs[id as usize].y_at_vs(&phi) == Ordering::Greater {
                    break;
                }
                if segments[v as usize].crosses(&segments[id as usize]) {
                    out.push((v.min(id), v.max(id)));
                }
            }
        }

        // Rebuild the block for the outgoing side of p: continuing
        // segments plus non-vertical starters, in ascending slope order
        // (ties by id — collinear overlaps keep a stable order).
        reinsert.clear();
        for &id in &status[lo..hi] {
            if !segs[id as usize].ends_at(&p) {
                reinsert.push(id);
            }
        }
        for &id in &starts {
            let ss = &segs[id as usize];
            if !ss.vertical && !ss.degenerate {
                reinsert.push(id);
            }
        }
        reinsert.sort_unstable_by(|&a, &b| {
            segs[a as usize]
                .cmp_slope(&segs[b as usize])
                .then_with(|| a.cmp(&b))
        });
        // Same-size replacement (the common case: a pure crossing event
        // permutes the block) writes in place; start/end events move the
        // tail once by the size delta — a plain memmove, no element-wise
        // splice machinery.
        let k = reinsert.len();
        let old = hi - lo;
        if k <= old {
            status.copy_within(hi.., lo + k);
            status.truncate(status.len() - (old - k));
        } else {
            let grow = k - old;
            status.resize(status.len() + grow, 0);
            let end = status.len() - grow;
            status.copy_within(hi..end, lo + k);
        }
        status[lo..lo + k].copy_from_slice(&reinsert);

        // New adjacencies at the block boundaries are the only places a
        // future proper crossing can first become imminent.
        if k == 0 {
            if lo > 0 && lo < status.len() {
                schedule(
                    &mut crossings,
                    &segs,
                    segments,
                    &p,
                    status[lo - 1],
                    status[lo],
                );
            }
        } else {
            if lo > 0 {
                schedule(
                    &mut crossings,
                    &segs,
                    segments,
                    &p,
                    status[lo - 1],
                    status[lo],
                );
            }
            let top = lo + k;
            if top < status.len() {
                schedule(
                    &mut crossings,
                    &segs,
                    segments,
                    &p,
                    status[top - 1],
                    status[top],
                );
            }
        }
    }

    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn seg(ax: i64, ay: i64, bx: i64, by: i64) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    /// Brute-force oracle: all pairs through the exact predicate.
    fn brute(segments: &[Segment]) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for i in 0..segments.len() {
            for j in i + 1..segments.len() {
                if segments[i].crosses(&segments[j]) {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out
    }

    #[test]
    fn x_crossing_is_reported_once() {
        let segs = [seg(0, 0, 10, 10), seg(0, 10, 10, 0)];
        assert_eq!(sweep_crossings(&segs), [(0, 1)]);
    }

    #[test]
    fn shared_endpoint_and_t_junction_are_not_crossings() {
        let segs = [
            seg(0, 0, 5, 5),
            seg(5, 5, 9, 0),  // shares an endpoint with 0
            seg(2, 2, 2, -3), // T-junction onto 0's interior endpoint? no: touches (2,2)
        ];
        assert_eq!(sweep_crossings(&segs), brute(&segs));
        assert!(sweep_crossings(&segs).is_empty());
    }

    #[test]
    fn collinear_overlap_is_not_a_crossing() {
        let segs = [seg(0, 0, 10, 0), seg(5, 0, 15, 0), seg(-2, 0, 3, 0)];
        assert!(sweep_crossings(&segs).is_empty());
    }

    #[test]
    fn transversal_through_collinear_overlap_hits_both() {
        // Two collinear overlapping diagonals, one transversal through
        // the shared interior: both pairs cross at the same point.
        let segs = [seg(0, 0, 8, 8), seg(2, 2, 12, 12), seg(0, 8, 8, 0)];
        assert_eq!(sweep_crossings(&segs), [(0, 2), (1, 2)]);
    }

    #[test]
    fn vertical_crossings_are_found() {
        let segs = [
            seg(5, -10, 5, 10),  // vertical
            seg(0, 0, 10, 1),    // crosses it
            seg(0, 5, 5, 5),     // T-junction at (5,5): not proper
            seg(5, 10, 9, 12),   // shares the top endpoint
            seg(4, -20, 4, -15), // disjoint vertical
        ];
        assert_eq!(sweep_crossings(&segs), [(0, 1)]);
    }

    #[test]
    fn vertical_vertical_overlap_never_crosses() {
        let segs = [seg(3, 0, 3, 10), seg(3, 5, 3, 15)];
        assert!(sweep_crossings(&segs).is_empty());
    }

    #[test]
    fn star_of_segments_through_one_point() {
        // Several segments concurrent at (0,0); interior-interior for all
        // pairs, so every pair crosses at the same event point.
        let segs = [
            seg(-5, -5, 5, 5),
            seg(-5, 5, 5, -5),
            seg(-5, 0, 5, 0),
            seg(-5, 1, 5, -1),
        ];
        let got = sweep_crossings(&segs);
        assert_eq!(got, brute(&segs));
        assert_eq!(got.len(), 6);
    }

    #[test]
    fn degenerate_segments_are_ignored() {
        let segs = [seg(2, 2, 2, 2), seg(0, 0, 4, 4), seg(0, 4, 4, 0)];
        assert_eq!(sweep_crossings(&segs), [(1, 2)]);
    }

    #[test]
    fn crossing_at_rational_point_between_lattice_points() {
        // Intersection at (5/3, 5/3): exercises non-integer event keys.
        let segs = [seg(0, 0, 5, 5), seg(0, 5, 5, -5), seg(1, 0, 1, 3)];
        assert_eq!(sweep_crossings(&segs), brute(&segs));
    }

    #[test]
    fn dense_grid_of_segments_matches_brute_force() {
        // Axis-aligned lattice: every horizontal/vertical pair meets, but
        // only strict interior intersections count.
        let mut segs = Vec::new();
        for i in 0..8i64 {
            segs.push(seg(0, i, 7, i));
            segs.push(seg(i, 0, i, 7));
        }
        assert_eq!(sweep_crossings(&segs), brute(&segs));
    }

    #[test]
    fn empty_and_single_inputs() {
        assert!(sweep_crossings(&[]).is_empty());
        assert!(sweep_crossings(&[seg(0, 0, 3, 3)]).is_empty());
    }

    fn arb_seg(range: core::ops::Range<i64>) -> impl Strategy<Value = Segment> {
        (range.clone(), range.clone(), range.clone(), range)
            .prop_map(|(ax, ay, bx, by)| seg(ax, ay, bx, by))
    }

    proptest! {
        #[test]
        fn matches_brute_force_on_random_segments(
            segs in proptest::collection::vec(arb_seg(-50..50), 0..40)
        ) {
            prop_assert_eq!(sweep_crossings(&segs), brute(&segs));
        }

        #[test]
        fn matches_brute_force_on_tight_lattice(
            // Tiny coordinate range forces shared endpoints, collinear
            // overlaps, concurrent crossings, and degenerate segments.
            segs in proptest::collection::vec(arb_seg(0..7), 0..30)
        ) {
            prop_assert_eq!(sweep_crossings(&segs), brute(&segs));
        }

        #[test]
        fn matches_brute_force_on_axis_heavy_sets(
            raw in proptest::collection::vec((0i64..20, 0i64..20, 0i64..20, any::<bool>()), 0..30)
        ) {
            // Mostly horizontals/verticals with a few diagonals mixed in.
            let segs: Vec<Segment> = raw
                .iter()
                .enumerate()
                .map(|(i, &(a, b, c, horizontal))| {
                    if i % 5 == 0 {
                        seg(a, b, c, (a + c) % 20)
                    } else if horizontal {
                        seg(a, b, c, b)
                    } else {
                        seg(a, b, a, c)
                    }
                })
                .collect();
            prop_assert_eq!(sweep_crossings(&segs), brute(&segs));
        }

        #[test]
        fn result_is_sorted_and_unique(
            segs in proptest::collection::vec(arb_seg(-20..20), 0..25)
        ) {
            let got = sweep_crossings(&segs);
            let mut sorted = got.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(got, sorted);
        }
    }
}
