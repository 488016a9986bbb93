//! Axis-aligned rectangles and the rectangle algebra of the paper.
//!
//! Rectangles use **half-open** semantics: a rectangle spans
//! `[x0, x1) × [y0, y1)`. Two rectangles that merely share an edge have
//! zero-area intersection and are said to *abut*.
//!
//! The centrepiece is [`Rect::subtract`], the operation behind the paper's
//! latch-up rule check (Fig. 1): when a temporary enclosing rectangle does
//! not fully cover a solid rectangle, *"only the overlapping part is cut
//! while the remaining part of the rectangle is still stored"*. The figure
//! enumerates 16 overlap cases — four horizontal × four vertical — which
//! here fall out of one clamping computation and are reified for testing by
//! [`Rect::classify_overlap`].

use crate::coord::{Axis, Coord, Dir};
use crate::interval::Interval;
use crate::point::{Point, Vector};

/// A half-open, axis-aligned rectangle `[x0, x1) × [y0, y1)`.
///
/// Invariant: `x0 <= x1 && y0 <= y1` (enforced by [`Rect::new`], which
/// sorts its arguments). A rectangle with zero width or height is *empty*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rect {
    /// Left edge.
    pub x0: Coord,
    /// Bottom edge.
    pub y0: Coord,
    /// Right edge (exclusive).
    pub x1: Coord,
    /// Top edge (exclusive).
    pub y1: Coord,
}

/// Horizontal overlap class of a cutting rectangle relative to a solid one
/// (the four columns of the paper's Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HOverlap {
    /// The cutter spans the full width of the solid rectangle.
    Full,
    /// The cutter covers the left part only; a right remainder survives.
    Left,
    /// The cutter covers the right part only; a left remainder survives.
    Right,
    /// The cutter sits strictly inside; left and right remainders survive.
    Middle,
    /// The x-ranges do not overlap at all.
    Disjoint,
}

/// Vertical overlap class (the four rows of the paper's Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VOverlap {
    /// The cutter spans the full height of the solid rectangle.
    Full,
    /// The cutter covers the bottom part only.
    Bottom,
    /// The cutter covers the top part only.
    Top,
    /// The cutter sits strictly inside vertically.
    Middle,
    /// The y-ranges do not overlap at all.
    Disjoint,
}

// Every public method is `#[inline]`, and the lint keeps it so. The
// release profile has no cross-crate LTO, so a call from another crate
// to a method that is neither `#[inline]` nor small enough for automatic
// cross-crate inlining stays a call: `union_bbox` folded over a chip's
// shapes costs 6x more as a call than inlined.
#[warn(clippy::missing_inline_in_public_items)]
impl Rect {
    /// Creates a rectangle from two opposite corners (any order).
    #[inline]
    pub fn new(xa: Coord, ya: Coord, xb: Coord, yb: Coord) -> Rect {
        Rect {
            x0: xa.min(xb),
            y0: ya.min(yb),
            x1: xa.max(xb),
            y1: ya.max(yb),
        }
    }

    /// Creates a rectangle from its lower-left corner and size.
    ///
    /// Negative sizes are folded towards the corner (like [`Rect::new`]).
    #[inline]
    pub fn from_origin_size(origin: Point, w: Coord, h: Coord) -> Rect {
        Rect::new(origin.x, origin.y, origin.x + w, origin.y + h)
    }

    /// Creates a `w × h` rectangle centred at `c` (rounded down for odd
    /// sizes).
    #[inline]
    pub fn centered_at(c: Point, w: Coord, h: Coord) -> Rect {
        Rect::new(c.x - w / 2, c.y - h / 2, c.x - w / 2 + w, c.y - h / 2 + h)
    }

    /// The empty rectangle at the origin.
    pub const EMPTY: Rect = Rect {
        x0: 0,
        y0: 0,
        x1: 0,
        y1: 0,
    };

    /// Width (`x1 − x0`, never negative).
    #[inline]
    pub fn width(&self) -> Coord {
        self.x1 - self.x0
    }

    /// Height (`y1 − y0`, never negative).
    #[inline]
    pub fn height(&self) -> Coord {
        self.y1 - self.y0
    }

    /// Extent along `axis`.
    #[inline]
    pub fn size(&self, axis: Axis) -> Coord {
        match axis {
            Axis::X => self.width(),
            Axis::Y => self.height(),
        }
    }

    /// Exact area in du², computed in `i128` to avoid overflow.
    #[inline]
    pub fn area(&self) -> i128 {
        self.width() as i128 * self.height() as i128
    }

    /// True if the rectangle has zero width or height.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.x0 >= self.x1 || self.y0 >= self.y1
    }

    /// Lower-left corner.
    #[inline]
    pub fn ll(&self) -> Point {
        Point::new(self.x0, self.y0)
    }

    /// Upper-right corner.
    #[inline]
    pub fn ur(&self) -> Point {
        Point::new(self.x1, self.y1)
    }

    /// Centre point (rounded towards the lower-left for odd sizes).
    #[inline]
    pub fn center(&self) -> Point {
        Point::new(self.x0 + self.width() / 2, self.y0 + self.height() / 2)
    }

    /// The x-extent as an interval.
    #[inline]
    pub fn x_range(&self) -> Interval {
        Interval::new(self.x0, self.x1)
    }

    /// The y-extent as an interval.
    #[inline]
    pub fn y_range(&self) -> Interval {
        Interval::new(self.y0, self.y1)
    }

    /// Extent along `axis` as an interval.
    #[inline]
    pub fn range(&self, axis: Axis) -> Interval {
        match axis {
            Axis::X => self.x_range(),
            Axis::Y => self.y_range(),
        }
    }

    /// The coordinate of the edge facing direction `dir`.
    ///
    /// `edge(North)` is the top edge, `edge(West)` the left edge.
    #[inline]
    pub fn edge(&self, dir: Dir) -> Coord {
        match dir {
            Dir::North => self.y1,
            Dir::South => self.y0,
            Dir::East => self.x1,
            Dir::West => self.x0,
        }
    }

    /// Returns a copy with the edge facing `dir` moved to `pos`.
    ///
    /// The caller is responsible for keeping the rectangle non-inverted;
    /// the result is normalised through [`Rect::new`].
    #[inline]
    pub fn with_edge(&self, dir: Dir, pos: Coord) -> Rect {
        match dir {
            Dir::North => Rect::new(self.x0, self.y0, self.x1, pos),
            Dir::South => Rect::new(self.x0, pos, self.x1, self.y1),
            Dir::East => Rect::new(self.x0, self.y0, pos, self.y1),
            Dir::West => Rect::new(pos, self.y0, self.x1, self.y1),
        }
    }

    /// Translates by `v`.
    #[inline]
    pub fn translated(&self, v: Vector) -> Rect {
        Rect {
            x0: self.x0 + v.dx,
            y0: self.y0 + v.dy,
            x1: self.x1 + v.dx,
            y1: self.y1 + v.dy,
        }
    }

    /// Grows every side outward by `d` (shrinks for negative `d`; collapses
    /// to an empty rectangle rather than inverting).
    #[inline]
    pub fn inflated(&self, d: Coord) -> Rect {
        self.inflated_xy(d, d)
    }

    /// Grows horizontally by `dx` and vertically by `dy` on each side.
    #[inline]
    pub fn inflated_xy(&self, dx: Coord, dy: Coord) -> Rect {
        let x0 = self.x0 - dx;
        let x1 = self.x1 + dx;
        let y0 = self.y0 - dy;
        let y1 = self.y1 + dy;
        if x0 > x1 || y0 > y1 {
            // Deflated past its own size: collapse around the centre.
            let c = self.center();
            Rect::new(c.x, c.y, c.x, c.y)
        } else {
            Rect { x0, y0, x1, y1 }
        }
    }

    /// True if `self` and `other` share interior points.
    #[inline]
    pub fn overlaps(&self, other: &Rect) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.x0 < other.x1
            && other.x0 < self.x1
            && self.y0 < other.y1
            && other.y0 < self.y1
    }

    /// True if `self` and `other` abut: they share boundary but no
    /// interior. Corner-only contact counts as abutment.
    #[inline]
    pub fn abuts(&self, other: &Rect) -> bool {
        if self.is_empty() || other.is_empty() || self.overlaps(other) {
            return false;
        }
        let x_touch = self.x0 <= other.x1 && other.x0 <= self.x1;
        let y_touch = self.y0 <= other.y1 && other.y0 <= self.y1;
        x_touch && y_touch
    }

    /// True if `self` fully contains `other` (empty `other` is contained
    /// anywhere inside).
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.is_empty()
            || (self.x0 <= other.x0
                && self.y0 <= other.y0
                && self.x1 >= other.x1
                && self.y1 >= other.y1)
    }

    /// True if the point lies inside (half-open semantics).
    #[inline]
    pub fn contains_point(&self, p: Point) -> bool {
        self.x0 <= p.x && p.x < self.x1 && self.y0 <= p.y && p.y < self.y1
    }

    /// Intersection with `other`; `None` if the interiors are disjoint.
    #[inline]
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.overlaps(other) {
            return None;
        }
        Some(Rect {
            x0: self.x0.max(other.x0),
            y0: self.y0.max(other.y0),
            x1: self.x1.min(other.x1),
            y1: self.y1.min(other.y1),
        })
    }

    /// Smallest rectangle containing both (empty inputs are ignored).
    #[inline]
    pub fn union_bbox(&self, other: &Rect) -> Rect {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Rect {
            x0: self.x0.min(other.x0),
            y0: self.y0.min(other.y0),
            x1: self.x1.max(other.x1),
            y1: self.y1.max(other.y1),
        }
    }

    /// Minimum Manhattan separation between the two rectangles along
    /// `axis`, ignoring the other axis (negative if they overlap along
    /// `axis`).
    #[inline]
    pub fn gap_along(&self, other: &Rect, axis: Axis) -> Coord {
        let a = self.range(axis);
        let b = other.range(axis);
        if a.lo >= b.hi {
            a.lo - b.hi
        } else if b.lo >= a.hi {
            b.lo - a.hi
        } else {
            -(a.hi.min(b.hi) - a.lo.max(b.lo))
        }
    }

    /// Classifies how `cutter` overlaps `self`, per axis — the 4 × 4 grid
    /// of the paper's Fig. 1.
    #[inline]
    pub fn classify_overlap(&self, cutter: &Rect) -> (HOverlap, VOverlap) {
        let h = if cutter.x1 <= self.x0 || cutter.x0 >= self.x1 {
            HOverlap::Disjoint
        } else if cutter.x0 <= self.x0 && cutter.x1 >= self.x1 {
            HOverlap::Full
        } else if cutter.x0 <= self.x0 {
            HOverlap::Left
        } else if cutter.x1 >= self.x1 {
            HOverlap::Right
        } else {
            HOverlap::Middle
        };
        let v = if cutter.y1 <= self.y0 || cutter.y0 >= self.y1 {
            VOverlap::Disjoint
        } else if cutter.y0 <= self.y0 && cutter.y1 >= self.y1 {
            VOverlap::Full
        } else if cutter.y0 <= self.y0 {
            VOverlap::Bottom
        } else if cutter.y1 >= self.y1 {
            VOverlap::Top
        } else {
            VOverlap::Middle
        };
        (h, v)
    }

    /// Subtracts `cutter` from `self`, returning the non-overlapped parts
    /// as up to four disjoint rectangles.
    ///
    /// This is the operation of the paper's Fig. 1: *"the not overlapped
    /// parts of the rectangle are converted to single rectangles"*. The
    /// decomposition is bottom strip, top strip, then left and right middle
    /// slabs; together with `self ∩ cutter` it partitions `self` exactly.
    ///
    /// # Example
    /// ```
    /// use amgen_geom::Rect;
    /// let solid = Rect::new(0, 0, 10, 10);
    /// let cutter = Rect::new(3, 3, 7, 7); // strictly inside: 4 remainders
    /// let parts = solid.subtract(&cutter);
    /// assert_eq!(parts.len(), 4);
    /// let remaining: i128 = parts.iter().map(Rect::area).sum();
    /// assert_eq!(remaining, solid.area() - cutter.area());
    /// ```
    // Inlined across crates: the reference scans in amgen-drc and
    // amgen-extract loop over it, and their timings are the baselines of
    // the chip_scale bench's speed-up gate.
    #[inline]
    pub fn subtract(&self, cutter: &Rect) -> Vec<Rect> {
        let mut parts = Vec::with_capacity(4);
        self.subtract_into(cutter, &mut parts);
        parts
    }

    /// [`subtract`](Rect::subtract) into a caller's buffer: appends the
    /// remainders to `out` in the same order (`self` itself when the
    /// interiors are disjoint, nothing when `self` is empty).
    #[inline]
    pub(crate) fn subtract_into(&self, cutter: &Rect, out: &mut Vec<Rect>) {
        if self.is_empty() {
            return;
        }
        let Some(ov) = self.intersection(cutter) else {
            out.push(*self);
            return;
        };
        // Bottom strip (full width).
        if ov.y0 > self.y0 {
            out.push(Rect::new(self.x0, self.y0, self.x1, ov.y0));
        }
        // Top strip (full width).
        if ov.y1 < self.y1 {
            out.push(Rect::new(self.x0, ov.y1, self.x1, self.y1));
        }
        // Left slab (overlap height only).
        if ov.x0 > self.x0 {
            out.push(Rect::new(self.x0, ov.y0, ov.x0, ov.y1));
        }
        // Right slab (overlap height only).
        if ov.x1 < self.x1 {
            out.push(Rect::new(ov.x1, ov.y0, self.x1, ov.y1));
        }
    }

    /// Expands the rectangle so it contains `other`; no-op if it already
    /// does. Empty `self` becomes `other`.
    #[inline]
    pub fn expanded_to_contain(&self, other: &Rect) -> Rect {
        self.union_bbox(other)
    }
}

impl std::fmt::Display for Rect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {} .. {}, {}]", self.x0, self.y0, self.x1, self.y1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x0: Coord, y0: Coord, x1: Coord, y1: Coord) -> Rect {
        Rect::new(x0, y0, x1, y1)
    }

    #[test]
    fn new_normalises_corners() {
        assert_eq!(r(10, 10, 0, 0), r(0, 0, 10, 10));
        assert_eq!(
            Rect::from_origin_size(Point::new(1, 2), 3, 4),
            r(1, 2, 4, 6)
        );
        assert_eq!(
            Rect::from_origin_size(Point::new(1, 2), -3, 4),
            r(-2, 2, 1, 6)
        );
    }

    #[test]
    fn size_and_area() {
        let a = r(0, 0, 10, 4);
        assert_eq!(a.width(), 10);
        assert_eq!(a.height(), 4);
        assert_eq!(a.area(), 40);
        assert_eq!(a.size(Axis::X), 10);
        assert_eq!(a.size(Axis::Y), 4);
        assert!(r(5, 5, 5, 9).is_empty());
        assert!(!a.is_empty());
    }

    #[test]
    fn centered_at_has_requested_size() {
        let c = Point::new(10, 10);
        let a = Rect::centered_at(c, 4, 6);
        assert_eq!((a.width(), a.height()), (4, 6));
        assert_eq!(a.center(), c);
        let odd = Rect::centered_at(c, 5, 3);
        assert_eq!((odd.width(), odd.height()), (5, 3));
    }

    #[test]
    fn edges_by_direction() {
        let a = r(1, 2, 7, 9);
        assert_eq!(a.edge(Dir::West), 1);
        assert_eq!(a.edge(Dir::South), 2);
        assert_eq!(a.edge(Dir::East), 7);
        assert_eq!(a.edge(Dir::North), 9);
        assert_eq!(a.with_edge(Dir::North, 20), r(1, 2, 7, 20));
        assert_eq!(a.with_edge(Dir::West, 0), r(0, 2, 7, 9));
    }

    #[test]
    fn overlap_and_abutment() {
        let a = r(0, 0, 10, 10);
        assert!(a.overlaps(&r(5, 5, 15, 15)));
        assert!(
            !a.overlaps(&r(10, 0, 20, 10)),
            "edge-sharing is not overlap"
        );
        assert!(a.abuts(&r(10, 0, 20, 10)));
        assert!(a.abuts(&r(10, 10, 20, 20)), "corner contact abuts");
        assert!(!a.abuts(&r(11, 0, 20, 10)));
        assert!(!a.abuts(&r(2, 2, 3, 3)), "overlap is not abutment");
    }

    #[test]
    fn containment() {
        let a = r(0, 0, 10, 10);
        assert!(a.contains_rect(&r(0, 0, 10, 10)));
        assert!(a.contains_rect(&r(2, 2, 8, 8)));
        assert!(!a.contains_rect(&r(2, 2, 11, 8)));
        assert!(a.contains_point(Point::new(0, 0)));
        assert!(
            !a.contains_point(Point::new(10, 10)),
            "half-open upper corner"
        );
    }

    #[test]
    fn intersection_cases() {
        let a = r(0, 0, 10, 10);
        assert_eq!(a.intersection(&r(5, 5, 15, 15)), Some(r(5, 5, 10, 10)));
        assert_eq!(a.intersection(&r(10, 0, 20, 10)), None);
        assert_eq!(a.intersection(&a), Some(a));
    }

    #[test]
    fn union_bbox_ignores_empty() {
        let a = r(0, 0, 2, 2);
        let b = r(5, 5, 8, 9);
        assert_eq!(a.union_bbox(&b), r(0, 0, 8, 9));
        assert_eq!(a.union_bbox(&Rect::EMPTY), a);
        assert_eq!(Rect::EMPTY.union_bbox(&b), b);
    }

    #[test]
    fn inflate_and_deflate() {
        let a = r(0, 0, 10, 10);
        assert_eq!(a.inflated(2), r(-2, -2, 12, 12));
        assert_eq!(a.inflated(-2), r(2, 2, 8, 8));
        assert!(a.inflated(-6).is_empty(), "over-deflation collapses");
        assert_eq!(a.inflated_xy(1, 3), r(-1, -3, 11, 13));
    }

    #[test]
    fn gap_along_axis() {
        let a = r(0, 0, 10, 10);
        let b = r(13, 0, 20, 10);
        assert_eq!(a.gap_along(&b, Axis::X), 3);
        assert_eq!(b.gap_along(&a, Axis::X), 3);
        assert_eq!(a.gap_along(&b, Axis::Y), -10);
        let c = r(5, 12, 8, 20);
        assert_eq!(a.gap_along(&c, Axis::Y), 2);
    }

    #[test]
    fn subtract_disjoint_returns_self() {
        let a = r(0, 0, 10, 10);
        assert_eq!(a.subtract(&r(20, 20, 30, 30)), vec![a]);
        assert_eq!(
            a.subtract(&r(10, 0, 20, 10)),
            vec![a],
            "abutting cutter removes nothing"
        );
    }

    #[test]
    fn subtract_full_cover_returns_nothing() {
        let a = r(0, 0, 10, 10);
        assert!(a.subtract(&r(-1, -1, 11, 11)).is_empty());
        assert!(a.subtract(&a).is_empty());
    }

    /// All 16 overlapping cases of the paper's Fig. 1: the four horizontal
    /// overlap classes × the four vertical overlap classes. For each case
    /// the remainder count and exact area are checked.
    #[test]
    fn subtract_sixteen_cases_of_fig1() {
        let solid = r(0, 0, 100, 100);
        // (x0, x1, expected horizontal class, horizontal remainder pieces)
        let h_cases = [
            (-10, 110, HOverlap::Full, 0),
            (-10, 40, HOverlap::Left, 1),
            (60, 110, HOverlap::Right, 1),
            (30, 70, HOverlap::Middle, 2),
        ];
        let v_cases = [
            (-10, 110, VOverlap::Full, 0),
            (-10, 40, VOverlap::Bottom, 1),
            (60, 110, VOverlap::Top, 1),
            (30, 70, VOverlap::Middle, 2),
        ];
        for &(cx0, cx1, hclass, _hrem) in &h_cases {
            for &(cy0, cy1, vclass, _vrem) in &v_cases {
                let cutter = r(cx0, cy0, cx1, cy1);
                assert_eq!(solid.classify_overlap(&cutter), (hclass, vclass));
                let parts = solid.subtract(&cutter);
                // Remainders are pairwise disjoint.
                for (i, p) in parts.iter().enumerate() {
                    assert!(!p.is_empty());
                    for q in &parts[i + 1..] {
                        assert!(!p.overlaps(q), "{p} overlaps {q}");
                    }
                    assert!(solid.contains_rect(p));
                    assert!(!p.overlaps(&cutter));
                }
                // Area bookkeeping is exact.
                let cut = solid.intersection(&cutter).map_or(0, |o| o.area());
                let rem: i128 = parts.iter().map(Rect::area).sum();
                assert_eq!(rem + cut, solid.area(), "cutter {cutter}");
                // Expected piece count: strips for V class + slabs for H
                // class, except slabs vanish when the V overlap is empty.
                let strips = match vclass {
                    VOverlap::Full => 0,
                    VOverlap::Bottom | VOverlap::Top => 1,
                    VOverlap::Middle => 2,
                    VOverlap::Disjoint => unreachable!(),
                };
                let slabs = match hclass {
                    HOverlap::Full => 0,
                    HOverlap::Left | HOverlap::Right => 1,
                    HOverlap::Middle => 2,
                    HOverlap::Disjoint => unreachable!(),
                };
                assert_eq!(parts.len(), strips + slabs, "cutter {cutter}");
            }
        }
    }

    #[test]
    fn classify_disjoint() {
        let solid = r(0, 0, 100, 100);
        let far = r(200, 200, 300, 300);
        assert_eq!(
            solid.classify_overlap(&far),
            (HOverlap::Disjoint, VOverlap::Disjoint)
        );
    }
}
