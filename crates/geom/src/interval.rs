//! Half-open one-dimensional intervals.
//!
//! The successive compactor works one axis at a time: whether two shapes
//! constrain each other depends on whether their projections on the
//! perpendicular axis — inflated by the required spacing — overlap.
//! [`Interval`] carries that projection arithmetic.

use crate::coord::Coord;

/// A half-open interval `[lo, hi)` on one axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: Coord,
    /// Exclusive upper bound.
    pub hi: Coord,
}

// Every public method is `#[inline]`, as on `Rect`: the compactor's
// pair and bridge tests call them from another crate.
#[warn(clippy::missing_inline_in_public_items)]
impl Interval {
    /// Creates an interval, sorting the bounds.
    #[inline]
    pub fn new(a: Coord, b: Coord) -> Interval {
        Interval {
            lo: a.min(b),
            hi: a.max(b),
        }
    }

    /// Length (`hi − lo`).
    #[inline]
    pub fn len(&self) -> Coord {
        self.hi - self.lo
    }

    /// True if the interval has zero length.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lo >= self.hi
    }

    /// True if the interiors overlap.
    #[inline]
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.lo < other.hi && other.lo < self.hi
    }

    /// True if the closed intervals touch or overlap.
    #[inline]
    pub fn touches(&self, other: &Interval) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// Overlap length (0 when disjoint).
    #[inline]
    pub fn overlap_len(&self, other: &Interval) -> Coord {
        (self.hi.min(other.hi) - self.lo.max(other.lo)).max(0)
    }

    /// Grows both ends by `d` (clamped to empty when over-deflated).
    #[inline]
    pub fn inflated(&self, d: Coord) -> Interval {
        let lo = self.lo - d;
        let hi = self.hi + d;
        if lo > hi {
            let m = self.lo + self.len() / 2;
            Interval { lo: m, hi: m }
        } else {
            Interval { lo, hi }
        }
    }

    /// Intersection; `None` when the interiors are disjoint.
    #[inline]
    pub fn intersection(&self, other: &Interval) -> Option<Interval> {
        if !self.overlaps(other) {
            return None;
        }
        Some(Interval {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        })
    }

    /// True if `other` lies fully inside `self`.
    #[inline]
    pub fn contains(&self, other: &Interval) -> bool {
        other.is_empty() || (self.lo <= other.lo && other.hi <= self.hi)
    }

    /// True if the point is inside (half-open).
    #[inline]
    pub fn contains_point(&self, p: Coord) -> bool {
        self.lo <= p && p < self.hi
    }

    /// Hull of the two intervals.
    #[inline]
    pub fn hull(&self, other: &Interval) -> Interval {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {})", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_sorts() {
        assert_eq!(Interval::new(5, 2), Interval::new(2, 5));
        assert_eq!(Interval::new(2, 5).len(), 3);
        assert!(Interval::new(4, 4).is_empty());
    }

    #[test]
    fn overlap_vs_touch() {
        let a = Interval::new(0, 10);
        let b = Interval::new(10, 20);
        assert!(!a.overlaps(&b));
        assert!(a.touches(&b));
        assert!(a.overlaps(&Interval::new(9, 11)));
        assert_eq!(a.overlap_len(&Interval::new(9, 11)), 1);
        assert_eq!(a.overlap_len(&b), 0);
    }

    #[test]
    fn inflation() {
        let a = Interval::new(10, 20);
        assert_eq!(a.inflated(3), Interval::new(7, 23));
        assert!(a.inflated(-6).is_empty());
    }

    #[test]
    fn intersection_and_hull() {
        let a = Interval::new(0, 10);
        let b = Interval::new(5, 15);
        assert_eq!(a.intersection(&b), Some(Interval::new(5, 10)));
        assert_eq!(a.intersection(&Interval::new(10, 20)), None);
        assert_eq!(a.hull(&b), Interval::new(0, 15));
        assert_eq!(a.hull(&Interval::new(7, 7)), a);
    }

    #[test]
    fn containment() {
        let a = Interval::new(0, 10);
        assert!(a.contains(&Interval::new(0, 10)));
        assert!(a.contains(&Interval::new(3, 7)));
        assert!(!a.contains(&Interval::new(3, 11)));
        assert!(a.contains_point(0));
        assert!(!a.contains_point(10));
    }
}
