//! Rectangle sets with exact area bookkeeping and cover tests.
//!
//! [`Region`] implements the data structure behind the paper's latch-up
//! rule check (Fig. 1): a list of "solid" rectangles from which enclosing
//! "temporary" rectangles are subtracted one by one; the rule is fulfilled
//! when nothing remains. That one subtraction step
//! ([`Region::subtract_rect`]) serves every consumer of the geometry
//! core, and one slab sweep ([`Region::area_and_perimeter`]) measures a
//! region's area and perimeter together.

use crate::coord::Coord;
use crate::rect::Rect;

/// A set of (possibly overlapping) rectangles.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Region {
    rects: Vec<Rect>,
}

impl Region {
    /// Creates an empty region.
    pub fn new() -> Region {
        Region::default()
    }

    /// Creates a region from one rectangle (empty rectangles are dropped).
    pub fn from_rect(r: Rect) -> Region {
        let mut reg = Region::new();
        reg.push(r);
        reg
    }

    /// Creates a region from rectangles (empty ones are dropped).
    pub fn from_rects<I: IntoIterator<Item = Rect>>(rects: I) -> Region {
        let mut reg = Region::new();
        for r in rects {
            reg.push(r);
        }
        reg
    }

    /// Adds a rectangle (no-op for empty rectangles).
    pub fn push(&mut self, r: Rect) {
        if !r.is_empty() {
            self.rects.push(r);
        }
    }

    /// Removes every rectangle, keeping the allocation.
    pub fn clear(&mut self) {
        self.rects.clear();
    }

    /// The stored rectangles.
    pub fn rects(&self) -> &[Rect] {
        &self.rects
    }

    /// True if nothing remains.
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// Number of stored rectangles.
    pub fn len(&self) -> usize {
        self.rects.len()
    }

    /// Bounding box of all rectangles.
    pub fn bbox(&self) -> Rect {
        self.rects
            .iter()
            .fold(Rect::EMPTY, |acc, r| acc.union_bbox(r))
    }

    /// Exact covered area, counting overlapping parts once.
    pub fn area(&self) -> i128 {
        self.area_and_perimeter().0
    }

    /// Exact covered area and perimeter (outer + hole boundaries), each
    /// counting overlapping parts once, from one coordinate-compressed
    /// slab sweep.
    ///
    /// The rectangles' x-edges cut the plane into slabs, inside which the
    /// region is a set of maximal y-intervals. A slab adds its covered
    /// length times its width to the area, and twice its width per
    /// interval to the perimeter (the horizontal edges); each breakpoint
    /// adds the length of the symmetric difference of the y-sets on its
    /// two sides (the vertical edges). Any decomposition of the same
    /// point set therefore measures the same. Each slab filters every
    /// rectangle, O(n² log n) in all, which is ample for module-sized and
    /// per-net rectangle counts.
    pub fn area_and_perimeter(&self) -> (i128, i128) {
        let mut xs: Vec<Coord> = self.rects.iter().flat_map(|r| [r.x0, r.x1]).collect();
        xs.sort_unstable();
        xs.dedup();
        let (mut area, mut perimeter) = (0, 0);
        // The y-sets of the slabs left and right of the breakpoint.
        let (mut left, mut right) = (Vec::new(), Vec::new());
        for (k, &x) in xs.iter().enumerate() {
            right.clear();
            if let Some(&x1) = xs.get(k + 1) {
                // Every edge is a breakpoint, so a rectangle either spans
                // the slab or misses it.
                right.extend(
                    self.rects
                        .iter()
                        .filter(|r| r.x0 <= x && r.x1 >= x1)
                        .map(|r| (r.y0, r.y1)),
                );
                merge_intervals(&mut right);
                let w = (x1 - x) as i128;
                area += w * length(&right);
                perimeter += 2 * w * right.len() as i128;
            }
            perimeter += length(&left) + length(&right) - 2 * overlap(&left, &right);
            std::mem::swap(&mut left, &mut right);
        }
        (area, perimeter)
    }

    /// Subtracts one rectangle from every stored rectangle, replacing each
    /// by its remainders — the paper's *"only the overlapping part is cut
    /// while the remaining part of the rectangle is still stored in the
    /// database"*. This is the one subtraction step of the geometry core.
    ///
    /// Works in place, with no allocation per fragment: the rectangles
    /// come out exactly as `rects().iter().flat_map(|r| r.subtract(&cutter))`
    /// would list them — each rectangle's remainders in
    /// [`Rect::subtract`]'s order, the rectangles in their order. The
    /// latch-up check's byte-identity rests on that order.
    pub fn subtract_rect(&mut self, cutter: Rect) {
        // The rectangles before the first one the cutter overlaps keep
        // their places. From there on, each rectangle appends its
        // remainders to the end, and draining the originals closes the
        // gap in order.
        let Some(first) = self.rects.iter().position(|r| r.overlaps(&cutter)) else {
            return;
        };
        let n = self.rects.len();
        for i in first..n {
            let r = self.rects[i];
            r.subtract_into(&cutter, &mut self.rects);
        }
        self.rects.drain(first..n);
    }

    /// True if the given cover rectangles jointly contain every rectangle
    /// of this region — the latch-up cover test of Fig. 1.
    ///
    /// Streams the covers through [`subtract_rect`](Region::subtract_rect)
    /// on one copy of the region and stops at the first cover that leaves
    /// nothing. The answer is a set predicate, so the order of the covers
    /// cannot change it.
    ///
    /// # Example
    /// ```
    /// use amgen_geom::{Rect, Region};
    /// let active = Region::from_rect(Rect::new(0, 0, 8, 2));
    /// assert!(active.covered_by([Rect::new(0, 0, 5, 2), Rect::new(4, 0, 8, 2)]));
    /// assert!(!active.covered_by([Rect::new(0, 0, 5, 2)]));
    /// ```
    pub fn covered_by<I: IntoIterator<Item = Rect>>(&self, covers: I) -> bool {
        let mut rest = self.clone();
        for c in covers {
            if rest.is_empty() {
                break;
            }
            rest.subtract_rect(c);
        }
        rest.is_empty()
    }

    /// True if any stored rectangle overlaps `r`.
    pub fn intersects(&self, r: &Rect) -> bool {
        self.rects.iter().any(|s| s.overlaps(r))
    }

    /// Merges abutting/overlapping rectangles where possible by repeated
    /// pairwise joins of rectangles whose union is itself a rectangle.
    ///
    /// Used by the compactor's auto-connect step after same-potential
    /// geometry has been brought into contact.
    pub fn normalize(&mut self) {
        let mut changed = true;
        while changed {
            changed = false;
            'outer: for i in 0..self.rects.len() {
                for j in (i + 1)..self.rects.len() {
                    let a = self.rects[i];
                    let b = self.rects[j];
                    if let Some(m) = merge_pair(&a, &b) {
                        self.rects[i] = m;
                        self.rects.swap_remove(j);
                        changed = true;
                        break 'outer;
                    }
                }
            }
        }
    }
}

/// Sorts half-open intervals and merges the overlapping and touching
/// ones (`[a,b) ∪ [b,c) = [a,c)`) in place.
fn merge_intervals(ys: &mut Vec<(Coord, Coord)>) {
    ys.sort_unstable();
    ys.dedup_by(|(lo, hi), prev| {
        let joins = *lo <= prev.1;
        if joins {
            prev.1 = prev.1.max(*hi);
        }
        joins
    });
}

/// The total length of sorted disjoint intervals.
fn length(ys: &[(Coord, Coord)]) -> i128 {
    ys.iter().map(|&(lo, hi)| (hi - lo) as i128).sum()
}

/// The length of the intersection of two sorted disjoint interval lists.
fn overlap(a: &[(Coord, Coord)], b: &[(Coord, Coord)]) -> i128 {
    let (mut i, mut j, mut total) = (0, 0, 0);
    while let (Some(&(alo, ahi)), Some(&(blo, bhi))) = (a.get(i), b.get(j)) {
        total += (ahi.min(bhi) - alo.max(blo)).max(0) as i128;
        if ahi < bhi {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

/// Merges two rectangles when one contains the other or their union is an
/// exact rectangle (same x-range stacked in y, or same y-range side by
/// side, touching or overlapping).
fn merge_pair(a: &Rect, b: &Rect) -> Option<Rect> {
    if a.contains_rect(b) {
        return Some(*a);
    }
    if b.contains_rect(a) {
        return Some(*b);
    }
    if a.x0 == b.x0 && a.x1 == b.x1 && a.y_range().touches(&b.y_range()) {
        return Some(Rect::new(a.x0, a.y0.min(b.y0), a.x1, a.y1.max(b.y1)));
    }
    if a.y0 == b.y0 && a.y1 == b.y1 && a.x_range().touches(&b.x_range()) {
        return Some(Rect::new(a.x0.min(b.x0), a.y0, a.x1.max(b.x1), a.y1));
    }
    None
}

impl FromIterator<Rect> for Region {
    fn from_iter<T: IntoIterator<Item = Rect>>(iter: T) -> Region {
        Region::from_rects(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_of_disjoint_rects() {
        let reg = Region::from_rects([Rect::new(0, 0, 10, 10), Rect::new(20, 0, 30, 5)]);
        assert_eq!(reg.area(), 150);
    }

    #[test]
    fn area_counts_overlap_once() {
        let reg = Region::from_rects([Rect::new(0, 0, 10, 10), Rect::new(5, 5, 15, 15)]);
        assert_eq!(reg.area(), 100 + 100 - 25);
    }

    #[test]
    fn area_of_empty_region() {
        assert_eq!(Region::new().area(), 0);
        assert_eq!(Region::from_rect(Rect::EMPTY).area(), 0);
    }

    #[test]
    fn subtract_cuts_and_keeps_remainder() {
        let mut reg = Region::from_rect(Rect::new(0, 0, 10, 10));
        reg.subtract_rect(Rect::new(0, 0, 10, 6));
        assert_eq!(reg.rects(), &[Rect::new(0, 6, 10, 10)]);
        assert_eq!(reg.area(), 40);
    }

    #[test]
    fn covered_by_two_partial_covers() {
        let reg = Region::from_rect(Rect::new(0, 0, 100, 20));
        assert!(reg.covered_by([Rect::new(-5, -5, 60, 25), Rect::new(50, -5, 105, 25)]));
        assert!(
            !reg.covered_by([Rect::new(-5, -5, 60, 25), Rect::new(70, -5, 105, 25)]),
            "a 10-wide gap remains uncovered"
        );
    }

    #[test]
    fn covered_by_empty_region_is_trivially_true() {
        assert!(Region::new().covered_by([]));
    }

    #[test]
    fn normalize_merges_stacked_rects() {
        let mut reg = Region::from_rects([
            Rect::new(0, 0, 10, 5),
            Rect::new(0, 5, 10, 10),
            Rect::new(0, 10, 10, 12),
        ]);
        reg.normalize();
        assert_eq!(reg.rects(), &[Rect::new(0, 0, 10, 12)]);
    }

    #[test]
    fn normalize_merges_contained_rects() {
        let mut reg = Region::from_rects([Rect::new(0, 0, 10, 10), Rect::new(2, 2, 5, 5)]);
        reg.normalize();
        assert_eq!(reg.rects(), &[Rect::new(0, 0, 10, 10)]);
    }

    #[test]
    fn normalize_keeps_l_shape_as_two_rects() {
        let mut reg = Region::from_rects([Rect::new(0, 0, 10, 5), Rect::new(0, 5, 4, 10)]);
        reg.normalize();
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.area(), 50 + 20);
    }

    #[test]
    fn perimeter_of_single_rect() {
        assert_eq!(
            Region::from_rect(Rect::new(0, 0, 10, 4)).area_and_perimeter(),
            (40, 28)
        );
        assert_eq!(Region::new().area_and_perimeter(), (0, 0));
    }

    #[test]
    fn perimeter_of_abutting_rects_merges() {
        let reg = Region::from_rects([Rect::new(0, 0, 10, 4), Rect::new(10, 0, 20, 4)]);
        assert_eq!(reg.area_and_perimeter().1, 2 * (20 + 4));
    }

    #[test]
    fn perimeter_of_overlapping_rects() {
        // Two 10x10 squares overlapping by 5 in x: outline is a 15x10
        // rectangle.
        let reg = Region::from_rects([Rect::new(0, 0, 10, 10), Rect::new(5, 0, 15, 10)]);
        assert_eq!(reg.area_and_perimeter().1, 2 * (15 + 10));
    }

    #[test]
    fn perimeter_of_l_shape() {
        let reg = Region::from_rects([Rect::new(0, 0, 10, 4), Rect::new(0, 4, 4, 10)]);
        // L outline: 10 + 4 + 6 + 6 + 4 + 10 = 40.
        assert_eq!(reg.area_and_perimeter().1, 40);
    }

    #[test]
    fn perimeter_of_disjoint_rects_adds() {
        let reg = Region::from_rects([Rect::new(0, 0, 2, 2), Rect::new(10, 10, 12, 12)]);
        assert_eq!(reg.area_and_perimeter().1, 16);
    }

    #[test]
    fn intersects_and_bbox() {
        let reg = Region::from_rects([Rect::new(0, 0, 2, 2), Rect::new(8, 8, 12, 12)]);
        assert!(reg.intersects(&Rect::new(1, 1, 9, 9)));
        assert!(!reg.intersects(&Rect::new(3, 3, 7, 7)));
        assert_eq!(reg.bbox(), Rect::new(0, 0, 12, 12));
    }

    #[test]
    fn subtract_keeps_fragment_and_remainder_order() {
        let mut reg = Region::from_rects([
            Rect::new(0, 0, 4, 4),
            Rect::new(10, 0, 20, 10),
            Rect::new(30, 0, 34, 4),
            Rect::new(12, 2, 14, 4),
        ]);
        let cutter = Rect::new(12, 4, 16, 6);
        let expected: Vec<Rect> = reg
            .rects()
            .iter()
            .flat_map(|r| r.subtract(&cutter))
            .collect();
        reg.subtract_rect(cutter);
        assert_eq!(reg.rects(), expected.as_slice());
        assert_eq!(reg.rects()[0], Rect::new(0, 0, 4, 4), "untouched prefix");
        assert_eq!(reg.len(), 3 + 4);
    }

    #[test]
    fn subtract_by_empty_or_disjoint_cutter_changes_nothing() {
        let rects = [Rect::new(0, 0, 4, 4), Rect::new(8, 0, 12, 4)];
        let mut reg = Region::from_rects(rects);
        reg.subtract_rect(Rect::EMPTY);
        reg.subtract_rect(Rect::new(4, 0, 8, 4));
        assert_eq!(reg.rects(), &rects);
    }

    #[test]
    fn ring_counts_its_hole_in_the_perimeter() {
        // A 10x10 square with a 2x2 hole, drawn as four bars.
        let reg = Region::from_rects([
            Rect::new(0, 0, 10, 4),
            Rect::new(0, 6, 10, 10),
            Rect::new(0, 4, 4, 6),
            Rect::new(6, 4, 10, 6),
        ]);
        assert_eq!(reg.area(), 100 - 4);
        assert_eq!(reg.area_and_perimeter().1, 40 + 8);
    }
}
