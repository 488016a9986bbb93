//! Property-based tests for the geometry kernel.

use amgen_geom::{Orient, Point, Rect, Region};
use proptest::prelude::*;

fn arb_rect() -> impl Strategy<Value = Rect> {
    (-1000i64..1000, -1000i64..1000, 1i64..500, 1i64..500)
        .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h))
}

/// A rect on a small grid, so that random rects touch, nest and overlap.
fn arb_small_rect() -> impl Strategy<Value = Rect> {
    (0i64..20, 0i64..20, 1i64..10, 1i64..10).prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h))
}

proptest! {
    /// Subtraction partitions the solid rectangle exactly: remainders are
    /// disjoint, inside the solid, outside the cutter, and the areas add up.
    #[test]
    fn subtract_partitions_area(solid in arb_rect(), cutter in arb_rect()) {
        let parts = solid.subtract(&cutter);
        let cut = solid.intersection(&cutter).map_or(0, |o| o.area());
        let rem: i128 = parts.iter().map(Rect::area).sum();
        prop_assert_eq!(rem + cut, solid.area());
        for (i, p) in parts.iter().enumerate() {
            prop_assert!(!p.is_empty());
            prop_assert!(solid.contains_rect(p));
            prop_assert!(!p.overlaps(&cutter));
            for q in &parts[i + 1..] {
                prop_assert!(!p.overlaps(q));
            }
        }
    }

    /// At most four remainders ever result from one subtraction.
    #[test]
    fn subtract_yields_at_most_four(solid in arb_rect(), cutter in arb_rect()) {
        prop_assert!(solid.subtract(&cutter).len() <= 4);
    }

    /// Intersection is commutative and contained in both operands.
    #[test]
    fn intersection_commutes(a in arb_rect(), b in arb_rect()) {
        prop_assert_eq!(a.intersection(&b), b.intersection(&a));
        if let Some(i) = a.intersection(&b) {
            prop_assert!(a.contains_rect(&i));
            prop_assert!(b.contains_rect(&i));
        }
    }

    /// Region area is monotone under push and never exceeds the bbox area.
    #[test]
    fn region_area_bounds(rects in prop::collection::vec(arb_rect(), 1..12)) {
        let reg: Region = rects.iter().copied().collect();
        let max_single = rects.iter().map(Rect::area).max().unwrap();
        let sum: i128 = rects.iter().map(Rect::area).sum();
        let area = reg.area();
        prop_assert!(area >= max_single);
        prop_assert!(area <= sum);
        prop_assert!(area <= reg.bbox().area());
    }

    /// covered_by agrees with unit-cell membership: the region is covered
    /// exactly when every unit cell of it lies in some cover. The covers
    /// are up to 600 random specks plus one-high strips over each solid
    /// rect, one strip left out half the time, so both answers occur and
    /// more than half the cases hold over 256 covers.
    #[test]
    fn covered_by_matches_unit_cells(
        solid in prop::collection::vec(arb_small_rect(), 1..4),
        noise in prop::collection::vec((-10i64..40, -10i64..40, 1i64..4, 1i64..4), 0..600),
        skip in prop::option::of(any::<usize>()),
    ) {
        let mut strips: Vec<Rect> = solid
            .iter()
            .flat_map(|r| (r.y0..r.y1).map(|y| Rect::new(r.x0, y, r.x1, y + 1)))
            .collect();
        if let Some(k) = skip {
            strips.remove(k % strips.len());
        }
        let specks = noise.iter().map(|&(x, y, w, h)| Rect::new(x, y, x + w, y + h));
        let covers: Vec<Rect> = specks.chain(strips).collect();
        let cells_covered = solid.iter().all(|r| {
            (r.x0..r.x1).all(|x| {
                (r.y0..r.y1).all(|y| covers.iter().any(|c| c.contains_point(Point::new(x, y))))
            })
        });
        let reg: Region = solid.iter().copied().collect();
        prop_assert_eq!(reg.covered_by(covers.iter().copied()), cells_covered);
    }

    /// The in-place cascade step lists exactly what subtracting the
    /// cutter from each rectangle in turn lists, in the same order.
    #[test]
    fn subtract_rect_is_the_flat_map_of_subtract(
        solid in prop::collection::vec(arb_rect(), 0..24),
        cutters in prop::collection::vec(arb_rect(), 0..24),
    ) {
        let mut reg: Region = solid.iter().copied().collect();
        for c in &cutters {
            let expected: Vec<Rect> = reg.rects().iter().flat_map(|r| r.subtract(c)).collect();
            reg.subtract_rect(*c);
            prop_assert_eq!(reg.rects(), expected.as_slice());
        }
    }

    /// area and perimeter agree with a unit-cell count: a covered cell
    /// adds 1 to the area and 1 to the perimeter per uncovered
    /// neighbour. Small coordinates make the rects touch and nest, and a
    /// ring of four bars around a hole joins them half the time.
    #[test]
    fn area_and_perimeter_match_unit_cells(
        rects in prop::collection::vec(arb_small_rect(), 1..10),
        ring in prop::option::of((0i64..16, 0i64..16, 1i64..4)),
    ) {
        let mut all = rects;
        if let Some((x, y, hole)) = ring {
            let (x1, y1) = (x + hole + 2, y + hole + 2);
            all.extend([
                Rect::new(x, y, x1, y + 1),
                Rect::new(x, y1 - 1, x1, y1),
                Rect::new(x, y + 1, x + 1, y1 - 1),
                Rect::new(x1 - 1, y + 1, x1, y1 - 1),
            ]);
        }
        let inside = |x: i64, y: i64| all.iter().any(|r| r.contains_point(Point::new(x, y)));
        let (mut area, mut perimeter) = (0i128, 0i128);
        for x in -1..32 {
            for y in -1..32 {
                if inside(x, y) {
                    area += 1;
                    perimeter += [(x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)]
                        .iter()
                        .filter(|&&(nx, ny)| !inside(nx, ny))
                        .count() as i128;
                }
            }
        }
        let reg: Region = all.iter().copied().collect();
        prop_assert_eq!(reg.area(), area);
        prop_assert_eq!(reg.area_and_perimeter(), (area, perimeter));
    }

    /// normalize preserves covered area exactly.
    #[test]
    fn normalize_preserves_area(rects in prop::collection::vec(arb_rect(), 1..10)) {
        let mut reg: Region = rects.iter().copied().collect();
        let before = reg.area();
        reg.normalize();
        prop_assert_eq!(reg.area(), before);
    }

    /// Orientation transforms preserve rectangle area and are invertible.
    #[test]
    fn orient_preserves_area(r in arb_rect(), idx in 0usize..8) {
        let o = Orient::ALL[idx];
        let t = o.apply_rect(r);
        prop_assert_eq!(t.area(), r.area());
        prop_assert_eq!(o.inverse().apply_rect(t), r);
    }

    /// Point mirror is an involution.
    #[test]
    fn mirror_involution(x in -1000i64..1000, y in -1000i64..1000, ax in -1000i64..1000) {
        let p = Point::new(x, y);
        prop_assert_eq!(p.mirrored_x(ax).mirrored_x(ax), p);
        prop_assert_eq!(p.mirrored_y(ax).mirrored_y(ax), p);
    }
}
