//! Property tests for the successive compactor beyond the DRC-cleanliness
//! suite in `amgen-drc`: keepout protection, merge semantics, offset
//! monotonicity.

use amgen_compact::{CompactOptions, Compactor};
use amgen_core::GenCtx;
use amgen_db::{LayoutObject, Shape};
use amgen_geom::{Dir, Rect};
use amgen_tech::Tech;
use proptest::prelude::*;

fn stripe(
    tech: &GenCtx,
    layer: &str,
    w: i64,
    h: i64,
    net: Option<&str>,
    keepout: bool,
) -> LayoutObject {
    let l = tech.layer(layer).unwrap();
    let mut o = LayoutObject::new("s");
    let mut s = Shape::new(l, Rect::new(0, 0, w, h));
    if let Some(n) = net {
        let id = o.net(n);
        s = s.with_net(id);
    }
    if keepout {
        s = s.with_keepout();
    }
    o.push(s);
    o
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Keepout shapes are never overlapped by later objects, whatever the
    /// layer mix (no spacing rule exists between poly and metal1, so only
    /// the keepout protects).
    #[test]
    fn keepout_is_never_overlapped(
        sizes in prop::collection::vec((2i64..10, 2i64..10), 1..6),
        sides in prop::collection::vec(0usize..4, 1..6),
    ) {
        let tech = GenCtx::from_tech(&Tech::bicmos_1u());
        let c = Compactor::new(&tech);
        let mut main = LayoutObject::new("main");
        let protected = stripe(&tech, "poly", 4_000, 4_000, None, true);
        c.compact(&mut main, &protected, Dir::West, &CompactOptions::new()).unwrap();
        let protected_rect = main.shapes()[0].rect;
        for (i, &(w, h)) in sizes.iter().enumerate() {
            let side = Dir::ALL[sides[i % sides.len()]];
            let obj = stripe(&tech, "metal1", w * 1_000, h * 1_000, None, false);
            c.compact(&mut main, &obj, side, &CompactOptions::new()).unwrap();
        }
        for s in main.shapes().iter().skip(1) {
            prop_assert!(!s.rect.overlaps(&protected_rect), "{} overlaps keepout", s.rect);
        }
    }

    /// Same-net objects always stop at touch (never overlap, never gap)
    /// when their projections collide.
    #[test]
    fn same_net_abutment_is_exact(w in 2i64..12, h in 2i64..12, n in 2usize..6) {
        let tech = GenCtx::from_tech(&Tech::bicmos_1u());
        let c = Compactor::new(&tech);
        let mut main = LayoutObject::new("main");
        let obj = stripe(&tech, "metal1", w * 1_000, h * 1_000, Some("vdd"), false);
        for _ in 0..n {
            c.compact(&mut main, &obj, Dir::East, &CompactOptions::new()).unwrap();
        }
        // The strip is exactly n abutting copies: total width n * w.
        prop_assert_eq!(main.bbox().width(), n as i64 * w * 1_000);
        let m1 = tech.layer("metal1").unwrap();
        let region: amgen_geom::Region = main.shapes_on(m1).map(|s| s.rect).collect();
        prop_assert_eq!(region.area(), (n as i128) * (w as i128 * 1_000) * (h as i128 * 1_000));
    }

    /// Compacting from opposite sides is symmetric: the gaps agree.
    #[test]
    fn opposite_sides_give_mirror_results(w in 1i64..8, h in 1i64..8) {
        let tech = GenCtx::from_tech(&Tech::bicmos_1u());
        let c = Compactor::new(&tech);
        let obj = stripe(&tech, "poly", w * 1_000, h * 1_000, None, false);
        let run = |side: Dir| {
            let mut main = LayoutObject::new("main");
            c.compact(&mut main, &obj, side, &CompactOptions::new()).unwrap();
            c.compact(&mut main, &obj, side, &CompactOptions::new()).unwrap();
            main.bbox()
        };
        let east = run(Dir::East);
        let west = run(Dir::West);
        prop_assert_eq!(east.width(), west.width());
        let north = run(Dir::North);
        let south = run(Dir::South);
        prop_assert_eq!(north.height(), south.height());
    }

    /// Extra clearance shifts the result by exactly the clearance.
    #[test]
    fn extra_clearance_is_additive(extra in 0i64..40) {
        let tech = GenCtx::from_tech(&Tech::bicmos_1u());
        let c = Compactor::new(&tech);
        let obj = stripe(&tech, "poly", 2_000, 5_000, None, false);
        let extra = extra * 50; // grid multiples
        let width = |e: i64| {
            let mut main = LayoutObject::new("main");
            c.compact(&mut main, &obj, Dir::East, &CompactOptions::new()).unwrap();
            c.compact(
                &mut main,
                &obj,
                Dir::East,
                &CompactOptions::new().with_extra_clearance(e),
            )
            .unwrap();
            main.bbox().width()
        };
        prop_assert_eq!(width(extra), width(0) + extra);
    }
}
