//! Property tests for the primitive shape functions: the automatic
//! design-rule guarantees hold for arbitrary parameters.

use amgen_core::GenCtx;
use amgen_db::LayoutObject;
use amgen_prim::Primitives;
use amgen_tech::Tech;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// inbox: the inner rectangle always ends up inside every outer one
    /// (deflated by its enclosure), whatever sizes were requested —
    /// expansion guarantees it.
    #[test]
    fn inbox_always_ends_up_inside(
        w1 in 1i64..30, l1 in 1i64..30,
        w2 in prop::option::of(1i64..40), l2 in prop::option::of(1i64..40),
    ) {
        let tech = GenCtx::from_tech(&Tech::bicmos_1u());
        let prim = Primitives::new(&tech);
        let poly = tech.layer("poly").unwrap();
        let m1 = tech.layer("metal1").unwrap();
        let mut obj = LayoutObject::new("x");
        prim.inbox(&mut obj, poly, Some(w1 * 1_000), Some(l1 * 1_000)).unwrap();
        let i = prim
            .inbox(&mut obj, m1, w2.map(|v| v * 1_000), l2.map(|v| v * 1_000))
            .unwrap();
        let inner = obj.shapes()[i].rect;
        let outer = obj.shapes()[0].rect;
        let margin = tech.enclosure(poly, m1);
        prop_assert!(outer.inflated(-margin).contains_rect(&inner),
            "outer {outer} inner {inner}");
        // Both respect their layer minima.
        prop_assert!(inner.width() >= tech.min_width(m1));
        prop_assert!(inner.height() >= tech.min_width(m1));
    }

    /// array: every cut lies in the frame with full enclosure, all cuts
    /// are rule-spaced, and at least one is always placed.
    #[test]
    fn array_cuts_are_enclosed_and_spaced(w in 1i64..40, l in 1i64..40) {
        let tech = GenCtx::from_tech(&Tech::bicmos_1u());
        let prim = Primitives::new(&tech);
        let poly = tech.layer("poly").unwrap();
        let m1 = tech.layer("metal1").unwrap();
        let ct = tech.layer("contact").unwrap();
        let mut obj = LayoutObject::new("x");
        prim.inbox(&mut obj, poly, Some(w * 1_000), Some(l * 1_000)).unwrap();
        prim.inbox(&mut obj, m1, None, None).unwrap();
        let cuts = prim.array(&mut obj, ct).unwrap();
        prop_assert!(!cuts.is_empty());
        let space = tech.min_spacing(ct, ct).unwrap();
        let cs = tech.cut_size(ct).unwrap();
        for (k, &i) in cuts.iter().enumerate() {
            let c = obj.shapes()[i].rect;
            prop_assert_eq!((c.width(), c.height()), (cs, cs));
            for s in obj.shapes().iter().take(2) {
                let enc = tech.enclosure(s.layer, ct);
                prop_assert!(s.rect.inflated(-enc).contains_rect(&c));
            }
            for &j in &cuts[k + 1..] {
                let o = obj.shapes()[j].rect;
                let gx = c.gap_along(&o, amgen_geom::Axis::X);
                let gy = c.gap_along(&o, amgen_geom::Axis::Y);
                prop_assert!(gx >= space || gy >= space, "{c} vs {o}");
            }
        }
    }

    /// around: the cover encloses every shape by its rule margin.
    #[test]
    fn around_encloses_everything(w in 2i64..30, l in 2i64..30) {
        let tech = GenCtx::from_tech(&Tech::bicmos_1u());
        let prim = Primitives::new(&tech);
        let pdiff = tech.layer("pdiff").unwrap();
        let nwell = tech.layer("nwell").unwrap();
        let mut obj = LayoutObject::new("x");
        prim.inbox(&mut obj, pdiff, Some(w * 1_000), Some(l * 1_000)).unwrap();
        let i = prim.around(&mut obj, nwell, 0).unwrap();
        let well = obj.shapes()[i].rect;
        let enc = tech.enclosure(nwell, pdiff);
        prop_assert!(well.inflated(-enc).contains_rect(&obj.shapes()[0].rect));
    }

    /// two_rects: the gate crossing always has the rule extensions, for
    /// any channel size (including below-minimum requests that clamp).
    #[test]
    fn two_rects_extensions_hold(w in 1i64..40, l in 1i64..10) {
        let tech = GenCtx::from_tech(&Tech::bicmos_1u());
        let prim = Primitives::new(&tech);
        let poly = tech.layer("poly").unwrap();
        let ndiff = tech.layer("ndiff").unwrap();
        let mut obj = LayoutObject::new("x");
        let (gi, di) = prim
            .two_rects(&mut obj, poly, ndiff, Some(w * 500), Some(l * 500))
            .unwrap();
        let g = obj.shapes()[gi].rect;
        let d = obj.shapes()[di].rect;
        prop_assert!(g.overlaps(&d));
        prop_assert_eq!(g.y1 - d.y1, tech.extension(poly, ndiff));
        prop_assert_eq!(d.x1 - g.x1, tech.extension(ndiff, poly));
        prop_assert!(g.width() >= tech.min_width(poly));
        prop_assert!(d.height() >= tech.min_width(ndiff));
    }
}
