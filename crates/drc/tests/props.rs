//! Property test: the successive compactor never produces spacing
//! violations — the central guarantee of the paper's environment
//! (*"the relevant design-rules are regarded automatically"*).

use amgen_compact::{CompactOptions, Compactor};
use amgen_core::GenCtx;
use amgen_db::{LayoutObject, Shape};
use amgen_drc::{Drc, ViolationKind};
use amgen_geom::{Dir, Rect};
use amgen_tech::Tech;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct StripeSpec {
    layer: usize, // index into LAYERS
    w: i64,
    h: i64,
    net: usize, // index into NETS, NETS.len() = unset
    side: usize,
}

const LAYERS: [&str; 4] = ["poly", "metal1", "pdiff", "metal2"];
const NETS: [&str; 3] = ["a", "b", "c"];

fn arb_stripe() -> impl Strategy<Value = StripeSpec> {
    (
        0usize..LAYERS.len(),
        1i64..8,
        1i64..8,
        0usize..=NETS.len(),
        0usize..4,
    )
        .prop_map(|(layer, w, h, net, side)| StripeSpec {
            layer,
            w: w * 1_000,
            h: h * 1_000,
            net,
            side,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any sequence of rule-clean stripes compacted from any sides yields
    /// a layout without spacing violations or shorts.
    #[test]
    fn compaction_is_spacing_clean(specs in prop::collection::vec(arb_stripe(), 1..10)) {
        let tech = GenCtx::from_tech(&Tech::bicmos_1u());
        let c = Compactor::new(&tech);
        let mut main = LayoutObject::new("main");
        for spec in &specs {
            let layer = tech.layer(LAYERS[spec.layer]).unwrap();
            // Respect the layer's own minimum width so the width check
            // stays out of the picture.
            let mw = tech.min_width(layer);
            let mut obj = LayoutObject::new("stripe");
            let mut s = Shape::new(layer, Rect::new(0, 0, spec.w.max(mw), spec.h.max(mw)));
            if spec.net < NETS.len() {
                let id = obj.net(NETS[spec.net]);
                s = s.with_net(id);
            }
            obj.push(s);
            let side = Dir::ALL[spec.side];
            c.compact(&mut main, &obj, side, &CompactOptions::new()).unwrap();
        }
        let violations = Drc::new(&tech).check(&main);
        let bad: Vec<_> = violations
            .iter()
            .filter(|v| matches!(v.kind, ViolationKind::Spacing | ViolationKind::Short))
            .collect();
        prop_assert!(bad.is_empty(), "{bad:?}");
    }

    /// Compaction is deterministic: the same sequence gives the same
    /// layout.
    #[test]
    fn compaction_is_deterministic(specs in prop::collection::vec(arb_stripe(), 1..6)) {
        let tech = GenCtx::from_tech(&Tech::bicmos_1u());
        let run = || {
            let c = Compactor::new(&tech);
            let mut main = LayoutObject::new("main");
            for spec in &specs {
                let layer = tech.layer(LAYERS[spec.layer]).unwrap();
                let mut obj = LayoutObject::new("stripe");
                let mw = tech.min_width(layer);
                obj.push(Shape::new(layer, Rect::new(0, 0, spec.w.max(mw), spec.h.max(mw))));
                c.compact(&mut main, &obj, Dir::ALL[spec.side], &CompactOptions::new()).unwrap();
            }
            main
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.shapes(), b.shapes());
    }
}
