//! Min-area clustering on a chain long enough to overflow a recursive
//! union-find.

use amgen_core::GenCtx;
use amgen_db::{LayoutObject, Shape};
use amgen_drc::Drc;
use amgen_geom::{um, Rect};
use amgen_tech::Tech;

/// A 20,000-segment metal1 rail is one region, far above the minimum
/// area, even on a 256 KiB stack: the union-find's parent chain along
/// the rail is as long as the rail.
#[test]
fn a_long_rail_passes_min_area_on_a_small_stack() {
    let ctx = GenCtx::from_tech(&Tech::bicmos_1u());
    let m1 = ctx.layer("metal1").unwrap();
    let mut rail = LayoutObject::with_capacity("rail", 20_000);
    for i in 0..20_000 {
        rail.push(Shape::new(
            m1,
            Rect::new(0, i * um(2), um(2), (i + 1) * um(2)),
        ));
    }
    let violations = std::thread::Builder::new()
        .stack_size(256 << 10)
        .spawn(move || Drc::new(&ctx).check_min_area(&rail))
        .unwrap()
        .join()
        .unwrap();
    assert!(violations.is_empty(), "{violations:?}");
}
