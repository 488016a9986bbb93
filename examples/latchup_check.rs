//! Fig. 1: the latch-up rule check — temporary rectangles around the
//! substrate contacts must jointly cover every MOS active area; uncovered
//! remainders mean *"additional substrate contacts have to be inserted"*.
//!
//! ```sh
//! cargo run --example latchup_check
//! ```

use amgen::drc::latchup;
use amgen::prelude::*;

fn main() {
    let tech = Tech::bicmos_1u();
    let ctx = GenCtx::from_tech(&tech);
    let pdiff = tech.layer("pdiff").unwrap();
    let d = tech.latchup_distance();
    println!(
        "latch-up coverage distance in {}: {} um",
        tech.name(),
        d as f64 / 1e3
    );

    // A long active stripe, 3x the coverage distance.
    let mut obj = LayoutObject::new("demo");
    obj.push(Shape::new(pdiff, Rect::new(0, 0, 3 * d, um(6))).with_role(ShapeRole::DeviceActive));

    // One contact at the west end: the east part stays uncovered.
    obj.push(
        Shape::new(pdiff, Rect::new(-um(2), 0, 0, um(2))).with_role(ShapeRole::SubstrateContact),
    );
    let rem = latchup::latchup_remainder(&ctx, &obj);
    println!("with 1 contact: {} uncovered remainder rect(s)", rem.len());
    for r in rem.rects() {
        println!(
            "  uncovered: x = {:.0}..{:.0} um",
            r.x0 as f64 / 1e3,
            r.x1 as f64 / 1e3
        );
    }
    assert!(!rem.is_empty());

    // A second contact past the midpoint finishes the cover — the
    // two temporary rectangles jointly enclose the stripe (the paper's
    // 16 overlap cases resolve piece by piece).
    obj.push(
        Shape::new(pdiff, Rect::new(2 * d, 0, 2 * d + um(2), um(2)))
            .with_role(ShapeRole::SubstrateContact),
    );
    let rem = latchup::latchup_remainder(&ctx, &obj);
    println!("with 2 contacts: {} uncovered remainder rect(s)", rem.len());
    assert!(rem.is_empty());
    println!("latch-up rule fulfilled");
}
