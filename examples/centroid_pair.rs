//! Fig. 10: the centroidal cross-coupled differential pair of block E —
//! 8 centre dummies, 4 dummies per side, fully symmetric wiring with
//! identical crossings, substrate contacts included.
//!
//! ```sh
//! cargo run --example centroid_pair
//! ```

use amgen::drc::latchup;
use amgen::modgen::centroid::{centroid_diff_pair, CentroidParams};
use amgen::modgen::MosType;
use amgen::prelude::*;
use std::time::Instant;

fn main() {
    let tech = Tech::bicmos_1u();
    let ctx = GenCtx::from_tech(&tech);
    let params = CentroidParams::paper(MosType::N)
        .with_w(um(6))
        .with_l(um(1));
    let t0 = Instant::now();
    let module = centroid_diff_pair(&ctx, &params).expect("module builds");
    let elapsed = t0.elapsed();
    let bb = module.bbox();
    println!("block E (paper configuration):");
    println!(
        "  {} shapes, {:.1} x {:.1} um, built in {:.1} ms (paper: 5 s on 1996 hardware)",
        module.len(),
        bb.width() as f64 / 1e3,
        bb.height() as f64 / 1e3,
        elapsed.as_secs_f64() * 1e3,
    );

    // "every net has identical crossings" — the audit.
    let counts = Router::new(&ctx).crossing_counts(&module);
    let get = |n: &str| {
        counts
            .iter()
            .find(|(x, _)| x == n)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    };
    println!("  crossings: d1 = {}, d2 = {}", get("d1"), get("d2"));
    assert_eq!(get("d1"), get("d2"));

    // "substrate or well contacts are included into the modules" — the
    // latch-up rule passes without any external help.
    let lu = latchup::check_latchup(&ctx, &module);
    println!("  latch-up check: {} violation(s)", lu.len());
    assert!(lu.is_empty());

    // Matched parasitics on the two drains.
    let nets = Extractor::new(&ctx).parasitics(&module);
    for name in ["d1", "d2"] {
        if let Some(n) = nets.iter().find(|n| n.name.as_deref() == Some(name)) {
            println!("  C({name}) = {:.1} fF", n.cap_af / 1e3);
        }
    }

    std::fs::create_dir_all("out").expect("create out/");
    std::fs::write("out/fig10_centroid.svg", render_svg(&tech, &module)).expect("svg");
    std::fs::write("out/fig10_centroid.gds", write_gds(&tech, &module)).expect("gds");
    println!("wrote out/fig10_centroid.svg and out/fig10_centroid.gds");
}
