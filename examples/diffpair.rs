//! Figs. 6/7: the five-step MOS differential pair, built through the
//! layout description language exactly as the paper prints it.
//!
//! ```sh
//! cargo run --example diffpair
//! ```

use amgen::dsl::stdlib;
use amgen::prelude::*;

fn main() {
    let tech = Tech::bicmos_1u();
    let ctx = GenCtx::from_tech(&tech);
    let mut interp = Interpreter::new(ctx.clone());
    interp.load(stdlib::FIG2_CONTACT_ROW).expect("load Fig. 2");
    interp.load(stdlib::FIG7_DIFF_PAIR).expect("load Fig. 7");

    println!("Fig. 7 source (as shipped in amgen_dsl::stdlib):");
    for line in stdlib::FIG7_DIFF_PAIR
        .lines()
        .filter(|l| !l.trim().is_empty())
    {
        println!("  {line}");
    }

    let out = interp
        .run("diff = DiffPair(W = 10, L = 2)\n")
        .expect("DiffPair builds");
    let pair = &out["diff"];
    let bb = pair.bbox();
    println!();
    println!(
        "DiffPair(W = 10, L = 2): {} shapes, {:.1} x {:.1} um",
        pair.len(),
        bb.width() as f64 / 1e3,
        bb.height() as f64 / 1e3,
    );

    // The paper's structural claim: "two transistors, three
    // diffusion-contact-rows and two poly-contacts".
    let poly = tech.layer("poly").unwrap();
    let gates = pair
        .shapes_on(poly)
        .filter(|s| s.rect.height() > 3 * s.rect.width())
        .count();
    println!("gate stripes: {gates} (paper: 2 transistors)");

    let violations = Drc::new(&ctx).check_spacing(pair);
    println!("spacing DRC: {} violation(s)", violations.len());
    assert!(violations.is_empty());

    std::fs::create_dir_all("out").expect("create out/");
    std::fs::write("out/fig6_diffpair.svg", render_svg(&tech, pair)).expect("svg");
    std::fs::write("out/fig6_diffpair.gds", write_gds(&tech, pair)).expect("gds");
    println!("wrote out/fig6_diffpair.svg and out/fig6_diffpair.gds");
}
