//! Figs. 8/9: the complete broad-band BiCMOS amplifier — six blocks with
//! per-block matching styles, placement, supply rails and global signal
//! routing, then measurement against the paper's reported layout.
//!
//! ```sh
//! cargo run --example bicmos_amplifier
//! ```

use amgen::amp::build_amplifier;
use amgen::prelude::*;
use std::time::Instant;

fn main() {
    let tech = Tech::bicmos_1u();
    let ctx = GenCtx::from_tech(&tech);
    let t0 = Instant::now();
    let (amp, report) = build_amplifier(&ctx).expect("amplifier builds");
    let elapsed = t0.elapsed();

    println!("BiCMOS amplifier (paper section 3):");
    println!("  blocks:");
    for (name, w, h) in &report.blocks {
        println!("    {name:20} {w:7.1} x {h:6.1} um");
    }
    println!(
        "  total: {:.1} x {:.1} um = {:.0} um^2 (paper: 592 x 481 um in the Siemens process)",
        report.width_um,
        report.height_um,
        report.width_um * report.height_um,
    );
    println!(
        "  built + checked + extracted in {:.2} s",
        elapsed.as_secs_f64()
    );
    println!(
        "  shorts: {}   latch-up clean: {}",
        report.shorts, report.latchup_clean
    );
    println!("  output net capacitance: {:.1} fF", report.output_cap_ff);
    assert_eq!(report.shorts, 0);
    assert!(report.latchup_clean);

    std::fs::create_dir_all("out").expect("create out/");
    std::fs::write("out/fig9_amplifier.svg", render_svg(&tech, &amp)).expect("svg");
    std::fs::write("out/fig9_amplifier.gds", write_gds(&tech, &amp)).expect("gds");
    println!("wrote out/fig9_amplifier.svg and out/fig9_amplifier.gds");
}
