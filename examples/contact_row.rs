//! Figs. 2/3: the contact row in its three parameter variants —
//! *"In the left example, both parameters W and L were omitted, in the
//! middle example only the parameter L was omitted and in the right
//! example W and L have been defined."*
//!
//! ```sh
//! cargo run --example contact_row
//! ```

use amgen::modgen::{contact_row, ContactRowParams};
use amgen::prelude::*;

fn main() {
    let tech = Tech::bicmos_1u();
    let ctx = GenCtx::from_tech(&tech);
    let poly = tech.layer("poly").unwrap();
    let ct = tech.layer("contact").unwrap();
    std::fs::create_dir_all("out").expect("create out/");

    let variants: [(&str, ContactRowParams); 3] = [
        ("left (defaults)", ContactRowParams::new()),
        ("middle (W = 10 um)", ContactRowParams::new().with_w(um(10))),
        (
            "right (W = 8, L = 6 um)",
            ContactRowParams::new().with_w(um(8)).with_l(um(6)),
        ),
    ];
    println!("Fig. 3 — contact row variants in {}:", tech.name());
    for (i, (name, params)) in variants.into_iter().enumerate() {
        let row = contact_row(&ctx, poly, &params).expect("row generates");
        let bb = row.bbox();
        println!(
            "  {name:22} -> {:5.1} x {:4.1} um, {} contact(s), {} shapes",
            bb.width() as f64 / 1e3,
            bb.height() as f64 / 1e3,
            row.shapes_on(ct).count(),
            row.len(),
        );
        let v = Drc::new(&ctx).check(&row);
        assert!(v.is_empty(), "{v:?}");
        let path = format!("out/fig3_variant{}.svg", i + 1);
        std::fs::write(&path, render_svg(&tech, &row)).expect("write svg");
        println!("{:26}wrote {path}", "");
    }

    // The same module source, other technology — the portability claim.
    let cmos = Tech::cmos_08();
    let poly8 = cmos.layer("poly").unwrap();
    let row = contact_row(
        &GenCtx::from_tech(&cmos),
        poly8,
        &ContactRowParams::new().with_w(um(10)),
    )
    .unwrap();
    println!(
        "same module in {}: {:.1} x {:.1} um, {} contacts",
        cmos.name(),
        row.bbox().width() as f64 / 1e3,
        row.bbox().height() as f64 / 1e3,
        row.shapes_on(cmos.layer("contact").unwrap()).count(),
    );
}
