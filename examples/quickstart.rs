//! Quickstart: generate the paper's Fig. 2 contact row from its layout
//! description language source, check it, and export it.
//!
//! ```sh
//! cargo run --example quickstart
//! # with a Chrome trace of every pipeline stage (chrome://tracing):
//! cargo run --example quickstart -- --trace quickstart.json
//! ```

use amgen::prelude::*;

fn main() {
    // 1. Pick a technology (the built-in synthetic 1 µm BiCMOS deck).
    let tech = Tech::bicmos_1u();

    // 2. Write a module in the layout description language — the exact
    //    source of the paper's Fig. 2, plus a call line.
    let source = r#"
row = ContactRow(layer = "poly", W = 10)

ENT ContactRow(layer, <W>, <L>)
  INBOX(layer, W, L)
  INBOX("metal1")
  ARRAY("contact")
"#;

    // 3. Run it — through a shared generation context so the optional
    //    `--trace` flag sees every stage (DSL, primitives, compaction,
    //    DRC) on one timeline.
    let trace_path = amgen::trace::trace_path_from_args();
    let ctx = GenCtx::from_tech(&tech).with_tracing_at(if trace_path.is_some() {
        Detail::Fine
    } else {
        Detail::Off
    });
    let mut interp = Interpreter::new(ctx.clone());
    let objects = interp.run(source).expect("program runs");
    let row = &objects["row"];
    println!(
        "generated `{}`: {} shapes, {:.1} x {:.1} um",
        row.name(),
        row.len(),
        row.bbox().width() as f64 / 1e3,
        row.bbox().height() as f64 / 1e3,
    );

    // 4. Verify the design rules (the environment already guaranteed
    //    them; the checker is the independent referee).
    let violations = Drc::new(&ctx).check(row);
    println!("DRC: {} violation(s)", violations.len());
    assert!(violations.is_empty());

    // 5. Export.
    std::fs::create_dir_all("out").expect("create out/");
    std::fs::write("out/quickstart.svg", render_svg(&tech, row)).expect("write svg");
    std::fs::write("out/quickstart.gds", write_gds(&tech, row)).expect("write gds");
    println!("wrote out/quickstart.svg and out/quickstart.gds");

    // 6. Optionally dump the structured trace + run report.
    if let Some(path) = trace_path {
        println!("\n{}", ctx.run_report());
        ctx.trace
            .drain()
            .write_chrome_file(&path)
            .expect("write trace");
        println!("chrome trace written to {}", path.display());
    }
}
