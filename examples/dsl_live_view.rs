//! The twin-window experience of the original environment: *"During
//! programming the environment supports two windows, a text window for
//! the source code and a corresponding graphical view of the module."*
//!
//! `Interpreter::run_traced` snapshots the object map after every
//! top-level statement; this example renders each snapshot to an SVG so
//! you can watch the modules appear statement by statement.
//!
//! ```sh
//! cargo run --example dsl_live_view
//! ```

use amgen::dsl::stdlib;
use amgen::prelude::*;

fn main() {
    let tech = Tech::bicmos_1u();
    let mut interp = Interpreter::new(GenCtx::from_tech(&tech));
    interp.load(stdlib::FIG2_CONTACT_ROW).unwrap();
    interp.load(stdlib::FIG7_DIFF_PAIR).unwrap();

    let src = r#"
gatecon = ContactRow(layer = "poly", W = 6)
trans = Trans(W = 10, L = 2)
diff = DiffPair(W = 10, L = 2)
"#;
    let (final_map, snapshots) = interp.run_traced(src).expect("program runs");
    std::fs::create_dir_all("out").expect("create out/");
    println!("live view — one SVG per statement:");
    for (i, (stmt, state)) in snapshots.iter().enumerate() {
        println!("  [{i}] {stmt}");
        for (name, obj) in state {
            println!(
                "        {name}: {} shapes, {:.1} x {:.1} um",
                obj.len(),
                obj.bbox().width() as f64 / 1e3,
                obj.bbox().height() as f64 / 1e3
            );
        }
        // Render the object the statement assigned.
        let target = stmt.split('=').next().unwrap_or("").trim().to_string();
        if let Some(obj) = state.get(&target) {
            let path = format!("out/live_{i}_{target}.svg");
            std::fs::write(&path, render_svg(&tech, obj)).expect("write svg");
            println!("        wrote {path}");
        }
    }
    assert_eq!(final_map.len(), 3);
}
