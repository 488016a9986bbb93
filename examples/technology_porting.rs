//! Technology independence end to end: the same module source generates
//! rule-clean layouts in the built-in BiCMOS deck, the built-in CMOS
//! deck, **and a custom deck supplied as tech-file text** — including a
//! hand-scaled 2 µm variant to show areas track the rules.
//!
//! ```sh
//! cargo run --example technology_porting
//! ```

use amgen::dsl::stdlib;
use amgen::prelude::*;
use amgen::tech::builtin::BICMOS_1U;

/// Scales every dimension statement of a deck by an integer factor —
/// a deliberately crude "process shrink in reverse" for the demo.
fn scale_deck(deck: &str, factor: i64, name: &str) -> String {
    deck.lines()
        .map(|line| {
            let mut parts: Vec<String> = line.split_whitespace().map(str::to_string).collect();
            match parts.first().map(String::as_str) {
                Some("tech") => format!("tech {name}"),
                Some("grid") | Some("latchup") | Some("width") | Some("space")
                | Some("enclose") | Some("extend") | Some("cutsize") => {
                    if let Some(last) = parts.last_mut() {
                        if let Ok(v) = last.parse::<i64>() {
                            *last = (v * factor).to_string();
                        }
                    }
                    parts.join(" ")
                }
                _ => line.to_string(),
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn main() {
    let scaled_text = scale_deck(BICMOS_1U, 2, "bicmos_2u");
    let decks = [
        Tech::bicmos_1u(),
        Tech::cmos_08(),
        Tech::parse(&scaled_text).expect("scaled deck parses"),
    ];
    let source = "diff = DiffPair(W = 10, L = 2)\n";
    println!("one source, three processes: `{}`", source.trim());
    let mut areas = Vec::new();
    for tech in &decks {
        let ctx = GenCtx::from_tech(tech);
        let mut interp = Interpreter::new(ctx.clone());
        interp.load(stdlib::FIG2_CONTACT_ROW).unwrap();
        interp.load(stdlib::FIG7_DIFF_PAIR).unwrap();
        let out = interp.run(source).expect("module generates");
        let pair = &out["diff"];
        let v = Drc::new(&ctx).check_spacing(pair);
        assert!(v.is_empty(), "{}: {v:?}", tech.name());
        let bb = pair.bbox();
        let area = bb.area() as f64 / 1e6;
        println!(
            "  {:10} -> {:6.1} x {:5.1} um = {:8.0} um^2, {} shapes, DRC clean",
            tech.name(),
            bb.width() as f64 / 1e3,
            bb.height() as f64 / 1e3,
            area,
            pair.len(),
        );
        areas.push((tech.name().to_string(), area));
    }
    // The 2x-scaled deck should cost roughly 4x the area of the 1 µm one
    // (W/L were given in µm, so only the rule-driven parts scale).
    let a1 = areas.iter().find(|(n, _)| n == "bicmos_1u").unwrap().1;
    let a2 = areas.iter().find(|(n, _)| n == "bicmos_2u").unwrap().1;
    println!(
        "  2 um deck / 1 um deck area ratio: {:.2} (rule-driven geometry scales)",
        a2 / a1
    );
    assert!(a2 > 1.5 * a1);
}
