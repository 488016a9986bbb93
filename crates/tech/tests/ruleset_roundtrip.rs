//! Round-trip guarantee for the compiled rule kernel: serialising a deck
//! with `to_tech_file` and reparsing it must reproduce an element-wise
//! identical [`RuleSet`](amgen_tech::RuleSet) — the dense tables, not
//! just the front-end accessors. `RuleSet`'s `PartialEq` compares every table and
//! deliberately ignores technology ids, which is exactly the equivalence
//! wanted here (the two decks' handles never interchange).

use amgen_tech::{Tech, TechError};
use proptest::prelude::*;

fn round_trip(t: &Tech) -> Result<Tech, TechError> {
    Tech::parse(&t.to_tech_file())
}

#[test]
fn bicmos_deck_round_trips_to_equal_ruleset() {
    let t = Tech::bicmos_1u();
    let t2 = round_trip(&t).unwrap();
    assert_eq!(t, t2);
}

#[test]
fn cmos_deck_round_trips_to_equal_ruleset() {
    let t = Tech::cmos_08();
    let t2 = round_trip(&t).unwrap();
    assert_eq!(t, t2);
}

#[test]
fn reserialised_deck_is_a_fixed_point() {
    // Printing the reparsed deck reproduces the same text, so one round
    // trip is enough to establish the loop closed.
    for t in [Tech::bicmos_1u(), Tech::cmos_08()] {
        let text = t.to_tech_file();
        let again = round_trip(&t).unwrap().to_tech_file();
        assert_eq!(text, again);
    }
}

// ---- random small decks ------------------------------------------------

/// Specification for one random deck: a handful of layers with random
/// kinds and a random subset of rule statements among them.
#[derive(Debug, Clone)]
struct DeckSpec {
    grid: i64,
    latchup: i64,
    layers: Vec<(usize, i64)>, // (kind index, min width)
    spaces: Vec<(usize, usize, i64)>,
    encloses: Vec<(usize, usize, i64)>,
    extends: Vec<(usize, usize, i64)>,
    caps: Vec<(usize, i64, i64)>,
    sheet: Vec<(usize, i64)>,
}

const KINDS: [&str; 6] = ["poly", "metal", "diff", "cut", "implant", "well"];

fn arb_deck() -> impl Strategy<Value = DeckSpec> {
    (
        (
            1i64..100,
            0i64..60_000,
            prop::collection::vec((0usize..KINDS.len(), 100i64..5_000), 2..7),
            prop::collection::vec((0usize..6, 0usize..6, 100i64..4_000), 0..8),
        ),
        (
            prop::collection::vec((0usize..6, 0usize..6, 100i64..2_000), 0..6),
            prop::collection::vec((0usize..6, 0usize..6, 100i64..2_000), 0..6),
            prop::collection::vec((0usize..6, 1i64..100, 1i64..200), 0..4),
            prop::collection::vec((0usize..6, 1_000i64..90_000), 0..4),
        ),
    )
        .prop_map(
            |((grid, latchup, layers, spaces), (encloses, extends, caps, sheet))| DeckSpec {
                grid,
                latchup,
                layers,
                spaces,
                encloses,
                extends,
                caps,
                sheet,
            },
        )
}

/// Renders the spec as tech-file text. Layer indices in the rule lists
/// are taken modulo the layer count, so every spec is valid by
/// construction.
fn deck_text(spec: &DeckSpec) -> String {
    let n = spec.layers.len();
    let name = |i: usize| format!("l{}", i % n);
    let mut out = String::new();
    out.push_str("tech random\n");
    out.push_str(&format!("grid {}\n", spec.grid));
    if spec.latchup > 0 {
        out.push_str(&format!("latchup {}\n", spec.latchup));
    }
    for (i, (kind, _)) in spec.layers.iter().enumerate() {
        out.push_str(&format!("layer l{} {} {}\n", i, KINDS[*kind], 10 + i));
    }
    for (i, (_, w)) in spec.layers.iter().enumerate() {
        out.push_str(&format!("width l{i} {w}\n"));
    }
    for (a, b, s) in &spec.spaces {
        out.push_str(&format!("space {} {} {}\n", name(*a), name(*b), s));
    }
    for (o, i, e) in &spec.encloses {
        out.push_str(&format!("enclose {} {} {}\n", name(*o), name(*i), e));
    }
    for (a, b, e) in &spec.extends {
        out.push_str(&format!("extend {} {} {}\n", name(*a), name(*b), e));
    }
    // Cut layers need a size or compilation is still fine — cutsize is
    // optional — but exercise the statement for every cut in the roster.
    for (i, (kind, _)) in spec.layers.iter().enumerate() {
        if KINDS[*kind] == "cut" {
            out.push_str(&format!("cutsize l{} {}\n", i, 500 + 50 * i as i64));
        }
    }
    for (l, area, fringe) in &spec.caps {
        out.push_str(&format!("cap {} {} {}\n", name(*l), area, fringe));
    }
    for (l, r) in &spec.sheet {
        out.push_str(&format!("sheetres {} {}\n", name(*l), r));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any parseable random deck survives serialise → reparse with an
    /// element-wise identical rule kernel.
    #[test]
    fn random_decks_round_trip(spec in arb_deck()) {
        let text = deck_text(&spec);
        // Duplicate rule statements may legitimately be rejected by the
        // builder; only accepted decks must round-trip.
        let Ok(t) = Tech::parse(&text) else { return };
        let t2 = round_trip(&t).unwrap();
        prop_assert_eq!(t, t2);
    }
}
