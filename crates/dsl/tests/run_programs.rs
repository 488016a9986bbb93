//! Integration tests: complete programs from the paper run end-to-end.

use amgen_core::GenCtx;
use amgen_drc::Drc;
use amgen_dsl::{stdlib, DslError, Interpreter, Value};
use amgen_tech::Tech;

fn interp(t: &GenCtx) -> Interpreter {
    let mut i = Interpreter::new(t.clone());
    i.load(stdlib::FIG2_CONTACT_ROW).unwrap();
    i.load(stdlib::FIG7_DIFF_PAIR).unwrap();
    i.load(stdlib::INTERDIGIT).unwrap();
    i.load(stdlib::VARIANT_ROW).unwrap();
    i
}

#[test]
fn fig2_contact_row_variants() {
    let t = GenCtx::from_tech(&Tech::bicmos_1u());
    let mut i = interp(&t);
    // The three calls of Fig. 3: defaults, W given, W and L given.
    let out = i
        .run(
            r#"
left = ContactRow(layer = "poly")
middle = ContactRow(layer = "poly", W = 10)
right = ContactRow(layer = "poly", W = 8, L = 6)
"#,
        )
        .unwrap();
    let ct = t.layer("contact").unwrap();
    let left = &out["left"];
    let middle = &out["middle"];
    let right = &out["right"];
    assert_eq!(left.shapes_on(ct).count(), 1);
    assert!(middle.shapes_on(ct).count() >= 4);
    assert!(middle.bbox().width() >= 10_000);
    // 2-D array for the right variant.
    let xs: std::collections::HashSet<i64> = right.shapes_on(ct).map(|s| s.rect.x0).collect();
    let ys: std::collections::HashSet<i64> = right.shapes_on(ct).map(|s| s.rect.y0).collect();
    assert!(xs.len() > 1 && ys.len() > 1);
    for obj in [left, middle, right] {
        let v = Drc::new(&t).check(obj);
        assert!(v.is_empty(), "{v:?}");
    }
}

#[test]
fn fig7_diff_pair_builds_row_gate_row_gate_row() {
    let t = GenCtx::from_tech(&Tech::bicmos_1u());
    let mut i = interp(&t);
    let out = i.run("diff = DiffPair(W = 10, L = 2)\n").unwrap();
    let pair = &out["diff"];
    let poly = t.layer("poly").unwrap();
    let pdiff = t.layer("pdiff").unwrap();
    // Two vertical gate stripes.
    let gates: Vec<_> = pair
        .shapes_on(poly)
        .filter(|s| s.rect.height() > 3 * s.rect.width())
        .collect();
    assert_eq!(gates.len(), 2, "two transistors");
    // Three diffusion contact rows: count contact groups on pdiff rows by
    // looking at metal columns holding contacts.
    let ct = t.layer("contact").unwrap();
    let diff_contacts = pair
        .shapes_on(ct)
        .filter(|c| pair.shapes_on(pdiff).any(|d| d.rect.contains_rect(&c.rect)))
        .count();
    assert!(diff_contacts >= 3, "diffusion rows are contacted");
    let v = Drc::new(&t).check_spacing(pair);
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn fig7_matches_paper_shape_hierarchy() {
    // The paper: "two transistors, three diffusion-contact-rows and two
    // poly-contacts".
    let t = GenCtx::from_tech(&Tech::bicmos_1u());
    let mut i = interp(&t);
    let out = i.run("diff = DiffPair(W = 10, L = 2)\n").unwrap();
    let pair = &out["diff"];
    let pdiff = t.layer("pdiff").unwrap();
    let m1 = t.layer("metal1").unwrap();
    // Metal rows on diffusion: three distinct columns.
    let mut cols: Vec<i64> = pair
        .shapes_on(m1)
        .filter(|m| pair.shapes_on(pdiff).any(|d| d.rect == m.rect))
        .map(|m| m.rect.x0)
        .collect();
    cols.sort_unstable();
    cols.dedup();
    assert_eq!(cols.len(), 3, "three diffusion contact rows");
}

#[test]
fn interdigit_loop_scales_with_n() {
    let t = GenCtx::from_tech(&Tech::bicmos_1u());
    let mut i = interp(&t);
    let small = i.run("m = Interdigit(n = 2, W = 8, L = 1)\n").unwrap();
    let big = i.run("m = Interdigit(n = 6, W = 8, L = 1)\n").unwrap();
    let poly = t.layer("poly").unwrap();
    let count = |o: &amgen_db::LayoutObject| {
        o.shapes_on(poly)
            .filter(|s| s.rect.height() > 3 * s.rect.width())
            .count()
    };
    assert_eq!(count(&small["m"]), 2);
    assert_eq!(count(&big["m"]), 6);
    assert!(big["m"].bbox().width() > small["m"].bbox().width());
}

#[test]
fn variant_backtracking_selects_by_rating() {
    let t = GenCtx::from_tech(&Tech::bicmos_1u());
    let i = interp(&t);
    // Both variants of FlexRow, enumerated explicitly.
    let variants = i
        .eval_entity_variants(
            "FlexRow",
            &[
                ("layer", Value::Str("poly".into())),
                ("S", Value::Num(10.0)),
            ],
        )
        .unwrap();
    assert_eq!(variants.len(), 2);
    let (a, b) = (&variants[0], &variants[1]);
    // One is wide, the other tall.
    let wide = a.bbox().width() > a.bbox().height();
    let tall = b.bbox().height() > b.bbox().width();
    assert!(wide && tall, "{} vs {}", a.bbox(), b.bbox());
    // Best-variant selection returns one of them.
    let best = i
        .eval_entity(
            "FlexRow",
            &[
                ("layer", Value::Str("poly".into())),
                ("S", Value::Num(10.0)),
            ],
        )
        .unwrap();
    assert!(!best.is_empty());
}

#[test]
fn conditionals_choose_geometry() {
    let t = GenCtx::from_tech(&Tech::bicmos_1u());
    let mut i = interp(&t);
    let src = r#"
a = Cond(w = 20)
b = Cond(w = 2)

ENT Cond(w)
  IF w > 10
    INBOX("poly", W = w)
  ELSE
    INBOX("poly", W = 10)
  END
"#;
    let out = i.run(src).unwrap();
    assert_eq!(out["a"].bbox().width(), 20_000);
    assert_eq!(out["b"].bbox().width(), 10_000);
}

#[test]
fn arithmetic_in_parameters() {
    let t = GenCtx::from_tech(&Tech::bicmos_1u());
    let mut i = interp(&t);
    let out = i
        .run("row = ContactRow(layer = \"poly\", W = 4 * 2 + 2)\n")
        .unwrap();
    assert_eq!(out["row"].bbox().width(), 10_000);
}

#[test]
fn unknown_entity_reports_line() {
    let t = GenCtx::from_tech(&Tech::bicmos_1u());
    let mut i = interp(&t);
    let e = i.run("x = Nonsense(W = 1)\n").unwrap_err();
    assert!(matches!(e, DslError::Runtime { line: 1, .. }), "{e}");
}

#[test]
fn missing_required_parameter_is_an_error() {
    let t = GenCtx::from_tech(&Tech::bicmos_1u());
    let mut i = interp(&t);
    // `layer` is required in ContactRow.
    let e = i.run("x = ContactRow(W = 1)\n").unwrap_err();
    assert!(matches!(e, DslError::Runtime { .. }), "{e}");
}

#[test]
fn unknown_layer_is_a_runtime_error() {
    let t = GenCtx::from_tech(&Tech::bicmos_1u());
    let mut i = interp(&t);
    let e = i
        .run("x = ContactRow(layer = \"unobtainium\")\n")
        .unwrap_err();
    assert!(e.to_string().contains("unobtainium"));
}

#[test]
fn bad_direction_is_a_runtime_error() {
    let t = GenCtx::from_tech(&Tech::bicmos_1u());
    let mut i = interp(&t);
    let src =
        "x = Bad()\n\nENT Bad()\n  r = ContactRow(layer = \"poly\")\n  compact(r, SIDEWAYS)\n";
    let e = i.run(src).unwrap_err();
    assert!(e.to_string().contains("SIDEWAYS"));
}

#[test]
fn compact_reports_a_non_object_before_a_bad_ignore_layer() {
    let t = GenCtx::from_tech(&Tech::bicmos_1u());
    let mut i = interp(&t);
    let program = |child: &str| {
        format!("x = Bad()\n\nENT Bad()\n  r = {child}\n  bad = \"unobtainium\"\n  compact(r, WEST, bad)\n")
    };
    let e = i.run(&program("3")).unwrap_err().to_string();
    assert!(e.contains("`r` is not an object"), "{e}");
    let e = i
        .run(&program("ContactRow(layer = \"poly\")"))
        .unwrap_err()
        .to_string();
    assert!(e.contains("unobtainium"), "{e}");
}

#[test]
fn fig2_works_in_the_cmos_deck_too() {
    // Technology independence: the same source, another rule deck.
    let t = GenCtx::from_tech(&Tech::cmos_08());
    let mut i = interp(&t);
    let out = i
        .run("row = ContactRow(layer = \"poly\", W = 10)\n")
        .unwrap();
    let v = Drc::new(&t).check(&out["row"]);
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn run_traced_snapshots_every_statement() {
    let t = GenCtx::from_tech(&Tech::bicmos_1u());
    let mut i = interp(&t);
    let src = "a = ContactRow(layer = \"poly\", W = 4)\nb = ContactRow(layer = \"poly\", W = 10)\n";
    let (final_map, snaps) = i.run_traced(src).unwrap();
    assert_eq!(snaps.len(), 2);
    assert_eq!(snaps[0].1.len(), 1, "only `a` exists after statement 1");
    assert_eq!(snaps[1].1.len(), 2);
    assert!(snaps[0].0.contains("ContactRow"));
    assert_eq!(final_map.len(), 2);
    assert!(final_map["b"].bbox().width() > final_map["a"].bbox().width());
}

#[test]
fn run_traced_rejects_variants() {
    let t = GenCtx::from_tech(&Tech::bicmos_1u());
    let mut i = interp(&t);
    let e = i
        .run_traced("x = FlexRow(layer = \"poly\", S = 8)\n")
        .unwrap_err();
    assert!(e.to_string().contains("VARIANT"));
}

#[test]
fn entity_calls_nest_and_copy() {
    let t = GenCtx::from_tech(&Tech::bicmos_1u());
    let mut i = interp(&t);
    // trans2 = trans1 copies the data structure: both compact in.
    let src = r#"
m = Two(W = 6)

ENT Two(<W>)
  a = ContactRow(layer = "poly", L = W)
  b = a
  compact(a, WEST, "poly")
  compact(b, WEST, "poly")
"#;
    let out = i.run(src).unwrap();
    let ct = t.layer("contact").unwrap();
    let n_one = {
        let mut j = interp(&t);
        let one = j.run("m = ContactRow(layer = \"poly\", L = 6)\n").unwrap();
        one["m"].shapes_on(ct).count()
    };
    assert_eq!(out["m"].shapes_on(ct).count(), 2 * n_one);
}

#[test]
fn centroid_placement_in_pure_dsl() {
    let t = GenCtx::from_tech(&Tech::bicmos_1u());
    let mut i = Interpreter::new(t.clone());
    i.load(stdlib::FIG2_CONTACT_ROW).unwrap();
    i.load(stdlib::CENTROID_PLACEMENT).unwrap();
    let out = i
        .run("e = CentroidE(side = 4, center = 8, W = 6, L = 1)\n")
        .unwrap();
    let m = &out["e"];
    let poly = t.layer("poly").unwrap();
    let stripes: Vec<_> = m
        .shapes_on(poly)
        .filter(|s| s.rect.height() > 3 * s.rect.width())
        .map(|s| s.rect.center().x)
        .collect();
    // 4 + (2+2) + 8 + (2+2) + 4 = 24 gate fingers, like the native block E.
    assert_eq!(stripes.len(), 24);
    // The arrangement is left-right symmetric about the module centre.
    let cx = m.bbox().center().x;
    let left = stripes.iter().filter(|&&x| x < cx).count();
    let right = stripes.iter().filter(|&&x| x > cx).count();
    assert_eq!(left, right);
    let v = Drc::new(&t).check_spacing(m);
    assert!(v.is_empty(), "{v:?}");
    // The paper needed ~180 lines for module E; the loop-equipped language
    // needs far fewer for the same placement.
    let lines = stdlib::CENTROID_PLACEMENT
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .count();
    assert!(lines < 180, "{lines} lines");
    assert!(lines > 30, "it is still a complex module: {lines} lines");
}
