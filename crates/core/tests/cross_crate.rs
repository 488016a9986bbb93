//! Integration tests spanning the whole environment: the DSL sources of
//! the paper's figures versus the native module generators, export round
//! trips, and optimizer interplay.

use amgen::prelude::*;
use amgen::{dsl, export, modgen};

fn fig2_interp(ctx: &GenCtx) -> Interpreter {
    let mut i = Interpreter::new(ctx.clone());
    i.load(dsl::stdlib::FIG2_CONTACT_ROW).unwrap();
    i.load(dsl::stdlib::FIG7_DIFF_PAIR).unwrap();
    i
}

/// The DSL `ContactRow` and the native generator produce the same
/// geometry for the same parameters (same footprint, same contacts).
#[test]
fn dsl_and_native_contact_rows_agree() {
    let tech = GenCtx::from_tech(&Tech::bicmos_1u());
    let mut i = fig2_interp(&tech);
    let poly = tech.layer("poly").unwrap();
    let ct = tech.layer("contact").unwrap();
    for w_um in [4.0, 10.0, 16.0] {
        let out = i
            .run(&format!("row = ContactRow(layer = \"poly\", W = {w_um})\n"))
            .unwrap();
        let native = modgen::contact_row(
            &tech,
            poly,
            &modgen::ContactRowParams::new().with_w((w_um * 1_000.0) as i64),
        )
        .unwrap();
        assert_eq!(
            out["row"].bbox().width(),
            native.bbox().width(),
            "W = {w_um}"
        );
        assert_eq!(out["row"].bbox().height(), native.bbox().height());
        assert_eq!(
            out["row"].shapes_on(ct).count(),
            native.shapes_on(ct).count()
        );
    }
}

/// The DSL diff pair and the native one agree structurally.
#[test]
fn dsl_and_native_diff_pairs_agree_structurally() {
    let tech = GenCtx::from_tech(&Tech::bicmos_1u());
    let mut i = fig2_interp(&tech);
    let out = i.run("diff = DiffPair(W = 10, L = 2)\n").unwrap();
    let native = modgen::diffpair::diff_pair(
        &tech,
        &modgen::diffpair::DiffPairParams::new(modgen::MosType::P)
            .with_w(um(10))
            .with_l(um(2)),
    )
    .unwrap();
    let poly = tech.layer("poly").unwrap();
    let stripes = |o: &LayoutObject| {
        o.shapes_on(poly)
            .filter(|s| s.rect.height() > 3 * s.rect.width())
            .count()
    };
    assert_eq!(stripes(&out["diff"]), 2);
    assert_eq!(stripes(&native), 2);
    // Both are DRC-clean in the same deck.
    let d = Drc::new(&tech);
    assert!(d.check_spacing(&out["diff"]).is_empty());
    assert!(d.check_spacing(&native).is_empty());
}

/// Generated modules survive a GDSII round trip structurally.
#[test]
fn modules_export_to_gds_and_back() {
    let tech = Tech::bicmos_1u();
    let pair = modgen::diffpair::diff_pair(
        &GenCtx::from_tech(&tech),
        &modgen::diffpair::DiffPairParams::new(modgen::MosType::P).with_w(um(8)),
    )
    .unwrap();
    let bytes = write_gds(&tech, &pair);
    let summary = export::parse_gds_summary(&bytes).unwrap();
    assert_eq!(summary.boundaries, pair.len());
    let bb = pair.bbox();
    assert_eq!(summary.bbox, (bb.x0, bb.y0, bb.x1, bb.y1));
}

/// Every library module renders to SVG.
#[test]
fn modules_render_to_svg() {
    let tech = Tech::bicmos_1u();
    let row = modgen::contact_row(
        &GenCtx::from_tech(&tech),
        tech.layer("pdiff").unwrap(),
        &modgen::ContactRowParams::new().with_w(um(10)),
    )
    .unwrap();
    let svg = render_svg(&tech, &row);
    assert!(svg.matches("<rect ").count() > row.len());
}

/// The optimizer's variant selection works on DSL-produced variants.
#[test]
fn optimizer_selects_among_dsl_variants() {
    let tech = GenCtx::from_tech(&Tech::bicmos_1u());
    let mut i = Interpreter::new(tech.clone());
    i.load(dsl::stdlib::VARIANT_ROW).unwrap();
    let variants = i
        .eval_entity_variants(
            "FlexRow",
            &[
                ("layer", dsl::Value::Str("poly".into())),
                ("S", dsl::Value::Num(12.0)),
            ],
        )
        .unwrap();
    let opt = Optimizer::new(&tech, RatingWeights::default());
    let (best, rating) = opt.select_variant(&variants).unwrap();
    assert!(best < variants.len());
    assert!(rating.score > 0.0);
}

/// A module generated in one technology ports to the other by re-running
/// the same source — the paper's central promise.
#[test]
fn technology_independence_end_to_end() {
    for tech in [Tech::bicmos_1u(), Tech::cmos_08()] {
        let tech = GenCtx::from_tech(&tech);
        let mut i = fig2_interp(&tech);
        let out = i.run("diff = DiffPair(W = 8, L = 1)\n").unwrap();
        let v = Drc::new(&tech).check_spacing(&out["diff"]);
        assert!(v.is_empty(), "{}: {v:?}", tech.name());
    }
}

/// The full amplifier example builds, checks clean and exports.
#[test]
fn amplifier_end_to_end() {
    let tech = Tech::bicmos_1u();
    let (amp, report) = amgen::amp::build_amplifier(&GenCtx::from_tech(&tech)).unwrap();
    assert_eq!(report.shorts, 0);
    assert!(report.latchup_clean);
    let bytes = write_gds(&tech, &amp);
    let summary = export::parse_gds_summary(&bytes).unwrap();
    assert!(summary.boundaries > 500);
}

/// Parasitic extraction distinguishes the centroid pair's matched drains:
/// by symmetry their capacitances should be close.
#[test]
fn centroid_drain_capacitances_match() {
    let tech = GenCtx::from_tech(&Tech::bicmos_1u());
    let m = modgen::centroid::centroid_diff_pair(
        &tech,
        &modgen::centroid::CentroidParams::paper(modgen::MosType::N).with_w(um(6)),
    )
    .unwrap();
    let nets = Extractor::new(&tech).parasitics(&m);
    let cap = |name: &str| {
        nets.iter()
            .find(|n| n.name.as_deref() == Some(name))
            .map(|n| n.cap_af)
            .unwrap_or(0.0)
    };
    let (c1, c2) = (cap("d1"), cap("d2"));
    assert!(c1 > 0.0 && c2 > 0.0);
    let ratio = c1.max(c2) / c1.min(c2);
    assert!(ratio < 1.15, "matched drains: {c1} vs {c2}");
}
