//! Repository-level end-to-end tests: the invariants the experiment
//! harness reports, asserted.

use amgen::drc::latchup;
use amgen::dsl::{stdlib, Interpreter};
use amgen::modgen::centroid::{centroid_diff_pair, CentroidParams};
use amgen::modgen::{contact_row, ContactRowParams, MosType};
use amgen::prelude::*;

/// Fig. 3's three shapes: one contact, a 5x1 row, a 4x3 array.
#[test]
fn fig3_contact_patterns() {
    let tech = GenCtx::from_tech(&Tech::bicmos_1u());
    let poly = tech.layer("poly").unwrap();
    let ct = tech.layer("contact").unwrap();
    let grid = |p: &ContactRowParams| {
        let row = contact_row(&tech, poly, p).unwrap();
        let xs: std::collections::HashSet<i64> = row.shapes_on(ct).map(|s| s.rect.x0).collect();
        let ys: std::collections::HashSet<i64> = row.shapes_on(ct).map(|s| s.rect.y0).collect();
        (xs.len(), ys.len())
    };
    assert_eq!(grid(&ContactRowParams::new()), (1, 1));
    assert_eq!(grid(&ContactRowParams::new().with_w(um(10))), (5, 1));
    assert_eq!(
        grid(&ContactRowParams::new().with_w(um(8)).with_l(um(6))),
        (4, 3)
    );
}

/// Fig. 5b's ablation: variable edges strictly reduce the footprint.
#[test]
fn fig5_variable_edges_reduce_area() {
    let tech = GenCtx::from_tech(&Tech::bicmos_1u());
    let poly = tech.layer("poly").unwrap();
    let m1 = tech.layer("metal1").unwrap();
    let comp = Compactor::new(&tech);
    let width = |variable: bool| {
        let mut p = ContactRowParams::new().with_w(um(4)).with_l(um(12));
        if variable {
            p = p.with_variable_edges();
        }
        let row = contact_row(&tech, poly, &p).unwrap();
        let mut probe = LayoutObject::new("probe");
        let sig = probe.net("sig");
        probe.push(Shape::new(m1, Rect::new(0, 0, um(2), um(12))).with_net(sig));
        let mut main = LayoutObject::new("main");
        comp.compact(&mut main, &row, Dir::West, &CompactOptions::new())
            .unwrap();
        comp.compact(&mut main, &probe, Dir::East, &CompactOptions::new())
            .unwrap();
        main.bbox().width()
    };
    assert!(width(true) < width(false));
}

/// The paper's full flow in one test: DSL source → module → DRC → export.
#[test]
fn dsl_to_gds_pipeline() {
    let tech = Tech::bicmos_1u();
    let ctx = GenCtx::from_tech(&tech);
    let mut i = Interpreter::new(ctx.clone());
    i.load(stdlib::FIG2_CONTACT_ROW).unwrap();
    i.load(stdlib::FIG7_DIFF_PAIR).unwrap();
    let out = i.run("diff = DiffPair(W = 8, L = 1)\n").unwrap();
    let pair = &out["diff"];
    assert!(Drc::new(&ctx).check_spacing(pair).is_empty());
    let gds = write_gds(&tech, pair);
    let summary = amgen::export::parse_gds_summary(&gds).unwrap();
    assert_eq!(summary.boundaries, pair.len());
    let svg = render_svg(&tech, pair);
    assert!(svg.contains("</svg>"));
}

/// Fig. 10's three headline properties, asserted together.
#[test]
fn fig10_headline_properties() {
    let tech = GenCtx::from_tech(&Tech::bicmos_1u());
    let m = centroid_diff_pair(
        &tech,
        &CentroidParams::paper(MosType::N)
            .with_w(um(6))
            .with_l(um(1)),
    )
    .unwrap();
    // 1. 8 active + 16 dummy fingers.
    let poly = tech.layer("poly").unwrap();
    let fingers = m
        .shapes_on(poly)
        .filter(|s| s.rect.height() > 3 * s.rect.width())
        .count();
    assert_eq!(fingers, 24);
    // 2. identical crossings on the matched drains.
    let counts = Router::new(&tech).crossing_counts(&m);
    let get = |n: &str| counts.iter().find(|(x, _)| x == n).unwrap().1;
    assert_eq!(get("d1"), get("d2"));
    // 3. substrate contacts included → latch-up clean.
    assert!(latchup::check_latchup(&tech, &m).is_empty());
}

/// T-code: the DSL is at least 5x shorter than the coordinate baseline.
#[test]
fn dsl_is_shorter_than_coordinate_code() {
    let count = |src: &str| {
        src.lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with("//"))
            .count()
    };
    let dsl = count(stdlib::FIG2_CONTACT_ROW);
    let baseline = count(
        amgen::modgen::baseline::BASELINE_SOURCE
            .split("#[cfg(test)]")
            .next()
            .unwrap(),
    );
    assert!(baseline > 5 * dsl, "{baseline} vs {dsl}");
}

/// The amplifier regenerates deterministically.
#[test]
fn amplifier_is_deterministic() {
    let tech = GenCtx::from_tech(&Tech::bicmos_1u());
    let (a, ra) = amgen::amp::build_amplifier(&tech).unwrap();
    let (b, rb) = amgen::amp::build_amplifier(&tech).unwrap();
    assert_eq!(a.shapes(), b.shapes());
    assert_eq!(ra.width_um, rb.width_um);
}
