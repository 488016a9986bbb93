//! The whole module library, generated and verified in one sweep: every
//! generator must produce a short-free layout that survives GDSII and CIF
//! round trips; the pure-CMOS modules must do so in both decks.

use amgen::drc::ViolationKind;
use amgen::export::{parse_cif_summary, parse_gds_summary, write_cif, write_gds};
use amgen::modgen::capacitor::{mos_capacitor, MosCapParams};
use amgen::modgen::cascode::{cascode_pair, CascodeParams};
use amgen::modgen::centroid::{centroid_diff_pair, CentroidParams};
use amgen::modgen::diffpair::{diff_pair, DiffPairParams};
use amgen::modgen::diode::{diode_transistor, DiodeParams};
use amgen::modgen::interdigit::{interdigitated, InterdigitParams};
use amgen::modgen::mirror::{current_mirror, MirrorParams};
use amgen::modgen::quad::{common_centroid_quad, QuadParams};
use amgen::modgen::resistor::{poly_resistor, ResistorParams};
use amgen::modgen::stacked::{stacked_transistor, StackedParams};
use amgen::modgen::{contact_row, mos_transistor, ContactRowParams, MosParams, MosType};
use amgen::prelude::*;

/// Builds every MOS-only module of the library in the given deck.
fn mos_library(tech: &GenCtx) -> Vec<(&'static str, LayoutObject)> {
    vec![
        (
            "contact_row",
            contact_row(
                tech,
                tech.layer("poly").unwrap(),
                &ContactRowParams::new().with_w(um(10)),
            )
            .unwrap(),
        ),
        (
            "mos_transistor",
            mos_transistor(tech, &MosParams::new(MosType::N).with_w(um(10))).unwrap(),
        ),
        (
            "interdigitated",
            interdigitated(tech, &InterdigitParams::new(MosType::N, 4).with_w(um(8))).unwrap(),
        ),
        (
            "stacked",
            stacked_transistor(tech, &StackedParams::new(MosType::N, 4).with_w(um(6))).unwrap(),
        ),
        (
            "diode",
            diode_transistor(tech, &DiodeParams::new(MosType::N).with_w(um(8))).unwrap(),
        ),
        (
            "mirror",
            current_mirror(tech, &MirrorParams::new(MosType::N).with_w(um(6))).unwrap(),
        ),
        (
            "cascode",
            cascode_pair(tech, &CascodeParams::new(MosType::N).with_w(um(6))).unwrap(),
        ),
        (
            "diff_pair",
            diff_pair(tech, &DiffPairParams::new(MosType::N).with_w(um(8))).unwrap(),
        ),
        (
            "centroid_1d",
            centroid_diff_pair(
                tech,
                &CentroidParams::paper(MosType::N)
                    .with_w(um(6))
                    .without_guard(),
            )
            .unwrap(),
        ),
        (
            "centroid_quad_2d",
            common_centroid_quad(tech, &QuadParams::new(MosType::N).with_w(um(6))).unwrap(),
        ),
        (
            "resistor",
            poly_resistor(tech, &ResistorParams::new(5).with_leg_l(um(12)))
                .unwrap()
                .0,
        ),
        (
            "capacitor",
            mos_capacitor(tech, &MosCapParams::new(MosType::N).with_side(um(10)))
                .unwrap()
                .0,
        ),
    ]
}

#[test]
fn every_module_is_short_free_in_both_decks() {
    for tech in [Tech::bicmos_1u(), Tech::cmos_08()] {
        let tech = GenCtx::from_tech(&tech);
        let drc = Drc::new(&tech);
        for (name, m) in mos_library(&tech) {
            let shorts: Vec<_> = drc
                .check_spacing(&m)
                .into_iter()
                .filter(|v| v.kind == ViolationKind::Short)
                .collect();
            assert!(shorts.is_empty(), "{}/{name}: {shorts:?}", tech.name());
            assert!(!m.is_empty(), "{}/{name} empty", tech.name());
        }
    }
}

#[test]
fn every_module_survives_gds_and_cif_round_trips() {
    let tech = Tech::bicmos_1u();
    for (name, m) in mos_library(&GenCtx::from_tech(&tech)) {
        let gds = write_gds(&tech, &m);
        let gs = parse_gds_summary(&gds).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(gs.boundaries, m.len(), "{name}");
        let cif = write_cif(&tech, &m);
        let cs = parse_cif_summary(&cif).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(cs.boxes, m.len(), "{name}");
    }
}

#[test]
fn every_module_passes_min_area() {
    let tech = GenCtx::from_tech(&Tech::bicmos_1u());
    let drc = Drc::new(&tech);
    for (name, m) in mos_library(&tech) {
        let v = drc.check_min_area(&m);
        assert!(v.is_empty(), "{name}: {v:?}");
    }
}

#[test]
fn every_module_renders_to_svg() {
    let tech = Tech::bicmos_1u();
    for (name, m) in mos_library(&GenCtx::from_tech(&tech)) {
        let svg = render_svg(&tech, &m);
        assert!(svg.ends_with("</svg>\n"), "{name}");
        assert!(svg.matches("<rect ").count() > m.len(), "{name}");
    }
}
