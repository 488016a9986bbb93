//! Block generation, placement and assembly of the amplifier.

use amgen_core::GenCtx;
use amgen_db::LayoutObject;
use amgen_drc::{latchup, Drc, ViolationKind};
use amgen_extract::Extractor;
use amgen_geom::{um, Coord, Point, Rect, Vector};
use amgen_modgen::bipolar::{bipolar_pair, NpnParams};
use amgen_modgen::cascode::{cascode_pair, CascodeParams};
use amgen_modgen::centroid::{centroid_diff_pair, CentroidParams};
use amgen_modgen::guard::{guard_ring, GuardRingParams};
use amgen_modgen::interdigit::{interdigitated, InterdigitParams};
use amgen_modgen::mirror::{current_mirror, MirrorParams};
use amgen_modgen::{ModgenError, MosType};

use crate::routing::{bus_end, enter_column, h_m2, tap, v_m1, via};

/// Measurements of the finished amplifier.
#[derive(Debug, Clone)]
pub struct AmpReport {
    /// Total bounding box (µm).
    pub width_um: f64,
    /// Total bounding box (µm).
    pub height_um: f64,
    /// Per-block name and size in µm.
    pub blocks: Vec<(String, f64, f64)>,
    /// Short violations after assembly (must be 0).
    pub shorts: usize,
    /// Spacing violations after assembly.
    pub spacing: usize,
    /// Latch-up rule fulfilled.
    pub latchup_clean: bool,
    /// Parasitic capacitance of the two output nets, in fF.
    pub output_cap_ff: f64,
}

/// Builds one amplifier block: optional guard ring, prefix isolation of
/// internal nets, terminal renaming to global net names.
fn prep(
    tech: &GenCtx,
    block: LayoutObject,
    prefix: &str,
    guard: bool,
    renames: &[(&str, &str)],
) -> Result<LayoutObject, ModgenError> {
    let mut b = if guard {
        guard_ring(tech, &block, &GuardRingParams::default())?
    } else {
        block
    };
    b = b.prefixed(prefix);
    for (old, new) in renames {
        b.rename_net(&format!("{prefix}{old}"), new);
    }
    Ok(b)
}

/// Generates the full amplifier: six blocks in one row separated by 15 µm
/// streets, supply rails below, a signal channel above, and the global
/// routes of the signal path (all vertical wiring on metal1 in the
/// streets, all horizontal wiring on metal2 — see [`crate::routing`]).
pub fn build_amplifier(tech: &GenCtx) -> Result<(LayoutObject, AmpReport), ModgenError> {
    // ---- module generation (per-block matching styles of §3) ----------
    let block_a = cascode_pair(
        tech,
        &CascodeParams::new(MosType::N).with_w(um(8)).with_fingers(2),
    )?;
    let block_b = current_mirror(
        tech,
        &MirrorParams::new(MosType::P)
            .with_w(um(8))
            .with_side_fingers(1),
    )?;
    let block_c = {
        let mut p = CentroidParams::paper(MosType::N)
            .with_w(um(8))
            .without_guard();
        p.center_dummies = 0;
        p.side_dummies = 0;
        centroid_diff_pair(tech, &p)?
    };
    let block_d = interdigitated(tech, &InterdigitParams::new(MosType::P, 2).with_w(um(8)))?;
    let block_e = centroid_diff_pair(
        tech,
        &CentroidParams::paper(MosType::N)
            .with_w(um(8))
            .with_l(um(1)),
    )?;
    let block_f = bipolar_pair(tech, &NpnParams::new().with_emitter_l(um(12)))?;

    // ---- terminal renaming to global nets ------------------------------
    let a = prep(
        tech,
        block_a,
        "a:",
        true,
        &[("s", "gnd"), ("d", "bias"), ("sub", "gnd")],
    )?;
    let b = prep(
        tech,
        block_b,
        "b:",
        true,
        &[("s", "vdd"), ("out", "bias"), ("sub", "gnd")],
    )?;
    // Block C is flipped so its d2 bus becomes the bottom-most metal2 and
    // can reach the tail rail without crossing its sibling buses.
    let c = {
        let mut p = prep(
            tech,
            block_c,
            "c:",
            true,
            &[("s", "gnd"), ("d2", "tail"), ("sub", "gnd")],
        )?;
        let axis = p.bbox().center().y;
        p = p.mirrored_y(axis);
        p
    };
    let d = prep(
        tech,
        block_d,
        "d:",
        true,
        &[("s", "vdd"), ("d", "outstage"), ("sub", "gnd")],
    )?;
    // The paper's block E includes its own guard ring already.
    let e = prep(
        tech,
        block_e,
        "e:",
        false,
        &[
            ("s", "tail"),
            ("d1", "outl"),
            ("d2", "outr"),
            ("sub", "gnd"),
        ],
    )?;
    let f = prep(
        tech,
        block_f,
        "f:",
        false,
        &[
            ("b", "outl"),
            ("b_2", "outr"),
            ("c", "vdd"),
            ("c_2", "vdd"),
            ("e_2", "outstage"),
        ],
    )?;

    // ---- manual placement: one row, 15 µm streets ----------------------
    let street = um(15);
    let mut amp = LayoutObject::new("bicmos_amplifier");
    let mut cursor = 0i64;
    let mut blocks_report = Vec::new();
    // street_x[i] = centre of the street west of block i; one extra east.
    let mut street_x: Vec<Coord> = Vec::new();
    let mut ring_stub_xs: Vec<Coord> = Vec::new();
    for (idx, blk) in [&a, &b, &c, &d, &e, &f].into_iter().enumerate() {
        street_x.push(cursor - street / 2);
        let bb = blk.bbox();
        amp.absorb(blk, Vector::new(cursor - bb.x0, -bb.y0));
        blocks_report.push((
            blk.name().to_string(),
            bb.width() as f64 / 1e3,
            bb.height() as f64 / 1e3,
        ));
        if idx != 5 {
            // Guarded blocks get a substrate stub at their centre.
            ring_stub_xs.push(cursor + bb.width() / 2);
        }
        cursor += bb.width() + street;
    }
    street_x.push(cursor - street / 2); // street 6, east of block F
    let sx = |i: usize| street_x[i];

    // ---- rails, tracks, spine -------------------------------------------
    let top = amp.bbox().y1;
    let y_gnd = -um(10);
    let y_vdd = -um(20);
    let y_tail = -um(30);
    let y_bias = top + um(10);
    let y_outstage = top + um(16);
    let y_gnd_top = top + um(24);
    let spine_x = amp.bbox().x1 + um(18);
    let (x_lo, x_hi) = (sx(0) - um(8), spine_x + um(8));
    h_m2(tech, &mut amp, "gnd", y_gnd, x_lo, x_hi);
    h_m2(tech, &mut amp, "vdd", y_vdd, x_lo, x_hi);
    h_m2(tech, &mut amp, "tail", y_tail, x_lo, x_hi);
    h_m2(tech, &mut amp, "gnd", y_gnd_top, x_lo, x_hi);
    // gnd spine joining the two gnd rails, east of everything.
    v_m1(tech, &mut amp, "gnd", spine_x, y_gnd, y_gnd_top);
    via(tech, &mut amp, "gnd", Point::new(spine_x, y_gnd)).map_err(ModgenError::Route)?;
    via(tech, &mut amp, "gnd", Point::new(spine_x, y_gnd_top)).map_err(ModgenError::Route)?;

    // Substrate ring stubs straight down to the gnd rail.
    for x in ring_stub_xs {
        v_m1(tech, &mut amp, "gnd", x, y_gnd, 1_000);
        via(tech, &mut amp, "gnd", Point::new(x, y_gnd)).map_err(ModgenError::Route)?;
    }

    let port_rect = |amp: &LayoutObject, name: &str| -> Result<Rect, ModgenError> {
        amp.last_port(name)
            .map(|p| p.rect)
            .ok_or_else(|| ModgenError::Route(format!("port `{name}` missing")))
    };

    // ---- supply and tail connections ------------------------------------
    // gnd: A's source bus (west), C's source bus (east, to the top rail).
    let r = port_rect(&amp, "a:s")?;
    let p = tap(tech, &mut amp, "gnd", r, false, sx(0)).map_err(ModgenError::Route)?;
    v_m1(tech, &mut amp, "gnd", p.x, p.y, y_gnd);
    via(tech, &mut amp, "gnd", Point::new(p.x, y_gnd)).map_err(ModgenError::Route)?;
    let r = port_rect(&amp, "c:s")?;
    let p = tap(tech, &mut amp, "gnd", r, true, sx(3) + um(4)).map_err(ModgenError::Route)?;
    v_m1(tech, &mut amp, "gnd", p.x, p.y, y_gnd_top);
    via(tech, &mut amp, "gnd", Point::new(p.x, y_gnd_top)).map_err(ModgenError::Route)?;
    // vdd: B's and D's source buses down, F's collector columns down.
    for (port, x) in [("b:s", sx(2) - um(4)), ("d:s", sx(4) - um(4))] {
        let r = port_rect(&amp, port)?;
        let p = tap(tech, &mut amp, "vdd", r, true, x).map_err(ModgenError::Route)?;
        v_m1(tech, &mut amp, "vdd", p.x, p.y, y_vdd);
        via(tech, &mut amp, "vdd", Point::new(p.x, y_vdd)).map_err(ModgenError::Route)?;
    }
    for port in ["f:c", "f:c_2"] {
        let r = port_rect(&amp, port)?;
        let x = r.center().x;
        v_m1(tech, &mut amp, "vdd", x, r.y0 + 1_000, y_vdd);
        via(tech, &mut amp, "vdd", Point::new(x, y_vdd)).map_err(ModgenError::Route)?;
    }
    // tail: C's d2 (bottom bus after the flip) and E's source bus.
    let r = port_rect(&amp, "c:d2")?;
    let p = tap(tech, &mut amp, "tail", r, true, sx(3) - um(4)).map_err(ModgenError::Route)?;
    v_m1(tech, &mut amp, "tail", p.x, p.y, y_tail);
    via(tech, &mut amp, "tail", Point::new(p.x, y_tail)).map_err(ModgenError::Route)?;
    let r = port_rect(&amp, "e:s")?;
    let p = tap(tech, &mut amp, "tail", r, false, sx(4)).map_err(ModgenError::Route)?;
    v_m1(tech, &mut amp, "tail", p.x, p.y, y_tail);
    via(tech, &mut amp, "tail", Point::new(p.x, y_tail)).map_err(ModgenError::Route)?;

    // ---- signal routes ---------------------------------------------------
    // outl / outr: E's drain buses into F's base columns.
    let b_col = port_rect(&amp, "f:b")?;
    let b2_col = port_rect(&amp, "f:b_2")?;
    let entry_l = b_col.center().y - um(4);
    let entry_r = b2_col.center().y + um(4);
    let r = port_rect(&amp, "e:d1")?;
    let p = tap(tech, &mut amp, "outl", r, true, sx(5) - um(4)).map_err(ModgenError::Route)?;
    v_m1(tech, &mut amp, "outl", p.x, p.y, entry_l);
    enter_column(tech, &mut amp, "outl", b_col, entry_l, p.x).map_err(ModgenError::Route)?;
    let r = port_rect(&amp, "e:d2")?;
    let p = tap(tech, &mut amp, "outr", r, true, sx(5)).map_err(ModgenError::Route)?;
    v_m1(tech, &mut amp, "outr", p.x, p.y, entry_r);
    enter_column(tech, &mut amp, "outr", b2_col, entry_r, p.x).map_err(ModgenError::Route)?;
    // bias: B's output bus to A's drain bus via a channel track.
    let r = port_rect(&amp, "b:out")?;
    let p = tap(tech, &mut amp, "bias", r, true, sx(2)).map_err(ModgenError::Route)?;
    v_m1(tech, &mut amp, "bias", p.x, p.y, y_bias);
    via(tech, &mut amp, "bias", Point::new(p.x, y_bias)).map_err(ModgenError::Route)?;
    h_m2(tech, &mut amp, "bias", y_bias, sx(1), sx(2));
    via(tech, &mut amp, "bias", Point::new(sx(1), y_bias)).map_err(ModgenError::Route)?;
    let ad = port_rect(&amp, "a:d")?;
    let ad_end = bus_end(ad, true);
    v_m1(tech, &mut amp, "bias", sx(1), y_bias, ad_end.y);
    via(tech, &mut amp, "bias", Point::new(sx(1), ad_end.y)).map_err(ModgenError::Route)?;
    h_m2(tech, &mut amp, "bias", ad_end.y, ad_end.x, sx(1));
    // outstage: D's drain bus over the top to F's right emitter column.
    let e2_col = port_rect(&amp, "f:e_2")?;
    let entry_e2 = e2_col.center().y;
    let r = port_rect(&amp, "d:d")?;
    let p = tap(tech, &mut amp, "outstage", r, true, sx(4) + um(4)).map_err(ModgenError::Route)?;
    v_m1(tech, &mut amp, "outstage", p.x, p.y, y_outstage);
    via(tech, &mut amp, "outstage", Point::new(p.x, y_outstage)).map_err(ModgenError::Route)?;
    h_m2(tech, &mut amp, "outstage", y_outstage, sx(4) + um(4), sx(6));
    via(tech, &mut amp, "outstage", Point::new(sx(6), y_outstage)).map_err(ModgenError::Route)?;
    v_m1(tech, &mut amp, "outstage", sx(6), y_outstage, entry_e2);
    enter_column(tech, &mut amp, "outstage", e2_col, entry_e2, sx(6))
        .map_err(ModgenError::Route)?;

    // ---- measurement ----------------------------------------------------
    let bbox = amp.bbox();
    let drc = Drc::new(tech);
    let spacing_violations = drc.check_spacing(&amp);
    let shorts = spacing_violations
        .iter()
        .filter(|v| v.kind == ViolationKind::Short)
        .count();
    let spacing = spacing_violations.len() - shorts;
    let latchup_clean = latchup::check_latchup(tech, &amp).is_empty();
    let ex = Extractor::new(tech);
    let output_cap_ff = ex
        .parasitics(&amp)
        .iter()
        .filter(|n| matches!(n.name.as_deref(), Some("outl") | Some("outr")))
        .map(|n| n.cap_af)
        .sum::<f64>()
        / 1_000.0;
    let report = AmpReport {
        width_um: bbox.width() as f64 / 1e3,
        height_um: bbox.height() as f64 / 1e3,
        blocks: blocks_report,
        shorts,
        spacing,
        latchup_clean,
        output_cap_ff,
    };
    Ok((amp, report))
}

/// A plain-CMOS variant of the amplifier for the `cmos_08` deck: the
/// bipolar output pair of block F is replaced by an inter-digitated PMOS
/// stage (block G); everything else is generated from the same module
/// library — the system-level demonstration that the whole flow, not
/// just single modules, is technology independent.
pub fn build_amplifier_cmos(tech: &GenCtx) -> Result<(LayoutObject, AmpReport), ModgenError> {
    let block_a = cascode_pair(
        tech,
        &CascodeParams::new(MosType::N).with_w(um(8)).with_fingers(2),
    )?;
    let block_b = current_mirror(
        tech,
        &MirrorParams::new(MosType::P)
            .with_w(um(8))
            .with_side_fingers(1),
    )?;
    let block_c = {
        let mut p = CentroidParams::paper(MosType::N)
            .with_w(um(8))
            .without_guard();
        p.center_dummies = 0;
        p.side_dummies = 0;
        centroid_diff_pair(tech, &p)?
    };
    let block_d = interdigitated(tech, &InterdigitParams::new(MosType::P, 2).with_w(um(8)))?;
    let block_e = centroid_diff_pair(
        tech,
        &CentroidParams::paper(MosType::N)
            .with_w(um(8))
            .with_l(um(1)),
    )?;
    let block_g = interdigitated(tech, &InterdigitParams::new(MosType::P, 2).with_w(um(10)))?;

    let a = prep(
        tech,
        block_a,
        "a:",
        true,
        &[("s", "gnd"), ("d", "bias"), ("sub", "gnd")],
    )?;
    let b = prep(
        tech,
        block_b,
        "b:",
        true,
        &[("s", "vdd"), ("out", "bias"), ("sub", "gnd")],
    )?;
    let c = {
        let mut p = prep(
            tech,
            block_c,
            "c:",
            true,
            &[("s", "gnd"), ("d2", "tail"), ("sub", "gnd")],
        )?;
        let axis = p.bbox().center().y;
        p = p.mirrored_y(axis);
        p
    };
    let d = prep(
        tech,
        block_d,
        "d:",
        true,
        &[("s", "vdd"), ("d", "outstage"), ("sub", "gnd")],
    )?;
    let e = prep(
        tech,
        block_e,
        "e:",
        false,
        &[
            ("s", "tail"),
            ("d1", "outl"),
            ("d2", "outr"),
            ("sub", "gnd"),
        ],
    )?;
    let g = prep(
        tech,
        block_g,
        "g:",
        true,
        &[("s", "vdd"), ("g", "outl"), ("d", "out"), ("sub", "gnd")],
    )?;

    let street = um(15);
    let mut amp = LayoutObject::new("cmos_amplifier");
    let mut cursor = 0i64;
    let mut blocks_report = Vec::new();
    let mut street_x: Vec<Coord> = Vec::new();
    let mut ring_stub_xs: Vec<Coord> = Vec::new();
    for blk in [&a, &b, &c, &d, &e, &g] {
        street_x.push(cursor - street / 2);
        let bb = blk.bbox();
        amp.absorb(blk, Vector::new(cursor - bb.x0, -bb.y0));
        blocks_report.push((
            blk.name().to_string(),
            bb.width() as f64 / 1e3,
            bb.height() as f64 / 1e3,
        ));
        ring_stub_xs.push(cursor + bb.width() / 2);
        cursor += bb.width() + street;
    }
    street_x.push(cursor - street / 2);
    let sx = |i: usize| street_x[i];

    let y_gnd = -um(10);
    let y_vdd = -um(20);
    let y_tail = -um(30);
    let top = amp.bbox().y1;
    let y_gnd_top = top + um(12);
    let spine_x = amp.bbox().x1 + um(18);
    let (x_lo, x_hi) = (sx(0) - um(8), spine_x + um(8));
    h_m2(tech, &mut amp, "gnd", y_gnd, x_lo, x_hi);
    h_m2(tech, &mut amp, "vdd", y_vdd, x_lo, x_hi);
    h_m2(tech, &mut amp, "tail", y_tail, x_lo, x_hi);
    h_m2(tech, &mut amp, "gnd", y_gnd_top, x_lo, x_hi);
    v_m1(tech, &mut amp, "gnd", spine_x, y_gnd, y_gnd_top);
    via(tech, &mut amp, "gnd", Point::new(spine_x, y_gnd)).map_err(ModgenError::Route)?;
    via(tech, &mut amp, "gnd", Point::new(spine_x, y_gnd_top)).map_err(ModgenError::Route)?;
    for x in ring_stub_xs {
        v_m1(tech, &mut amp, "gnd", x, y_gnd, 1_000);
        via(tech, &mut amp, "gnd", Point::new(x, y_gnd)).map_err(ModgenError::Route)?;
    }
    let port_rect = |amp: &LayoutObject, name: &str| -> Result<Rect, ModgenError> {
        amp.last_port(name)
            .map(|p| p.rect)
            .ok_or_else(|| ModgenError::Route(format!("port `{name}` missing")))
    };
    // Supplies.
    let r = port_rect(&amp, "a:s")?;
    let p = tap(tech, &mut amp, "gnd", r, false, sx(0)).map_err(ModgenError::Route)?;
    v_m1(tech, &mut amp, "gnd", p.x, p.y, y_gnd);
    via(tech, &mut amp, "gnd", Point::new(p.x, y_gnd)).map_err(ModgenError::Route)?;
    let r = port_rect(&amp, "c:s")?;
    let p = tap(tech, &mut amp, "gnd", r, true, sx(3) + um(4)).map_err(ModgenError::Route)?;
    v_m1(tech, &mut amp, "gnd", p.x, p.y, y_gnd_top);
    via(tech, &mut amp, "gnd", Point::new(p.x, y_gnd_top)).map_err(ModgenError::Route)?;
    for (port, x) in [
        ("b:s", sx(2) - um(4)),
        ("d:s", sx(4) - um(4)),
        ("g:s", sx(6)),
    ] {
        let r = port_rect(&amp, port)?;
        let p = tap(tech, &mut amp, "vdd", r, true, x).map_err(ModgenError::Route)?;
        let _ = port;
        v_m1(tech, &mut amp, "vdd", p.x, p.y, y_vdd);
        via(tech, &mut amp, "vdd", Point::new(p.x, y_vdd)).map_err(ModgenError::Route)?;
    }
    // Tail.
    let r = port_rect(&amp, "c:d2")?;
    let p = tap(tech, &mut amp, "tail", r, true, sx(3) - um(4)).map_err(ModgenError::Route)?;
    v_m1(tech, &mut amp, "tail", p.x, p.y, y_tail);
    via(tech, &mut amp, "tail", Point::new(p.x, y_tail)).map_err(ModgenError::Route)?;
    let r = port_rect(&amp, "e:s")?;
    let p = tap(tech, &mut amp, "tail", r, false, sx(4)).map_err(ModgenError::Route)?;
    v_m1(tech, &mut amp, "tail", p.x, p.y, y_tail);
    via(tech, &mut amp, "tail", Point::new(p.x, y_tail)).map_err(ModgenError::Route)?;
    // Signal: E.d1 into G's gate contact column (left output single-ended).
    let g_gate = port_rect(&amp, "g:g")?;
    let entry_y = g_gate.center().y;
    let r = port_rect(&amp, "e:d1")?;
    let p = tap(tech, &mut amp, "outl", r, true, sx(5)).map_err(ModgenError::Route)?;
    v_m1(tech, &mut amp, "outl", p.x, p.y, entry_y);
    enter_column(tech, &mut amp, "outl", g_gate, entry_y, p.x).map_err(ModgenError::Route)?;

    let bbox = amp.bbox();
    let drc = Drc::new(tech);
    let spacing_violations = drc.check_spacing(&amp);
    let shorts = spacing_violations
        .iter()
        .filter(|v| v.kind == ViolationKind::Short)
        .count();
    let spacing = spacing_violations.len() - shorts;
    let latchup_clean = latchup::check_latchup(tech, &amp).is_empty();
    let ex = Extractor::new(tech);
    let output_cap_ff = ex
        .parasitics(&amp)
        .iter()
        .filter(|n| matches!(n.name.as_deref(), Some("outl") | Some("outr")))
        .map(|n| n.cap_af)
        .sum::<f64>()
        / 1_000.0;
    Ok((
        amp,
        AmpReport {
            width_um: bbox.width() as f64 / 1e3,
            height_um: bbox.height() as f64 / 1e3,
            blocks: blocks_report,
            shorts,
            spacing,
            latchup_clean,
            output_cap_ff,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use amgen_tech::Tech;

    fn amp() -> (GenCtx, LayoutObject, AmpReport) {
        let t = GenCtx::from_tech(&Tech::bicmos_1u());
        let (a, r) = build_amplifier(&t).unwrap();
        (t, a, r)
    }

    #[test]
    fn amplifier_builds() {
        let (_, amp, report) = amp();
        assert!(amp.len() > 500, "a real module count: {}", amp.len());
        assert_eq!(report.blocks.len(), 6);
        assert!(report.width_um > 100.0 && report.width_um < 2_000.0);
        assert!(report.height_um > 30.0 && report.height_um < 1_000.0);
    }

    #[test]
    fn amplifier_has_no_shorts() {
        let (t, layout, report) = amp();
        if report.shorts != 0 {
            let v = Drc::new(&t).check_spacing(&layout);
            let shorts: Vec<_> = v
                .iter()
                .filter(|x| x.kind == ViolationKind::Short)
                .collect();
            panic!(
                "{} shorts: {:#?}",
                report.shorts,
                &shorts[..shorts.len().min(5)]
            );
        }
    }

    #[test]
    fn amplifier_is_latchup_clean() {
        let (_, _, report) = amp();
        assert!(report.latchup_clean);
    }

    #[test]
    fn output_nets_exist_and_have_capacitance() {
        let (_, _, report) = amp();
        assert!(report.output_cap_ff > 0.0);
    }

    #[test]
    fn signal_path_is_connected() {
        let (t, layout, _) = amp();
        let nets = Extractor::new(&t).connectivity(&layout);
        // outl joins block E's d1 bus with block F's base: the extracted
        // component carrying "outl" must span shapes from both blocks.
        let outl = nets
            .iter()
            .find(|n| n.declared.iter().any(|d| d == "outl"))
            .expect("outl extracted");
        let xs: Vec<i64> = outl
            .shapes
            .iter()
            .map(|&i| layout.shapes()[i].rect.center().x)
            .collect();
        let spread = xs.iter().max().unwrap() - xs.iter().min().unwrap();
        assert!(spread > um(50), "outl spans blocks: {spread}");
    }

    #[test]
    fn no_cross_net_merges() {
        let (t, layout, _) = amp();
        let conflicts = Extractor::new(&t).conflicts(&layout);
        let real: Vec<Vec<String>> = conflicts
            .iter()
            .map(|c| {
                c.declared
                    .iter()
                    .filter(|d| !d.contains(':') && !d.starts_with('<'))
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .filter(|g| g.len() > 1)
            .collect();
        assert!(real.is_empty(), "{real:?}");
    }
}

#[cfg(test)]
mod cmos_tests {
    use super::*;
    use amgen_tech::Tech;

    #[test]
    fn cmos_variant_builds_clean_in_cmos_08() {
        let t = GenCtx::from_tech(&Tech::cmos_08());
        let (amp, report) = build_amplifier_cmos(&t).unwrap();
        assert!(amp.len() > 300);
        assert_eq!(report.shorts, 0, "{report:?}");
        assert!(report.latchup_clean);
        assert_eq!(report.blocks.len(), 6);
    }

    #[test]
    fn cmos_variant_signal_reaches_output_stage() {
        let t = GenCtx::from_tech(&Tech::cmos_08());
        let (amp, _) = build_amplifier_cmos(&t).unwrap();
        let nets = Extractor::new(&t).connectivity(&amp);
        let outl = nets
            .iter()
            .find(|n| n.declared.iter().any(|d| d == "outl"))
            .expect("outl extracted");
        // outl spans from block E to block G.
        let xs: Vec<i64> = outl
            .shapes
            .iter()
            .map(|&i| amp.shapes()[i].rect.center().x)
            .collect();
        assert!(xs.iter().max().unwrap() - xs.iter().min().unwrap() > um(40));
    }

    #[test]
    fn cmos_variant_also_works_in_bicmos_deck() {
        // The CMOS variant only uses MOS modules, so it generates in the
        // BiCMOS deck too.
        let t = GenCtx::from_tech(&Tech::bicmos_1u());
        let (_, report) = build_amplifier_cmos(&t).unwrap();
        assert_eq!(report.shorts, 0);
    }
}
