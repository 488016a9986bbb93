//! Diode-connected transistors — named in the paper's module-type list
//! alongside mirrors, pairs and stacks.
//!
//! A MOS transistor with its gate strapped to its drain: the two-terminal
//! device every bias chain needs. Built as a standard contacted
//! transistor plus one metal1 strap from the gate contact to the drain
//! row.

use amgen_core::{FaultSite, GenCtx, Stage};
use amgen_db::{LayoutObject, Shape};
use amgen_geom::{Coord, Rect};

use crate::error::ModgenError;
use crate::mos::{mos_transistor, MosParams, MosType};

/// Parameters of a diode-connected transistor.
#[derive(Debug, Clone)]
pub struct DiodeParams {
    /// Polarity.
    pub mos: MosType,
    /// Channel width; `None` selects the minimum.
    pub w: Option<Coord>,
    /// Channel length; `None` selects the minimum.
    pub l: Option<Coord>,
}

impl DiodeParams {
    /// A minimum diode of the given polarity.
    pub fn new(mos: MosType) -> DiodeParams {
        DiodeParams {
            mos,
            w: None,
            l: None,
        }
    }

    /// Sets the channel width.
    #[must_use]
    pub fn with_w(mut self, w: Coord) -> Self {
        self.w = Some(w);
        self
    }

    /// Sets the channel length.
    #[must_use]
    pub fn with_l(mut self, l: Coord) -> Self {
        self.l = Some(l);
        self
    }
}

/// Generates the diode-connected transistor. The anode (gate + drain) is
/// net `a`, the source is net `s`. Ports: `a`, `s`.
pub fn diode_transistor(tech: &GenCtx, params: &DiodeParams) -> Result<LayoutObject, ModgenError> {
    let key = crate::cached::module_key(tech, "diode_transistor", |k| {
        k.push(crate::cached::mos_code(params.mos));
        k.push(params.w);
        k.push(params.l);
    });
    tech.generate_cached(Stage::Modgen, key, || {
        diode_transistor_uncached(tech, params)
    })
}

fn diode_transistor_uncached(
    tech: &GenCtx,
    params: &DiodeParams,
) -> Result<LayoutObject, ModgenError> {
    let _stage = tech.stage(Stage::Modgen, || "diode_transistor");
    tech.checkpoint(Stage::Modgen)?;
    tech.fault_check(FaultSite::ModgenEntry, "diode_transistor")?;
    let mut p = MosParams::new(params.mos).with_nets("a", "s", "a");
    p.w = params.w;
    p.l = params.l;
    let mut m = mos_transistor(tech, &p)?;
    // Strap the gate contact row to the drain row: both carry net "a".
    // The gate contact sits south of the gate, the drain row east — an
    // L on metal1 joins them.
    let m1 = tech.metal1()?;
    let a = m
        .find_net("a")
        .ok_or_else(|| ModgenError::Route("net `a` missing".into()))?;
    // Gate contact: the metal1 "a" geometry below y = 0; drain row: the
    // "a" geometry above it, on the east side (a tall column, or a square
    // pad at the minimum width).
    let mut gate_pad: Option<Rect> = None;
    let mut drain_col: Option<Rect> = None;
    for s in m.shapes() {
        if s.layer != m1 || s.net != Some(a) {
            continue;
        }
        if s.rect.y1 <= 0 {
            gate_pad = Some(gate_pad.map_or(s.rect, |g| g.union_bbox(&s.rect)));
        } else {
            drain_col = Some(drain_col.map_or(s.rect, |d| d.union_bbox(&s.rect)));
        }
    }
    let (gate_pad, drain_col) = match (gate_pad, drain_col) {
        (Some(g), Some(d)) => (g, d),
        _ => return Err(ModgenError::Route("diode strap endpoints not found".into())),
    };
    let w1 = tech.min_width(m1);
    // Horizontal from the gate pad east to under the drain column, then
    // vertical up into the column.
    let hy = gate_pad.center().y;
    let h = Rect::new(
        gate_pad.x1,
        hy - w1 / 2,
        drain_col.center().x + w1 / 2,
        hy - w1 / 2 + w1,
    );
    let v = Rect::new(
        drain_col.center().x - w1 / 2,
        hy - w1 / 2,
        drain_col.center().x - w1 / 2 + w1,
        drain_col.y0 + w1,
    );
    m.push(Shape::new(m1, h).with_net(a));
    m.push(Shape::new(m1, v).with_net(a));
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amgen_drc::Drc;
    use amgen_extract::Extractor;
    use amgen_geom::um;
    use amgen_tech::Tech;
    use std::error::Error;

    fn tech() -> GenCtx {
        GenCtx::from_tech(&Tech::bicmos_1u())
    }

    #[test]
    fn anode_joins_gate_and_drain() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let m = diode_transistor(&t, &DiodeParams::new(MosType::N).with_w(um(8)))?;
        let nets = Extractor::new(&t).connectivity(&m);
        let a_comp = nets
            .iter()
            .find(|n| n.declared.iter().any(|x| x == "a"))
            .expect("anode extracted");
        // The anode component contains poly (the gate) and diffusion (the
        // drain row).
        let poly = t.layer("poly")?;
        let nd = t.layer("ndiff")?;
        assert!(a_comp.shapes.iter().any(|&i| m.shapes()[i].layer == poly));
        assert!(a_comp.shapes.iter().any(|&i| m.shapes()[i].layer == nd));
        Ok(())
    }

    #[test]
    fn source_stays_separate() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let m = diode_transistor(&t, &DiodeParams::new(MosType::N).with_w(um(8)))?;
        for n in Extractor::new(&t).connectivity(&m) {
            let has_a = n.declared.iter().any(|x| x == "a");
            let has_s = n.declared.iter().any(|x| x == "s");
            assert!(!(has_a && has_s), "{:?}", n.declared);
        }
        Ok(())
    }

    #[test]
    fn no_shorts_in_drc() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let m = diode_transistor(&t, &DiodeParams::new(MosType::N).with_w(um(8)))?;
        let shorts: Vec<_> = Drc::new(&t)
            .check_spacing(&m)
            .into_iter()
            .filter(|v| v.kind == amgen_drc::ViolationKind::Short)
            .collect();
        assert!(shorts.is_empty(), "{shorts:?}");
        Ok(())
    }

    /// At the default (minimum) width the drain pad is square; it must
    /// still be strapped to the gate, and the strap must not short.
    fn default_width_diodes_are_one_clean_anode(tech: Tech) -> Result<(), Box<dyn Error>> {
        let t = GenCtx::from_tech(&tech);
        for (mos, diff) in [(MosType::N, t.ndiff()?), (MosType::P, t.pdiff()?)] {
            let case = format!("{} {mos:?}", tech.name());
            let m = diode_transistor(&t, &DiodeParams::new(mos))?;
            let anode: Vec<_> = Extractor::new(&t)
                .connectivity(&m)
                .into_iter()
                .filter(|n| n.declared.iter().any(|x| x == "a"))
                .collect();
            assert_eq!(anode.len(), 1, "{case}: gate and drain apart");
            let on = |l| anode[0].shapes.iter().any(|&i| m.shapes()[i].layer == l);
            assert!(on(t.poly()?) && on(diff), "{case}");
            let shorts: Vec<_> = Drc::new(&t)
                .check_spacing(&m)
                .into_iter()
                .filter(|v| v.kind == amgen_drc::ViolationKind::Short)
                .collect();
            assert!(shorts.is_empty(), "{case}: {shorts:?}");
        }
        Ok(())
    }

    #[test]
    fn default_width_diodes_in_bicmos_1u() -> Result<(), Box<dyn Error>> {
        default_width_diodes_are_one_clean_anode(Tech::bicmos_1u())
    }

    #[test]
    fn default_width_diodes_in_cmos_08() -> Result<(), Box<dyn Error>> {
        default_width_diodes_are_one_clean_anode(Tech::cmos_08())
    }

    #[test]
    fn pmos_diode_works() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let m = diode_transistor(&t, &DiodeParams::new(MosType::P).with_w(um(6)))?;
        assert!(m.port("a").is_some());
        assert!(m.port("s").is_some());
        Ok(())
    }
}
