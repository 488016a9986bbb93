//! The cascode pair (block A of the paper's §3).
//!
//! *"Block A contains the cascode transistors of the bias circuit. This
//! module is composed of two inter-digital MOS transistors because no
//! special matching or symmetry requirements has been specified for these
//! transistors."*
//!
//! Two inter-digitated devices are stacked vertically; the lower device's
//! drain bus and the upper device's source bus share the internal node
//! and are joined with one straight metal2 wire.

use amgen_compact::{CompactOptions, Compactor};
use amgen_core::{GenCtx, GenKey};
use amgen_db::LayoutObject;
use amgen_geom::{Coord, Dir};
use amgen_route::Router;

use crate::cached;
use crate::error::ModgenError;
use crate::interdigit::{interdigitated, InterdigitParams};
use crate::mos::MosType;

/// Parameters of the cascode pair.
#[derive(Debug, Clone)]
pub struct CascodeParams {
    /// Polarity of both devices.
    pub mos: MosType,
    /// Fingers per device.
    pub fingers: usize,
    /// Channel width per finger; `None` selects 6 µm.
    pub w: Option<Coord>,
    /// Channel length; `None` selects the minimum.
    pub l: Option<Coord>,
}

impl CascodeParams {
    /// Two fingers per device.
    pub fn new(mos: MosType) -> CascodeParams {
        CascodeParams {
            mos,
            fingers: 2,
            w: None,
            l: None,
        }
    }

    /// Sets the per-finger width.
    #[must_use]
    pub fn with_w(mut self, w: Coord) -> Self {
        self.w = Some(w);
        self
    }

    /// Sets the finger count.
    #[must_use]
    pub fn with_fingers(mut self, n: usize) -> Self {
        self.fingers = n;
        self
    }
}

/// Generates the stacked cascode pair.
///
/// Ports: `g_lo`, `g_hi` (the two gate nodes), `s` (bottom source), `d`
/// (top drain); the internal node `mid` joins the lower drain to the
/// upper source.
pub fn cascode_pair(tech: &GenCtx, params: &CascodeParams) -> Result<LayoutObject, ModgenError> {
    let key = |k: &mut GenKey| {
        k.push(cached::mos_code(params.mos));
        k.push(params.fingers);
        k.push(params.w);
        k.push(params.l);
    };
    cached::generate(tech, "cascode_pair", key, || {
        let c = Compactor::new(tech);
        let router = Router::new(tech);
        let m2 = tech.metal2()?;

        let mut lower_p =
            InterdigitParams::new(params.mos, params.fingers).with_nets("g_lo", "s", "mid");
        lower_p.w = params.w;
        lower_p.l = params.l;
        let lower = interdigitated(tech, &lower_p)?;

        let mut upper_p =
            InterdigitParams::new(params.mos, params.fingers).with_nets("g_hi", "mid", "d");
        upper_p.w = params.w;
        upper_p.l = params.l;
        let upper = interdigitated(tech, &upper_p)?;

        let mut main = LayoutObject::with_capacity("cascode", lower.len() + upper.len() + 16);
        c.compact(&mut main, &lower, Dir::West, &CompactOptions::new())?;
        c.compact(&mut main, &upper, Dir::North, &CompactOptions::new())?;

        // Join the internal node: lower drain bus to upper source bus.
        let lower_mid = main
            .ports()
            .iter()
            .find(|p| p.name == "mid" && p.layer == m2)
            .map(|p| p.rect)
            .ok_or_else(|| ModgenError::Route("cascode: lower `mid` bus port not found".into()))?;
        let upper_mid = main
            .ports()
            .iter()
            .rev()
            .find(|p| p.name == "mid" && p.layer == m2)
            .map(|p| p.rect)
            .ok_or_else(|| ModgenError::Route("cascode: upper `mid` bus port not found".into()))?;
        let mid_id = main.net("mid");
        router.straight(&mut main, m2, lower_mid, upper_mid, None, Some(mid_id))?;
        Ok(main)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use amgen_drc::Drc;
    use amgen_extract::Extractor;
    use amgen_geom::um;
    use amgen_tech::Tech;

    fn tech() -> GenCtx {
        GenCtx::from_tech(&Tech::bicmos_1u())
    }

    fn cascode(t: &GenCtx) -> LayoutObject {
        cascode_pair(t, &CascodeParams::new(MosType::N).with_w(um(6))).unwrap()
    }

    #[test]
    fn stacks_two_devices_vertically() {
        let m = cascode(&tech());
        let bb = m.bbox();
        assert!(bb.height() > bb.width() / 2, "vertical stack");
        for p in ["g_lo", "g_hi", "s", "d"] {
            assert!(m.port(p).is_some(), "missing {p}");
        }
    }

    #[test]
    fn mid_node_is_one_component() {
        let t = tech();
        let m = cascode(&t);
        let nets = Extractor::new(&t).connectivity(&m);
        let mid_comps = nets
            .iter()
            .filter(|n| n.declared.iter().any(|x| x == "mid"))
            .count();
        assert_eq!(mid_comps, 1, "drain of lower = source of upper");
    }

    #[test]
    fn gates_stay_separate() {
        let t = tech();
        let m = cascode(&t);
        for n in Extractor::new(&t).connectivity(&m) {
            let lo = n.declared.iter().any(|x| x == "g_lo");
            let hi = n.declared.iter().any(|x| x == "g_hi");
            assert!(!(lo && hi), "{:?}", n.declared);
        }
    }

    #[test]
    fn spacing_clean() {
        let t = tech();
        let m = cascode(&t);
        let v = Drc::new(&t).check_spacing(&m);
        assert!(v.is_empty(), "{v:?}");
    }
}
