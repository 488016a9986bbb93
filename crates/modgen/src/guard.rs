//! Substrate-contact guard rings.
//!
//! The paper's complex modules include *"substrate or well contacts ...
//! into the modules"*; the latch-up rule of Fig. 1 then checks that these
//! contacts cover every MOS active area. [`guard_ring`] wraps a module in
//! a contacted diffusion ring whose shapes carry
//! [`ShapeRole::SubstrateContact`] so the check can find them.

use amgen_core::{FaultSite, GenCtx, Stage};
use amgen_db::{LayoutObject, Port, Shape, ShapeRole};
use amgen_geom::{Coord, Rect};
use amgen_prim::Primitives;

use crate::error::ModgenError;

/// Parameters of a guard ring.
#[derive(Debug, Clone)]
pub struct GuardRingParams {
    /// Net of the ring (typically the substrate/ground node).
    pub net: String,
    /// Ring conductor width; `None` selects the minimum that still holds
    /// a contact row.
    pub width: Option<Coord>,
}

impl Default for GuardRingParams {
    fn default() -> GuardRingParams {
        GuardRingParams {
            net: "sub".into(),
            width: None,
        }
    }
}

/// Surrounds `core` with a contacted p-diffusion guard ring and returns
/// the combined module. The ring's diffusion carries
/// [`ShapeRole::SubstrateContact`] — it provides latch-up coverage.
pub fn guard_ring(
    tech: &GenCtx,
    core: &LayoutObject,
    params: &GuardRingParams,
) -> Result<LayoutObject, ModgenError> {
    let key = crate::cached::module_key(tech, "guard_ring", |k| {
        k.push(amgen_core::CanonParam::object(core));
        k.push(params.net.clone());
        k.push(params.width);
    });
    tech.generate_cached(Stage::Modgen, key, || {
        guard_ring_uncached(tech, core, params)
    })
}

fn guard_ring_uncached(
    tech: &GenCtx,
    core: &LayoutObject,
    params: &GuardRingParams,
) -> Result<LayoutObject, ModgenError> {
    let _stage = tech.stage(Stage::Modgen, || "guard_ring");
    tech.checkpoint(Stage::Modgen)?;
    tech.fault_check(FaultSite::ModgenEntry, "guard_ring")?;
    let prim = Primitives::new(tech);
    let pdiff = tech.pdiff()?;
    let m1 = tech.metal1()?;
    let ct = tech.contact()?;

    let mut obj = core.clone();
    let net = obj.net(&params.net);

    // Ring width: room for one contact with both enclosures.
    let cut = tech.cut_size(ct)?;
    let min_w = (cut + 2 * tech.enclosure(pdiff, ct).max(tech.enclosure(m1, ct)))
        .max(tech.min_width(pdiff))
        .max(tech.min_width(m1));
    let w = params.width.unwrap_or(min_w).max(min_w);

    // Clearance: every layer in the core must respect both the diffusion
    // ring and its metal.
    let clearance = obj
        .shapes()
        .iter()
        .map(|s| {
            tech.clearance(pdiff, s.layer)
                .max(tech.clearance(m1, s.layer))
        })
        .max()
        .unwrap_or(0);

    let ring = prim.ring(&mut obj, pdiff, Some(w), Some(clearance))?;
    let mut ring_rects = Vec::with_capacity(4);
    for &i in &ring {
        let s = &mut obj.shapes_mut()[i];
        s.net = Some(net);
        s.role = ShapeRole::SubstrateContact;
        ring_rects.push(s.rect);
    }
    // Metal ring on the same rectangles, plus contact rows inside.
    let enc = tech.enclosure(pdiff, ct).max(tech.enclosure(m1, ct));
    for r in ring_rects {
        obj.push(Shape::new(m1, r).with_net(net));
        let frame = r.inflated(-enc);
        for cut_rect in prim.array_in_frame(frame, ct)? {
            obj.push(Shape::new(ct, cut_rect).with_net(net));
        }
    }
    let bbox = obj.bbox();
    obj.push_port(Port {
        name: params.net.clone(),
        layer: m1,
        rect: Rect::new(bbox.x0, bbox.y0, bbox.x1, bbox.y0 + w),
        net: Some(net),
    });
    Ok(obj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amgen_drc::{latchup, Drc};
    use amgen_geom::um;
    use amgen_tech::Tech;

    use crate::mos::{mos_transistor, MosParams, MosType};

    fn tech() -> GenCtx {
        GenCtx::from_tech(&Tech::bicmos_1u())
    }

    #[test]
    fn ring_makes_a_transistor_latchup_clean() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let m = mos_transistor(&t, &MosParams::new(MosType::N).with_w(um(10)))?;
        // Without a ring the active area is uncovered.
        assert!(!latchup::check_latchup(&t, &m).is_empty());
        let ringed = guard_ring(&t, &m, &GuardRingParams::default())?;
        assert!(latchup::check_latchup(&t, &ringed).is_empty());
        Ok(())
    }

    #[test]
    fn ring_has_contacts_on_all_four_sides() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let m = mos_transistor(&t, &MosParams::new(MosType::N).with_w(um(8)))?;
        let ringed = guard_ring(&t, &m, &GuardRingParams::default())?;
        let ct = t.layer("contact")?;
        let core_bbox = m.bbox();
        let ring_cuts: Vec<_> = ringed
            .shapes_on(ct)
            .filter(|s| !core_bbox.contains_rect(&s.rect))
            .collect();
        assert!(ring_cuts.iter().any(|s| s.rect.y1 <= core_bbox.y0), "south");
        assert!(ring_cuts.iter().any(|s| s.rect.y0 >= core_bbox.y1), "north");
        assert!(ring_cuts.iter().any(|s| s.rect.x1 <= core_bbox.x0), "west");
        assert!(ring_cuts.iter().any(|s| s.rect.x0 >= core_bbox.x1), "east");
        Ok(())
    }

    #[test]
    fn ring_is_drc_clean_around_a_device() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let m = mos_transistor(&t, &MosParams::new(MosType::N).with_w(um(8)))?;
        let ringed = guard_ring(&t, &m, &GuardRingParams::default())?;
        let v = Drc::new(&t).check_spacing(&ringed);
        assert!(v.is_empty(), "{v:?}");
        let v = Drc::new(&t).check_enclosures(&ringed);
        assert!(v.is_empty(), "{v:?}");
        Ok(())
    }

    #[test]
    fn ring_port_and_net() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let m = mos_transistor(&t, &MosParams::new(MosType::N))?;
        let ringed = guard_ring(
            &t,
            &m,
            &GuardRingParams {
                net: "gnd".into(),
                width: None,
            },
        )?;
        assert!(ringed.port("gnd").is_some());
        Ok(())
    }

    #[test]
    fn explicit_width_is_respected_as_minimum() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let m = mos_transistor(&t, &MosParams::new(MosType::N))?;
        let thin = guard_ring(&t, &m, &GuardRingParams::default())?;
        let thick = guard_ring(
            &t,
            &m,
            &GuardRingParams {
                net: "sub".into(),
                width: Some(um(5)),
            },
        )?;
        assert!(thick.bbox().width() > thin.bbox().width());
        Ok(())
    }
}
