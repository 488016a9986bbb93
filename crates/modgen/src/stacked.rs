//! Stacked transistors — one of the module types the paper names
//! explicitly: *"Only a few different module types (e.g. different
//! current mirrors, differential pairs, stacked transistors, diode
//! connected transistors) are required in analog circuits."*
//!
//! A stack is `n` gates in series over one diffusion strip with **no**
//! contacts between them (the internal source/drain nodes are floating
//! silicon): electrically a single transistor of length `n · L`, used
//! for very long devices and cascaded switches. Contact rows sit only at
//! the two ends.

use amgen_compact::{CompactOptions, Compactor};
use amgen_core::{GenCtx, GenKey};
use amgen_db::LayoutObject;
use amgen_geom::{Coord, Dir};
use amgen_prim::Primitives;

use crate::cached;
use crate::contact_row::{contact_row, ContactRowParams};
use crate::error::ModgenError;
use crate::mos::MosType;

/// Parameters of a transistor stack.
#[derive(Debug, Clone)]
pub struct StackedParams {
    /// Polarity.
    pub mos: MosType,
    /// Number of series gates (≥ 1).
    pub gates: usize,
    /// Channel width; `None` selects the minimum.
    pub w: Option<Coord>,
    /// Channel length per gate; `None` selects the minimum.
    pub l: Option<Coord>,
    /// Tie all gates together with a strap (single long transistor); when
    /// false each gate keeps its own net `g1..gn` (cascaded switches).
    pub common_gate: bool,
}

impl StackedParams {
    /// A common-gate stack of `gates` devices.
    pub fn new(mos: MosType, gates: usize) -> StackedParams {
        StackedParams {
            mos,
            gates,
            w: None,
            l: None,
            common_gate: true,
        }
    }

    /// Sets the channel width.
    #[must_use]
    pub fn with_w(mut self, w: Coord) -> Self {
        self.w = Some(w);
        self
    }

    /// Sets the per-gate channel length.
    #[must_use]
    pub fn with_l(mut self, l: Coord) -> Self {
        self.l = Some(l);
        self
    }

    /// Gives every gate its own net (`g1` … `gn`).
    #[must_use]
    pub fn with_separate_gates(mut self) -> Self {
        self.common_gate = false;
        self
    }
}

/// Generates the stack: `S g g … g D` with contact rows at the ends only.
/// Ports: `s`, `d`, and `g` (common) or `g1..gn`.
pub fn stacked_transistor(
    tech: &GenCtx,
    params: &StackedParams,
) -> Result<LayoutObject, ModgenError> {
    let key = |k: &mut GenKey| {
        k.push(cached::mos_code(params.mos));
        k.push(params.gates);
        k.push(params.w);
        k.push(params.l);
        k.push(params.common_gate);
    };
    cached::generate(tech, "stacked_transistor", key, || {
        if params.gates == 0 {
            return Err(ModgenError::BadParam {
                param: "gates",
                message: "must be at least 1".into(),
            });
        }
        let c = Compactor::new(tech);
        let prim = Primitives::new(tech);
        let poly = tech.poly()?;
        let diff = params.mos.diff(tech)?;
        let w = params
            .w
            .unwrap_or_else(|| tech.min_width(diff))
            .max(tech.min_width(diff));

        let mut main = LayoutObject::new("stacked");
        let opts = CompactOptions::new().ignoring(diff);

        let s_row = contact_row(tech, diff, &ContactRowParams::new().with_l(w).with_net("s"))?;
        c.compact(&mut main, &s_row, Dir::West, &opts)?;
        for i in 0..params.gates {
            let mut g = LayoutObject::new("gate");
            let (gi, _) = prim.two_rects(&mut g, poly, diff, Some(w), params.l)?;
            let name = if params.common_gate {
                "g".to_string()
            } else {
                format!("g{}", i + 1)
            };
            let id = g.net(&name);
            g.shapes_mut()[gi].net = Some(id);
            c.compact(&mut main, &g, Dir::East, &opts)?;
        }
        let d_row = contact_row(tech, diff, &ContactRowParams::new().with_l(w).with_net("d"))?;
        c.compact(&mut main, &d_row, Dir::East, &opts)?;

        if params.common_gate {
            // Strap across all gate tops (as in the inter-digitated device).
            use amgen_db::Shape;
            use amgen_geom::Rect;
            let strap_w = tech.min_width(poly);
            let span = main.bbox_on(poly);
            let g_id = main.net("g");
            main.push(
                Shape::new(
                    poly,
                    Rect::new(span.x0, span.y1, span.x1, span.y1 + strap_w),
                )
                .with_net(g_id),
            );
            let mut pc = contact_row(tech, poly, &ContactRowParams::new().with_net("g"))?;
            let pb = pc.bbox();
            pc.translate(amgen_geom::Vector::new(
                main.bbox().center().x - pb.center().x,
                span.y1 + strap_w - pb.y0,
            ));
            main.absorb(&pc, amgen_geom::Vector::ZERO);
        }
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

    #[test]
    fn stack_has_end_contacts_only() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let m = stacked_transistor(&t, &StackedParams::new(MosType::N, 4).with_w(um(6)))?;
        // Exactly 3 contact-row groups: s row, d row, gate contact.
        assert_eq!(m.groups().len(), 3);
        let poly = t.layer("poly")?;
        let gates = m
            .shapes_on(poly)
            .filter(|s| s.rect.height() > 3 * s.rect.width())
            .count();
        assert_eq!(gates, 4);
        Ok(())
    }

    #[test]
    fn source_and_drain_are_isolated_through_the_stack() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let m = stacked_transistor(&t, &StackedParams::new(MosType::N, 3).with_w(um(6)))?;
        // Gates split the diffusion: s and d never share a component.
        for n in Extractor::new(&t).connectivity(&m) {
            let has_s = n.declared.iter().any(|x| x == "s");
            let has_d = n.declared.iter().any(|x| x == "d");
            assert!(!(has_s && has_d), "{:?}", n.declared);
        }
        Ok(())
    }

    #[test]
    fn common_gate_is_one_node() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let m = stacked_transistor(&t, &StackedParams::new(MosType::N, 3).with_w(um(6)))?;
        let g_comps = Extractor::new(&t)
            .connectivity(&m)
            .into_iter()
            .filter(|n| n.declared.iter().any(|x| x == "g"))
            .count();
        assert_eq!(g_comps, 1);
        Ok(())
    }

    #[test]
    fn separate_gates_stay_separate() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let m = stacked_transistor(
            &t,
            &StackedParams::new(MosType::N, 3)
                .with_w(um(6))
                .with_separate_gates(),
        )?;
        for n in Extractor::new(&t).connectivity(&m) {
            let gates: Vec<_> = n.declared.iter().filter(|x| x.starts_with('g')).collect();
            assert!(gates.len() <= 1, "{:?}", n.declared);
        }
        Ok(())
    }

    #[test]
    fn stack_is_shorter_than_contacted_fingers() -> Result<(), Box<dyn std::error::Error>> {
        // The point of stacking: no intermediate rows.
        let t = tech();
        let stack = stacked_transistor(&t, &StackedParams::new(MosType::N, 4).with_w(um(6)))?;
        let fingers = crate::interdigit::interdigitated(
            &t,
            &crate::interdigit::InterdigitParams::new(MosType::N, 4).with_w(um(6)),
        )?;
        assert!(stack.bbox().width() < fingers.bbox().width());
        Ok(())
    }

    #[test]
    fn spacing_clean() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let m = stacked_transistor(&t, &StackedParams::new(MosType::P, 5).with_w(um(8)))?;
        let v = Drc::new(&t).check_spacing(&m);
        assert!(v.is_empty(), "{v:?}");
        Ok(())
    }
}
