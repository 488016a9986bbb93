//! Bipolar npn modules (block F of the paper's §3).
//!
//! *"The bipolar transistors of block F are composed symmetrically."*
//!
//! The synthetic BiCMOS deck models the npn with a buried subcollector, a
//! base region, an emitter diffusion inside the base, and a collector
//! contact row placed directly on the buried layer (standing in for the
//! sinker stack of a real process). Emitter and base get contact rows;
//! the device is built entirely from `inbox`/`around` primitives plus
//! compaction steps.

use amgen_compact::{CompactOptions, Compactor};
use amgen_core::{GenCtx, GenKey};
use amgen_db::{LayoutObject, Port};
use amgen_geom::{Coord, Dir, Vector};
use amgen_prim::Primitives;

use crate::cached;
use crate::contact_row::{contact_row, ContactRowParams};
use crate::error::ModgenError;

/// Parameters of the npn module.
#[derive(Debug, Clone, Default)]
pub struct NpnParams {
    /// Emitter stripe length (y); `None` selects the minimum.
    pub emitter_l: Option<Coord>,
}

impl NpnParams {
    /// Minimum emitter.
    pub fn new() -> NpnParams {
        NpnParams::default()
    }

    /// Sets the emitter length.
    #[must_use]
    pub fn with_emitter_l(mut self, l: Coord) -> Self {
        self.emitter_l = Some(l);
        self
    }
}

/// Generates a single npn transistor. Ports: `e`, `b`, `c`.
pub fn bipolar_npn(tech: &GenCtx, params: &NpnParams) -> Result<LayoutObject, ModgenError> {
    let key = |k: &mut GenKey| {
        k.push(params.emitter_l);
    };
    cached::generate(tech, "bipolar_npn", key, || {
        let prim = Primitives::new(tech);
        let c = Compactor::new(tech);
        let base = tech.base()?;
        let emitter = tech.emitter()?;
        let buried = tech.buried()?;
        let ndiff = tech.ndiff()?;

        // Emitter contact row: emitter diffusion + metal + contacts.
        let mut e_row = contact_row(tech, emitter, &ContactRowParams::new().with_net("e"))?;
        if let Some(l) = params.emitter_l {
            // Rebuild with explicit length.
            e_row = contact_row(
                tech,
                emitter,
                &ContactRowParams::new().with_l(l).with_net("e"),
            )?;
        }

        let mut main = LayoutObject::new("npn");
        c.compact(&mut main, &e_row, Dir::West, &CompactOptions::new())?;

        // Base region around the emitter, then a base contact row east of it.
        prim.around(&mut main, base, 0)?;
        let b_net = main.net("b");
        let base_rect = main.bbox_on(base);
        let e_h = main.bbox_on(emitter).height();
        let b_row = contact_row(
            tech,
            base,
            &ContactRowParams::new().with_l(e_h).with_net("b"),
        )?;
        c.compact(
            &mut main,
            &b_row,
            Dir::East,
            &CompactOptions::new().ignoring(base),
        )?;
        let _ = (b_net, base_rect);

        // Buried subcollector around everything so far.
        prim.around(&mut main, buried, 0)?;

        // Collector contact row directly on the buried layer (sinker stand-in),
        // attached west; its buried rectangle merges into the subcollector.
        let sink = contact_row(
            tech,
            buried,
            &ContactRowParams::new().with_l(e_h).with_net("c"),
        )?;
        c.compact(
            &mut main,
            &sink,
            Dir::West,
            &CompactOptions::new().ignoring(buried),
        )?;
        let _ = ndiff;

        let ports: Vec<Port> = ["e", "b", "c"]
            .iter()
            .filter_map(|n| main.port(n).cloned())
            .collect();
        debug_assert_eq!(ports.len(), 3);
        Ok(main)
    })
}

/// A symmetric npn pair: two devices mirrored about a common axis, the
/// block-F arrangement.
pub fn bipolar_pair(tech: &GenCtx, params: &NpnParams) -> Result<LayoutObject, ModgenError> {
    let key = |k: &mut GenKey| {
        k.push(params.emitter_l);
    };
    cached::generate(tech, "bipolar_pair", key, || {
        let single = bipolar_npn(tech, params)?;
        let buried = tech.buried()?;
        let space = tech.min_spacing(buried, buried).unwrap_or(5_000);
        let mut main = LayoutObject::with_capacity("npn_pair", 2 * single.len() + 4);
        main.absorb(&single, Vector::ZERO);
        let w = single.bbox().width();
        let mirrored = single.mirrored_x(single.bbox().x1 + (space + w) / 2 + w / 2);
        // Rename the mirrored ports by absorbing with prefixed nets: rebuild
        // the mirrored object's nets as *_2.
        let mut right = LayoutObject::new("npn2");
        for name in mirrored.net_names() {
            right.net(&format!("{name}_2"));
        }
        for s in mirrored.shapes() {
            let mut s2 = *s;
            s2.net = s.net.map(|id| {
                let name = format!("{}_2", mirrored.net_name(id));
                right.net(&name)
            });
            right.push(s2);
        }
        for p in mirrored.ports() {
            let name = format!("{}_2", p.name);
            let net = right.find_net(&name);
            right.push_port(Port {
                name,
                layer: p.layer,
                rect: p.rect,
                net,
            });
        }
        main.absorb(&right, Vector::ZERO);
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
    fn npn_has_three_terminals() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let n = bipolar_npn(&t, &NpnParams::new())?;
        for p in ["e", "b", "c"] {
            assert!(n.port(p).is_some(), "missing {p}");
        }
        Ok(())
    }

    #[test]
    fn emitter_inside_base_inside_buried() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let n = bipolar_npn(&t, &NpnParams::new().with_emitter_l(um(6)))?;
        let e = n.bbox_on(t.layer("emitter")?);
        let b = n.bbox_on(t.layer("base")?);
        let bu = n.bbox_on(t.layer("buried")?);
        let enc_be = t.enclosure(t.layer("base")?, t.layer("emitter")?);
        assert!(
            b.inflated(-enc_be).contains_rect(&e),
            "base encloses emitter"
        );
        assert!(bu.contains_rect(&b), "buried encloses base");
        Ok(())
    }

    #[test]
    fn collector_reaches_the_buried_layer() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let n = bipolar_npn(&t, &NpnParams::new())?;
        // The extracted "c" component must contain the buried shape
        // (diffusion sinker overlaps buried → connected).
        let nets = Extractor::new(&t).connectivity(&n);
        let c_comp = nets
            .iter()
            .find(|x| x.declared.iter().any(|d| d == "c"))
            .expect("collector net");
        let buried = t.layer("buried")?;
        assert!(
            c_comp.shapes.iter().any(|&i| n.shapes()[i].layer == buried),
            "sinker contacts the subcollector"
        );
        Ok(())
    }

    #[test]
    fn terminals_stay_separate() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let n = bipolar_npn(&t, &NpnParams::new())?;
        for comp in Extractor::new(&t).connectivity(&n) {
            assert!(comp.declared.len() <= 1, "short: {:?}", comp.declared);
        }
        Ok(())
    }

    #[test]
    fn npn_is_enclosure_clean() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let n = bipolar_npn(&t, &NpnParams::new().with_emitter_l(um(4)))?;
        let v = Drc::new(&t).check_enclosures(&n);
        assert!(v.is_empty(), "{v:?}");
        Ok(())
    }

    #[test]
    fn pair_is_mirrored_and_separate() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let p = bipolar_pair(&t, &NpnParams::new())?;
        for name in ["e", "b", "c", "e_2", "b_2", "c_2"] {
            assert!(p.port(name).is_some(), "missing {name}");
        }
        // The two devices do not short.
        for comp in Extractor::new(&t).connectivity(&p) {
            let one = comp.declared.iter().any(|d| !d.ends_with("_2"));
            let two = comp.declared.iter().any(|d| d.ends_with("_2"));
            assert!(!(one && two), "devices shorted: {:?}", comp.declared);
        }
        Ok(())
    }

    #[test]
    fn pair_buried_spacing_is_respected() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let p = bipolar_pair(&t, &NpnParams::new())?;
        let v = Drc::new(&t).check_spacing(&p);
        assert!(v.is_empty(), "{v:?}");
        Ok(())
    }
}
