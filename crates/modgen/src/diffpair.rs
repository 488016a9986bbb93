//! The simple MOS differential pair (Figs. 6/7 of the paper).
//!
//! ```text
//! ENT DiffPair(<W>, <L>)
//!   trans1 = Trans(W = W, L = L)
//!   trans2 = trans1           // copy of trans1
//!   diffcon = ContactRow(layer = "pdiff", W = W)
//!   compact(trans1, WEST, "pdiff")   // step 3
//!   compact(trans2, WEST, "pdiff")   // step 4
//!   compact(diffcon, WEST, "pdiff")  // step 5
//! ```
//!
//! The result is *"two transistors, three diffusion-contact-rows and two
//! poly-contacts"*: `row | gate | row | gate | row`, with the middle row
//! shared between the devices.

use amgen_compact::{CompactOptions, Compactor};
use amgen_core::{GenCtx, GenKey};
use amgen_db::LayoutObject;
use amgen_geom::Coord;
use amgen_geom::Dir;
use amgen_prim::Primitives;

use crate::cached;
use crate::contact_row::{contact_row, ContactRowParams};
use crate::error::ModgenError;
use crate::mos::{mos_finger, MosType};

/// Parameters of the simple differential pair.
#[derive(Debug, Clone)]
pub struct DiffPairParams {
    /// Device polarity.
    pub mos: MosType,
    /// Channel width; `None` selects the minimum.
    pub w: Option<Coord>,
    /// Channel length; `None` selects the minimum.
    pub l: Option<Coord>,
    /// Draw the implant (and well for PMOS).
    pub implants: bool,
}

impl DiffPairParams {
    /// Minimum-size pair of the given polarity with implants.
    pub fn new(mos: MosType) -> DiffPairParams {
        DiffPairParams {
            mos,
            w: None,
            l: None,
            implants: true,
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

/// Generates the five-step differential pair of Fig. 6.
///
/// Net/port names: gates `g1`/`g2`, drains `d1`/`d2` (outer rows), common
/// source `s` (the shared middle row).
pub fn diff_pair(tech: &GenCtx, params: &DiffPairParams) -> Result<LayoutObject, ModgenError> {
    let key = |k: &mut GenKey| {
        k.push(cached::mos_code(params.mos));
        k.push(params.w);
        k.push(params.l);
        k.push(params.implants);
    };
    cached::generate(tech, "diff_pair", key, || {
        let c = Compactor::new(tech);
        let prim = Primitives::new(tech);
        let diff = params.mos.diff(tech)?;

        // trans1 carries its own east row (drain d1); trans2 is "a copy of
        // trans1" with its row becoming the shared source when it lands west.
        let trans1 = mos_finger(tech, params.mos, params.w, params.l, "g1", "d1", true)?;
        let trans2 = mos_finger(tech, params.mos, params.w, params.l, "g2", "s", true)?;
        let w_actual = trans1.bbox_on(diff).height();
        let diffcon = contact_row(
            tech,
            diff,
            &ContactRowParams::new().with_l(w_actual).with_net("d2"),
        )?;

        let mut main = LayoutObject::with_capacity(
            "diff_pair",
            trans1.len() + trans2.len() + diffcon.len() + 8,
        );
        let opts = CompactOptions::new().ignoring(diff);
        c.compact(&mut main, &trans1, Dir::West, &opts)?; // step 3
        c.compact(&mut main, &trans2, Dir::West, &opts)?; // step 4
        c.compact(&mut main, &diffcon, Dir::West, &opts)?; // step 5

        if params.implants {
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

    fn pair(t: &GenCtx) -> LayoutObject {
        diff_pair(
            t,
            &DiffPairParams::new(MosType::P).with_w(um(10)).with_l(um(2)),
        )
        .unwrap()
    }

    #[test]
    fn has_two_gates_three_rows_two_poly_contacts() {
        let t = tech();
        let p = pair(&t);
        // Count contact rows by their rebuild groups: 2 poly contact rows
        // + 3 diffusion rows = 5 groups.
        assert_eq!(p.groups().len(), 5);
        // Two gate nets, one source, two drains.
        for port in ["g1", "g2", "s", "d1", "d2"] {
            assert!(p.port(port).is_some(), "missing port {port}");
        }
    }

    #[test]
    fn row_gate_row_gate_row_from_west_to_east() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let p = pair(&t);
        // The shared s row lies strictly between the two gate x-ranges.
        let g1 = p.port("g1").ok_or("missing port g1")?.rect.center().x;
        let g2 = p.port("g2").ok_or("missing port g2")?.rect.center().x;
        let s = p.port("s").ok_or("missing port s")?.rect.center().x;
        let d1 = p.port("d1").ok_or("missing port d1")?.rect.center().x;
        let d2 = p.port("d2").ok_or("missing port d2")?.rect.center().x;
        let (lo_g, hi_g) = (g1.min(g2), g1.max(g2));
        assert!(lo_g < s && s < hi_g, "source row between the gates");
        assert!(d1 < lo_g || d1 > hi_g, "d1 outside");
        assert!(d2 < lo_g || d2 > hi_g, "d2 outside");
        assert!((d1 < lo_g) != (d2 < lo_g), "drains on opposite sides");
        Ok(())
    }

    #[test]
    fn is_drc_clean() {
        let t = tech();
        let p = pair(&t);
        let v = Drc::new(&t).check_spacing(&p);
        assert!(v.is_empty(), "{v:?}");
        let v = Drc::new(&t).check_enclosures(&p);
        assert!(v.is_empty(), "{v:?}");
        let v = Drc::new(&t).check_widths(&p);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn no_declared_net_conflicts() {
        let t = tech();
        let p = pair(&t);
        // The continuous diffusion legitimately joins s/d1/d2 (one strip of
        // source/drain silicon); gates must stay separate from it and from
        // each other.
        let nets = Extractor::new(&t).connectivity(&p);
        for n in &nets {
            let has_g1 = n.declared.iter().any(|x| x == "g1");
            let has_g2 = n.declared.iter().any(|x| x == "g2");
            let has_sd = n
                .declared
                .iter()
                .any(|x| x == "s" || x == "d1" || x == "d2");
            assert!(!(has_g1 && has_g2), "gates shorted: {:?}", n.declared);
            assert!(
                !((has_g1 || has_g2) && has_sd),
                "gate shorted to s/d: {:?}",
                n.declared
            );
        }
    }

    #[test]
    fn nmos_pair_works_too() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let p = diff_pair(&t, &DiffPairParams::new(MosType::N).with_w(um(6)))?;
        let v = Drc::new(&t).check_spacing(&p);
        assert!(v.is_empty(), "{v:?}");
        let nplus = t.layer("nplus")?;
        assert!(!p.bbox_on(nplus).is_empty());
        Ok(())
    }

    #[test]
    fn compaction_shares_the_middle_row() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        // Pair width is clearly less than two standalone fingers plus an
        // extra row: the middle row is shared.
        let p = pair(&t);
        // Two standalone transistors need four diffusion rows; the pair
        // gets by with three by sharing the middle one. Compare active
        // extents (wells/implants inflate the pair's bounding box).
        let pdiff = t.layer("pdiff")?;
        let single = crate::mos::mos_transistor(
            &t,
            &crate::mos::MosParams::new(MosType::P)
                .with_w(um(10))
                .with_l(um(2))
                .without_implants(),
        )?;
        assert!(
            p.bbox_on(pdiff).width() < 2 * single.bbox_on(pdiff).width(),
            "{} vs 2 x {}",
            p.bbox_on(pdiff).width(),
            single.bbox_on(pdiff).width()
        );
        Ok(())
    }

    #[test]
    fn works_in_cmos_deck() -> Result<(), Box<dyn std::error::Error>> {
        let t = GenCtx::from_tech(&Tech::cmos_08());
        let p = diff_pair(&t, &DiffPairParams::new(MosType::N).with_w(um(8)))?;
        let v = Drc::new(&t).check_spacing(&p);
        assert!(v.is_empty(), "{v:?}");
        Ok(())
    }
}
