//! The 2-D common-centroid quad: four unit transistors in an
//! `A B / B A` square so **both** devices share the centroid in **both**
//! axes — the strongest matching arrangement for a pair, complementing
//! the 1-D cross-coupling of [`crate::centroid`].
//!
//! Each row is a two-finger chain (`S g d g S`-style, rows sharing
//! diffusion within the row only); the second row is the first with the
//! device assignment swapped, stacked north at rule distance. Gate and
//! drain wiring is left on the module ports (the paper routes block
//! wiring per-module; here the quad exposes per-row ports so the
//! enclosing module can wire diagonals on its preferred layers).

use amgen_compact::{CompactOptions, Compactor};
use amgen_core::{FaultSite, GenCtx, Stage};
use amgen_db::LayoutObject;
use amgen_geom::{Coord, Dir};
use amgen_prim::Primitives;

use crate::contact_row::{contact_row, ContactRowParams};
use crate::error::ModgenError;
use crate::mos::MosType;

/// Parameters of the quad.
#[derive(Debug, Clone)]
pub struct QuadParams {
    /// Polarity.
    pub mos: MosType,
    /// Channel width per unit; `None` selects 6 µm.
    pub w: Option<Coord>,
    /// Channel length; `None` selects the minimum.
    pub l: Option<Coord>,
}

impl QuadParams {
    /// A quad of the given polarity.
    pub fn new(mos: MosType) -> QuadParams {
        QuadParams {
            mos,
            w: None,
            l: None,
        }
    }

    /// Sets the unit channel width.
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

/// One row: `S g(first) D(first) S g(second) D(second) S` built by
/// successive compaction; gates carry the given nets, drains likewise.
fn quad_row(
    tech: &GenCtx,
    mos: MosType,
    w: Coord,
    l: Option<Coord>,
    first: (&str, &str),
    second: (&str, &str),
) -> Result<LayoutObject, ModgenError> {
    let prim = Primitives::new(tech);
    let c = Compactor::new(tech);
    let poly = tech.poly()?;
    let diff = mos.diff(tech)?;
    let mut main = LayoutObject::new("row");
    let opts = CompactOptions::new().ignoring(diff);
    let row = |net: &str| contact_row(tech, diff, &ContactRowParams::new().with_l(w).with_net(net));
    let gate = |g_net: &str| -> Result<LayoutObject, ModgenError> {
        let mut o = LayoutObject::new("g");
        let (gi, _) = prim.two_rects(&mut o, poly, diff, Some(w), l)?;
        let id = o.net(g_net);
        o.shapes_mut()[gi].net = Some(id);
        Ok(o)
    };
    c.compact(&mut main, &row("s")?, Dir::West, &opts)?;
    for (g, d) in [first, second] {
        c.compact(&mut main, &gate(g)?, Dir::East, &opts)?;
        c.compact(&mut main, &row(d)?, Dir::East, &opts)?;
        // Shared source between and after the units.
        c.compact(&mut main, &gate(g)?, Dir::East, &opts)?;
        c.compact(&mut main, &row("s")?, Dir::East, &opts)?;
    }
    Ok(main)
}

/// Generates the `A B / B A` quad. Gate nets `g1`/`g2`, drain nets
/// `d1`/`d2`, common source `s`; each appears in both rows, so the
/// centroids of both devices coincide in x **and** y.
pub fn common_centroid_quad(
    tech: &GenCtx,
    params: &QuadParams,
) -> Result<LayoutObject, ModgenError> {
    let key = crate::cached::module_key(tech, "common_centroid_quad", |k| {
        k.push(crate::cached::mos_code(params.mos));
        k.push(params.w);
        k.push(params.l);
    });
    tech.generate_cached(Stage::Modgen, key, || {
        common_centroid_quad_uncached(tech, params)
    })
}

fn common_centroid_quad_uncached(
    tech: &GenCtx,
    params: &QuadParams,
) -> Result<LayoutObject, ModgenError> {
    let _stage = tech.stage(Stage::Modgen, || "common_centroid_quad");
    tech.checkpoint(Stage::Modgen)?;
    tech.fault_check(FaultSite::ModgenEntry, "common_centroid_quad")?;
    let w = params
        .w
        .unwrap_or(6_000)
        .max(tech.min_width(params.mos.diff(tech)?));
    let c = Compactor::new(tech);
    let bottom = quad_row(tech, params.mos, w, params.l, ("g1", "d1"), ("g2", "d2"))?;
    let top = quad_row(tech, params.mos, w, params.l, ("g2", "d2"), ("g1", "d1"))?;
    let mut main = LayoutObject::with_capacity("centroid_quad", bottom.len() + top.len() + 8);
    c.compact(&mut main, &bottom, Dir::South, &CompactOptions::new())?;
    c.compact(&mut main, &top, Dir::North, &CompactOptions::new())?;
    let prim = Primitives::new(tech);
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
}

/// The centroid (mean centre) of the gate stripes carrying a net.
pub fn gate_centroid(tech: &GenCtx, obj: &LayoutObject, net: &str) -> Option<(f64, f64)> {
    let _stage = tech.stage(Stage::Modgen, || "gate_centroid");
    let poly = tech.poly().ok()?;
    let id = obj.find_net(net)?;
    let centers: Vec<(f64, f64)> = obj
        .shapes_on(poly)
        .filter(|s| s.net == Some(id) && s.rect.height() > s.rect.width())
        .map(|s| (s.rect.center().x as f64, s.rect.center().y as f64))
        .collect();
    if centers.is_empty() {
        return None;
    }
    let n = centers.len() as f64;
    Some((
        centers.iter().map(|c| c.0).sum::<f64>() / n,
        centers.iter().map(|c| c.1).sum::<f64>() / n,
    ))
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

    fn quad(t: &GenCtx) -> LayoutObject {
        common_centroid_quad(t, &QuadParams::new(MosType::N).with_w(um(6)).with_l(um(1))).unwrap()
    }

    #[test]
    fn four_units_two_per_device() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let q = quad(&t);
        let poly = t.layer("poly")?;
        let g1 = q.find_net("g1").ok_or("missing net g1")?;
        let g2 = q.find_net("g2").ok_or("missing net g2")?;
        let count = |net| {
            q.shapes_on(poly)
                .filter(|s| s.net == Some(net) && s.rect.height() > 3 * s.rect.width())
                .count()
        };
        assert_eq!(count(g1), 4, "2 fingers x 2 rows per device");
        assert_eq!(count(g2), 4);
        Ok(())
    }

    #[test]
    fn centroids_coincide_in_both_axes() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let q = quad(&t);
        let (x1, y1) = gate_centroid(&t, &q, "g1").ok_or("no centroid for g1")?;
        let (x2, y2) = gate_centroid(&t, &q, "g2").ok_or("no centroid for g2")?;
        assert!((x1 - x2).abs() < 1_000.0, "x centroids: {x1} vs {x2}");
        assert!((y1 - y2).abs() < 1_000.0, "y centroids: {y1} vs {y2}");
        Ok(())
    }

    #[test]
    fn devices_do_not_short() {
        let t = tech();
        let q = quad(&t);
        for n in Extractor::new(&t).connectivity(&q) {
            let has = |x: &str| n.declared.iter().any(|d| d == x);
            assert!(!(has("g1") && has("g2")), "{:?}", n.declared);
            assert!(!(has("d1") && has("d2")), "{:?}", n.declared);
            assert!(!(has("d1") && has("s")), "{:?}", n.declared);
        }
    }

    #[test]
    fn rows_are_rule_spaced() {
        let t = tech();
        let q = quad(&t);
        let v = Drc::new(&t).check_spacing(&q);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn quad_is_roughly_square() {
        let t = tech();
        let q = quad(&t);
        let bb = q.bbox();
        let ratio = bb.width() as f64 / bb.height() as f64;
        assert!(ratio > 0.5 && ratio < 4.0, "aspect {ratio}");
    }

    #[test]
    fn bbox_overlap_between_rows_is_none() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let q = quad(&t);
        // The two diffusion bands (rows) stay separate: count distinct
        // y-bands of diffusion.
        let nd = t.layer("ndiff")?;
        let mut y0s: Vec<i64> = q.shapes_on(nd).map(|s| s.rect.y0).collect();
        y0s.sort_unstable();
        y0s.dedup();
        assert!(y0s.len() >= 2);
        Ok(())
    }
}
