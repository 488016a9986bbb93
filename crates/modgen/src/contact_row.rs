//! The contact row module (Fig. 2/3 of the paper).
//!
//! The paper's three-line flagship example:
//!
//! ```text
//! ENT ContactRow(layer, <W>, <L>)
//!   INBOX(layer, W, L)
//!   INBOX("metal1")
//!   ARRAY("contact")
//! ```

use amgen_core::{FaultSite, GenCtx, Stage};
use amgen_db::{LayoutObject, Port, RebuildKind};
use amgen_geom::{Coord, Dir};
use amgen_prim::Primitives;
use amgen_tech::Layer;

use crate::error::ModgenError;

/// Parameters of a contact row.
#[derive(Debug, Clone, Default)]
pub struct ContactRowParams {
    /// Width (x extent); `None` selects the design-rule minimum (left
    /// variant of Fig. 3).
    pub w: Option<Coord>,
    /// Length (y extent); `None` selects the design-rule minimum.
    pub l: Option<Coord>,
    /// Potential for all geometry, and the port name.
    pub net: Option<String>,
    /// Marks the conductor edges as *variable* so the compactor may shrink
    /// the row (Fig. 5b).
    pub variable_edges: bool,
}

impl ContactRowParams {
    /// All defaults (both variants of Fig. 3 left).
    pub fn new() -> ContactRowParams {
        ContactRowParams::default()
    }

    /// Sets the width.
    #[must_use]
    pub fn with_w(mut self, w: Coord) -> Self {
        self.w = Some(w);
        self
    }

    /// Sets the length.
    #[must_use]
    pub fn with_l(mut self, l: Coord) -> Self {
        self.l = Some(l);
        self
    }

    /// Sets the potential / port name.
    #[must_use]
    pub fn with_net(mut self, net: &str) -> Self {
        self.net = Some(net.to_string());
        self
    }

    /// Enables variable edges.
    #[must_use]
    pub fn with_variable_edges(mut self) -> Self {
        self.variable_edges = true;
        self
    }
}

/// Generates a contact row on `layer` (poly or a diffusion): the base
/// rectangle, a metal1 landing filling it, and the maximal equidistant
/// contact array — exactly the three calls of Fig. 2. The shapes form a
/// rebuildable group so the compactor can recalculate the array after
/// shrinking a variable edge.
///
/// # Example
/// ```
/// use amgen_core::GenCtx;
/// use amgen_modgen::{contact_row, ContactRowParams};
/// use amgen_tech::Tech;
/// use amgen_geom::um;
///
/// let tech = GenCtx::from_tech(&Tech::bicmos_1u());
/// let poly = tech.layer("poly").unwrap();
/// let row = contact_row(&tech, poly, &ContactRowParams::new().with_w(um(10))).unwrap();
/// assert!(row.port("c").is_some());
/// ```
pub fn contact_row(
    tech: &GenCtx,
    layer: Layer,
    params: &ContactRowParams,
) -> Result<LayoutObject, ModgenError> {
    // The net is a pure relabeling: cache the canonical (α-renamed)
    // form so rows that differ only in their net share one entry.
    if let (true, Some(net)) = (tech.cache_active(), &params.net) {
        let key = crate::cached::module_key(tech, "contact_row", |k| {
            k.push(layer.index());
            k.push(params.w);
            k.push(params.l);
            k.push(true); // a (canonicalized) net is present
            k.push(params.variable_edges);
        });
        let canon = ContactRowParams {
            net: Some(crate::cached::ALPHA_A.to_string()),
            ..params.clone()
        };
        let mut row = tech.generate_cached(Stage::Modgen, key, || {
            contact_row_uncached(tech, layer, &canon)
        })?;
        row.rename_label(crate::cached::ALPHA_A, net);
        return Ok(row);
    }
    let key = crate::cached::module_key(tech, "contact_row", |k| {
        k.push(layer.index());
        k.push(params.w);
        k.push(params.l);
        k.push(params.net.clone());
        k.push(params.variable_edges);
    });
    tech.generate_cached(Stage::Modgen, key, || {
        contact_row_uncached(tech, layer, params)
    })
}

fn contact_row_uncached(
    tech: &GenCtx,
    layer: Layer,
    params: &ContactRowParams,
) -> Result<LayoutObject, ModgenError> {
    let _stage = tech.stage(Stage::Modgen, || "contact_row");
    tech.checkpoint(Stage::Modgen)?;
    tech.fault_check(FaultSite::ModgenEntry, "contact_row")?;
    let prim = Primitives::new(tech);
    let metal1 = tech.metal1()?;
    let contact = tech.contact()?;
    let mut obj = LayoutObject::new(format!("contact_row:{}", tech.layer_name(layer)));
    let base = prim.inbox(&mut obj, layer, params.w, params.l)?;
    let metal = prim.inbox(&mut obj, metal1, None, None)?;
    let cuts = prim.array(&mut obj, contact)?;
    let mut members = vec![base, metal];
    members.extend(cuts.iter().copied());
    obj.add_group(
        "row",
        members,
        Some(RebuildKind::ContactArray { cut: contact }),
    );
    if let Some(name) = &params.net {
        let id = obj.net(name);
        for s in obj.shapes_mut() {
            s.net = Some(id);
        }
    }
    if params.variable_edges {
        for i in [base, metal] {
            let mut e = obj.shapes()[i].edges;
            for d in Dir::ALL {
                e = e.with_variable(d);
            }
            obj.shapes_mut()[i].edges = e;
        }
    }
    let port_rect = obj.shapes()[metal].rect;
    let port_net = obj.shapes()[metal].net;
    obj.push_port(Port {
        name: params.net.clone().unwrap_or_else(|| "c".to_string()),
        layer: metal1,
        rect: port_rect,
        net: port_net,
    });
    Ok(obj)
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
    fn fig3_left_both_params_omitted() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let poly = t.layer("poly")?;
        let row = contact_row(&t, poly, &ContactRowParams::new())?;
        let ct = t.layer("contact")?;
        assert_eq!(
            row.shapes_on(ct).count(),
            1,
            "minimal row holds one contact"
        );
        assert!(Drc::new(&t).check(&row).is_empty());
        Ok(())
    }

    #[test]
    fn fig3_middle_w_given_l_minimal() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let poly = t.layer("poly")?;
        let row = contact_row(&t, poly, &ContactRowParams::new().with_w(um(10)))?;
        let ct = t.layer("contact")?;
        let n = row.shapes_on(ct).count();
        assert!(n >= 4, "a 10 um row holds a row of contacts, got {n}");
        // One row only: all contacts share the y position.
        let ys: std::collections::HashSet<i64> = row.shapes_on(ct).map(|s| s.rect.y0).collect();
        assert_eq!(ys.len(), 1);
        assert!(Drc::new(&t).check(&row).is_empty());
        Ok(())
    }

    #[test]
    fn fig3_right_both_given() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let poly = t.layer("poly")?;
        let row = contact_row(
            &t,
            poly,
            &ContactRowParams::new().with_w(um(8)).with_l(um(6)),
        )?;
        let ct = t.layer("contact")?;
        // 2-D array: more than one x and more than one y position.
        let xs: std::collections::HashSet<i64> = row.shapes_on(ct).map(|s| s.rect.x0).collect();
        let ys: std::collections::HashSet<i64> = row.shapes_on(ct).map(|s| s.rect.y0).collect();
        assert!(xs.len() > 1 && ys.len() > 1);
        assert!(Drc::new(&t).check(&row).is_empty());
        Ok(())
    }

    #[test]
    fn row_is_one_electrical_net() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let pdiff = t.layer("pdiff")?;
        let row = contact_row(
            &t,
            pdiff,
            &ContactRowParams::new().with_w(um(12)).with_net("s"),
        )?;
        let nets = Extractor::new(&t).connectivity(&row);
        assert_eq!(nets.len(), 1);
        assert_eq!(nets[0].declared, vec!["s".to_string()]);
        Ok(())
    }

    #[test]
    fn port_carries_net_and_rect() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let poly = t.layer("poly")?;
        let row = contact_row(&t, poly, &ContactRowParams::new().with_net("g"))?;
        let p = row.port("g").ok_or("missing port g")?;
        assert_eq!(p.rect, row.bbox_on(t.layer("metal1")?));
        assert!(p.net.is_some());
        assert!(row.port("c").is_none(), "single port, named after the net");
        Ok(())
    }

    #[test]
    fn variable_edges_are_marked() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let poly = t.layer("poly")?;
        let row = contact_row(&t, poly, &ContactRowParams::new().with_variable_edges())?;
        let m1 = t.layer("metal1")?;
        let metal = row.shapes_on(m1).next().ok_or("no metal1 shape")?;
        for d in Dir::ALL {
            assert!(metal.edges.is_variable(d));
        }
        Ok(())
    }

    #[test]
    fn works_in_the_cmos_deck_too() -> Result<(), Box<dyn std::error::Error>> {
        let t = GenCtx::from_tech(&Tech::cmos_08());
        let ndiff = t.layer("ndiff")?;
        let row = contact_row(&t, ndiff, &ContactRowParams::new().with_w(um(10)))?;
        assert!(Drc::new(&t).check(&row).is_empty());
        let ct = t.layer("contact")?;
        assert!(
            row.shapes_on(ct).count() >= 5,
            "tighter rules fit more cuts"
        );
        Ok(())
    }

    #[test]
    fn group_is_rebuildable() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let poly = t.layer("poly")?;
        let row = contact_row(&t, poly, &ContactRowParams::new())?;
        assert_eq!(row.groups().len(), 1);
        assert!(matches!(
            row.groups()[0].rebuild,
            Some(RebuildKind::ContactArray { .. })
        ));
        Ok(())
    }
}
