//! Inter-digitated MOS transistors (blocks A and C of the paper's §3).
//!
//! A single device split into `fingers` parallel gate stripes over one
//! diffusion band, with shared source/drain contact rows between the
//! stripes (`S g D g S g D ...`), a poly strap connecting the gates, and
//! metal2 buses collecting the source and drain rows.

use amgen_compact::{CompactOptions, Compactor};
use amgen_core::{FaultSite, GenCtx, Stage};
use amgen_db::{LayoutObject, Port, Shape};
use amgen_geom::{Coord, Dir, Point, Rect};
use amgen_prim::Primitives;
use amgen_route::Router;

use crate::contact_row::{contact_row, ContactRowParams};
use crate::error::ModgenError;
use crate::mos::MosType;

/// Parameters of an inter-digitated transistor.
#[derive(Debug, Clone)]
pub struct InterdigitParams {
    /// Polarity.
    pub mos: MosType,
    /// Number of gate fingers (≥ 1).
    pub fingers: usize,
    /// Channel width per finger; `None` selects a 6 µm default (wide
    /// enough for the bus vias).
    pub w: Option<Coord>,
    /// Channel length; `None` selects the minimum.
    pub l: Option<Coord>,
    /// Gate net name.
    pub g_net: String,
    /// Source net name.
    pub s_net: String,
    /// Drain net name.
    pub d_net: String,
    /// Draw implant (and well for PMOS).
    pub implants: bool,
}

impl InterdigitParams {
    /// `fingers` fingers with default nets `g`/`s`/`d`.
    pub fn new(mos: MosType, fingers: usize) -> InterdigitParams {
        InterdigitParams {
            mos,
            fingers,
            w: None,
            l: None,
            g_net: "g".into(),
            s_net: "s".into(),
            d_net: "d".into(),
            implants: true,
        }
    }

    /// Sets the per-finger channel width.
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

    /// Renames the terminals.
    #[must_use]
    pub fn with_nets(mut self, g: &str, s: &str, d: &str) -> Self {
        self.g_net = g.into();
        self.s_net = s.into();
        self.d_net = d.into();
        self
    }
}

/// Internal: builds one bare gate finger (poly stripe + diffusion band
/// segment, no contacts).
fn gate_unit(
    tech: &GenCtx,
    mos: MosType,
    w: Coord,
    l: Option<Coord>,
    g_net: &str,
) -> Result<LayoutObject, ModgenError> {
    let prim = Primitives::new(tech);
    let poly = tech.poly()?;
    let diff = mos.diff(tech)?;
    let mut obj = LayoutObject::new("gate");
    let (gi, _) = prim.two_rects(&mut obj, poly, diff, Some(w), l)?;
    let id = obj.net(g_net);
    obj.shapes_mut()[gi].net = Some(id);
    Ok(obj)
}

/// Generates the inter-digitated transistor.
///
/// Ports: the gate (`g_net`, on the poly contact row), the source bus and
/// the drain bus (`s_net`/`d_net`, on metal2).
pub fn interdigitated(
    tech: &GenCtx,
    params: &InterdigitParams,
) -> Result<LayoutObject, ModgenError> {
    let key = crate::cached::module_key(tech, "interdigitated", |k| {
        k.push(crate::cached::mos_code(params.mos));
        k.push(params.fingers);
        k.push(params.w);
        k.push(params.l);
        k.push(params.g_net.clone());
        k.push(params.s_net.clone());
        k.push(params.d_net.clone());
        k.push(params.implants);
    });
    tech.generate_cached(Stage::Modgen, key, || interdigitated_uncached(tech, params))
}

fn interdigitated_uncached(
    tech: &GenCtx,
    params: &InterdigitParams,
) -> Result<LayoutObject, ModgenError> {
    let _stage = tech.stage(Stage::Modgen, || "interdigitated");
    tech.checkpoint(Stage::Modgen)?;
    tech.fault_check(FaultSite::ModgenEntry, "interdigitated")?;
    if params.fingers == 0 {
        return Err(ModgenError::BadParam {
            param: "fingers",
            message: "must be at least 1".into(),
        });
    }
    let c = Compactor::new(tech);
    let prim = Primitives::new(tech);
    let router = Router::new(tech);
    let poly = tech.poly()?;
    let diff = params.mos.diff(tech)?;
    let m1 = tech.metal1()?;
    let m2 = tech.metal2()?;
    let via = tech.via1()?;
    let w = params.w.unwrap_or(6_000).max(4_000);

    let mut main = LayoutObject::new("interdigit");
    let opts = CompactOptions::new().ignoring(diff);

    // Alternating row/gate chain: S g D g S g D ...
    let row = |net: &str| -> Result<LayoutObject, ModgenError> {
        contact_row(tech, diff, &ContactRowParams::new().with_l(w).with_net(net))
    };
    let mut row_centers: Vec<(String, Coord)> = Vec::new();
    let seed = row(&params.s_net)?;
    c.compact(&mut main, &seed, Dir::West, &opts)?;
    row_centers.push((params.s_net.clone(), main.bbox_on(m1).center().x));
    for i in 0..params.fingers {
        let g = gate_unit(tech, params.mos, w, params.l, &params.g_net)?;
        c.compact(&mut main, &g, Dir::East, &opts)?;
        let net = if i % 2 == 0 {
            &params.d_net
        } else {
            &params.s_net
        };
        let r = row(net)?;
        let before = main.bbox().x1;
        c.compact(&mut main, &r, Dir::East, &opts)?;
        let after = main.bbox().x1;
        row_centers.push((net.clone(), (before + after) / 2));
    }

    // Gate strap: a poly bar across the top, merging with every finger.
    let strap_w = tech.min_width(poly);
    let gate_top = main.bbox_on(poly).y1;
    let span = main.bbox_on(poly);
    let strap = Rect::new(span.x0, gate_top, span.x1, gate_top + strap_w);
    let g_id = main.net(&params.g_net);
    main.push(Shape::new(poly, strap).with_net(g_id));

    // Gate contact row on the strap (west end).
    let polycon = contact_row(tech, poly, &ContactRowParams::new().with_net(&params.g_net))?;
    let mut polycon = polycon;
    let pbox = polycon.bbox();
    polycon.translate(amgen_geom::Vector::new(
        span.x0 - pbox.x0,
        strap.y1 - pbox.y0,
    ));
    main.absorb(&polycon, amgen_geom::Vector::ZERO);

    // Buses in metal2: the source bus below the device (risers drop), the
    // drain bus above the poly contact (risers rise) — same-layer risers
    // never cross a foreign bus.
    let bus_w = (tech.min_width(m2)).max(2_000);
    let bus_span = main.bbox();
    let s_bus_y1 = bus_span.y0 - 2_000;
    let d_bus_y0 = bus_span.y1 + 2_000;
    let s_id = main.net(&params.s_net);
    let d_id = main.net(&params.d_net);
    let s_bus = Rect::new(bus_span.x0, s_bus_y1 - bus_w, bus_span.x1, s_bus_y1);
    let d_bus = Rect::new(bus_span.x0, d_bus_y0, bus_span.x1, d_bus_y0 + bus_w);
    main.push(Shape::new(m2, s_bus).with_net(s_id));
    main.push(Shape::new(m2, d_bus).with_net(d_id));
    // Vias and vertical metal2 risers from every row to its bus.
    let wire_w = tech.min_width(m2);
    for (net, x) in &row_centers {
        let id = main.net(net);
        let via_at = Point::new(*x, w / 2);
        router.via_stack(&mut main, via, m1, m2, via_at, Some(id))?;
        let riser = if net == &params.s_net {
            Rect::new(x - wire_w / 2, s_bus.y0, x - wire_w / 2 + wire_w, via_at.y)
        } else {
            Rect::new(x - wire_w / 2, via_at.y, x - wire_w / 2 + wire_w, d_bus.y1)
        };
        main.push(Shape::new(m2, riser).with_net(id));
    }
    main.push_port(Port {
        name: params.s_net.clone(),
        layer: m2,
        rect: s_bus,
        net: Some(s_id),
    });
    main.push_port(Port {
        name: params.d_net.clone(),
        layer: m2,
        rect: d_bus,
        net: Some(d_id),
    });

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

    fn module(t: &GenCtx, fingers: usize) -> LayoutObject {
        interdigitated(
            t,
            &InterdigitParams::new(MosType::N, fingers)
                .with_w(um(8))
                .with_l(um(1)),
        )
        .unwrap()
    }

    #[test]
    fn zero_fingers_is_rejected() {
        assert!(matches!(
            interdigitated(&tech(), &InterdigitParams::new(MosType::N, 0)),
            Err(ModgenError::BadParam {
                param: "fingers",
                ..
            })
        ));
    }

    #[test]
    fn finger_count_matches() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let m = module(&t, 4);
        // 4 gate stripes + 1 strap + 1 polycon base = 6 poly shapes
        // minimum; count the vertical gate stripes (taller than wide).
        let poly = t.layer("poly")?;
        let stripes = m
            .shapes_on(poly)
            .filter(|s| s.rect.height() > s.rect.width())
            .count();
        assert_eq!(stripes, 4);
        Ok(())
    }

    #[test]
    fn terminals_form_exactly_three_declared_nets() {
        let t = tech();
        let m = module(&t, 3);
        let nets = Extractor::new(&t).connectivity(&m);
        // g, s, d declared; the diffusion band joins s and d geometrically
        // (one silicon strip), so accept s/d sharing a component but never
        // with g.
        for n in &nets {
            assert!(
                !n.declared.iter().any(|x| x == "g") || n.declared.len() == 1,
                "gate shorted: {:?}",
                n.declared
            );
        }
        // The gate component exists and is unique.
        let g_comps: Vec<_> = nets
            .iter()
            .filter(|n| n.declared.iter().any(|x| x == "g"))
            .collect();
        assert_eq!(g_comps.len(), 1, "all fingers share one gate node");
    }

    #[test]
    fn buses_are_ports() -> Result<(), Box<dyn std::error::Error>> {
        let m = module(&tech(), 3);
        assert!(m.port("s").is_some());
        assert!(m.port("d").is_some());
        let s = m.port("s").ok_or("missing port s")?.rect;
        let d = m.port("d").ok_or("missing port d")?.rect;
        assert!(!s.overlaps(&d));
        Ok(())
    }

    #[test]
    fn spacing_clean() {
        let t = tech();
        let m = module(&t, 4);
        let v = Drc::new(&t).check_spacing(&m);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn more_fingers_make_a_wider_module() {
        let t = tech();
        let a = module(&t, 2);
        let b = module(&t, 6);
        assert!(b.bbox().width() > a.bbox().width());
        // Same height order of magnitude (that is the point of folding).
        assert!(b.bbox().height() < a.bbox().height() * 2);
    }

    #[test]
    fn row_nets_alternate() {
        let t = tech();
        let m = module(&t, 2);
        // 3 rows: s, d, s.
        let nets = Extractor::new(&t).connectivity(&m);
        let d_members: usize = nets
            .iter()
            .filter(|n| n.declared.iter().any(|x| x == "d"))
            .map(|n| n.shapes.len())
            .sum();
        assert!(d_members > 0);
    }
}
