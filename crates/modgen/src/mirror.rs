//! The symmetric current mirror (block B of the paper's §3).
//!
//! *"Only moderate matching requirements has been specified for the
//! current mirror of block B. Therefore a symmetrical layout module is
//! chosen with the diode transistor in the middle."*
//!
//! Row plan for `ratio = n` (output/input current ratio n:1 built from
//! unit fingers): `S out S ... in ... S out S` — the diode-connected
//! device sits in the middle, `n` output fingers flank it on each side.

use amgen_compact::{CompactOptions, Compactor};
use amgen_core::{FaultSite, GenCtx, Stage};
use amgen_db::{LayoutObject, Port, Shape};
use amgen_geom::{Coord, Dir, Point, Rect};
use amgen_prim::Primitives;
use amgen_route::Router;

use crate::contact_row::{contact_row, ContactRowParams};
use crate::error::ModgenError;
use crate::mos::MosType;

/// Parameters of the current mirror.
#[derive(Debug, Clone)]
pub struct MirrorParams {
    /// Polarity.
    pub mos: MosType,
    /// Output fingers on **each** side of the diode (mirror ratio =
    /// `2 * side_fingers : 1` for equal finger sizes).
    pub side_fingers: usize,
    /// Channel width per finger; `None` selects 6 µm.
    pub w: Option<Coord>,
    /// Channel length; `None` selects the minimum.
    pub l: Option<Coord>,
}

impl MirrorParams {
    /// One output finger per side (2:1 mirror).
    pub fn new(mos: MosType) -> MirrorParams {
        MirrorParams {
            mos,
            side_fingers: 1,
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

    /// Sets the channel length.
    #[must_use]
    pub fn with_l(mut self, l: Coord) -> Self {
        self.l = Some(l);
        self
    }

    /// Sets the output fingers per side.
    #[must_use]
    pub fn with_side_fingers(mut self, n: usize) -> Self {
        self.side_fingers = n;
        self
    }
}

/// Generates the symmetric current mirror. All gates share the `in` net
/// (the diode connection ties the middle drain to the gates). Ports:
/// `in`, `out`, `s`.
pub fn current_mirror(tech: &GenCtx, params: &MirrorParams) -> Result<LayoutObject, ModgenError> {
    let key = crate::cached::module_key(tech, "current_mirror", |k| {
        k.push(crate::cached::mos_code(params.mos));
        k.push(params.side_fingers);
        k.push(params.w);
        k.push(params.l);
    });
    tech.generate_cached(Stage::Modgen, key, || current_mirror_uncached(tech, params))
}

fn current_mirror_uncached(
    tech: &GenCtx,
    params: &MirrorParams,
) -> Result<LayoutObject, ModgenError> {
    let _stage = tech.stage(Stage::Modgen, || "current_mirror");
    tech.checkpoint(Stage::Modgen)?;
    tech.fault_check(FaultSite::ModgenEntry, "current_mirror")?;
    if params.side_fingers == 0 {
        return Err(ModgenError::BadParam {
            param: "side_fingers",
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

    let mut main = LayoutObject::new("current_mirror");
    let opts = CompactOptions::new().ignoring(diff);

    // Gate finger (all gates on net "in": the mirror's input node).
    let gate = |_tech: &GenCtx| -> Result<LayoutObject, ModgenError> {
        let mut obj = LayoutObject::new("gate");
        let (gi, _) = prim.two_rects(&mut obj, poly, diff, Some(w), params.l)?;
        let id = obj.net("in");
        obj.shapes_mut()[gi].net = Some(id);
        Ok(obj)
    };
    let row = |tech: &GenCtx, net: &str| -> Result<LayoutObject, ModgenError> {
        contact_row(tech, diff, &ContactRowParams::new().with_l(w).with_net(net))
    };

    // Drain-sharing finger pairs separated by source rows:
    // `S [g OUT g] S ... S [g IN g] S ... S [g OUT g] S`
    // with `side_fingers` out-pairs on each side of the diode pair.
    let n = params.side_fingers;
    let mut drain_plan: Vec<&str> = Vec::new();
    drain_plan.extend(std::iter::repeat_n("out", n));
    drain_plan.push("in");
    drain_plan.extend(std::iter::repeat_n("out", n));
    let mut row_centers: Vec<(String, Coord)> = Vec::new();
    let seed = row(tech, "s")?;
    c.compact(&mut main, &seed, Dir::West, &opts)?;
    row_centers.push(("s".to_string(), main.bbox_on(m1).center().x));
    for drain_net in drain_plan {
        for half in 0..2 {
            let g = gate(tech)?;
            c.compact(&mut main, &g, Dir::East, &opts)?;
            let net = if half == 0 { drain_net } else { "s" };
            let r = row(tech, net)?;
            let x0 = main.bbox().x1;
            c.compact(&mut main, &r, Dir::East, &opts)?;
            let x1 = main.bbox().x1;
            row_centers.push((net.to_string(), (x0 + x1) / 2));
        }
    }

    // Gate strap + contact row (net "in") on top.
    let strap_w = tech.min_width(poly);
    let gate_top = main.bbox_on(poly).y1;
    let span = main.bbox_on(poly);
    let in_id = main.net("in");
    let strap = Rect::new(span.x0, gate_top, span.x1, gate_top + strap_w);
    main.push(Shape::new(poly, strap).with_net(in_id));
    let mut pc = contact_row(tech, poly, &ContactRowParams::new().with_net("in"))?;
    let pb = pc.bbox();
    pc.translate(amgen_geom::Vector::new(
        main.bbox().center().x - pb.center().x,
        strap.y1 - pb.y0,
    ));
    let pc_rect = pc.bbox_on(m1);
    main.absorb(&pc, amgen_geom::Vector::ZERO);

    // Buses: source below (risers drop), output above (risers rise); the
    // "in" drain row is tied to the gate contact with a metal1 riser (the
    // diode connection).
    let bus_w = tech.min_width(m2).max(2_000);
    let bspan = main.bbox();
    let s_bus = Rect::new(
        bspan.x0,
        bspan.y0 - 2_000 - bus_w,
        bspan.x1,
        bspan.y0 - 2_000,
    );
    let out_bus = Rect::new(
        bspan.x0,
        bspan.y1 + 2_000,
        bspan.x1,
        bspan.y1 + 2_000 + bus_w,
    );
    let s_id = main.net("s");
    let out_id = main.net("out");
    main.push(Shape::new(m2, s_bus).with_net(s_id));
    main.push(Shape::new(m2, out_bus).with_net(out_id));
    let wire_w = tech.min_width(m2);
    for (net, x) in &row_centers {
        if net == "in" {
            continue;
        }
        let id = main.net(net);
        router.via_stack(&mut main, via, m1, m2, Point::new(*x, w / 2), Some(id))?;
        let riser = if net == "s" {
            Rect::new(x - wire_w / 2, s_bus.y0, x - wire_w / 2 + wire_w, w / 2)
        } else {
            Rect::new(x - wire_w / 2, w / 2, x - wire_w / 2 + wire_w, out_bus.y1)
        };
        main.push(Shape::new(m2, riser).with_net(id));
    }
    // Diode connection: a metal1 riser from the middle drain row up to
    // the gate contact row, plus a horizontal jog when their x positions
    // differ.
    let (_, in_x) = row_centers.iter().find(|(n, _)| n == "in").ok_or_else(|| {
        ModgenError::Route("current_mirror: middle `in` drain row missing".into())
    })?;
    let m1_w = tech.min_width(m1);
    let diode = Rect::new(in_x - m1_w / 2, w / 2, in_x - m1_w / 2 + m1_w, pc_rect.y1);
    main.push(Shape::new(m1, diode).with_net(in_id));
    if !diode.overlaps(&pc_rect) {
        let cy = pc_rect.center().y;
        let jog = Rect::new(
            diode.x0.min(pc_rect.x0),
            cy - m1_w / 2,
            diode.x1.max(pc_rect.x1),
            cy - m1_w / 2 + m1_w,
        );
        main.push(Shape::new(m1, jog).with_net(in_id));
    }

    main.push_port(Port {
        name: "s".into(),
        layer: m2,
        rect: s_bus,
        net: Some(s_id),
    });
    main.push_port(Port {
        name: "out".into(),
        layer: m2,
        rect: out_bus,
        net: Some(out_id),
    });

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

    fn mirror(t: &GenCtx) -> LayoutObject {
        current_mirror(
            t,
            &MirrorParams::new(MosType::N).with_w(um(6)).with_l(um(1)),
        )
        .unwrap()
    }

    #[test]
    fn diode_sits_in_the_middle() {
        let t = tech();
        let m = mirror(&t);
        // The "in" drain row is within one row pitch of the module centre.
        let nets = Extractor::new(&t).connectivity(&m);
        let in_comp = nets
            .iter()
            .find(|n| n.declared.iter().any(|x| x == "in"))
            .expect("in net extracted");
        let xs: Vec<i64> = in_comp
            .shapes
            .iter()
            .map(|&i| m.shapes()[i].rect.center().x)
            .collect();
        let cx = m.bbox().center().x;
        assert!(
            xs.iter().any(|&x| (x - cx).abs() < um(6)),
            "diode geometry near the centre"
        );
    }

    #[test]
    fn diode_connection_ties_gate_to_middle_drain() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let m = mirror(&t);
        // The extracted "in" component contains both poly (gates) and
        // diffusion (the middle drain row) shapes.
        let nets = Extractor::new(&t).connectivity(&m);
        let in_comp = nets
            .iter()
            .find(|n| n.declared.iter().any(|x| x == "in"))
            .ok_or("no net `in`")?;
        let poly = t.layer("poly")?;
        let diff = t.layer("ndiff")?;
        let has_poly = in_comp.shapes.iter().any(|&i| m.shapes()[i].layer == poly);
        let has_diff = in_comp.shapes.iter().any(|&i| m.shapes()[i].layer == diff);
        assert!(has_poly && has_diff, "diode-connected");
        Ok(())
    }

    #[test]
    fn out_and_s_are_separate_nets() {
        let t = tech();
        let m = mirror(&t);
        for n in Extractor::new(&t).connectivity(&m) {
            let has_out = n.declared.iter().any(|x| x == "out");
            let has_s = n.declared.iter().any(|x| x == "s");
            let has_in = n.declared.iter().any(|x| x == "in");
            assert!(!(has_out && has_s), "{:?}", n.declared);
            assert!(!(has_out && has_in), "{:?}", n.declared);
        }
    }

    #[test]
    fn layout_is_left_right_symmetric_in_finger_count() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let m = mirror(&t);
        let poly = t.layer("poly")?;
        let cx = m.bbox().center().x;
        let stripes: Vec<i64> = m
            .shapes_on(poly)
            .filter(|s| s.rect.height() > 3 * s.rect.width())
            .map(|s| s.rect.center().x)
            .collect();
        let left = stripes.iter().filter(|&&x| x < cx).count();
        let right = stripes.iter().filter(|&&x| x > cx).count();
        assert_eq!(left, right, "equal fingers on both sides of the diode");
        Ok(())
    }

    #[test]
    fn spacing_clean() {
        let t = tech();
        let m = mirror(&t);
        let v = Drc::new(&t).check_spacing(&m);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn zero_side_fingers_rejected() {
        assert!(matches!(
            current_mirror(&tech(), &MirrorParams::new(MosType::N).with_side_fingers(0)),
            Err(ModgenError::BadParam { .. })
        ));
    }

    #[test]
    fn bigger_ratio_builds_more_fingers() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let a = mirror(&t);
        let b = current_mirror(
            &t,
            &MirrorParams::new(MosType::N)
                .with_w(um(6))
                .with_l(um(1))
                .with_side_fingers(2),
        )?;
        assert!(b.bbox().width() > a.bbox().width());
        Ok(())
    }
}
