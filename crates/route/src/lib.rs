//! Internal module wiring.
//!
//! *"Several routing routines support the internal wiring of the
//! modules."* The paper's showcase is the differential pair of Fig. 10,
//! whose *"wiring is fully symmetrical and every net has identical
//! crossings"*.
//!
//! This crate provides the wiring routines the module generators use:
//!
//! * [`Router::straight`] — connect two landings whose projections
//!   overlap with one wire,
//! * [`Router::l_route`] — a horizontal + vertical dogleg with the angle
//!   adaptor of §2.2 patching the corner,
//! * [`Router::z_route`] — a three-segment jog,
//! * [`Router::via_stack`] — a cut with both landing pads, rule-sized,
//! * [`Router::route_mirrored`] — instantiate a path and its mirror image
//!   about a symmetry axis (matched-pair wiring),
//! * [`Router::crossing_counts`] — the per-net crossing audit used to
//!   verify the "identical crossings" property.

use amgen_core::{FaultSite, GenCtx, GenError, Stage};
use amgen_db::{LayoutObject, NetId, Shape};
use amgen_geom::{Coord, Point, Rect};
use amgen_prim::Primitives;
use amgen_tech::{Layer, LayerKind, RuleSet};

/// Errors from the wiring routines.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RouteError {
    /// Budget exhaustion, cancellation or an injected fault, from the
    /// shared generation context.
    Gen(GenError),
    /// The two landings share no projection overlap; a straight wire
    /// cannot connect them.
    NoOverlap,
    /// A route was requested on a non-conductor layer.
    NotAConductor(String),
    /// The via stack's cut layer does not connect the two given layers.
    NotConnectable {
        /// Cut layer name.
        cut: String,
        /// First conductor.
        a: String,
        /// Second conductor.
        b: String,
    },
    /// Underlying primitive failure (corner patch etc.).
    Prim(String),
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::Gen(e) => write!(f, "{e}"),
            RouteError::NoOverlap => {
                write!(
                    f,
                    "landings share no projection overlap for a straight wire"
                )
            }
            RouteError::NotAConductor(l) => write!(f, "layer `{l}` is not a conductor"),
            RouteError::NotConnectable { cut, a, b } => {
                write!(f, "cut `{cut}` does not connect `{a}` and `{b}`")
            }
            RouteError::Prim(m) => write!(f, "primitive failure: {m}"),
        }
    }
}

impl std::error::Error for RouteError {}

impl From<GenError> for RouteError {
    fn from(e: GenError) -> RouteError {
        RouteError::Gen(e)
    }
}

impl From<RouteError> for GenError {
    /// Unifies routing failures under the `amgen-core` error: typed
    /// robustness errors pass through, stage-specific ones are wrapped
    /// with [`Stage::Route`] context.
    fn from(e: RouteError) -> GenError {
        match e {
            RouteError::Gen(g) => g,
            other => GenError::stage_msg(Stage::Route, other.to_string()),
        }
    }
}

/// The wiring routines, bound to one generation context.
#[derive(Debug, Clone)]
pub struct Router {
    ctx: GenCtx,
}

impl Router {
    /// Binds the router to a generation context.
    pub fn new(ctx: &GenCtx) -> Router {
        Router { ctx: ctx.clone() }
    }

    /// The shared generation context.
    pub fn ctx(&self) -> &GenCtx {
        &self.ctx
    }

    /// The compiled rule kernel.
    pub fn rules(&self) -> &RuleSet {
        &self.ctx
    }

    /// Robustness probe shared by the public routines: cancellation /
    /// deadline checkpoint plus the route-call fault-injection site.
    fn probe(&self, routine: &'static str) -> Result<(), RouteError> {
        self.ctx.checkpoint(Stage::Route)?;
        self.ctx.fault_check(FaultSite::RouteCall, routine)?;
        Ok(())
    }

    fn conductor(&self, layer: Layer) -> Result<(), RouteError> {
        if self.ctx.kind(layer).is_conductor() {
            Ok(())
        } else {
            Err(RouteError::NotAConductor(
                self.ctx.layer_name(layer).to_string(),
            ))
        }
    }

    fn wire_width(&self, layer: Layer, width: Option<Coord>) -> Coord {
        width
            .unwrap_or_else(|| self.ctx.min_width(layer))
            .max(self.ctx.min_width(layer))
    }

    /// Connects two landings with one straight wire on `layer`.
    ///
    /// If the x-projections overlap by at least the wire width, a vertical
    /// wire is drawn through the overlap; otherwise, if the y-projections
    /// do, a horizontal wire. Returns the wire's shape index.
    pub fn straight(
        &self,
        obj: &mut LayoutObject,
        layer: Layer,
        from: Rect,
        to: Rect,
        width: Option<Coord>,
        net: Option<NetId>,
    ) -> Result<usize, RouteError> {
        self.probe("straight")?;
        let _stage = self.ctx.stage(Stage::Route, || "straight");
        self.conductor(layer)?;
        let w = self.wire_width(layer, width);
        let xo = from.x_range().intersection(&to.x_range());
        let yo = from.y_range().intersection(&to.y_range());
        let rect = if let Some(x) = xo.filter(|x| x.len() >= w) {
            let cx = x.lo + x.len() / 2;
            let y0 = from.y1.min(to.y1).min(from.y0.min(to.y0));
            let y1 = from.y1.max(to.y1).max(from.y0.max(to.y0));
            Rect::new(cx - w / 2, y0, cx - w / 2 + w, y1)
        } else if let Some(y) = yo.filter(|y| y.len() >= w) {
            let cy = y.lo + y.len() / 2;
            let x0 = from.x0.min(to.x0);
            let x1 = from.x1.max(to.x1);
            Rect::new(x0, cy - w / 2, x1, cy - w / 2 + w)
        } else {
            return Err(RouteError::NoOverlap);
        };
        let mut s = Shape::new(layer, rect);
        if let Some(n) = net {
            s = s.with_net(n);
        }
        Ok(obj.push(s))
    }

    /// Routes an L from point `a` to point `b`: a horizontal segment at
    /// `a.y`, then a vertical segment at `b.x`, with an angle adaptor on
    /// the corner. Returns the three shape indices (h, v, corner).
    pub fn l_route(
        &self,
        obj: &mut LayoutObject,
        layer: Layer,
        a: Point,
        b: Point,
        width: Option<Coord>,
        net: Option<NetId>,
    ) -> Result<[usize; 3], RouteError> {
        self.probe("l_route")?;
        let _stage = self.ctx.stage(Stage::Route, || "l_route");
        self.conductor(layer)?;
        let w = self.wire_width(layer, width);
        let h = Rect::new(a.x.min(b.x), a.y - w / 2, a.x.max(b.x), a.y - w / 2 + w);
        let v = Rect::new(b.x - w / 2, a.y.min(b.y), b.x - w / 2 + w, a.y.max(b.y));
        let prim = Primitives::new(&self.ctx);
        let hi = obj.push(with_net(Shape::new(layer, h), net));
        let vi = obj.push(with_net(Shape::new(layer, v), net));
        let ci = prim
            .angle_adaptor(obj, layer, h, v, net)
            .map_err(|e| RouteError::Prim(e.to_string()))?;
        Ok([hi, vi, ci])
    }

    /// Routes a Z: horizontal at `a.y` to `mid_x`, vertical to `b.y`,
    /// horizontal to `b.x`. Returns the shape indices (3 wires and 2
    /// corners).
    #[allow(clippy::too_many_arguments)]
    pub fn z_route(
        &self,
        obj: &mut LayoutObject,
        layer: Layer,
        a: Point,
        b: Point,
        mid_x: Coord,
        width: Option<Coord>,
        net: Option<NetId>,
    ) -> Result<Vec<usize>, RouteError> {
        self.probe("z_route")?;
        let _stage = self.ctx.stage(Stage::Route, || "z_route");
        self.conductor(layer)?;
        let w = self.wire_width(layer, width);
        let h1 = Rect::new(a.x.min(mid_x), a.y - w / 2, a.x.max(mid_x), a.y - w / 2 + w);
        let v = Rect::new(mid_x - w / 2, a.y.min(b.y), mid_x - w / 2 + w, a.y.max(b.y));
        let h2 = Rect::new(mid_x.min(b.x), b.y - w / 2, mid_x.max(b.x), b.y - w / 2 + w);
        let prim = Primitives::new(&self.ctx);
        let mut out = vec![
            obj.push(with_net(Shape::new(layer, h1), net)),
            obj.push(with_net(Shape::new(layer, v), net)),
            obj.push(with_net(Shape::new(layer, h2), net)),
        ];
        out.push(
            prim.angle_adaptor(obj, layer, h1, v, net)
                .map_err(|e| RouteError::Prim(e.to_string()))?,
        );
        out.push(
            prim.angle_adaptor(obj, layer, h2, v, net)
                .map_err(|e| RouteError::Prim(e.to_string()))?,
        );
        Ok(out)
    }

    /// Places a via stack centred at `at`: the cut plus rule-sized landing
    /// pads on both conductor layers. Returns (pad_a, cut, pad_b) indices.
    pub fn via_stack(
        &self,
        obj: &mut LayoutObject,
        cut: Layer,
        a: Layer,
        b: Layer,
        at: Point,
        net: Option<NetId>,
    ) -> Result<[usize; 3], RouteError> {
        self.probe("via_stack")?;
        let _stage = self.ctx.stage(Stage::Route, || "via_stack");
        if self.ctx.kind(cut) != LayerKind::Cut || !self.ctx.connects(cut, a, b) {
            return Err(RouteError::NotConnectable {
                cut: self.ctx.layer_name(cut).to_string(),
                a: self.ctx.layer_name(a).to_string(),
                b: self.ctx.layer_name(b).to_string(),
            });
        }
        let cs = self
            .ctx
            .cut_size(cut)
            .map_err(|e| RouteError::Prim(e.to_string()))?;
        let cut_rect = Rect::centered_at(at, cs, cs);
        let pad = |layer: Layer| -> Rect {
            let e = self.ctx.enclosure(layer, cut);
            let side = (cs + 2 * e).max(self.ctx.min_width(layer));
            Rect::centered_at(at, side, side)
        };
        let ia = obj.push(with_net(Shape::new(a, pad(a)), net));
        let ic = obj.push(with_net(Shape::new(cut, cut_rect), net));
        let ib = obj.push(with_net(Shape::new(b, pad(b)), net));
        Ok([ia, ic, ib])
    }

    /// Builds a vertical **underpass**: the wire dives from `upper` down
    /// through a via to `lower`, runs on `lower` from `y_from` to `y_to`
    /// at column `x`, and rises back through a second via — the structure
    /// that lets a riser cross a same-layer bus (each crossing the paper
    /// counts is exactly one such layer change). Returns the shape count
    /// added.
    #[allow(clippy::too_many_arguments)]
    pub fn underpass_v(
        &self,
        obj: &mut LayoutObject,
        cut: Layer,
        lower: Layer,
        upper: Layer,
        x: Coord,
        y_from: Coord,
        y_to: Coord,
        net: Option<NetId>,
    ) -> Result<usize, RouteError> {
        self.probe("underpass_v")?;
        let _span = self.ctx.span(Stage::Route, || "underpass_v");
        let before = obj.len();
        self.via_stack(obj, cut, lower, upper, Point::new(x, y_from), net)?;
        self.via_stack(obj, cut, lower, upper, Point::new(x, y_to), net)?;
        let w = self.ctx.min_width(lower);
        let rect = Rect::new(x - w / 2, y_from.min(y_to), x - w / 2 + w, y_from.max(y_to));
        obj.push(with_net(Shape::new(lower, rect), net));
        Ok(obj.len() - before)
    }

    /// Instantiates a wire path and its mirror image about the vertical
    /// line `x = axis_x` — the matched-pair wiring of Fig. 10. The left
    /// copy carries `net_l`, the right copy `net_r`. Returns the number of
    /// shapes added per side.
    pub fn route_mirrored(
        &self,
        obj: &mut LayoutObject,
        layer: Layer,
        path: &[Rect],
        axis_x: Coord,
        net_l: NetId,
        net_r: NetId,
    ) -> Result<usize, RouteError> {
        self.probe("route_mirrored")?;
        let _span = self.ctx.span(Stage::Route, || "route_mirrored");
        self.conductor(layer)?;
        for &r in path {
            obj.push(Shape::new(layer, r).with_net(net_l));
        }
        for &r in path {
            let m = Rect::new(2 * axis_x - r.x1, r.y0, 2 * axis_x - r.x0, r.y1);
            obj.push(Shape::new(layer, m).with_net(net_r));
        }
        Ok(path.len())
    }

    /// Verifies mirror symmetry of a matched net pair about the vertical
    /// line `x = axis_x`: every shape on `net_a` must have an exact
    /// mirrored twin on `net_b` (same layer), and vice versa. Returns the
    /// offending rectangles (empty = fully symmetric) — the audit behind
    /// the paper's *"the wiring is fully symmetrical"*.
    pub fn check_mirror_pairs(
        &self,
        obj: &LayoutObject,
        axis_x: Coord,
        net_a: &str,
        net_b: &str,
    ) -> Vec<Rect> {
        let (Some(a), Some(b)) = (obj.find_net(net_a), obj.find_net(net_b)) else {
            return Vec::new();
        };
        let on = |net| -> Vec<(Layer, Rect)> {
            obj.shapes()
                .iter()
                .filter(|s| s.net == Some(net))
                .map(|s| (s.layer, s.rect))
                .collect()
        };
        let sa = on(a);
        let sb = on(b);
        let mirror = |r: &Rect| Rect::new(2 * axis_x - r.x1, r.y0, 2 * axis_x - r.x0, r.y1);
        let mut bad = Vec::new();
        for (layer, r) in &sa {
            let m = mirror(r);
            if !sb.iter().any(|(l2, r2)| l2 == layer && *r2 == m) {
                bad.push(*r);
            }
        }
        for (layer, r) in &sb {
            let m = mirror(r);
            if !sa.iter().any(|(l2, r2)| l2 == layer && *r2 == m) {
                bad.push(*r);
            }
        }
        bad
    }

    /// Counts, for every declared net, how many times its wires cross
    /// wires of *other* nets on *different* conductor layers (rectangle
    /// overlap on distinct conductor layers = one crossing). This is the
    /// audit behind the paper's *"every net has identical crossings"*.
    pub fn crossing_counts(&self, obj: &LayoutObject) -> Vec<(String, usize)> {
        let shapes = obj.shapes();
        let mut counts: std::collections::BTreeMap<String, usize> = Default::default();
        for name in obj.net_names() {
            counts.insert(name.clone(), 0);
        }
        for (i, a) in shapes.iter().enumerate() {
            for b in &shapes[i + 1..] {
                let (Some(na), Some(nb)) = (a.net, b.net) else {
                    continue;
                };
                if na == nb
                    || a.layer == b.layer
                    || !self.ctx.kind(a.layer).is_conductor()
                    || !self.ctx.kind(b.layer).is_conductor()
                    || !a.rect.overlaps(&b.rect)
                {
                    continue;
                }
                *counts.entry(obj.net_name(na).to_string()).or_default() += 1;
                *counts.entry(obj.net_name(nb).to_string()).or_default() += 1;
            }
        }
        counts.into_iter().collect()
    }
}

fn with_net(s: Shape, net: Option<NetId>) -> Shape {
    match net {
        Some(n) => s.with_net(n),
        None => s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amgen_geom::um;
    use amgen_tech::Tech;

    fn tech() -> GenCtx {
        GenCtx::from_tech(&Tech::bicmos_1u())
    }

    #[test]
    fn straight_vertical_wire_through_x_overlap() {
        let t = tech();
        let r = Router::new(&t);
        let m1 = t.layer("metal1").unwrap();
        let mut obj = LayoutObject::new("w");
        let a = Rect::new(0, 0, um(3), um(1));
        let b = Rect::new(um(1), um(5), um(4), um(6));
        let i = r.straight(&mut obj, m1, a, b, None, None).unwrap();
        let w = obj.shapes()[i].rect;
        assert!(w.width() >= t.min_width(m1));
        assert!(w.overlaps(&a) && w.overlaps(&b));
    }

    #[test]
    fn straight_horizontal_wire_through_y_overlap() {
        let t = tech();
        let r = Router::new(&t);
        let m1 = t.layer("metal1").unwrap();
        let mut obj = LayoutObject::new("w");
        let a = Rect::new(0, 0, um(1), um(3));
        let b = Rect::new(um(5), um(1), um(6), um(4));
        let i = r.straight(&mut obj, m1, a, b, None, None).unwrap();
        let w = obj.shapes()[i].rect;
        assert!(w.height() >= t.min_width(m1));
        assert!(w.overlaps(&a) && w.overlaps(&b));
    }

    #[test]
    fn straight_fails_without_overlap() {
        let t = tech();
        let r = Router::new(&t);
        let m1 = t.layer("metal1").unwrap();
        let mut obj = LayoutObject::new("w");
        let a = Rect::new(0, 0, um(1), um(1));
        let b = Rect::new(um(5), um(5), um(6), um(6));
        assert_eq!(
            r.straight(&mut obj, m1, a, b, None, None),
            Err(RouteError::NoOverlap)
        );
    }

    #[test]
    fn straight_rejects_well_layer() {
        let t = tech();
        let r = Router::new(&t);
        let nwell = t.layer("nwell").unwrap();
        let mut obj = LayoutObject::new("w");
        let a = Rect::new(0, 0, um(3), um(1));
        assert!(matches!(
            r.straight(&mut obj, nwell, a, a, None, None),
            Err(RouteError::NotAConductor(_))
        ));
    }

    #[test]
    fn error_exits_charge_their_stage_time() {
        let t = tech();
        let r = Router::new(&t);
        let contact = t.contact().unwrap();
        let mut obj = LayoutObject::new("w");
        let a = Rect::new(0, 0, um(3), um(1));
        assert!(matches!(
            r.straight(&mut obj, contact, a, a, None, None),
            Err(RouteError::NotAConductor(_))
        ));
        assert!(obj.is_empty());
        assert!(t.snapshot().stage_nanos(Stage::Route) > 0);
    }

    #[test]
    fn l_route_connects_and_patches_corner() {
        let t = tech();
        let r = Router::new(&t);
        let m1 = t.layer("metal1").unwrap();
        let mut obj = LayoutObject::new("w");
        let [h, v, c] = r
            .l_route(
                &mut obj,
                m1,
                Point::new(0, 0),
                Point::new(um(10), um(8)),
                None,
                None,
            )
            .unwrap();
        let (hr, vr, cr) = (
            obj.shapes()[h].rect,
            obj.shapes()[v].rect,
            obj.shapes()[c].rect,
        );
        assert!(cr.overlaps(&hr) || cr.abuts(&hr));
        assert!(cr.overlaps(&vr) || cr.abuts(&vr));
        // The path is electrically continuous.
        let e = amgen_extract::Extractor::new(&t);
        assert_eq!(e.connectivity(&obj).len(), 1);
    }

    #[test]
    fn z_route_is_continuous() {
        let t = tech();
        let r = Router::new(&t);
        let m2 = t.layer("metal2").unwrap();
        let mut obj = LayoutObject::new("w");
        r.z_route(
            &mut obj,
            m2,
            Point::new(0, 0),
            Point::new(um(20), um(10)),
            um(8),
            Some(um(2)),
            None,
        )
        .unwrap();
        let e = amgen_extract::Extractor::new(&t);
        assert_eq!(e.connectivity(&obj).len(), 1);
        // Requested wide wires.
        for s in obj.shapes() {
            assert!(s.rect.width().min(s.rect.height()) >= um(2));
        }
    }

    #[test]
    fn via_stack_connects_the_two_metals() {
        let t = tech();
        let r = Router::new(&t);
        let m1 = t.layer("metal1").unwrap();
        let m2 = t.layer("metal2").unwrap();
        let via = t.layer("via1").unwrap();
        let mut obj = LayoutObject::new("v");
        let [pa, ic, pb] = r
            .via_stack(&mut obj, via, m1, m2, Point::new(um(5), um(5)), None)
            .unwrap();
        let cut = obj.shapes()[ic].rect;
        let enc1 = t.enclosure(m1, via);
        assert!(obj.shapes()[pa].rect.inflated(-enc1).contains_rect(&cut));
        assert!(obj.shapes()[pb].rect.contains_rect(&cut));
        let e = amgen_extract::Extractor::new(&t);
        assert_eq!(e.connectivity(&obj).len(), 1);
    }

    #[test]
    fn via_stack_rejects_wrong_layers() {
        let t = tech();
        let r = Router::new(&t);
        let poly = t.layer("poly").unwrap();
        let m2 = t.layer("metal2").unwrap();
        let via = t.layer("via1").unwrap();
        let mut obj = LayoutObject::new("v");
        assert!(matches!(
            r.via_stack(&mut obj, via, poly, m2, Point::ORIGIN, None),
            Err(RouteError::NotConnectable { .. })
        ));
    }

    #[test]
    fn underpass_is_continuous_and_stays_on_layers() {
        let t = tech();
        let r = Router::new(&t);
        let m1 = t.layer("metal1").unwrap();
        let m2 = t.layer("metal2").unwrap();
        let via = t.layer("via1").unwrap();
        let mut obj = LayoutObject::new("u");
        // Stubs on metal2 at both ends, underpass in between.
        obj.push(Shape::new(m2, Rect::new(um(4), 0, um(6), um(2))));
        obj.push(Shape::new(m2, Rect::new(um(4), um(10), um(6), um(12))));
        r.underpass_v(&mut obj, via, m1, m2, um(5), um(1), um(11), None)
            .unwrap();
        let e = amgen_extract::Extractor::new(&t);
        assert_eq!(e.connectivity(&obj).len(), 1, "ends are connected");
        // The crossing span between the vias is metal1 only.
        let m1_span = obj.bbox_on(m1);
        assert!(m1_span.y0 <= um(1) && m1_span.y1 >= um(11));
    }

    #[test]
    fn mirrored_route_is_geometrically_symmetric() {
        let t = tech();
        let r = Router::new(&t);
        let m1 = t.layer("metal1").unwrap();
        let mut obj = LayoutObject::new("pair");
        let nl = obj.net("out_l");
        let nr = obj.net("out_r");
        let path = [
            Rect::new(0, 0, um(4), um(1)),
            Rect::new(um(3), 0, um(4), um(6)),
        ];
        let axis = um(10);
        r.route_mirrored(&mut obj, m1, &path, axis, nl, nr).unwrap();
        assert_eq!(obj.len(), 4);
        // Every left shape has an exact mirror twin.
        for i in 0..path.len() {
            let l = obj.shapes()[i].rect;
            let rr = obj.shapes()[i + path.len()].rect;
            assert_eq!(rr, Rect::new(2 * axis - l.x1, l.y0, 2 * axis - l.x0, l.y1));
        }
    }

    #[test]
    fn mirror_audit_passes_for_mirrored_routes_and_catches_asymmetry() {
        let t = tech();
        let r = Router::new(&t);
        let m1 = t.layer("metal1").unwrap();
        let mut obj = LayoutObject::new("pair");
        let nl = obj.net("l");
        let nr = obj.net("r");
        let axis = um(10);
        let path = [
            Rect::new(0, 0, um(4), um(1)),
            Rect::new(um(3), 0, um(4), um(6)),
        ];
        r.route_mirrored(&mut obj, m1, &path, axis, nl, nr).unwrap();
        assert!(r.check_mirror_pairs(&obj, axis, "l", "r").is_empty());
        // Break the symmetry: one extra shape on l only.
        obj.push(Shape::new(m1, Rect::new(0, um(8), um(2), um(9))).with_net(nl));
        let bad = r.check_mirror_pairs(&obj, axis, "l", "r");
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0], Rect::new(0, um(8), um(2), um(9)));
    }

    #[test]
    fn crossing_counts_are_identical_for_mirrored_nets() {
        let t = tech();
        let r = Router::new(&t);
        let m1 = t.layer("metal1").unwrap();
        let m2 = t.layer("metal2").unwrap();
        let mut obj = LayoutObject::new("pair");
        let nl = obj.net("l");
        let nr = obj.net("r");
        let nx = obj.net("bus");
        // A metal2 bus crossing the module horizontally.
        obj.push(Shape::new(m2, Rect::new(0, um(2), um(20), um(4))).with_net(nx));
        // Mirrored vertical metal1 wires crossing the bus.
        let path = [Rect::new(um(2), 0, um(3), um(8))];
        r.route_mirrored(&mut obj, m1, &path, um(10), nl, nr)
            .unwrap();
        let counts = r.crossing_counts(&obj);
        let get = |n: &str| counts.iter().find(|(x, _)| x == n).unwrap().1;
        assert_eq!(get("l"), get("r"), "identical crossings per net");
        assert_eq!(get("l"), 1);
        assert_eq!(get("bus"), 2);
    }
}
