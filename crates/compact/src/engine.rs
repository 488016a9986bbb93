//! The constraint scan and placement engine.

use amgen_core::{FaultSite, GenCtx, GenError, Stage};
use amgen_db::{LayoutObject, Shape};
use amgen_geom::{Coord, Dir, Rect, Vector};
use amgen_tech::{LayerKind, RuleSet};

use crate::options::CompactOptions;
use crate::rebuild::rebuild_group;

/// Result of one compaction step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactReport {
    /// Displacement applied to the compacted object.
    pub offset: Vector,
    /// True when a design-rule constraint placed the object; false when
    /// the fallback bounding-box abutment was used (no constraining pair).
    pub rule_bound: bool,
    /// Number of variable edges the compactor moved (Fig. 5b).
    pub shrunk_edges: usize,
    /// Number of groups rebuilt after edge movement.
    pub rebuilt_groups: usize,
    /// Number of auto-connect bridges inserted (Fig. 5a).
    pub bridges: usize,
}

/// Errors from a compaction step.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CompactError {
    /// The object to compact has no shapes.
    EmptyObject,
    /// Budget exhaustion, cancellation or an injected fault, from the
    /// shared generation context.
    Gen(GenError),
}

impl std::fmt::Display for CompactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompactError::EmptyObject => write!(f, "cannot compact an empty object"),
            CompactError::Gen(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompactError {}

impl From<GenError> for CompactError {
    fn from(e: GenError) -> CompactError {
        CompactError::Gen(e)
    }
}

impl From<CompactError> for GenError {
    /// Unifies compaction failures under the `amgen-core` error: typed
    /// robustness errors pass through untouched, stage-specific ones are
    /// wrapped with [`Stage::Compact`] context.
    fn from(e: CompactError) -> GenError {
        match e {
            CompactError::Gen(g) => g,
            other => GenError::stage_msg(Stage::Compact, other.to_string()),
        }
    }
}

/// The successive compactor, bound to one technology.
#[derive(Debug, Clone)]
pub struct Compactor {
    ctx: GenCtx,
}

/// A candidate shrink action on a variable edge.
struct Shrink {
    /// True = shape lives in `main`, false = in the moving object.
    in_main: bool,
    /// Shape index.
    index: usize,
    /// The edge to move (a facing edge of the binding pair).
    edge: Dir,
    /// Furthest coordinate the edge may move to.
    limit: Coord,
}

impl Compactor {
    /// Binds the compactor to a generation context.
    pub fn new(ctx: &GenCtx) -> Compactor {
        Compactor { ctx: ctx.clone() }
    }

    /// The shared generation context.
    pub fn ctx(&self) -> &GenCtx {
        &self.ctx
    }

    /// The compiled rule kernel.
    pub fn rules(&self) -> &RuleSet {
        &self.ctx
    }

    /// Slides `obj` against `main` from attachment side `side` and folds
    /// it in (see the crate docs for the direction convention).
    ///
    /// Into an empty `main` the object is absorbed unmoved — the paper's
    /// *"the first compaction command copies the first transistor into the
    /// data structure"*.
    pub fn compact(
        &self,
        main: &mut LayoutObject,
        obj: &LayoutObject,
        side: Dir,
        opts: &CompactOptions,
    ) -> Result<CompactReport, CompactError> {
        if obj.is_empty() {
            return Err(CompactError::EmptyObject);
        }
        // Robustness checkpoint: one compaction step of budget, the
        // shared cancellation/deadline probe, and the chaos-test hook.
        self.ctx.charge_compact_step()?;
        self.ctx.fault_check(FaultSite::CompactStep, obj.name())?;
        let mut span = self
            .ctx
            .stage_fine(Stage::Compact, || amgen_core::name!("step:{}", obj.name()));
        let bbox_before = if span.is_recording() {
            Some(main.bbox())
        } else {
            None
        };
        if main.is_empty() {
            main.absorb(obj, Vector::ZERO);
            self.ctx.metrics.add_objects_placed(1);
            span.arg("absorbed_first", 1i64);
            return Ok(CompactReport {
                offset: Vector::ZERO,
                rule_bound: false,
                shrunk_edges: 0,
                rebuilt_groups: 0,
                bridges: 0,
            });
        }
        let mut work = obj.clone();
        let mut shrunk_edges = 0usize;
        let mut rebuilt_groups = 0usize;

        // Iterate: find the binding constraint; if a variable facing edge
        // can relax it, move the edge and rebuild, then rescan.
        let mut iters = 0usize;
        let (offset_along, rule_bound) = loop {
            let bounds = self.scan(main, &work, side, opts);
            let Some((best, binding)) = pick_binding(&bounds, side) else {
                break (self.fallback_offset(main, &work, side), false);
            };
            iters += 1;
            if !opts.variable_edges || iters > opts.max_shrink_iters {
                break (best, true);
            }
            // Second-best bound: how far a shrink could usefully go.
            let second = second_bound(&bounds, best, side);
            let mut progressed = false;
            for &(ai, bi) in &binding {
                for shrink in self.shrink_candidates(main, &work, ai, bi, side) {
                    let target_obj: &mut LayoutObject =
                        if shrink.in_main { main } else { &mut work };
                    let s = &mut target_obj.shapes_mut()[shrink.index];
                    let cur = s.rect.edge(shrink.edge);
                    // Move the edge inward by what is needed (to make the
                    // second bound binding) or to its limit.
                    let needed = match second {
                        Some(sec) => (best - sec).abs(),
                        None => Coord::MAX,
                    };
                    let inward = shrink.edge.sign(); // edge retreats opposite its facing
                    let want = cur - inward * needed.min((cur - shrink.limit).abs());
                    let new_pos = clamp_toward(cur, want, shrink.limit, inward);
                    if new_pos == cur {
                        continue;
                    }
                    s.rect = s.rect.with_edge(shrink.edge, new_pos);
                    shrunk_edges += 1;
                    progressed = true;
                    // Rebuild every group containing this shape.
                    let gids: Vec<usize> = target_obj
                        .groups()
                        .iter()
                        .enumerate()
                        .filter(|(_, g)| g.shapes.contains(&shrink.index))
                        .map(|(i, _)| i)
                        .collect();
                    for gid in gids {
                        if rebuild_group(&self.ctx, target_obj, gid) {
                            rebuilt_groups += 1;
                        }
                    }
                }
            }
            if !progressed {
                break (best, true);
            }
        };

        let v = Vector::step_along(side.axis(), offset_along);
        let absorbed_at = main.absorb(&work, v);
        let bridges = self.bridge(main, absorbed_at, side, opts);
        self.ctx.metrics.add_objects_placed(1);
        for _ in 0..rebuilt_groups {
            self.ctx.metrics.add_rebuild();
        }
        if let Some(before) = bbox_before {
            let after = main.bbox();
            span.arg("offset", offset_along);
            span.arg("rule_bound", rule_bound as i64);
            span.arg("shrunk_edges", shrunk_edges);
            span.arg("rebuilt_groups", rebuilt_groups);
            span.arg("bridges", bridges);
            span.arg("bbox_dw", after.width() - before.width());
            span.arg("bbox_dh", after.height() - before.height());
        }
        Ok(CompactReport {
            offset: v,
            rule_bound,
            shrunk_edges,
            rebuilt_groups,
            bridges,
        })
    }

    /// Computes all one-sided bounds between the moving object and the
    /// main structure, together with the contributing pair indices
    /// `(obj_shape, main_shape)`.
    fn scan(
        &self,
        main: &LayoutObject,
        obj: &LayoutObject,
        side: Dir,
        opts: &CompactOptions,
    ) -> Vec<(Coord, usize, usize)> {
        let axis = side.axis();
        let perp = axis.perp();
        let mut out = Vec::new();
        for (ai, a) in obj.shapes().iter().enumerate() {
            for (bi, b) in main.shapes().iter().enumerate() {
                let Some(g) = self.required_gap(a, obj, b, main, opts) else {
                    continue;
                };
                // Perpendicular conflict: projections closer than the gap.
                if a.rect.gap_along(&b.rect, perp) >= g {
                    continue;
                }
                let bound = match side.sign() {
                    1 => b.rect.range(axis).hi + g - a.rect.range(axis).lo,
                    _ => b.rect.range(axis).lo - g - a.rect.range(axis).hi,
                };
                out.push((bound, ai, bi));
            }
        }
        out
    }

    /// The spacing the rules demand between two shapes from different
    /// objects; `None` means the pair imposes no constraint.
    fn required_gap(
        &self,
        a: &Shape,
        a_obj: &LayoutObject,
        b: &Shape,
        b_obj: &LayoutObject,
        opts: &CompactOptions,
    ) -> Option<Coord> {
        // Ignored layers are declared mergeable for this step: pairs
        // *within* them impose nothing (the geometry will be connected),
        // but rules against other layers still hold — a poly contact row
        // compacted with poly "irrelevant" must still respect poly-to-
        // diffusion spacing.
        if opts.is_ignored(a.layer) && opts.is_ignored(b.layer) {
            return None;
        }
        let same_net = match (a.net, b.net) {
            (Some(x), Some(y)) => a_obj.net_name(x) == b_obj.net_name(y),
            _ => false,
        };
        if a.layer == b.layer {
            if same_net {
                // Same potential: stop at touch, then merge (Fig. 5a).
                return Some(0);
            }
            return self
                .ctx
                .min_spacing(a.layer, b.layer)
                .map(|s| s + opts.extra_clearance)
                .or(if a.keepout || b.keepout {
                    Some(0)
                } else {
                    None
                });
        }
        if let Some(s) = self.ctx.min_spacing(a.layer, b.layer) {
            return Some(s + opts.extra_clearance);
        }
        // A cut may not land on a foreign conductor it could short to.
        let cut_vs_conductor = |cut: &Shape, cond: &Shape| {
            self.ctx.kind(cut.layer) == LayerKind::Cut
                && self.ctx.kind(cond.layer).is_conductor()
                && self
                    .ctx
                    .connected_pairs(cut.layer)
                    .iter()
                    .any(|&(x, y)| x == cond.layer || y == cond.layer)
        };
        if cut_vs_conductor(a, b) || cut_vs_conductor(b, a) {
            let cut_layer = if self.ctx.kind(a.layer) == LayerKind::Cut {
                a.layer
            } else {
                b.layer
            };
            let fallback = self.ctx.min_spacing(cut_layer, cut_layer).unwrap_or(0);
            return Some(fallback + opts.extra_clearance);
        }
        if a.keepout || b.keepout {
            return Some(0);
        }
        None
    }

    /// Offset when no rule constrains the object: rest the bounding boxes
    /// against each other on the attachment side.
    fn fallback_offset(&self, main: &LayoutObject, obj: &LayoutObject, side: Dir) -> Coord {
        let axis = side.axis();
        let (mb, ob) = (main.bbox(), obj.bbox());
        match side.sign() {
            1 => mb.range(axis).hi - ob.range(axis).lo,
            _ => mb.range(axis).lo - ob.range(axis).hi,
        }
    }

    /// Shrink candidates for one binding pair: the facing edge on the
    /// main side and the facing edge on the object side, if variable.
    fn shrink_candidates(
        &self,
        main: &LayoutObject,
        obj: &LayoutObject,
        ai: usize,
        bi: usize,
        side: Dir,
    ) -> Vec<Shrink> {
        let mut out = Vec::new();
        // Main-side shape faces the attachment side.
        let b = &main.shapes()[bi];
        if b.edges.is_variable(side) {
            if let Some(limit) = self.shrink_limit(main, bi, side) {
                out.push(Shrink {
                    in_main: true,
                    index: bi,
                    edge: side,
                    limit,
                });
            }
        }
        // Object-side shape faces the opposite way.
        let a = &obj.shapes()[ai];
        let e = side.opposite();
        if a.edges.is_variable(e) {
            if let Some(limit) = self.shrink_limit(obj, ai, e) {
                out.push(Shrink {
                    in_main: false,
                    index: ai,
                    edge: e,
                    limit,
                });
            }
        }
        out
    }

    /// The furthest coordinate the given edge may retreat to, or `None`
    /// when the edge cannot move at all.
    ///
    /// Limits considered:
    /// * the layer's minimum width,
    /// * room for one cut plus enclosure when the shape belongs to a
    ///   rebuildable contact-array group,
    /// * enclosure of *existing* cuts inside the shape when it does not
    ///   (those cuts would not be recalculated).
    fn shrink_limit(&self, obj: &LayoutObject, index: usize, edge: Dir) -> Option<Coord> {
        let s = &obj.shapes()[index];
        let far = s.rect.edge(edge.opposite()); // the fixed opposite edge
        let inward = edge.sign();
        let mut min_len = self.ctx.min_width(s.layer);
        let mut in_rebuild_group = false;
        for g in obj.groups() {
            if !g.shapes.contains(&index) {
                continue;
            }
            if let Some(amgen_db::RebuildKind::ContactArray { cut }) = g.rebuild {
                in_rebuild_group = true;
                if let Ok(cs) = self.ctx.cut_size(cut) {
                    let need = cs + 2 * self.ctx.enclosure(s.layer, cut);
                    min_len = min_len.max(need);
                }
            }
        }
        let mut limit = far + inward * min_len;
        if !in_rebuild_group {
            // Keep enclosing any cut currently inside this shape.
            for other in obj.shapes() {
                if self.ctx.kind(other.layer) == LayerKind::Cut && s.rect.contains_rect(&other.rect)
                {
                    let enc = self.ctx.enclosure(s.layer, other.layer);
                    let keep = other.rect.edge(edge) + inward * enc;
                    limit = if inward > 0 {
                        limit.max(keep)
                    } else {
                        limit.min(keep)
                    };
                }
            }
        }
        let cur = s.rect.edge(edge);
        // The limit must lie strictly inward of the current position.
        if (inward > 0 && limit >= cur) || (inward < 0 && limit <= cur) {
            return None;
        }
        Some(limit)
    }

    /// Auto-connect: bridges same-potential geometry on the ignored
    /// layers between the freshly absorbed shapes (`>= absorbed_at`) and
    /// the pre-existing ones.
    fn bridge(
        &self,
        main: &mut LayoutObject,
        absorbed_at: usize,
        side: Dir,
        opts: &CompactOptions,
    ) -> usize {
        let axis = side.axis();
        let perp = axis.perp();
        let mut new_shapes: Vec<Shape> = Vec::new();
        for ai in absorbed_at..main.len() {
            let a = main.shapes()[ai];
            if !opts.is_ignored(a.layer) || !self.ctx.kind(a.layer).is_conductor() {
                continue;
            }
            // Find the nearest compatible neighbour: if some neighbour
            // already touches, the shape is connected and needs no
            // bridge; otherwise bridge the smallest positive gap only
            // (bridging every distant shape would span occupied space and
            // breed redundant geometry).
            let mut best: Option<(usize, amgen_geom::Coord)> = None;
            let mut touching = false;
            for bi in 0..absorbed_at {
                let b = main.shapes()[bi];
                if b.layer != a.layer {
                    continue;
                }
                let compatible = match (a.net, b.net) {
                    (Some(x), Some(y)) => x == y,
                    _ => true, // unassigned potential joins freely
                };
                if !compatible {
                    continue;
                }
                let overlap = a.rect.range(perp).overlap_len(&b.rect.range(perp));
                if overlap <= 0 {
                    continue;
                }
                let gap = a.rect.gap_along(&b.rect, axis);
                if gap <= 0 {
                    touching = true;
                    break;
                }
                if best.is_none_or(|(_, g)| gap < g) {
                    best = Some((bi, gap));
                }
            }
            if touching {
                continue;
            }
            if let Some((bi, _)) = best {
                let b = main.shapes()[bi];
                // Bridge rectangle: span the gap, width = the overlap
                // (at least the layer's minimum width).
                let pr = a
                    .rect
                    .range(perp)
                    .intersection(&b.rect.range(perp))
                    .expect("positive overlap");
                let min_w = self.ctx.min_width(a.layer);
                let (plo, phi) = if pr.len() >= min_w {
                    (pr.lo, pr.hi)
                } else {
                    let c = pr.lo + pr.len() / 2;
                    (c - min_w / 2, c - min_w / 2 + min_w)
                };
                let ar = a.rect.range(axis);
                let br = b.rect.range(axis);
                let (alo, ahi) = if ar.lo >= br.hi {
                    (br.hi, ar.lo)
                } else {
                    (ar.hi, br.lo)
                };
                let rect = match axis {
                    amgen_geom::Axis::X => Rect::new(alo, plo, ahi, phi),
                    amgen_geom::Axis::Y => Rect::new(plo, alo, phi, ahi),
                };
                let mut s = Shape::new(a.layer, rect);
                if let Some(n) = a.net.or(b.net) {
                    s = s.with_net(n);
                }
                new_shapes.push(s);
            }
        }
        let n = new_shapes.len();
        for s in new_shapes {
            main.push(s);
        }
        n
    }
}

/// The binding bound (max for East/North sides, min for West/South) and
/// the pairs achieving it.
fn pick_binding(
    bounds: &[(Coord, usize, usize)],
    side: Dir,
) -> Option<(Coord, Vec<(usize, usize)>)> {
    if bounds.is_empty() {
        return None;
    }
    let best = match side.sign() {
        1 => bounds.iter().map(|&(b, _, _)| b).max().expect("non-empty"),
        _ => bounds.iter().map(|&(b, _, _)| b).min().expect("non-empty"),
    };
    let pairs = bounds
        .iter()
        .filter(|&&(b, _, _)| b == best)
        .map(|&(_, ai, bi)| (ai, bi))
        .collect();
    Some((best, pairs))
}

/// The strictest bound that is *not* the binding one.
fn second_bound(bounds: &[(Coord, usize, usize)], best: Coord, side: Dir) -> Option<Coord> {
    let it = bounds.iter().map(|&(b, _, _)| b).filter(|&b| b != best);
    match side.sign() {
        1 => it.max(),
        _ => it.min(),
    }
}

/// A step of length `d` along an axis (sign included in `d`).
trait VectorExt {
    fn step_along(axis: amgen_geom::Axis, d: Coord) -> Vector;
}

impl VectorExt for Vector {
    fn step_along(axis: amgen_geom::Axis, d: Coord) -> Vector {
        match axis {
            amgen_geom::Axis::X => Vector::new(d, 0),
            amgen_geom::Axis::Y => Vector::new(0, d),
        }
    }
}

/// Clamps a desired edge position between the shrink limit and the
/// current position (the edge only ever retreats, never advances).
/// `facing` is the sign of the edge's facing direction.
fn clamp_toward(cur: Coord, want: Coord, limit: Coord, facing: Coord) -> Coord {
    if facing > 0 {
        want.clamp(limit.min(cur), cur)
    } else {
        want.clamp(cur, limit.max(cur))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amgen_db::RebuildKind;
    use amgen_geom::um;
    use amgen_prim::Primitives;
    use amgen_tech::Tech;

    fn tech() -> GenCtx {
        GenCtx::from_tech(&Tech::bicmos_1u())
    }

    fn stripe(t: &GenCtx, layer: &str, w: i64, h: i64, net: Option<&str>) -> LayoutObject {
        let l = t.layer(layer).unwrap();
        let mut obj = LayoutObject::new(format!("{layer}-stripe"));
        let mut s = Shape::new(l, Rect::new(0, 0, w, h));
        if let Some(n) = net {
            let id = obj.net(n);
            s = s.with_net(id);
        }
        obj.push(s);
        obj
    }

    #[test]
    fn first_object_is_copied_in_place() {
        let t = tech();
        let c = Compactor::new(&t);
        let mut main = LayoutObject::new("main");
        let obj = stripe(&t, "poly", 1_000, 5_000, None);
        let r = c
            .compact(&mut main, &obj, Dir::West, &CompactOptions::new())
            .unwrap();
        assert_eq!(r.offset, Vector::ZERO);
        assert_eq!(main.bbox(), Rect::new(0, 0, 1_000, 5_000));
    }

    #[test]
    fn empty_object_is_an_error() {
        let t = tech();
        let c = Compactor::new(&t);
        let mut main = LayoutObject::new("main");
        let obj = LayoutObject::new("empty");
        assert_eq!(
            c.compact(&mut main, &obj, Dir::East, &CompactOptions::new()),
            Err(CompactError::EmptyObject)
        );
    }

    #[test]
    fn east_attachment_respects_spacing() {
        let t = tech();
        let c = Compactor::new(&t);
        let poly = t.layer("poly").unwrap();
        let s = t.min_spacing(poly, poly).unwrap();
        let mut main = LayoutObject::new("main");
        let obj = stripe(&t, "poly", 1_000, 5_000, None);
        c.compact(&mut main, &obj, Dir::East, &CompactOptions::new())
            .unwrap();
        let r = c
            .compact(&mut main, &obj, Dir::East, &CompactOptions::new())
            .unwrap();
        assert!(r.rule_bound);
        assert_eq!(main.bbox().width(), 1_000 + s + 1_000);
        // The second stripe is east of the first.
        assert_eq!(main.shapes()[1].rect.x0, 1_000 + s);
    }

    #[test]
    fn all_four_sides_place_symmetrically() {
        let t = tech();
        let c = Compactor::new(&t);
        let poly = t.layer("poly").unwrap();
        let s = t.min_spacing(poly, poly).unwrap();
        for side in Dir::ALL {
            let mut main = LayoutObject::new("main");
            let obj = stripe(&t, "poly", 2_000, 2_000, None);
            c.compact(&mut main, &obj, side, &CompactOptions::new())
                .unwrap();
            c.compact(&mut main, &obj, side, &CompactOptions::new())
                .unwrap();
            let bb = main.bbox();
            let along = match side.axis() {
                amgen_geom::Axis::X => bb.width(),
                amgen_geom::Axis::Y => bb.height(),
            };
            assert_eq!(along, 2_000 + s + 2_000, "{side}");
            let perp = match side.axis() {
                amgen_geom::Axis::X => bb.height(),
                amgen_geom::Axis::Y => bb.width(),
            };
            assert_eq!(perp, 2_000, "{side}: no perpendicular drift");
        }
    }

    #[test]
    fn same_net_same_layer_stops_at_touch() {
        let t = tech();
        let c = Compactor::new(&t);
        let mut main = LayoutObject::new("main");
        let a = stripe(&t, "metal1", um(2), um(2), Some("vdd"));
        let b = stripe(&t, "metal1", um(2), um(2), Some("vdd"));
        c.compact(&mut main, &a, Dir::East, &CompactOptions::new())
            .unwrap();
        let r = c
            .compact(&mut main, &b, Dir::East, &CompactOptions::new())
            .unwrap();
        assert!(r.rule_bound);
        // Touching, not spaced: total width is exactly 4 um.
        assert_eq!(main.bbox().width(), um(4));
    }

    #[test]
    fn different_nets_keep_metal_spacing() {
        let t = tech();
        let c = Compactor::new(&t);
        let m1 = t.layer("metal1").unwrap();
        let s = t.min_spacing(m1, m1).unwrap();
        let mut main = LayoutObject::new("main");
        let a = stripe(&t, "metal1", um(2), um(2), Some("vdd"));
        let b = stripe(&t, "metal1", um(2), um(2), Some("gnd"));
        c.compact(&mut main, &a, Dir::East, &CompactOptions::new())
            .unwrap();
        c.compact(&mut main, &b, Dir::East, &CompactOptions::new())
            .unwrap();
        assert_eq!(main.bbox().width(), um(4) + s);
    }

    #[test]
    fn unrelated_layers_fall_back_to_abutment() {
        let t = tech();
        let c = Compactor::new(&t);
        // metal1 over poly: no spacing rule, no constraint.
        let mut main = LayoutObject::new("main");
        let a = stripe(&t, "poly", um(2), um(2), None);
        let b = stripe(&t, "metal1", um(2), um(2), None);
        c.compact(&mut main, &a, Dir::East, &CompactOptions::new())
            .unwrap();
        let r = c
            .compact(&mut main, &b, Dir::East, &CompactOptions::new())
            .unwrap();
        assert!(!r.rule_bound);
        assert_eq!(main.bbox().width(), um(4), "bounding boxes abut");
    }

    #[test]
    fn keepout_prevents_overlap_without_rule() {
        let t = tech();
        let c = Compactor::new(&t);
        let mut main = LayoutObject::new("main");
        let a = {
            let mut o = stripe(&t, "poly", um(2), um(2), None);
            o.shapes_mut()[0].keepout = true;
            o
        };
        let b = stripe(&t, "metal1", um(2), um(2), None);
        c.compact(&mut main, &a, Dir::East, &CompactOptions::new())
            .unwrap();
        let r = c
            .compact(&mut main, &b, Dir::East, &CompactOptions::new())
            .unwrap();
        assert!(r.rule_bound, "keepout makes the pair constraining");
        assert_eq!(main.bbox().width(), um(4));
        assert!(!main.shapes()[0].rect.overlaps(&main.shapes()[1].rect));
    }

    #[test]
    fn ignored_layer_imposes_no_constraint_and_bridges() {
        let t = tech();
        let c = Compactor::new(&t);
        let poly = t.layer("poly").unwrap();
        // Two poly stripes on the same (unset) potential with the layer
        // ignored: the object falls back to abutment and a bridge merges
        // them if a gap remains. Here abutment leaves no gap.
        let mut main = LayoutObject::new("main");
        let a = stripe(&t, "poly", um(2), um(2), None);
        let b = stripe(&t, "poly", um(2), um(2), None);
        let opts = CompactOptions::new().ignoring(poly);
        c.compact(&mut main, &a, Dir::East, &opts).unwrap();
        let r = c.compact(&mut main, &b, Dir::East, &opts).unwrap();
        assert!(!r.rule_bound);
        assert_eq!(main.bbox().width(), um(4));
        assert_eq!(r.bridges, 0, "abutting shapes need no bridge");
    }

    #[test]
    fn bridge_spans_a_real_gap() {
        let t = tech();
        let c = Compactor::new(&t);
        let poly = t.layer("poly").unwrap();
        let m1 = t.layer("metal1").unwrap();
        // Main: poly stripe + metal1 keepout block standing proud to the
        // east, so the incoming object stops away from the poly.
        let mut main = LayoutObject::new("main");
        let pid = main.push(Shape::new(poly, Rect::new(0, 0, um(2), um(2))));
        main.push(Shape::new(m1, Rect::new(um(2), 0, um(4), um(2))).with_keepout());
        let _ = pid;
        // Object: poly stripe with a metal1 keepout of its own.
        let mut obj = LayoutObject::new("obj");
        obj.push(Shape::new(poly, Rect::new(0, 0, um(2), um(2))));
        obj.push(Shape::new(m1, Rect::new(0, 0, um(1), um(2))).with_keepout());
        let opts = CompactOptions::new().ignoring(poly);
        let r = c.compact(&mut main, &obj, Dir::East, &opts).unwrap();
        // The metal-metal spacing rule stops the object at
        // x = 4 um + spacing; the poly gap from 2 um to there is bridged.
        let stop = um(4) + t.min_spacing(m1, m1).unwrap();
        assert_eq!(r.bridges, 1);
        let bridge = main.shapes().last().unwrap();
        assert_eq!(bridge.layer, poly);
        assert_eq!(bridge.rect, Rect::new(um(2), 0, stop, um(2)));
    }

    /// Fig. 5b: a variable metal edge shrinks so the incoming object can
    /// come closer; the contact array is recalculated.
    #[test]
    fn variable_edge_shrinks_and_rebuilds() {
        let t = tech();
        let c = Compactor::new(&t);
        let prim = Primitives::new(&t);
        let poly = t.layer("poly").unwrap();
        let m1 = t.layer("metal1").unwrap();
        let ct = t.layer("contact").unwrap();

        // A vertical contact row with deliberately wide metal (4 um) whose
        // east metal edge is variable.
        let build_row = |variable: bool| -> LayoutObject {
            let mut row = LayoutObject::new("row");
            let p = prim
                .inbox(&mut row, poly, Some(um(4)), Some(um(10)))
                .unwrap();
            let m = prim.inbox(&mut row, m1, None, None).unwrap();
            let cuts = prim.array(&mut row, ct).unwrap();
            let mut members = vec![p, m];
            members.extend(cuts.iter().copied());
            row.add_group("row", members, Some(RebuildKind::ContactArray { cut: ct }));
            if variable {
                for i in [p, m] {
                    let e = row.shapes()[i].edges.with_variable(Dir::East);
                    row.shapes_mut()[i].edges = e;
                }
            }
            row
        };

        let probe = stripe(&t, "metal1", um(2), um(10), Some("sig"));

        let width_with = |variable: bool| -> (i64, CompactReport) {
            let mut main = LayoutObject::new("main");
            c.compact(
                &mut main,
                &build_row(variable),
                Dir::West,
                &CompactOptions::new(),
            )
            .unwrap();
            let r = c
                .compact(&mut main, &probe, Dir::East, &CompactOptions::new())
                .unwrap();
            (main.bbox().width(), r)
        };

        let (w_fixed, r_fixed) = width_with(false);
        let (w_var, r_var) = width_with(true);
        assert_eq!(r_fixed.shrunk_edges, 0);
        assert!(r_var.shrunk_edges > 0, "variable edges were moved");
        assert!(
            w_var < w_fixed,
            "variable edges must densify: {w_var} !< {w_fixed}"
        );
    }

    #[test]
    fn extra_clearance_widens_the_gap() {
        let t = tech();
        let c = Compactor::new(&t);
        let poly = t.layer("poly").unwrap();
        let s = t.min_spacing(poly, poly).unwrap();
        let mut main = LayoutObject::new("main");
        let obj = stripe(&t, "poly", 1_000, 5_000, None);
        c.compact(&mut main, &obj, Dir::East, &CompactOptions::new())
            .unwrap();
        c.compact(
            &mut main,
            &obj,
            Dir::East,
            &CompactOptions::new().with_extra_clearance(500),
        )
        .unwrap();
        assert_eq!(main.bbox().width(), 1_000 + s + 500 + 1_000);
    }

    #[test]
    fn cut_keeps_distance_from_foreign_conductor() {
        let t = tech();
        let c = Compactor::new(&t);
        let ct = t.layer("contact").unwrap();
        let m1 = t.layer("metal1").unwrap();
        let mut main = LayoutObject::new("main");
        let mut a = LayoutObject::new("a");
        let na = a.net("x");
        a.push(Shape::new(m1, Rect::new(0, 0, um(2), um(2))).with_net(na));
        let mut b = LayoutObject::new("b");
        let nb = b.net("y");
        b.push(Shape::new(ct, Rect::new(0, 0, 1_000, 1_000)).with_net(nb));
        c.compact(&mut main, &a, Dir::East, &CompactOptions::new())
            .unwrap();
        let r = c
            .compact(&mut main, &b, Dir::East, &CompactOptions::new())
            .unwrap();
        assert!(r.rule_bound, "contact vs foreign metal constrains");
        let gap = main.shapes()[1]
            .rect
            .gap_along(&main.shapes()[0].rect, amgen_geom::Axis::X);
        assert!(gap >= t.min_spacing(ct, ct).unwrap());
    }

    #[test]
    fn perpendicular_clearance_lets_objects_pass() {
        let t = tech();
        let c = Compactor::new(&t);
        let poly = t.layer("poly").unwrap();
        let s = t.min_spacing(poly, poly).unwrap();
        let mut main = LayoutObject::new("main");
        // Main stripe at y in [0, 2 um].
        let a = stripe(&t, "poly", um(2), um(2), None);
        c.compact(&mut main, &a, Dir::East, &CompactOptions::new())
            .unwrap();
        // Object offset far north: its y-range clears the spacing, so it
        // slides past and falls back to bbox abutment.
        let mut b = LayoutObject::new("b");
        b.push(Shape::new(poly, Rect::new(0, um(2) + s, um(2), um(4) + s)));
        let r = c
            .compact(&mut main, &b, Dir::East, &CompactOptions::new())
            .unwrap();
        assert!(!r.rule_bound);
    }
}
