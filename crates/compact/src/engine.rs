//! The constraint pass and placement engine.

use std::borrow::Cow;

use amgen_core::{FaultSite, GenCtx, GenError, Stage};
use amgen_db::{LayoutObject, NetId, Shape};
use amgen_geom::{Coord, Dir, Rect, Vector};
use amgen_tech::{Layer, LayerKind, RuleSet};

use crate::options::CompactOptions;
use crate::rebuild::rebuild_group;

/// Most shrink/rebuild iterations of one step (a safety valve).
const MAX_SHRINK_ITERS: usize = 16;

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
        // The object is copied only if a shrink edits one of its edges.
        let mut work = Cow::Borrowed(obj);
        let mut rules = StepRules::new(&self.ctx, obj, main, opts);
        let mut shrunk_edges = 0usize;
        let mut rebuilt_groups = 0usize;

        // Iterate: find the binding constraint; if a variable facing edge
        // can relax it, move the edge and rebuild, then rescan.
        let mut iters = 0usize;
        let (offset_along, rule_bound) = loop {
            let Some(binding) = self.binding(main, &work, side, &mut rules) else {
                break (self.fallback_offset(main, &work, side), false);
            };
            let best = binding.bound;
            iters += 1;
            if !opts.variable_edges || iters > MAX_SHRINK_ITERS {
                break (best, true);
            }
            // Second-best bound: how far a shrink could usefully go.
            let second = binding.second;
            let mut progressed = false;
            for &(ai, bi) in &binding.pairs {
                for shrink in self.shrink_candidates(main, &work, ai, bi, side) {
                    let target_obj: &mut LayoutObject =
                        if shrink.in_main { main } else { work.to_mut() };
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

    /// One constraint pass: the binding bound between the moving object
    /// and the main structure (max for East/North, min for West/South),
    /// the pairs `(obj_shape, main_shape)` achieving it in ascending
    /// order, and the strictest bound that is not the binding one — or
    /// `None` when no pair constrains.
    ///
    /// The pass never builds the list of every bound. A main shape whose
    /// facing edge, plus the largest gap the step can demand, cannot
    /// reach the current second bound changes none of the three results,
    /// so it is skipped without resolving a rule. The structure is
    /// visited from its outer edge inward, so the second bound is usually
    /// known after the first band and the interior is never visited: only
    /// the paper's "outer edges" of the main structure are paired.
    fn binding(
        &self,
        main: &LayoutObject,
        obj: &LayoutObject,
        side: Dir,
        rules: &mut StepRules,
    ) -> Option<Binding> {
        let axis = side.axis();
        let perp = axis.perp();
        let sign = side.sign();
        // Edges in the pass's sign, where larger lies further toward the
        // attachment side: a pair's bound is `front(b) + gap - back(a)`.
        let front = |r: &Rect| {
            let range = r.range(axis);
            if sign > 0 {
                range.hi
            } else {
                -range.lo
            }
        };
        let back = |r: &Rect| {
            let range = r.range(axis);
            if sign > 0 {
                range.lo
            } else {
                -range.hi
            }
        };

        // The moving object once per pass: the furthest any of its pairs
        // can reach (`lead`), and a hull over every shape, degenerate ones
        // included (a bounding box skips those).
        let reach = rules.reach;
        let mut lead = Coord::MIN;
        let mut hull = obj.shapes().first().map_or(Rect::EMPTY, |a| a.rect);
        for a in obj.shapes() {
            lead = lead.max(reach - back(&a.rect));
            hull = Rect {
                x0: hull.x0.min(a.rect.x0),
                y0: hull.y0.min(a.rect.y0),
                x1: hull.x1.max(a.rect.x1),
                y1: hull.y1.max(a.rect.y1),
            };
        }

        // Main is visited in bands of facing edge, outermost first, each
        // twice as deep as the one before. Once the second bound is known
        // and nothing below the band can reach it, the rest of the
        // structure is skipped unvisited; the bands only order the visits.
        let mut found = Strictest::default();
        let mut depth = (reach + hull.range(axis).len()).max(1);
        let mut lo = front(&main.bbox()).saturating_sub(depth);
        let mut hi = Coord::MAX;
        let mut deepest = Coord::MAX;
        for band in 0.. {
            for (bi, b) in main.shapes().iter().enumerate() {
                let front_b = front(&b.rect);
                deepest = deepest.min(front_b);
                if front_b < lo || (band > 0 && front_b >= hi) {
                    continue;
                }
                // Out of reach along the axis, or beside the object by more
                // than any gap: no pair with `b` can matter. The gap to a
                // shape is never smaller than the gap to a hull around it.
                if found.second.is_some_and(|sec| front_b + lead <= sec)
                    || hull.gap_along(&b.rect, perp) >= reach
                {
                    continue;
                }
                for (ai, a) in obj.shapes().iter().enumerate() {
                    let back_a = back(&a.rect);
                    if found
                        .second
                        .is_some_and(|sec| front_b + reach - back_a <= sec)
                    {
                        continue;
                    }
                    let Some(g) = rules.gap(main, a, b) else {
                        continue;
                    };
                    // Perpendicular conflict: projections closer than the gap.
                    if a.rect.gap_along(&b.rect, perp) >= g {
                        continue;
                    }
                    found.offer(front_b + g - back_a, ai, bi);
                }
            }
            if deepest >= lo
                || found
                    .second
                    .is_some_and(|sec| lo.saturating_add(lead) <= sec)
            {
                break;
            }
            hi = lo;
            depth = depth.saturating_mul(2);
            lo = hi.saturating_sub(depth);
        }

        let best = found.best?;
        found.pairs.sort_unstable();
        Some(Binding {
            bound: sign * best,
            pairs: found.pairs,
            second: found.second.map(|s| sign * s),
        })
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

/// What one constraint pass found (see [`Compactor::binding`]).
#[derive(Debug, PartialEq, Eq)]
struct Binding {
    /// The offset along the axis at which the strictest pair rests.
    bound: Coord,
    /// The pairs `(obj_shape, main_shape)` achieving it, ascending.
    pairs: Vec<(usize, usize)>,
    /// The strictest bound that is *not* the binding one.
    second: Option<Coord>,
}

/// The strictest and second-strictest bounds a pass has seen so far, in
/// the pass's sign (larger is stricter).
#[derive(Default)]
struct Strictest {
    best: Option<Coord>,
    pairs: Vec<(usize, usize)>,
    second: Option<Coord>,
}

impl Strictest {
    fn offer(&mut self, t: Coord, ai: usize, bi: usize) {
        match self.best {
            Some(best) if t < best => {
                if self.second.is_none_or(|s| t > s) {
                    self.second = Some(t);
                }
            }
            Some(best) if t == best => self.pairs.push((ai, bi)),
            _ => {
                self.second = self.best;
                self.best = Some(t);
                self.pairs.clear();
                self.pairs.push((ai, bi));
            }
        }
    }
}

/// A layer pair's gap for one step, before the pair's nets and keepouts
/// are known.
#[derive(Debug, Clone, Copy)]
enum PairGap {
    /// Not looked up yet this step.
    Unresolved,
    /// Both layers are on the step's ignore list: no constraint.
    Ignored,
    /// No rule: the pair constrains (at touch) only through a keepout,
    /// or same-potential geometry on one layer.
    Free,
    /// A spacing rule, or the cut-vs-conductor fallback, plus the step's
    /// extra clearance.
    Rule(Coord),
}

/// Marks a net whose name is not resolved yet.
const UNRESOLVED: u32 = u32::MAX;
/// Marks a main net whose name no moving net carries.
const NO_MATCH: u32 = u32::MAX - 1;

/// The rules of one compaction step, each resolved once per step instead
/// of once per shape pair: the largest gap the step can demand, the gap
/// of every layer pair that meets, and which of main's nets carry a
/// moving net's name.
struct StepRules<'a> {
    rules: &'a RuleSet,
    opts: &'a CompactOptions,
    /// The largest gap any pair can demand: the deck's widest spacing
    /// (a cut-vs-conductor fallback is a cut's own spacing) plus the extra
    /// clearance. Never below 0, so it stays an upper bound under a
    /// negative extra clearance, where keepouts and same-potential pairs
    /// still rest at touch.
    reach: Coord,
    /// The deck's layer handles, by index. Shapes and ignore lists are
    /// matched against these whole, brand included, never by index.
    layers: Vec<Layer>,
    /// `gaps[a * n + b]`, on first use.
    gaps: Vec<PairGap>,
    /// The moving object's net names.
    moving_names: &'a [String],
    /// Per net, on first use: for a moving net, the first moving net of
    /// the same name; for a main net (after the moving ones), the first
    /// moving net of its name, or [`NO_MATCH`]. Same potential means
    /// same name, so two nets share a potential when their entries do.
    nets: Vec<u32>,
}

impl<'a> StepRules<'a> {
    fn new(
        rules: &'a RuleSet,
        obj: &'a LayoutObject,
        main: &LayoutObject,
        opts: &'a CompactOptions,
    ) -> StepRules<'a> {
        let layers: Vec<Layer> = rules.layers().collect();
        let n = layers.len();
        let moving_names = obj.net_names();
        StepRules {
            rules,
            opts,
            reach: (rules.max_spacing() + opts.extra_clearance).max(0),
            gaps: vec![PairGap::Unresolved; n * n],
            layers,
            moving_names,
            nets: vec![UNRESOLVED; moving_names.len() + main.net_names().len()],
        }
    }

    /// The deck index of `l`. Like every rule query, panics on a handle
    /// from another technology.
    fn index(&self, l: Layer) -> usize {
        let i = l.index();
        assert!(
            self.layers.get(i) == Some(&l),
            "layer handle from another technology used with technology {}",
            self.rules.name()
        );
        i
    }

    /// A layer pair's gap under this step's options.
    fn resolve(&self, a: Layer, b: Layer) -> PairGap {
        // Ignored layers are declared mergeable for this step: pairs
        // *within* them impose nothing (the geometry will be connected),
        // but rules against other layers still hold — a poly contact row
        // compacted with poly "irrelevant" must still respect poly-to-
        // diffusion spacing.
        if self.opts.is_ignored(a) && self.opts.is_ignored(b) {
            return PairGap::Ignored;
        }
        let extra = self.opts.extra_clearance;
        if let Some(s) = self.rules.min_spacing(a, b) {
            return PairGap::Rule(s + extra);
        }
        // A cut may not land on a foreign conductor it could short to.
        let cut_vs_conductor = |cut: Layer, cond: Layer| {
            self.rules.kind(cut) == LayerKind::Cut
                && self.rules.kind(cond).is_conductor()
                && self
                    .rules
                    .connected_pairs(cut)
                    .iter()
                    .any(|&(x, y)| x == cond || y == cond)
        };
        if cut_vs_conductor(a, b) || cut_vs_conductor(b, a) {
            let cut = if self.rules.kind(a) == LayerKind::Cut {
                a
            } else {
                b
            };
            let fallback = self.rules.min_spacing(cut, cut).unwrap_or(0);
            return PairGap::Rule(fallback + extra);
        }
        PairGap::Free
    }

    /// The spacing the rules demand between moving shape `a` and main
    /// shape `b`; `None` means the pair imposes no constraint.
    fn gap(&mut self, main: &LayoutObject, a: &Shape, b: &Shape) -> Option<Coord> {
        let entry = self.index(a.layer) * self.layers.len() + self.index(b.layer);
        let mut gap = self.gaps[entry];
        if let PairGap::Unresolved = gap {
            gap = self.resolve(a.layer, b.layer);
            self.gaps[entry] = gap;
        }
        if let PairGap::Ignored = gap {
            return None;
        }
        if a.layer == b.layer && self.same_net(main, a.net, b.net) {
            // Same potential: stop at touch, then merge (Fig. 5a).
            return Some(0);
        }
        match gap {
            PairGap::Rule(g) => Some(g),
            _ => (a.keepout || b.keepout).then_some(0),
        }
    }

    /// True when moving net `a` and main net `b` carry the same name.
    fn same_net(&mut self, main: &LayoutObject, a: Option<NetId>, b: Option<NetId>) -> bool {
        let (Some(a), Some(b)) = (a, b) else {
            return false;
        };
        let names = self.moving_names;
        let (a, slot) = (a.index(), names.len() + b.index());
        for (i, name) in [(a, names[a].as_str()), (slot, main.net_name(b))] {
            if self.nets[i] == UNRESOLVED {
                self.nets[i] = names
                    .iter()
                    .position(|m| m == name)
                    .map_or(NO_MATCH, |x| x as u32);
            }
        }
        self.nets[a] == self.nets[slot]
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
    use proptest::prelude::*;
    use proptest::rng::TestRng;
    use proptest::strategy::Gen;

    fn tech() -> GenCtx {
        GenCtx::from_tech(&Tech::bicmos_1u())
    }

    /// The all-pairs reference the constraint pass must agree with: the
    /// bound of every shape pair, then the binding bound, its pairs and
    /// the second bound picked from the full list.
    fn binding_scan(
        rules: &RuleSet,
        main: &LayoutObject,
        obj: &LayoutObject,
        side: Dir,
        opts: &CompactOptions,
    ) -> Option<Binding> {
        let axis = side.axis();
        let perp = axis.perp();
        let mut bounds = Vec::new();
        for (ai, a) in obj.shapes().iter().enumerate() {
            for (bi, b) in main.shapes().iter().enumerate() {
                let Some(g) = required_gap_scan(rules, a, obj, b, main, opts) else {
                    continue;
                };
                if a.rect.gap_along(&b.rect, perp) >= g {
                    continue;
                }
                let bound = match side.sign() {
                    1 => b.rect.range(axis).hi + g - a.rect.range(axis).lo,
                    _ => b.rect.range(axis).lo - g - a.rect.range(axis).hi,
                };
                bounds.push((bound, ai, bi));
            }
        }
        let all = bounds.iter().map(|&(b, _, _)| b);
        let bound = if side.sign() > 0 {
            all.max()
        } else {
            all.min()
        }?;
        let pairs = bounds
            .iter()
            .filter(|&&(b, _, _)| b == bound)
            .map(|&(_, ai, bi)| (ai, bi))
            .collect();
        let others = bounds.iter().map(|&(b, _, _)| b).filter(|&b| b != bound);
        let second = if side.sign() > 0 {
            others.max()
        } else {
            others.min()
        };
        Some(Binding {
            bound,
            pairs,
            second,
        })
    }

    /// The reference's per-pair gap: net names compared as strings, the
    /// ignore list searched and every rule queried for each pair.
    fn required_gap_scan(
        rules: &RuleSet,
        a: &Shape,
        a_obj: &LayoutObject,
        b: &Shape,
        b_obj: &LayoutObject,
        opts: &CompactOptions,
    ) -> Option<Coord> {
        if opts.is_ignored(a.layer) && opts.is_ignored(b.layer) {
            return None;
        }
        let same_net = match (a.net, b.net) {
            (Some(x), Some(y)) => a_obj.net_name(x) == b_obj.net_name(y),
            _ => false,
        };
        if a.layer == b.layer {
            if same_net {
                return Some(0);
            }
            return rules
                .min_spacing(a.layer, b.layer)
                .map(|s| s + opts.extra_clearance)
                .or(if a.keepout || b.keepout {
                    Some(0)
                } else {
                    None
                });
        }
        if let Some(s) = rules.min_spacing(a.layer, b.layer) {
            return Some(s + opts.extra_clearance);
        }
        let cut_vs_conductor = |cut: &Shape, cond: &Shape| {
            rules.kind(cut.layer) == LayerKind::Cut
                && rules.kind(cond.layer).is_conductor()
                && rules
                    .connected_pairs(cut.layer)
                    .iter()
                    .any(|&(x, y)| x == cond.layer || y == cond.layer)
        };
        if cut_vs_conductor(a, b) || cut_vs_conductor(b, a) {
            let cut_layer = if rules.kind(a.layer) == LayerKind::Cut {
                a.layer
            } else {
                b.layer
            };
            let fallback = rules.min_spacing(cut_layer, cut_layer).unwrap_or(0);
            return Some(fallback + opts.extra_clearance);
        }
        if a.keepout || b.keepout {
            return Some(0);
        }
        None
    }

    /// One shape of an oracle case: a deck layer index, a rectangle
    /// (degenerate ones included), an index into the object's net pool
    /// and the keepout flag.
    #[derive(Debug, Clone)]
    struct ShapeSpec {
        layer: usize,
        rect: Rect,
        net: Option<usize>,
        keepout: bool,
    }

    /// A random constraint-pass input: two objects on one deck, the
    /// step's ignore list (`(foreign deck?, layer index)`) and extra
    /// clearance.
    #[derive(Debug, Clone)]
    struct OracleCase {
        deck: usize,
        moving: Vec<ShapeSpec>,
        main: Vec<ShapeSpec>,
        ignore: Vec<(bool, usize)>,
        extra: Coord,
    }

    const NET_POOL: usize = 6;

    fn decks() -> [Tech; 2] {
        [Tech::bicmos_1u(), Tech::cmos_08()]
    }

    /// Coordinates on a coarse grid, so that ties between bounds (several
    /// binding pairs, a second bound equal to others) are common.
    fn coord(rng: &mut TestRng, span: i64) -> Coord {
        rng.i64_in(-span, span + 1) * 250
    }

    /// A deck's layer count, and the layer whose own spacing is the
    /// deck's widest: the one rule whose gaps reach the pruning bound.
    fn layer_pool(deck: &Tech) -> (usize, usize) {
        let widest = deck
            .layers()
            .position(|l| deck.min_spacing(l, l) == Some(deck.max_spacing()))
            .unwrap();
        (deck.layer_count(), widest)
    }

    fn arb_shape(rng: &mut TestRng, (layers, widest): (usize, usize), span: i64) -> ShapeSpec {
        let (x, y) = (coord(rng, span), coord(rng, span));
        // One side in four is degenerate (zero length).
        let mut len = || match rng.below(4) {
            0 => 0,
            _ => rng.i64_in(1, 25) * 250,
        };
        let (w, h) = (len(), len());
        // One shape in four on the widest-spaced layer, so that gaps equal
        // to the pruning bound are common.
        let layer = match rng.below(4) {
            0 => widest,
            _ => rng.below(layers as u64) as usize,
        };
        ShapeSpec {
            layer,
            rect: Rect::new(x, y, x + w, y + h),
            net: rng.gen_bool().then(|| rng.below(NET_POOL as u64) as usize),
            keepout: rng.below(5) == 0,
        }
    }

    fn arb_oracle_case() -> impl Strategy<Value = OracleCase> {
        let pools = decks().map(|d| layer_pool(&d));
        Gen::new(move |rng: &mut TestRng| {
            let deck = rng.below(2) as usize;
            let (own, other) = (pools[deck], pools[1 - deck].0);
            let moving = (0..rng.i64_in(1, 9))
                .map(|_| arb_shape(rng, own, 12))
                .collect();
            let main = (0..rng.i64_in(1, 41))
                .map(|_| arb_shape(rng, own, 60))
                .collect();
            let ignore = (0..rng.below(4))
                .map(|_| {
                    let foreign = rng.below(3) == 0;
                    let n = if foreign { other } else { own.0 };
                    (foreign, rng.below(n as u64) as usize)
                })
                .collect();
            // Down to -6 µm: below minus every deck's widest spacing, where
            // only keepouts and same-potential pairs still constrain.
            let extra = match rng.below(3) {
                0 => 0,
                _ => rng.i64_in(-24, 9) * 250,
            };
            OracleCase {
                deck,
                moving,
                main,
                ignore,
                extra,
            }
        })
    }

    /// Builds an object whose net pool shares names with the other
    /// side's under different ids, and holds two ids with one name (a
    /// `rename_net` merge leaves the old slot renamed, not removed).
    fn build(rules: &RuleSet, name: &str, specs: &[ShapeSpec], moving: bool) -> LayoutObject {
        let mut obj = LayoutObject::new(name);
        let layers: Vec<Layer> = rules.layers().collect();
        let names: [&str; 3] = if moving {
            ["c", "a", "z"]
        } else {
            ["a", "b", "c"]
        };
        let mut pool: Vec<NetId> = names.iter().map(|n| obj.net(n)).collect();
        for merge_into in [names[0], names[1]] {
            pool.push(obj.net("d"));
            obj.rename_net("d", merge_into);
        }
        pool.push(obj.net(if moving { "b" } else { "<renamed:d>" }));
        assert_eq!(pool.len(), NET_POOL);
        for spec in specs {
            let mut s = Shape::new(layers[spec.layer], spec.rect);
            s.net = spec.net.map(|i| pool[i]);
            s.keepout = spec.keepout;
            obj.push(s);
        }
        obj
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1_000))]

        /// The pruned constraint pass finds exactly what the all-pairs
        /// scan finds: the same bound, the same binding pairs in the same
        /// order and the same second bound, from every side — and again
        /// when its step rules are reused, as the shrink loop does.
        #[test]
        fn constraint_pass_matches_the_all_pairs_scan(case in arb_oracle_case()) {
            let decks = decks();
            let rules = &decks[case.deck];
            let foreign = &decks[1 - case.deck];
            let main = build(rules, "main", &case.main, false);
            let obj = build(rules, "obj", &case.moving, true);
            let mut opts = CompactOptions::new().with_extra_clearance(case.extra);
            for &(other_deck, i) in &case.ignore {
                let deck = if other_deck { foreign } else { rules };
                opts = opts.ignoring(deck.layers().nth(i).unwrap());
            }
            let ctx = GenCtx::from_tech(rules);
            let c = Compactor::new(&ctx);
            for side in Dir::ALL {
                let want = binding_scan(rules, &main, &obj, side, &opts);
                let mut step = StepRules::new(rules, &obj, &main, &opts);
                prop_assert_eq!(&c.binding(&main, &obj, side, &mut step), &want, "{side}");
                prop_assert_eq!(&c.binding(&main, &obj, side, &mut step), &want, "{side} again");
            }
        }
    }

    /// A zero-width moving shape counts even where it reaches beyond the
    /// rest of its object: a bounding box would skip it, so the pass
    /// prunes against a hull over every shape.
    #[test]
    fn degenerate_shapes_still_constrain() {
        let t = Tech::bicmos_1u();
        let poly = t.poly().unwrap();
        let mut obj = LayoutObject::new("obj");
        obj.push(Shape::new(poly, Rect::new(0, 0, um(1), um(1))));
        obj.push(Shape::new(poly, Rect::new(0, 0, 0, um(20))));
        let mut main = LayoutObject::new("main");
        main.push(Shape::new(poly, Rect::new(-um(3), um(15), -um(2), um(16))));
        let opts = CompactOptions::new();
        let c = Compactor::new(&GenCtx::from_tech(&t));
        for side in Dir::ALL {
            let mut rules = StepRules::new(&t, &obj, &main, &opts);
            let found = c.binding(&main, &obj, side, &mut rules);
            assert_eq!(found, binding_scan(&t, &main, &obj, side, &opts), "{side}");
        }
        let mut rules = StepRules::new(&t, &obj, &main, &opts);
        let east = c.binding(&main, &obj, Dir::East, &mut rules).unwrap();
        assert_eq!(east.pairs, vec![(1, 0)], "only the segment meets main");
    }

    #[test]
    fn a_foreign_ignore_handle_ignores_nothing() {
        let (bicmos, cmos) = (Tech::bicmos_1u(), Tech::cmos_08());
        let poly = bicmos.poly().unwrap();
        // A cmos handle with bicmos poly's index: matched whole, it must
        // not ignore bicmos poly.
        let alias = cmos.layers().nth(poly.index()).unwrap();
        let s = bicmos.min_spacing(poly, poly).unwrap();
        let stripe = || {
            let mut o = LayoutObject::new("poly");
            o.push(Shape::new(poly, Rect::new(0, 0, um(2), um(2))));
            o
        };
        let opts = CompactOptions::new().ignoring(alias);
        let step = |main: &LayoutObject, obj: &LayoutObject| {
            let mut rules = StepRules::new(&bicmos, obj, main, &opts);
            Compactor::new(&GenCtx::from_tech(&bicmos)).binding(main, obj, Dir::East, &mut rules)
        };
        let (main, obj) = (stripe(), stripe());
        let found = step(&main, &obj).expect("poly-poly spacing still binds");
        assert_eq!(found.bound, um(2) + s);
        assert_eq!(found.pairs, vec![(0, 0)]);
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
