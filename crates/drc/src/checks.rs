//! The rule checks: width, spacing, shorts, enclosure, cut size.

use amgen_core::{GenCtx, Stage};
use amgen_db::{DisjointSets, LayoutObject, Shape};
use amgen_extract::Extractor;
use amgen_geom::{Axis, Coord, Rect, Region};
use amgen_tech::{Layer, LayerKind, RuleSet};

use crate::latchup;
use crate::violation::{Violation, ViolationKind};

/// The kernel's cover test for the width and gap-fill union tests and
/// the enclosure fallback: `covered(layer, window)` is true if the shapes
/// on `layer` cover `window`. The spatial index gathers only the shapes
/// near the window into a reused buffer — exact, because a cover that
/// does not overlap the window cannot cut anything from it. The answer is
/// a bool, so the order of the covers cannot change it.
fn cover_test(obj: &LayoutObject) -> impl FnMut(Layer, &Rect) -> bool + '_ {
    let ix = obj.spatial_index();
    let mut covers = Vec::new();
    move |layer, window| {
        covers.clear();
        if let Some(t) = ix.layer(layer) {
            t.for_each_candidate(window, |_, r| covers.push(*r));
        }
        Region::from_rect(*window).covered_by(covers.iter().copied())
    }
}

/// The `*_scan` baselines' cover test: every shape on the layer is a
/// cover, as before the index.
fn cover_test_scan(obj: &LayoutObject) -> impl FnMut(Layer, &Rect) -> bool + '_ {
    |layer, window| Region::from_rect(*window).covered_by(obj.shapes_on(layer).map(|s| s.rect))
}

/// The design-rule checker, bound to one generation context.
#[derive(Debug, Clone)]
pub struct Drc {
    ctx: GenCtx,
}

impl Drc {
    /// Binds the checker to a generation context.
    pub fn new(ctx: &GenCtx) -> Drc {
        Drc { ctx: ctx.clone() }
    }

    /// The shared generation context.
    pub fn ctx(&self) -> &GenCtx {
        &self.ctx
    }

    /// The compiled rule kernel.
    pub fn rules(&self) -> &RuleSet {
        &self.ctx
    }

    /// Runs every check and returns all violations.
    ///
    /// Every sub-check runs on the object's
    /// [spatial index](LayoutObject::spatial_index) — window queries and
    /// the shared sign-off pairs instead of all-pairs scans — and
    /// produces output byte-identical to the pre-index checker
    /// ([`check_scan`](Drc::check_scan)). Spacing, enclosure, min-area
    /// and extraction filter the pairs of one run of the deck's join plan
    /// ([`SpatialIndex::joins`](amgen_db::SpatialIndex::joins)), and the
    /// spacing check's extraction is memoised in the index too: after
    /// [`Extractor::connectivity`] has run on the object, this runs no
    /// join and no extraction, and a `connectivity` call after it runs
    /// neither.
    pub fn check(&self, obj: &LayoutObject) -> Vec<Violation> {
        let mut span = self
            .ctx
            .stage(Stage::Drc, || amgen_core::name!("check:{}", obj.name()));
        let mut out = Vec::new();
        out.extend(self.check_widths(obj));
        out.extend(self.check_spacing(obj));
        out.extend(self.check_enclosures(obj));
        out.extend(self.check_min_area(obj));
        out.extend(latchup::check_latchup(&self.ctx, obj));
        span.arg("shapes", obj.len());
        span.arg("violations", out.len());
        out
    }

    /// The pre-index checker: every sub-check runs its linear-scan /
    /// all-pairs variant, with components from the all-pairs
    /// [`connectivity_scan`](Extractor::connectivity_scan). Kept as the
    /// baseline the indexed checks are parity-tested against
    /// (byte-identical violations); it reads no memo.
    #[doc(hidden)]
    pub fn check_scan(&self, obj: &LayoutObject) -> Vec<Violation> {
        let mut out = Vec::new();
        out.extend(self.check_widths_scan(obj));
        out.extend(self.check_spacing_scan(obj));
        out.extend(self.check_enclosures_scan(obj));
        out.extend(self.check_min_area_scan(obj));
        out.extend(latchup::check_latchup_scan(&self.ctx, obj));
        out
    }

    /// Minimum area per **merged region**: same-layer shapes that touch
    /// or overlap form one region; its union area must reach the layer's
    /// `minarea` rule. Touching pairs come from each ruled layer's
    /// self-join in the object's sign-off pairs
    /// ([`SpatialIndex::joins`](amgen_db::SpatialIndex::joins)), filtered
    /// by `overlaps || abuts`, instead of an all-pairs sweep; the
    /// union-find they feed is order-free.
    pub fn check_min_area(&self, obj: &LayoutObject) -> Vec<Violation> {
        self.ctx.metrics.add_drc_checks(1);
        let shapes = obj.shapes();
        let ruled = |l: Layer| self.ctx.min_area_um2(l) > 0.0;
        let ix = obj.spatial_index();
        let joins = ix.joins(self.rules());
        let mut sets = DisjointSets::new(shapes.len());
        for layer in ix.populated_layers().filter(|&l| ruled(l)) {
            for (i, j) in joins.between(layer, layer) {
                let (a, b) = (&shapes[i as usize].rect, &shapes[j as usize].rect);
                if a.overlaps(b) || a.abuts(b) {
                    sets.union(i, j);
                }
            }
        }
        // A cluster with one non-empty member at the rule cannot fall
        // short: its union's area is at least the member's. Mark it
        // cleared and gather rects only for the clusters that can.
        const CLEARED: usize = usize::MAX - 1;
        let mut slot = vec![usize::MAX; shapes.len()];
        for (i, s) in shapes.iter().enumerate() {
            if ruled(s.layer) && !s.rect.is_empty() && !self.short_of_rule(s.layer, s.rect.area()) {
                slot[sets.find(i as u32) as usize] = CLEARED;
            }
        }
        // Clusters in the order of their smallest member, each listing
        // its rectangles in shape order, then grouped by layer (stably):
        // the scan's order, whatever order the unions came in.
        let mut clusters: Vec<(Layer, Vec<Rect>)> = Vec::new();
        for (i, s) in shapes.iter().enumerate() {
            if !ruled(s.layer) {
                continue;
            }
            let root = sets.find(i as u32) as usize;
            if slot[root] == CLEARED {
                continue;
            }
            if slot[root] == usize::MAX {
                slot[root] = clusters.len();
                clusters.push((s.layer, Vec::new()));
            }
            clusters[slot[root]].1.push(s.rect);
        }
        clusters.sort_by_key(|(layer, _)| layer.index());
        clusters
            .into_iter()
            .filter_map(|(layer, rects)| self.min_area_violation(layer, rects))
            .collect()
    }

    /// All-pairs baseline of [`check_min_area`](Drc::check_min_area):
    /// per ruled layer, every pair of its shapes, clusters keyed by their
    /// smallest member.
    #[doc(hidden)]
    pub fn check_min_area_scan(&self, obj: &LayoutObject) -> Vec<Violation> {
        self.ctx.metrics.add_drc_checks(1);
        let mut out = Vec::new();
        for layer in self.ctx.layers() {
            if self.ctx.min_area_um2(layer) <= 0.0 {
                continue;
            }
            let rects: Vec<Rect> = obj.shapes_on(layer).map(|s| s.rect).collect();
            let mut sets = DisjointSets::new(rects.len());
            for i in 0..rects.len() {
                for j in (i + 1)..rects.len() {
                    if rects[i].overlaps(&rects[j]) || rects[i].abuts(&rects[j]) {
                        sets.union(i as u32, j as u32);
                    }
                }
            }
            let mut clusters: std::collections::BTreeMap<usize, Vec<Rect>> = Default::default();
            let mut min_of_root: std::collections::HashMap<u32, usize> = Default::default();
            for (i, rect) in rects.iter().enumerate() {
                let key = *min_of_root.entry(sets.find(i as u32)).or_insert(i);
                clusters.entry(key).or_default().push(*rect);
            }
            out.extend(
                clusters
                    .into_values()
                    .filter_map(|cluster| self.min_area_violation(layer, cluster)),
            );
        }
        out
    }

    /// The violation for one merged region of `layer`, if its union area
    /// falls short of the rule.
    fn min_area_violation(&self, layer: Layer, rects: Vec<Rect>) -> Option<Violation> {
        let region = Region::from_rects(rects);
        let area = region.area();
        self.short_of_rule(layer, area).then(|| Violation {
            kind: ViolationKind::MinArea,
            rect: region.bbox(),
            message: format!(
                "{} region area {:.2} um^2 < {} um^2",
                self.ctx.layer_name(layer),
                area as f64 / 1e6,
                self.ctx.min_area_um2(layer)
            ),
        })
    }

    /// True if an area in du² falls short of `layer`'s `minarea` rule.
    /// Monotone in the area, so a region is never short of a rule that
    /// one of its non-empty rectangles meets.
    fn short_of_rule(&self, layer: Layer, area: i128) -> bool {
        area as f64 / 1e6 + 1e-9 < self.ctx.min_area_um2(layer)
    }

    /// Minimum width / exact cut size per shape.
    pub fn check_widths(&self, obj: &LayoutObject) -> Vec<Violation> {
        self.widths_impl(obj, cover_test(obj))
    }

    /// Linear-scan baseline of [`check_widths`](Drc::check_widths).
    #[doc(hidden)]
    pub fn check_widths_scan(&self, obj: &LayoutObject) -> Vec<Violation> {
        self.widths_impl(obj, cover_test_scan(obj))
    }

    fn widths_impl(
        &self,
        obj: &LayoutObject,
        mut covered: impl FnMut(Layer, &Rect) -> bool,
    ) -> Vec<Violation> {
        self.ctx.metrics.add_drc_checks(1);
        let mut out = Vec::new();
        for s in obj.shapes() {
            let name = self.ctx.layer_name(s.layer);
            if self.ctx.kind(s.layer) == LayerKind::Cut {
                if let Ok(cs) = self.ctx.cut_size(s.layer) {
                    if s.rect.width() != cs || s.rect.height() != cs {
                        out.push(Violation {
                            kind: ViolationKind::CutSize,
                            rect: s.rect,
                            message: format!(
                                "{name} cut is {}x{}, must be {cs}x{cs}",
                                s.rect.width(),
                                s.rect.height()
                            ),
                        });
                    }
                }
                continue;
            }
            let w = self.ctx.min_width(s.layer);
            let min_dim = s.rect.width().min(s.rect.height());
            if w > 0 && min_dim < w && !self.widened_is_covered(s, w, &mut covered) {
                out.push(Violation {
                    kind: ViolationKind::Width,
                    rect: s.rect,
                    message: format!("{name} width {min_dim} < {w}"),
                });
            }
        }
        out
    }

    /// True if a narrow shape is part of a wider merged region: some
    /// min-width window containing the shape's narrow extent is fully
    /// covered by same-layer geometry (e.g. the short strap the compactor
    /// inserts between two wide diffusion areas).
    fn widened_is_covered(
        &self,
        s: &Shape,
        min_w: Coord,
        covered: &mut impl FnMut(Layer, &Rect) -> bool,
    ) -> bool {
        let r = s.rect;
        let narrow_x = r.width() < r.height();
        let candidates: [Rect; 3] = if narrow_x {
            [
                Rect::new(r.x1 - min_w, r.y0, r.x1, r.y1),
                Rect::new(r.x0, r.y0, r.x0 + min_w, r.y1),
                Rect::new(
                    r.center().x - min_w / 2,
                    r.y0,
                    r.center().x - min_w / 2 + min_w,
                    r.y1,
                ),
            ]
        } else {
            [
                Rect::new(r.x0, r.y1 - min_w, r.x1, r.y1),
                Rect::new(r.x0, r.y0, r.x1, r.y0 + min_w),
                Rect::new(
                    r.x0,
                    r.center().y - min_w / 2,
                    r.x1,
                    r.center().y - min_w / 2 + min_w,
                ),
            ]
        };
        candidates.iter().any(|window| covered(s.layer, window))
    }

    /// Spacing between disconnected shape pairs and same-layer shorts.
    ///
    /// The Manhattan separation `max(gap_x, gap_y)` must reach the rule.
    /// Pairs that touch or overlap are *connected* (same layer) or
    /// *stacked* (different layers, e.g. a gate crossing) and are exempt —
    /// except same-layer overlap of two **different defined potentials**,
    /// which is a short. Pairs that belong to the same geometrically
    /// extracted net are also exempt (same-net spacing, e.g. two fingers
    /// of one diffusion joined by a strap between them); the components
    /// come from [`Extractor::components`], the extraction memoised in
    /// the object's spatial index, whose table lists each shape's
    /// component ids, so a later `connectivity` or `parasitics` call on
    /// the same object does not extract again.
    ///
    /// Candidate pairs are the object's sign-off pairs
    /// ([`SpatialIndex::joins`](amgen_db::SpatialIndex::joins)) of every
    /// layer pair with a nonzero rule: the plan joins such a pair at its
    /// rule, the largest distance any consumer asks of it. Spacing rules
    /// are symmetric, so each unordered shape pair is found once. The
    /// join's closed-interval test on a rectangle inflated by the rule
    /// admits exactly the pairs with `gap_x <= rule && gap_y <= rule` — a
    /// superset of both reportable cases (`max(gap) < rule` spacing
    /// violations and `gap <= 0` shorts) — so no naive-loop pair is
    /// missed. Each pair, normalised to `(i, j)` with `i < j`, runs
    /// through the identical pair logic and yields at most one violation;
    /// the violations are sorted by their pairs, which is the naive
    /// loop's order.
    pub fn check_spacing(&self, obj: &LayoutObject) -> Vec<Violation> {
        self.ctx.metrics.add_drc_checks(1);
        let comp = Extractor::new(&self.ctx).components(obj);
        let same = |i, j| comp.share(i, j);
        let joins = obj.spatial_index().joins(self.rules());
        let mut covered = cover_test(obj);
        let (mut found, mut one) = (Vec::new(), Vec::new());
        for &(a, b, _) in self.ctx.signoff_plan() {
            if self.ctx.min_spacing(a, b).is_some_and(|rule| rule > 0) {
                for (i, j) in joins.between(a, b) {
                    let (i, j) = (i.min(j) as usize, i.max(j) as usize);
                    self.spacing_pair(obj, same, i, j, &mut covered, &mut one);
                    found.extend(one.drain(..).map(|v| ((i, j), v)));
                }
            }
        }
        found.sort_unstable_by_key(|(pair, _)| *pair);
        found.into_iter().map(|(_, v)| v).collect()
    }

    /// All-pairs baseline of [`check_spacing`](Drc::check_spacing). Its
    /// components come from the all-pairs
    /// [`connectivity_scan`](Extractor::connectivity_scan), so the
    /// baseline shares no code path (and no memo) with the kernel it
    /// audits.
    #[doc(hidden)]
    pub fn check_spacing_scan(&self, obj: &LayoutObject) -> Vec<Violation> {
        self.ctx.metrics.add_drc_checks(1);
        let mut out = Vec::new();
        let mut comp: Vec<Vec<usize>> = vec![Vec::new(); obj.len()];
        for (c, net) in Extractor::new(&self.ctx)
            .connectivity_scan(obj)
            .iter()
            .enumerate()
        {
            for &i in &net.shapes {
                comp[i].push(c);
            }
        }
        let same = |i: usize, j: usize| comp[i].iter().any(|c| comp[j].contains(c));
        let mut covered = cover_test_scan(obj);
        for i in 0..obj.shapes().len() {
            for j in (i + 1)..obj.shapes().len() {
                self.spacing_pair(obj, same, i, j, &mut covered, &mut out);
            }
        }
        out
    }

    /// The spacing predicate for one ordered pair `i < j`: shorts on
    /// touch with differing defined potentials, otherwise a spacing
    /// violation when the Manhattan gap undercuts the rule and no
    /// exemption applies: same net, same component (`same_component(i,
    /// j)`) or a filled gap.
    fn spacing_pair(
        &self,
        obj: &LayoutObject,
        same_component: impl Fn(usize, usize) -> bool,
        i: usize,
        j: usize,
        covered: &mut impl FnMut(Layer, &Rect) -> bool,
        out: &mut Vec<Violation>,
    ) {
        let a = &obj.shapes()[i];
        let b = &obj.shapes()[j];
        let Some(rule) = self.ctx.min_spacing(a.layer, b.layer) else {
            return;
        };
        if rule == 0 {
            return;
        }
        let gx = a.rect.gap_along(&b.rect, Axis::X);
        let gy = a.rect.gap_along(&b.rect, Axis::Y);
        let gap = gx.max(gy);
        let same_net = match (a.net, b.net) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        };
        let nets_defined_differ = matches!((a.net, b.net), (Some(x), Some(y)) if x != y);
        if gap <= 0 {
            // Touching or overlapping.
            if a.layer == b.layer && nets_defined_differ {
                out.push(Violation {
                    kind: ViolationKind::Short,
                    rect: a.rect.intersection(&b.rect).unwrap_or(a.rect),
                    message: format!(
                        "{} shapes on nets `{}` and `{}` touch",
                        self.ctx.layer_name(a.layer),
                        obj.net_name(a.net.expect("defined")),
                        obj.net_name(b.net.expect("defined")),
                    ),
                });
            }
            return;
        }
        if gap >= rule {
            return;
        }
        if a.layer == b.layer && (same_net || same_component(i, j)) {
            return;
        }
        // Pairwise gaps are only real when the space between the
        // two shapes is actually empty — a third same-layer shape
        // filling it makes the drawn geometry continuous.
        let gap_filled = a.layer == b.layer && {
            let between = if gx == gap {
                let yr = a.rect.y_range().intersection(&b.rect.y_range());
                yr.map(|y| {
                    let (lo, hi) = if a.rect.x0 >= b.rect.x1 {
                        (b.rect.x1, a.rect.x0)
                    } else {
                        (a.rect.x1, b.rect.x0)
                    };
                    Rect::new(lo, y.lo, hi, y.hi)
                })
            } else {
                let xr = a.rect.x_range().intersection(&b.rect.x_range());
                xr.map(|x| {
                    let (lo, hi) = if a.rect.y0 >= b.rect.y1 {
                        (b.rect.y1, a.rect.y0)
                    } else {
                        (a.rect.y1, b.rect.y0)
                    };
                    Rect::new(x.lo, lo, x.hi, hi)
                })
            };
            match between {
                Some(bx) => covered(a.layer, &bx),
                None => false,
            }
        };
        if !gap_filled {
            out.push(Violation {
                kind: ViolationKind::Spacing,
                rect: a.rect.union_bbox(&b.rect),
                message: format!(
                    "{} to {} gap {gap} < {rule}",
                    self.ctx.layer_name(a.layer),
                    self.ctx.layer_name(b.layer)
                ),
            });
        }
    }

    /// Every cut must be enclosed (with margins) by both conductors of one
    /// of its connectable pairs; unions of same-layer shapes count.
    ///
    /// Containment first: the object's sign-off pairs
    /// ([`SpatialIndex::joins`](amgen_db::SpatialIndex::joins)) of each
    /// (cut layer, connectable layer) record, per cut, the layers on
    /// which a single shape contains the cut's margin window. The plan
    /// joins such a pair at distance 0 or more, which misses nothing:
    /// margins are never negative, so a shape that contains the window
    /// contains the cut and touches it. A cut passes when both layers of
    /// some pair contain their windows. Only when no pair passes does the
    /// union cover test run, once per layer, over the layer's shapes near
    /// the window gathered into a reused buffer. Containment implies
    /// cover, so the result is the cover test's alone, whatever the order
    /// of evaluation.
    pub fn check_enclosures(&self, obj: &LayoutObject) -> Vec<Violation> {
        self.ctx.metrics.add_drc_checks(1);
        let shapes = obj.shapes();
        let ix = obj.spatial_index();
        let joins = ix.joins(self.rules());
        // Per layer index, per shape index: the cut's margin window on
        // that layer lies inside one shape of it. Sized only for the
        // layers some populated cut layer connects to.
        let mut contained_on: Vec<Vec<bool>> = vec![Vec::new(); self.ctx.layer_count()];
        let mut sides: Vec<Layer> = Vec::new();
        for cut in ix.populated_layers() {
            if self.ctx.kind(cut) != LayerKind::Cut {
                continue;
            }
            sides.clear();
            for &(a, b) in self.ctx.connected_pairs(cut) {
                for side in [a, b] {
                    if sides.contains(&side) {
                        continue;
                    }
                    sides.push(side);
                    let margin = self.ctx.enclosure(side, cut);
                    let hit = &mut contained_on[side.index()];
                    hit.resize(obj.len(), false);
                    for (c, r) in joins.between(cut, side) {
                        let window = shapes[c as usize].rect.inflated(margin);
                        if shapes[r as usize].rect.contains_rect(&window) {
                            hit[c as usize] = true;
                        }
                    }
                }
            }
        }
        let mut memo: Vec<(Layer, bool)> = Vec::new();
        let mut covered = cover_test(obj);
        let mut out = Vec::new();
        for (i, s) in shapes.iter().enumerate() {
            if self.ctx.kind(s.layer) != LayerKind::Cut {
                continue;
            }
            let pairs = self.ctx.connected_pairs(s.layer);
            let contained = |layer: Layer| contained_on[layer.index()].get(i) == Some(&true);
            if pairs.is_empty() || pairs.iter().any(|&(x, y)| contained(x) && contained(y)) {
                continue;
            }
            let encloses =
                |layer: Layer| covered(layer, &s.rect.inflated(self.ctx.enclosure(layer, s.layer)));
            if !any_pair(pairs, &mut memo, encloses) {
                out.push(self.enclosure_violation(s));
            }
        }
        out
    }

    /// Linear-scan baseline of [`check_enclosures`](Drc::check_enclosures):
    /// the union cover test per pair over every same-layer shape.
    #[doc(hidden)]
    pub fn check_enclosures_scan(&self, obj: &LayoutObject) -> Vec<Violation> {
        self.ctx.metrics.add_drc_checks(1);
        let mut covered = cover_test_scan(obj);
        let mut out = Vec::new();
        for s in obj.shapes() {
            if self.ctx.kind(s.layer) != LayerKind::Cut {
                continue;
            }
            let pairs = self.ctx.connected_pairs(s.layer);
            if pairs.is_empty() {
                continue;
            }
            let mut enclosed_by = |layer: Layer, shape: &Shape| -> bool {
                let margin = self.ctx.enclosure(layer, s.layer);
                covered(layer, &shape.rect.inflated(margin))
            };
            let ok = pairs
                .iter()
                .any(|&(x, y)| enclosed_by(x, s) && enclosed_by(y, s));
            if !ok {
                out.push(self.enclosure_violation(s));
            }
        }
        out
    }

    fn enclosure_violation(&self, cut: &Shape) -> Violation {
        Violation {
            kind: ViolationKind::Enclosure,
            rect: cut.rect,
            message: format!(
                "{} cut not enclosed by any connectable conductor pair",
                self.ctx.layer_name(cut.layer)
            ),
        }
    }
}

/// True if `test` holds on both layers of some pair. `test` runs at most
/// once per distinct layer; `memo` is scratch space reused across calls.
fn any_pair(
    pairs: &[(Layer, Layer)],
    memo: &mut Vec<(Layer, bool)>,
    mut test: impl FnMut(Layer) -> bool,
) -> bool {
    memo.clear();
    let mut eval = |layer: Layer| match memo.iter().find(|(l, _)| *l == layer) {
        Some(&(_, v)) => v,
        None => {
            let v = test(layer);
            memo.push((layer, v));
            v
        }
    };
    pairs.iter().any(|&(x, y)| eval(x) && eval(y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use amgen_db::{Components, Shape};
    use amgen_geom::{um, Rect};
    use amgen_prim::Primitives;
    use amgen_tech::Tech;

    fn tech() -> GenCtx {
        GenCtx::from_tech(&Tech::bicmos_1u())
    }

    #[test]
    fn clean_contact_row_passes() {
        let t = tech();
        let prim = Primitives::new(&t);
        let poly = t.layer("poly").unwrap();
        let m1 = t.layer("metal1").unwrap();
        let ct = t.layer("contact").unwrap();
        let mut row = LayoutObject::new("row");
        prim.inbox(&mut row, poly, Some(um(10)), None).unwrap();
        prim.inbox(&mut row, m1, None, None).unwrap();
        prim.array(&mut row, ct).unwrap();
        let v = Drc::new(&t).check(&row);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn narrow_shape_fails_width() {
        let t = tech();
        let poly = t.layer("poly").unwrap();
        let mut obj = LayoutObject::new("x");
        obj.push(Shape::new(poly, Rect::new(0, 0, 400, um(5))));
        let v = Drc::new(&t).check_widths(&obj);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::Width);
    }

    #[test]
    fn wrong_cut_size_fails() {
        let t = tech();
        let ct = t.layer("contact").unwrap();
        let mut obj = LayoutObject::new("x");
        obj.push(Shape::new(ct, Rect::new(0, 0, 800, 1_000)));
        let v = Drc::new(&t).check_widths(&obj);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::CutSize);
    }

    #[test]
    fn close_poly_pair_fails_spacing() {
        let t = tech();
        let poly = t.layer("poly").unwrap();
        let mut obj = LayoutObject::new("x");
        obj.push(Shape::new(poly, Rect::new(0, 0, um(1), um(5))));
        obj.push(Shape::new(poly, Rect::new(um(2), 0, um(3), um(5))));
        let v = Drc::new(&t).check_spacing(&obj);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::Spacing);
    }

    #[test]
    fn spaced_poly_pair_passes() {
        let t = tech();
        let poly = t.layer("poly").unwrap();
        let s = t.min_spacing(poly, poly).unwrap();
        let mut obj = LayoutObject::new("x");
        obj.push(Shape::new(poly, Rect::new(0, 0, um(1), um(5))));
        obj.push(Shape::new(poly, Rect::new(um(1) + s, 0, um(2) + s, um(5))));
        assert!(Drc::new(&t).check_spacing(&obj).is_empty());
    }

    #[test]
    fn touching_same_layer_different_nets_is_a_short() {
        let t = tech();
        let m1 = t.layer("metal1").unwrap();
        let mut obj = LayoutObject::new("x");
        let a = obj.net("vdd");
        let b = obj.net("gnd");
        obj.push(Shape::new(m1, Rect::new(0, 0, um(2), um(2))).with_net(a));
        obj.push(Shape::new(m1, Rect::new(um(1), 0, um(3), um(2))).with_net(b));
        let v = Drc::new(&t).check_spacing(&obj);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::Short);
    }

    #[test]
    fn touching_same_net_is_fine() {
        let t = tech();
        let m1 = t.layer("metal1").unwrap();
        let mut obj = LayoutObject::new("x");
        let a = obj.net("vdd");
        obj.push(Shape::new(m1, Rect::new(0, 0, um(2), um(2))).with_net(a));
        obj.push(Shape::new(m1, Rect::new(um(1), 0, um(3), um(2))).with_net(a));
        assert!(Drc::new(&t).check_spacing(&obj).is_empty());
    }

    #[test]
    fn gate_crossing_is_not_a_spacing_violation() {
        let t = tech();
        let prim = Primitives::new(&t);
        let poly = t.layer("poly").unwrap();
        let pdiff = t.layer("pdiff").unwrap();
        let mut obj = LayoutObject::new("m");
        prim.two_rects(&mut obj, poly, pdiff, Some(um(10)), Some(um(1)))
            .unwrap();
        assert!(Drc::new(&t).check_spacing(&obj).is_empty());
    }

    #[test]
    fn diagonal_spacing_is_checked() {
        let t = tech();
        let poly = t.layer("poly").unwrap();
        let mut obj = LayoutObject::new("x");
        obj.push(Shape::new(poly, Rect::new(0, 0, um(2), um(2))));
        // Diagonal neighbour: 1 um in x and y (< 1.5 um rule).
        obj.push(Shape::new(poly, Rect::new(um(3), um(3), um(5), um(5))));
        let v = Drc::new(&t).check_spacing(&obj);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn naked_cut_fails_enclosure() {
        let t = tech();
        let ct = t.layer("contact").unwrap();
        let mut obj = LayoutObject::new("x");
        obj.push(Shape::new(ct, Rect::new(0, 0, 1_000, 1_000)));
        let v = Drc::new(&t).check_enclosures(&obj);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::Enclosure);
    }

    #[test]
    fn cut_enclosed_by_two_abutting_metal_rects_passes() {
        let t = tech();
        let poly = t.layer("poly").unwrap();
        let m1 = t.layer("metal1").unwrap();
        let ct = t.layer("contact").unwrap();
        let mut obj = LayoutObject::new("x");
        obj.push(Shape::new(poly, Rect::new(0, 0, um(4), um(4))));
        // Metal made of two halves that only jointly enclose the cut.
        obj.push(Shape::new(m1, Rect::new(0, 0, um(2), um(4))));
        obj.push(Shape::new(m1, Rect::new(um(2), 0, um(4), um(4))));
        obj.push(Shape::new(ct, Rect::new(1_500, 1_500, 2_500, 2_500)));
        let v = Drc::new(&t).check_enclosures(&obj);
        assert!(v.is_empty(), "{v:?}");
    }

    /// Once the object's components are memoised, the spacing check reads
    /// them and extracts nothing itself: a memo claiming that two
    /// unconnected bars form one component exempts their gap.
    #[test]
    fn spacing_reads_the_component_memo() {
        let t = tech();
        let poly = t.layer("poly").unwrap();
        let mut obj = LayoutObject::new("x");
        obj.push(Shape::new(poly, Rect::new(0, 0, um(1), um(5))));
        obj.push(Shape::new(poly, Rect::new(um(2), 0, um(3), um(5))));
        let drc = Drc::new(&t);
        assert_eq!(drc.check_spacing(&obj).len(), 1);
        obj.shapes_mut();
        let mut sets = DisjointSets::new(2);
        sets.union(0, 1);
        obj.spatial_index()
            .components(t.id(), || Components::from_sets(&mut sets, [0..1, 1..2]));
        assert!(drc.check_spacing(&obj).is_empty());
        assert_eq!(
            drc.check_spacing_scan(&obj).len(),
            1,
            "the scan reads no memo"
        );
    }

    /// The indexed checker must reproduce the linear-scan checker byte
    /// for byte — on a clean generated row and on a deliberately dirty
    /// object that trips width, cut-size, spacing, short, enclosure and
    /// min-area rules at once.
    #[test]
    fn indexed_check_matches_scan_byte_for_byte() {
        let t = tech();
        let prim = Primitives::new(&t);
        let poly = t.layer("poly").unwrap();
        let m1 = t.layer("metal1").unwrap();
        let ct = t.layer("contact").unwrap();
        let drc = Drc::new(&t);

        let mut row = LayoutObject::new("row");
        prim.inbox(&mut row, poly, Some(um(10)), None).unwrap();
        prim.inbox(&mut row, m1, None, None).unwrap();
        prim.array(&mut row, ct).unwrap();
        assert_eq!(drc.check(&row), drc.check_scan(&row));

        let mut dirty = LayoutObject::new("dirty");
        let vdd = dirty.net("vdd");
        let gnd = dirty.net("gnd");
        dirty.push(Shape::new(poly, Rect::new(0, 0, 400, um(5))));
        dirty.push(Shape::new(poly, Rect::new(um(2), 0, um(3), um(5))));
        dirty.push(Shape::new(m1, Rect::new(0, um(8), um(2), um(10))).with_net(vdd));
        dirty.push(Shape::new(m1, Rect::new(um(1), um(8), um(3), um(10))).with_net(gnd));
        dirty.push(Shape::new(
            m1,
            Rect::new(um(10), um(10), um(11) + 500, um(11) + 500),
        ));
        dirty.push(Shape::new(ct, Rect::new(um(20), 0, um(20) + 800, 1_000)));
        dirty.push(Shape::new(ct, Rect::new(um(24), 0, um(24) + 1_000, 1_000)));
        let indexed = drc.check(&dirty);
        let scan = drc.check_scan(&dirty);
        assert!(!indexed.is_empty());
        assert_eq!(indexed, scan);
    }

    #[test]
    fn cut_with_insufficient_margin_fails() {
        let t = tech();
        let poly = t.layer("poly").unwrap();
        let m1 = t.layer("metal1").unwrap();
        let ct = t.layer("contact").unwrap();
        let mut obj = LayoutObject::new("x");
        obj.push(Shape::new(poly, Rect::new(0, 0, um(2), um(2))));
        obj.push(Shape::new(m1, Rect::new(0, 0, um(2), um(2))));
        // Cut flush against the poly edge: 0 margin < 500 required.
        obj.push(Shape::new(ct, Rect::new(0, 0, 1_000, 1_000)));
        let v = Drc::new(&t).check_enclosures(&obj);
        assert_eq!(v.len(), 1);
    }
}

#[cfg(test)]
mod min_area_tests {
    use super::*;
    use amgen_db::Shape;
    use amgen_geom::{um, Rect};
    use amgen_tech::Tech;

    #[test]
    fn tiny_isolated_metal_fails_min_area() {
        let t = GenCtx::from_tech(&Tech::bicmos_1u());
        let m1 = t.layer("metal1").unwrap();
        let mut obj = LayoutObject::new("x");
        // 1.5 x 1.5 um = 2.25 um^2 < 4 um^2.
        obj.push(Shape::new(m1, Rect::new(0, 0, 1_500, 1_500)));
        let v = Drc::new(&t).check_min_area(&obj);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::MinArea);
    }

    #[test]
    fn touching_fragments_count_as_one_region() {
        let t = GenCtx::from_tech(&Tech::bicmos_1u());
        let m1 = t.layer("metal1").unwrap();
        let mut obj = LayoutObject::new("x");
        // Two 1.5 x 1.5 squares abutting: 4.5 um^2 together.
        obj.push(Shape::new(m1, Rect::new(0, 0, 1_500, 1_500)));
        obj.push(Shape::new(m1, Rect::new(1_500, 0, 3_000, 1_500)));
        assert!(Drc::new(&t).check_min_area(&obj).is_empty());
    }

    #[test]
    fn overlap_is_not_double_counted() {
        let t = GenCtx::from_tech(&Tech::bicmos_1u());
        let m1 = t.layer("metal1").unwrap();
        let mut obj = LayoutObject::new("x");
        // Two heavily overlapping squares: union is still 2.4 um^2 < 4.
        obj.push(Shape::new(m1, Rect::new(0, 0, 1_500, 1_500)));
        obj.push(Shape::new(m1, Rect::new(100, 0, 1_600, 1_500)));
        let v = Drc::new(&t).check_min_area(&obj);
        assert_eq!(v.len(), 1);
    }

    /// A member exactly at the rule clears its cluster without a sweep:
    /// a 2 x 2 um square is bicmos_1u's 4 um^2, and the 0.1 x 0.1 um
    /// square abutting it changes nothing. The same tiny square on its
    /// own still fails, and so does a 2 x 1.999 um rect, 1 nm short of
    /// the rule. (`touching_fragments_count_as_one_region` is the
    /// cluster that reaches the rule only jointly, through the sweep.)
    #[test]
    fn one_member_at_the_rule_clears_its_cluster() {
        let t = GenCtx::from_tech(&Tech::bicmos_1u());
        let m1 = t.layer("metal1").unwrap();
        let mut obj = LayoutObject::new("x");
        obj.push(Shape::new(m1, Rect::new(0, 0, 2_000, 2_000)));
        obj.push(Shape::new(m1, Rect::new(2_000, 0, 2_100, 100)));
        obj.push(Shape::new(m1, Rect::new(9_000, 0, 9_100, 100)));
        obj.push(Shape::new(m1, Rect::new(0, 9_000, 2_000, 10_999)));
        let drc = Drc::new(&t);
        let v = drc.check_min_area(&obj);
        let rects: Vec<Rect> = v.iter().map(|v| v.rect).collect();
        assert_eq!(
            rects,
            [
                Rect::new(9_000, 0, 9_100, 100),
                Rect::new(0, 9_000, 2_000, 10_999)
            ]
        );
        assert_eq!(v, drc.check_min_area_scan(&obj));
    }

    #[test]
    fn generated_modules_pass_min_area() {
        let t = GenCtx::from_tech(&Tech::bicmos_1u());
        let poly = t.layer("poly").unwrap();
        let row = amgen_prim_row(&t, poly);
        let v = Drc::new(&t).check_min_area(&row);
        assert!(v.is_empty(), "{v:?}");
    }

    fn amgen_prim_row(t: &GenCtx, poly: amgen_tech::Layer) -> LayoutObject {
        use amgen_prim::Primitives;
        let prim = Primitives::new(t);
        let m1 = t.layer("metal1").unwrap();
        let ct = t.layer("contact").unwrap();
        let mut row = LayoutObject::new("row");
        prim.inbox(&mut row, poly, Some(um(10)), None).unwrap();
        prim.inbox(&mut row, m1, None, None).unwrap();
        prim.array(&mut row, ct).unwrap();
        row
    }

    #[test]
    fn layers_without_rule_are_unchecked() {
        let t = GenCtx::from_tech(&Tech::bicmos_1u());
        let poly = t.layer("poly").unwrap();
        let mut obj = LayoutObject::new("x");
        obj.push(Shape::new(poly, Rect::new(0, 0, 1_000, 1_000)));
        assert!(Drc::new(&t).check_min_area(&obj).is_empty());
    }
}
