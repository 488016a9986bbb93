//! The rule checks: width, spacing, shorts, enclosure, cut size.

use amgen_core::{GenCtx, Stage};
use amgen_db::{LayoutObject, Shape};
use amgen_extract::Extractor;
use amgen_geom::{Axis, Coord, Rect, Region};
use amgen_tech::{Layer, LayerKind, RuleSet};

use crate::latchup;
use crate::violation::{Violation, ViolationKind};

/// Cover-rectangle source for the width and gap-fill union tests (and
/// the enclosure baseline): the spatial index returns only the
/// same-layer shapes near the window, in shape order — exact, because a
/// cover that does not overlap the window cannot cut anything from it —
/// while the scan source returns every same-layer shape, reproducing the
/// pre-index behaviour for the equivalence baselines.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Candidates {
    Indexed,
    Scan,
}

impl Candidates {
    fn covers(self, obj: &LayoutObject, layer: Layer, window: &Rect) -> Vec<Rect> {
        match self {
            Candidates::Indexed => obj
                .spatial_index()
                .query_overlapping(layer, window)
                .into_iter()
                .map(|i| obj.shapes()[i].rect)
                .collect(),
            Candidates::Scan => obj.shapes_on(layer).map(|s| s.rect).collect(),
        }
    }
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
    /// tree joins instead of all-pairs scans — and produces output
    /// byte-identical to the pre-index checker
    /// ([`check_scan`](Drc::check_scan)). The spacing check's extraction
    /// is memoised in the index: after
    /// [`Extractor::connectivity`] has run on the object, this runs no
    /// extraction, and a `connectivity` call after it extracts nothing.
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
    /// `minarea` rule. Touching pairs come from one self-join of each
    /// ruled layer's tree ([`RectTree::self_join_within`] at distance 0)
    /// instead of an all-pairs sweep; the union-find they feed is
    /// order-free.
    ///
    /// [`RectTree::self_join_within`]: amgen_geom::RectTree::self_join_within
    pub fn check_min_area(&self, obj: &LayoutObject) -> Vec<Violation> {
        self.ctx.metrics.add_drc_checks(1);
        let shapes = obj.shapes();
        let ruled = |l: Layer| self.ctx.min_area_um2(l) > 0.0;
        let ix = obj.spatial_index();
        let mut parent: Vec<usize> = (0..shapes.len()).collect();
        for layer in ix.populated_layers().filter(|&l| ruled(l)) {
            let tree = ix.layer(layer).expect("populated layer");
            tree.self_join_within(0, |i, a, j, b| {
                if a.overlaps(b) || a.abuts(b) {
                    union(&mut parent, i as usize, j as usize);
                }
            });
        }
        // Clusters in the order of their smallest member, each listing
        // its rectangles in shape order, then grouped by layer (stably):
        // the scan's order, whatever order the unions came in.
        let mut slot = vec![usize::MAX; shapes.len()];
        let mut clusters: Vec<(Layer, Vec<Rect>)> = Vec::new();
        for (i, s) in shapes.iter().enumerate() {
            if !ruled(s.layer) {
                continue;
            }
            let root = find(&mut parent, i);
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
            let mut parent: Vec<usize> = (0..rects.len()).collect();
            for i in 0..rects.len() {
                for j in (i + 1)..rects.len() {
                    if rects[i].overlaps(&rects[j]) || rects[i].abuts(&rects[j]) {
                        union(&mut parent, i, j);
                    }
                }
            }
            let mut clusters: std::collections::BTreeMap<usize, Vec<Rect>> = Default::default();
            let mut min_of_root: std::collections::HashMap<usize, usize> = Default::default();
            for (i, rect) in rects.iter().enumerate() {
                let key = *min_of_root.entry(find(&mut parent, i)).or_insert(i);
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
        let rule_um2 = self.ctx.min_area_um2(layer);
        let region = Region::from_rects(rects);
        let area_um2 = region.area() as f64 / 1e6;
        (area_um2 + 1e-9 < rule_um2).then(|| Violation {
            kind: ViolationKind::MinArea,
            rect: region.bbox(),
            message: format!(
                "{} region area {area_um2:.2} um^2 < {rule_um2} um^2",
                self.ctx.layer_name(layer)
            ),
        })
    }

    /// Minimum width / exact cut size per shape.
    pub fn check_widths(&self, obj: &LayoutObject) -> Vec<Violation> {
        self.widths_impl(obj, Candidates::Indexed)
    }

    /// Linear-scan baseline of [`check_widths`](Drc::check_widths).
    #[doc(hidden)]
    pub fn check_widths_scan(&self, obj: &LayoutObject) -> Vec<Violation> {
        self.widths_impl(obj, Candidates::Scan)
    }

    fn widths_impl(&self, obj: &LayoutObject, mode: Candidates) -> Vec<Violation> {
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
            if w > 0 && min_dim < w && !self.widened_is_covered(obj, s, w, mode) {
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
        obj: &LayoutObject,
        s: &Shape,
        min_w: Coord,
        mode: Candidates,
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
        candidates
            .iter()
            .any(|window| Region::from_rect(*window).covered_by(mode.covers(obj, s.layer, window)))
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
    /// the object's spatial index, so a later `connectivity` or
    /// `parasitics` call on the same object does not extract again.
    ///
    /// Candidate pairs come from one tree join per populated layer pair
    /// with a nonzero rule ([`RectTree::join_within`], or
    /// [`RectTree::self_join_within`] within a layer). Spacing rules are
    /// symmetric, so each unordered shape pair is found once. The join's
    /// closed-interval test on a rectangle inflated by the rule admits
    /// exactly the pairs with `gap_x <= rule && gap_y <= rule` — a
    /// superset of both reportable cases (`max(gap) < rule` spacing
    /// violations and `gap <= 0` shorts) — so no naive-loop pair is
    /// missed. The pairs are normalised to `(i, j)` with `i < j` and
    /// sorted, then run through the identical pair logic in the naive
    /// loop's order.
    ///
    /// [`RectTree::join_within`]: amgen_geom::RectTree::join_within
    /// [`RectTree::self_join_within`]: amgen_geom::RectTree::self_join_within
    pub fn check_spacing(&self, obj: &LayoutObject) -> Vec<Violation> {
        self.ctx.metrics.add_drc_checks(1);
        let comp =
            ShapeComponents::new(obj.len(), Extractor::new(&self.ctx).components(obj).iter());
        let ix = obj.spatial_index();
        let trees: Vec<_> = ix
            .populated_layers()
            .filter_map(|l| Some((l, ix.layer(l)?)))
            .collect();
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let mut pair = |i: u32, _: &Rect, j: u32, _: &Rect| pairs.push((i.min(j), i.max(j)));
        for (k, &(la, ta)) in trees.iter().enumerate() {
            for &(lb, tb) in &trees[k..] {
                match self.ctx.min_spacing(la, lb) {
                    Some(rule) if rule > 0 && la == lb => ta.self_join_within(rule, &mut pair),
                    Some(rule) if rule > 0 => ta.join_within(tb, rule, &mut pair),
                    _ => {}
                }
            }
        }
        pairs.sort_unstable();
        let mut out = Vec::new();
        for (i, j) in pairs {
            self.spacing_pair(
                obj,
                &comp,
                i as usize,
                j as usize,
                Candidates::Indexed,
                &mut out,
            );
        }
        out
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
        let nets = Extractor::new(&self.ctx).connectivity_scan(obj);
        let comp = ShapeComponents::new(obj.len(), nets.iter().map(|n| &n.shapes));
        for i in 0..obj.shapes().len() {
            for j in (i + 1)..obj.shapes().len() {
                self.spacing_pair(obj, &comp, i, j, Candidates::Scan, &mut out);
            }
        }
        out
    }

    /// The spacing predicate for one ordered pair `i < j`: shorts on
    /// touch with differing defined potentials, otherwise a spacing
    /// violation when the Manhattan gap undercuts the rule and no
    /// exemption (same net / same component / filled gap) applies.
    fn spacing_pair(
        &self,
        obj: &LayoutObject,
        comp: &ShapeComponents,
        i: usize,
        j: usize,
        mode: Candidates,
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
        if a.layer == b.layer && (same_net || comp.share(i, j)) {
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
                Some(bx) => Region::from_rect(bx).covered_by(mode.covers(obj, a.layer, &bx)),
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
    /// Containment first: a cut passes when some pair has each of its two
    /// margin windows inside one shape (an `any_candidate` probe on the
    /// layer's tree, once per distinct layer). Only when no pair passes
    /// does the union cover test run, once per layer, over the layer's
    /// shapes near the window gathered into a reused buffer. Containment
    /// implies cover, so the result is the cover test's alone, whatever
    /// the order of evaluation.
    pub fn check_enclosures(&self, obj: &LayoutObject) -> Vec<Violation> {
        self.ctx.metrics.add_drc_checks(1);
        let ix = obj.spatial_index();
        let mut memo: Vec<(Layer, bool)> = Vec::new();
        let mut covers: Vec<Rect> = Vec::new();
        let mut out = Vec::new();
        for s in obj.shapes() {
            if self.ctx.kind(s.layer) != LayerKind::Cut {
                continue;
            }
            let pairs = self.ctx.connected_pairs(s.layer);
            if pairs.is_empty() {
                continue;
            }
            let window = |layer: Layer| s.rect.inflated(self.ctx.enclosure(layer, s.layer));
            let contained = |layer: Layer| {
                let w = window(layer);
                ix.layer(layer)
                    .is_some_and(|t| t.any_candidate(&w, |_, r| r.contains_rect(&w)))
            };
            let covered = |layer: Layer| {
                let w = window(layer);
                covers.clear();
                if let Some(t) = ix.layer(layer) {
                    t.for_each_candidate(&w, |_, r| covers.push(*r));
                }
                Region::from_rect(w).covered_by(covers.iter().copied())
            };
            if !any_pair(pairs, &mut memo, contained) && !any_pair(pairs, &mut memo, covered) {
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
        let mut out = Vec::new();
        for s in obj.shapes() {
            if self.ctx.kind(s.layer) != LayerKind::Cut {
                continue;
            }
            let pairs = self.ctx.connected_pairs(s.layer);
            if pairs.is_empty() {
                continue;
            }
            let enclosed_by = |layer: Layer, shape: &Shape| -> bool {
                let margin = self.ctx.enclosure(layer, s.layer);
                let window = shape.rect.inflated(margin);
                Region::from_rect(window).covered_by(Candidates::Scan.covers(obj, layer, &window))
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

/// The root of `i`'s set, by path halving. Iterative: a chain of
/// abutting shapes can build a parent chain as long as itself.
fn find(parent: &mut [usize], mut i: usize) -> usize {
    while parent[i] != i {
        parent[i] = parent[parent[i]];
        i = parent[i];
    }
    i
}

/// Joins the sets of `i` and `j`.
fn union(parent: &mut [usize], i: usize, j: usize) {
    let (ri, rj) = (find(parent, i), find(parent, j));
    if ri != rj {
        parent[ri] = rj;
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

/// The components each shape belongs to (a gate-split diffusion shape
/// belongs to several), flat: shape `i`'s component ids are
/// `ids[first[i]..first[i + 1]]`, ascending.
struct ShapeComponents {
    first: Vec<u32>,
    ids: Vec<u32>,
}

impl ShapeComponents {
    /// The table for `shapes` shapes from the components' member lists.
    fn new<'a, I>(shapes: usize, lists: I) -> ShapeComponents
    where
        I: Iterator<Item = &'a Vec<usize>> + Clone,
    {
        // Count per shape into `first[i + 1]`, prefix-sum, then fill with
        // `first[i]` as the write cursor — which leaves it at the next
        // shape's start, so one shift restores the offsets.
        let mut first = vec![0u32; shapes + 1];
        for &s in lists.clone().flatten() {
            first[s + 1] += 1;
        }
        for i in 0..shapes {
            first[i + 1] += first[i];
        }
        let mut ids = vec![0u32; first[shapes] as usize];
        for (c, list) in lists.enumerate() {
            for &s in list {
                ids[first[s] as usize] = c as u32;
                first[s] += 1;
            }
        }
        first.rotate_right(1);
        first[0] = 0;
        ShapeComponents { first, ids }
    }

    fn of(&self, i: usize) -> &[u32] {
        &self.ids[self.first[i] as usize..self.first[i + 1] as usize]
    }

    /// True if shapes `i` and `j` share a component.
    fn share(&self, i: usize, j: usize) -> bool {
        let b = self.of(j);
        self.of(i).iter().any(|c| b.contains(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amgen_db::Shape;
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
        obj.spatial_index().components(t.id(), || vec![vec![0, 1]]);
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
