//! The spatial index over a layout object's shapes.
//!
//! [`SpatialIndex`] answers the questions that DRC, extraction and the
//! latch-up check used to answer by scanning the flat shape vector:
//! *which shapes on layer L come near this window?*, and through its
//! trees' joins, *which pairs of shapes on layers L and M come within a
//! distance of each other?* It wraps one packed
//! [`RectTree`] per populated layer plus one per semantic
//! [`ShapeRole`] (the latch-up check is role-driven,
//! not layer-driven), and caches the whole-object and per-layer bounding
//! boxes as a side effect of the build. It also memoises two results
//! under one rule deck: the candidate pairs of the deck's sign-off plan
//! ([`joins`](SpatialIndex::joins)), so each layer pair is joined once
//! per object and every sign-off consumer filters the same pairs, and
//! the object's connected components
//! ([`components`](SpatialIndex::components)), so one sign-off extracts
//! once.
//!
//! # Lifecycle and invalidation
//!
//! The index is **derived state**: [`LayoutObject::spatial_index`]
//! builds it lazily on first use, and every geometry mutation
//! (`push`, `shapes_mut`, `remove_shapes`, `translate`, `absorb`, the
//! mirror copies) drops it, and both memos with it. It never
//! participates in equality, signatures or serialization — holding a
//! warm or cold index is not an observable difference. The memos hold
//! geometry only (shape indices), never net names, so renaming nets
//! (`rename_net`, `rename_label`, `prefixed`) leaves them valid.
//!
//! # Determinism contract
//!
//! The trees' visitors ([`RectTree::for_each_candidate`],
//! [`RectTree::any_candidate`] and the joins
//! [`RectTree::join_within`] / [`RectTree::self_join_within`]) run in
//! tree order (deterministic for a given shape vector, but
//! unspecified), and so do the pair lists of [`PlanPairs`]. Their
//! consumers either sort what they collect or fold it order-free:
//!
//! * DRC spacing sorts its violations by their normalised pairs;
//! * gate splitting sorts each diffusion shape's gates into ascending
//!   shape order, the order that fixes the fragments;
//! * extraction and min-area feed order-free union-finds;
//! * the enclosure check sets per-cut containment flags;
//! * DRC's width, gap-fill and enclosure cover tests gather their
//!   covers with `for_each_candidate`, and a cover test's answer is a
//!   bool, which no order of the covers can change;
//! * the latch-up check probes containment with `any_candidate` and
//!   subtracts its covers in the ascending order of
//!   [`RectTree::query_into`].
//!
//! # Candidate semantics
//!
//! Queries use the [`RectTree`] candidate test: closed-interval
//! comparison of raw corner coordinates, which covers strict overlap,
//! edge/corner abutment and degenerate rectangles. Callers re-apply
//! their exact predicate; the index guarantees only that no qualifying
//! shape is missed.
//!
//! [`LayoutObject::spatial_index`]: crate::LayoutObject::spatial_index

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::OnceLock;

use amgen_geom::{Rect, RectTree};
use amgen_tech::{Layer, RuleSet};

use crate::shape::{Shape, ShapeRole};

/// Per-layer and per-role window-query index over one object's shapes.
///
/// Obtained from [`LayoutObject::spatial_index`]; see the module docs
/// for the lifecycle, determinism and candidate-semantics contracts.
///
/// [`LayoutObject::spatial_index`]: crate::LayoutObject::spatial_index
#[derive(Debug, Clone)]
pub struct SpatialIndex {
    layers: BTreeMap<Layer, RectTree>,
    /// Bounding boxes per layer with [`Rect::union_bbox`] semantics
    /// (empty shape rects are ignored), matching a `bbox_on` scan.
    layer_bounds: BTreeMap<Layer, Rect>,
    active: RectTree,
    substrate: RectTree,
    /// Whole-object bounding box, `union_bbox` semantics.
    bbox: Rect,
    /// Component member lists, with the id of the deck that made them.
    components: OnceLock<(u32, Vec<Vec<usize>>)>,
    /// The sign-off plan's pair lists, with the id of the deck whose
    /// plan made them.
    joins: OnceLock<(u32, PlanPairs)>,
}

/// The candidate shape pairs of a deck's sign-off plan
/// ([`RuleSet::signoff_plan`]) over one object: for every plan entry
/// `(a, b, distance)`, each pair of a shape on `a` and a shape on `b`
/// whose rectangles come within `distance` under the closed-interval
/// candidate test ([`RectTree::join_within`], or
/// [`RectTree::self_join_within`] when `a == b`). Obtained from
/// [`SpatialIndex::joins`].
#[derive(Debug, Clone)]
pub struct PlanPairs {
    /// The plan's layer pairs, `a <= b`, ascending.
    entries: Vec<(Layer, Layer)>,
    /// Entry `k`'s pairs are `pairs[first[k]..first[k + 1]]`.
    first: Vec<u32>,
    /// `(shape on a, shape on b)`, in tree order.
    pairs: Vec<(u32, u32)>,
}

impl PlanPairs {
    /// The candidate pairs between layers `a` and `b` as `(shape on a,
    /// shape on b)` shape indices, in tree order; within one layer each
    /// unordered pair comes once. Empty when the plan has no join for
    /// the pair or a layer is unpopulated.
    pub fn between(&self, a: Layer, b: Layer) -> impl Iterator<Item = (u32, u32)> + '_ {
        let swap = b < a;
        let key = if swap { (b, a) } else { (a, b) };
        let list = match self.entries.binary_search(&key) {
            Ok(k) => &self.pairs[self.first[k] as usize..self.first[k + 1] as usize],
            Err(_) => &[],
        };
        list.iter()
            .map(move |&(p, q)| if swap { (q, p) } else { (p, q) })
    }
}

impl SpatialIndex {
    /// Builds the index for a shape vector. Pure function of the input:
    /// identical shapes produce identical trees and query results.
    pub(crate) fn build(shapes: &[Shape]) -> SpatialIndex {
        let mut per_layer: BTreeMap<Layer, Vec<(Rect, u32)>> = BTreeMap::new();
        let mut layer_bounds: BTreeMap<Layer, Rect> = BTreeMap::new();
        let mut active = Vec::new();
        let mut substrate = Vec::new();
        let mut bbox = Rect::EMPTY;
        for (i, s) in shapes.iter().enumerate() {
            per_layer
                .entry(s.layer)
                .or_default()
                .push((s.rect, i as u32));
            let lb = layer_bounds.entry(s.layer).or_insert(Rect::EMPTY);
            *lb = lb.union_bbox(&s.rect);
            bbox = bbox.union_bbox(&s.rect);
            match s.role {
                ShapeRole::Normal => {}
                ShapeRole::DeviceActive => active.push((s.rect, i as u32)),
                ShapeRole::SubstrateContact => substrate.push((s.rect, i as u32)),
            }
        }
        SpatialIndex {
            layers: per_layer
                .into_iter()
                .map(|(l, v)| (l, RectTree::build(v)))
                .collect(),
            layer_bounds,
            active: RectTree::build(active),
            substrate: RectTree::build(substrate),
            bbox,
            components: OnceLock::new(),
            joins: OnceLock::new(),
        }
    }

    /// The tree over one layer's shapes, if the layer is populated.
    /// Payloads are indices into the owning object's shape vector.
    pub fn layer(&self, layer: Layer) -> Option<&RectTree> {
        self.layers.get(&layer)
    }

    /// The tree over one role's shapes ([`ShapeRole::Normal`] is not
    /// indexed by role — use the layer trees).
    pub fn role(&self, role: ShapeRole) -> Option<&RectTree> {
        match role {
            ShapeRole::Normal => None,
            ShapeRole::DeviceActive => Some(&self.active),
            ShapeRole::SubstrateContact => Some(&self.substrate),
        }
    }

    /// The connected components of the shapes under the rule deck with
    /// id `deck`: each component's member shape indices, memoised.
    ///
    /// The first call runs `extract` and keeps its result with `deck`;
    /// later calls with the same id return it without running `extract`.
    /// A call with another deck's id runs `extract` and returns the
    /// result without keeping it. The memo lives and dies with the
    /// index, so every geometry mutation drops it; it holds no net
    /// names, so renaming nets does not.
    pub fn components(
        &self,
        deck: u32,
        extract: impl FnOnce() -> Vec<Vec<usize>>,
    ) -> Cow<'_, [Vec<usize>]> {
        let mut extract = Some(extract);
        let (id, lists) = self
            .components
            .get_or_init(|| (deck, extract.take().expect("init runs at most once")()));
        match extract {
            Some(extract) if *id != deck => Cow::Owned(extract()),
            _ => Cow::Borrowed(lists),
        }
    }

    /// The candidate pairs of `rules`' sign-off plan over the shapes,
    /// memoised: the one place sign-off runs its tree joins.
    ///
    /// The first call runs every join of the plan once, each at its
    /// entry's distance, and keeps the pair lists with the deck's id;
    /// later calls with the same deck return them. A call with another
    /// deck runs its plan and returns the result without keeping it.
    /// Like the component memo, it lives and dies with the index.
    pub fn joins(&self, rules: &RuleSet) -> Cow<'_, PlanPairs> {
        let deck = rules.id();
        let (id, pairs) = self.joins.get_or_init(|| (deck, self.run_plan(rules)));
        if *id == deck {
            Cow::Borrowed(pairs)
        } else {
            Cow::Owned(self.run_plan(rules))
        }
    }

    /// Runs each join of `rules`' sign-off plan over the layer trees.
    fn run_plan(&self, rules: &RuleSet) -> PlanPairs {
        let plan = rules.signoff_plan();
        let mut out = PlanPairs {
            entries: Vec::with_capacity(plan.len()),
            first: Vec::with_capacity(plan.len() + 1),
            pairs: Vec::new(),
        };
        out.first.push(0);
        for &(a, b, dist) in plan {
            if let (Some(ta), Some(tb)) = (self.layer(a), self.layer(b)) {
                let pair = |p: u32, _: &Rect, q: u32, _: &Rect| out.pairs.push((p, q));
                if a == b {
                    ta.self_join_within(dist, pair);
                } else {
                    ta.join_within(tb, dist, pair);
                }
            }
            out.entries.push((a, b));
            out.first.push(out.pairs.len() as u32);
        }
        out
    }

    /// Bounding box over every shape (`union_bbox` semantics, matching
    /// a full scan).
    pub fn bbox(&self) -> Rect {
        self.bbox
    }

    /// Bounding box over one layer's shapes ([`Rect::EMPTY`] when the
    /// layer is unpopulated), matching a `bbox_on` scan.
    pub fn bounds_on(&self, layer: Layer) -> Rect {
        self.layer_bounds
            .get(&layer)
            .copied()
            .unwrap_or(Rect::EMPTY)
    }

    /// The populated layers, ascending.
    pub fn populated_layers(&self) -> impl Iterator<Item = Layer> + '_ {
        self.layers.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LayoutObject, Shape};
    use amgen_tech::Tech;

    #[test]
    fn queries_match_linear_scan_order() {
        let t = Tech::bicmos_1u();
        let poly = t.layer("poly").unwrap();
        let m1 = t.layer("metal1").unwrap();
        let mut obj = LayoutObject::new("x");
        for i in 0..40 {
            let x = (i as i64 % 7) * 10;
            let y = (i as i64 / 7) * 10;
            let l = if i % 3 == 0 { m1 } else { poly };
            obj.push(Shape::new(l, Rect::new(x, y, x + 8, y + 8)));
        }
        let ix = obj.spatial_index();
        let w = Rect::new(5, 5, 35, 35);
        let scan: Vec<usize> = obj
            .shapes()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.layer == poly && (s.rect.overlaps(&w) || s.rect.abuts(&w)))
            .map(|(i, _)| i)
            .collect();
        let queried: Vec<usize> = ix
            .layer(poly)
            .unwrap()
            .query(&w)
            .into_iter()
            .map(|i| i as usize)
            .filter(|&i| {
                let r = obj.shapes()[i].rect;
                r.overlaps(&w) || r.abuts(&w)
            })
            .collect();
        assert_eq!(queried, scan, "sorted query order must equal scan order");
        assert_eq!(
            ix.bounds_on(m1),
            obj.shapes_on(m1)
                .fold(Rect::EMPTY, |a, s| a.union_bbox(&s.rect))
        );
        assert!(ix.layer(t.layer("metal2").unwrap()).is_none());
    }

    #[test]
    fn role_trees_cover_latchup_shapes() {
        let t = Tech::bicmos_1u();
        let pdiff = t.layer("pdiff").unwrap();
        let mut obj = LayoutObject::new("x");
        obj.push(Shape::new(pdiff, Rect::new(0, 0, 10, 10)).with_role(ShapeRole::DeviceActive));
        obj.push(Shape::new(pdiff, Rect::new(20, 0, 24, 4)).with_role(ShapeRole::SubstrateContact));
        obj.push(Shape::new(pdiff, Rect::new(40, 0, 50, 10)));
        let ix = obj.spatial_index();
        assert_eq!(ix.role(ShapeRole::DeviceActive).unwrap().len(), 1);
        assert_eq!(ix.role(ShapeRole::SubstrateContact).unwrap().len(), 1);
        assert!(ix.role(ShapeRole::Normal).is_none());
        let mut pairs = Vec::new();
        ix.layer(pdiff)
            .unwrap()
            .self_join_within(10, |p, _, q, _| pairs.push((p.min(q), p.max(q))));
        assert_eq!(
            pairs,
            vec![(0, 1)],
            "gaps of 10 qualify under the closed test, gaps of 16 and 30 do not"
        );
    }

    /// The memo keeps the first deck's lists; a lookup under another
    /// deck extracts afresh and leaves the memo alone.
    #[test]
    fn components_are_memoised_for_one_deck() {
        let t = Tech::bicmos_1u();
        let mut obj = LayoutObject::new("x");
        obj.push(Shape::new(t.layer("poly").unwrap(), Rect::new(0, 0, 8, 8)));
        let ix = obj.spatial_index();
        let a = vec![vec![0]];
        let b = vec![vec![0], vec![1]];
        assert_eq!(*ix.components(1, || a.clone()), a[..]);
        assert_eq!(*ix.components(1, || unreachable!()), a[..]);
        assert!(matches!(ix.components(2, || b.clone()), Cow::Owned(ref v) if *v == b));
        assert!(matches!(ix.components(1, || unreachable!()), Cow::Borrowed(v) if *v == a[..]));
    }

    /// The join memo keeps the first deck's pairs; a lookup under another
    /// deck runs that deck's plan and leaves the memo alone. The pairs
    /// are the plan's: poly with itself at its 1.5 µm rule, poly with
    /// pdiff at its 0.5 µm rule, each oriented as asked.
    #[test]
    fn joins_are_memoised_for_one_deck() {
        let t = Tech::bicmos_1u();
        let other = Tech::bicmos_1u();
        let (poly, pdiff) = (t.layer("poly").unwrap(), t.layer("pdiff").unwrap());
        let mut obj = LayoutObject::new("x");
        obj.push(Shape::new(poly, Rect::new(0, 0, 1_000, 5_000)));
        obj.push(Shape::new(poly, Rect::new(2_500, 0, 3_500, 5_000)));
        obj.push(Shape::new(pdiff, Rect::new(4_000, 0, 6_000, 5_000)));
        obj.push(Shape::new(poly, Rect::new(9_000, 0, 10_000, 5_000)));
        let ix = obj.spatial_index();
        let sorted = |it: &mut dyn Iterator<Item = (u32, u32)>| {
            let mut v: Vec<(u32, u32)> = it.map(|(p, q)| (p.min(q), p.max(q))).collect();
            v.sort_unstable();
            v
        };
        let first = ix.joins(&t);
        assert!(matches!(first, Cow::Borrowed(_)));
        assert_eq!(sorted(&mut first.between(poly, poly)), [(0, 1)]);
        assert_eq!(first.between(poly, pdiff).collect::<Vec<_>>(), [(1, 2)]);
        assert_eq!(first.between(pdiff, poly).collect::<Vec<_>>(), [(2, 1)]);
        assert!(std::ptr::eq(&*ix.joins(&t), &*first), "a memo hit");
        // Another deck's layers match no tree of this object: its plan
        // runs, finds nothing, and is not kept.
        let foreign = ix.joins(&other);
        assert!(matches!(foreign, Cow::Owned(_)));
        let foreign_poly = other.layer("poly").unwrap();
        assert_eq!(foreign.between(foreign_poly, foreign_poly).count(), 0);
        assert!(matches!(ix.joins(&t), Cow::Borrowed(p) if std::ptr::eq(p, &*first)));
    }
}
