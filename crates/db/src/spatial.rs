//! The spatial index over a layout object's shapes.
//!
//! [`SpatialIndex`] answers the questions that DRC, extraction and the
//! latch-up check used to answer by scanning the flat shape vector:
//! *which shapes on layer L come near this window?*, and through its
//! trees' joins, *which pairs of shapes on layers L and M come within a
//! distance of each other?* It wraps one packed
//! [`RectTree`] per populated layer plus one over the substrate contacts
//! ([`ShapeRole::SubstrateContact`]: the latch-up check is role-driven,
//! not layer-driven), and caches the whole-object and per-layer bounding
//! boxes as a side effect of the build.
//!
//! The build stages the shapes through one dense table indexed by
//! [`Layer::index`]: a counting pass finds each populated layer's slot,
//! entry count and bounds, and a filling pass writes exact-capacity
//! entry lists. A handle is branded with its deck, and two decks' handles
//! may share an index, so each index heads a chain of slots and a lookup
//! compares whole handles: every brand gets its own tree and bounds, and
//! a handle of a deck the object does not use finds nothing.
//!
//! Every tree is built over the object's [`YBands`], the runs of its
//! y-coverage between empty gaps, computed from the shapes alone (no
//! deck). A chip's tile rows, and the rails and stripes between them,
//! are bands of their own, so a join of the plan sweeps each band, and
//! each pair of bands within its distance, instead of crossing every
//! row.
//!
//! It also memoises two results
//! under one rule deck: the candidate pairs of the deck's sign-off plan
//! ([`joins`](SpatialIndex::joins)), so each layer pair is joined once
//! per object and every sign-off consumer filters the same pairs, and
//! the object's connected components as one flat table
//! ([`components`](SpatialIndex::components), a [`Components`]), so one
//! sign-off extracts once.
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
//! Each tree keeps its entries in `(band, x0, payload)` order. The
//! trees' window visitors ([`RectTree::for_each_candidate`] and
//! [`RectTree::any_candidate`]) run in tree order. Their joins
//! ([`RectTree::join_within`] / [`RectTree::self_join_within`]) and the
//! pair lists of [`PlanPairs`] come in sweep order, band pair by band
//! pair. Both orders are deterministic for a given shape vector, but
//! unspecified. Their consumers either sort what they collect or fold
//! it order-free:
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
use std::sync::OnceLock;

use amgen_geom::{Coord, Rect, RectTree, YBands};
use amgen_tech::{Layer, RuleSet};

use crate::components::Components;
use crate::shape::{Shape, ShapeRole};

/// Per-layer and substrate-contact window-query index over one object's
/// shapes.
///
/// Obtained from [`LayoutObject::spatial_index`]; see the module docs
/// for the lifecycle, determinism and candidate-semantics contracts.
///
/// [`LayoutObject::spatial_index`]: crate::LayoutObject::spatial_index
#[derive(Debug, Clone)]
pub struct SpatialIndex {
    /// The populated layers, one slot each, ascending by handle.
    table: LayerTable,
    /// Per slot, the tree over the layer's shapes.
    trees: Vec<RectTree>,
    /// Per slot, the layer's bounding box with [`Rect::union_bbox`]
    /// semantics (empty shape rects are ignored), matching a `bbox_on`
    /// scan.
    bounds: Vec<Rect>,
    /// The tree over the substrate contacts.
    substrate: RectTree,
    /// The bands every tree is built over.
    bands: YBands,
    /// Whole-object bounding box, `union_bbox` semantics.
    bbox: Rect,
    /// The component table, with the id of the deck that made it.
    components: OnceLock<(u32, Components)>,
    /// The sign-off plan's pair lists, with the id of the deck whose
    /// plan made them.
    joins: OnceLock<(u32, PlanPairs)>,
}

/// The end of a chain in [`LayerTable`], and an index with no slot.
const NONE: u32 = u32::MAX;

/// The dense layer table: a slot per populated layer, found through the
/// layer's index. Handles of two decks may share an index, so each index
/// heads a chain of slots; an object built in one deck has one slot per
/// chain, and a lookup is one compare.
#[derive(Debug, Clone, Default)]
struct LayerTable {
    /// `head[i]`: the first slot whose layer has index `i`, or [`NONE`].
    head: Vec<u32>,
    /// Per slot, its layer and the next slot on the same index's chain.
    keys: Vec<(Layer, u32)>,
}

impl LayerTable {
    /// The slot of `layer`, if it has one.
    fn find(&self, layer: Layer) -> Option<usize> {
        let mut k = *self.head.get(layer.index())?;
        while let Some(&(l, next)) = self.keys.get(k as usize) {
            if l == layer {
                return Some(k as usize);
            }
            k = next;
        }
        None
    }

    /// The slot of `layer`, added as the next slot if it has none.
    fn slot(&mut self, layer: Layer) -> usize {
        if let Some(k) = self.find(layer) {
            return k;
        }
        let i = layer.index();
        if i >= self.head.len() {
            self.head.resize(i + 1, NONE);
        }
        let k = self.keys.len();
        self.keys.push((layer, self.head[i]));
        self.head[i] = k as u32;
        k
    }
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
    /// `(shape on a, shape on b)`, in sweep order.
    pairs: Vec<(u32, u32)>,
}

impl PlanPairs {
    /// The candidate pairs between layers `a` and `b` as `(shape on a,
    /// shape on b)` shape indices, in sweep order; within one layer each
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
        // Counting pass: a slot per layer in order of first use, with its
        // entry count and bounds; the substrate contacts; the object's
        // bounds and the span of its y-extents, which the bands need.
        let mut table = LayerTable::default();
        let mut sizes: Vec<(usize, Rect)> = Vec::new();
        let mut substrates = 0;
        let mut bbox = Rect::EMPTY;
        let mut span = (Coord::MAX, Coord::MIN);
        for s in shapes {
            let (y0, top) = YBands::extent(&s.rect);
            span = (span.0.min(y0), span.1.max(top));
            let k = table.slot(s.layer);
            if k == sizes.len() {
                sizes.push((0, Rect::EMPTY));
            }
            sizes[k].0 += 1;
            sizes[k].1 = sizes[k].1.union_bbox(&s.rect);
            bbox = bbox.union_bbox(&s.rect);
            if s.role == ShapeRole::SubstrateContact {
                substrates += 1;
            }
        }
        // Renumber the slots ascending by handle, the order
        // `populated_layers` promises.
        let mut order: Vec<usize> = (0..sizes.len()).collect();
        order.sort_unstable_by_key(|&k| table.keys[k].0);
        let mut sorted = LayerTable::default();
        for &k in &order {
            sorted.slot(table.keys[k].0);
        }
        let table = sorted;
        // Filling pass: exact-capacity entry lists.
        let mut lists: Vec<Vec<(Rect, u32)>> = order
            .iter()
            .map(|&k| Vec::with_capacity(sizes[k].0))
            .collect();
        let mut substrate = Vec::with_capacity(substrates);
        for (i, s) in shapes.iter().enumerate() {
            let entry = (s.rect, i as u32);
            lists[table.find(s.layer).expect("a slot per staged layer")].push(entry);
            if s.role == ShapeRole::SubstrateContact {
                substrate.push(entry);
            }
        }
        let bands = YBands::over(shapes.iter().map(|s| &s.rect), shapes.len(), span);
        SpatialIndex {
            trees: lists
                .into_iter()
                .map(|list| RectTree::build(list, &bands))
                .collect(),
            bounds: order.iter().map(|&k| sizes[k].1).collect(),
            table,
            substrate: RectTree::build(substrate, &bands),
            bands,
            bbox,
            components: OnceLock::new(),
            joins: OnceLock::new(),
        }
    }

    /// The tree over one layer's shapes, if the layer is populated.
    /// Payloads are indices into the owning object's shape vector.
    pub fn layer(&self, layer: Layer) -> Option<&RectTree> {
        self.table.find(layer).map(|k| &self.trees[k])
    }

    /// The tree over the [`ShapeRole::SubstrateContact`] shapes, on every
    /// layer; the latch-up check's window queries run on it. Payloads are
    /// indices into the owning object's shape vector.
    pub fn substrate_contacts(&self) -> &RectTree {
        &self.substrate
    }

    /// The y-bands of the shapes, which every tree is built over and
    /// every join of two of the trees takes.
    pub fn bands(&self) -> &YBands {
        &self.bands
    }

    /// The connected components of the shapes under the rule deck with
    /// id `deck`, memoised.
    ///
    /// The first call runs `extract` and keeps its table with `deck`;
    /// later calls with the same id return it without running `extract`.
    /// A call with another deck's id runs `extract` and returns the
    /// result without keeping it. The memo lives and dies with the
    /// index, so every geometry mutation drops it; it holds no net
    /// names, so renaming nets does not.
    pub fn components(
        &self,
        deck: u32,
        extract: impl FnOnce() -> Components,
    ) -> Cow<'_, Components> {
        let mut extract = Some(extract);
        let (id, table) = self
            .components
            .get_or_init(|| (deck, extract.take().expect("init runs at most once")()));
        match extract {
            Some(extract) if *id != deck => Cow::Owned(extract()),
            _ => Cow::Borrowed(table),
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

    /// Runs each join of `rules`' sign-off plan over the layer trees,
    /// band by band.
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
                    ta.self_join_within(&self.bands, dist, pair);
                } else {
                    ta.join_within(tb, &self.bands, dist, pair);
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
        self.table
            .find(layer)
            .map_or(Rect::EMPTY, |k| self.bounds[k])
    }

    /// The populated layers, ascending.
    pub fn populated_layers(&self) -> impl Iterator<Item = Layer> + '_ {
        self.table.keys.iter().map(|&(l, _)| l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DisjointSets, LayoutObject, Shape};
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
        assert_eq!(ix.substrate_contacts().len(), 1);
        assert_eq!(
            ix.substrate_contacts().query(&Rect::new(-99, -99, 99, 99)),
            [1],
            "neither the active nor the normal shape is a substrate contact"
        );
        let mut pairs = Vec::new();
        ix.layer(pdiff)
            .unwrap()
            .self_join_within(ix.bands(), 10, |p, _, q, _| {
                pairs.push((p.min(q), p.max(q)))
            });
        assert_eq!(
            pairs,
            vec![(0, 1)],
            "gaps of 10 qualify under the closed test, gaps of 16 and 30 do not"
        );
    }

    /// Two decks' handles at the same layer index get a slot each: every
    /// shape is indexed, each brand has its own tree and bounds, and the
    /// populated layers ascend by handle. A handle of a third deck, and
    /// one whose index lies past every populated layer's, find nothing.
    #[test]
    fn layer_table_keeps_decks_apart() {
        let (a, b, c) = (Tech::bicmos_1u(), Tech::bicmos_1u(), Tech::bicmos_1u());
        let (a_poly, b_poly) = (a.layer("poly").unwrap(), b.layer("poly").unwrap());
        let a_m1 = a.layer("metal1").unwrap();
        assert_eq!(a_poly.index(), b_poly.index());
        let mut obj = LayoutObject::new("x");
        obj.push(Shape::new(b_poly, Rect::new(0, 0, 10, 10)));
        obj.push(Shape::new(a_m1, Rect::new(0, 0, 40, 5)));
        obj.push(Shape::new(a_poly, Rect::new(20, 0, 30, 10)));
        obj.push(Shape::new(b_poly, Rect::new(0, 20, 10, 30)));
        let ix = obj.spatial_index();
        let payloads = |l| ix.layer(l).unwrap().query(&Rect::new(-99, -99, 99, 99));
        assert_eq!(payloads(b_poly), [0, 3]);
        assert_eq!(payloads(a_poly), [2]);
        assert_eq!(payloads(a_m1), [1]);
        assert_eq!(ix.bounds_on(a_poly), Rect::new(20, 0, 30, 10));
        assert_eq!(ix.bounds_on(b_poly), Rect::new(0, 0, 10, 30));
        let populated: Vec<Layer> = ix.populated_layers().collect();
        let mut ascending = vec![a_poly, a_m1, b_poly];
        ascending.sort_unstable();
        assert_eq!(populated, ascending);

        let last = a.layers().max_by_key(|l| l.index()).unwrap();
        assert!(
            last.index() > a_m1.index().max(a_poly.index()),
            "past the table"
        );
        for missing in [c.layer("poly").unwrap(), last] {
            assert!(ix.layer(missing).is_none(), "{missing:?}");
            assert_eq!(ix.bounds_on(missing), Rect::EMPTY, "{missing:?}");
        }
    }

    /// The memo keeps the first deck's table; a lookup under another
    /// deck extracts afresh and leaves the memo alone.
    #[test]
    fn components_are_memoised_for_one_deck() {
        let t = Tech::bicmos_1u();
        let mut obj = LayoutObject::new("x");
        obj.push(Shape::new(t.layer("poly").unwrap(), Rect::new(0, 0, 8, 8)));
        let ix = obj.spatial_index();
        let a = Components::from_sets(&mut DisjointSets::new(1), std::iter::once(0..1));
        let b = Components::default();
        assert_eq!(*ix.components(1, || a.clone()), a);
        assert_eq!(*ix.components(1, || unreachable!()), a);
        assert!(matches!(ix.components(2, || b.clone()), Cow::Owned(ref v) if *v == b));
        assert!(matches!(ix.components(1, || unreachable!()), Cow::Borrowed(v) if *v == a));
    }

    /// Rows of shapes apart in y are bands of their own, and a join
    /// reaches across a gap up to its distance: a row of poly squares
    /// 1 µm above another pairs with it at the 1.5 µm poly rule, a row
    /// 1.6 µm above that does not, and a post that spans every row joins
    /// the three bands into one without changing the pairs.
    #[test]
    fn joins_reach_across_bands_within_their_distance() {
        let t = Tech::bicmos_1u();
        let poly = t.layer("poly").unwrap();
        let mut obj = LayoutObject::new("x");
        for y in [0, 2_000, 4_600] {
            for x in [0, 3_000, 6_000, 9_000] {
                obj.push(Shape::new(poly, Rect::new(x, y, x + 1_000, y + 1_000)));
            }
        }
        let sorted = |ix: &SpatialIndex| {
            let mut v: Vec<(u32, u32)> = ix.joins(&t).between(poly, poly).collect();
            v.sort_unstable();
            v
        };
        let ix = obj.spatial_index();
        assert_eq!(ix.bands().gaps(), [(1_000, 2_000), (3_000, 4_600)]);
        assert_eq!(sorted(ix), [(0, 4), (1, 5), (2, 6), (3, 7)]);

        obj.push(Shape::new(poly, Rect::new(12_000, 0, 13_000, 5_600)));
        let ix = obj.spatial_index();
        assert_eq!(ix.bands().count(), 1);
        assert_eq!(sorted(ix), [(0, 4), (1, 5), (2, 6), (3, 7)]);
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
