//! Geometric connectivity extraction (union-find over shapes).

use std::borrow::Cow;
use std::ops::Range;

use amgen_core::{GenCtx, Stage};
use amgen_db::{Components, DisjointSets, LayoutObject, NetId, PlanPairs, Shape};
use amgen_geom::{Rect, Region};
use amgen_tech::{Layer, LayerKind, RuleSet};

/// One electrically connected component of a layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractedNet {
    /// Indices of the member shapes.
    pub shapes: Vec<usize>,
    /// Declared net names found on the members (deduplicated).
    ///
    /// A rule-clean layout has at most one entry; more than one means
    /// geometry shorted two declared potentials, none means the component
    /// is undeclared (internal wiring).
    pub declared: Vec<String>,
}

impl ExtractedNet {
    /// True if the component shorts two declared potentials.
    pub fn is_conflict(&self) -> bool {
        self.declared.len() > 1
    }
}

/// Connectivity/parasitic extractor bound to one generation context.
#[derive(Debug, Clone)]
pub struct Extractor {
    pub(crate) ctx: GenCtx,
}

/// A cut with no device fragment yet.
const NONE: u32 = u32::MAX;

/// The diffusion shapes that gates cross, cut into pieces. Every shape
/// is the union-find node of its own index; a split shape's node stays
/// alone, and its pieces are extra nodes, numbered from the shape count
/// on, in the order of the split shapes.
struct Pieces {
    /// The shape count: piece `p` is node `base + p`.
    base: u32,
    /// Bit `i % 64` of `split[i / 64]` is set when shape `i` is split.
    split: Vec<u64>,
    /// `before[w]`: the split shapes below shape `64 * w`, so a split
    /// shape's rank among them is one popcount away.
    before: Vec<u32>,
    /// The `k`-th split shape owns pieces `first[k]..first[k + 1]`.
    first: Vec<u32>,
    /// Per piece, its rectangle.
    rects: Vec<Rect>,
}

impl Pieces {
    /// Splits every diffusion shape by the poly shapes overlapping it,
    /// applied in ascending shape order (the order fixes the pieces).
    /// The gates come from the plan's (poly, diffusion) pairs.
    fn new(rules: &RuleSet, shapes: &[Shape], joins: &PlanPairs) -> Pieces {
        // (diffusion shape, gate) pairs, ascending: each shape's gates
        // form one run, in shape order.
        let mut gated: Vec<(u32, u32)> = Vec::new();
        for poly in rules.layers().filter(|&l| rules.kind(l) == LayerKind::Poly) {
            for diff in rules
                .layers()
                .filter(|&l| rules.kind(l) == LayerKind::Diffusion)
            {
                gated.extend(
                    joins.between(diff, poly).filter(|&(d, g)| {
                        shapes[g as usize].rect.overlaps(&shapes[d as usize].rect)
                    }),
                );
            }
        }
        gated.sort_unstable();
        let words = shapes.len().div_ceil(64);
        let mut out = Pieces {
            base: shapes.len() as u32,
            split: vec![0; words],
            before: Vec::with_capacity(words),
            first: vec![0],
            rects: Vec::new(),
        };
        let mut pieces = Region::new();
        for run in gated.chunk_by(|a, b| a.0 == b.0) {
            let d = run[0].0 as usize;
            out.split[d / 64] |= 1 << (d % 64);
            pieces.clear();
            pieces.push(shapes[d].rect);
            for &(_, g) in run {
                pieces.subtract_rect(shapes[g as usize].rect);
            }
            out.rects.extend_from_slice(pieces.rects());
            out.first.push(out.rects.len() as u32);
        }
        let mut below = 0;
        for word in &out.split {
            out.before.push(below);
            below += word.count_ones();
        }
        out
    }

    /// The number of split shapes.
    fn len(&self) -> usize {
        self.first.len() - 1
    }

    /// True if a shape on `layer` may be split.
    fn on(&self, rules: &RuleSet, layer: Layer) -> bool {
        self.len() > 0 && rules.kind(layer) == LayerKind::Diffusion
    }

    /// True if `shape` is split.
    fn is_split(&self, shape: u32) -> bool {
        self.split[shape as usize / 64] >> (shape % 64) & 1 == 1
    }

    /// The nodes standing for `shape`, a conductor or cut shape: its
    /// pieces if it is split, else its own index.
    fn nodes(&self, shape: u32) -> Range<u32> {
        if !self.is_split(shape) {
            return shape..shape + 1;
        }
        let (w, bit) = (shape as usize / 64, shape % 64);
        let below = (self.split[w] & ((1 << bit) - 1)).count_ones();
        self.range((self.before[w] + below) as usize)
    }

    /// The nodes of the `k`-th split shape's pieces.
    fn range(&self, k: usize) -> Range<u32> {
        self.base + self.first[k]..self.base + self.first[k + 1]
    }

    /// The rectangle of `node`.
    fn rect(&self, shapes: &[Shape], node: u32) -> Rect {
        match node.checked_sub(self.base) {
            Some(p) => self.rects[p as usize],
            None => shapes[node as usize].rect,
        }
    }
}

impl Extractor {
    /// Binds the extractor to a generation context.
    pub fn new(ctx: &GenCtx) -> Extractor {
        Extractor { ctx: ctx.clone() }
    }

    /// The shared generation context.
    pub fn ctx(&self) -> &GenCtx {
        &self.ctx
    }

    /// The compiled rule kernel.
    pub fn rules(&self) -> &RuleSet {
        &self.ctx
    }

    /// Extracts the electrically connected components.
    ///
    /// Rules:
    ///
    /// * **diffusion is split by gates**: every diffusion shape is first
    ///   fragmented against the overlapping poly shapes, applied in
    ///   ascending shape order — the channel under a gate separates
    ///   source from drain even though the drawn diffusion is one
    ///   rectangle;
    /// * two fragments on the same **conductor** layer connect when they
    ///   touch or overlap;
    /// * a **cut** connects to the overlapping fragments of its
    ///   connectable layers — all routing-metal fragments, but on the
    ///   device side only the **most specific** layer (the one with the
    ///   smallest overlapping fragment; between equal areas, the layer
    ///   whose first `connect` line for this cut comes first in the
    ///   deck). A contact over an emitter-in-base stack therefore
    ///   contacts the emitter, not the base beneath it;
    /// * distinct conductor layers never connect by bare overlap (stacks
    ///   are junction-isolated);
    /// * non-conductor, non-cut layers (wells, implants) are left out.
    ///
    /// A diffusion shape crossed by a gate belongs to every component one
    /// of its fragments joined (its two halves are different nets).
    ///
    /// Every shape pair comes from the deck's sign-off plan, run once per
    /// object by the [spatial index](LayoutObject::spatial_index) and
    /// shared with DRC ([`SpatialIndex::joins`](amgen_db::SpatialIndex::joins)):
    /// each conductor layer with itself, each (cut layer, layer it
    /// connects), and each (poly, diffusion) pair for the gates. Each
    /// join may run at a spacing rule rather than at 0, so every pair is
    /// filtered by the rule's exact predicate. The union-find runs over
    /// shape indices: every shape is its own node, and only a gate-split
    /// diffusion shape gets more, one per piece, to which its shape
    /// pairs fan out; the touching pieces of one split shape are joined
    /// directly. Components are sets, so the order in
    /// which unions are found does not matter, and the output is
    /// canonical: members ascending, nets ordered by member list,
    /// declared names sorted. The order-sensitive choices are explicit:
    /// the gates of a diffusion shape are applied in ascending shape
    /// order, and the device-layer tie-break above. The result is
    /// byte-identical to the all-pairs
    /// [`connectivity_scan`](Extractor::connectivity_scan).
    ///
    /// The components are memoised in the spatial index for this deck as
    /// one flat table ([`Components`], from
    /// [`SpatialIndex::components`](amgen_db::SpatialIndex::components)),
    /// so DRC's spacing check, [`parasitics`](Extractor::parasitics) and
    /// this call share one extraction per object, as the checks and this
    /// call share one run of the plan. Every geometry mutation drops both
    /// memos with the index. The declared names are not
    /// memoised: each call reads them from the object's current net
    /// table, so renaming nets needs no invalidation.
    pub fn connectivity(&self, obj: &LayoutObject) -> Vec<ExtractedNet> {
        let mut span = self
            .ctx
            .stage(Stage::Extract, || format!("connectivity:{}", obj.name()));
        span.arg("shapes", obj.len());
        let table = self.table(obj);
        let mut ids = Vec::new();
        table
            .iter()
            .map(|members| ExtractedNet {
                declared: declared_names(obj, members, &mut ids),
                shapes: members.iter().map(|&i| i as usize).collect(),
            })
            .collect()
    }

    /// The components as the flat table memoised in the object's spatial
    /// index: each component's member shape indices, canonical (members
    /// ascending, components ordered by member list), and each shape's
    /// component ids — the geometry half of
    /// [`connectivity`](Extractor::connectivity), without the names.
    /// DRC's same-component spacing exemption reads it.
    pub fn components<'a>(&self, obj: &'a LayoutObject) -> Cow<'a, Components> {
        let mut span = self
            .ctx
            .stage(Stage::Extract, || format!("components:{}", obj.name()));
        span.arg("shapes", obj.len());
        self.table(obj)
    }

    /// The memo lookup; the caller holds the `Stage::Extract` guard.
    fn table<'a>(&self, obj: &'a LayoutObject) -> Cow<'a, Components> {
        obj.spatial_index()
            .components(self.rules().id(), || self.extract(obj))
    }

    /// The extraction kernel on the spatial index's sign-off pairs (see
    /// [`connectivity`](Extractor::connectivity) for the rules): a
    /// union-find over shape indices, plus one node per piece of a
    /// gate-split diffusion shape.
    fn extract(&self, obj: &LayoutObject) -> Components {
        let rules = self.rules();
        let shapes = obj.shapes();
        let joins = obj.spatial_index().joins(rules);
        let pieces = Pieces::new(rules, shapes, &joins);
        let mut sets = DisjointSets::new(pieces.base as usize + pieces.rects.len());
        let rect = |node: u32| pieces.rect(shapes, node);
        // A piece lies inside its shape, so two pieces touch, or a piece
        // overlaps a cut, only if their shapes do: each pair is tested on
        // the shapes first.
        for layer in rules.layers().filter(|&l| rules.kind(l).is_conductor()) {
            let split = pieces.on(rules, layer);
            for (p, q) in joins.between(layer, layer) {
                if !touch(&shapes[p as usize].rect, &shapes[q as usize].rect) {
                    continue;
                }
                if !split {
                    sets.union(p, q);
                    continue;
                }
                let (fs, gs) = (pieces.nodes(p), pieces.nodes(q));
                for f in fs {
                    for g in gs.clone() {
                        if touch(&rect(f), &rect(g)) {
                            sets.union(f, g);
                        }
                    }
                }
            }
        }
        // The pieces of one split shape touch each other across no gate;
        // no pair of distinct shapes holds them.
        for k in 0..pieces.len() {
            let nodes = pieces.range(k);
            for f in nodes.clone() {
                for g in f + 1..nodes.end {
                    if touch(&rect(f), &rect(g)) {
                        sets.union(f, g);
                    }
                }
            }
        }
        // Per cut, the (node, rank) of its most specific device fragment
        // so far; the device-side overlaps wait until all are known.
        let mut best = vec![(NONE, NONE); shapes.len()];
        let mut device: Vec<(u32, u32, u32)> = Vec::new();
        let is_device = |l: Layer| rules.kind(l) != LayerKind::Metal;
        let has_node = |l: Layer| {
            let kind = rules.kind(l);
            kind.is_conductor() || kind == LayerKind::Cut
        };
        let mut seen: Vec<Layer> = Vec::new();
        for cut in rules.layers().filter(|&l| rules.kind(l) == LayerKind::Cut) {
            seen.clear();
            for &(a, b) in rules.connected_pairs(cut) {
                for side in [a, b] {
                    if seen.contains(&side) {
                        continue;
                    }
                    // `None` on the metal side. On the device side, the
                    // layer's rank among the cut's device layers, in the
                    // order of their first `connect` line in the deck.
                    let device_rank = is_device(side)
                        .then(|| seen.iter().filter(|&&l| is_device(l)).count() as u32);
                    seen.push(side);
                    if !has_node(side) {
                        continue;
                    }
                    let split = pieces.on(rules, side);
                    for (c, p) in joins.between(cut, side) {
                        // Cuts are never split.
                        let cut_rect = shapes[c as usize].rect;
                        if !cut_rect.overlaps(&shapes[p as usize].rect) {
                            continue;
                        }
                        let Some(rank) = device_rank else {
                            sets.union(p, c);
                            continue;
                        };
                        let nodes = if split { pieces.nodes(p) } else { p..p + 1 };
                        for f in nodes {
                            let r = rect(f);
                            if !r.overlaps(&cut_rect) {
                                continue;
                            }
                            device.push((c, f, rank));
                            let (b, b_rank) = best[c as usize];
                            if b == NONE || (r.area(), rank) < (rect(b).area(), b_rank) {
                                best[c as usize] = (f, rank);
                            }
                        }
                    }
                }
            }
        }
        for &(c, f, rank) in &device {
            if best[c as usize].1 == rank {
                sets.union(c, f);
            }
        }
        // Each shape stands for its own node, or its pieces', or none.
        let mut k = 0;
        let nodes = shapes.iter().enumerate().map(|(i, s)| {
            let i = i as u32;
            if pieces.is_split(i) {
                k += 1;
                pieces.range(k - 1)
            } else if has_node(s.layer) {
                i..i + 1
            } else {
                i..i
            }
        });
        Components::from_sets(&mut sets, nodes)
    }

    /// The all-pairs connectivity pass, kept as the oracle the indexed
    /// kernel is parity-tested against.
    #[doc(hidden)]
    pub fn connectivity_scan(&self, obj: &LayoutObject) -> Vec<ExtractedNet> {
        let shapes = obj.shapes();
        // Gate regions that cut diffusion.
        let gates: Vec<Rect> = shapes
            .iter()
            .filter(|s| self.ctx.kind(s.layer) == LayerKind::Poly)
            .map(|s| s.rect)
            .collect();
        // Fragment table.
        struct Frag {
            shape: usize,
            rect: Rect,
        }
        let mut frags: Vec<Frag> = Vec::new();
        for (i, s) in shapes.iter().enumerate() {
            let k = self.ctx.kind(s.layer);
            if !(k.is_conductor() || k == LayerKind::Cut) {
                continue;
            }
            if k == LayerKind::Diffusion {
                let mut pieces = vec![s.rect];
                for g in gates.iter().filter(|g| g.overlaps(&s.rect)) {
                    pieces = pieces.into_iter().flat_map(|p| p.subtract(g)).collect();
                }
                for rect in pieces {
                    frags.push(Frag { shape: i, rect });
                }
            } else {
                frags.push(Frag {
                    shape: i,
                    rect: s.rect,
                });
            }
        }
        let mut uf = DisjointSets::new(frags.len());
        // Same-layer conductor contact, all pairs per layer bucket.
        let mut by_layer: std::collections::BTreeMap<Layer, Vec<usize>> = Default::default();
        for (fi, f) in frags.iter().enumerate() {
            by_layer.entry(shapes[f.shape].layer).or_default().push(fi);
        }
        for (layer, members) in &by_layer {
            if !self.ctx.kind(*layer).is_conductor() {
                continue;
            }
            for (p, &i) in members.iter().enumerate() {
                let ri = frags[i].rect;
                for &j in &members[p + 1..] {
                    if ri.overlaps(&frags[j].rect) || ri.abuts(&frags[j].rect) {
                        uf.union(i as u32, j as u32);
                    }
                }
            }
        }
        // Cuts.
        for ci in 0..frags.len() {
            let cut_layer = shapes[frags[ci].shape].layer;
            if self.ctx.kind(cut_layer) != LayerKind::Cut {
                continue;
            }
            let cut_rect = frags[ci].rect;
            let mut metal_side: Vec<usize> = Vec::new();
            let mut device_side: Vec<usize> = Vec::new();
            for &(a, b) in self.ctx.connected_pairs(cut_layer) {
                for ol in [a, b] {
                    let Some(members) = by_layer.get(&ol) else {
                        continue;
                    };
                    for &oi in members {
                        if oi == ci || !cut_rect.overlaps(&frags[oi].rect) {
                            continue;
                        }
                        if self.ctx.kind(ol) == LayerKind::Metal {
                            if !metal_side.contains(&oi) {
                                metal_side.push(oi);
                            }
                        } else if !device_side.contains(&oi) {
                            device_side.push(oi);
                        }
                    }
                }
            }
            for &oi in &metal_side {
                uf.union(ci as u32, oi as u32);
            }
            // Most specific device layer: the first smallest overlapping
            // fragment in discovery (deck `connect`) order.
            if let Some(best) = device_side.iter().min_by_key(|&&oi| frags[oi].rect.area()) {
                let best_layer = shapes[frags[*best].shape].layer;
                for &oi in &device_side {
                    if shapes[frags[oi].shape].layer == best_layer {
                        uf.union(ci as u32, oi as u32);
                    }
                }
            }
        }
        // Collect components (shape indices, deduplicated).
        let mut by_root: std::collections::HashMap<u32, Vec<usize>> = Default::default();
        for (fi, f) in frags.iter().enumerate() {
            by_root.entry(uf.find(fi as u32)).or_default().push(f.shape);
        }
        let mut nets: Vec<ExtractedNet> = by_root
            .into_values()
            .map(|mut members| {
                members.sort_unstable();
                members.dedup();
                let mut declared: Vec<String> = members
                    .iter()
                    .filter_map(|&i| shapes[i].net)
                    .map(|n| obj.net_name(n).to_string())
                    .collect();
                declared.sort();
                declared.dedup();
                ExtractedNet {
                    shapes: members,
                    declared,
                }
            })
            .collect();
        nets.sort_by(|a, b| a.shapes.cmp(&b.shapes));
        nets
    }

    /// Extracted components that short two declared potentials — the
    /// connectivity audit used by integration tests.
    pub fn conflicts(&self, obj: &LayoutObject) -> Vec<ExtractedNet> {
        self.connectivity(obj)
            .into_iter()
            .filter(ExtractedNet::is_conflict)
            .collect()
    }
}

/// True if two rectangles overlap or abut (`a.overlaps(b) ||
/// a.abuts(b)`): both are non-empty and their closed extents meet. One
/// branch-free test, since the plan's pairs touch or not at random.
#[inline]
fn touch(a: &Rect, b: &Rect) -> bool {
    !a.is_empty()
        & !b.is_empty()
        & (a.x0 <= b.x1)
        & (b.x0 <= a.x1)
        & (a.y0 <= b.y1)
        & (b.y0 <= a.y1)
}

/// The declared net names on a component's members, sorted and
/// deduplicated; net ids are deduplicated, in the reused buffer `ids`,
/// before any name is copied.
pub(crate) fn declared_names(
    obj: &LayoutObject,
    members: &[u32],
    ids: &mut Vec<NetId>,
) -> Vec<String> {
    ids.clear();
    ids.extend(members.iter().filter_map(|&i| obj.shapes()[i as usize].net));
    ids.sort_unstable();
    ids.dedup();
    let mut declared: Vec<String> = ids.iter().map(|&n| obj.net_name(n).to_string()).collect();
    declared.sort();
    declared.dedup();
    declared
}

#[cfg(test)]
mod tests {
    use super::*;
    use amgen_db::Shape;
    use amgen_geom::{um, Rect};
    use amgen_tech::Tech;

    fn tech() -> GenCtx {
        GenCtx::from_tech(&Tech::bicmos_1u())
    }

    #[test]
    fn touching_same_layer_connects() {
        let t = tech();
        let m1 = t.layer("metal1").unwrap();
        let mut obj = LayoutObject::new("x");
        obj.push(Shape::new(m1, Rect::new(0, 0, um(2), um(2))));
        obj.push(Shape::new(m1, Rect::new(um(2), 0, um(4), um(2))));
        let nets = Extractor::new(&t).connectivity(&obj);
        assert_eq!(nets.len(), 1);
        assert_eq!(nets[0].shapes, vec![0, 1]);
    }

    #[test]
    fn separated_same_layer_does_not_connect() {
        let t = tech();
        let m1 = t.layer("metal1").unwrap();
        let mut obj = LayoutObject::new("x");
        obj.push(Shape::new(m1, Rect::new(0, 0, um(2), um(2))));
        obj.push(Shape::new(m1, Rect::new(um(4), 0, um(6), um(2))));
        assert_eq!(Extractor::new(&t).connectivity(&obj).len(), 2);
    }

    #[test]
    fn stacked_conductors_need_a_cut() {
        let t = tech();
        let poly = t.layer("poly").unwrap();
        let m1 = t.layer("metal1").unwrap();
        let ct = t.layer("contact").unwrap();
        let mut obj = LayoutObject::new("x");
        obj.push(Shape::new(poly, Rect::new(0, 0, um(2), um(2))));
        obj.push(Shape::new(m1, Rect::new(0, 0, um(2), um(2))));
        let e = Extractor::new(&t);
        assert_eq!(e.connectivity(&obj).len(), 2, "no cut: two nets");
        obj.push(Shape::new(ct, Rect::new(500, 500, 1_500, 1_500)));
        let nets = e.connectivity(&obj);
        assert_eq!(nets.len(), 1, "the contact bridges poly and metal1");
        assert_eq!(nets[0].shapes, vec![0, 1, 2]);
    }

    #[test]
    fn via_does_not_connect_poly() {
        let t = tech();
        let poly = t.layer("poly").unwrap();
        let m2 = t.layer("metal2").unwrap();
        let via = t.layer("via1").unwrap();
        let mut obj = LayoutObject::new("x");
        obj.push(Shape::new(poly, Rect::new(0, 0, um(2), um(2))));
        obj.push(Shape::new(m2, Rect::new(0, 0, um(2), um(2))));
        obj.push(Shape::new(via, Rect::new(500, 500, 1_500, 1_500)));
        // via1 connects metal1-metal2 only: poly stays separate.
        let nets = Extractor::new(&t).connectivity(&obj);
        assert_eq!(nets.len(), 2);
    }

    #[test]
    fn wells_are_ignored() {
        let t = tech();
        let nwell = t.layer("nwell").unwrap();
        let m1 = t.layer("metal1").unwrap();
        let mut obj = LayoutObject::new("x");
        obj.push(Shape::new(nwell, Rect::new(0, 0, um(20), um(20))));
        obj.push(Shape::new(m1, Rect::new(0, 0, um(2), um(2))));
        obj.push(Shape::new(m1, Rect::new(um(10), 0, um(12), um(2))));
        // The well touches both metals but connects nothing.
        assert_eq!(Extractor::new(&t).connectivity(&obj).len(), 2);
    }

    #[test]
    fn conflict_detection() {
        let t = tech();
        let m1 = t.layer("metal1").unwrap();
        let mut obj = LayoutObject::new("x");
        let a = obj.net("vdd");
        let b = obj.net("gnd");
        obj.push(Shape::new(m1, Rect::new(0, 0, um(2), um(2))).with_net(a));
        obj.push(Shape::new(m1, Rect::new(um(1), 0, um(3), um(2))).with_net(b));
        let conflicts = Extractor::new(&t).conflicts(&obj);
        assert_eq!(conflicts.len(), 1);
        assert_eq!(
            conflicts[0].declared,
            vec!["gnd".to_string(), "vdd".to_string()]
        );
    }

    #[test]
    fn clean_layout_has_no_conflicts() {
        let t = tech();
        let m1 = t.layer("metal1").unwrap();
        let mut obj = LayoutObject::new("x");
        let a = obj.net("vdd");
        let b = obj.net("gnd");
        obj.push(Shape::new(m1, Rect::new(0, 0, um(2), um(2))).with_net(a));
        obj.push(Shape::new(m1, Rect::new(um(4), 0, um(6), um(2))).with_net(b));
        assert!(Extractor::new(&t).conflicts(&obj).is_empty());
    }

    /// The tree-backed passes must reproduce the all-pairs scan byte for
    /// byte — including gate-split diffusion fragments and the
    /// most-specific-layer cut resolution.
    #[test]
    fn indexed_matches_scan_byte_for_byte() {
        let t = tech();
        let poly = t.layer("poly").unwrap();
        let pdiff = t.layer("pdiff").unwrap();
        let m1 = t.layer("metal1").unwrap();
        let ct = t.layer("contact").unwrap();
        let e = Extractor::new(&t);
        let mut obj = LayoutObject::new("x");
        let d = obj.net("drain");
        // A transistor-ish stack: diffusion crossed by two gates, with
        // contacts and metal straps, plus a disconnected metal chain.
        obj.push(Shape::new(pdiff, Rect::new(0, 0, um(12), um(4))).with_net(d));
        obj.push(Shape::new(poly, Rect::new(um(3), -um(1), um(4), um(5))));
        obj.push(Shape::new(poly, Rect::new(um(7), -um(1), um(8), um(5))));
        obj.push(Shape::new(ct, Rect::new(um(1), um(1), um(2), um(2))));
        obj.push(Shape::new(ct, Rect::new(um(9), um(1), um(10), um(2))));
        obj.push(Shape::new(m1, Rect::new(0, um(1), um(3), um(2))));
        obj.push(Shape::new(m1, Rect::new(um(8), um(1), um(12), um(2))));
        for i in 0..6 {
            obj.push(Shape::new(
                m1,
                Rect::new(i * um(2), um(8), (i + 1) * um(2), um(10)),
            ));
        }
        let indexed = e.connectivity(&obj);
        let scan = e.connectivity_scan(&obj);
        assert!(indexed.len() > 1);
        assert_eq!(indexed, scan);
        assert_eq!(e.parasitics(&obj), e.parasitics_scan(&obj));
    }

    /// `connectivity` and `parasitics` equal their all-pairs oracles.
    fn assert_matches_scan(e: &Extractor, obj: &LayoutObject) -> Vec<Vec<usize>> {
        let nets = e.connectivity(obj);
        assert_eq!(nets, e.connectivity_scan(obj));
        assert_eq!(e.parasitics(obj), e.parasitics_scan(obj));
        nets.into_iter().map(|n| n.shapes).collect()
    }

    /// A diffusion that poly covers completely has no piece, so it joins
    /// no component, while the contact over both still reaches the poly.
    #[test]
    fn a_covered_diffusion_joins_nothing() {
        let t = tech();
        let l = |name: &str| t.layer(name).unwrap();
        let mut obj = LayoutObject::new("covered");
        obj.push(Shape::new(l("pdiff"), Rect::new(0, 0, um(4), um(2))));
        obj.push(Shape::new(
            l("poly"),
            Rect::new(-um(1), -um(1), um(5), um(3)),
        ));
        obj.push(Shape::new(l("contact"), Rect::new(500, 500, 1_500, 1_500)));
        obj.push(Shape::new(l("metal1"), Rect::new(0, 0, um(2), um(2))));
        let e = Extractor::new(&t);
        assert_eq!(assert_matches_scan(&e, &obj), [vec![1, 2, 3]]);
        assert!(e.components(&obj).of(0).is_empty());
    }

    /// A gate that notches a diffusion without crossing it leaves three
    /// pieces that touch around the notch: they rejoin into one
    /// component, which holds the diffusion once.
    #[test]
    fn a_notched_diffusion_rejoins() {
        let t = tech();
        let l = |name: &str| t.layer(name).unwrap();
        let mut obj = LayoutObject::new("notch");
        obj.push(Shape::new(l("pdiff"), Rect::new(0, 0, um(6), um(4))));
        obj.push(Shape::new(l("poly"), Rect::new(um(2), um(2), um(3), um(5))));
        obj.push(Shape::new(
            l("contact"),
            Rect::new(500, 2_500, 1_500, 3_500),
        ));
        obj.push(Shape::new(
            l("contact"),
            Rect::new(4_500, 2_500, 5_500, 3_500),
        ));
        obj.push(Shape::new(l("metal1"), Rect::new(0, um(2), um(2), um(4))));
        obj.push(Shape::new(
            l("metal1"),
            Rect::new(um(4), um(2), um(6), um(4)),
        ));
        let e = Extractor::new(&t);
        assert_eq!(
            assert_matches_scan(&e, &obj),
            [vec![0, 2, 3, 4, 5], vec![1]]
        );
        assert_eq!(e.components(&obj).of(0), [0]);
    }

    /// A gate crossing a diffusion leaves two halves, each joining its
    /// own contact and strap, so both components start with the
    /// diffusion. The left half comes first, but the right half's next
    /// member is smaller, so its component comes first.
    #[test]
    fn halves_that_share_a_first_member_order_by_the_next() {
        let t = tech();
        let l = |name: &str| t.layer(name).unwrap();
        let mut obj = LayoutObject::new("halves");
        obj.push(Shape::new(l("pdiff"), Rect::new(0, 0, um(10), um(4))));
        obj.push(Shape::new(
            l("poly"),
            Rect::new(um(4), -um(1), um(5), um(5)),
        ));
        obj.push(Shape::new(
            l("contact"),
            Rect::new(um(7), um(1), um(8), um(2)),
        ));
        obj.push(Shape::new(l("metal1"), Rect::new(6_500, 500, 8_500, 2_500)));
        obj.push(Shape::new(
            l("contact"),
            Rect::new(um(1), um(1), um(2), um(2)),
        ));
        obj.push(Shape::new(l("metal1"), Rect::new(500, 500, 2_500, 2_500)));
        let e = Extractor::new(&t);
        assert_eq!(
            assert_matches_scan(&e, &obj),
            [vec![0, 2, 3], vec![0, 4, 5], vec![1]]
        );
        let table = e.components(&obj);
        assert_eq!(table.of(0), [0, 1]);
        assert_eq!(table.of(4), [1]);
    }

    /// A contact over a gate-split pdiff and an ndiff picks its device
    /// layer by the overlapping fragment's area: the pdiff's left half
    /// (8 µm²) is smaller than the ndiff (10 µm²), though the whole
    /// pdiff (40 µm²) is larger.
    #[test]
    fn a_piece_not_its_shape_decides_the_device_layer() {
        let t = tech();
        let l = |name: &str| t.layer(name).unwrap();
        let mut obj = LayoutObject::new("piece");
        obj.push(Shape::new(l("pdiff"), Rect::new(0, 0, um(10), um(4))));
        obj.push(Shape::new(
            l("poly"),
            Rect::new(um(2), -um(1), um(3), um(5)),
        ));
        obj.push(Shape::new(l("ndiff"), Rect::new(0, 0, 2_500, um(4))));
        obj.push(Shape::new(l("contact"), Rect::new(500, 500, 1_500, 1_500)));
        obj.push(Shape::new(l("metal1"), Rect::new(0, 0, um(2), um(2))));
        let e = Extractor::new(&t);
        assert_eq!(
            assert_matches_scan(&e, &obj),
            [vec![0], vec![0, 3, 4], vec![1], vec![2]]
        );
    }

    #[test]
    fn chain_of_touches_is_one_net() {
        let t = tech();
        let m1 = t.layer("metal1").unwrap();
        let mut obj = LayoutObject::new("x");
        for i in 0..5 {
            obj.push(Shape::new(
                m1,
                Rect::new(i * um(2), 0, (i + 1) * um(2), um(2)),
            ));
        }
        let nets = Extractor::new(&t).connectivity(&obj);
        assert_eq!(nets.len(), 1);
        assert_eq!(nets[0].shapes.len(), 5);
    }
}
