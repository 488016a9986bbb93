//! Geometric connectivity extraction (union-find over shapes).

use std::borrow::Cow;

use amgen_core::{GenCtx, Stage};
use amgen_db::{LayoutObject, NetId};
use amgen_geom::{Rect, RectTree};
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

/// Disjoint sets over fragment indices.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    /// The root of `i`'s set, by path halving. Iterative: a chain of
    /// abutting shapes can build a parent chain as long as itself.
    fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            let grandparent = self.parent[self.parent[i]];
            self.parent[i] = grandparent;
            i = grandparent;
        }
        i
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// The conductor and cut fragments of a layout, in shape order: every
/// such shape is one fragment, except gate-split diffusion.
struct Fragments {
    /// `(rect, shape index)` per fragment.
    frags: Vec<(Rect, u32)>,
    /// Shape `i` owns fragments `first[i]..first[i + 1]`.
    first: Vec<u32>,
    /// Per layer index: a gate split some shape on the layer.
    split: Vec<bool>,
}

impl Fragments {
    /// Splits every diffusion shape by the poly shapes overlapping it,
    /// applied in ascending shape order (the order fixes the pieces).
    fn new(rules: &RuleSet, obj: &LayoutObject) -> Fragments {
        let shapes = obj.shapes();
        let ix = obj.spatial_index();
        let gate_trees: Vec<&RectTree> = rules
            .layers()
            .filter(|&l| rules.kind(l) == LayerKind::Poly)
            .filter_map(|l| ix.layer(l))
            .collect();
        let mut out = Fragments {
            frags: Vec::with_capacity(shapes.len()),
            first: Vec::with_capacity(shapes.len() + 1),
            split: vec![false; rules.layer_count()],
        };
        let (mut gates, mut pieces, mut next) = (Vec::new(), Vec::new(), Vec::new());
        for (i, s) in shapes.iter().enumerate() {
            out.first.push(out.frags.len() as u32);
            let k = rules.kind(s.layer);
            if !(k.is_conductor() || k == LayerKind::Cut) {
                continue;
            }
            if k == LayerKind::Diffusion {
                gates.clear();
                for t in &gate_trees {
                    t.for_each_candidate(&s.rect, |g, r| {
                        if r.overlaps(&s.rect) {
                            gates.push(g);
                        }
                    });
                }
                if !gates.is_empty() {
                    gates.sort_unstable();
                    pieces.clear();
                    pieces.push(s.rect);
                    for &g in &gates {
                        next.clear();
                        for p in &pieces {
                            next.extend(p.subtract(&shapes[g as usize].rect));
                        }
                        std::mem::swap(&mut pieces, &mut next);
                    }
                    out.frags.extend(pieces.iter().map(|&r| (r, i as u32)));
                    out.split[s.layer.index()] = true;
                    continue;
                }
            }
            out.frags.push((s.rect, i as u32));
        }
        out.first.push(out.frags.len() as u32);
        out
    }

    /// The fragment of an unsplit shape.
    #[inline]
    fn of(&self, shape: u32) -> usize {
        self.first[shape as usize] as usize
    }
}

/// Where the fragments of one conductor layer are found.
enum LayerFrags<'a> {
    /// No fragment on the layer, or not a conductor.
    Absent,
    /// The fragments are the layer's shapes: the object's own spatial
    /// index tree, whose payloads are shape indices.
    Shapes(&'a RectTree),
    /// Gate-split diffusion: a private tree whose payloads are fragment
    /// indices.
    Split(RectTree),
}

/// One cut layer a conductor layer connects to.
struct CutLink<'a> {
    /// The cut layer's tree in the object's index (payloads are shape
    /// indices; cuts are never split).
    cuts: &'a RectTree,
    /// `None` on the metal side. On the device side, the conductor's
    /// rank among the cut's device layers, in the order of their first
    /// `connect` line in the deck.
    device_rank: Option<usize>,
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
    /// Every query goes to the object's
    /// [spatial index](LayoutObject::spatial_index), the per-layer trees
    /// DRC and the latch-up check share; only gate-split diffusion gets a
    /// private fragment tree. Each conductor fragment queries its own
    /// layer once and each cut layer it connects to once. Components are
    /// sets, so the order in which unions are found does not matter, and
    /// the output is canonical: members ascending, nets ordered by member
    /// list, declared names sorted. The one order-sensitive choice is the
    /// device-layer tie-break above. The result is byte-identical to the
    /// all-pairs [`connectivity_scan`](Extractor::connectivity_scan).
    ///
    /// The member lists are memoised in the spatial index for this deck
    /// ([`SpatialIndex::components`](amgen_db::SpatialIndex::components)),
    /// so DRC's spacing check, [`parasitics`](Extractor::parasitics) and
    /// this call share one extraction per object. Every geometry mutation
    /// drops the memo with the index. The declared names are not
    /// memoised: each call reads them from the object's current net
    /// table, so renaming nets needs no invalidation.
    pub fn connectivity(&self, obj: &LayoutObject) -> Vec<ExtractedNet> {
        let mut span = self
            .ctx
            .stage(Stage::Extract, || format!("connectivity:{}", obj.name()));
        span.arg("shapes", obj.len());
        self.member_lists(obj)
            .iter()
            .map(|shapes| ExtractedNet {
                declared: declared_names(obj, shapes),
                shapes: shapes.clone(),
            })
            .collect()
    }

    /// The member shape indices of every component, canonical (members
    /// ascending, components ordered by member list), from the memo in
    /// the object's spatial index — the geometry half of
    /// [`connectivity`](Extractor::connectivity), without the names.
    /// DRC's same-component spacing exemption reads it.
    pub fn components<'a>(&self, obj: &'a LayoutObject) -> Cow<'a, [Vec<usize>]> {
        let mut span = self
            .ctx
            .stage(Stage::Extract, || format!("components:{}", obj.name()));
        span.arg("shapes", obj.len());
        self.member_lists(obj)
    }

    /// The memo lookup; the caller holds the `Stage::Extract` guard.
    fn member_lists<'a>(&self, obj: &'a LayoutObject) -> Cow<'a, [Vec<usize>]> {
        obj.spatial_index()
            .components(self.rules().id(), || self.extract(obj))
    }

    /// The extraction kernel on the spatial index (see
    /// [`connectivity`](Extractor::connectivity) for the rules).
    fn extract(&self, obj: &LayoutObject) -> Vec<Vec<usize>> {
        let rules = self.rules();
        let ix = obj.spatial_index();
        let fr = Fragments::new(rules, obj);
        let layer_of = |f: usize| obj.shapes()[fr.frags[f].1 as usize].layer;
        let layers: Vec<LayerFrags> = rules
            .layers()
            .map(|l| match ix.layer(l) {
                Some(_) if fr.split[l.index()] => LayerFrags::Split(RectTree::build(
                    (0..fr.frags.len())
                        .filter(|&f| layer_of(f) == l)
                        .map(|f| (fr.frags[f].0, f as u32)),
                )),
                Some(t) if rules.kind(l).is_conductor() => LayerFrags::Shapes(t),
                _ => LayerFrags::Absent,
            })
            .collect();
        let is_device = |l: Layer| rules.kind(l) != LayerKind::Metal;
        let mut links: Vec<Vec<CutLink>> = rules.layers().map(|_| Vec::new()).collect();
        for cut in rules.layers().filter(|&l| rules.kind(l) == LayerKind::Cut) {
            let Some(cuts) = ix.layer(cut) else {
                continue;
            };
            let mut seen: Vec<Layer> = Vec::new();
            for &(a, b) in rules.connected_pairs(cut) {
                for side in [a, b] {
                    if seen.contains(&side) {
                        continue;
                    }
                    let device_rank =
                        is_device(side).then(|| seen.iter().filter(|&&l| is_device(l)).count());
                    seen.push(side);
                    links[side.index()].push(CutLink { cuts, device_rank });
                }
            }
        }
        let mut uf = UnionFind::new(fr.frags.len());
        // Per cut fragment, the (area, rank) of its most specific device
        // fragment; the device-side overlaps wait until all are known.
        let mut best = vec![(i128::MAX, usize::MAX); fr.frags.len()];
        let mut device: Vec<(usize, usize, usize)> = Vec::new();
        for (f, (rect, _)) in fr.frags.iter().enumerate() {
            let l = layer_of(f);
            match &layers[l.index()] {
                LayerFrags::Absent => continue,
                LayerFrags::Shapes(t) => t.for_each_candidate(rect, |p, r| {
                    let g = fr.of(p);
                    if g > f && (rect.overlaps(r) || rect.abuts(r)) {
                        uf.union(f, g);
                    }
                }),
                LayerFrags::Split(t) => t.for_each_candidate(rect, |g, r| {
                    if g as usize > f && (rect.overlaps(r) || rect.abuts(r)) {
                        uf.union(f, g as usize);
                    }
                }),
            }
            for link in &links[l.index()] {
                link.cuts.for_each_candidate(rect, |p, r| {
                    if !rect.overlaps(r) {
                        return;
                    }
                    let c = fr.of(p);
                    match link.device_rank {
                        None => uf.union(f, c),
                        Some(rank) => {
                            device.push((c, f, rank));
                            best[c] = best[c].min((rect.area(), rank));
                        }
                    }
                });
            }
        }
        for &(c, f, rank) in &device {
            if best[c].1 == rank {
                uf.union(c, f);
            }
        }
        canonical_members(&fr, &mut uf)
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
        let mut uf = UnionFind::new(frags.len());
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
                        uf.union(i, j);
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
                uf.union(ci, oi);
            }
            // Most specific device layer: the first smallest overlapping
            // fragment in discovery (deck `connect`) order.
            if let Some(best) = device_side.iter().min_by_key(|&&oi| frags[oi].rect.area()) {
                let best_layer = shapes[frags[*best].shape].layer;
                for &oi in &device_side {
                    if shapes[frags[oi].shape].layer == best_layer {
                        uf.union(ci, oi);
                    }
                }
            }
        }
        // Collect components (shape indices, deduplicated).
        let mut by_root: std::collections::HashMap<usize, Vec<usize>> = Default::default();
        for (fi, f) in frags.iter().enumerate() {
            by_root.entry(uf.find(fi)).or_default().push(f.shape);
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

/// The components' member lists, canonical: members ascending and
/// deduplicated, lists ordered by their members. Fragments are in shape
/// order, so each list comes out ascending; a root→slot table groups
/// them.
fn canonical_members(fr: &Fragments, uf: &mut UnionFind) -> Vec<Vec<usize>> {
    let mut slot = vec![usize::MAX; fr.frags.len()];
    let mut members: Vec<Vec<usize>> = Vec::new();
    for (f, &(_, shape)) in fr.frags.iter().enumerate() {
        let root = uf.find(f);
        if slot[root] == usize::MAX {
            slot[root] = members.len();
            members.push(Vec::new());
        }
        let m = &mut members[slot[root]];
        if m.last() != Some(&(shape as usize)) {
            m.push(shape as usize);
        }
    }
    members.sort();
    members
}

/// The declared net names on a component's members, sorted and
/// deduplicated; net ids are deduplicated before any name is copied.
fn declared_names(obj: &LayoutObject, shapes: &[usize]) -> Vec<String> {
    let mut ids: Vec<NetId> = shapes.iter().filter_map(|&i| obj.shapes()[i].net).collect();
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
