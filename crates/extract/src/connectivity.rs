//! Geometric connectivity extraction (union-find over shapes).

use amgen_core::{GenCtx, Stage};
use amgen_db::LayoutObject;
use amgen_tech::{LayerKind, RuleSet};

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

struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n).collect(),
        }
    }
    fn find(&mut self, i: usize) -> usize {
        if self.parent[i] != i {
            let r = self.find(self.parent[i]);
            self.parent[i] = r;
        }
        self.parent[i]
    }
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
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
    ///   fragmented against the overlapping poly shapes — the channel
    ///   under a gate separates source from drain even though the drawn
    ///   diffusion is one rectangle;
    /// * two fragments on the same **conductor** layer connect when they
    ///   touch or overlap;
    /// * a **cut** connects to the overlapping fragments of its
    ///   connectable layers — all routing-metal fragments, but on the
    ///   device side only the **most specific** layer (the one with the
    ///   smallest overlapping fragment). A contact over an
    ///   emitter-in-base stack therefore contacts the emitter, not the
    ///   base beneath it;
    /// * distinct conductor layers never connect by bare overlap (stacks
    ///   are junction-isolated);
    /// * non-conductor, non-cut layers (wells, implants) are left out.
    ///
    /// A diffusion shape crossed by a gate belongs to every component one
    /// of its fragments joined (its two halves are different nets).
    ///
    /// The gate-fragmentation, same-layer-contact and cut passes all run
    /// on packed [`RectTree`](amgen_geom::RectTree)s over the fragment
    /// rectangles — window queries instead of per-bucket all-pairs scans.
    /// Queries return candidates in ascending order and every exact
    /// predicate is re-applied, so the union-find sees the same unions in
    /// the same order as the scan and the extracted nets are
    /// byte-identical ([`connectivity_scan`](Extractor::connectivity_scan)
    /// is the parity baseline).
    pub fn connectivity(&self, obj: &LayoutObject) -> Vec<ExtractedNet> {
        self.connectivity_impl(obj, true)
    }

    /// The pre-index all-pairs connectivity pass, kept as the baseline
    /// the indexed pass is parity-tested against.
    #[doc(hidden)]
    pub fn connectivity_scan(&self, obj: &LayoutObject) -> Vec<ExtractedNet> {
        self.connectivity_impl(obj, false)
    }

    fn connectivity_impl(&self, obj: &LayoutObject, indexed: bool) -> Vec<ExtractedNet> {
        use amgen_geom::RectTree;
        let mut span = self
            .ctx
            .stage(Stage::Extract, || format!("connectivity:{}", obj.name()));
        span.arg("shapes", obj.len());
        let shapes = obj.shapes();
        // Gate regions that cut diffusion.
        let gates: Vec<amgen_geom::Rect> = shapes
            .iter()
            .filter(|s| self.ctx.kind(s.layer) == LayerKind::Poly)
            .map(|s| s.rect)
            .collect();
        let gate_tree =
            indexed.then(|| RectTree::build(gates.iter().enumerate().map(|(i, r)| (*r, i as u32))));
        // Fragment table.
        struct Frag {
            shape: usize,
            rect: amgen_geom::Rect,
        }
        let mut frags: Vec<Frag> = Vec::new();
        let mut cand: Vec<u32> = Vec::new();
        let mut ids: Vec<usize> = Vec::new();
        for (i, s) in shapes.iter().enumerate() {
            let k = self.ctx.kind(s.layer);
            if !(k.is_conductor() || k == LayerKind::Cut) {
                continue;
            }
            if k == LayerKind::Diffusion {
                let mut pieces = vec![s.rect];
                // The candidate set (sorted ascending) filtered by the
                // exact overlap test is the scan's gate subsequence.
                ids.clear();
                match &gate_tree {
                    Some(t) => {
                        t.query_into(&s.rect, &mut cand);
                        ids.extend(cand.iter().map(|&g| g as usize));
                    }
                    None => ids.extend(0..gates.len()),
                }
                for &gi in &ids {
                    let g = &gates[gi];
                    if !g.overlaps(&s.rect) {
                        continue;
                    }
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
        // Same-layer conductor contact. Only same-layer pairs can touch,
        // so bucket the fragments per layer first (the amplifier has
        // thousands of fragments; all-pairs across layers would dominate).
        let mut by_layer: std::collections::BTreeMap<amgen_tech::Layer, Vec<usize>> =
            Default::default();
        for (fi, f) in frags.iter().enumerate() {
            by_layer.entry(shapes[f.shape].layer).or_default().push(fi);
        }
        // One tree per layer bucket; payloads are *positions* in the
        // bucket's member list (ascending position = ascending fragment).
        let trees: Option<std::collections::BTreeMap<amgen_tech::Layer, RectTree>> =
            indexed.then(|| {
                by_layer
                    .iter()
                    .map(|(&l, members)| {
                        (
                            l,
                            RectTree::build(
                                members
                                    .iter()
                                    .enumerate()
                                    .map(|(p, &fi)| (frags[fi].rect, p as u32)),
                            ),
                        )
                    })
                    .collect()
            });
        for (layer, members) in &by_layer {
            if !self.ctx.kind(*layer).is_conductor() {
                continue;
            }
            for (p, &i) in members.iter().enumerate() {
                let ri = frags[i].rect;
                ids.clear();
                match &trees {
                    Some(tm) => {
                        tm[layer].query_into(&ri, &mut cand);
                        ids.extend(cand.iter().map(|&q| q as usize).filter(|&q| q > p));
                    }
                    None => ids.extend((p + 1)..members.len()),
                }
                for &q in &ids {
                    let j = members[q];
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
            // Only fragments on layers this cut can connect matter.
            for &(a, b) in self.ctx.connected_pairs(cut_layer) {
                for ol in [a, b] {
                    let Some(members) = by_layer.get(&ol) else {
                        continue;
                    };
                    ids.clear();
                    match &trees {
                        Some(tm) => {
                            tm[&ol].query_into(&cut_rect, &mut cand);
                            ids.extend(cand.iter().map(|&q| members[q as usize]));
                        }
                        None => ids.extend(members.iter().copied()),
                    }
                    for &oi in &ids {
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
            if !device_side.is_empty() {
                // Most specific device layer: smallest overlapping fragment.
                let best_layer = device_side
                    .iter()
                    .min_by_key(|&&oi| frags[oi].rect.area())
                    .map(|&oi| shapes[frags[oi].shape].layer)
                    .expect("non-empty");
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
