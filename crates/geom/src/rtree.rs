//! A packed R-tree over payload-carrying rectangles.
//!
//! [`RectTree`] is the window-query engine behind the layout database's
//! spatial index: it answers *"which rectangles come near this window?"*
//! in logarithmic time instead of a linear scan. The tree is bulk-loaded
//! once (Sort-Tile-Recursive packing) and immutable afterwards — the
//! database rebuilds it lazily after mutations, which matches the
//! generator pipeline where bursts of construction alternate with bursts
//! of read-only analysis (DRC, extraction, latch-up).
//!
//! # Candidate semantics
//!
//! Queries return a **candidate superset** under closed-interval
//! comparison of the raw corner coordinates: a stored rectangle is a
//! candidate for `window` when their coordinate ranges touch, which
//! covers strict interior overlap, edge/corner abutment, and degenerate
//! (zero-area) rectangles alike. Callers re-apply their exact predicate
//! ([`Rect::overlaps`], [`Rect::abuts`], a gap rule, …) on the
//! candidates; the tree only guarantees it never *misses* one.
//!
//! # Determinism
//!
//! Construction orders entries by two keys (tile centre, corner,
//! payload): it partitions them into vertical slices by rank under the x
//! key, which places each entry where a full x-sort would, then sorts
//! each slice by the y key. Both keys end in the payload, so with
//! distinct payloads (shape indices, as every caller passes) they are
//! total, and the packing — and therefore every traversal order — is a
//! pure function of the input set. [`RectTree::query`] additionally
//! sorts the surviving payloads ascending, giving consumers the same
//! iteration order a linear scan over payload-ordered storage would
//! produce; the latch-up check subtracts its covers in that order.
//! Consumers whose result does not depend on visit order use the unsorted
//! visitors: [`for_each_candidate`](RectTree::for_each_candidate) and
//! [`any_candidate`](RectTree::any_candidate) for one window (DRC's
//! width, gap-fill and enclosure cover tests, whose answer is a bool),
//! and the dual-tree joins [`join_within`](RectTree::join_within) and
//! [`self_join_within`](RectTree::self_join_within) for all pairs within
//! a distance. Sign-off runs its joins once per object, through the
//! layout database's spatial index, and shares the pairs, which come in
//! tree order: DRC spacing sorts the violations they yield by pair,
//! min-area and connectivity extraction fold them into order-free
//! union-finds, gate splitting sorts each diffusion shape's gates, and
//! the enclosure check sets per-cut flags.

use crate::coord::Coord;
use crate::rect::Rect;

/// Leaf fan-out: entries per leaf and children per internal node.
const FANOUT: usize = 8;

/// Closed-interval proximity of raw corner coordinates. True when the
/// coordinate ranges touch in both axes — the candidate predicate. Unlike
/// [`Rect::overlaps`]/[`Rect::abuts`] it deliberately does *not* special
/// case empty rectangles: a degenerate rectangle still has a position,
/// and a scan-equivalent index must surface it to the caller's filter.
#[inline]
fn near(a: &Rect, b: &Rect) -> bool {
    a.x0 <= b.x1 && b.x0 <= a.x1 && a.y0 <= b.y1 && b.y0 <= a.y1
}

/// Coordinate hull of two rectangles, keeping degenerate positions
/// (unlike [`Rect::union_bbox`], which drops empty operands).
#[inline]
fn hull(a: &Rect, b: &Rect) -> Rect {
    Rect {
        x0: a.x0.min(b.x0),
        y0: a.y0.min(b.y0),
        x1: a.x1.max(b.x1),
        y1: a.y1.max(b.y1),
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Node {
    /// Coordinate hull of everything below this node.
    bbox: Rect,
    /// Leaf: range into `entries`. Internal: range into `nodes`.
    first: u32,
    count: u32,
    leaf: bool,
}

impl Node {
    /// The node's range into `entries` (leaf) or `nodes` (internal).
    #[inline]
    fn range(&self) -> std::ops::Range<usize> {
        self.first as usize..(self.first + self.count) as usize
    }
}

/// An immutable, bulk-loaded R-tree over `(Rect, payload)` entries.
///
/// Payloads are opaque `u32`s — shape indices in the layout database,
/// fragment indices in the extractor. See the module docs for candidate
/// semantics and the determinism contract.
#[derive(Debug, Clone, Default)]
pub struct RectTree {
    entries: Vec<(Rect, u32)>,
    /// Level by level, leaves first; the root is the last node.
    nodes: Vec<Node>,
}

impl RectTree {
    /// Bulk-loads a tree with Sort-Tile-Recursive packing: the entries
    /// are cut into vertical slices of `√leaves` leaves each by the x key
    /// (tile centre, corner, payload), each slice is sorted by the y key
    /// and cut into leaves, and each level above packs consecutive nodes.
    ///
    /// Only slice membership depends on the x order, so the slices are
    /// found by rank, with a quickselect at each slice boundary, instead
    /// of a full sort; the packing is the one a full x-sort gives.
    /// Deterministic: with distinct payloads both keys are total, so the
    /// packing depends only on the set of entries.
    pub fn build<I: IntoIterator<Item = (Rect, u32)>>(items: I) -> RectTree {
        let mut entries: Vec<(Rect, u32)> = items.into_iter().collect();
        if entries.is_empty() {
            return RectTree::default();
        }
        let per_slice = slice_len(entries.len());
        partition_slices(&mut entries, per_slice);
        for chunk in entries.chunks_mut(per_slice) {
            chunk.sort_unstable_by_key(y_key);
        }
        RectTree::pack(entries)
    }

    /// Cuts STR-ordered entries into leaves of `FANOUT` and packs each
    /// level's consecutive nodes under parents until one root remains.
    fn pack(entries: Vec<(Rect, u32)>) -> RectTree {
        let leaves = entries.len().div_ceil(FANOUT);
        let mut nodes: Vec<Node> = Vec::with_capacity(2 * leaves);
        let mut first = 0u32;
        for chunk in entries.chunks(FANOUT) {
            let bbox = chunk
                .iter()
                .map(|(r, _)| r)
                .fold(chunk[0].0, |acc, r| hull(&acc, r));
            nodes.push(Node {
                bbox,
                first,
                count: chunk.len() as u32,
                leaf: true,
            });
            first += chunk.len() as u32;
        }
        // Consecutive grouping keeps the STR locality.
        let (mut lo, mut hi) = (0usize, nodes.len());
        while hi - lo > 1 {
            for start in (lo..hi).step_by(FANOUT) {
                let end = (start + FANOUT).min(hi);
                let bbox = nodes[start..end]
                    .iter()
                    .fold(nodes[start].bbox, |acc, n| hull(&acc, &n.bbox));
                nodes.push(Node {
                    bbox,
                    first: start as u32,
                    count: (end - start) as u32,
                    leaf: false,
                });
            }
            lo = hi;
            hi = nodes.len();
        }
        RectTree { entries, nodes }
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the tree holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Coordinate hull of every entry ([`Rect::EMPTY`] when empty).
    /// Degenerate entries contribute their position to the hull.
    pub fn bounds(&self) -> Rect {
        self.nodes.last().map_or(Rect::EMPTY, |root| root.bbox)
    }

    /// Calls `f(payload, rect)` for every candidate near `window`
    /// (closed-interval test, see the module docs), in **tree order** —
    /// deterministic for a given tree, but *not* payload-ascending. Use
    /// [`query`](Self::query) when ordering matters.
    #[inline]
    pub fn for_each_candidate<F: FnMut(u32, &Rect)>(&self, window: &Rect, mut f: F) {
        if let Some(root) = self.root() {
            self.visit(root, window, &mut f);
        }
    }

    fn visit<F: FnMut(u32, &Rect)>(&self, ni: usize, window: &Rect, f: &mut F) {
        let n = &self.nodes[ni];
        if !near(&n.bbox, window) {
            return;
        }
        if n.leaf {
            for (r, p) in self.leaf_entries(n) {
                if near(r, window) {
                    f(*p, r);
                }
            }
        } else {
            for ci in n.range() {
                self.visit(ci, window, f);
            }
        }
    }

    /// Candidate payloads near `window`, sorted ascending — the same
    /// order a linear scan over payload-ordered storage would visit.
    pub fn query(&self, window: &Rect) -> Vec<u32> {
        let mut out = Vec::new();
        self.query_into(window, &mut out);
        out
    }

    /// [`query`](Self::query) into a reusable buffer (cleared first).
    pub fn query_into(&self, window: &Rect, out: &mut Vec<u32>) {
        out.clear();
        self.for_each_candidate(window, |p, _| out.push(p));
        out.sort_unstable();
    }

    /// True if any candidate near `window` satisfies `pred`; descends
    /// only subtrees whose hull touches the window and stops at the
    /// first hit. Order of evaluation is tree order, so `pred` should be
    /// order-insensitive (a pure geometric test).
    pub fn any_candidate<F: FnMut(u32, &Rect) -> bool>(&self, window: &Rect, mut pred: F) -> bool {
        self.root()
            .is_some_and(|root| self.visit_any(root, window, &mut pred))
    }

    fn visit_any<F: FnMut(u32, &Rect) -> bool>(
        &self,
        ni: usize,
        window: &Rect,
        pred: &mut F,
    ) -> bool {
        let n = &self.nodes[ni];
        if !near(&n.bbox, window) {
            return false;
        }
        if n.leaf {
            self.leaf_entries(n)
                .iter()
                .any(|(r, p)| near(r, window) && pred(*p, r))
        } else {
            n.range().any(|ci| self.visit_any(ci, window, pred))
        }
    }

    /// Calls `f(p, a, q, b)` once for every pair of an entry `(a, p)` of
    /// `self` and an entry `(b, q)` of `other` whose rectangles come
    /// within `dist` of each other: the closed-interval test on `a`
    /// inflated by `dist` (`dist >= 0`), so `dist = 0` yields exactly the
    /// touching-or-overlapping candidate pairs.
    ///
    /// A dual-tree walk: node pairs whose hulls are farther apart than
    /// `dist` are pruned whole, and at a pair of leaves only the entries
    /// within `dist` of the other leaf's hull are tested against each
    /// other. Pairs arrive in **tree order**
    /// (deterministic for the two trees, but unordered by payload), so
    /// callers sort or fold order-free.
    pub fn join_within<F: FnMut(u32, &Rect, u32, &Rect)>(
        &self,
        other: &RectTree,
        dist: Coord,
        mut f: F,
    ) {
        debug_assert!(dist >= 0, "join distance must be non-negative");
        if let (Some(a), Some(b)) = (self.root(), other.root()) {
            self.join_nodes(a, other, b, dist, &mut f);
        }
    }

    /// [`join_within`](Self::join_within) of the tree with itself: every
    /// unordered pair of distinct entries within `dist`, once, in tree
    /// order. An entry is never paired with itself.
    pub fn self_join_within<F: FnMut(u32, &Rect, u32, &Rect)>(&self, dist: Coord, mut f: F) {
        debug_assert!(dist >= 0, "join distance must be non-negative");
        if let Some(root) = self.root() {
            self.self_join_node(root, dist, &mut f);
        }
    }

    fn root(&self) -> Option<usize> {
        self.nodes.len().checked_sub(1)
    }

    fn join_nodes<F: FnMut(u32, &Rect, u32, &Rect)>(
        &self,
        ai: usize,
        other: &RectTree,
        bi: usize,
        dist: Coord,
        f: &mut F,
    ) {
        let (a, b) = (&self.nodes[ai], &other.nodes[bi]);
        if !within(&a.bbox, &b.bbox, dist) {
            return;
        }
        if a.leaf && b.leaf {
            // Only entries within `dist` of the other leaf's hull can
            // pair: filter `b`'s once, then `a`'s against `b`'s hull.
            let eb = other.leaf_entries(b);
            let mut near_a = [0usize; FANOUT];
            let mut kept = 0;
            for (k, (rb, _)) in eb.iter().enumerate() {
                if within(&a.bbox, rb, dist) {
                    near_a[kept] = k;
                    kept += 1;
                }
            }
            if kept == 0 {
                return;
            }
            for (ra, p) in self.leaf_entries(a) {
                if !within(ra, &b.bbox, dist) {
                    continue;
                }
                for &k in &near_a[..kept] {
                    let (rb, q) = &eb[k];
                    if within(ra, rb, dist) {
                        f(*p, ra, *q, rb);
                    }
                }
            }
        } else if !a.leaf && (b.leaf || half_perimeter(&a.bbox) >= half_perimeter(&b.bbox)) {
            // Descend the internal side, or the larger hull of two.
            for c in a.range() {
                self.join_nodes(c, other, bi, dist, f);
            }
        } else {
            for c in b.range() {
                self.join_nodes(ai, other, c, dist, f);
            }
        }
    }

    fn self_join_node<F: FnMut(u32, &Rect, u32, &Rect)>(&self, ni: usize, dist: Coord, f: &mut F) {
        let n = &self.nodes[ni];
        if n.leaf {
            let entries = self.leaf_entries(n);
            for (k, (ra, p)) in entries.iter().enumerate() {
                for (rb, q) in &entries[k + 1..] {
                    if within(ra, rb, dist) {
                        f(*p, ra, *q, rb);
                    }
                }
            }
        } else {
            // Pairs inside each child, then pairs across two siblings.
            for c in n.range() {
                self.self_join_node(c, dist, f);
                for d in c + 1..n.range().end {
                    self.join_nodes(c, self, d, dist, f);
                }
            }
        }
    }

    fn leaf_entries(&self, n: &Node) -> &[(Rect, u32)] {
        &self.entries[n.range()]
    }
}

/// The join predicate: `a` inflated by `dist` and `b` touch under the
/// closed-interval candidate test.
#[inline]
fn within(a: &Rect, b: &Rect, dist: Coord) -> bool {
    a.x0 - dist <= b.x1 && b.x0 <= a.x1 + dist && a.y0 - dist <= b.y1 && b.y0 <= a.y1 + dist
}

/// Entries per STR slice for `n` entries: `√leaves` leaves' worth.
fn slice_len(n: usize) -> usize {
    n.div_ceil(FANOUT).isqrt().max(1) * FANOUT
}

/// The STR slice key: tile centre in x, then corner, then payload.
fn x_key(&(r, p): &(Rect, u32)) -> (Coord, Coord, Coord, u32) {
    (r.x0 + r.x1, r.x0, r.y0, p)
}

/// The STR leaf key within a slice: tile centre in y, then corner, then
/// payload.
fn y_key(&(r, p): &(Rect, u32)) -> (Coord, Coord, Coord, u32) {
    (r.y0 + r.y1, r.y0, r.x0, p)
}

/// Rearranges `entries` so that each run of `per_slice` (the last may
/// be shorter) holds the entries that a full sort by [`x_key`] would put
/// there, in no particular order: a quickselect at the middle slice
/// boundary, then the same on each side.
fn partition_slices(entries: &mut [(Rect, u32)], per_slice: usize) {
    let slices = entries.len().div_ceil(per_slice);
    if slices > 1 {
        let mid = slices / 2 * per_slice;
        entries.select_nth_unstable_by_key(mid, x_key);
        let (lo, hi) = entries.split_at_mut(mid);
        partition_slices(lo, per_slice);
        partition_slices(hi, per_slice);
    }
}

/// Half the perimeter of a hull: the size measure that picks which side
/// of a join descends first.
#[inline]
fn half_perimeter(r: &Rect) -> Coord {
    (r.x1 - r.x0) + (r.y1 - r.y0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(items: &[(Rect, u32)], window: &Rect) -> Vec<u32> {
        let mut v: Vec<u32> = items
            .iter()
            .filter(|(r, _)| near(r, window))
            .map(|(_, p)| *p)
            .collect();
        v.sort_unstable();
        v
    }

    /// Deterministic pseudo-random rectangles (xorshift, fixed seed).
    fn random_rects(n: usize, seed: u64) -> Vec<(Rect, u32)> {
        let mut s = seed | 1;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 97) as Coord
        };
        (0..n)
            .map(|i| {
                let (x, y, w, h) = (next(), next(), next() % 13, next() % 13);
                (Rect::new(x, y, x + w, y + h), i as u32)
            })
            .collect()
    }

    #[test]
    fn query_matches_linear_scan() {
        for n in [0usize, 1, 5, 8, 9, 64, 65, 300] {
            let items = random_rects(n, 0x5eed + n as u64);
            let tree = RectTree::build(items.clone());
            assert_eq!(tree.len(), n);
            for seed in 0..40u64 {
                let w = random_rects(1, 1000 + seed)[0].0;
                assert_eq!(tree.query(&w), scan(&items, &w), "n={n} window={w:?}");
            }
            // Whole-plane window returns everything.
            let all = Rect::new(-1000, -1000, 1000, 1000);
            assert_eq!(tree.query(&all).len(), n);
        }
    }

    #[test]
    fn degenerate_rects_are_candidates() {
        // A zero-width rectangle still occupies a position; the index
        // must surface it so callers can apply their own emptiness rule.
        let items = vec![(Rect::new(5, 0, 5, 10), 0), (Rect::new(20, 0, 30, 10), 1)];
        let tree = RectTree::build(items);
        assert_eq!(tree.query(&Rect::new(0, 0, 6, 6)), vec![0]);
        assert_eq!(
            tree.query(&Rect::new(5, 10, 25, 20)),
            vec![0, 1],
            "corner touch counts"
        );
    }

    #[test]
    fn bounds_and_empty() {
        let tree = RectTree::default();
        assert!(tree.is_empty());
        assert_eq!(tree.bounds(), Rect::EMPTY);
        assert!(tree.query(&Rect::new(-100, -100, 100, 100)).is_empty());
        let tree = RectTree::build([(Rect::new(2, 3, 10, 7), 7), (Rect::new(-4, 5, 1, 20), 9)]);
        assert_eq!(tree.bounds(), Rect::new(-4, 3, 10, 20));
    }

    /// The two-sort STR packer: every entry sorted by the x key, then
    /// each slice by the y key. [`RectTree::build`] must pack the same.
    fn build_by_full_sort(mut entries: Vec<(Rect, u32)>) -> RectTree {
        if entries.is_empty() {
            return RectTree::default();
        }
        let per_slice = slice_len(entries.len());
        entries.sort_unstable_by_key(x_key);
        for chunk in entries.chunks_mut(per_slice) {
            chunk.sort_unstable_by_key(y_key);
        }
        RectTree::pack(entries)
    }

    /// [`with_degenerates`] with heavy key ties: every third rect moved
    /// into one of four columns of equal `x0 + x1` and `x0`, and every
    /// fifth a copy of its predecessor's rect under its own payload.
    fn with_ties(n: usize, seed: u64) -> Vec<(Rect, u32)> {
        let mut items = with_degenerates(n, seed);
        for (k, (r, _)) in items.iter_mut().enumerate().filter(|(k, _)| k % 3 == 0) {
            let x = (k % 4) as Coord * 10;
            *r = Rect::new(x, r.y0, x + 6, r.y1);
        }
        for k in (1..n).step_by(5) {
            items[k].0 = items[k - 1].0;
        }
        items
    }

    /// Packing by rank equals packing by a full sort, entry for entry and
    /// node for node: sizes around the fan-out and the slice boundaries
    /// (144 entries make 18 leaves in slices of four; 145 a 19th leaf),
    /// and up to 5,000 entries, in 97-unit squares whose coordinates tie
    /// often, with and without columns of tied x keys.
    #[test]
    fn rank_partition_packs_like_a_full_sort() {
        for n in [0usize, 1, 8, 9, 63, 64, 65, 144, 145, 1_500, 5_000] {
            for items in [random_rects(n, 11 + n as u64), with_ties(n, 23 + n as u64)] {
                let got = RectTree::build(items.clone());
                let want = build_by_full_sort(items);
                assert_eq!(got.entries, want.entries, "entries, n={n}");
                assert_eq!(got.nodes, want.nodes, "nodes, n={n}");
            }
        }
    }

    #[test]
    fn build_is_deterministic_under_input_order() {
        let mut items = random_rects(100, 42);
        let a = RectTree::build(items.clone());
        items.reverse();
        let b = RectTree::build(items);
        assert_eq!(a.entries, b.entries, "packing is input-order independent");
    }

    /// Brute-force pairs within `dist`, `(i, j)` with `i < j`, sorted.
    fn all_pairs(a: &[(Rect, u32)], b: &[(Rect, u32)], dist: Coord, same: bool) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for (ra, p) in a {
            for (rb, q) in b {
                if (!same || p < q) && near(&ra.inflated(dist), rb) {
                    out.push((*p, *q));
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Random rectangles with every fourth one degenerate (zero width,
    /// zero height or a point).
    fn with_degenerates(n: usize, seed: u64) -> Vec<(Rect, u32)> {
        let mut items = random_rects(n, seed);
        for (k, (r, _)) in items.iter_mut().enumerate().filter(|(k, _)| k % 4 == 0) {
            *r = match k % 3 {
                0 => Rect::new(r.x0, r.y0, r.x0, r.y1),
                1 => Rect::new(r.x0, r.y0, r.x1, r.y0),
                _ => Rect::new(r.x0, r.y0, r.x0, r.y0),
            };
        }
        items
    }

    /// [`with_degenerates`] with every 150th entry replaced by a rail
    /// across the whole square, alternately horizontal and vertical: a
    /// leaf holding one has a hull far larger than its other entries.
    fn with_rails(n: usize, seed: u64) -> Vec<(Rect, u32)> {
        let mut items = with_degenerates(n, seed);
        for (k, (r, _)) in items.iter_mut().enumerate().filter(|(k, _)| k % 150 == 149) {
            let at = r.x0;
            *r = if k % 300 == 149 {
                Rect::new(-5, at, 110, at + 2)
            } else {
                Rect::new(at, -5, at + 2, 110)
            };
        }
        items
    }

    /// The joins against brute force: empty and one-entry trees, sizes
    /// around the fan-out, four-level trees (600 and 1,500 entries) with
    /// rails across the square, degenerate rectangles, `dist` 0, 3 and
    /// 10. Every pair comes exactly once, so the sorted output equals the
    /// sorted brute-force list without deduplication.
    #[test]
    fn joins_match_brute_force() {
        for (n, m) in [
            (0usize, 0usize),
            (0, 5),
            (1, 0),
            (1, 1),
            (1, 9),
            (8, 9),
            (60, 7),
            (65, 130),
            (600, 1500),
            (1500, 600),
        ] {
            let a = with_rails(n, 7 + n as u64);
            // Payloads of `b` start past `a`'s so the two sides never collide.
            let b: Vec<(Rect, u32)> = with_rails(m, 99 + m as u64)
                .into_iter()
                .map(|(r, q)| (r, q + 10_000))
                .collect();
            let (ta, tb) = (RectTree::build(a.clone()), RectTree::build(b.clone()));
            for dist in [0, 3, 10] {
                let mut got = Vec::new();
                ta.self_join_within(dist, |p, ra, q, rb| {
                    assert_eq!((ra, rb), (&a[p as usize].0, &a[q as usize].0));
                    got.push((p.min(q), p.max(q)));
                });
                got.sort_unstable();
                assert_eq!(got, all_pairs(&a, &a, dist, true), "self n={n} dist={dist}");

                let mut got = Vec::new();
                ta.join_within(&tb, dist, |p, ra, q, rb| {
                    assert_eq!((ra, rb), (&a[p as usize].0, &b[(q - 10_000) as usize].0));
                    got.push((p, q));
                });
                got.sort_unstable();
                assert_eq!(
                    got,
                    all_pairs(&a, &b, dist, false),
                    "join n={n} m={m} dist={dist}"
                );
            }
        }
    }

    #[test]
    fn any_candidate_early_exit() {
        let tree = RectTree::build(random_rects(50, 3));
        let w = Rect::new(0, 0, 97, 97);
        assert!(tree.any_candidate(&w, |_, r| !r.is_empty()));
        assert!(!tree.any_candidate(&Rect::new(500, 500, 600, 600), |_, _| true));
    }
}
