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
//! Construction sorts entries by a total key (tile centre, corner,
//! payload), so the packing — and therefore every traversal order — is a
//! pure function of the input multiset. [`RectTree::query`] additionally
//! sorts the surviving payloads ascending, giving consumers the same
//! iteration order a linear scan over payload-ordered storage would
//! produce. That property is what lets the DRC rewrites stay
//! byte-identical with their linear-scan baselines; consumers whose
//! result does not depend on visit order, such as connectivity
//! extraction's union-find, use the unsorted
//! [`for_each_candidate`](RectTree::for_each_candidate) instead.

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

#[derive(Debug, Clone)]
struct Node {
    /// Coordinate hull of everything below this node.
    bbox: Rect,
    /// Leaf: range into `entries`. Internal: range into `nodes`.
    first: u32,
    count: u32,
    leaf: bool,
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
    /// Bulk-loads a tree with Sort-Tile-Recursive packing.
    ///
    /// Deterministic: the packing depends only on the multiset of
    /// entries (ties broken by corner coordinates, then payload).
    pub fn build<I: IntoIterator<Item = (Rect, u32)>>(items: I) -> RectTree {
        let mut entries: Vec<(Rect, u32)> = items.into_iter().collect();
        if entries.is_empty() {
            return RectTree::default();
        }
        let leaves = entries.len().div_ceil(FANOUT);
        // Vertical slices of √(leaves) tiles, each sliced by y: classic STR.
        let slice = leaves.isqrt().max(1);
        let per_slice = slice * FANOUT;
        entries.sort_unstable_by_key(|(r, p)| (r.x0 + r.x1, r.x0, r.y0, *p));
        for chunk in entries.chunks_mut(per_slice) {
            chunk.sort_unstable_by_key(|(r, p)| (r.y0 + r.y1, r.y0, r.x0, *p));
        }
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
        // Pack each level's consecutive nodes under parents until one
        // root remains. Consecutive grouping keeps the STR locality.
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
        if let Some(root) = self.nodes.len().checked_sub(1) {
            self.visit(root, window, &mut f);
        }
    }

    fn visit<F: FnMut(u32, &Rect)>(&self, ni: usize, window: &Rect, f: &mut F) {
        let n = &self.nodes[ni];
        if !near(&n.bbox, window) {
            return;
        }
        let (first, count) = (n.first as usize, n.count as usize);
        if n.leaf {
            for (r, p) in &self.entries[first..first + count] {
                if near(r, window) {
                    f(*p, r);
                }
            }
        } else {
            for ci in first..first + count {
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
        self.nodes
            .len()
            .checked_sub(1)
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
        let (first, count) = (n.first as usize, n.count as usize);
        if n.leaf {
            self.entries[first..first + count]
                .iter()
                .any(|(r, p)| near(r, window) && pred(*p, r))
        } else {
            (first..first + count).any(|ci| self.visit_any(ci, window, pred))
        }
    }

    /// All index pairs `(i, j)` with `i < j` whose rectangles come
    /// within `dist` of each other (closed-interval test on rectangles
    /// inflated by `dist`), in lexicographic order. `dist = 0` yields
    /// exactly the touching-or-overlapping candidate pairs.
    pub fn pairs_within(&self, dist: Coord) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        let mut buf = Vec::new();
        for (r, i) in &self.entries {
            self.query_into(&r.inflated(dist.max(0)), &mut buf);
            out.extend(buf.iter().filter(|&&j| j > *i).map(|&j| (*i, j)));
        }
        out.sort_unstable();
        out
    }
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

    #[test]
    fn build_is_deterministic_under_input_order() {
        let mut items = random_rects(100, 42);
        let a = RectTree::build(items.clone());
        items.reverse();
        let b = RectTree::build(items);
        assert_eq!(a.entries, b.entries, "packing is input-order independent");
    }

    #[test]
    fn pairs_within_matches_all_pairs() {
        let items = random_rects(60, 7);
        let tree = RectTree::build(items.clone());
        for dist in [0, 3, 10] {
            let mut expect = Vec::new();
            for (i, (a, _)) in items.iter().enumerate() {
                for (j, (b, _)) in items.iter().enumerate().skip(i + 1) {
                    if near(&a.inflated(dist), b) {
                        expect.push((i as u32, j as u32));
                    }
                }
            }
            expect.sort_unstable();
            assert_eq!(tree.pairs_within(dist), expect, "dist={dist}");
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
