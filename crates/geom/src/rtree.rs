//! A packed R-tree over payload-carrying rectangles.
//!
//! [`RectTree`] is the window-query engine behind the layout database's
//! spatial index: it answers *"which rectangles come near this window?"*
//! in logarithmic time instead of a linear scan. The tree is bulk-loaded
//! once (entries sorted by left edge, leaves and nodes packed in that
//! order) and immutable afterwards — the database rebuilds it lazily
//! after mutations, which matches the generator pipeline where bursts of
//! construction alternate with bursts of read-only analysis (DRC,
//! extraction, latch-up).
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
//! Construction sorts the entries by `(x0, payload)`. With distinct
//! payloads (shape indices, as every caller passes) the key is total,
//! so the packing — and therefore every traversal and sweep order — is
//! a pure function of the input set. [`RectTree::query`] additionally
//! sorts the surviving payloads ascending, giving consumers the same
//! iteration order a linear scan over payload-ordered storage would
//! produce; the latch-up check subtracts its covers in that order.
//! Consumers whose result does not depend on visit order use the unsorted
//! visitors: [`for_each_candidate`](RectTree::for_each_candidate) and
//! [`any_candidate`](RectTree::any_candidate) for one window (DRC's
//! width, gap-fill and enclosure cover tests, whose answer is a bool),
//! which visit in tree order, and the sweep joins
//! [`join_within`](RectTree::join_within) and
//! [`self_join_within`](RectTree::self_join_within) for all pairs within
//! a distance, which report in sweep order. Sign-off runs its joins once
//! per object, through the layout database's spatial index, and shares
//! the pairs: DRC spacing sorts the violations they yield by pair,
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
    /// Bulk-loads a tree: the entries are sorted once by `(x0, payload)`,
    /// cut into leaves in that order, and each level above packs
    /// consecutive nodes. The sorted entry array is also what the joins
    /// sweep.
    ///
    /// Deterministic: with distinct payloads the key is total, so the
    /// packing depends only on the set of entries.
    pub fn build<I: IntoIterator<Item = (Rect, u32)>>(items: I) -> RectTree {
        let mut entries: Vec<(Rect, u32)> = items.into_iter().collect();
        entries.sort_unstable_by_key(|&(r, p)| (r.x0, p));
        RectTree::pack(entries)
    }

    /// Cuts x-ordered entries into leaves of `FANOUT` and packs each
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
        // Consecutive grouping keeps the x locality.
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
    /// A forward-scan sweep that merges the two x-sorted entry arrays.
    /// Each step takes the next entry of `self` when its left edge, less
    /// `dist`, is not right of the next entry of `other`'s, and the next
    /// entry of `other` otherwise. The taken entry scans the other
    /// side's entries not yet taken, forward while their left edge lies
    /// within `dist` of its right edge, and tests each against the full
    /// predicate on both axes. So a pair is reported once, by whichever
    /// of its two entries the merge takes first. Pairs arrive in **sweep
    /// order** (deterministic for the two entry sets, but unordered by
    /// payload), so callers sort or fold order-free.
    pub fn join_within<F: FnMut(u32, &Rect, u32, &Rect)>(
        &self,
        other: &RectTree,
        dist: Coord,
        mut f: F,
    ) {
        debug_assert!(dist >= 0, "join distance must be non-negative");
        let (ea, eb) = (&self.entries[..], &other.entries[..]);
        let (mut i, mut j) = (0, 0);
        while let (Some((ra, p)), Some((rb, q))) = (ea.get(i), eb.get(j)) {
            if ra.x0 - dist <= rb.x0 {
                for (rb, q) in reach(&eb[j..], ra, dist) {
                    if within(ra, rb, dist) {
                        f(*p, ra, *q, rb);
                    }
                }
                i += 1;
            } else {
                for (ra, p) in reach(&ea[i..], rb, dist) {
                    if within(ra, rb, dist) {
                        f(*p, ra, *q, rb);
                    }
                }
                j += 1;
            }
        }
    }

    /// [`join_within`](Self::join_within) of the tree with itself: every
    /// unordered pair of distinct entries within `dist`, once, in sweep
    /// order. Each entry scans the entries after it, forward while their
    /// left edge lies within `dist` of its right edge. An entry is never
    /// paired with itself.
    pub fn self_join_within<F: FnMut(u32, &Rect, u32, &Rect)>(&self, dist: Coord, mut f: F) {
        debug_assert!(dist >= 0, "join distance must be non-negative");
        for (k, (ra, p)) in self.entries.iter().enumerate() {
            for (rb, q) in reach(&self.entries[k + 1..], ra, dist) {
                if within(ra, rb, dist) {
                    f(*p, ra, *q, rb);
                }
            }
        }
    }

    fn root(&self) -> Option<usize> {
        self.nodes.len().checked_sub(1)
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

/// The leading run of x-sorted `entries` whose left edge lies within
/// `dist` of `r`'s right edge. It holds every entry that can come within
/// `dist` of `r`, since [`within`] tests exactly that bound, among
/// others: the sort order only bounds the scan.
#[inline]
fn reach<'e>(
    entries: &'e [(Rect, u32)],
    r: &Rect,
    dist: Coord,
) -> impl Iterator<Item = &'e (Rect, u32)> {
    let edge = r.x1 + dist;
    entries.iter().take_while(move |(e, _)| e.x0 <= edge)
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

    /// [`with_degenerates`] with heavy key ties: every third rect moved
    /// into one of four columns that share one `x0`, and every fifth a
    /// copy of its predecessor's rect under its own payload.
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

    /// The packing: entries ascend by `(x0, payload)`, the leaves cut
    /// them in order, every node's hull is the hull of its range (a
    /// leaf's entries, an internal node's children), and the root's hull
    /// is [`RectTree::bounds`], the hull of every entry. Sizes around the
    /// fan-out's powers (8, 64, 512) and up to 5,000 entries, in 97-unit
    /// squares whose coordinates tie often, with and without columns of
    /// tied `x0` and duplicated rects.
    #[test]
    fn packing_is_x_sorted_with_exact_hulls() {
        let hull_of = |rects: &mut dyn Iterator<Item = Rect>| rects.reduce(|a, b| hull(&a, &b));
        for n in [0usize, 1, 8, 9, 63, 64, 65, 512, 513, 1_500, 5_000] {
            for items in [random_rects(n, 11 + n as u64), with_ties(n, 23 + n as u64)] {
                let tree = RectTree::build(items);
                assert_eq!(tree.len(), n);
                let keys: Vec<(Coord, u32)> =
                    tree.entries.iter().map(|&(r, p)| (r.x0, p)).collect();
                assert!(keys.windows(2).all(|w| w[0] < w[1]), "order, n={n}");
                let mut next = 0;
                for node in &tree.nodes {
                    let want = if node.leaf {
                        assert_eq!(node.first as usize, next, "leaves in order, n={n}");
                        next = node.range().end;
                        hull_of(&mut tree.entries[node.range()].iter().map(|&(r, _)| r))
                    } else {
                        hull_of(&mut tree.nodes[node.range()].iter().map(|c| c.bbox))
                    };
                    assert_eq!(Some(node.bbox), want, "node hull, n={n}");
                }
                assert_eq!(next, n, "the leaves cover every entry");
                let all = hull_of(&mut tree.entries.iter().map(|&(r, _)| r));
                assert_eq!(tree.nodes.last().map(|root| root.bbox), all, "n={n}");
                assert_eq!(tree.bounds(), all.unwrap_or(Rect::EMPTY), "n={n}");
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

    /// Brute-force pairs within `dist`, `(i, j)` with `i < j`, sorted:
    /// the closed-interval test on `a`'s raw corners moved out by `dist`
    /// ([`Rect::inflated`] would normalise an inverted rect).
    fn all_pairs(a: &[(Rect, u32)], b: &[(Rect, u32)], dist: Coord, same: bool) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for (ra, p) in a {
            let grown = Rect {
                x0: ra.x0 - dist,
                y0: ra.y0 - dist,
                x1: ra.x1 + dist,
                y1: ra.y1 + dist,
            };
            for (rb, q) in b {
                if (!same || p < q) && near(&grown, rb) {
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
    /// rail's x-range covers every other entry's, or its y-range does.
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

    /// [`with_degenerates`] with every other entry moved into one of
    /// three tall stacks: one x-range each, repeated in y-bands up to
    /// 600 units high, so a sweep over a stack's strip meets every band.
    fn with_stacks(n: usize, seed: u64) -> Vec<(Rect, u32)> {
        let mut items = with_degenerates(n, seed);
        for (k, (r, _)) in items.iter_mut().enumerate().filter(|(k, _)| k % 2 == 0) {
            let x = (k % 3) as Coord * 30;
            let y = (k as Coord * 7) % 600;
            *r = Rect::new(x, y, x + 9, y + r.y1 - r.y0);
        }
        items
    }

    /// [`with_degenerates`] with every third entry inverted by struct
    /// literal, past its own size: `x1 < x0` or, every other time,
    /// `y1 < y0`. No rect built by [`Rect::new`] is inverted, but the
    /// fields are public.
    fn with_inverted(n: usize, seed: u64) -> Vec<(Rect, u32)> {
        let mut items = with_degenerates(n, seed);
        for (k, (r, _)) in items.iter_mut().enumerate().filter(|(k, _)| k % 3 == 1) {
            *r = if k % 2 == 0 {
                Rect {
                    x0: r.x1 + 20,
                    x1: r.x0,
                    ..*r
                }
            } else {
                Rect {
                    y0: r.y1 + 20,
                    y1: r.y0,
                    ..*r
                }
            };
        }
        items
    }

    /// The joins against brute force: empty and one-entry trees, sizes
    /// around the fan-out, 600 and 1,500 entries, `dist` 0, 3 and 10, in
    /// four entry sets, each with degenerate rectangles: rails across the
    /// square; columns of entries that share one `x0`; tall stacks, where
    /// one x-range repeats in many y-bands; and rects inverted in x or
    /// y, on both sides of the join. Every pair comes exactly once, so
    /// the sorted output equals the sorted brute-force list without
    /// deduplication.
    #[test]
    fn joins_match_brute_force() {
        type Entries = fn(usize, u64) -> Vec<(Rect, u32)>;
        let sets: [(&str, Entries); 4] = [
            ("rails", with_rails),
            ("ties", with_ties),
            ("stacks", with_stacks),
            ("inverted", with_inverted),
        ];
        for (set, make) in sets {
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
                let a = make(n, 7 + n as u64);
                // Payloads of `b` start past `a`'s so the two sides never collide.
                let b: Vec<(Rect, u32)> = make(m, 99 + m as u64)
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
                    let want = all_pairs(&a, &a, dist, true);
                    assert_eq!(got, want, "{set}: self n={n} dist={dist}");

                    let mut got = Vec::new();
                    ta.join_within(&tb, dist, |p, ra, q, rb| {
                        assert_eq!((ra, rb), (&a[p as usize].0, &b[(q - 10_000) as usize].0));
                        got.push((p, q));
                    });
                    got.sort_unstable();
                    let want = all_pairs(&a, &b, dist, false);
                    assert_eq!(got, want, "{set}: join n={n} m={m} dist={dist}");
                }
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
