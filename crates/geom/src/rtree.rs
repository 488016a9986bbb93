//! A packed R-tree over payload-carrying rectangles, in y-bands.
//!
//! [`RectTree`] is the window-query engine behind the layout database's
//! spatial index: it answers *"which rectangles come near this window?"*
//! in logarithmic time instead of a linear scan. The tree is bulk-loaded
//! once (entries ordered band by band and by left edge inside a band,
//! leaves and nodes packed in that order) and immutable afterwards — the
//! database rebuilds it lazily after mutations, which matches the
//! generator pipeline where bursts of construction alternate with bursts
//! of read-only analysis (DRC, extraction, latch-up).
//!
//! # Bands
//!
//! A tree is built over [`YBands`]: the runs of an object's y-coverage
//! between empty gaps, ascending. Every tree of one object shares its
//! bands, and the joins sweep band by band, plus each pair of bands
//! whose hulls come within the join's distance. An entry's sweep then
//! stays inside its own band instead of crossing every tile row of a
//! chip. An object without a y-gap is one band, the general case with
//! one band.
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
//! Construction orders the entries by `(band, x0, payload)`. With
//! distinct payloads (shape indices, as every caller passes) the key is
//! total, so the packing — and therefore every traversal and sweep order
//! — is a pure function of the input set and its bands.
//! [`RectTree::query`] additionally sorts the surviving payloads
//! ascending, giving consumers the same iteration order a linear scan
//! over payload-ordered storage would produce; the latch-up check
//! subtracts its covers in that order. Consumers whose result does not
//! depend on visit order use the unsorted visitors:
//! [`for_each_candidate`](RectTree::for_each_candidate) and
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

/// The y-bands of a set of rectangles: the maximal runs of their
/// y-coverage between empty gaps, ascending.
///
/// A rectangle covers `[y0, max(y0, y1)]` of its raw corners, so inverted
/// and degenerate rectangles keep a position. The coverage is counted on
/// buckets of one power-of-two height, about one bucket per rectangle
/// (the height is the least power of two above the span over the
/// rectangle count, so there is nothing to tune), and a band is a
/// maximal run of covered buckets. Two rectangles that share a bucket
/// share a band: bands may merge across a gap narrower than a bucket,
/// but never split a touching pair. Each band keeps its exact hull, the
/// least `y0` and the greatest `max(y0, y1)` of its rectangles.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct YBands {
    /// The bottom of bucket 0: the least `y0`.
    lo: Coord,
    /// Bucket `b` holds the `y0`s in `lo + [b << shift, (b + 1) << shift)`.
    shift: u32,
    /// Per bucket, the band of a rectangle whose `y0` lies in it. Empty
    /// for one band, which every rectangle is in.
    band: Vec<u32>,
    /// Per gap between bands `k` and `k + 1`: the top of band `k`'s hull
    /// and the bottom of band `k + 1`'s.
    gaps: Vec<(Coord, Coord)>,
}

impl YBands {
    /// Every rectangle in one band.
    pub const ONE: YBands = YBands {
        lo: 0,
        shift: 0,
        band: Vec::new(),
        gaps: Vec::new(),
    };

    /// The y-extent a rectangle covers: `[y0, max(y0, y1)]`.
    #[inline]
    pub fn extent(r: &Rect) -> (Coord, Coord) {
        (r.y0, r.y0.max(r.y1))
    }

    /// The bands of the `count` rectangles of `rects`, whose
    /// [extents](YBands::extent) span `(lo, hi)`, the least `y0` and the
    /// greatest top, exactly: the caller's own pass over the rectangles
    /// counts them and finds their span. A pass over the rectangles counts
    /// their coverage per bucket, one pass over the buckets numbers the
    /// runs, and, when there is more than one, a second pass over the
    /// rectangles finds the runs' exact hulls. One band allocates nothing
    /// that outlives the call.
    pub fn over<'r, I>(rects: I, count: usize, (lo, hi): (Coord, Coord)) -> YBands
    where
        I: IntoIterator<Item = &'r Rect>,
        I::IntoIter: Clone,
    {
        let rects = rects.into_iter();
        let n = count as u64;
        if n == 0 {
            return YBands::ONE;
        }
        // Offsets from `lo` fit a u64 even when the span is the whole
        // i64 range, and the shift stays below 64.
        let span = hi.wrapping_sub(lo) as u64;
        let shift = (u64::BITS - (span / n).leading_zeros()).min(u64::BITS - 1);
        let bucket = |y: Coord| (y.wrapping_sub(lo) as u64 >> shift) as usize;
        // Per bucket, the rects starting there less those that ended in
        // the bucket below (wrapping); then, in the same slots, the band.
        let mut band = vec![0u32; bucket(hi) + 2];
        for r in rects.clone() {
            let (y0, top) = YBands::extent(r);
            band[bucket(y0)] = band[bucket(y0)].wrapping_add(1);
            band[bucket(top) + 1] = band[bucket(top) + 1].wrapping_sub(1);
        }
        band.pop();
        let (mut depth, mut runs) = (0u32, 0u32);
        for slot in &mut band {
            let next = depth.wrapping_add(*slot);
            runs += u32::from(depth == 0 && next != 0);
            depth = next;
            // Bucket 0 holds the least `y0`, so the first run starts there.
            *slot = runs - 1;
        }
        if runs == 1 {
            return YBands::ONE;
        }
        let mut gaps = vec![(Coord::MIN, Coord::MAX); runs as usize - 1];
        for r in rects {
            let (y0, top) = YBands::extent(r);
            let k = band[bucket(y0)] as usize;
            if let Some(below) = k.checked_sub(1) {
                gaps[below].1 = gaps[below].1.min(y0);
            }
            if let Some(above) = gaps.get_mut(k) {
                above.0 = above.0.max(top);
            }
        }
        YBands {
            lo,
            shift,
            band,
            gaps,
        }
    }

    /// Number of bands, at least 1.
    pub fn count(&self) -> usize {
        self.gaps.len() + 1
    }

    /// The gaps between consecutive bands, ascending: per gap the top of
    /// the hull below it and the bottom of the hull above it.
    pub fn gaps(&self) -> &[(Coord, Coord)] {
        &self.gaps
    }

    /// The band of a rectangle of the set the bands were built over.
    #[inline]
    fn band_of(&self, r: &Rect) -> usize {
        if self.band.is_empty() {
            return 0;
        }
        self.band[(r.y0.wrapping_sub(self.lo) as u64 >> self.shift) as usize] as usize
    }

    /// The bands after band `k` whose hulls come within `dist` of its
    /// hull in y: those whose bottom is within `dist` of band `k`'s top.
    #[inline]
    fn neighbours(&self, k: usize, dist: Coord) -> std::ops::Range<usize> {
        let far = self.gaps.get(k).map_or(0, |&(top, _)| {
            let top = top.saturating_add(dist);
            self.gaps[k..].iter().take_while(|g| g.1 <= top).count()
        });
        k + 1..k + 1 + far
    }
}

/// A sort key of [`RectTree::build`]: an entry's left edge, less the
/// least left edge, above its position. Two widths, one sort.
trait OrderKey: Copy + Ord {
    const ZERO: Self;
    fn new(dx: u64, position: u32) -> Self;
    fn position(self) -> usize;
}

/// The key when every left edge lies within 2³² of the least.
impl OrderKey for u64 {
    const ZERO: u64 = 0;
    #[inline]
    fn new(dx: u64, position: u32) -> u64 {
        (dx << 32) | position as u64
    }
    #[inline]
    fn position(self) -> usize {
        self as u32 as usize
    }
}

/// The key for wider spans.
impl OrderKey for u128 {
    const ZERO: u128 = 0;
    #[inline]
    fn new(dx: u64, position: u32) -> u128 {
        ((dx as u128) << 32) | position as u128
    }
    #[inline]
    fn position(self) -> usize {
        self as u32 as usize
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
/// Payloads are opaque `u32`s — shape indices in the layout database's
/// spatial index, its only user. See the module docs for bands,
/// candidate semantics and the determinism contract.
#[derive(Debug, Clone, Default)]
pub struct RectTree {
    /// Band by band, by `(x0, payload)` inside a band.
    entries: Vec<(Rect, u32)>,
    /// `cuts[k]`: the end of band `k`'s entries, for every band but the
    /// last, which ends at `entries.len()`.
    cuts: Vec<u32>,
    /// Level by level, leaves first; the root is the last node.
    nodes: Vec<Node>,
}

impl RectTree {
    /// Bulk-loads a tree over `bands`, which must be the bands of a set
    /// that holds every entry's rect: the entries are ordered by `(band,
    /// x0, payload)`, cut into leaves in that order, and each level above
    /// packs consecutive nodes. Each band's run of the ordered entries is
    /// what the joins sweep.
    ///
    /// The order takes a counting pass by band, one integer key per entry
    /// (its left edge above its position in payload order) sorted inside
    /// each band, and one pass that moves the entries after their keys.
    /// Deterministic: with distinct payloads the key is total, so the
    /// packing depends only on the set of entries and the bands.
    pub fn build<I: IntoIterator<Item = (Rect, u32)>>(items: I, bands: &YBands) -> RectTree {
        let mut items: Vec<(Rect, u32)> = items.into_iter().collect();
        if !items.is_sorted_by_key(|&(_, p)| p) {
            items.sort_unstable_by_key(|&(_, p)| p);
        }
        // Counting pass: each band's size, then its end; the x range.
        let mut cuts = vec![0u32; bands.count() - 1];
        let (mut x_lo, mut x_hi) = (Coord::MAX, Coord::MIN);
        for (r, _) in &items {
            if let Some(c) = cuts.get_mut(bands.band_of(r)) {
                *c += 1;
            }
            (x_lo, x_hi) = (x_lo.min(r.x0), x_hi.max(r.x0));
        }
        let mut end = 0;
        for c in &mut cuts {
            end += *c;
            *c = end;
        }
        if (x_hi.wrapping_sub(x_lo) as u64) >> 32 == 0 {
            RectTree::order::<u64>(&mut items, bands, &cuts, x_lo);
        } else {
            RectTree::order::<u128>(&mut items, bands, &cuts, x_lo);
        }
        RectTree::pack(items, cuts)
    }

    /// Orders payload-sorted `items` by `(band, x0, payload)`, in place:
    /// each key goes to its band's run, filled from the back so that a
    /// run keeps payload order, each run is sorted, and the entries follow
    /// their keys cycle by cycle.
    fn order<K: OrderKey>(items: &mut [(Rect, u32)], bands: &YBands, cuts: &[u32], x_lo: Coord) {
        // A module's trees hold a few entries each: their keys stay on
        // the stack.
        let (mut stack, mut heap) = ([K::ZERO; 32], Vec::new());
        let keys = match stack.get_mut(..items.len()) {
            Some(keys) => keys,
            None => {
                heap.resize(items.len(), K::ZERO);
                &mut heap[..]
            }
        };
        let mut ends = cuts.to_vec();
        let mut last = items.len() as u32;
        for (i, (r, _)) in items.iter().enumerate().rev() {
            let end = ends.get_mut(bands.band_of(r)).unwrap_or(&mut last);
            *end -= 1;
            keys[*end as usize] = K::new(r.x0.wrapping_sub(x_lo) as u64, i as u32);
        }
        let mut start = 0;
        for end in cuts.iter().map(|&c| c as usize).chain([items.len()]) {
            keys[start..end].sort_unstable();
            start = end;
        }
        // Slot `j` takes the entry at `keys[j]`'s position; a filled slot's
        // key is pointed at the slot itself.
        for start in 0..items.len() {
            let (first, mut j) = (items[start], start);
            loop {
                let k = keys[j].position();
                keys[j] = K::new(0, j as u32);
                if k == start {
                    items[j] = first;
                    break;
                }
                items[j] = items[k];
                j = k;
            }
        }
    }

    /// Cuts ordered entries into leaves of `FANOUT` and packs each
    /// level's consecutive nodes under parents until one root remains.
    fn pack(entries: Vec<(Rect, u32)>, cuts: Vec<u32>) -> RectTree {
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
        // Consecutive grouping keeps the band and x locality.
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
        RectTree {
            entries,
            cuts,
            nodes,
        }
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
    /// touching-or-overlapping candidate pairs. Both trees must be built
    /// over `bands`.
    ///
    /// Each band of `self` is swept against the same band of `other`,
    /// and each pair of bands `k < m` whose hulls come within `dist`
    /// twice: band `k` of `self` against band `m` of `other`, and band
    /// `m` of `self` against band `k` of `other`. No other pair of bands
    /// can hold a pair, since every rect lies inside its band's hull.
    ///
    /// One sweep merges two x-sorted runs. Each step takes the next
    /// entry of `self` when its left edge, less `dist`, is not right of
    /// the next entry of `other`'s, and the next entry of `other`
    /// otherwise. The taken entry scans the other side's entries not yet
    /// taken, forward while their left edge lies within `dist` of its
    /// right edge, and tests each against the full predicate on both
    /// axes. So a pair is reported once, by whichever of its two entries
    /// the merge takes first. Pairs arrive in **sweep order**
    /// (deterministic for the two entry sets, but unordered by payload),
    /// so callers sort or fold order-free.
    pub fn join_within<F: FnMut(u32, &Rect, u32, &Rect)>(
        &self,
        other: &RectTree,
        bands: &YBands,
        dist: Coord,
        mut f: F,
    ) {
        debug_assert!(dist >= 0, "join distance must be non-negative");
        debug_assert!(self.cuts.len() == bands.gaps.len() && other.cuts.len() == bands.gaps.len());
        for k in 0..bands.count() {
            sweep(self.band(k), other.band(k), dist, &mut f);
            for m in bands.neighbours(k, dist) {
                sweep(self.band(k), other.band(m), dist, &mut f);
                sweep(self.band(m), other.band(k), dist, &mut f);
            }
        }
    }

    /// [`join_within`](Self::join_within) of the tree with itself: every
    /// unordered pair of distinct entries within `dist`, once, in sweep
    /// order. Inside a band, each entry scans the entries after it,
    /// forward while their left edge lies within `dist` of its right
    /// edge; a pair of bands `k < m` whose hulls come within `dist` is
    /// swept once, band `k` against band `m`. An entry is never paired
    /// with itself.
    pub fn self_join_within<F: FnMut(u32, &Rect, u32, &Rect)>(
        &self,
        bands: &YBands,
        dist: Coord,
        mut f: F,
    ) {
        debug_assert!(dist >= 0, "join distance must be non-negative");
        debug_assert_eq!(self.cuts.len(), bands.gaps.len());
        for k in 0..bands.count() {
            let run = self.band(k);
            for (i, (ra, p)) in run.iter().enumerate() {
                for (rb, q) in reach(&run[i + 1..], ra, dist) {
                    if within(ra, rb, dist) {
                        f(*p, ra, *q, rb);
                    }
                }
            }
            for m in bands.neighbours(k, dist) {
                sweep(run, self.band(m), dist, &mut f);
            }
        }
    }

    /// Band `k`'s run of the entries.
    fn band(&self, k: usize) -> &[(Rect, u32)] {
        let start = k.checked_sub(1).map_or(0, |j| self.cuts[j] as usize);
        let end = self.cuts.get(k).map_or(self.entries.len(), |&c| c as usize);
        &self.entries[start..end]
    }

    fn root(&self) -> Option<usize> {
        self.nodes.len().checked_sub(1)
    }

    fn leaf_entries(&self, n: &Node) -> &[(Rect, u32)] {
        &self.entries[n.range()]
    }
}

/// The merge sweep of [`RectTree::join_within`] over two x-sorted runs,
/// reporting `(entry of ea, entry of eb)`.
#[inline]
fn sweep<F: FnMut(u32, &Rect, u32, &Rect)>(
    ea: &[(Rect, u32)],
    eb: &[(Rect, u32)],
    dist: Coord,
    f: &mut F,
) {
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
            let tree = RectTree::build(items.clone(), &bands_of(&items));
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
        let tree = RectTree::build(items, &YBands::ONE);
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
        let items = [(Rect::new(2, 3, 10, 7), 7), (Rect::new(-4, 5, 1, 20), 9)];
        let tree = RectTree::build(items, &YBands::ONE);
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

    /// The bands of every rect of `items`.
    fn bands_of(items: &[(Rect, u32)]) -> YBands {
        bands_over(items.iter().map(|(r, _)| r))
    }

    /// The bands of `rects`, [`over`](YBands::over) their span.
    fn bands_over<'r>(rects: impl Iterator<Item = &'r Rect> + Clone) -> YBands {
        let (lo, hi, count) = rects
            .clone()
            .fold((Coord::MAX, Coord::MIN, 0), |(lo, hi, n), r| {
                let (y0, top) = YBands::extent(r);
                (lo.min(y0), hi.max(top), n + 1)
            });
        YBands::over(rects, count, (lo, hi))
    }

    /// [`with_degenerates`] in y-strips 40 units high, separated by
    /// `gaps`. A strip holds a full-width rail along its bottom and top
    /// edges and a post of its full height, so it is one band and its
    /// hull is exact. Every third entry is inverted in y by struct
    /// literal.
    fn in_strips(n: usize, seed: u64, gaps: &[Coord]) -> Vec<(Rect, u32)> {
        let mut base = vec![0];
        for g in gaps {
            base.push(base.last().unwrap() + 40 + g);
        }
        let mut items = with_degenerates(n, seed);
        for (k, (r, _)) in items.iter_mut().enumerate() {
            // A strip's rails and post share `k / 9`; the rest spread.
            let strip = if k % 9 < 3 {
                k / 9
            } else {
                k * 7 + seed as usize
            };
            let y = base[strip % base.len()];
            *r = match k % 9 {
                0 => Rect::new(-5, y, 110, y + 1),
                1 => Rect::new(-5, y + 39, 110, y + 40),
                2 => Rect::new(r.x0, y, r.x0 + 1, y + 40),
                _ => {
                    let (y0, y1) = (y + r.y0 % 28, y + r.y0 % 28 + (r.y1 - r.y0));
                    if k % 3 == 2 {
                        Rect {
                            y0: y1,
                            y1: y0,
                            ..*r
                        }
                    } else {
                        Rect { y0, y1, ..*r }
                    }
                }
            };
        }
        items
    }

    /// [`in_strips`] with gaps of 2, 10 and 25 units.
    fn with_strips(n: usize, seed: u64) -> Vec<(Rect, u32)> {
        in_strips(n, seed, &[2, 10, 25])
    }

    /// `items` spread in x past what a 32-bit key holds: every left edge
    /// scaled by 2²⁸, widths kept.
    fn widened(items: Vec<(Rect, u32)>) -> Vec<(Rect, u32)> {
        items
            .into_iter()
            .map(|(r, p)| {
                let x0 = r.x0 << 28;
                (
                    Rect {
                        x0,
                        x1: x0 + (r.x1 - r.x0),
                        ..r
                    },
                    p,
                )
            })
            .collect()
    }

    /// The packing: entries ascend by `(band, x0, payload)`, each band's
    /// run holds exactly the entries of its band, the leaves cut them in
    /// order, every node's hull is the hull of its range (a leaf's
    /// entries, an internal node's children), and the root's hull is
    /// [`RectTree::bounds`], the hull of every entry. Sizes around the
    /// fan-out's powers (8, 64, 512) and up to 5,000 entries, in 97-unit
    /// squares whose coordinates tie often, with and without columns of
    /// tied `x0` and duplicated rects, in y-strips of several bands, and
    /// in strips spread wider in x than the 32-bit key holds.
    #[test]
    fn packing_is_x_sorted_with_exact_hulls() {
        let hull_of = |rects: &mut dyn Iterator<Item = Rect>| rects.reduce(|a, b| hull(&a, &b));
        for n in [0usize, 1, 8, 9, 63, 64, 65, 512, 513, 1_500, 5_000] {
            for items in [
                random_rects(n, 11 + n as u64),
                with_ties(n, 23 + n as u64),
                with_strips(n, 31 + n as u64),
                widened(with_strips(n, 37 + n as u64)),
            ] {
                let bands = bands_of(&items);
                let tree = RectTree::build(items, &bands);
                assert_eq!(tree.len(), n);
                let keys: Vec<(usize, Coord, u32)> = tree
                    .entries
                    .iter()
                    .map(|&(r, p)| (bands.band_of(&r), r.x0, p))
                    .collect();
                assert!(keys.windows(2).all(|w| w[0] < w[1]), "order, n={n}");
                for k in 0..bands.count() {
                    assert!(tree.band(k).iter().all(|(r, _)| bands.band_of(r) == k));
                }
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
        let wide = widened(with_strips(100, 5));
        let (lo, hi) = wide
            .iter()
            .fold((Coord::MAX, Coord::MIN), |(lo, hi), (r, _)| {
                (lo.min(r.x0), hi.max(r.x0))
            });
        assert!(hi - lo >= 1 << 32, "the wide key is exercised");
    }

    /// Every rect lies inside its band's hull, the gaps ascend and are
    /// empty, and each hull edge is some rect's own edge.
    fn assert_banded(bands: &YBands, rects: &[Rect]) {
        let gaps = bands.gaps();
        assert!(gaps.iter().all(|&(top, bottom)| top < bottom));
        assert!(gaps.windows(2).all(|w| w[0].1 <= w[1].0));
        let (mut tops, mut bottoms) = (vec![false; gaps.len()], vec![false; gaps.len()]);
        for r in rects {
            let (y0, top) = YBands::extent(r);
            let k = bands.band_of(r);
            if let Some(j) = k.checked_sub(1) {
                assert!(y0 >= gaps[j].1, "{r:?} below band {k}");
                bottoms[j] |= y0 == gaps[j].1;
            }
            if let Some(&(hull_top, _)) = gaps.get(k) {
                assert!(top <= hull_top, "{r:?} above band {k}");
                tops[k] |= top == hull_top;
            }
        }
        assert!(tops.iter().chain(&bottoms).all(|&b| b), "exact hulls");
    }

    /// Bands split at empty y-gaps and nowhere else: strips with gaps
    /// of 2 to 25 units are one band each, with their exact hulls; a
    /// gap of 0 (a shared edge) joins two strips; a degenerate rect and
    /// an inverted one keep a position of their own; no rects make one
    /// band; and coordinates spanning almost the whole `i64` range do
    /// not overflow the bucket arithmetic.
    #[test]
    fn bands_split_at_empty_gaps() {
        let items = in_strips(300, 3, &[2, 10, 25]);
        let rects: Vec<Rect> = items.iter().map(|&(r, _)| r).collect();
        let bands = bands_over(rects.iter());
        assert_eq!(bands.gaps(), [(40, 42), (82, 92), (132, 157)]);
        assert_banded(&bands, &rects);

        let touching = in_strips(300, 3, &[0, 10]);
        let bands = bands_of(&touching);
        assert_eq!(bands.gaps(), [(80, 90)]);

        let mut lone: Vec<Rect> = (0..20).map(|x| Rect::new(x, 0, x + 3, 10)).collect();
        lone.push(Rect::new(4, 1_000, 4, 1_000));
        lone.push(Rect {
            y0: 2_000,
            y1: 1_990,
            ..Rect::new(0, 0, 10, 0)
        });
        let bands = bands_over(lone.iter());
        assert_eq!(bands.gaps(), [(10, 1_000), (1_000, 2_000)]);
        assert_banded(&bands, &lone);

        assert_eq!(bands_over([].iter()), YBands::ONE);
        assert_eq!(YBands::ONE.count(), 1);

        let far = [
            Rect::new(0, Coord::MIN, 5, Coord::MIN + 10),
            Rect::new(0, -3, 5, 3),
            Rect::new(0, Coord::MAX - 10, 5, Coord::MAX),
        ];
        for k in 1..=far.len() {
            let bands = bands_over(far[..k].iter());
            assert!(bands.count() <= k);
            assert_banded(&bands, &far[..k]);
        }
    }

    #[test]
    fn build_is_deterministic_under_input_order() {
        let mut items = with_strips(100, 42);
        let bands = bands_of(&items);
        assert!(bands.count() > 1);
        let a = RectTree::build(items.clone(), &bands);
        items.reverse();
        let b = RectTree::build(items, &bands);
        assert_eq!(a.entries, b.entries, "packing is input-order independent");
        assert_eq!(a.cuts, b.cuts);
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

    /// Both joins of trees over `a` and `b`, built over `bands`, equal
    /// brute force at `dist`: the self-join of `a` and the join of `a`
    /// with `b`, whose payloads start at 10,000. Each pair comes with
    /// its own rects and exactly once, so the sorted output equals the
    /// sorted brute-force list without deduplication. Returns the
    /// pairs of the join of `a` with `b`.
    fn assert_joins(
        a: &[(Rect, u32)],
        b: &[(Rect, u32)],
        bands: &YBands,
        dist: Coord,
        case: &str,
    ) -> Vec<(u32, u32)> {
        let (ta, tb) = (
            RectTree::build(a.to_vec(), bands),
            RectTree::build(b.to_vec(), bands),
        );
        let mut got = Vec::new();
        ta.self_join_within(bands, dist, |p, ra, q, rb| {
            assert_eq!((ra, rb), (&a[p as usize].0, &a[q as usize].0));
            got.push((p.min(q), p.max(q)));
        });
        got.sort_unstable();
        assert_eq!(got, all_pairs(a, a, dist, true), "{case}: self dist={dist}");

        let mut got = Vec::new();
        ta.join_within(&tb, bands, dist, |p, ra, q, rb| {
            assert_eq!((ra, rb), (&a[p as usize].0, &b[(q - 10_000) as usize].0));
            got.push((p, q));
        });
        got.sort_unstable();
        let want = all_pairs(a, b, dist, false);
        assert_eq!(got, want, "{case}: join dist={dist}");
        want
    }

    /// `items` with payloads from 10,000, so the two sides of a join
    /// never collide.
    fn other_side(items: Vec<(Rect, u32)>) -> Vec<(Rect, u32)> {
        items.into_iter().map(|(r, q)| (r, q + 10_000)).collect()
    }

    /// The joins against brute force: empty and one-entry trees, sizes
    /// around the fan-out, 600 and 1,500 entries, `dist` 0, 3 and 10, in
    /// four entry sets, each with degenerate rectangles: rails across the
    /// square; columns of entries that share one `x0`; tall stacks, where
    /// one x-range repeats in many y-bands; and rects inverted in x or
    /// y, on both sides of the join. The trees are built over the bands
    /// of both sides.
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
                let b = other_side(make(m, 99 + m as u64));
                let bands = bands_over(a.iter().chain(&b).map(|(r, _)| r));
                for dist in [0, 3, 10] {
                    assert_joins(&a, &b, &bands, dist, &format!("{set} n={n} m={m}"));
                }
            }
        }
    }

    /// The banded joins against brute force, inside each band and across
    /// bands. The entries fill y-strips with exact hulls ([`in_strips`]),
    /// whose gaps lie below, at and above `dist`, so a pair across a gap
    /// exists exactly when the gap is at most `dist`, and those pairs are
    /// checked to occur. `a` fills every strip and `b` only the odd
    /// ones, so the join of an even band sees an empty side. Every third
    /// entry is inverted in y and every fourth degenerate. One strip
    /// makes one band, and trees over [`YBands::ONE`] find the same pairs
    /// as the banded ones.
    #[test]
    fn banded_joins_match_brute_force() {
        for dist in [0, 3, 10] {
            let around = [(dist - 1).max(1), dist.max(1), dist + 1, dist + 9];
            for gaps in [&around[..], &[dist + 1], &[]] {
                let odd = |(r, _): &(Rect, u32)| {
                    let (y0, _) = YBands::extent(r);
                    let mut base = 0;
                    let mut strip = 0;
                    for g in gaps {
                        base += 40 + g;
                        strip += usize::from(y0 >= base);
                    }
                    strip % 2 == 1
                };
                for (n, m) in [(0usize, 40usize), (1, 9), (60, 7), (300, 600), (600, 300)] {
                    let a = in_strips(n, 7 + n as u64, gaps);
                    let b: Vec<(Rect, u32)> = in_strips(m, 99 + m as u64, gaps)
                        .into_iter()
                        .filter(odd)
                        .enumerate()
                        .map(|(i, (r, _))| (r, i as u32 + 10_000))
                        .collect();
                    let bands = bands_over(a.iter().chain(&b).map(|(r, _)| r));
                    let case = format!("gaps={gaps:?} n={n} m={m}");
                    if n >= 300 {
                        assert_eq!(bands.count(), 1 + gaps.iter().filter(|&&g| g > 1).count());
                    }
                    let pairs = assert_joins(&a, &b, &bands, dist, &case);
                    let across = pairs.iter().any(|&(p, q)| {
                        bands.band_of(&a[p as usize].0)
                            != bands.band_of(&b[(q - 10_000) as usize].0)
                    });
                    if n >= 300 && gaps.first().is_some_and(|&g| g > 1 && g <= dist) {
                        assert!(across, "{case}: a pair across a gap at most {dist}");
                    }
                    assert_eq!(assert_joins(&a, &b, &YBands::ONE, dist, &case), pairs);
                }
            }
        }
    }

    #[test]
    fn any_candidate_early_exit() {
        let tree = RectTree::build(random_rects(50, 3), &YBands::ONE);
        let w = Rect::new(0, 0, 97, 97);
        assert!(tree.any_candidate(&w, |_, r| !r.is_empty()));
        assert!(!tree.any_candidate(&Rect::new(500, 500, 600, 600), |_, _| true));
    }
}
