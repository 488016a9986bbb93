//! The compaction-order optimizer (§2.4 of the paper).
//!
//! *"The result of the above described compaction method depends on the
//! compaction order, because one object could have a different minimum
//! distance to a structure if another object was compacted previously. To
//! find the optimal solution, the compactor can be used in an optimization
//! mode. In this mode all different variations are generated by altering
//! the order of the compacted objects. Each solution is evaluated by a
//! rating function which considers the area and electrical conditions. If
//! different topology variants exist for a module the rating function is
//! also applied to select the best variant."*
//!
//! * [`Optimizer::build`] runs one fixed order of [`Step`]s through the
//!   successive compactor and rates the result.
//! * [`Optimizer::optimize_order`] explores order permutations with a
//!   **parallel branch-and-bound** search: worker threads share a work
//!   deque, prune against a lock-free global incumbent, and cut redundant
//!   subtrees with **subset-dominance memoization** (see [`search`]).
//!   Results are deterministic for any worker count: among equal scores
//!   the lexicographically smallest order wins.
//! * [`Optimizer::select_variant`] applies the same rating to alternative
//!   module topologies (the DSL's backtracking variants).
//!
//! # Example
//!
//! ```
//! use amgen_compact::CompactOptions;
//! use amgen_core::GenCtx;
//! use amgen_db::{LayoutObject, Shape};
//! use amgen_geom::{Dir, Rect};
//! use amgen_opt::{Optimizer, RatingWeights, Step};
//! use amgen_tech::Tech;
//!
//! let tech = GenCtx::from_tech(&Tech::bicmos_1u());
//! let poly = tech.layer("poly").unwrap();
//! let stripe = |w, h| {
//!     let mut o = LayoutObject::new("s");
//!     o.push(Shape::new(poly, Rect::new(0, 0, w, h)));
//!     o
//! };
//! let steps = vec![
//!     Step::new(stripe(1_000, 8_000), Dir::East, CompactOptions::new()),
//!     Step::new(stripe(4_000, 1_000), Dir::North, CompactOptions::new()),
//!     Step::new(stripe(1_000, 8_000), Dir::East, CompactOptions::new()),
//! ];
//! let opt = Optimizer::new(&tech, RatingWeights::default());
//! let result = opt.optimize_order(&steps, Default::default()).unwrap();
//! // The optimal order is never worse than the written order.
//! let (_, written) = opt.build(&steps).unwrap();
//! assert!(result.rating.score <= written.score + 1e-9);
//! ```

use std::time::Duration;

use amgen_compact::{CompactError, CompactOptions, Compactor};
use amgen_core::{CanonParam, GenCtx, GenError, GenKey, MetricsSnapshot, Stage};
use amgen_db::LayoutObject;
use amgen_extract::Extractor;
use amgen_geom::Dir;
use amgen_tech::RuleSet;

pub use amgen_core::{PlacementVariant, VariantTable};

pub mod search;

/// One compaction step: an object, its attachment side and options.
#[derive(Debug, Clone)]
pub struct Step {
    /// The object to compact.
    pub obj: LayoutObject,
    /// Attachment side.
    pub side: Dir,
    /// Per-step options (ignored layers etc.).
    pub opts: CompactOptions,
}

impl Step {
    /// Creates a step.
    pub fn new(obj: LayoutObject, side: Dir, opts: CompactOptions) -> Step {
        Step { obj, side, opts }
    }
}

/// Weights of the rating function.
#[derive(Debug, Clone, Copy)]
pub struct RatingWeights {
    /// Score per µm² of bounding-box area.
    pub area_per_um2: f64,
    /// Score per aF of total parasitic capacitance.
    pub cap_per_af: f64,
}

impl Default for RatingWeights {
    /// Area-dominated rating with a small electrical term, mirroring the
    /// paper's "area and electrical conditions".
    fn default() -> RatingWeights {
        RatingWeights {
            area_per_um2: 1.0,
            cap_per_af: 0.01,
        }
    }
}

/// The rating of one complete layout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rating {
    /// Bounding-box area in µm².
    pub area_um2: f64,
    /// Total parasitic capacitance in aF.
    pub cap_af: f64,
    /// Weighted score (lower is better).
    pub score: f64,
}

/// Search limits and tuning for [`Optimizer::optimize_order`].
#[derive(Debug, Clone, Copy)]
pub struct SearchOptions {
    /// Keep the first step fixed (it seeds the structure unmoved).
    pub keep_first: bool,
    /// Node budget: stop expanding the tree after this many explored
    /// nodes. When the budget expires before any complete order was found,
    /// the deepest partial order is completed greedily and returned as a
    /// best-effort result ([`OptResult::complete`] is `false`).
    pub max_nodes: usize,
    /// Number of worker threads. `1` (the default) searches on the calling
    /// thread; `0` uses all available cores; any other value spawns that
    /// many scoped workers. The best order and score are identical for
    /// every worker count — parallelism only changes the wall time.
    pub workers: usize,
    /// Enables subset-dominance memoization: partial layouts that reach an
    /// already-seen (placed-step subset, geometry) combination are cut as
    /// redundant. Sound (identical partial layouts have identical
    /// completions); costs one hash-map probe per node. On by default.
    pub dominance: bool,
}

impl Default for SearchOptions {
    fn default() -> SearchOptions {
        SearchOptions {
            keep_first: true,
            max_nodes: 50_000,
            workers: 1,
            dominance: true,
        }
    }
}

impl SearchOptions {
    /// The default options with all cores searching.
    pub fn parallel() -> SearchOptions {
        SearchOptions {
            workers: 0,
            ..SearchOptions::default()
        }
    }
}

/// Result of an order search, including search observability counters.
#[derive(Debug, Clone)]
pub struct OptResult {
    /// The best permutation (indices into the input steps).
    pub order: Vec<usize>,
    /// The layout it produces.
    pub layout: LayoutObject,
    /// Its rating.
    pub rating: Rating,
    /// Search-tree nodes expanded (pruned frames are **not** counted).
    pub explored: usize,
    /// Subtrees cut by the area lower bound (at push or at pop time).
    pub pruned: usize,
    /// Subtrees cut by subset-dominance memoization.
    pub dominated: usize,
    /// Worker threads the search actually used.
    pub workers: usize,
    /// Wall-clock duration of the search.
    pub wall: Duration,
    /// `false` when `max_nodes` expired and the result is the best-effort
    /// greedy completion (or best-found-so-far) rather than the proven
    /// optimum of the searched space.
    pub complete: bool,
    /// `true` when the context budget's wall deadline expired mid-search:
    /// the result is the best incumbent found in time (or a greedy
    /// completion of the deepest frame) rather than an error. Implies
    /// `complete == false`.
    pub degraded: bool,
    /// `true` when the result was served from the generation cache's
    /// precomputed variant table instead of a live search (`explored`,
    /// `pruned` and `dominated` are then `0`).
    pub cached: bool,
    /// Top-k complete orders by rating, best first — the stored /
    /// restored variant table. Populated only when the context has an
    /// active [`GenCache`](amgen_core::GenCache) (empty otherwise, and
    /// empty when the search degraded before completing any order).
    pub variants: Vec<PlacementVariant>,
    /// Snapshot of the shared generation-context counters (objects
    /// placed, rebuilds, per-stage wall time) taken when the
    /// search returned.
    pub metrics: MetricsSnapshot,
}

/// The optimizer, bound to one generation context.
#[derive(Debug, Clone)]
pub struct Optimizer {
    pub(crate) ctx: GenCtx,
    pub(crate) weights: RatingWeights,
}

impl Optimizer {
    /// Creates an optimizer with the given rating weights.
    pub fn new(ctx: &GenCtx, weights: RatingWeights) -> Optimizer {
        Optimizer {
            ctx: ctx.clone(),
            weights,
        }
    }

    /// The shared generation context.
    pub fn ctx(&self) -> &GenCtx {
        &self.ctx
    }

    /// The compiled rule kernel.
    pub fn rules(&self) -> &RuleSet {
        &self.ctx
    }

    /// The canonical cache key of one `optimize_order` invocation, or
    /// `None` when caching is inactive (no cache installed, a fault
    /// hook is, or the wall deadline already expired — degraded runs
    /// must search live so they degrade honestly).
    ///
    /// The key covers everything the search result depends on: the
    /// rating weights, `keep_first`, the *effective* node budget
    /// (search option capped by the context budget — an exhausted
    /// best-effort result must never be confused with a proven
    /// optimum), and per step the object digest, attachment side and
    /// every compaction option.
    pub(crate) fn variant_key(
        &self,
        steps: &[Step],
        search: &SearchOptions,
        max_nodes: usize,
    ) -> Option<GenKey> {
        if !self.ctx.cache_active() || self.ctx.limits.deadline_expired() {
            return None;
        }
        let mut key = GenKey::module("optimize_order", self.ctx.id());
        key.push(search.keep_first);
        key.push(max_nodes as u64);
        key.push(CanonParam::num(Stage::Opt, self.weights.area_per_um2).ok()?);
        key.push(CanonParam::num(Stage::Opt, self.weights.cap_per_af).ok()?);
        for s in steps {
            key.push(CanonParam::object(&s.obj));
            key.push(match s.side {
                Dir::North => 0u64,
                Dir::South => 1,
                Dir::East => 2,
                Dir::West => 3,
            });
            let mut ignore: Vec<u64> = s.opts.ignore.iter().map(|l| l.index() as u64).collect();
            ignore.sort_unstable();
            for i in ignore {
                key.push(i);
            }
            key.push(CanonParam::Int(s.opts.extra_clearance));
            key.push(s.opts.variable_edges);
            key.push(CanonParam::None);
        }
        Some(key)
    }

    /// Rates a finished layout.
    pub fn rate(&self, obj: &LayoutObject) -> Rating {
        let area_um2 = obj.bbox().area() as f64 / 1e6;
        let cap_af = Extractor::new(&self.ctx).weighted_cap_af(obj, |_| 1.0);
        Rating {
            area_um2,
            cap_af,
            score: area_um2 * self.weights.area_per_um2 + cap_af * self.weights.cap_per_af,
        }
    }

    /// Runs the steps in the written order and rates the result.
    pub fn build(&self, steps: &[Step]) -> Result<(LayoutObject, Rating), CompactError> {
        let c = Compactor::new(&self.ctx);
        let mut main = LayoutObject::new("module");
        for s in steps {
            c.compact(&mut main, &s.obj, s.side, &s.opts)?;
        }
        let rating = self.rate(&main);
        Ok((main, rating))
    }

    /// Explores step-order permutations with parallel branch-and-bound and
    /// subset-dominance pruning, returning the best-rated layout.
    ///
    /// The area of a partial layout is a lower bound on every completion's
    /// score, so a partial layout that alone scores worse than the best
    /// complete solution prunes its whole subtree. Partial layouts that
    /// revisit an already-seen (step subset, geometry) pair are cut as
    /// dominated. See [`search`] for the full algorithm and [`SearchOptions`]
    /// for worker-count and dominance tuning; the returned [`OptResult`]
    /// carries `explored` / `pruned` / `dominated` / `workers` / `wall`
    /// observability counters.
    ///
    /// # Robustness
    ///
    /// This entry point never panics and never wedges:
    ///
    /// * more than 64 steps (the placed-step subset is a `u64` bitmask) is
    ///   a typed error, not an assertion failure;
    /// * a worker that panics mid-permutation is recorded
    ///   ([`amgen_core::MetricsSnapshot::opt_panics`], a `worker_panic`
    ///   trace instant) and pruned; the search continues and still returns
    ///   the best incumbent;
    /// * when the context budget's wall deadline expires the incumbent (or
    ///   a greedy best-effort completion) is returned with
    ///   [`OptResult::degraded`] set rather than an error;
    /// * cancellation via [`amgen_core::CancelToken`] surfaces as a typed
    ///   [`amgen_core::GenError`];
    /// * any panic escaping the search scaffolding itself is caught here
    ///   and converted to a typed error.
    pub fn optimize_order(
        &self,
        steps: &[Step],
        search: SearchOptions,
    ) -> Result<OptResult, CompactError> {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            search::run(self, steps, search)
        })) {
            Ok(r) => r,
            Err(payload) => {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                Err(CompactError::Gen(GenError::worker_panic(
                    Stage::Opt,
                    message,
                )))
            }
        }
    }

    /// Rates alternative topologies and returns the index of the best one
    /// together with its rating — the paper's variant selection.
    ///
    /// Returns `None` for an empty candidate list.
    pub fn select_variant(&self, variants: &[LayoutObject]) -> Option<(usize, Rating)> {
        variants
            .iter()
            .map(|v| self.rate(v))
            .enumerate()
            .min_by(|(_, a), (_, b)| a.score.total_cmp(&b.score))
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

    fn stripe(t: &GenCtx, layer: &str, w: i64, h: i64) -> LayoutObject {
        let l = t.layer(layer).unwrap();
        let mut o = LayoutObject::new("s");
        o.push(Shape::new(l, Rect::new(0, 0, w, h)));
        o
    }

    fn steps(t: &GenCtx) -> Vec<Step> {
        // An L-shaped seed (tall stripe + long foot) and two squares that
        // mutually conflict. Compacting the low square (blocked by the
        // foot) before the notch square pushes the notch square far east;
        // the reverse order nests the notch square next to the stripe —
        // exactly the paper's "one object could have a different minimum
        // distance to a structure if another object was compacted
        // previously".
        let poly = t.layer("poly").unwrap();
        let mut seed = LayoutObject::new("L");
        seed.push(Shape::new(poly, Rect::new(0, 0, um(1), um(8))));
        seed.push(Shape::new(poly, Rect::new(0, 0, um(8), um(1))));
        let mut notch = LayoutObject::new("notch");
        notch.push(Shape::new(poly, Rect::new(0, um(3), um(2), um(5))));
        let mut low = LayoutObject::new("low");
        low.push(Shape::new(poly, Rect::new(0, 0, um(2), um(2))));
        vec![
            Step::new(seed, Dir::East, CompactOptions::new()),
            Step::new(low, Dir::East, CompactOptions::new()),
            Step::new(notch, Dir::East, CompactOptions::new()),
        ]
    }

    #[test]
    fn build_runs_in_written_order() {
        let t = tech();
        let opt = Optimizer::new(&t, RatingWeights::default());
        let (layout, rating) = opt.build(&steps(&t)).unwrap();
        assert_eq!(layout.len(), 4);
        assert!(rating.area_um2 > 0.0);
        assert!(rating.score >= rating.area_um2);
    }

    #[test]
    fn optimizer_never_loses_to_written_order() {
        let t = tech();
        let opt = Optimizer::new(&t, RatingWeights::default());
        let s = steps(&t);
        let (_, written) = opt.build(&s).unwrap();
        let best = opt.optimize_order(&s, SearchOptions::default()).unwrap();
        assert!(best.rating.score <= written.score + 1e-9);
        assert_eq!(best.order.len(), s.len());
        assert!(best.complete);
    }

    #[test]
    fn optimizer_finds_a_strictly_better_order_when_one_exists() {
        let t = tech();
        let opt = Optimizer::new(&t, RatingWeights::default());
        // Written order: tall, wide, tall (the wide bar separates the
        // stripes, costing width). Best: wide bar last or first.
        let s = steps(&t);
        let (_, written) = opt.build(&s).unwrap();
        let best = opt
            .optimize_order(
                &s,
                SearchOptions {
                    keep_first: false,
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(
            best.rating.score < written.score,
            "expected improvement: {} vs {}",
            best.rating.score,
            written.score
        );
    }

    #[test]
    fn keep_first_pins_the_seed() {
        let t = tech();
        let opt = Optimizer::new(&t, RatingWeights::default());
        let best = opt
            .optimize_order(&steps(&t), SearchOptions::default())
            .unwrap();
        assert_eq!(best.order[0], 0);
    }

    #[test]
    fn empty_steps_is_a_valid_noop() {
        let t = tech();
        let opt = Optimizer::new(&t, RatingWeights::default());
        let r = opt.optimize_order(&[], SearchOptions::default()).unwrap();
        assert!(r.order.is_empty());
        assert_eq!(r.rating.score, 0.0);
        assert!(r.complete);
    }

    #[test]
    fn pruning_cuts_the_tree() {
        let t = tech();
        let opt = Optimizer::new(&t, RatingWeights::default());
        // Five steps: pruning and dominance should remove nodes while the
        // search still terminates with a full order.
        let mut s = steps(&t);
        s.push(Step::new(
            stripe(&t, "poly", um(2), um(2)),
            Dir::North,
            CompactOptions::new(),
        ));
        s.push(Step::new(
            stripe(&t, "poly", um(2), um(2)),
            Dir::South,
            CompactOptions::new(),
        ));
        let r = opt.optimize_order(&s, SearchOptions::default()).unwrap();
        assert!(r.explored > 0);
        assert_eq!(r.order.len(), s.len());
        assert!(r.complete);
    }

    #[test]
    fn explored_excludes_pruned_and_dominated_nodes() {
        let t = tech();
        let opt = Optimizer::new(&t, RatingWeights::default());
        let mut s = steps(&t);
        s.push(Step::new(
            stripe(&t, "poly", um(2), um(2)),
            Dir::North,
            CompactOptions::new(),
        ));
        s.push(Step::new(
            stripe(&t, "poly", um(2), um(2)),
            Dir::South,
            CompactOptions::new(),
        ));
        let r = opt
            .optimize_order(
                &s,
                SearchOptions {
                    keep_first: false,
                    ..Default::default()
                },
            )
            .unwrap();
        // 5 free steps: an exhaustive tree has 1 + 5 + 5·4 + 5·4·3 + 5·4·3·2
        // + 5! = 326 nodes. Explored counts only expanded nodes, so
        // explored + cut nodes can never exceed the exhaustive count, and
        // with two identical squares in the mix dominance must fire.
        assert!(r.explored + r.pruned + r.dominated <= 326, "{r:?}");
        assert!(
            r.dominated > 0,
            "identical steps must produce dominated subtrees: {r:?}"
        );
        assert!(r.explored > 0 && r.pruned > 0);
    }

    #[test]
    fn select_variant_picks_the_smallest() {
        let t = tech();
        let opt = Optimizer::new(&t, RatingWeights::default());
        let small = stripe(&t, "poly", um(2), um(2));
        let big = stripe(&t, "poly", um(10), um(10));
        let (idx, rating) = opt
            .select_variant(&[big.clone(), small.clone(), big])
            .unwrap();
        assert_eq!(idx, 1);
        assert!((rating.area_um2 - 4.0).abs() < 1e-9);
        assert!(opt.select_variant(&[]).is_none());
    }

    #[test]
    fn rating_includes_electrical_term() {
        let t = tech();
        // Same area, different capacitance (metal2 has lower cap than
        // pdiff): the rating must prefer the low-cap variant.
        let opt = Optimizer::new(
            &t,
            RatingWeights {
                area_per_um2: 1.0,
                cap_per_af: 1.0,
            },
        );
        let hot = stripe(&t, "pdiff", um(10), um(2));
        let cool = stripe(&t, "metal2", um(10), um(2));
        let (idx, _) = opt.select_variant(&[hot, cool]).unwrap();
        assert_eq!(idx, 1);
    }

    #[test]
    fn max_nodes_bounds_the_search() {
        let t = tech();
        let opt = Optimizer::new(&t, RatingWeights::default());
        let s = steps(&t);
        let r = opt
            .optimize_order(
                &s,
                SearchOptions {
                    keep_first: false,
                    max_nodes: 4,
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(r.explored <= 4, "{}", r.explored);
        assert_eq!(r.order.len(), s.len(), "best-effort is still complete");
    }

    /// Regression test: on the seed code, expiring `max_nodes` before any
    /// complete order was found panicked on `best.expect(...)`. The search
    /// must instead complete the deepest partial frame greedily.
    #[test]
    fn max_nodes_exhaustion_returns_best_effort_instead_of_panicking() {
        let t = tech();
        let opt = Optimizer::new(&t, RatingWeights::default());
        // 10 steps but a 4-node budget: no complete order can be reached
        // within the budget (depth 10 needs at least 10 expansions).
        let mut s = steps(&t);
        for i in 0..7 {
            let side = Dir::ALL[i % 4];
            s.push(Step::new(
                stripe(&t, "poly", um(1 + i as i64 % 3), um(2)),
                side,
                CompactOptions::new(),
            ));
        }
        assert_eq!(s.len(), 10);
        let r = opt
            .optimize_order(
                &s,
                SearchOptions {
                    keep_first: false,
                    max_nodes: 4,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(r.order.len(), s.len(), "best-effort order must be complete");
        assert!(
            !r.complete,
            "an exhausted search must be flagged incomplete"
        );
        assert!(r.rating.score > 0.0);
        // The order is a real permutation.
        let mut sorted = r.order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..s.len()).collect::<Vec<_>>());
        // And a zero budget still returns a valid result.
        let r0 = opt
            .optimize_order(
                &s,
                SearchOptions {
                    keep_first: false,
                    max_nodes: 0,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(r0.order.len(), s.len());
        assert!(!r0.complete);
    }

    #[test]
    fn parallel_matches_sequential_on_the_order_sensitive_workload() {
        let t = tech();
        let opt = Optimizer::new(&t, RatingWeights::default());
        let s = steps(&t);
        let seq = opt
            .optimize_order(
                &s,
                SearchOptions {
                    keep_first: false,
                    ..Default::default()
                },
            )
            .unwrap();
        let par = opt
            .optimize_order(
                &s,
                SearchOptions {
                    keep_first: false,
                    workers: 4,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(seq.rating.score, par.rating.score);
        assert_eq!(
            seq.order, par.order,
            "tie-break must make parallel search deterministic"
        );
        assert_eq!(par.workers, 4);
    }

    #[test]
    fn dominance_toggle_does_not_change_the_result() {
        let t = tech();
        let opt = Optimizer::new(&t, RatingWeights::default());
        let mut s = steps(&t);
        // Two identical squares → symmetric orders → dominance fires.
        s.push(Step::new(
            stripe(&t, "poly", um(2), um(2)),
            Dir::North,
            CompactOptions::new(),
        ));
        s.push(Step::new(
            stripe(&t, "poly", um(2), um(2)),
            Dir::North,
            CompactOptions::new(),
        ));
        let on = opt
            .optimize_order(
                &s,
                SearchOptions {
                    keep_first: false,
                    ..Default::default()
                },
            )
            .unwrap();
        let off = opt
            .optimize_order(
                &s,
                SearchOptions {
                    keep_first: false,
                    dominance: false,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(on.rating.score, off.rating.score);
        assert_eq!(on.order, off.order);
        assert!(
            on.explored <= off.explored,
            "dominance may only shrink the tree: {on:?} {off:?}"
        );
    }

    #[test]
    fn wall_time_and_workers_are_reported() {
        let t = tech();
        let opt = Optimizer::new(&t, RatingWeights::default());
        let r = opt
            .optimize_order(&steps(&t), SearchOptions::default())
            .unwrap();
        assert_eq!(r.workers, 1);
        let r = opt
            .optimize_order(&steps(&t), SearchOptions::parallel())
            .unwrap();
        assert!(r.workers >= 1);
    }

    #[test]
    fn too_many_steps_is_a_typed_error_not_a_panic() {
        let t = tech();
        let opt = Optimizer::new(&t, RatingWeights::default());
        let s: Vec<Step> = (0..65)
            .map(|_| {
                Step::new(
                    stripe(&t, "poly", um(2), um(2)),
                    Dir::East,
                    CompactOptions::new(),
                )
            })
            .collect();
        let err = opt
            .optimize_order(&s, SearchOptions::default())
            .unwrap_err();
        let g: GenError = err.into();
        assert_eq!(g.stage, amgen_core::Stage::Opt);
        assert!(g.to_string().contains("64"));
    }

    #[test]
    fn cancellation_surfaces_as_a_typed_error() {
        let t = tech();
        let ctx = GenCtx::new(std::sync::Arc::clone(&t.rules));
        ctx.cancel_token().cancel();
        let opt = Optimizer::new(&ctx, RatingWeights::default());
        let err = opt
            .optimize_order(&steps(&t), SearchOptions::default())
            .unwrap_err();
        let g: GenError = err.into();
        assert!(g.is_cancelled(), "{g}");
    }

    #[test]
    fn deadline_expiry_degrades_instead_of_erroring() {
        let t = tech();
        let ctx = GenCtx::new(std::sync::Arc::clone(&t.rules))
            .with_budget(amgen_core::Budget::unlimited().with_wall(Duration::ZERO));
        let opt = Optimizer::new(&ctx, RatingWeights::default());
        let s = steps(&t);
        let r = opt.optimize_order(&s, SearchOptions::default()).unwrap();
        assert!(r.degraded, "an expired deadline must flag the result");
        assert!(!r.complete);
        assert_eq!(r.order.len(), s.len(), "best-effort order must be complete");
        assert_eq!(r.order[0], 0, "keep_first must survive the degraded path");
        let mut sorted = r.order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..s.len()).collect::<Vec<_>>());
    }

    #[test]
    fn context_budget_caps_the_node_count() {
        let t = tech();
        let ctx = GenCtx::new(std::sync::Arc::clone(&t.rules))
            .with_budget(amgen_core::Budget::unlimited().with_max_opt_nodes(4));
        let opt = Optimizer::new(&ctx, RatingWeights::default());
        let s = steps(&t);
        let r = opt
            .optimize_order(
                &s,
                SearchOptions {
                    keep_first: false,
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(r.explored <= 4, "{}", r.explored);
        assert!(!r.complete);
        assert_eq!(r.order.len(), s.len());
    }

    /// A fault hook that makes exactly one optimizer worker panic.
    #[derive(Debug, Default)]
    struct PanicOneWorker(std::sync::atomic::AtomicBool);

    impl amgen_core::FaultHook for PanicOneWorker {
        fn decide(&self, site: amgen_core::FaultSite, _detail: &str) -> amgen_core::FaultAction {
            use std::sync::atomic::Ordering;
            if site == amgen_core::FaultSite::OptWorker && !self.0.swap(true, Ordering::Relaxed) {
                amgen_core::FaultAction::Panic
            } else {
                amgen_core::FaultAction::Proceed
            }
        }
    }

    #[test]
    fn a_panicking_worker_is_pruned_and_the_search_still_answers() {
        let t = tech();
        let s = steps(&t);
        for workers in [1, 4] {
            let ctx = GenCtx::new(std::sync::Arc::clone(&t.rules))
                .with_faults(std::sync::Arc::new(PanicOneWorker::default()));
            let opt = Optimizer::new(&ctx, RatingWeights::default());
            let r = opt
                .optimize_order(
                    &s,
                    SearchOptions {
                        keep_first: false,
                        workers,
                        ..Default::default()
                    },
                )
                .unwrap();
            assert_eq!(r.order.len(), s.len());
            assert!(
                r.metrics.opt_panics >= 1,
                "the injected panic must be recorded (workers={workers})"
            );
        }
    }
}
