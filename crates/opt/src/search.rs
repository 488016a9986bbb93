//! The parallel branch-and-bound engine behind
//! [`Optimizer::optimize_order`](crate::Optimizer::optimize_order).
//!
//! # How the search works
//!
//! The permutation tree over compaction steps is explored by `workers`
//! threads pulling frames from a shared LIFO deque:
//!
//! * **Branch and bound** — the bounding-box area of a partial layout is a
//!   lower bound on every completion's score (boxes only grow, and the
//!   electrical term is non-negative). The bound is applied **at push
//!   time**, so pruned subtrees are never materialized on the deque, and
//!   re-checked at pop time because the incumbent may have improved while
//!   the frame was queued. The incumbent score is shared through an
//!   [`AtomicU64`] holding the `f64` bit pattern, so every worker prunes
//!   against the global best without locking.
//! * **Subset-dominance memoization** — a table keyed by the bitmask of
//!   placed steps plus the [`LayoutSignature`] of the partial layout.
//!   Different orders of the same subset frequently produce the *same*
//!   geometry; every arrival after the first is redundant (identical
//!   layouts have identical completions) and is cut as `dominated`. The
//!   signature makes the check O(1).
//! * **Determinism** — among equal-scoring complete orders the
//!   lexicographically smallest wins. Bound pruning is strict (`>`), so an
//!   equal-score order is never pruned, and the dominance table keeps the
//!   lexicographically smallest prefix per (subset, signature) class, so
//!   the winning representative of every geometry class is always
//!   explored. The result is identical for any worker count or thread
//!   schedule.
//! * **Budget exhaustion** — when `max_nodes` runs out before any complete
//!   order was found, the deepest remaining partial frame is completed
//!   greedily (cheapest next step first) and returned as a best-effort
//!   result with [`OptResult::complete`] `== false`.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, LockResult, Mutex};
use std::time::Instant;

use amgen_compact::{CompactError, Compactor};
use amgen_core::{
    FaultSite, GenError, GenErrorKind, PlacementVariant, Resource, Stage, VariantTable,
};
use amgen_db::{LayoutObject, LayoutSignature};

use crate::{OptResult, Optimizer, Rating, SearchOptions, Step};

/// Complete orders kept in a stored variant table.
const TOP_K: usize = 6;

/// Sorts variants best-first: by score, ties broken by the
/// lexicographically smallest order — the same total order `offer`
/// uses for the incumbent, so `variants[0]` is always the winner.
fn sort_variants(vs: &mut Vec<PlacementVariant>) {
    vs.sort_by(|a, b| {
        a.score
            .total_cmp(&b.score)
            .then_with(|| a.order.cmp(&b.order))
    });
    vs.dedup_by(|a, b| a.order == b.order);
}

/// Recovers the guard from a possibly poisoned lock. A worker that
/// panicked mid-frame (see the `catch_unwind` in the worker loop) poisons
/// whatever mutex it held; the shared state itself stays consistent —
/// every update is a single push/insert — so the search keeps going
/// instead of cascading panics through every other worker.
fn unpoison<T>(r: LockResult<T>) -> T {
    r.unwrap_or_else(|p| p.into_inner())
}

/// True when a compaction error is the wall deadline expiring mid-step.
/// The deadline is soft for the optimizer — it degrades the result rather
/// than failing it — so this error is folded into the degraded flow
/// wherever a worker or the seeding loop encounters it.
fn is_wall_expiry(e: &CompactError) -> bool {
    matches!(e, CompactError::Gen(g)
        if g.kind == GenErrorKind::BudgetExhausted(Resource::Wall))
}

/// Best-effort text of a caught panic payload.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One node of the permutation tree.
struct Frame {
    /// The partial layout after compacting `order`.
    main: LayoutObject,
    /// Bitmask of placed step indices.
    mask: u64,
    /// The placement order so far.
    order: Vec<usize>,
    /// Area lower bound of this partial layout (memoized).
    lb: f64,
}

/// The current best complete solution.
struct Incumbent {
    rating: Rating,
    order: Vec<usize>,
    layout: LayoutObject,
}

struct Deque {
    frames: Vec<Frame>,
    /// Number of frames currently being processed by workers.
    active: usize,
}

/// Shared search state; everything workers touch.
struct Shared<'a> {
    opt: &'a Optimizer,
    steps: &'a [Step],
    max_nodes: usize,
    dominance: bool,
    deque: Mutex<Deque>,
    work: Condvar,
    /// Bit pattern of the incumbent score (`f64::INFINITY` when none).
    best_bits: AtomicU64,
    best: Mutex<Option<Incumbent>>,
    /// (mask, signature) → lexicographically smallest prefix that reached
    /// this geometry class.
    dom: Mutex<HashMap<(u64, LayoutSignature), Vec<usize>>>,
    /// Complete orders seen so far (bounded; see `process`), collected
    /// only when a variant table will be stored (`collect`).
    collect: bool,
    variants: Mutex<Vec<PlacementVariant>>,
    explored: AtomicUsize,
    pruned: AtomicUsize,
    dominated: AtomicUsize,
    stop: AtomicBool,
    exhausted: AtomicBool,
    /// Set when the wall-clock deadline expired mid-search: the result is
    /// the best incumbent found so far, flagged rather than an error.
    degraded: AtomicBool,
    error: Mutex<Option<CompactError>>,
}

impl<'a> Shared<'a> {
    /// The partial-layout lower bound: bounding-box area weighted by the
    /// area term. Sound whenever `area_per_um2 >= 0` (bounding boxes only
    /// grow and the capacitance term is non-negative).
    fn lower_bound(&self, sig: &LayoutSignature) -> f64 {
        sig.bbox.area() as f64 / 1e6 * self.opt.weights.area_per_um2
    }

    /// Strictly-worse check against the incumbent. Strict so that
    /// equal-score orders survive for the lexicographic tie-break.
    fn bound_prunes(&self, lb: f64) -> bool {
        lb > f64::from_bits(self.best_bits.load(Ordering::Relaxed))
    }

    /// Records a complete order if it beats the incumbent (score first,
    /// then lexicographically smallest order).
    fn offer(&self, rating: Rating, order: Vec<usize>, layout: LayoutObject) {
        let mut best = unpoison(self.best.lock());
        let better = match &*best {
            None => true,
            Some(b) => match rating.score.total_cmp(&b.rating.score) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Equal => order < b.order,
                std::cmp::Ordering::Greater => false,
            },
        };
        if better {
            self.opt.ctx.trace.instant_args(
                "opt",
                || "incumbent",
                || {
                    vec![
                        ("score", rating.score.into()),
                        ("area_um2", rating.area_um2.into()),
                        ("depth", order.len().into()),
                    ]
                },
            );
            // Publish the score for lock-free pruning reads. A CAS loop
            // (not `fetch_min` on bits) so negative scores order correctly.
            let mut cur = self.best_bits.load(Ordering::Relaxed);
            loop {
                if rating.score >= f64::from_bits(cur) {
                    break;
                }
                match self.best_bits.compare_exchange_weak(
                    cur,
                    rating.score.to_bits(),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(actual) => cur = actual,
                }
            }
            *best = Some(Incumbent {
                rating,
                order,
                layout,
            });
        }
    }

    /// True if this (subset, geometry) class was already reached by a
    /// lexicographically smaller prefix. Otherwise records `order` as the
    /// class representative.
    fn dominated(&self, mask: u64, sig: LayoutSignature, order: &[usize]) -> bool {
        let mut dom = unpoison(self.dom.lock());
        match dom.entry((mask, sig)) {
            Entry::Occupied(mut e) => {
                if e.get().as_slice() <= order {
                    drop(dom);
                    self.dominated.fetch_add(1, Ordering::Relaxed);
                    self.opt.ctx.trace.instant_fine("opt", || "dominated");
                    true
                } else {
                    // A smaller prefix arrived late (parallel schedules can
                    // do that): let it through so the lexicographic winner
                    // is always explored.
                    e.insert(order.to_vec());
                    false
                }
            }
            Entry::Vacant(v) => {
                v.insert(order.to_vec());
                false
            }
        }
    }

    fn record_error(&self, e: CompactError) {
        if is_wall_expiry(&e) {
            self.enter_degraded();
            return;
        }
        unpoison(self.error.lock()).get_or_insert(e);
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Switches the search into deadline-degraded shutdown: stop
    /// expanding, flag the result, let the incumbent (or the greedy
    /// completion) stand.
    fn enter_degraded(&self) {
        self.degraded.store(true, Ordering::Relaxed);
        self.exhausted.store(true, Ordering::Relaxed);
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Builds a child frame (compacts step `i` onto `frame`), applying the
    /// bound and dominance checks at push time. Returns `None` when the
    /// child is cut.
    fn make_child(&self, c: &Compactor, frame: &Frame, i: usize) -> Option<Frame> {
        let step = &self.steps[i];
        let mut main = frame.main.clone();
        if let Err(e) = c.compact(&mut main, &step.obj, step.side, &step.opts) {
            self.record_error(e);
            return None;
        }
        let sig = main.signature();
        let lb = self.lower_bound(&sig);
        if self.bound_prunes(lb) {
            self.pruned.fetch_add(1, Ordering::Relaxed);
            self.opt.ctx.trace.instant_fine("opt", || "prune:push");
            return None;
        }
        let mut order = Vec::with_capacity(frame.order.len() + 1);
        order.extend_from_slice(&frame.order);
        order.push(i);
        let mask = frame.mask | (1 << i);
        if self.dominance && self.dominated(mask, sig, &order) {
            return None;
        }
        Some(Frame {
            main,
            mask,
            order,
            lb,
        })
    }

    /// Processes one frame. Returns the frame back when the node budget or
    /// the wall-clock deadline is exhausted so it stays available for the
    /// best-effort completion.
    fn process(&self, c: &Compactor, frame: Frame) -> Option<Frame> {
        // Cooperative cancellation is a hard, typed error; the deadline is
        // soft — stop expanding, keep the frame for the greedy completion
        // and flag the result as degraded instead of erroring.
        let limits = &self.opt.ctx.limits;
        if limits.cancel_token().is_cancelled() {
            self.record_error(CompactError::Gen(GenError::cancelled(Stage::Opt)));
            return None;
        }
        if limits.deadline_expired() {
            self.enter_degraded();
            return Some(frame);
        }
        if let Err(e) = self.opt.ctx.fault_check(FaultSite::OptWorker, "process") {
            self.record_error(CompactError::Gen(e));
            return None;
        }
        // Re-check the bound: the incumbent may have improved while this
        // frame sat on the deque.
        if self.bound_prunes(frame.lb) {
            self.pruned.fetch_add(1, Ordering::Relaxed);
            self.opt.ctx.trace.instant_fine("opt", || "prune:pop");
            return None;
        }
        // Claim a node from the budget.
        if self.explored.fetch_add(1, Ordering::Relaxed) + 1 > self.max_nodes {
            self.explored.fetch_sub(1, Ordering::Relaxed);
            self.exhausted.store(true, Ordering::Relaxed);
            self.stop.store(true, Ordering::Relaxed);
            return Some(frame);
        }
        if frame.order.len() == self.steps.len() {
            let rating = self.opt.rate(&frame.main);
            if self.collect {
                let mut vs = unpoison(self.variants.lock());
                vs.push(PlacementVariant {
                    order: frame.order.clone(),
                    score: rating.score,
                    area_um2: rating.area_um2,
                    cap_af: rating.cap_af,
                    signature: frame.main.signature(),
                });
                // Keep the buffer bounded: compacting to the best
                // TOP_K can never drop a final top-k member (anything
                // dropped is already beaten by TOP_K better orders).
                if vs.len() > TOP_K * 8 {
                    sort_variants(&mut vs);
                    vs.truncate(TOP_K);
                }
            }
            self.offer(rating, frame.order, frame.main);
            return None;
        }
        // One span per node expansion; named by depth so the track stays
        // readable (per-node names would be millions of unique strings).
        let mut span = self.opt.ctx.trace.span_fine("opt", || {
            amgen_core::name!("expand:depth{}", frame.order.len())
        });
        let mut children = Vec::new();
        for i in 0..self.steps.len() {
            if frame.mask & (1 << i) != 0 {
                continue;
            }
            if let Some(child) = self.make_child(c, &frame, i) {
                children.push(child);
            }
            if self.stop.load(Ordering::Relaxed) {
                break;
            }
        }
        span.arg("children", children.len());
        drop(span);
        if !children.is_empty() {
            let mut q = unpoison(self.deque.lock());
            // LIFO: reversed push so the lowest step index is popped first
            // (depth-first, left-to-right — matches the sequential order).
            for ch in children.into_iter().rev() {
                q.frames.push(ch);
            }
            drop(q);
            self.work.notify_all();
        }
        None
    }

    /// The worker loop: pull a frame, process it, repeat until the tree is
    /// drained or the search stopped. `index` is `Some` for spawned
    /// workers, which get their own named trace track.
    fn worker(&self, index: Option<usize>) {
        if let Some(w) = index {
            // No-op unless tracing is on; names this worker's track in
            // the Chrome export (`opt-worker-0`, `opt-worker-1`, ...).
            self.opt
                .ctx
                .trace
                .set_thread_name(format!("opt-worker-{w}"));
        }
        // Workers share the compiled rule kernel by bumping the `Arc`
        // refcount — no per-worker recompilation or `Tech` clone.
        let c = Compactor::new(&self.opt.ctx);
        debug_assert!(
            std::sync::Arc::ptr_eq(&c.ctx().rules, &self.opt.ctx.rules),
            "worker must share the optimizer's rule kernel allocation"
        );
        loop {
            let frame = {
                let mut q = unpoison(self.deque.lock());
                loop {
                    if self.stop.load(Ordering::Relaxed) {
                        break None;
                    }
                    if let Some(f) = q.frames.pop() {
                        q.active += 1;
                        break Some(f);
                    }
                    if q.active == 0 {
                        break None;
                    }
                    q = unpoison(self.work.wait(q));
                }
            };
            let Some(frame) = frame else {
                // Wake everyone so idle workers re-check the exit
                // condition.
                self.work.notify_all();
                return;
            };
            // A panicking frame — an injected fault or a genuine bug in one
            // permutation's compaction — is recorded and pruned; the other
            // workers and the incumbent are unaffected. The `active`
            // bookkeeping below runs regardless, so a panic can never
            // leave the exit condition (`active == 0`) unreachable.
            let requeue = match catch_unwind(AssertUnwindSafe(|| self.process(&c, frame))) {
                Ok(r) => r,
                Err(payload) => {
                    let message = panic_text(payload.as_ref());
                    self.opt.ctx.metrics.add_opt_panic();
                    self.opt.ctx.trace.instant_args(
                        "opt",
                        || "worker_panic",
                        || vec![("message", message.clone().into())],
                    );
                    self.pruned.fetch_add(1, Ordering::Relaxed);
                    None
                }
            };
            let mut q = unpoison(self.deque.lock());
            q.active -= 1;
            if let Some(f) = requeue {
                q.frames.push(f);
            }
            let done = q.active == 0 && q.frames.is_empty();
            drop(q);
            if done || self.stop.load(Ordering::Relaxed) {
                self.work.notify_all();
            }
        }
    }
}

/// Greedily completes a partial frame: repeatedly appends the unused step
/// whose compaction yields the smallest partial layout (ties broken by
/// lowest step index). Used as the best-effort answer when `max_nodes`
/// expires before any complete order was found.
fn greedy_complete(
    opt: &Optimizer,
    steps: &[Step],
    mut frame: Frame,
) -> Result<(LayoutObject, Vec<usize>), CompactError> {
    // The completion runs under a grace context with the budget disarmed:
    // it exists precisely because the node budget or wall deadline already
    // expired, and it is bounded (O(steps²) compactions), so letting the
    // expired deadline veto it would turn every timeout into an error
    // instead of a best-effort result.
    let mut grace = opt.ctx.clone();
    grace.limits = std::sync::Arc::new(amgen_core::Budget::unlimited().arm());
    let c = Compactor::new(&grace);
    debug_assert!(
        std::sync::Arc::ptr_eq(&c.ctx().rules, &opt.ctx.rules),
        "greedy completion must share the optimizer's rule kernel allocation"
    );
    while frame.order.len() < steps.len() {
        let mut choice: Option<(f64, usize, LayoutObject)> = None;
        for (i, step) in steps.iter().enumerate() {
            if frame.mask & (1 << i) != 0 {
                continue;
            }
            let mut cand = frame.main.clone();
            c.compact(&mut cand, &step.obj, step.side, &step.opts)?;
            let score = cand.bbox().area() as f64 / 1e6 * opt.weights.area_per_um2;
            // Strict `<` keeps the lowest index among ties.
            if choice.as_ref().is_none_or(|(s, _, _)| score < *s) {
                choice = Some((score, i, cand));
            }
        }
        let (_, i, cand) = choice.expect("an unused step remains");
        frame.main = cand;
        frame.mask |= 1 << i;
        frame.order.push(i);
    }
    Ok((frame.main, frame.order))
}

/// Runs the order search. See the module docs for the algorithm.
pub(crate) fn run(
    opt: &Optimizer,
    steps: &[Step],
    search: SearchOptions,
) -> Result<OptResult, CompactError> {
    let t0 = Instant::now();
    if steps.is_empty() {
        return Ok(OptResult {
            order: Vec::new(),
            layout: LayoutObject::new("module"),
            rating: Rating {
                area_um2: 0.0,
                cap_af: 0.0,
                score: 0.0,
            },
            explored: 0,
            pruned: 0,
            dominated: 0,
            workers: 0,
            wall: t0.elapsed(),
            complete: true,
            degraded: false,
            cached: false,
            variants: Vec::new(),
            metrics: opt.ctx.snapshot(),
        });
    }
    let mut search_span = opt.ctx.stage(Stage::Opt, || "search");
    if steps.len() > 64 {
        return Err(CompactError::Gen(GenError::stage_msg(
            Stage::Opt,
            format!(
                "optimize_order supports at most 64 steps ({} given); a {}-step \
                 permutation search would not terminate anyway",
                steps.len(),
                steps.len()
            ),
        )));
    }
    // Pre-flight: surface an already cancelled run before any thread is
    // spawned. An already-expired deadline is NOT an error here — the
    // search below degrades to a greedy best-effort result instead.
    if opt.ctx.limits.cancel_token().is_cancelled() {
        return Err(CompactError::Gen(GenError::cancelled(Stage::Opt)));
    }
    let workers = match search.workers {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
    .min(64);

    search_span.arg("steps", steps.len());
    search_span.arg("workers", workers);

    // The effective node budget is the search option capped by the
    // context-wide budget, so a `Budget::with_max_opt_nodes` bound applies
    // even to callers that never touch `SearchOptions`.
    let budget_nodes = opt.ctx.limits.budget().max_opt_nodes;
    let max_nodes = search
        .max_nodes
        .min(usize::try_from(budget_nodes).unwrap_or(usize::MAX));

    // Warm path: a previous search with an identical key left its top-k
    // variant table in the generation cache — instantiate the winner in
    // O(1) instead of re-searching. Only proven-complete, undegraded,
    // panic-free searches are ever stored, so a warm result is exactly
    // the cold result.
    let key = opt.variant_key(steps, &search, max_nodes);
    if let Some(k) = &key {
        if let Some(table) = opt.ctx.cache_variants_get(Stage::Opt, k) {
            let best = &table.variants[0];
            search_span.arg("cached", 1u64);
            // Charge the search before the snapshot below reads it.
            drop(search_span);
            return Ok(OptResult {
                order: best.order.clone(),
                layout: table.layout.clone(),
                rating: Rating {
                    area_um2: best.area_um2,
                    cap_af: best.cap_af,
                    score: best.score,
                },
                explored: 0,
                pruned: 0,
                dominated: 0,
                workers: 0,
                wall: t0.elapsed(),
                complete: true,
                degraded: false,
                cached: true,
                variants: table.variants.clone(),
                metrics: opt.ctx.snapshot(),
            });
        }
    }
    let panics_before = opt.ctx.snapshot().opt_panics;

    let shared = Shared {
        opt,
        steps,
        max_nodes,
        dominance: search.dominance,
        collect: key.is_some(),
        variants: Mutex::new(Vec::new()),
        deque: Mutex::new(Deque {
            frames: Vec::new(),
            active: 0,
        }),
        work: Condvar::new(),
        best_bits: AtomicU64::new(f64::INFINITY.to_bits()),
        best: Mutex::new(None),
        dom: Mutex::new(HashMap::new()),
        explored: AtomicUsize::new(0),
        pruned: AtomicUsize::new(0),
        dominated: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        exhausted: AtomicBool::new(false),
        degraded: AtomicBool::new(false),
        error: Mutex::new(None),
    };

    // Seed the deque with the allowed first steps (reversed so index 0 is
    // popped first).
    {
        let c = Compactor::new(&opt.ctx);
        let first_choices: Vec<usize> = if search.keep_first {
            vec![0]
        } else {
            (0..steps.len()).collect()
        };
        let mut q = unpoison(shared.deque.lock());
        for &f in first_choices.iter().rev() {
            let mut main = LayoutObject::new("module");
            if let Err(e) = c.compact(&mut main, &steps[f].obj, steps[f].side, &steps[f].opts) {
                if is_wall_expiry(&e) {
                    // Deadline hit while seeding: degrade to the greedy
                    // best-effort completion over whatever got seeded.
                    shared.enter_degraded();
                    break;
                }
                return Err(e);
            }
            let sig = main.signature();
            let lb = shared.lower_bound(&sig);
            q.frames.push(Frame {
                main,
                mask: 1 << f,
                order: vec![f],
                lb,
            });
        }
    }

    if workers <= 1 {
        shared.worker(None);
    } else {
        std::thread::scope(|scope| {
            for w in 0..workers {
                let shared = &shared;
                scope.spawn(move || shared.worker(Some(w)));
            }
        });
    }

    if let Some(e) = unpoison(shared.error.lock()).take() {
        return Err(e);
    }

    let explored = shared.explored.load(Ordering::Relaxed);
    let pruned = shared.pruned.load(Ordering::Relaxed);
    let dominated = shared.dominated.load(Ordering::Relaxed);
    let complete = !shared.exhausted.load(Ordering::Relaxed);
    let degraded = shared.degraded.load(Ordering::Relaxed);
    // The search statistics also live in the shared metrics so the run
    // report and `OptResult` read the same numbers.
    opt.ctx.metrics.add_opt_explored(explored as u64);
    opt.ctx.metrics.add_opt_pruned(pruned as u64);
    opt.ctx.metrics.add_opt_dominated(dominated as u64);
    search_span.arg("explored", explored);
    search_span.arg("pruned", pruned);
    search_span.arg("dominated", dominated);
    let best = unpoison(shared.best.into_inner());
    let mut variants = unpoison(shared.variants.into_inner());
    sort_variants(&mut variants);
    variants.truncate(TOP_K);

    let (order, layout, rating) = match best {
        Some(b) => (b.order, b.layout, b.rating),
        None => {
            // Node budget ran out before any complete order: finish the
            // deepest remaining frame greedily (best-effort).
            let frames = unpoison(shared.deque.into_inner()).frames;
            let deepest = frames.into_iter().max_by(|a, b| {
                a.order
                    .len()
                    .cmp(&b.order.len())
                    .then_with(|| b.order.cmp(&a.order))
            });
            let (layout, order) = match deepest {
                Some(f) => greedy_complete(opt, steps, f)?,
                // Defensive: the deque should never drain without a best,
                // but if it does, greedy-complete from scratch (placing the
                // pinned first step when `keep_first`).
                None => {
                    let mut start = Frame {
                        main: LayoutObject::new("module"),
                        mask: 0,
                        order: Vec::new(),
                        lb: 0.0,
                    };
                    if search.keep_first {
                        // Seed under the same disarmed-budget grace the
                        // greedy completion uses (see `greedy_complete`):
                        // this path only runs because a budget expired.
                        let mut grace = opt.ctx.clone();
                        grace.limits = std::sync::Arc::new(amgen_core::Budget::unlimited().arm());
                        let c = Compactor::new(&grace);
                        c.compact(
                            &mut start.main,
                            &steps[0].obj,
                            steps[0].side,
                            &steps[0].opts,
                        )?;
                        start.mask = 1;
                        start.order.push(0);
                    }
                    greedy_complete(opt, steps, start)?
                }
            };
            let rating = opt.rate(&layout);
            (order, layout, rating)
        }
    };

    // Store the variant table for warm reuse — but only when the search
    // is a proven, clean optimum: complete (node budget never expired),
    // undegraded (deadline never expired), no worker panicked mid-search
    // (a panicked permutation was pruned, so the "optimum" is suspect),
    // and the collected winner agrees with the incumbent.
    if let Some(k) = key {
        let clean = complete
            && !degraded
            && opt.ctx.snapshot().opt_panics == panics_before
            && variants.first().is_some_and(|v| v.order == order);
        if clean {
            opt.ctx.cache_variants_put(
                k,
                std::sync::Arc::new(VariantTable {
                    layout: layout.clone(),
                    variants: variants.clone(),
                }),
            );
        }
    }

    drop(search_span);
    Ok(OptResult {
        order,
        layout,
        rating,
        explored,
        pruned,
        dominated,
        workers,
        wall: t0.elapsed(),
        complete,
        degraded,
        cached: false,
        variants,
        metrics: opt.ctx.snapshot(),
    })
}
