//! The shared generation context threaded through every pipeline stage.
//!
//! Every stage of the module generator — primitive shape functions,
//! the successive compactor and its rebuild hooks, DRC, extraction,
//! routing, the module library, the language interpreter and the order
//! optimizer — is design-rule driven: rule lookup is the innermost loop
//! of the whole system. [`GenCtx`] packages the compiled, immutable
//! [`RuleSet`] kernel together with generation options and cheap atomic
//! [`Metrics`] so that all stages consume *one* shared context:
//!
//! * `rules` is an [`Arc<RuleSet>`] — cloning a `GenCtx` (for a parallel
//!   search worker, say) bumps a reference count instead of deep-cloning
//!   the rule database;
//! * `GenCtx` derefs to [`RuleSet`], so `ctx.min_spacing(a, b)` works
//!   anywhere a `&Tech` query used to;
//! * `metrics` carries relaxed atomic per-stage counters (objects
//!   placed, group rebuilds, DRC checks, optimizer search statistics,
//!   wall time per stage) plus the kernel's rule-query counter,
//!   surfaced via [`GenCtx::snapshot`];
//! * `trace` carries a shared [`TraceSink`] recording structured span /
//!   instant events per stage — disabled by default (one branch per
//!   call site), switched on with [`GenCtx::with_tracing`] and drained
//!   into a Chrome-trace JSON or the [`GenCtx::run_report`] text.
//!
//! Every stage entry point takes `&GenCtx`: build one context per run
//! (with its budget, cancel token, cache and tracing) and pass it by
//! reference, so no stage can run outside the run's limits. A stage
//! entry opens one [`StageGuard`] ([`GenCtx::stage`]), which charges
//! the entry's wall time to the stage on every exit and records its
//! trace span when tracing is on.
//!
//! ```
//! use amgen_core::GenCtx;
//! use amgen_tech::Tech;
//!
//! let tech = Tech::bicmos_1u();
//! let ctx = GenCtx::from_tech(&tech);
//! let poly = ctx.poly().unwrap();
//! assert_eq!(ctx.min_width(poly), tech.min_width(poly));
//! let worker = ctx.clone(); // Arc bump, not a rule-table copy
//! assert!(std::sync::Arc::ptr_eq(&ctx.rules, &worker.rules));
//! ```

#![warn(missing_docs)]

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use amgen_tech::{RuleSet, Tech};
pub use amgen_trace::Detail;
pub use amgen_trace::{name, Name};
use amgen_trace::{ArgValue, Span, TraceSink};

pub mod cache;
pub use cache::{CachedModule, CanonParam, GenCache, GenKey, PlacementVariant, VariantTable};
pub mod robust;
pub mod snapshot;
pub use robust::{
    Budget, CancelToken, CostEstimate, FaultAction, FaultHook, FaultSite, GenError, GenErrorKind,
    GenResult, Limits, Resource,
};
pub use snapshot::{SnapshotError, SnapshotStats};

/// Options that apply to a whole generation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GenOptions {
    /// Count every rule query in the kernel (off by default; the counter
    /// costs one relaxed atomic add per query when enabled).
    pub count_rule_queries: bool,
}

/// The pipeline stages instrumented by [`Metrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Primitive shape functions.
    Prim,
    /// The successive compactor.
    Compact,
    /// Design-rule checking (incl. latch-up).
    Drc,
    /// Connectivity / parasitic extraction.
    Extract,
    /// Wiring routines.
    Route,
    /// The module library generators.
    Modgen,
    /// The language interpreter.
    Dsl,
    /// The compaction-order optimizer.
    Opt,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 8] = [
        Stage::Prim,
        Stage::Compact,
        Stage::Drc,
        Stage::Extract,
        Stage::Route,
        Stage::Modgen,
        Stage::Dsl,
        Stage::Opt,
    ];

    /// Short lower-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Prim => "prim",
            Stage::Compact => "compact",
            Stage::Drc => "drc",
            Stage::Extract => "extract",
            Stage::Route => "route",
            Stage::Modgen => "modgen",
            Stage::Dsl => "dsl",
            Stage::Opt => "opt",
        }
    }
}

/// Cheap per-stage counters, shared by all clones of a [`GenCtx`].
///
/// All counters are relaxed atomics: incrementing from parallel search
/// workers is safe and nearly free, and a torn read can at worst lag a
/// concurrent writer by a few events.
#[derive(Debug, Default)]
pub struct Metrics {
    objects_placed: AtomicU64,
    shapes_generated: AtomicU64,
    rebuilds: AtomicU64,
    drc_checks: AtomicU64,
    opt_explored: AtomicU64,
    opt_pruned: AtomicU64,
    opt_dominated: AtomicU64,
    opt_panics: AtomicU64,
    faults_injected: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_evicted: AtomicU64,
    admission_refused: AtomicU64,
    stage_nanos: [AtomicU64; Stage::ALL.len()],
}

impl Metrics {
    /// A fresh, all-zero metrics block.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Records `n` objects placed into a layout.
    #[inline]
    pub fn add_objects_placed(&self, n: u64) {
        self.objects_placed.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` shapes appended by geometry builtins. The language
    /// interpreter charges the exact per-call delta, so the counter is
    /// directly comparable to the shape bound of a static
    /// `CostCertificate` (amgen-lint).
    #[inline]
    pub fn add_shapes_generated(&self, n: u64) {
        self.shapes_generated.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one contact-array group rebuild.
    #[inline]
    pub fn add_rebuild(&self) {
        self.rebuilds.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` individual DRC checks.
    #[inline]
    pub fn add_drc_checks(&self, n: u64) {
        self.drc_checks.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` search nodes expanded by the order optimizer.
    #[inline]
    pub fn add_opt_explored(&self, n: u64) {
        self.opt_explored.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` search nodes cut by the optimizer's bound.
    #[inline]
    pub fn add_opt_pruned(&self, n: u64) {
        self.opt_pruned.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` search nodes cut by the optimizer's dominance memo.
    #[inline]
    pub fn add_opt_dominated(&self, n: u64) {
        self.opt_dominated.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one optimizer worker panic that was caught and isolated.
    #[inline]
    pub fn add_opt_panic(&self) {
        self.opt_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one injected fault that fired (testing only).
    #[inline]
    pub fn add_fault_injected(&self) {
        self.faults_injected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one generation-cache hit.
    #[inline]
    pub fn add_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one generation-cache miss.
    #[inline]
    pub fn add_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` generation-cache evictions.
    #[inline]
    pub fn add_cache_evicted(&self, n: u64) {
        self.cache_evicted.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one run refused at static admission (a cost certificate
    /// proved the budget insufficient before anything executed).
    #[inline]
    pub fn add_admission_refused(&self) {
        self.admission_refused.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds wall time to a stage's bucket.
    #[inline]
    pub fn add_stage_nanos(&self, stage: Stage, nanos: u64) {
        self.stage_nanos[stage as usize].fetch_add(nanos, Ordering::Relaxed);
    }

    /// Wall nanoseconds charged to a stage so far.
    pub fn stage_nanos(&self, stage: Stage) -> u64 {
        self.stage_nanos[stage as usize].load(Ordering::Relaxed)
    }

    /// Reads every counter into a [`MetricsSnapshot`]. The kernel's
    /// `rule_queries` counter lives on the `RuleSet`, not here, so it
    /// stays 0 — [`GenCtx::snapshot`] fills it in.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut stage_nanos = [0u64; Stage::ALL.len()];
        for (slot, stage) in stage_nanos.iter_mut().zip(Stage::ALL) {
            *slot = self.stage_nanos(stage);
        }
        MetricsSnapshot {
            rule_queries: 0,
            objects_placed: self.objects_placed.load(Ordering::Relaxed),
            shapes_generated: self.shapes_generated.load(Ordering::Relaxed),
            rebuilds: self.rebuilds.load(Ordering::Relaxed),
            drc_checks: self.drc_checks.load(Ordering::Relaxed),
            opt_explored: self.opt_explored.load(Ordering::Relaxed),
            opt_pruned: self.opt_pruned.load(Ordering::Relaxed),
            opt_dominated: self.opt_dominated.load(Ordering::Relaxed),
            opt_panics: self.opt_panics.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_evicted: self.cache_evicted.load(Ordering::Relaxed),
            admission_refused: self.admission_refused.load(Ordering::Relaxed),
            stage_nanos,
        }
    }

    /// Adds every counter of `snap` into this block — the aggregation
    /// primitive for a serving front-end that meters each request on a
    /// fresh `Metrics` (so the response carries per-request numbers) and
    /// folds the deltas into a long-lived per-tenant block afterwards.
    pub fn absorb(&self, snap: &MetricsSnapshot) {
        self.objects_placed
            .fetch_add(snap.objects_placed, Ordering::Relaxed);
        self.shapes_generated
            .fetch_add(snap.shapes_generated, Ordering::Relaxed);
        self.rebuilds.fetch_add(snap.rebuilds, Ordering::Relaxed);
        self.drc_checks
            .fetch_add(snap.drc_checks, Ordering::Relaxed);
        self.opt_explored
            .fetch_add(snap.opt_explored, Ordering::Relaxed);
        self.opt_pruned
            .fetch_add(snap.opt_pruned, Ordering::Relaxed);
        self.opt_dominated
            .fetch_add(snap.opt_dominated, Ordering::Relaxed);
        self.opt_panics
            .fetch_add(snap.opt_panics, Ordering::Relaxed);
        self.faults_injected
            .fetch_add(snap.faults_injected, Ordering::Relaxed);
        self.cache_hits
            .fetch_add(snap.cache_hits, Ordering::Relaxed);
        self.cache_misses
            .fetch_add(snap.cache_misses, Ordering::Relaxed);
        self.cache_evicted
            .fetch_add(snap.cache_evicted, Ordering::Relaxed);
        self.admission_refused
            .fetch_add(snap.admission_refused, Ordering::Relaxed);
        for (slot, &ns) in self.stage_nanos.iter().zip(snap.stage_nanos.iter()) {
            slot.fetch_add(ns, Ordering::Relaxed);
        }
    }
}

/// RAII guard of one stage entry, opened by [`GenCtx::stage`] or
/// [`GenCtx::stage_fine`]. It charges the wall time from open to drop to
/// the stage's [`Metrics`] bucket on every exit — early returns and `?`
/// errors included — and records the entry as a trace span while
/// tracing is on. Stage time is inclusive: a guard's window contains
/// whatever nested stages run inside it.
#[derive(Debug)]
#[must_use = "the stage is charged when the guard drops; bind it to a named variable"]
pub struct StageGuard<'c> {
    metrics: &'c Metrics,
    stage: Stage,
    start: Instant,
    span: Span<'c>,
}

impl StageGuard<'_> {
    /// True when the span will be recorded — use to skip computing
    /// expensive argument values on the disabled path.
    #[inline]
    pub fn is_recording(&self) -> bool {
        self.span.is_recording()
    }

    /// Attaches an argument to the span (a no-op when not recording).
    #[inline]
    pub fn arg(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        self.span.arg(key, value);
    }
}

impl Drop for StageGuard<'_> {
    fn drop(&mut self) {
        self.metrics
            .add_stage_nanos(self.stage, self.start.elapsed().as_nanos() as u64);
    }
}

/// A point-in-time copy of all counters, for reports.
///
/// ```
/// use amgen_core::GenCtx;
/// use amgen_tech::Tech;
///
/// let ctx = GenCtx::from_tech(&Tech::bicmos_1u());
/// ctx.metrics.add_rebuild();
/// ctx.metrics.add_opt_explored(3);
/// let snap = ctx.snapshot();
/// assert_eq!((snap.rebuilds, snap.opt_explored), (1, 3));
/// assert!(snap.to_string().contains("rebuilds=1"));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Rule queries answered by the kernel (0 unless counting was on).
    pub rule_queries: u64,
    /// Objects placed into layouts.
    pub objects_placed: u64,
    /// Shapes appended by interpreter geometry builtins.
    pub shapes_generated: u64,
    /// Contact-array group rebuilds performed by the compactor.
    pub rebuilds: u64,
    /// Individual DRC checks run.
    pub drc_checks: u64,
    /// Search nodes expanded by the order optimizer.
    pub opt_explored: u64,
    /// Optimizer nodes cut by the incumbent bound.
    pub opt_pruned: u64,
    /// Optimizer nodes cut by the dominance memo.
    pub opt_dominated: u64,
    /// Optimizer worker panics caught and isolated.
    pub opt_panics: u64,
    /// Injected faults that fired (always 0 outside chaos testing).
    pub faults_injected: u64,
    /// Generation-cache hits (modules or variant tables served).
    pub cache_hits: u64,
    /// Generation-cache misses (lookups that fell through to a build).
    pub cache_misses: u64,
    /// Generation-cache entries evicted to stay within capacity.
    pub cache_evicted: u64,
    /// Runs refused at static admission (certified cost over budget).
    pub admission_refused: u64,
    /// Wall nanoseconds per stage, in [`Stage::ALL`] order.
    pub stage_nanos: [u64; Stage::ALL.len()],
}

impl MetricsSnapshot {
    /// Wall nanoseconds charged to one stage.
    pub fn stage_nanos(&self, stage: Stage) -> u64 {
        self.stage_nanos[stage as usize]
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rule_queries={} objects_placed={} rebuilds={} drc_checks={}",
            self.rule_queries, self.objects_placed, self.rebuilds, self.drc_checks
        )?;
        if self.shapes_generated > 0 {
            write!(f, " shapes_generated={}", self.shapes_generated)?;
        }
        if self.opt_explored + self.opt_pruned + self.opt_dominated > 0 {
            write!(
                f,
                " opt_explored={} opt_pruned={} opt_dominated={}",
                self.opt_explored, self.opt_pruned, self.opt_dominated
            )?;
        }
        if self.opt_panics > 0 {
            write!(f, " opt_panics={}", self.opt_panics)?;
        }
        if self.faults_injected > 0 {
            write!(f, " faults_injected={}", self.faults_injected)?;
        }
        if self.cache_hits + self.cache_misses + self.cache_evicted > 0 {
            write!(
                f,
                " cache_hits={} cache_misses={}",
                self.cache_hits, self.cache_misses
            )?;
            if self.cache_evicted > 0 {
                write!(f, " cache_evicted={}", self.cache_evicted)?;
            }
        }
        if self.admission_refused > 0 {
            write!(f, " admission_refused={}", self.admission_refused)?;
        }
        for stage in Stage::ALL {
            let ns = self.stage_nanos(stage);
            if ns > 0 {
                write!(f, " {}={:.3}ms", stage.name(), ns as f64 / 1e6)?;
            }
        }
        Ok(())
    }
}

/// The shared generation context: compiled rules + options + metrics.
///
/// Clone freely — both heavy members sit behind [`Arc`]s, so a clone is
/// two reference-count bumps. Rule queries go straight through
/// [`Deref`] to the [`RuleSet`] kernel.
#[derive(Debug, Clone)]
pub struct GenCtx {
    /// The compiled, immutable design-rule kernel.
    pub rules: Arc<RuleSet>,
    /// Run-wide options.
    pub options: GenOptions,
    /// Shared counters.
    pub metrics: Arc<Metrics>,
    /// Shared structured-event sink (disabled until
    /// [`with_tracing`](GenCtx::with_tracing) / `trace.set_enabled`).
    pub trace: Arc<TraceSink>,
    /// Shared resource budget, wall deadline and cancellation flag
    /// (unlimited by default; armed with [`GenCtx::with_budget`]).
    pub limits: Arc<Limits>,
    /// Optional fault-injection hook — `None` in production (one branch
    /// per probed site); installed by chaos tests via
    /// [`GenCtx::with_faults`].
    pub faults: Option<Arc<dyn FaultHook>>,
    /// Optional content-addressed generation cache — `None` by default
    /// (every build runs fresh); enabled with [`GenCtx::with_cache`] /
    /// [`GenCtx::with_default_cache`]. Automatically bypassed while a
    /// fault hook is installed so chaos tests observe every probe.
    pub cache: Option<Arc<GenCache>>,
}

impl GenCtx {
    /// Wraps an already-compiled kernel.
    pub fn new(rules: Arc<RuleSet>) -> GenCtx {
        GenCtx {
            rules,
            options: GenOptions::default(),
            metrics: Arc::new(Metrics::new()),
            trace: Arc::new(TraceSink::new()),
            limits: Arc::new(Limits::default()),
            faults: None,
            cache: None,
        }
    }

    /// Wraps a shared copy of `tech`'s rule kernel
    /// ([`RuleSet::compile_arc`]); the copy's query counter starts off.
    pub fn from_tech(tech: &Tech) -> GenCtx {
        GenCtx::new(tech.compile_arc())
    }

    /// Applies options (enabling the kernel's query counter when asked).
    #[must_use]
    pub fn with_options(mut self, options: GenOptions) -> GenCtx {
        self.options = options;
        self.rules.set_query_counting(options.count_rule_queries);
        self
    }

    /// Switches structured-event tracing on (or off) for this context
    /// and every clone sharing its sink.
    ///
    /// ```
    /// use amgen_core::{GenCtx, Stage};
    /// use amgen_tech::Tech;
    ///
    /// let ctx = GenCtx::from_tech(&Tech::bicmos_1u()).with_tracing(true);
    /// {
    ///     let mut span = ctx.span(Stage::Compact, || "step:row");
    ///     span.arg("shrunk_edges", 2i64);
    /// }
    /// let trace = ctx.trace.drain();
    /// assert_eq!(trace.events.len(), 2); // begin + end
    /// assert_eq!(trace.events[0].cat, "compact");
    /// ```
    #[must_use]
    pub fn with_tracing(self, on: bool) -> GenCtx {
        self.trace.set_enabled(on);
        self
    }

    /// Like [`with_tracing`](GenCtx::with_tracing) but with an explicit
    /// recording depth — [`Detail::Fine`] adds per-primitive-call and
    /// per-search-node events on top of the stage-level spans.
    #[must_use]
    pub fn with_tracing_at(self, detail: Detail) -> GenCtx {
        self.trace.set_detail(detail);
        self
    }

    /// Enters `stage`: the returned guard charges the wall time until it
    /// drops to the stage's metrics bucket, on every exit, and records a
    /// span named by `name` while tracing is on (the name closure runs
    /// only then).
    ///
    /// ```
    /// use amgen_core::{GenCtx, Stage};
    /// use amgen_tech::Tech;
    ///
    /// let ctx = GenCtx::from_tech(&Tech::bicmos_1u());
    /// let fails = || -> Result<(), String> {
    ///     let _stage = ctx.stage(Stage::Route, || "straight");
    ///     Err("not a conductor".into())
    /// };
    /// assert!(fails().is_err());
    /// assert!(ctx.snapshot().stage_nanos(Stage::Route) > 0); // charged on the error exit
    /// ```
    #[inline]
    pub fn stage<N, F>(&self, stage: Stage, name: F) -> StageGuard<'_>
    where
        N: Into<amgen_trace::Name>,
        F: FnOnce() -> N,
    {
        StageGuard {
            metrics: &self.metrics,
            stage,
            start: Instant::now(),
            span: self.span(stage, name),
        }
    }

    /// Like [`stage`](GenCtx::stage), but the span is recorded only at
    /// [`Detail::Fine`] — for entries frequent enough that recording
    /// them rivals the work itself (one primitive call, one compaction
    /// step). The stage time is charged at every detail level.
    #[inline]
    pub fn stage_fine<N, F>(&self, stage: Stage, name: F) -> StageGuard<'_>
    where
        N: Into<amgen_trace::Name>,
        F: FnOnce() -> N,
    {
        StageGuard {
            metrics: &self.metrics,
            stage,
            start: Instant::now(),
            span: self.span_fine(stage, name),
        }
    }

    /// Opens a trace span charged to `stage` (the stage name becomes the
    /// event category). The name closure runs only when tracing is on,
    /// so formatted names are free on the disabled path.
    #[inline]
    pub fn span<N, F>(&self, stage: Stage, name: F) -> Span<'_>
    where
        N: Into<amgen_trace::Name>,
        F: FnOnce() -> N,
    {
        self.trace.span(stage.name(), name)
    }

    /// Records a point event charged to `stage`.
    #[inline]
    pub fn trace_instant<N, F>(&self, stage: Stage, name: F)
    where
        N: Into<amgen_trace::Name>,
        F: FnOnce() -> N,
    {
        self.trace.instant(stage.name(), name)
    }

    /// Opens a span recorded only at [`Detail::Fine`] — for interior
    /// events frequent enough that recording them rivals the traced
    /// work itself (one primitive call, one optimizer node).
    #[inline]
    pub fn span_fine<N, F>(&self, stage: Stage, name: F) -> Span<'_>
    where
        N: Into<amgen_trace::Name>,
        F: FnOnce() -> N,
    {
        self.trace.span_fine(stage.name(), name)
    }

    /// Records a point event only at [`Detail::Fine`].
    #[inline]
    pub fn trace_instant_fine<N, F>(&self, stage: Stage, name: F)
    where
        N: Into<amgen_trace::Name>,
        F: FnOnce() -> N,
    {
        self.trace.instant_fine(stage.name(), name)
    }

    /// Arms a resource [`Budget`] for this context and every clone made
    /// from it. The wall deadline (if any) starts counting immediately;
    /// a fresh [`CancelToken`] is created — fetch it with
    /// [`cancel_token`](GenCtx::cancel_token) *after* this call.
    ///
    /// ```
    /// use amgen_core::{Budget, GenCtx, Resource, Stage};
    /// use amgen_tech::Tech;
    ///
    /// let ctx = GenCtx::from_tech(&Tech::bicmos_1u())
    ///     .with_budget(Budget::unlimited().with_dsl_fuel(10));
    /// assert!(ctx.charge_fuel(10, Stage::Dsl).is_ok());
    /// let e = ctx.charge_fuel(1, Stage::Dsl).unwrap_err();
    /// assert!(e.is_budget_exhausted());
    /// ```
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> GenCtx {
        self.limits = Arc::new(budget.arm());
        self
    }

    /// Installs a fault-injection hook (chaos testing; see the
    /// `amgen-faults` crate). Production contexts leave this `None` and
    /// pay one branch per probed site.
    #[must_use]
    pub fn with_faults(mut self, hook: Arc<dyn FaultHook>) -> GenCtx {
        self.faults = Some(hook);
        self
    }

    /// Removes any installed fault hook.
    #[must_use]
    pub fn without_faults(mut self) -> GenCtx {
        self.faults = None;
        self
    }

    /// Shares a content-addressed [`GenCache`] with this context and
    /// every clone made from it: repeated builds of the same module
    /// (same entity, canonical parameters, technology and source) are
    /// served from the cache instead of re-running the pipeline.
    ///
    /// ```
    /// use amgen_core::{GenCache, GenCtx};
    /// use amgen_tech::Tech;
    /// use std::sync::Arc;
    ///
    /// let cache = Arc::new(GenCache::new());
    /// let ctx = GenCtx::from_tech(&Tech::bicmos_1u()).with_cache(Arc::clone(&cache));
    /// assert!(ctx.cache_active());
    /// ```
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<GenCache>) -> GenCtx {
        self.cache = Some(cache);
        self
    }

    /// Enables caching with a fresh, default-capacity [`GenCache`].
    #[must_use]
    pub fn with_default_cache(self) -> GenCtx {
        self.with_cache(Arc::new(GenCache::new()))
    }

    /// Removes the generation cache (builds run fresh again).
    #[must_use]
    pub fn without_cache(mut self) -> GenCtx {
        self.cache = None;
        self
    }

    /// True when cached generation is in effect: a cache is installed
    /// *and* no fault hook is — injected faults must fire on every
    /// probed build, so a chaos context never serves (or stores)
    /// memoized results.
    #[inline]
    pub fn cache_active(&self) -> bool {
        self.cache.is_some() && self.faults.is_none()
    }

    /// Looks up a memoized module, counting the hit/miss in
    /// [`Metrics`] and emitting a Coarse-tier `cache.hit` /
    /// `cache.miss` trace instant charged to `stage`. Returns `None`
    /// (with no accounting) when caching is inactive.
    pub fn cache_get(&self, stage: Stage, key: &GenKey) -> Option<Arc<CachedModule>> {
        if !self.cache_active() {
            return None;
        }
        let cache = self.cache.as_ref().unwrap();
        match cache.get(key) {
            Some(hit) => {
                self.metrics.add_cache_hit();
                self.trace_instant(stage, || "cache.hit");
                Some(hit)
            }
            None => {
                self.metrics.add_cache_miss();
                self.trace_instant(stage, || "cache.miss");
                None
            }
        }
    }

    /// Stores a successfully built module, counting evictions. No-op
    /// when caching is inactive.
    pub fn cache_put(&self, key: GenKey, value: Arc<CachedModule>) {
        if !self.cache_active() {
            return;
        }
        let evicted = self.cache.as_ref().unwrap().put(key, value);
        if evicted > 0 {
            self.metrics.add_cache_evicted(evicted);
        }
    }

    /// Looks up a precomputed optimizer variant table (same accounting
    /// as [`cache_get`](GenCtx::cache_get)).
    pub fn cache_variants_get(&self, stage: Stage, key: &GenKey) -> Option<Arc<VariantTable>> {
        if !self.cache_active() {
            return None;
        }
        let cache = self.cache.as_ref().unwrap();
        match cache.variants_get(key) {
            Some(hit) => {
                self.metrics.add_cache_hit();
                self.trace_instant(stage, || "cache.hit");
                Some(hit)
            }
            None => {
                self.metrics.add_cache_miss();
                self.trace_instant(stage, || "cache.miss");
                None
            }
        }
    }

    /// Stores an optimizer variant table. No-op when caching is
    /// inactive.
    pub fn cache_variants_put(&self, key: GenKey, value: Arc<VariantTable>) {
        if !self.cache_active() {
            return;
        }
        let evicted = self.cache.as_ref().unwrap().variants_put(key, value);
        if evicted > 0 {
            self.metrics.add_cache_evicted(evicted);
        }
    }

    /// Runs `build` through the cache: a hit returns the stored module
    /// (after a cancellation/deadline checkpoint, so cached serving
    /// still honours the run's limits); a miss builds, stores on
    /// success, and never stores errors — budget-exhausted, cancelled
    /// or faulted builds always re-run.
    ///
    /// `key = None` (caching inactive, or a non-canonicalizable
    /// parameter) falls straight through to `build` with no accounting.
    /// On a hit the stored module is cloned out, and none of the
    /// build's interior per-stage metrics recur — only the
    /// `cache_hits` counter moves.
    pub fn generate_cached_full<E: From<GenError>>(
        &self,
        stage: Stage,
        key: Option<GenKey>,
        build: impl FnOnce() -> Result<CachedModule, E>,
    ) -> Result<CachedModule, E> {
        let Some(key) = key else {
            return build();
        };
        self.checkpoint(stage)?;
        if let Some(hit) = self.cache_get(stage, &key) {
            return Ok((*hit).clone());
        }
        let built = build()?;
        self.cache_put(key, Arc::new(built.clone()));
        Ok(built)
    }

    /// Layout-only convenience over
    /// [`generate_cached_full`](GenCtx::generate_cached_full).
    pub fn generate_cached<E: From<GenError>>(
        &self,
        stage: Stage,
        key: Option<GenKey>,
        build: impl FnOnce() -> Result<amgen_db::LayoutObject, E>,
    ) -> Result<amgen_db::LayoutObject, E> {
        self.generate_cached_full(stage, key, || build().map(CachedModule::layout))
            .map(|m| m.layout)
    }

    /// A clone of the run's cancellation token: hand it to a supervisor
    /// thread and call [`CancelToken::cancel`] to stop the run at the
    /// next checkpoint of any stage.
    pub fn cancel_token(&self) -> CancelToken {
        self.limits.cancel_token()
    }

    /// Charges interpreter fuel (and observes cancellation/deadline).
    #[inline]
    pub fn charge_fuel(&self, n: u64, stage: Stage) -> Result<(), GenError> {
        self.limits.charge_fuel(n, stage)
    }

    /// Charges one compaction step (and observes cancellation/deadline).
    #[inline]
    pub fn charge_compact_step(&self) -> Result<(), GenError> {
        self.limits.charge_compact_step()
    }

    /// Cancellation + deadline probe for stages without a metered
    /// resource of their own.
    #[inline]
    pub fn checkpoint(&self, stage: Stage) -> Result<(), GenError> {
        self.limits.checkpoint(stage)
    }

    /// Probes the fault hook at `site`. `Ok(())` with no installed hook
    /// (the production fast path — one branch); a firing hook returns a
    /// typed [`GenErrorKind::Fault`] or panics (for
    /// [`FaultAction::Panic`] plans exercising isolation), and is
    /// counted in [`Metrics`] and the trace.
    #[inline]
    pub fn fault_check(&self, site: FaultSite, detail: &str) -> Result<(), GenError> {
        let Some(hook) = &self.faults else {
            return Ok(());
        };
        self.fault_check_slow(hook.clone(), site, detail)
    }

    #[cold]
    fn fault_check_slow(
        &self,
        hook: Arc<dyn FaultHook>,
        site: FaultSite,
        detail: &str,
    ) -> Result<(), GenError> {
        match hook.decide(site, detail) {
            FaultAction::Proceed => Ok(()),
            FaultAction::Fail => {
                self.metrics.add_fault_injected();
                self.trace_instant(site.stage(), || name!("fault:{}", site.name()));
                Err(GenError::fault(site.stage(), site, detail))
            }
            FaultAction::Panic => {
                self.metrics.add_fault_injected();
                self.trace_instant(site.stage(), || name!("fault_panic:{}", site.name()));
                panic!("injected fault panic at {} ({detail})", site.name());
            }
        }
    }

    /// Reads all counters into a report-ready snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        snap.rule_queries = self.rules.rule_queries();
        snap
    }

    /// The combined run report: the recorded trace rendered as the
    /// hierarchical text report (per-stage self/total time, hottest
    /// entities, instant counters), followed by the [`MetricsSnapshot`]
    /// counter line — both read from this context, so the numbers come
    /// from one source of truth. Does not clear the trace buffers.
    pub fn run_report(&self) -> String {
        let mut out = self.trace.snapshot_events().report(10);
        out.push_str(&format!("\nmetrics: {}\n", self.snapshot()));
        out
    }
}

impl Deref for GenCtx {
    type Target = RuleSet;

    #[inline]
    fn deref(&self) -> &RuleSet {
        &self.rules
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_rules_and_metrics() {
        let ctx = GenCtx::from_tech(&Tech::bicmos_1u());
        let clone = ctx.clone();
        assert!(Arc::ptr_eq(&ctx.rules, &clone.rules));
        assert!(Arc::ptr_eq(&ctx.metrics, &clone.metrics));
        clone.metrics.add_rebuild();
        assert_eq!(ctx.snapshot().rebuilds, 1);
    }

    #[test]
    fn deref_reaches_the_kernel() {
        let tech = Tech::bicmos_1u();
        let ctx = GenCtx::from_tech(&tech);
        let poly = ctx.layer("poly").unwrap();
        assert_eq!(ctx.min_width(poly), tech.min_width(poly));
        assert_eq!(ctx.grid(), tech.grid());
    }

    #[test]
    fn query_counting_flows_into_snapshots() {
        let ctx = GenCtx::from_tech(&Tech::bicmos_1u()).with_options(GenOptions {
            count_rule_queries: true,
        });
        let poly = ctx.poly().unwrap();
        let _ = ctx.min_width(poly);
        let _ = ctx.clearance(poly, poly);
        assert_eq!(ctx.snapshot().rule_queries, 2);
    }

    #[test]
    fn stage_timing_accumulates() {
        let ctx = GenCtx::from_tech(&Tech::bicmos_1u());
        drop(ctx.stage(Stage::Compact, || "step"));
        ctx.metrics.add_stage_nanos(Stage::Compact, 1);
        let snap = ctx.snapshot();
        assert!(snap.stage_nanos(Stage::Compact) >= 1);
        assert_eq!(snap.stage_nanos(Stage::Route), 0);
        let line = snap.to_string();
        assert!(line.contains("compact="), "{line}");
    }

    #[test]
    fn stage_guard_charges_every_exit() {
        let ctx = GenCtx::from_tech(&Tech::bicmos_1u());
        let early = |fail: bool| -> Result<u32, &'static str> {
            let _stage = ctx.stage(Stage::Route, || "straight");
            std::thread::sleep(std::time::Duration::from_millis(1));
            if fail {
                return Err("not a conductor");
            }
            Ok(1)
        };
        assert!(early(true).is_err());
        let after_error = ctx.snapshot().stage_nanos(Stage::Route);
        assert!(after_error >= 1_000_000, "{after_error}");
        assert_eq!(early(false), Ok(1));
        assert!(ctx.snapshot().stage_nanos(Stage::Route) >= after_error + 1_000_000);
    }

    #[test]
    fn stage_guard_spans_follow_the_trace_detail() {
        let ctx = GenCtx::from_tech(&Tech::bicmos_1u());
        {
            let mut quiet = ctx.stage(Stage::Prim, || "inbox");
            assert!(!quiet.is_recording());
            quiet.arg("ignored", 1u64);
        }
        assert!(ctx.trace.drain().events.is_empty());
        let ctx = ctx.with_tracing(true);
        {
            let mut coarse = ctx.stage(Stage::Drc, || "check");
            assert!(coarse.is_recording());
            coarse.arg("violations", 0u64);
            let fine = ctx.stage_fine(Stage::Prim, || "inbox");
            assert!(!fine.is_recording(), "Fine spans wait for Detail::Fine");
        }
        let names: Vec<_> = ctx
            .trace
            .drain()
            .events
            .iter()
            .map(|e| (e.cat, e.name.as_str().to_string()))
            .collect();
        assert_eq!(names, [("drc", "check".into()), ("drc", String::new())]);
        let ctx = ctx.with_tracing_at(Detail::Fine);
        drop(ctx.stage_fine(Stage::Prim, || "inbox"));
        assert_eq!(ctx.trace.drain().events.len(), 2);
        assert!(ctx.snapshot().stage_nanos(Stage::Prim) > 0);
    }

    #[test]
    fn tracing_is_shared_and_reported() {
        let ctx = GenCtx::from_tech(&Tech::bicmos_1u()).with_tracing(true);
        let clone = ctx.clone();
        assert!(Arc::ptr_eq(&ctx.trace, &clone.trace));
        {
            let mut span = clone.span(Stage::Opt, || "expand");
            span.arg("node", 4u64);
        }
        ctx.trace_instant(Stage::Opt, || "prune");
        ctx.metrics.add_opt_pruned(1);
        let report = ctx.run_report();
        assert!(report.contains("opt:expand"), "{report}");
        assert!(report.contains("opt:prune"), "{report}");
        assert!(report.contains("opt_pruned=1"), "{report}");
        // run_report is non-destructive; the drain empties the buffers.
        assert_eq!(ctx.trace.drain().events.len(), 3);
        assert!(ctx.trace.drain().events.is_empty());
    }

    #[test]
    fn absorb_folds_request_deltas_into_an_aggregate() {
        let request = Metrics::new();
        request.add_cache_hit();
        request.add_cache_miss();
        request.add_admission_refused();
        request.add_objects_placed(3);
        request.add_stage_nanos(Stage::Dsl, 42);
        let tenant = Metrics::new();
        tenant.absorb(&request.snapshot());
        tenant.absorb(&request.snapshot());
        let snap = tenant.snapshot();
        assert_eq!(snap.cache_hits, 2);
        assert_eq!(snap.cache_misses, 2);
        assert_eq!(snap.admission_refused, 2);
        assert_eq!(snap.objects_placed, 6);
        assert_eq!(snap.stage_nanos(Stage::Dsl), 84);
    }

    #[test]
    fn stats_line_is_self_describing() {
        // The serving daemon prints one MetricsSnapshot per tenant; the
        // cache and admission counters must be visible in that line.
        let m = Metrics::new();
        m.add_cache_hit();
        m.add_cache_miss();
        m.add_admission_refused();
        let line = m.snapshot().to_string();
        assert!(line.contains("cache_hits=1"), "{line}");
        assert!(line.contains("cache_misses=1"), "{line}");
        assert!(line.contains("admission_refused=1"), "{line}");
        // Quiet counters stay out of the line.
        assert!(!line.contains("cache_evicted"), "{line}");
        assert!(!Metrics::new().snapshot().to_string().contains("cache_"));
    }
}
