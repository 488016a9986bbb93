//! The server: a sharded worker pool behind a TCP accept loop (or a
//! single-shot stdin/stdout runner), with per-tenant accounting and
//! admission-gated execution.
//!
//! # Life of a request
//!
//! 1. A connection thread reads one frame, parses and validates the
//!    request (framing or schema failures answer immediately with a
//!    `protocol`-phase error).
//! 2. The request is dispatched to a worker shard chosen by tenant
//!    hash — one tenant's requests serialize on one shard, so a noisy
//!    tenant contends with itself first. The shard queue is *bounded*:
//!    a full queue answers `OVERLOADED` immediately instead of queueing
//!    without limit, and a request that waited past its wall deadline
//!    is shed on dequeue without executing.
//! 3. The worker builds a fresh per-request [`GenCtx`] (fresh metrics,
//!    clamped budget, the process-wide [`GenCache`], the per-tech
//!    compiled [`RuleSet`]) and runs the program through
//!    `amgen_lint::checked_run_full` — lint errors and certified-over-
//!    budget programs are refused at admission with zero fuel spent.
//! 4. The response carries the layouts (or a typed staged error), the
//!    diagnostics, and a `stats` section; the request's metrics deltas
//!    fold into the tenant's long-lived aggregate.

use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use amgen_core::{Budget, CancelToken, GenCache, GenCtx, Metrics};
use amgen_dsl::ast::Entity;
use amgen_dsl::parser::parse;
use amgen_dsl::{DslError, Interpreter};
use amgen_lint::{checked_run_full, CheckError};
use amgen_tech::{RuleSet, Tech};

use crate::json::Json;
use crate::proto::{
    diagnostics_json, gen_error_detail, layout_json, parse_request, read_frame, stats_json,
    write_frame, ErrorCode, FrameError, Request, Response,
};

/// Server tuning knobs. [`ServeConfig::default`] is sized for tests and
/// small deployments; the binary exposes each as a flag.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker shards. One tenant always lands on one shard.
    pub workers: usize,
    /// Bounded depth of each shard queue; a full queue sheds.
    pub queue_depth: usize,
    /// Largest accepted request frame, bytes.
    pub max_frame: usize,
    /// The per-tenant budget *cap*: requests may tighten these knobs,
    /// never widen them.
    pub tenant_budget: Budget,
    /// Cap on the per-request wall deadline; also the shed horizon for
    /// queued requests.
    pub wall_cap: Duration,
    /// Capacity of the process-wide generation cache (modules).
    pub cache_capacity: usize,
    /// Most distinct tenants tracked individually. The tenant name is
    /// client-chosen and unauthenticated, so the accounting map must be
    /// bounded: once full, requests from new tenant names fold into one
    /// shared overflow aggregate instead of growing the map.
    pub max_tenants: usize,
    /// How long a draining server keeps executing already-queued jobs
    /// after [`Server::begin_shutdown`]; jobs still queued past this
    /// deadline are answered `SHUTTING_DOWN` instead of executed.
    pub drain: Duration,
    /// A worker busy on one job longer than this gets its run
    /// cancelled (typed `CANCELLED` at the next checkpoint); past
    /// *twice* this, the worker is abandoned and its shard respawned.
    pub watchdog: Duration,
    /// Outcomes remembered per tenant for the circuit breaker.
    pub breaker_window: usize,
    /// The breaker trips when at least this percentage of a full
    /// window is refusals (lint/admission) or panics.
    pub breaker_threshold_pct: u32,
    /// How long a tripped breaker fast-refuses before admitting one
    /// probe request; also the `retry_after_ms` hint on `CIRCUIT_OPEN`.
    pub breaker_cooldown: Duration,
    /// The `retry_after_ms` hint on `OVERLOADED`/`SHUTTING_DOWN`
    /// responses. A config constant on purpose: the error object is
    /// part of the deterministic payload, so the hint must not depend
    /// on queue state or clocks.
    pub retry_hint: Duration,
    /// Warm-restart image of the generation cache: restored (best
    /// effort, never trusted) at startup, written at clean shutdown.
    pub cache_snapshot: Option<PathBuf>,
    /// Test-only hook deciding a fate per dequeued job — how the chaos
    /// harness kills or wedges workers deterministically. `None` in
    /// production.
    pub worker_chaos: Option<Arc<dyn WorkerChaos>>,
}

/// Test-only chaos hook: decides what happens to a worker right after
/// it dequeues a job (before the panic barrier, so a `Kill` genuinely
/// kills the thread). Implementations should be deterministic — the
/// chaos harness drives one from a seeded `amgen-faults` plan.
pub trait WorkerChaos: Send + Sync + std::fmt::Debug {
    /// Fate of the `seq`-th job (1-based) dequeued on `shard`.
    fn fate(&self, shard: usize, seq: u64) -> WorkerFate;
}

/// What [`WorkerChaos::fate`] can do to a worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerFate {
    /// Process the job normally.
    Run,
    /// Panic outside the isolation barrier — the worker thread dies
    /// with the job in hand (its client gets `WORKER_PANIC` via the
    /// dropped reply channel) and the supervisor must respawn.
    Kill,
    /// Sleep this long before processing — a wedged worker the
    /// watchdog must notice. The job is still answered afterwards.
    Wedge(Duration),
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_depth: 64,
            max_frame: 1 << 20,
            // Generous enough for every embedded figure workload
            // (their certificates are in the hundreds-to-thousands),
            // tight enough that the hostile corpus's bombs (certified
            // fuel >= 60k) are refused at admission.
            tenant_budget: Budget::unlimited()
                .with_dsl_fuel(50_000)
                .with_max_compact_steps(200_000),
            wall_cap: Duration::from_secs(5),
            cache_capacity: 256,
            max_tenants: 64,
            drain: Duration::from_secs(2),
            watchdog: Duration::from_secs(10),
            breaker_window: 16,
            breaker_threshold_pct: 80,
            breaker_cooldown: Duration::from_secs(1),
            retry_hint: Duration::from_millis(50),
            cache_snapshot: None,
            worker_chaos: None,
        }
    }
}

/// Per-tenant circuit breaker over a sliding window of outcomes.
///
/// "Bad" outcomes are refusals the tenant *caused* — lint rejections,
/// certified-over-budget admissions, worker panics. `OVERLOADED` is
/// deliberately not bad: shedding is the server's state, not the
/// tenant's fault, and a breaker that tripped on overload would turn
/// one load spike into a refusal storm.
struct Breaker {
    window: VecDeque<bool>,
    bad: usize,
    state: BreakerState,
}

#[derive(Clone, Copy, PartialEq)]
enum BreakerState {
    Closed,
    Open {
        until: Instant,
    },
    /// Cooldown elapsed; the next outcome decides (good → close,
    /// bad → re-open).
    HalfOpen,
}

impl Breaker {
    fn new() -> Breaker {
        Breaker {
            window: VecDeque::new(),
            bad: 0,
            state: BreakerState::Closed,
        }
    }

    /// True when a request from this tenant may proceed.
    fn admit(&mut self, now: Instant) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open { until } => {
                if now >= until {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    fn record(&mut self, bad: bool, now: Instant, config: &ServeConfig) {
        let window = config.breaker_window.max(1);
        match self.state {
            BreakerState::HalfOpen => {
                // The probe's outcome decides; either way the window
                // restarts so stale history can't re-trip instantly.
                self.window.clear();
                self.bad = 0;
                self.state = if bad {
                    BreakerState::Open {
                        until: now + config.breaker_cooldown,
                    }
                } else {
                    BreakerState::Closed
                };
            }
            // In-flight stragglers finishing after the trip don't
            // extend or shorten the cooldown.
            BreakerState::Open { .. } => {}
            BreakerState::Closed => {
                self.window.push_back(bad);
                if bad {
                    self.bad += 1;
                }
                while self.window.len() > window {
                    if self.window.pop_front() == Some(true) {
                        self.bad -= 1;
                    }
                }
                let full = self.window.len() >= window;
                if full
                    && (self.bad as u64) * 100
                        >= u64::from(config.breaker_threshold_pct) * self.window.len() as u64
                {
                    self.window.clear();
                    self.bad = 0;
                    self.state = BreakerState::Open {
                        until: now + config.breaker_cooldown,
                    };
                }
            }
        }
    }
}

/// FNV-1a: the shard picker. Stable across runs so a tenant's shard
/// assignment is deterministic.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

struct Job {
    req: Box<Request>,
    enqueued: Instant,
    wall: Duration,
    reply: SyncSender<Response>,
}

/// One worker shard. The receiver lives *here*, behind a mutex, not
/// inside the worker thread: when a worker dies or is abandoned, its
/// replacement locks the same receiver and the queued jobs survive the
/// handover — no accepted request rides a dead thread down.
struct Shard {
    tx: SyncSender<Job>,
    queue: Mutex<Receiver<Job>>,
    /// Bumped to abandon the current worker: a worker observing a
    /// generation other than its own exits at the next loop turn.
    generation: AtomicU64,
    /// Jobs dequeued on this shard so far (1-based in fate calls) —
    /// the deterministic index the chaos hook keys on.
    seq: AtomicU64,
}

/// Watchdog-visible state of one worker thread.
struct WorkerState {
    /// When the current job started, `None` while idle.
    busy_since: Mutex<Option<Instant>>,
    /// The current run's cancellation token, registered by `process`
    /// once the request context exists.
    cancel: Mutex<Option<CancelToken>>,
}

impl WorkerState {
    fn new() -> Arc<WorkerState> {
        Arc::new(WorkerState {
            busy_since: Mutex::new(None),
            cancel: Mutex::new(None),
        })
    }
}

/// Per-tenant serving state: the metrics aggregate plus the breaker.
/// Overflow tenants share one metrics bucket and get *no* breaker —
/// unrelated clients folded into one window must not trip each other.
struct TenantState {
    metrics: Arc<Metrics>,
    breaker: Mutex<Breaker>,
}

/// State shared by the accept loop, connection threads and workers.
struct Shared {
    config: ServeConfig,
    /// The process-wide content-addressed generation cache; every
    /// request's context shares it.
    cache: Arc<GenCache>,
    /// The embedded module library, parsed once. Entities are *unbound*
    /// (see `Interpreter::load_entities`) and cloned into each
    /// per-request interpreter.
    stdlib: Vec<Entity>,
    /// The library's content hash — the staleness gate of cache
    /// snapshots (computed once; identical in every per-request
    /// interpreter because the hash covers the pretty-printed library,
    /// not process state).
    stdlib_hash: u64,
    /// Per-`tech` compiled rule kernels, built on first use.
    rulesets: Mutex<BTreeMap<String, Arc<RuleSet>>>,
    /// Per-tenant serving state; each request's deltas fold in.
    /// Bounded at `max_tenants` entries — see [`ServeConfig::max_tenants`].
    tenants: Mutex<BTreeMap<String, Arc<TenantState>>>,
    /// The shared aggregate for tenant names beyond `max_tenants`.
    overflow_tenants: Arc<Metrics>,
    /// Requests accounted to the overflow aggregate.
    overflow_requests: AtomicU64,
    shards: Vec<Shard>,
    served: AtomicU64,
    shed: AtomicU64,
    protocol_errors: AtomicU64,
    respawns: AtomicU64,
    worker_panics: AtomicU64,
    watchdog_cancels: AtomicU64,
    breaker_refused: AtomicU64,
    client_disconnects: AtomicU64,
    stop: AtomicBool,
    supervisor_stop: AtomicBool,
    /// Set by `begin_shutdown`: queued jobs execute until this instant,
    /// then drain as typed `SHUTTING_DOWN` answers.
    drain_until: Mutex<Option<Instant>>,
}

impl Shared {
    fn new(config: ServeConfig, shards: Vec<Shard>) -> Shared {
        let cache = Arc::new(GenCache::with_capacity(config.cache_capacity));
        let stdlib = stdlib_entities();
        // Compute the library hash the way every per-request
        // interpreter will: load the entities and read it back. The
        // kernel used for binding does not affect the hash, but one is
        // needed to construct the interpreter — seed the ruleset map
        // with it so the compile isn't wasted.
        let rules = Tech::bicmos_1u().compile_arc();
        let mut probe = Interpreter::new(GenCtx::new(Arc::clone(&rules)));
        probe.load_entities(stdlib.iter().cloned());
        let stdlib_hash = probe.lib_hash();
        let mut rulesets = BTreeMap::new();
        rulesets.insert("bicmos_1u".to_string(), rules);
        Shared {
            config,
            cache,
            stdlib,
            stdlib_hash,
            rulesets: Mutex::new(rulesets),
            tenants: Mutex::new(BTreeMap::new()),
            overflow_tenants: Arc::new(Metrics::new()),
            overflow_requests: AtomicU64::new(0),
            shards,
            served: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            watchdog_cancels: AtomicU64::new(0),
            breaker_refused: AtomicU64::new(0),
            client_disconnects: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            supervisor_stop: AtomicBool::new(false),
            drain_until: Mutex::new(None),
        }
    }

    /// True once the drain deadline set by `begin_shutdown` has passed.
    fn drain_expired(&self) -> bool {
        match *self.drain_until.lock().expect("drain lock") {
            Some(t) => Instant::now() >= t,
            None => false,
        }
    }

    /// The compiled kernel for a technology id, or `None` for an
    /// unknown one. Kernels compile once and are shared by every
    /// request for that technology.
    fn ruleset(&self, tech: &str) -> Option<Arc<RuleSet>> {
        let mut map = self.rulesets.lock().expect("ruleset lock");
        if let Some(r) = map.get(tech) {
            return Some(Arc::clone(r));
        }
        let compiled = match tech {
            "bicmos_1u" => Tech::bicmos_1u().compile_arc(),
            "cmos_08" => Tech::cmos_08().compile_arc(),
            _ => return None,
        };
        map.insert(tech.to_string(), Arc::clone(&compiled));
        Some(compiled)
    }

    /// The tracked state of a tenant, or `None` for an overflow tenant
    /// (map full and this name not in it). Tenant names are
    /// client-chosen and unauthenticated, so the map is bounded — a
    /// client cycling names cannot grow the daemon's memory.
    fn tenant_state(&self, tenant: &str) -> Option<Arc<TenantState>> {
        let mut map = self.tenants.lock().expect("tenant lock");
        if let Some(t) = map.get(tenant) {
            return Some(Arc::clone(t));
        }
        if map.len() >= self.config.max_tenants.max(1) {
            return None;
        }
        let t = Arc::new(TenantState {
            metrics: Arc::new(Metrics::new()),
            breaker: Mutex::new(Breaker::new()),
        });
        map.insert(tenant.to_string(), Arc::clone(&t));
        Some(t)
    }

    /// The aggregate a request's metrics fold into: the tenant's own
    /// block, or the shared overflow bucket past `max_tenants`.
    fn tenant_metrics(&self, tenant: &str) -> Arc<Metrics> {
        match self.tenant_state(tenant) {
            Some(t) => Arc::clone(&t.metrics),
            None => {
                self.overflow_requests.fetch_add(1, Ordering::Relaxed);
                Arc::clone(&self.overflow_tenants)
            }
        }
    }

    /// Breaker gate, called before any admission work is spent. `None`
    /// admits; `Some` is the fast refusal to send. Overflow tenants are
    /// never gated (no individual window exists for them).
    fn breaker_check(&self, tenant: &str, id: &str) -> Option<Response> {
        let state = self.tenant_state(tenant)?;
        let admitted = state
            .breaker
            .lock()
            .expect("breaker lock")
            .admit(Instant::now());
        if admitted {
            return None;
        }
        self.breaker_refused.fetch_add(1, Ordering::Relaxed);
        Some(Response::error(
            id,
            ErrorCode::CircuitOpen,
            Json::obj([
                (
                    "message",
                    Json::from("circuit open: recent requests dominated by refusals"),
                ),
                (
                    "retry_after_ms",
                    Json::from(self.config.breaker_cooldown.as_millis() as u64),
                ),
            ]),
            Json::Arr(Vec::new()),
        ))
    }

    /// Feeds one finished outcome into the tenant's breaker window.
    fn breaker_record(&self, tenant: &str, response: &Response) {
        let bad = matches!(
            response.code(),
            Some(ErrorCode::LintRejected | ErrorCode::AdmissionRefused | ErrorCode::WorkerPanic)
        );
        if let Some(state) = self.tenant_state(tenant) {
            state
                .breaker
                .lock()
                .expect("breaker lock")
                .record(bad, Instant::now(), &self.config);
        }
    }

    /// The typed refusal of a draining server. The hint is a config
    /// constant, never remaining drain time — the error object is part
    /// of the deterministic payload.
    fn shutting_down_response(&self, id: &str) -> Response {
        Response::error(
            id,
            ErrorCode::ShuttingDown,
            Json::obj([
                ("message", Json::from("server is shutting down")),
                (
                    "retry_after_ms",
                    Json::from(self.config.retry_hint.as_millis() as u64),
                ),
            ]),
            Json::Arr(Vec::new()),
        )
    }

    fn overloaded_response(&self, id: &str, message: &str) -> Response {
        Response::error(
            id,
            ErrorCode::Overloaded,
            Json::obj([
                ("message", Json::from(message)),
                (
                    "retry_after_ms",
                    Json::from(self.config.retry_hint.as_millis() as u64),
                ),
            ]),
            Json::Arr(Vec::new()),
        )
    }

    /// Best-effort warm start: restore the cache snapshot if one is
    /// configured and present. Every rejection is logged and answered
    /// with a cold start — a snapshot is an optimization, never an
    /// input the server trusts.
    fn load_snapshot(&self) {
        let Some(path) = &self.config.cache_snapshot else {
            return;
        };
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return,
            Err(e) => {
                eprintln!(
                    "amgen-serve: cache snapshot {} unreadable ({e}); starting cold",
                    path.display()
                );
                return;
            }
        };
        match self
            .cache
            .restore(&bytes, self.stdlib_hash, |name| self.ruleset(name))
        {
            Ok(stats) => eprintln!(
                "amgen-serve: warm cache restored from {} ({} entries, {} skipped)",
                path.display(),
                stats.restored,
                stats.skipped
            ),
            Err(e) => eprintln!(
                "amgen-serve: cache snapshot {} discarded ({e}); starting cold",
                path.display()
            ),
        }
    }

    /// Writes the cache snapshot (temp file + rename, so a crash mid-
    /// write can't leave a torn image under the configured path).
    fn save_snapshot(&self) {
        let Some(path) = &self.config.cache_snapshot else {
            return;
        };
        let techs: Vec<(String, Arc<RuleSet>)> = {
            let map = self.rulesets.lock().expect("ruleset lock");
            map.iter()
                .map(|(n, r)| (n.clone(), Arc::clone(r)))
                .collect()
        };
        let pairs: Vec<(&str, Arc<RuleSet>)> = techs
            .iter()
            .map(|(n, r)| (n.as_str(), Arc::clone(r)))
            .collect();
        let image = self.cache.snapshot(self.stdlib_hash, &pairs);
        let tmp = path.with_extension("tmp");
        let written = std::fs::write(&tmp, &image).and_then(|()| std::fs::rename(&tmp, path));
        if let Err(e) = written {
            eprintln!(
                "amgen-serve: failed to write cache snapshot {} ({e})",
                path.display()
            );
        }
    }
}

/// Parses the embedded module library once. The sources are trusted
/// compile-time constants; a parse failure is a build defect.
fn stdlib_entities() -> Vec<Entity> {
    let mut out = Vec::new();
    for (_, lib) in amgen_dsl::stdlib::ALL {
        let prog = parse(lib).expect("embedded library parses");
        out.extend(prog.entities);
    }
    out
}

/// The effective budget of one request: each spec knob clamps to the
/// tenant cap — a client can tighten its budget, never widen it.
fn effective_budget(config: &ServeConfig, req: &Request) -> Budget {
    let cap = config.tenant_budget;
    let spec = &req.budget;
    Budget::unlimited()
        .with_dsl_fuel(spec.fuel.map_or(cap.dsl_fuel, |f| f.min(cap.dsl_fuel)))
        .with_max_recursion(
            spec.recursion
                .map_or(cap.max_recursion, |r| (r as usize).min(cap.max_recursion)),
        )
        .with_max_compact_steps(
            spec.compact_steps
                .map_or(cap.max_compact_steps, |s| s.min(cap.max_compact_steps)),
        )
        .with_wall(req.wall(config.wall_cap))
}

/// Executes one admitted request end to end and builds its response.
/// `watch` is the owning worker's watchdog slot: the run's cancel token
/// is registered there so a supervisor can stop a runaway run.
fn process(shared: &Shared, req: &Request, watch: Option<&WorkerState>) -> Response {
    let Some(rules) = shared.ruleset(&req.tech) else {
        return Response::error(
            &req.id,
            ErrorCode::UnknownTech,
            Json::obj([(
                "message",
                Json::from(format!("unknown technology `{}`", req.tech)),
            )]),
            Json::Arr(Vec::new()),
        );
    };

    let ctx = GenCtx::new(Arc::clone(&rules))
        .with_budget(effective_budget(&shared.config, req))
        .with_cache(Arc::clone(&shared.cache))
        .with_tracing(req.want_trace);
    if let Some(w) = watch {
        *w.cancel.lock().expect("cancel lock") = Some(ctx.cancel_token());
    }
    let mut interp = Interpreter::new(ctx);
    interp.load_entities(shared.stdlib.iter().cloned());

    let source = format!("{}{}", req.prelude(), req.source);
    let t0 = Instant::now();
    let (diags, result) = checked_run_full(&mut interp, &source);
    let wall = t0.elapsed();

    // Spans come out of the combined prelude + source; positions on the
    // wire are translated back to the client's own line numbers.
    let prelude_lines = req.prelude_lines();
    let diagnostics = diagnostics_json(&diags, prelude_lines);
    let mut response = match result {
        Ok(layouts) => {
            let mut objs = BTreeMap::new();
            for (name, obj) in &layouts {
                objs.insert(name.clone(), layout_json(obj, &rules));
            }
            Response::ok(&req.id, Json::Obj(objs), diagnostics)
        }
        Err(CheckError::Lint(all)) => Response::error(
            &req.id,
            ErrorCode::LintRejected,
            Json::obj([(
                "message",
                Json::from(format!(
                    "lint found {} error(s); program not run",
                    all.iter().filter(|d| d.is_error()).count()
                )),
            )]),
            diagnostics_json(&all, prelude_lines),
        ),
        Err(CheckError::Admission { estimate, reason }) => {
            let mut detail = BTreeMap::new();
            detail.insert("message".to_string(), Json::from(reason));
            if let Some(fuel) = estimate.fuel {
                detail.insert("certified_fuel".to_string(), Json::from(fuel));
            }
            Response::error(
                &req.id,
                ErrorCode::AdmissionRefused,
                Json::Obj(detail),
                diagnostics,
            )
        }
        Err(CheckError::Run(e)) => {
            let (code, detail) = match &e {
                DslError::Gen(g) => (ErrorCode::from_gen_kind(&g.kind), gen_error_detail(g)),
                other => (
                    ErrorCode::RuntimeError,
                    Json::obj([("message", Json::from(other.to_string()))]),
                ),
            };
            Response::error(&req.id, code, detail, diagnostics)
        }
    };

    // Fold this request's metrics into the tenant aggregate, then
    // attach the per-request stats section.
    let mut snap = interp.ctx().metrics.snapshot();
    snap.rule_queries = 0; // kernel counter is per-tech, not per-request
    shared.tenant_metrics(&req.tenant).absorb(&snap);
    if req.want_stats {
        let fuel_used = interp.ctx().limits.fuel_used();
        let mut flags = Vec::new();
        if snap.cache_hits > 0 {
            flags.push("cache_hit");
        }
        let trace_report = if req.want_trace {
            Some(interp.ctx().trace.drain().report(16))
        } else {
            None
        };
        response = response.with_stats(stats_json(wall, fuel_used, &snap, flags, trace_report));
    }
    response
}

/// `process` behind a panic barrier: an escaped worker panic becomes a
/// `WORKER_PANIC` response instead of a dead shard.
fn process_isolated(shared: &Shared, req: &Request, watch: Option<&WorkerState>) -> Response {
    match catch_unwind(AssertUnwindSafe(|| process(shared, req, watch))) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "worker panicked".to_string());
            Response::error(
                &req.id,
                ErrorCode::WorkerPanic,
                Json::obj([("message", Json::from(msg))]),
                Json::Arr(Vec::new()),
            )
        }
    }
}

/// How long a worker waits on its queue per turn. Bounds how stale the
/// stop/generation checks can get, so shutdown and abandonment resolve
/// within one tick.
const WORKER_POLL: Duration = Duration::from_millis(50);

fn worker_loop(shared: Arc<Shared>, shard_idx: usize, generation: u64, state: Arc<WorkerState>) {
    let shard = &shared.shards[shard_idx];
    loop {
        if shard.generation.load(Ordering::Relaxed) != generation {
            return; // abandoned: a replacement owns this shard now
        }
        // Hold the queue lock only for the bounded receive — never
        // while processing — so a replacement worker can take over the
        // queue the moment this thread dies or is abandoned. A poisoned
        // lock (previous holder died mid-recv) is taken over as-is: the
        // receiver has no intermediate state to corrupt.
        let job = {
            let queue = shard
                .queue
                .lock()
                .unwrap_or_else(|poison| poison.into_inner());
            queue.recv_timeout(WORKER_POLL)
        };
        let job = match job {
            Ok(j) => j,
            Err(RecvTimeoutError::Timeout) => {
                if shared.stop.load(Ordering::Relaxed) {
                    return; // draining and the queue is empty: done
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => return,
        };
        let seq = shard.seq.fetch_add(1, Ordering::Relaxed) + 1;
        *state.busy_since.lock().expect("busy lock") = Some(Instant::now());
        if let Some(chaos) = &shared.config.worker_chaos {
            match chaos.fate(shard_idx, seq) {
                WorkerFate::Run => {}
                // Outside the catch_unwind barrier on purpose: the
                // thread dies with the job in hand. The dropped reply
                // sender answers the client (`WORKER_PANIC` via the
                // dispatch recv error) and the queued jobs survive in
                // the shard for the respawned worker.
                WorkerFate::Kill => panic!("injected chaos kill (shard {shard_idx}, job {seq})"),
                WorkerFate::Wedge(d) => std::thread::sleep(d),
            }
        }
        let response = answer_job(&shared, &job, &state);
        *state.cancel.lock().expect("cancel lock") = None;
        *state.busy_since.lock().expect("busy lock") = None;
        // A send failure means the client disconnected mid-request;
        // the result is simply dropped.
        let _ = job.reply.send(response);
    }
}

/// Builds the answer for one dequeued job: shed if its deadline expired
/// in the queue, refuse if the drain deadline has passed, execute
/// otherwise.
fn answer_job(shared: &Shared, job: &Job, state: &WorkerState) -> Response {
    if job.enqueued.elapsed() > job.wall {
        // The deadline passed while the request sat in the queue;
        // executing now would only return a result the client has
        // given up on.
        shared.shed.fetch_add(1, Ordering::Relaxed);
        return shared.overloaded_response(&job.req.id, "deadline expired while queued");
    }
    if shared.stop.load(Ordering::Relaxed) && shared.drain_expired() {
        shared.shed.fetch_add(1, Ordering::Relaxed);
        return shared.shutting_down_response(&job.req.id);
    }
    let r = process_isolated(shared, &job.req, Some(state));
    shared.served.fetch_add(1, Ordering::Relaxed);
    r
}

/// Handles one connection: strictly sequential request/response pairs.
/// Concurrency comes from concurrent connections.
fn connection_loop(shared: &Shared, stream: TcpStream) {
    let mut reader = std::io::BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = std::io::BufWriter::new(stream);
    loop {
        let payload = match read_frame(&mut reader, shared.config.max_frame) {
            Ok(p) => p,
            Err(e) => {
                if let Some(code) = e.code() {
                    shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    let resp = Response::error(
                        "",
                        code,
                        Json::obj([("message", Json::from(e.to_string()))]),
                        Json::Arr(Vec::new()),
                    );
                    let _ = write_frame(&mut writer, resp.wire_string().as_bytes());
                } else if matches!(e, FrameError::Io(_)) {
                    // Mid-stream socket error: the client vanished
                    // (reset, abort) rather than closing cleanly.
                    shared.client_disconnects.fetch_add(1, Ordering::Relaxed);
                    eprintln!("amgen-serve: client connection dropped mid-stream ({e})");
                }
                return; // framing failures are not recoverable mid-stream
            }
        };
        let response = match parse_request(&payload) {
            Err((code, message)) => {
                shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                Response::error(
                    "",
                    code,
                    Json::obj([("message", Json::from(message))]),
                    Json::Arr(Vec::new()),
                )
            }
            Ok(req) => dispatch(shared, req),
        };
        if write_frame(&mut writer, response.wire_string().as_bytes()).is_err() {
            // Client went away mid-response: count it, drop the bytes,
            // and let this thread exit — the worker that produced the
            // response is untouched and serves the next connection.
            shared.client_disconnects.fetch_add(1, Ordering::Relaxed);
            eprintln!("amgen-serve: client disconnected mid-response");
            return;
        }
    }
}

/// Queues a request on its tenant's shard and waits for the result,
/// shedding instead of blocking when the shard is saturated.
fn dispatch(shared: &Shared, req: Request) -> Response {
    let id = req.id.clone();
    let tenant = req.tenant.clone();
    // Stop check FIRST: after it passes, the job may enter a queue, so
    // shutdown must treat it as accepted. Checking after enqueue would
    // let frames race onto a pool that is already draining away.
    if shared.stop.load(Ordering::Relaxed) {
        return shared.shutting_down_response(&id);
    }
    if let Some(refusal) = shared.breaker_check(&tenant, &id) {
        return refusal;
    }
    let wall = req.wall(shared.config.wall_cap);
    let shard = (fnv1a(&tenant) as usize) % shared.shards.len();
    let (reply_tx, reply_rx) = sync_channel(1);
    let job = Job {
        req: Box::new(req),
        enqueued: Instant::now(),
        wall,
        reply: reply_tx,
    };
    match shared.shards[shard].tx.try_send(job) {
        Ok(()) => {}
        Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
            shared.shed.fetch_add(1, Ordering::Relaxed);
            return shared.overloaded_response(&id, "worker queue full");
        }
    }
    // The wait is bounded as a last-resort safety net: supervision
    // answers every normal failure (dead worker → dropped reply,
    // shutdown → drain/sweep), so the timeout only catches a job
    // marooned by an unforeseen race — better a typed error late than
    // a client blocked forever.
    let patience = wall + shared.config.drain + shared.config.watchdog * 2 + Duration::from_secs(5);
    let response = match reply_rx.recv_timeout(patience) {
        Ok(r) => r,
        // The worker died between dequeue and reply: the respawn path
        // answers the *queued* jobs, and this dropped sender answers
        // the one the worker held.
        Err(RecvTimeoutError::Disconnected) => Response::error(
            &id,
            ErrorCode::WorkerPanic,
            Json::obj([(
                "message",
                Json::from("worker died while holding the request"),
            )]),
            Json::Arr(Vec::new()),
        ),
        Err(RecvTimeoutError::Timeout) => Response::error(
            &id,
            ErrorCode::WorkerPanic,
            Json::obj([(
                "message",
                Json::from("worker unresponsive; request abandoned"),
            )]),
            Json::Arr(Vec::new()),
        ),
    };
    shared.breaker_record(&tenant, &response);
    response
}

/// One supervised worker thread, as the supervisor tracks it.
struct WorkerSlot {
    shard: usize,
    state: Arc<WorkerState>,
    handle: Option<JoinHandle<()>>,
    /// The `busy_since` instant the watchdog already cancelled for, so
    /// one slow job triggers exactly one cancel.
    cancelled_for: Option<Instant>,
}

fn spawn_worker(shared: &Arc<Shared>, shard: usize) -> WorkerSlot {
    let generation = shared.shards[shard].generation.load(Ordering::Relaxed);
    let state = WorkerState::new();
    let handle = {
        let shared = Arc::clone(shared);
        let state = Arc::clone(&state);
        std::thread::spawn(move || worker_loop(shared, shard, generation, state))
    };
    WorkerSlot {
        shard,
        state,
        handle: Some(handle),
        cancelled_for: None,
    }
}

/// How often the supervisor looks at its workers.
const SUPERVISOR_POLL: Duration = Duration::from_millis(10);

/// Detects dead and wedged workers and replaces them. Runs until
/// `supervisor_stop`, then joins the pool (bounded — a worker that
/// never comes back is abandoned, not waited on forever).
fn supervisor_loop(shared: Arc<Shared>, mut slots: Vec<WorkerSlot>) {
    while !shared.supervisor_stop.load(Ordering::Relaxed) {
        for slot in slots.iter_mut() {
            supervise_slot(&shared, slot, true);
        }
        std::thread::sleep(SUPERVISOR_POLL);
    }
    // Shutdown: workers exit once stopped *and* their queue is empty.
    // Give the drain its deadline plus one full request, then cancel
    // whatever still runs, then abandon what even that cannot reach.
    let graceful = Instant::now() + shared.config.drain + shared.config.wall_cap;
    let cancelled = graceful + shared.config.watchdog;
    loop {
        // Keep replacing workers that die mid-drain: their queued jobs
        // still deserve real answers while the drain window is open.
        for slot in slots.iter_mut() {
            supervise_slot(&shared, slot, !shared.drain_expired());
        }
        if slots.iter().all(|s| s.handle.is_none()) {
            return;
        }
        let now = Instant::now();
        if now >= graceful {
            for slot in slots.iter_mut() {
                if let Some(tok) = &*slot.state.cancel.lock().expect("cancel lock") {
                    tok.cancel();
                }
            }
        }
        if now >= cancelled {
            // Abandon the stragglers: bump generations so they exit on
            // wake, drop the handles. The sweep in `shutdown_inner`
            // answers anything left in their queues.
            for slot in slots.iter_mut() {
                if let Some(h) = slot.handle.take() {
                    shared.shards[slot.shard]
                        .generation
                        .fetch_add(1, Ordering::Relaxed);
                    drop(h);
                }
            }
            return;
        }
        std::thread::sleep(SUPERVISOR_POLL);
    }
}

/// One supervision step for one worker: join-and-respawn if it died,
/// cancel its run past the watchdog, abandon-and-respawn past twice
/// the watchdog.
fn supervise_slot(shared: &Arc<Shared>, slot: &mut WorkerSlot, respawn: bool) {
    let Some(handle) = &slot.handle else { return };
    if handle.is_finished() {
        let panicked = slot.handle.take().expect("handle present").join().is_err();
        if panicked {
            shared.worker_panics.fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "amgen-serve: worker on shard {} died; respawning",
                slot.shard
            );
        }
        // A clean exit is the thread honouring stop/abandonment — only
        // a panic costs a respawn.
        if panicked && respawn {
            *slot = spawn_worker(shared, slot.shard);
            shared.respawns.fetch_add(1, Ordering::Relaxed);
        }
        return;
    }
    let busy = *slot.state.busy_since.lock().expect("busy lock");
    let Some(since) = busy else { return };
    let elapsed = since.elapsed();
    if elapsed > shared.config.watchdog * 2 {
        // Cancellation didn't bite (the worker is wedged outside any
        // checkpoint): abandon the thread. It keeps the job it holds —
        // its late reply still reaches the client — but the shard gets
        // a fresh worker for the queue *now*, and the generation bump
        // makes the wedged thread exit when it finally wakes.
        shared.shards[slot.shard]
            .generation
            .fetch_add(1, Ordering::Relaxed);
        eprintln!(
            "amgen-serve: worker on shard {} wedged for {:?}; abandoning and respawning",
            slot.shard, elapsed
        );
        let _detached = slot.handle.take();
        *slot = spawn_worker(shared, slot.shard);
        shared.respawns.fetch_add(1, Ordering::Relaxed);
    } else if elapsed > shared.config.watchdog && slot.cancelled_for != Some(since) {
        slot.cancelled_for = Some(since);
        shared.watchdog_cancels.fetch_add(1, Ordering::Relaxed);
        if let Some(tok) = &*slot.state.cancel.lock().expect("cancel lock") {
            tok.cancel();
        }
    }
}

/// A running server: accept loop + supervised worker pool. Dropping the
/// handle performs the same graceful shutdown as [`Server::shutdown`]
/// (best effort — errors are logged, not returned), so no thread
/// outlives the handle.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral test port), spawns the
    /// worker pool and the accept loop, and returns immediately.
    pub fn start(addr: &str, config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shards_n = config.workers.max(1);
        let queue_depth = config.queue_depth.max(1);
        let shards = (0..shards_n)
            .map(|_| {
                let (tx, rx) = sync_channel(queue_depth);
                Shard {
                    tx,
                    queue: Mutex::new(rx),
                    generation: AtomicU64::new(0),
                    seq: AtomicU64::new(0),
                }
            })
            .collect();
        let shared = Arc::new(Shared::new(config, shards));
        shared.load_snapshot();
        let slots = (0..shards_n)
            .map(|shard| spawn_worker(&shared, shard))
            .collect();
        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || supervisor_loop(shared, slots))
        };
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shared.stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let shared = Arc::clone(&shared);
                    // Connection threads are detached: they exit when
                    // their client disconnects.
                    std::thread::spawn(move || connection_loop(&shared, stream));
                }
            })
        };
        Ok(Server {
            shared,
            addr: local,
            accept: Some(accept),
            supervisor: Some(supervisor),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests fully served (admitted or refused with a typed error).
    pub fn served(&self) -> u64 {
        self.shared.served.load(Ordering::Relaxed)
    }

    /// Requests shed under load (queue full or deadline expired queued).
    pub fn shed(&self) -> u64 {
        self.shared.shed.load(Ordering::Relaxed)
    }

    /// Frames or documents rejected at the protocol layer.
    pub fn protocol_errors(&self) -> u64 {
        self.shared.protocol_errors.load(Ordering::Relaxed)
    }

    /// The periodic stats block: one totals line, then one line per
    /// tenant with its aggregate [`Metrics`] snapshot — the snapshot's
    /// `Display` now carries cache hits/misses and admission refusals,
    /// so this block is self-describing.
    pub fn stats_lines(&self) -> Vec<String> {
        let mut lines = vec![format!(
            "served={} shed={} protocol_errors={} disconnects={} respawns={} \
             worker_panics={} watchdog_cancels={} breaker_refused={}",
            self.served(),
            self.shed(),
            self.protocol_errors(),
            self.client_disconnects(),
            self.respawns(),
            self.worker_panics(),
            self.watchdog_cancels(),
            self.breaker_refused()
        )];
        let tenants = self.shared.tenants.lock().expect("tenant lock");
        for (tenant, state) in tenants.iter() {
            lines.push(format!("tenant={tenant} {}", state.metrics.snapshot()));
        }
        drop(tenants);
        let overflow = self.shared.overflow_requests.load(Ordering::Relaxed);
        if overflow > 0 {
            lines.push(format!(
                "tenant=(overflow) requests={overflow} {}",
                self.shared.overflow_tenants.snapshot()
            ));
        }
        lines
    }

    /// Distinct tenants tracked individually — never exceeds the
    /// configured `max_tenants`.
    pub fn tenant_count(&self) -> usize {
        self.shared.tenants.lock().expect("tenant lock").len()
    }

    /// Workers respawned by the supervisor (after a panic or a wedge).
    pub fn respawns(&self) -> u64 {
        self.shared.respawns.load(Ordering::Relaxed)
    }

    /// Worker threads that died to an escaped panic (chaos kills land
    /// here; panics inside the isolation barrier do not).
    pub fn worker_panics(&self) -> u64 {
        self.shared.worker_panics.load(Ordering::Relaxed)
    }

    /// Runs cancelled by the watchdog for exceeding the deadline.
    pub fn watchdog_cancels(&self) -> u64 {
        self.shared.watchdog_cancels.load(Ordering::Relaxed)
    }

    /// Requests fast-refused by an open per-tenant circuit breaker.
    pub fn breaker_refused(&self) -> u64 {
        self.shared.breaker_refused.load(Ordering::Relaxed)
    }

    /// Clients that vanished mid-stream or mid-response.
    pub fn client_disconnects(&self) -> u64 {
        self.shared.client_disconnects.load(Ordering::Relaxed)
    }

    /// Switches the server into draining: stop accepting, answer new
    /// frames with `SHUTTING_DOWN`, keep executing already-queued jobs
    /// until the drain deadline. Idempotent; returns immediately —
    /// [`Server::shutdown`] (or drop) completes the join.
    pub fn begin_shutdown(&self) {
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        *self.shared.drain_until.lock().expect("drain lock") =
            Some(Instant::now() + self.shared.config.drain);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }

    /// Stops accepting, drains queued work under the drain deadline,
    /// joins the pool and writes the cache snapshot (if configured).
    pub fn shutdown(self) {
        // Drop does the work; this method is the explicit spelling.
        drop(self);
    }

    fn shutdown_inner(&mut self) {
        if self.accept.is_none() && self.supervisor.is_none() {
            return;
        }
        self.begin_shutdown();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.shared.supervisor_stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
        // Sweep: anything still queued (a worker died past the drain
        // deadline, or a dispatch raced the stop flag) gets a typed
        // answer — an accepted request is never silently dropped.
        for shard in &self.shared.shards {
            let queue = shard
                .queue
                .lock()
                .unwrap_or_else(|poison| poison.into_inner());
            while let Ok(job) = queue.try_recv() {
                self.shared.shed.fetch_add(1, Ordering::Relaxed);
                let _ = job
                    .reply
                    .send(self.shared.shutting_down_response(&job.req.id));
            }
            // Any abandoned straggler exits when it wakes.
            shard.generation.fetch_add(1, Ordering::Relaxed);
        }
        self.shared.save_snapshot();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// What a [`run_once`] session answered — the basis for pipeline exit
/// codes: all-ok sessions and sessions with typed refusals are both
/// *successful protocol conversations*, but a CI step usually wants to
/// branch on them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OnceSummary {
    /// Response frames written.
    pub responses: u64,
    /// How many of them carried a typed error (`ok:false`).
    pub errors: u64,
}

/// The `--once` runner: serves frames from `input` until end of stream,
/// writing responses to `output` — the whole pipeline without sockets
/// or threads, for tests and shell pipelines. A configured cache
/// snapshot is restored at entry and written back at clean end of
/// stream. `Err` is an I/O failure of the streams themselves; typed
/// refusals are counted in the summary, not errors.
pub fn run_once(
    config: ServeConfig,
    input: &mut impl Read,
    output: &mut impl Write,
) -> std::io::Result<OnceSummary> {
    let shared = Shared::new(config, Vec::new());
    shared.load_snapshot();
    let mut summary = OnceSummary::default();
    loop {
        let payload = match read_frame(input, shared.config.max_frame) {
            Ok(p) => p,
            Err(FrameError::Closed) => {
                shared.save_snapshot();
                return Ok(summary);
            }
            Err(FrameError::Io(e)) => return Err(e),
            Err(e) => {
                if let Some(code) = e.code() {
                    let resp = Response::error(
                        "",
                        code,
                        Json::obj([("message", Json::from(e.to_string()))]),
                        Json::Arr(Vec::new()),
                    );
                    write_frame(output, resp.wire_string().as_bytes())?;
                    summary.responses += 1;
                    summary.errors += 1;
                }
                shared.save_snapshot();
                return Ok(summary);
            }
        };
        let response = match parse_request(&payload) {
            Err((code, message)) => Response::error(
                "",
                code,
                Json::obj([("message", Json::from(message))]),
                Json::Arr(Vec::new()),
            ),
            Ok(req) => match shared.breaker_check(&req.tenant, &req.id) {
                Some(refusal) => refusal,
                None => {
                    let r = process_isolated(&shared, &req, None);
                    shared.breaker_record(&req.tenant, &r);
                    r
                }
            },
        };
        if response.code().is_some() {
            summary.errors += 1;
        }
        summary.responses += 1;
        write_frame(output, response.wire_string().as_bytes())?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn once(requests: &[&str]) -> Vec<Json> {
        let mut input = Vec::new();
        for r in requests {
            write_frame(&mut input, r.as_bytes()).unwrap();
        }
        let mut output = Vec::new();
        run_once(ServeConfig::default(), &mut &input[..], &mut output).unwrap();
        let mut docs = Vec::new();
        let mut cursor = &output[..];
        loop {
            match read_frame(&mut cursor, usize::MAX) {
                Ok(p) => docs.push(json::parse(std::str::from_utf8(&p).unwrap()).unwrap()),
                Err(FrameError::Closed) => break,
                Err(e) => panic!("bad response frame: {e}"),
            }
        }
        docs
    }

    fn error_code(doc: &Json) -> &str {
        doc.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .unwrap()
    }

    #[test]
    fn serves_a_figure_workload() {
        let req = r#"{"id":"fig2","source":"row = ContactRow(layer = \"poly\", W = 10)"}"#;
        let docs = once(&[req, req]);
        assert_eq!(docs.len(), 2);
        for doc in &docs {
            assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
            assert_eq!(doc.get("id").and_then(Json::as_str), Some("fig2"));
            let layouts = doc.get("layouts").and_then(Json::as_obj).unwrap();
            assert!(layouts.contains_key("row"));
            let shapes = layouts["row"].get("shapes").unwrap();
            assert!(matches!(shapes, Json::Arr(v) if !v.is_empty()));
        }
        // Second run hits the generation cache.
        let stats = docs[1].get("stats").and_then(Json::as_obj).unwrap();
        assert!(stats["cache_hits"].as_num().unwrap() >= 1.0);
    }

    #[test]
    fn params_reach_the_program() {
        let docs = once(&[
            r#"{"id":"p","source":"row = ContactRow(layer = lyr, W = w)","params":{"lyr":"metal1","w":12}}"#,
        ]);
        assert_eq!(docs[0].get("ok").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn fuel_bomb_is_refused_at_admission_with_zero_fuel() {
        let bomb = amgen_faults::hostile::FUEL_BOMB;
        let req = format!(r#"{{"id":"bomb","source":{}}}"#, Json::from(bomb.source));
        let docs = once(&[&req]);
        assert_eq!(docs[0].get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(error_code(&docs[0]), "ADMISSION_REFUSED");
        let stats = docs[0].get("stats").and_then(Json::as_obj).unwrap();
        assert_eq!(stats["fuel_used"].as_num(), Some(0.0));
    }

    #[test]
    fn unknown_tech_and_lint_errors_are_typed() {
        let docs = once(&[
            r#"{"id":"t","tech":"nmos_5u","source":"x = 1"}"#,
            r#"{"id":"l","source":"x = NoSuchEntity()"}"#,
        ]);
        assert_eq!(error_code(&docs[0]), "UNKNOWN_TECH");
        assert_eq!(error_code(&docs[1]), "LINT_REJECTED");
        let diags = docs[1].get("diagnostics").unwrap();
        assert!(matches!(diags, Json::Arr(v) if !v.is_empty()));
    }

    #[test]
    fn diagnostic_lines_are_in_client_coordinates() {
        // Three params put the client's line 1 at line 4 of the
        // combined prelude + source; the wire position must still be
        // line 1 — the prelude is the server's implementation detail.
        let docs =
            once(&[r#"{"id":"off","source":"x = NoSuchEntity()","params":{"a":1,"b":2,"c":3}}"#]);
        assert_eq!(error_code(&docs[0]), "LINT_REJECTED");
        let Some(Json::Arr(diags)) = docs[0].get("diagnostics") else {
            panic!("diagnostics array present");
        };
        let lines: Vec<f64> = diags
            .iter()
            .filter_map(|d| d.get("line").and_then(Json::as_num))
            .collect();
        assert!(!lines.is_empty(), "at least one positioned diagnostic");
        assert!(
            lines.iter().all(|&l| l == 1.0),
            "positions in client coordinates, got {lines:?}"
        );
    }

    #[test]
    fn budget_clamps_to_the_tenant_cap() {
        // A request asking for more fuel than the cap still gets the
        // cap: the bomb stays refused.
        let bomb = amgen_faults::hostile::FUEL_BOMB;
        let req = format!(
            r#"{{"id":"b","budget":{{"fuel":99999999}},"source":{}}}"#,
            Json::from(bomb.source)
        );
        let docs = once(&[&req]);
        assert_eq!(error_code(&docs[0]), "ADMISSION_REFUSED");
    }

    #[test]
    fn deterministic_payload_for_identical_requests() {
        let req = r#"{"id":"d","source":"row = ContactRow(layer = \"poly\", W = 8)"}"#;
        let mut payloads = Vec::new();
        for _ in 0..2 {
            let mut input = Vec::new();
            write_frame(&mut input, req.as_bytes()).unwrap();
            let mut output = Vec::new();
            run_once(ServeConfig::default(), &mut &input[..], &mut output).unwrap();
            let mut cursor = &output[..];
            let p = read_frame(&mut cursor, usize::MAX).unwrap();
            let doc = json::parse(std::str::from_utf8(&p).unwrap()).unwrap();
            // Strip the stats section: it is the documented
            // non-deterministic remainder.
            let mut m = match doc {
                Json::Obj(m) => m,
                _ => panic!("response is an object"),
            };
            m.remove("stats");
            payloads.push(Json::Obj(m).to_string());
        }
        assert_eq!(payloads[0], payloads[1]);
    }

    #[test]
    fn stats_can_be_disabled_and_trace_enabled() {
        let docs = once(&[
            r#"{"id":"s0","stats":false,"source":"row = ContactRow(layer = \"poly\", W = 6)"}"#,
            r#"{"id":"s1","trace":true,"source":"row = ContactRow(layer = \"poly\", W = 6)"}"#,
        ]);
        assert!(docs[0].get("stats").is_none());
        let stats = docs[1].get("stats").and_then(Json::as_obj).unwrap();
        assert!(stats.contains_key("trace"));
    }
}
