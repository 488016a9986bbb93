//! The in-process replay of a served request, layer by layer.
//!
//! `amgen-serve` times only the `checked_run_full` slice of a request.
//! To account for the rest, the traced run replays every request the
//! live server answered through the same public functions its
//! `process()` calls, in the same order, with a span around each layer.
//! The replayed deterministic payload must equal the live one byte for
//! byte, or the run fails: a drifting mirror would measure something
//! other than the server. The mirror stays until the server stamps its
//! own per-layer times.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use amgen::core::{Budget, GenCache, GenCtx, MetricsSnapshot};
use amgen::dsl::ast::Entity;
use amgen::dsl::parser::parse;
use amgen::dsl::{stdlib, DslError, Interpreter};
use amgen::lint::{has_errors, CheckError, Linter};
use amgen::serve::json::Json;
use amgen::serve::proto::{
    diagnostics_json, gen_error_detail, layout_json, parse_request, read_frame, stats_json,
    write_frame, ErrorCode, Request, Response,
};
use amgen::serve::ServeConfig;
use amgen::tech::{RuleSet, Tech};
use amgen::trace::TraceSink;

use crate::check::{digest, Digest};

/// What one replayed request produced.
#[derive(Debug)]
pub struct Replayed {
    /// Digest of the deterministic payload.
    pub digest: Digest,
    /// Refused by lint or at admission.
    pub refused: bool,
    /// Shapes in the generated layouts.
    pub shapes: u64,
    /// Bytes of the response frame, length line included.
    pub frame_bytes: usize,
    /// The request context's counters.
    pub snap: MetricsSnapshot,
}

/// The server's per-process state, rebuilt outside it: the compiled
/// kernels, the parsed library and a generation cache of the same
/// capacity.
pub struct Replayer {
    config: ServeConfig,
    rulesets: BTreeMap<&'static str, Arc<RuleSet>>,
    stdlib: Vec<Entity>,
    cache: Arc<GenCache>,
    /// Time spent in the `compile_arc` calls of [`Replayer::new`].
    compile_time: Duration,
}

/// The technologies the server knows, as `amgen-serve` names them.
pub const TECHS: [&str; 2] = ["bicmos_1u", "cmos_08"];

/// Builds a technology's deck by its wire name.
pub fn tech(name: &str) -> Tech {
    match name {
        "bicmos_1u" => Tech::bicmos_1u(),
        "cmos_08" => Tech::cmos_08(),
        other => panic!("unknown technology `{other}`"),
    }
}

impl Replayer {
    /// Compiles both kernels and parses the library, like server start.
    pub fn new() -> Replayer {
        let config = ServeConfig::default();
        let cache = Arc::new(GenCache::with_capacity(config.cache_capacity));
        let mut compile_time = Duration::ZERO;
        let rulesets = TECHS
            .iter()
            .map(|&t| {
                let deck = tech(t);
                let t0 = Instant::now();
                let rules = deck.compile_arc();
                compile_time += t0.elapsed();
                (t, rules)
            })
            .collect();
        let mut stdlib_entities = Vec::new();
        for lib in [
            stdlib::FIG2_CONTACT_ROW,
            stdlib::FIG7_DIFF_PAIR,
            stdlib::INTERDIGIT,
            stdlib::STACKED,
            stdlib::CENTROID_PLACEMENT,
            stdlib::VARIANT_ROW,
        ] {
            stdlib_entities.extend(parse(lib).expect("embedded library parses").entities);
        }
        Replayer {
            config,
            rulesets,
            stdlib: stdlib_entities,
            cache,
            compile_time,
        }
    }

    /// Time [`Replayer::new`] spent compiling the kernels, all
    /// technologies together.
    pub fn compile_time(&self) -> Duration {
        self.compile_time
    }

    /// The budget the server arms for a request: each knob of the
    /// request's spec clamped to the tenant cap.
    fn effective_budget(&self, req: &Request) -> Budget {
        let cap = self.config.tenant_budget;
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
            .with_wall(req.wall(self.config.wall_cap))
    }

    /// Replays one request frame payload. Spans named after the layer
    /// metrics are recorded on `sink`, one per layer.
    pub fn replay(&self, request: &str, sink: &TraceSink) -> Result<Replayed, String> {
        let mut wire = Vec::new();
        write_frame(&mut wire, request.as_bytes()).map_err(|e| e.to_string())?;

        let req = {
            let _s = sink.span("serve", || "serve.decode");
            let payload =
                read_frame(&mut &wire[..], self.config.max_frame).map_err(|e| e.to_string())?;
            parse_request(&payload).map_err(|(code, msg)| format!("{code}: {msg}"))?
        };

        let (mut interp, rules, source) = {
            let _s = sink.span("dsl", || "dsl.setup");
            let rules = Arc::clone(
                self.rulesets
                    .get(req.tech.as_str())
                    .ok_or_else(|| format!("unknown technology `{}`", req.tech))?,
            );
            let ctx = GenCtx::new(Arc::clone(&rules))
                .with_budget(self.effective_budget(&req))
                .with_cache(Arc::clone(&self.cache))
                .with_tracing(req.want_trace);
            let mut interp = Interpreter::new(ctx);
            interp.load_entities(self.stdlib.iter().cloned());
            let source = format!("{}{}", req.prelude(), req.source);
            (interp, rules, source)
        };

        // `checked_run_full`, one layer per span.
        let t0 = Instant::now();
        let (diags, report) = {
            let _s = sink.span("lint", || "lint.certify");
            let mut linter = Linter::with_rules(Arc::clone(&interp.ctx().rules));
            linter.load_entities(interp.entities().cloned());
            linter.certify_source(&source)
        };
        let (diags, result) = if has_errors(&diags) {
            (Vec::new(), Err(CheckError::Lint(diags)))
        } else {
            let admission = {
                let _s = sink.span("lint", || "lint.admit");
                match report.tops.first() {
                    Some(Some(cert)) => {
                        let estimate = cert.estimate(interp.max_variants);
                        match interp.ctx().limits.budget().admits(&estimate) {
                            Ok(()) => None,
                            Err(e) => Some((estimate, e.to_string())),
                        }
                    }
                    _ => None,
                }
            };
            match admission {
                Some((estimate, reason)) => {
                    interp.ctx().metrics.add_admission_refused();
                    (diags, Err(CheckError::Admission { estimate, reason }))
                }
                None => {
                    let _s = sink.span("dsl", || "dsl.run");
                    let run = interp.run(&source).map_err(CheckError::Run);
                    (diags, run)
                }
            }
        };
        let wall = t0.elapsed();

        let _s = sink.span("serve", || "serve.encode");
        let refused = matches!(
            result,
            Err(CheckError::Lint(_) | CheckError::Admission { .. })
        );
        let shapes = match &result {
            Ok(layouts) => layouts.values().map(|o| o.len() as u64).sum(),
            Err(_) => 0,
        };
        let prelude_lines = req.prelude_lines();
        let diagnostics = diagnostics_json(&diags, prelude_lines);
        let mut response = match result {
            Ok(layouts) => {
                let objs = layouts
                    .iter()
                    .map(|(name, obj)| (name.clone(), layout_json(obj, &rules)))
                    .collect();
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
        let mut snap = interp.ctx().metrics.snapshot();
        snap.rule_queries = 0;
        if req.want_stats {
            let fuel_used = interp.ctx().limits.fuel_used();
            let flags = if snap.cache_hits > 0 {
                vec!["cache_hit"]
            } else {
                Vec::new()
            };
            let trace_report = req
                .want_trace
                .then(|| interp.ctx().trace.drain().report(16));
            response = response.with_stats(stats_json(wall, fuel_used, &snap, flags, trace_report));
        }
        let mut out = Vec::new();
        write_frame(&mut out, response.wire_string().as_bytes()).map_err(|e| e.to_string())?;
        Ok(Replayed {
            digest: digest(&response.payload_string()),
            refused,
            shapes,
            frame_bytes: out.len(),
            snap,
        })
    }
}

impl Default for Replayer {
    fn default() -> Self {
        Replayer::new()
    }
}
