//! Tree-walking interpreter with backtracking over topology variants.

use std::collections::{BTreeMap, HashMap};

use amgen_compact::{CompactOptions, Compactor};
use amgen_core::{FaultSite, GenCtx, GenError, Resource, Stage};
use amgen_db::LayoutObject;
use amgen_geom::Dir;
use amgen_opt::{Optimizer, RatingWeights};
use amgen_prim::Primitives;
use amgen_tech::RuleSet;

use crate::ast::{BinOp, Call, Entity, Expr, Program, Stmt};
use crate::parser::{parse, ParseError};
use crate::value::Value;

/// Errors from parsing or executing the language.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DslError {
    /// Budget exhaustion, cancellation or an injected fault, from the
    /// shared generation context. Raised by the per-statement fuel meter,
    /// the entity recursion cap, and any primitive the program invokes.
    Gen(GenError),
    /// Lexing/parsing failed.
    Parse(ParseError),
    /// Execution failed.
    Runtime {
        /// Source line of the failing statement.
        line: usize,
        /// Explanation.
        message: String,
    },
    /// A `VARIANT` exploration exceeded the configured limit.
    TooManyVariants(usize),
}

impl std::fmt::Display for DslError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DslError::Gen(e) => write!(f, "{e}"),
            DslError::Parse(e) => write!(f, "parse error: {e}"),
            // Line 0 marks a synthesized statement (no source location);
            // a phantom "line 0:" prefix would point nowhere.
            DslError::Runtime { line: 0, message } => write!(f, "{message}"),
            DslError::Runtime { line, message } => write!(f, "line {line}: {message}"),
            DslError::TooManyVariants(n) => {
                write!(f, "variant exploration exceeded {n} combinations")
            }
        }
    }
}

impl std::error::Error for DslError {}

impl From<ParseError> for DslError {
    fn from(e: ParseError) -> DslError {
        DslError::Parse(e)
    }
}

impl From<GenError> for DslError {
    fn from(e: GenError) -> DslError {
        DslError::Gen(e)
    }
}

impl From<DslError> for GenError {
    /// Unifies interpreter failures under the `amgen-core` error: typed
    /// robustness errors pass through, language-specific ones are wrapped
    /// with [`Stage::Dsl`] context.
    fn from(e: DslError) -> GenError {
        match e {
            DslError::Gen(g) => g,
            other => GenError::stage_msg(Stage::Dsl, other.to_string()),
        }
    }
}

/// The interpreter, bound to one technology.
///
/// Entities accumulate across [`Interpreter::run`] calls, so a library
/// source can be loaded first and instantiated later.
pub struct Interpreter {
    ctx: GenCtx,
    /// Name → entity, in a `BTreeMap` so every iteration over the
    /// library (diagnostics, the library hash below) is in name order —
    /// a `HashMap` here once leaked its arbitrary iteration order into
    /// outputs, which is fatal for content-addressed caching.
    entities: BTreeMap<String, Entity>,
    /// Hash over the whole registered library (names + pretty-printed
    /// bodies, in name order). Part of every entity cache key: loading
    /// or redefining *any* entity invalidates all cached entity results,
    /// so transitive callees can never be served stale.
    lib_hash: u64,
    /// Cap on explored variant combinations (backtracking).
    pub max_variants: usize,
    weights: RatingWeights,
}

/// Signals raised during execution of one choice assignment.
enum Exec {
    /// Execution hit a `VARIANT` statement beyond the fixed prefix and
    /// needs `arity` alternatives explored.
    NeedChoice(usize),
    /// A hard error.
    Fail(DslError),
}

struct Ctx<'a> {
    choices: &'a [usize],
    cursor: usize,
    /// Current entity-call nesting depth, checked against the budget's
    /// recursion cap so runaway (mutually) recursive entities surface as
    /// a typed error instead of a native stack overflow.
    depth: usize,
}

struct Frame {
    vars: HashMap<String, Value>,
    obj: LayoutObject,
}

impl Interpreter {
    /// Creates an interpreter that owns `ctx` for all of its runs.
    pub fn new(ctx: GenCtx) -> Interpreter {
        Interpreter {
            ctx,
            entities: BTreeMap::new(),
            lib_hash: 0,
            max_variants: crate::costmodel::DEFAULT_MAX_VARIANTS,
            weights: RatingWeights::default(),
        }
    }

    /// The shared generation context.
    pub fn ctx(&self) -> &GenCtx {
        &self.ctx
    }

    /// The compiled rule kernel.
    pub fn rules(&self) -> &RuleSet {
        &self.ctx.rules
    }

    /// The registered entities, in name order. Static tooling (the
    /// `amgen-lint` checker) reads these to resolve cross-source entity
    /// references against the interpreter's accumulated library; the
    /// deterministic order keeps its diagnostics byte-stable across
    /// runs.
    pub fn entities(&self) -> impl Iterator<Item = &Entity> {
        self.entities.values()
    }

    /// The FNV-1a hash of the registered entity library — the `source`
    /// component of every DSL [`GenKey`](amgen_core::GenKey) this
    /// interpreter produces. Deterministic across processes (it hashes
    /// the pretty-printed library, not addresses), which is what lets a
    /// cache snapshot taken by one process validate in another.
    pub fn lib_hash(&self) -> u64 {
        self.lib_hash
    }

    /// Registers the entities of a source without running its top level.
    pub fn load(&mut self, src: &str) -> Result<(), DslError> {
        let prog = parse(src)?;
        self.register(&prog);
        Ok(())
    }

    /// Registers already-parsed entities without running anything — the
    /// amortized form of [`Interpreter::load`] for a serving front-end
    /// that parses its library sources once and reuses the ASTs across
    /// thousands of per-request interpreters. Pass *unbound* entities
    /// (fresh from [`parse`]): their layer-name literals are interned
    /// against this interpreter's rule kernel here, and an entity whose
    /// literals were already bound by another interpreter would keep the
    /// other kernel's layer handles.
    pub fn load_entities(&mut self, entities: impl IntoIterator<Item = Entity>) {
        let mut registered = false;
        for mut e in entities {
            bind_block(&self.ctx, &mut e.body);
            self.entities.insert(e.name.clone(), e);
            registered = true;
        }
        if registered {
            self.lib_hash = self.compute_lib_hash();
        }
    }

    fn register(&mut self, prog: &Program) {
        for e in &prog.entities {
            let mut e = e.clone();
            bind_block(&self.ctx, &mut e.body);
            self.entities.insert(e.name.clone(), e);
        }
        if !prog.entities.is_empty() {
            self.lib_hash = self.compute_lib_hash();
        }
    }

    /// FNV-1a over the pretty-printed library in name order. Printing
    /// strips spans (cosmetic whitespace in the source does not change
    /// the hash) but keeps everything that affects execution.
    fn compute_lib_hash(&self) -> u64 {
        let mut text = String::new();
        for e in self.entities.values() {
            crate::pretty::print_entity(e, &mut text);
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in text.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Parses and runs a source: entities are registered, the top-level
    /// statements execute, and every top-level variable holding an object
    /// is returned by name.
    ///
    /// When the program contains `VARIANT` statements, all combinations
    /// are explored (bounded by [`Interpreter::max_variants`]) and the
    /// combination whose objects rate best — the paper's rating function,
    /// area plus electrical conditions — is returned.
    pub fn run(&mut self, src: &str) -> Result<BTreeMap<String, LayoutObject>, DslError> {
        let mut prog = parse(src)?;
        self.register(&prog);
        bind_block(&self.ctx, &mut prog.top);
        let runs = self.run_variants(&prog.top)?;
        let opt = Optimizer::new(&self.ctx, self.weights);
        runs.into_iter()
            .min_by(|a, b| {
                let ra: f64 = a.values().map(|o| opt.rate(o).score).sum();
                let rb: f64 = b.values().map(|o| opt.rate(o).score).sum();
                ra.total_cmp(&rb)
            })
            .ok_or(DslError::Runtime {
                line: 0,
                message: "no variant combination completed".into(),
            })
    }

    /// Runs a program and additionally returns a **snapshot after every
    /// top-level statement**: the pretty-printed statement and the object
    /// map at that point. This is the stand-in for the original
    /// environment's twin-window IDE (*"a text window for the source code
    /// and a corresponding graphical view of the module"*) — render each
    /// snapshot with `amgen-export` to watch the module grow.
    ///
    /// Programs containing `VARIANT` are rejected (a trace of a
    /// backtracking search has no single timeline).
    #[allow(clippy::type_complexity)]
    pub fn run_traced(
        &mut self,
        src: &str,
    ) -> Result<
        (
            BTreeMap<String, LayoutObject>,
            Vec<(String, BTreeMap<String, LayoutObject>)>,
        ),
        DslError,
    > {
        // The guard borrows a handle clone so `self` stays free for
        // `register`.
        let ctx = self.ctx.clone();
        let _stage = ctx.stage(Stage::Dsl, || "run_traced");
        let mut prog = parse(src)?;
        self.register(&prog);
        bind_block(&self.ctx, &mut prog.top);
        let mut snapshots = Vec::new();
        let mut frame = Frame {
            vars: HashMap::new(),
            obj: LayoutObject::new("top"),
        };
        for stmt in &prog.top {
            let mut ctx = Ctx {
                choices: &[],
                cursor: 0,
                depth: 0,
            };
            match self.exec_stmt(stmt, &mut frame, &mut ctx) {
                Ok(()) => {}
                Err(Exec::NeedChoice(_)) => {
                    return Err(DslError::Runtime {
                        line: stmt.line(),
                        message: "run_traced does not support VARIANT programs".into(),
                    })
                }
                Err(Exec::Fail(e)) => return Err(e),
            }
            let mut printed = String::new();
            crate::pretty::print_stmt(stmt, 0, &mut printed);
            let state: BTreeMap<String, LayoutObject> = frame
                .vars
                .iter()
                .filter_map(|(k, v)| match v {
                    Value::Obj(o) => Some((k.clone(), o.clone())),
                    _ => None,
                })
                .collect();
            snapshots.push((printed.trim_end().to_string(), state));
        }
        let final_map = snapshots.last().map(|(_, m)| m.clone()).unwrap_or_default();
        Ok((final_map, snapshots))
    }

    /// Runs the top level once per variant combination, returning every
    /// completed result (the backtracking facility of the paper, §2.4).
    pub fn run_variants(
        &self,
        top: &[Stmt],
    ) -> Result<Vec<BTreeMap<String, LayoutObject>>, DslError> {
        let mut span = self.ctx.stage(Stage::Dsl, || "run_variants");
        let mut results = Vec::new();
        let mut stack: Vec<Vec<usize>> = vec![Vec::new()];
        let mut explored = 0usize;
        while let Some(prefix) = stack.pop() {
            explored += 1;
            if explored > self.max_variants {
                return Err(DslError::TooManyVariants(self.max_variants));
            }
            let mut ctx = Ctx {
                choices: &prefix,
                cursor: 0,
                depth: 0,
            };
            let mut frame = Frame {
                vars: HashMap::new(),
                obj: LayoutObject::new("top"),
            };
            match self.exec_block(top, &mut frame, &mut ctx) {
                Ok(()) => {
                    let map = frame
                        .vars
                        .into_iter()
                        .filter_map(|(k, v)| match v {
                            Value::Obj(o) => Some((k, o)),
                            _ => None,
                        })
                        .collect();
                    results.push(map);
                }
                Err(Exec::NeedChoice(arity)) => {
                    for i in (0..arity).rev() {
                        let mut next = prefix.clone();
                        next.push(i);
                        stack.push(next);
                    }
                }
                Err(Exec::Fail(e)) => return Err(e),
            }
        }
        span.arg("explored", explored);
        span.arg("completed", results.len());
        Ok(results)
    }

    /// Instantiates an entity by name with keyword arguments, returning
    /// the best-rated variant.
    pub fn eval_entity(
        &self,
        name: &str,
        args: &[(&str, Value)],
    ) -> Result<LayoutObject, DslError> {
        let variants = self.eval_entity_variants(name, args)?;
        let opt = Optimizer::new(&self.ctx, self.weights);
        let objs: Vec<LayoutObject> = variants;
        let (idx, _) = opt.select_variant(&objs).ok_or(DslError::Runtime {
            line: 0,
            message: "entity produced no variant".into(),
        })?;
        objs.into_iter().nth(idx).ok_or(DslError::Runtime {
            line: 0,
            message: "variant selection out of range".into(),
        })
    }

    /// Instantiates an entity, returning **all** topology variants.
    pub fn eval_entity_variants(
        &self,
        name: &str,
        args: &[(&str, Value)],
    ) -> Result<Vec<LayoutObject>, DslError> {
        let _stage = self.ctx.stage(Stage::Dsl, || "eval_entity_variants");
        let call = Call {
            name: name.to_string(),
            positional: Vec::new(),
            keyword: Vec::new(),
            span: crate::span::Span::NONE,
        };
        let mut results = Vec::new();
        let mut stack: Vec<Vec<usize>> = vec![Vec::new()];
        let mut explored = 0usize;
        while let Some(prefix) = stack.pop() {
            explored += 1;
            if explored > self.max_variants {
                return Err(DslError::TooManyVariants(self.max_variants));
            }
            let mut ctx = Ctx {
                choices: &prefix,
                cursor: 0,
                depth: 0,
            };
            let bound: Vec<(Option<String>, Value)> = args
                .iter()
                .map(|(k, v)| (Some(k.to_string()), v.clone()))
                .collect();
            match self.call_entity(&call, bound, &mut ctx) {
                Ok(obj) => results.push(obj),
                Err(Exec::NeedChoice(arity)) => {
                    for i in (0..arity).rev() {
                        let mut next = prefix.clone();
                        next.push(i);
                        stack.push(next);
                    }
                }
                Err(Exec::Fail(e)) => return Err(e),
            }
        }
        Ok(results)
    }

    // ----- execution ---------------------------------------------------

    fn fail<T>(&self, line: usize, message: impl Into<String>) -> Result<T, Exec> {
        Err(Exec::Fail(DslError::Runtime {
            line,
            message: message.into(),
        }))
    }

    /// Wraps a stage failure with the statement's source line — except
    /// typed robustness errors (budget exhaustion, cancellation, injected
    /// faults), which pass through as [`DslError::Gen`] so callers can
    /// still match on them.
    fn stage_fail(line: usize, e: impl Into<GenError> + ToString) -> Exec {
        let text = e.to_string();
        let g: GenError = e.into();
        match g.kind {
            amgen_core::GenErrorKind::Stage(_) => Exec::Fail(DslError::Runtime {
                line,
                message: text,
            }),
            _ => Exec::Fail(DslError::Gen(g)),
        }
    }

    fn exec_block(&self, body: &[Stmt], frame: &mut Frame, ctx: &mut Ctx) -> Result<(), Exec> {
        for stmt in body {
            self.exec_stmt(stmt, frame, ctx)?;
        }
        Ok(())
    }

    fn exec_stmt(&self, stmt: &Stmt, frame: &mut Frame, ctx: &mut Ctx) -> Result<(), Exec> {
        let line = stmt.line();
        // Every statement costs one unit of fuel, so any program — huge
        // FOR ranges and recursive entities included — terminates within
        // a finite budget with a typed error instead of hanging. The
        // amount comes from `costmodel` so the static certification pass
        // in `amgen-lint` prices statements identically.
        self.ctx
            .charge_fuel(crate::costmodel::FUEL_PER_STMT, Stage::Dsl)
            .map_err(|e| Exec::Fail(DslError::Gen(e)))?;
        self.ctx
            .fault_check(FaultSite::DslStmt, stmt.kind_name())
            .map_err(|e| Exec::Fail(DslError::Gen(e)))?;
        match stmt {
            Stmt::Assign { name, value, .. } => {
                let v = self.eval_expr(value, frame, ctx, line)?;
                frame.vars.insert(name.clone(), v);
                Ok(())
            }
            Stmt::Call(call) => {
                self.builtin(call, frame, ctx)?;
                Ok(())
            }
            Stmt::Compact {
                obj, dir, ignore, ..
            } => {
                let not_an_object = || format!("`{obj}` is not an object");
                if !matches!(frame.vars.get(obj), Some(Value::Obj(_))) {
                    return self.fail(line, not_an_object());
                }
                let Some(side) = Dir::parse(dir) else {
                    return self.fail(line, format!("unknown direction `{dir}`"));
                };
                let mut opts = CompactOptions::new();
                for e in ignore {
                    let v = self.eval_expr(e, frame, ctx, line)?;
                    // Bound programs carry the interned handle; a name
                    // computed at runtime still resolves through the
                    // front-end lookup.
                    match v {
                        Value::Layer(l, _) => opts.ignore.push(l),
                        other => {
                            let name = match other.as_str() {
                                Ok(s) => s.to_string(),
                                Err(m) => return self.fail(line, m),
                            };
                            match self.ctx.layer(&name) {
                                Ok(l) => opts.ignore.push(l),
                                Err(e) => return self.fail(line, e.to_string()),
                            }
                        }
                    }
                }
                // Expressions cannot assign, so the child is still the
                // object checked above; it is borrowed from the variables
                // while the frame's own object is compacted, not copied.
                let Some(Value::Obj(child)) = frame.vars.get(obj) else {
                    return self.fail(line, not_an_object());
                };
                let c = Compactor::new(&self.ctx);
                if let Err(e) = c.compact(&mut frame.obj, child, side, &opts) {
                    return Err(Self::stage_fail(line, e));
                }
                Ok(())
            }
            Stmt::For {
                var,
                from,
                to,
                body,
                ..
            } => {
                let a = self
                    .eval_expr(from, frame, ctx, line)?
                    .as_num()
                    .map_err(|m| Exec::Fail(DslError::Runtime { line, message: m }))?;
                let b = self
                    .eval_expr(to, frame, ctx, line)?
                    .as_num()
                    .map_err(|m| Exec::Fail(DslError::Runtime { line, message: m }))?;
                let (a, b) = (a.round() as i64, b.round() as i64);
                for i in a..=b {
                    frame.vars.insert(var.clone(), Value::Num(i as f64));
                    self.exec_block(body, frame, ctx)?;
                }
                Ok(())
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => {
                let c = self.eval_expr(cond, frame, ctx, line)?;
                if c.truthy() {
                    self.exec_block(then_body, frame, ctx)
                } else {
                    self.exec_block(else_body, frame, ctx)
                }
            }
            Stmt::Variant { arms, .. } => {
                if arms.is_empty() {
                    return self.fail(line, "VARIANT has no arms");
                }
                if ctx.cursor >= ctx.choices.len() {
                    return Err(Exec::NeedChoice(arms.len()));
                }
                let pick = ctx.choices[ctx.cursor];
                ctx.cursor += 1;
                self.exec_block(&arms[pick.min(arms.len() - 1)], frame, ctx)
            }
        }
    }

    fn eval_expr(
        &self,
        expr: &Expr,
        frame: &mut Frame,
        ctx: &mut Ctx,
        line: usize,
    ) -> Result<Value, Exec> {
        match expr {
            Expr::Number(n, _) => Ok(Value::Num(*n)),
            Expr::Str(s, _) => Ok(Value::Str(s.clone())),
            Expr::Layer(l, name, _) => Ok(Value::Layer(*l, name.clone())),
            Expr::Var(name, _) => match frame.vars.get(name) {
                Some(v) => Ok(v.clone()),
                // Unknown identifiers read as Unset so that `INBOX(layer,
                // W, L)` works when W/L were omitted optional parameters.
                None => Ok(Value::Unset),
            },
            Expr::Neg(e, _) => {
                let v = self
                    .eval_expr(e, frame, ctx, line)?
                    .as_num()
                    .map_err(|m| Exec::Fail(DslError::Runtime { line, message: m }))?;
                Ok(Value::Num(-v))
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                let a = self
                    .eval_expr(lhs, frame, ctx, line)?
                    .as_num()
                    .map_err(|m| Exec::Fail(DslError::Runtime { line, message: m }))?;
                let b = self
                    .eval_expr(rhs, frame, ctx, line)?
                    .as_num()
                    .map_err(|m| Exec::Fail(DslError::Runtime { line, message: m }))?;
                let v = match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => {
                        if b == 0.0 {
                            return self.fail(line, "division by zero");
                        }
                        a / b
                    }
                    BinOp::Eq => f64::from(a == b),
                    BinOp::Ne => f64::from(a != b),
                    BinOp::Lt => f64::from(a < b),
                    BinOp::Le => f64::from(a <= b),
                    BinOp::Gt => f64::from(a > b),
                    BinOp::Ge => f64::from(a >= b),
                };
                Ok(Value::Num(v))
            }
            Expr::Call(call) => {
                if self.entities.contains_key(&call.name) {
                    let bound = self.eval_args(call, frame, ctx)?;
                    let obj = self.call_entity(call, bound, ctx)?;
                    Ok(Value::Obj(obj))
                } else {
                    self.builtin(call, frame, ctx)
                }
            }
        }
    }

    fn eval_args(
        &self,
        call: &Call,
        frame: &mut Frame,
        ctx: &mut Ctx,
    ) -> Result<Vec<(Option<String>, Value)>, Exec> {
        let mut out = Vec::new();
        for e in &call.positional {
            out.push((None, self.eval_expr(e, frame, ctx, call.line())?));
        }
        for (k, _, e) in &call.keyword {
            out.push((Some(k.clone()), self.eval_expr(e, frame, ctx, call.line())?));
        }
        Ok(out)
    }

    fn call_entity(
        &self,
        call: &Call,
        bound: Vec<(Option<String>, Value)>,
        ctx: &mut Ctx,
    ) -> Result<LayoutObject, Exec> {
        let entity = self.entities.get(&call.name).ok_or_else(|| {
            Exec::Fail(DslError::Runtime {
                line: call.line(),
                message: format!("unknown entity `{}`", call.name),
            })
        })?;
        let mut frame = Frame {
            vars: HashMap::new(),
            obj: LayoutObject::new(entity.name.clone()),
        };
        // Bind parameters: positional first, then keywords; missing
        // optionals become Unset, missing required are errors.
        let mut pos = 0usize;
        for (key, value) in bound {
            match key {
                None => {
                    let Some(p) = entity.params.get(pos) else {
                        return self.fail(call.line(), "too many positional arguments");
                    };
                    frame.vars.insert(p.name.clone(), value);
                    pos += 1;
                }
                Some(k) => {
                    if !entity.params.iter().any(|p| p.name == k) {
                        return self.fail(
                            call.line(),
                            format!("`{}` has no parameter `{k}`", entity.name),
                        );
                    }
                    frame.vars.insert(k, value);
                }
            }
        }
        for p in &entity.params {
            if !frame.vars.contains_key(&p.name) {
                if p.optional {
                    frame.vars.insert(p.name.clone(), Value::Unset);
                } else {
                    return self.fail(
                        call.line(),
                        format!("missing required parameter `{}`", p.name),
                    );
                }
            }
        }
        // Reject NaN parameters outright — downstream dimension math
        // would silently cast NaN to a 0 coordinate, and `NaN != NaN`
        // makes a NaN-keyed cache entry unreachable-by-equality. This is
        // a bugfix independent of caching, so it runs unconditionally.
        for p in &entity.params {
            if let Some(Value::Num(n)) = frame.vars.get(&p.name) {
                if n.is_nan() {
                    return Err(Exec::Fail(DslError::Gen(
                        GenError::stage_msg(Stage::Dsl, format!("parameter `{}` is NaN", p.name))
                            .with_entity(&entity.name),
                    )));
                }
            }
        }
        // Canonical cache key: entity name + tech brand + library hash +
        // the bound parameters in declaration order (never map-iteration
        // order).
        let key = self.entity_key(entity, &frame);
        if let Some(k) = &key {
            if let Some(hit) = self.ctx.cache_get(Stage::Dsl, k) {
                return Ok(hit.layout.clone());
            }
        }
        let mut span = self
            .ctx
            .span(Stage::Dsl, || amgen_core::name!("entity:{}", entity.name));
        if ctx.depth >= self.ctx.limits.budget().max_recursion {
            return Err(Exec::Fail(DslError::Gen(
                GenError::budget(Stage::Dsl, Resource::Recursion).with_entity(&entity.name),
            )));
        }
        ctx.depth += 1;
        let cursor_before = ctx.cursor;
        let executed = self.exec_block(&entity.body, &mut frame, ctx);
        ctx.depth -= 1;
        executed?;
        span.arg("shapes", frame.obj.len());
        // Store only when the body consumed no VARIANT choices: a
        // choice-consuming execution is not a pure function of the key
        // (the same call re-runs under different choice prefixes during
        // backtracking).
        if let Some(k) = key {
            if ctx.cursor == cursor_before {
                self.ctx.cache_put(
                    k,
                    std::sync::Arc::new(amgen_core::CachedModule::layout(frame.obj.clone())),
                );
            }
        }
        Ok(frame.obj)
    }

    /// Builds the canonical key for an entity call, or `None` when
    /// caching is inactive (then the key would be dead work).
    fn entity_key(&self, entity: &Entity, frame: &Frame) -> Option<amgen_core::GenKey> {
        use amgen_core::CanonParam;
        if !self.ctx.cache_active() {
            return None;
        }
        let mut key = amgen_core::GenKey::entity(&entity.name, self.ctx.id(), self.lib_hash);
        for p in &entity.params {
            let param = match frame.vars.get(&p.name) {
                // NaN was rejected above, so canonicalization cannot fail.
                Some(Value::Num(n)) => CanonParam::num(Stage::Dsl, *n).ok()?,
                Some(Value::Str(s)) => CanonParam::Str(s.clone()),
                Some(Value::Layer(l, _)) => CanonParam::UInt(l.index() as u64),
                Some(Value::Obj(o)) => CanonParam::object(o),
                Some(Value::Unset) | None => CanonParam::None,
            };
            key.push(param);
        }
        Some(key)
    }

    /// Geometry builtins operating on the current frame's object.
    fn builtin(&self, call: &Call, frame: &mut Frame, ctx: &mut Ctx) -> Result<Value, Exec> {
        let line = call.line();
        let args = self.eval_args(call, frame, ctx)?;
        // Count the shapes this call appends, so the dynamic counter and
        // amgen-lint's certified shape bound measure the same thing.
        let shapes_before = frame.obj.len();
        let prim = Primitives::new(&self.ctx);
        // Helpers over the bound argument list.
        let get = |idx: usize, key: &str| -> Value {
            let mut seen_pos = 0usize;
            for (k, v) in &args {
                match k {
                    None => {
                        if seen_pos == idx {
                            return v.clone();
                        }
                        seen_pos += 1;
                    }
                    Some(k) if k == key => return v.clone(),
                    _ => {}
                }
            }
            Value::Unset
        };
        let layer_arg = |idx: usize, key: &str| -> Result<amgen_tech::Layer, Exec> {
            // The bind pass interned literal layer names, so the common
            // case is handle extraction; only names computed at runtime
            // fall back to the front-end string lookup.
            match get(idx, key) {
                Value::Layer(l, _) => Ok(l),
                v => {
                    let name = v
                        .as_str()
                        .map_err(|m| Exec::Fail(DslError::Runtime { line, message: m }))?
                        .to_string();
                    self.ctx.layer(&name).map_err(|e| {
                        Exec::Fail(DslError::Runtime {
                            line,
                            message: e.to_string(),
                        })
                    })
                }
            }
        };
        let dim_arg = |idx: usize, key: &str| -> Result<Option<amgen_geom::Coord>, Exec> {
            get(idx, key)
                .as_dim()
                .map_err(|m| Exec::Fail(DslError::Runtime { line, message: m }))
        };
        let result = match call.name.as_str() {
            "INBOX" => {
                let layer = layer_arg(0, "layer")?;
                let w = dim_arg(1, "W")?;
                let l = dim_arg(2, "L")?;
                prim.inbox(&mut frame.obj, layer, w, l)
                    .map_err(|e| Self::stage_fail(line, e))?;
                Ok(Value::Unset)
            }
            "ARRAY" => {
                let layer = layer_arg(0, "layer")?;
                prim.array(&mut frame.obj, layer)
                    .map_err(|e| Self::stage_fail(line, e))?;
                Ok(Value::Unset)
            }
            "AROUND" => {
                let layer = layer_arg(0, "layer")?;
                let extra = dim_arg(1, "extra")?.unwrap_or(0);
                prim.around(&mut frame.obj, layer, extra)
                    .map_err(|e| Self::stage_fail(line, e))?;
                Ok(Value::Unset)
            }
            "RING" => {
                let layer = layer_arg(0, "layer")?;
                let w = dim_arg(1, "W")?;
                let cl = dim_arg(2, "clearance")?;
                prim.ring(&mut frame.obj, layer, w, cl)
                    .map_err(|e| Self::stage_fail(line, e))?;
                Ok(Value::Unset)
            }
            "TWORECTS" => {
                let la = layer_arg(0, "a")?;
                let lb = layer_arg(1, "b")?;
                let w = dim_arg(2, "W")?;
                let l = dim_arg(3, "L")?;
                prim.two_rects(&mut frame.obj, la, lb, w, l)
                    .map_err(|e| Self::stage_fail(line, e))?;
                Ok(Value::Unset)
            }
            "NET" => {
                let name = get(0, "name");
                let name = name
                    .as_str()
                    .map_err(|m| Exec::Fail(DslError::Runtime { line, message: m }))?
                    .to_string();
                let id = frame.obj.net(&name);
                for s in frame.obj.shapes_mut() {
                    if s.net.is_none() {
                        s.net = Some(id);
                    }
                }
                Ok(Value::Unset)
            }
            other => self.fail(line, format!("unknown function or entity `{other}`")),
        };
        if result.is_ok() {
            let delta = frame.obj.len().saturating_sub(shapes_before);
            if delta > 0 {
                self.ctx.metrics.add_shapes_generated(delta as u64);
            }
        }
        result
    }
}

// ----- bind pass --------------------------------------------------------
//
// The one place in the pipeline where layer *names* are resolved: every
// string literal that names a layer of the bound technology is rewritten
// to an interned [`Expr::Layer`] handle once, at program load, so
// execution — including every iteration of a FOR loop and every variant
// of a backtracking search — performs index arithmetic only. Strings
// that do not name a layer (net names, directions) are left untouched,
// and the handle keeps its spelling so string contexts still work.

fn bind_block(ctx: &GenCtx, stmts: &mut [Stmt]) {
    for s in stmts {
        bind_stmt(ctx, s);
    }
}

fn bind_stmt(ctx: &GenCtx, stmt: &mut Stmt) {
    match stmt {
        Stmt::Assign { value, .. } => bind_expr(ctx, value),
        Stmt::Call(call) => bind_call(ctx, call),
        Stmt::Compact { ignore, .. } => {
            for e in ignore {
                bind_expr(ctx, e);
            }
        }
        Stmt::For { from, to, body, .. } => {
            bind_expr(ctx, from);
            bind_expr(ctx, to);
            bind_block(ctx, body);
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
            ..
        } => {
            bind_expr(ctx, cond);
            bind_block(ctx, then_body);
            bind_block(ctx, else_body);
        }
        Stmt::Variant { arms, .. } => {
            for arm in arms {
                bind_block(ctx, arm);
            }
        }
    }
}

fn bind_expr(ctx: &GenCtx, expr: &mut Expr) {
    match expr {
        Expr::Str(s, span) => {
            if let Ok(l) = ctx.layer(s) {
                *expr = Expr::Layer(l, std::mem::take(s), *span);
            }
        }
        Expr::Call(call) => bind_call(ctx, call),
        Expr::Neg(inner, _) => bind_expr(ctx, inner),
        Expr::Binary { lhs, rhs, .. } => {
            bind_expr(ctx, lhs);
            bind_expr(ctx, rhs);
        }
        Expr::Number(..) | Expr::Var(..) | Expr::Layer(..) => {}
    }
}

fn bind_call(ctx: &GenCtx, call: &mut Call) {
    for e in &mut call.positional {
        bind_expr(ctx, e);
    }
    for (_, _, e) in &mut call.keyword {
        bind_expr(ctx, e);
    }
}
