//! Fuel-budget properties of the interpreter: any generator program run
//! under a finite fuel budget terminates — with its objects or with a
//! typed budget error — never by panicking or hanging. This includes
//! unbounded `FOR` ranges and (mutually) recursive entity calls.

use amgen_core::{Budget, GenCtx, GenErrorKind, Resource};
use amgen_dsl::ast::{strip_spans, Program};
use amgen_dsl::pretty::print_program;
use amgen_dsl::{DslError, Interpreter};
use amgen_tech::Tech;
use proptest::prelude::*;

/// Runs `src` under a fuel budget and bounded recursion, returning the
/// fuel actually consumed alongside the outcome.
fn run_with_fuel(src: &str, fuel: u64) -> (u64, Result<(), DslError>) {
    let tech = Tech::bicmos_1u();
    let ctx = GenCtx::from_tech(&tech).with_budget(
        Budget::unlimited()
            .with_dsl_fuel(fuel)
            .with_max_recursion(32),
    );
    let mut interp = Interpreter::new(ctx.clone());
    let outcome = interp.run(src).map(|_| ());
    (ctx.limits.fuel_used(), outcome)
}

/// `true` when the error is the typed budget signal (fuel or recursion).
fn is_budget(e: &DslError) -> bool {
    matches!(e, DslError::Gen(g) if g.is_budget_exhausted())
}

// The same program-shape strategies as `props.rs`, re-declared here
// because integration tests cannot share modules. Kept small: the fuel
// property only needs structurally diverse programs, not deep ones.
mod gen {
    use amgen_dsl::ast::{BinOp, Call, Entity, Expr, Param, Program, Stmt};
    use amgen_dsl::span::Span;
    use proptest::prelude::*;

    fn ident() -> impl Strategy<Value = String> {
        "[a-z][a-z0-9_]{0,6}".prop_map(|s| s)
    }

    fn arb_expr() -> impl Strategy<Value = Expr> {
        let leaf = prop_oneof![
            (0i64..1000).prop_map(|n| Expr::Number(n as f64, Span::NONE)),
            "[a-z]{1,8}".prop_map(|s| Expr::Str(s, Span::NONE)),
            ident().prop_map(|v| Expr::Var(v, Span::NONE)),
        ];
        leaf.prop_recursive(2, 8, 2, |inner| {
            (
                inner.clone(),
                inner,
                prop_oneof![Just(BinOp::Add), Just(BinOp::Sub), Just(BinOp::Mul)],
            )
                .prop_map(|(a, b, op)| Expr::Binary {
                    op,
                    lhs: Box::new(a),
                    rhs: Box::new(b),
                    span: Span::NONE,
                })
        })
    }

    fn arb_stmt() -> impl Strategy<Value = Stmt> {
        let leaf = prop_oneof![
            (ident(), arb_expr()).prop_map(|(name, value)| Stmt::Assign {
                name,
                value,
                span: Span::NONE,
            }),
            (ident(), prop::collection::vec(arb_expr(), 0..2)).prop_map(|(name, positional)| {
                Stmt::Call(Call {
                    name: format!("E{name}"),
                    positional,
                    keyword: vec![],
                    span: Span::NONE,
                })
            }),
        ];
        leaf.prop_recursive(2, 6, 2, |inner| {
            prop_oneof![
                (
                    ident(),
                    arb_expr(),
                    arb_expr(),
                    prop::collection::vec(inner.clone(), 1..3)
                )
                    .prop_map(|(var, from, to, body)| Stmt::For {
                        var,
                        from,
                        to,
                        body,
                        span: Span::NONE,
                    }),
                (
                    arb_expr(),
                    prop::collection::vec(inner.clone(), 1..2),
                    prop::collection::vec(inner, 0..2)
                )
                    .prop_map(|(cond, then_body, else_body)| Stmt::If {
                        cond,
                        then_body,
                        else_body,
                        span: Span::NONE,
                    }),
            ]
        })
    }

    /// Programs whose entities may call each other (including cycles):
    /// every `E`-prefixed call resolves to one of the generated entities,
    /// so recursion genuinely happens instead of failing name lookup.
    pub fn arb_program() -> impl Strategy<Value = Program> {
        (
            prop::collection::vec(arb_stmt(), 0..4),
            prop::collection::vec((ident(), prop::collection::vec(arb_stmt(), 1..4)), 1..3),
        )
            .prop_map(|(top, ents)| {
                let names: Vec<String> = ents.iter().map(|(n, _)| format!("E{n}")).collect();
                let mut program = Program {
                    top,
                    entities: ents
                        .into_iter()
                        .map(|(name, body)| Entity {
                            name: format!("E{name}"),
                            params: vec![Param {
                                name: "n".into(),
                                optional: true,
                                span: Span::NONE,
                            }],
                            body,
                            span: Span::NONE,
                        })
                        .collect(),
                };
                // Retarget every entity-looking call at a real entity so
                // the interpreter actually descends instead of erroring.
                fn retarget(stmts: &mut [Stmt], names: &[String]) {
                    for s in stmts {
                        match s {
                            Stmt::Call(c) => {
                                let i = c.name.len() % names.len();
                                c.name = names[i].clone();
                            }
                            Stmt::For { body, .. } => retarget(body, names),
                            Stmt::If {
                                then_body,
                                else_body,
                                ..
                            } => {
                                retarget(then_body, names);
                                retarget(else_body, names);
                            }
                            _ => {}
                        }
                    }
                }
                retarget(&mut program.top, &names);
                let entities = std::mem::take(&mut program.entities);
                program.entities = entities
                    .into_iter()
                    .map(|mut e| {
                        retarget(&mut e.body, &names);
                        e
                    })
                    .collect();
                program
            })
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary programs — including ones whose entities call each other
    /// in cycles — are total under finite fuel: the run returns Ok or an
    /// error, robustness errors are typed, and consumption never exceeds
    /// the budget by more than the final charge.
    #[test]
    fn arbitrary_programs_are_total_under_fuel(
        prog in gen::arb_program(),
        fuel in 1u32..3_000,
    ) {
        let mut prog: Program = prog;
        strip_spans(&mut prog);
        let src = print_program(&prog);
        let fuel = u64::from(fuel);
        let (used, outcome) = run_with_fuel(&src, fuel);
        if let Err(DslError::Gen(g)) = &outcome {
            prop_assert!(
                g.is_budget_exhausted() || g.is_cancelled(),
                "typed error must be a budget signal, got: {}", g
            );
        }
        prop_assert!(used <= fuel.saturating_add(1), "fuel overshoot: {} > {}", used, fuel);
    }

    /// A loop far larger than the budget exhausts fuel with the typed
    /// error instead of running to completion or hanging.
    #[test]
    fn huge_loops_exhaust_fuel(
        n in 100_000i64..5_000_000,
        fuel in 10u32..2_000,
    ) {
        let src = format!("FOR i = 1 TO {n}\n  x = i\nEND\n");
        let fuel = u64::from(fuel);
        let (used, outcome) = run_with_fuel(&src, fuel);
        let err = outcome.expect_err("loop body alone outweighs the budget");
        prop_assert!(is_budget(&err), "expected budget exhaustion, got: {}", err);
        match &err {
            DslError::Gen(g) => prop_assert!(matches!(
                g.kind,
                GenErrorKind::BudgetExhausted(Resource::DslFuel)
            )),
            other => prop_assert!(false, "unexpected error shape: {}", other),
        }
        prop_assert!(used <= fuel + 1);
    }

    /// Self-recursive and mutually recursive entities terminate with a
    /// typed budget error (fuel or recursion depth), never a stack
    /// overflow.
    #[test]
    fn unbounded_recursion_is_cut_off(fuel in 50u32..5_000, mutual in any::<bool>()) {
        let src = if mutual {
            "x = EPing(1)\n\nENT EPing(<n>)\n  a = EPong(n + 1)\n\nENT EPong(<n>)\n  b = EPing(n + 1)\n"
        } else {
            "x = ERec(1)\n\nENT ERec(<n>)\n  y = ERec(n + 1)\n"
        };
        let (_, outcome) = run_with_fuel(src, u64::from(fuel));
        let err = outcome.expect_err("unbounded recursion cannot succeed");
        prop_assert!(is_budget(&err), "expected a typed budget error, got: {}", err);
    }
}
