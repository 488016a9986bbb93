//! Property-based soundness gate for the certification pass: whenever
//! the abstract interpreter certifies a finite whole-run fuel bound for
//! a generated program, executing that program never consumes more —
//! and a budget sized off the certificate is never exhausted.
//!
//! Unlike the interpreter's fuel properties (`fuel_props.rs` in the DSL
//! crate), whose fully random programs nearly always carry lint errors,
//! these generators build programs that are well-formed *by
//! construction* — numeric expressions affine in the one entity
//! parameter, loops counting from 1, guarded decreasing self-recursion
//! — so the bulk of the cases actually carry a finite certificate to
//! falsify. Cases the pass refuses to bound (E501/W503) are skipped;
//! the property constrains the claims, not the coverage.

use amgen_core::{Budget, GenCtx};
use amgen_dsl::ast::{strip_spans, Program};
use amgen_dsl::costmodel::DEFAULT_MAX_VARIANTS;
use amgen_dsl::pretty::print_program;
use amgen_dsl::{DslError, Interpreter};
use amgen_lint::Linter;
use amgen_tech::Tech;
use proptest::prelude::*;

mod gen {
    use amgen_dsl::ast::{BinOp, Call, Entity, Expr, Param, Program, Stmt};
    use amgen_dsl::span::Span;
    use proptest::prelude::*;

    fn num(k: i64) -> Expr {
        Expr::Number(k as f64, Span::NONE)
    }

    fn var(name: &str) -> Expr {
        Expr::Var(name.to_string(), Span::NONE)
    }

    fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
            span: Span::NONE,
        }
    }

    /// Identifiers that can never collide with the entity parameter `n`.
    fn ident() -> impl Strategy<Value = String> {
        "[a-m][a-z0-9_]{0,5}".prop_map(|s| s)
    }

    /// Numeric expressions affine in `n`: `k`, `n - k`, `k + c*n`, and —
    /// occasionally — the non-affine `n * n` so the W503 path gets
    /// exercised too.
    fn arb_affine() -> impl Strategy<Value = Expr> {
        (0i64..12, 0i64..4, 0i64..8).prop_map(|(k, c, form)| match form {
            0..=2 => num(k),
            3 => bin(BinOp::Sub, var("n"), num(k)),
            4 => bin(BinOp::Mul, var("n"), var("n")),
            _ => bin(BinOp::Add, num(k), bin(BinOp::Mul, num(c), var("n"))),
        })
    }

    fn assign(name: String, value: Expr) -> Stmt {
        Stmt::Assign {
            name,
            value,
            span: Span::NONE,
        }
    }

    fn inbox() -> Stmt {
        Stmt::Call(Call {
            name: "INBOX".into(),
            positional: vec![Expr::Str("poly".into(), Span::NONE)],
            keyword: vec![],
            span: Span::NONE,
        })
    }

    /// Entity-body statements: assignments, `INBOX` shape calls, `FOR`
    /// loops counting from 1, and two-sided `IF`s.
    fn arb_body_stmt() -> impl Strategy<Value = Stmt> {
        let leaf = prop_oneof![
            (ident(), arb_affine()).prop_map(|(name, value)| assign(name, value)),
            Just(inbox()),
        ];
        leaf.prop_recursive(2, 6, 2, |inner| {
            prop_oneof![
                (
                    ident(),
                    arb_affine(),
                    prop::collection::vec(inner.clone(), 1..3)
                )
                    .prop_map(|(v, to, body)| Stmt::For {
                        var: v,
                        from: num(1),
                        to,
                        body,
                        span: Span::NONE,
                    }),
                (
                    arb_affine(),
                    arb_affine(),
                    prop::collection::vec(inner.clone(), 1..2),
                    prop::collection::vec(inner, 0..2)
                )
                    .prop_map(|(a, b, then_body, else_body)| Stmt::If {
                        cond: bin(BinOp::Gt, a, b),
                        then_body,
                        else_body,
                        span: Span::NONE,
                    }),
            ]
        })
    }

    /// The guarded decreasing self-call the measure check certifies:
    /// `IF n > 1 { q = E<i>(n = n - 1) }`.
    fn self_recursion(entity: &str) -> Stmt {
        Stmt::If {
            cond: bin(BinOp::Gt, var("n"), num(1)),
            then_body: vec![assign(
                "q".into(),
                Expr::Call(Call {
                    name: entity.to_string(),
                    positional: vec![],
                    keyword: vec![("n".into(), Span::NONE, bin(BinOp::Sub, var("n"), num(1)))],
                    span: Span::NONE,
                }),
            )],
            else_body: vec![],
            span: Span::NONE,
        }
    }

    /// Programs with 1–3 entities over one parameter `n`, possibly
    /// self-recursive with a decreasing measure, driven by top-level
    /// calls with small constant arguments.
    pub fn arb_program() -> impl Strategy<Value = Program> {
        (
            prop::collection::vec(
                (prop::collection::vec(arb_body_stmt(), 1..4), any::<bool>()),
                1..3,
            ),
            prop::collection::vec((0usize..16, 1i64..8), 1..4),
        )
            .prop_map(|(ents, top_calls)| {
                let entities: Vec<Entity> = ents
                    .into_iter()
                    .enumerate()
                    .map(|(i, (mut body, recursive))| {
                        let name = format!("E{i}");
                        if recursive {
                            body.push(self_recursion(&name));
                        }
                        Entity {
                            name,
                            params: vec![Param {
                                name: "n".into(),
                                optional: true,
                                span: Span::NONE,
                            }],
                            body,
                            span: Span::NONE,
                        }
                    })
                    .collect();
                let top = top_calls
                    .into_iter()
                    .enumerate()
                    .map(|(j, (pick, arg))| {
                        let callee = &entities[pick % entities.len()];
                        assign(
                            format!("t{j}"),
                            Expr::Call(Call {
                                name: callee.name.clone(),
                                positional: vec![],
                                keyword: vec![("n".into(), Span::NONE, num(arg))],
                                span: Span::NONE,
                            }),
                        )
                    })
                    .collect();
                Program { top, entities }
            })
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The certified whole-run fuel bound dominates the fuel any actual
    /// run consumes, and a budget with headroom above the certificate is
    /// never the reason a run stops.
    #[test]
    fn certified_fuel_dominates_measured_fuel(prog in gen::arb_program()) {
        let mut prog: Program = prog;
        strip_spans(&mut prog);
        let src = print_program(&prog);

        let linter = Linter::new();
        let (diags, report) = linter.certify_source(&src);
        // Refused or unbounded programs make no claim to falsify.
        // (`continue`, not `return`: the harness inlines this body in
        // its case loop, so `return` would abort the remaining cases.)
        if amgen_lint::has_errors(&diags) {
            continue;
        }
        let cert = match report.tops.first().and_then(|c| c.as_ref()) {
            Some(c) => c.clone(),
            None => continue,
        };
        let Some(certified) = cert.total_fuel(DEFAULT_MAX_VARIANTS).closed() else {
            continue;
        };
        let budget_fuel = (certified as u64).saturating_add(1_000);
        // Recursion headroom above the certificate too, so the only way
        // to exhaust this budget is a certification soundness bug.
        let budget_rec = cert
            .recursion
            .closed()
            .map_or(64, |v| v.max(0.0) as usize + 64);

        let ctx = GenCtx::from_tech(&Tech::bicmos_1u()).with_budget(
            Budget::unlimited()
                .with_dsl_fuel(budget_fuel)
                .with_max_recursion(budget_rec),
        );
        let mut interp = Interpreter::new(ctx.clone());
        let outcome = interp.run(&src).map(|_| ());

        // Soundness 1: the run never consumes more fuel than certified.
        let used = ctx.limits.fuel_used();
        prop_assert!(
            used as f64 <= certified,
            "measured fuel {used} > certified {certified}\n{src}"
        );
        // Soundness 2: with headroom above the certificate, fuel
        // exhaustion is impossible (other runtime errors are fine —
        // the certificate bounds cost, not success).
        if let Err(DslError::Gen(g)) = &outcome {
            prop_assert!(
                !g.is_budget_exhausted(),
                "budget exhausted despite certified bound {certified}: {g}\n{src}"
            );
        }
        // Shape soundness rides along: the generators only place shapes
        // through `INBOX`, one shape per executed call.
        if let Some(shapes) = cert.total_shapes(DEFAULT_MAX_VARIANTS).closed() {
            let generated = ctx.snapshot().shapes_generated;
            prop_assert!(
                generated as f64 <= shapes,
                "measured shapes {generated} > certified {shapes}\n{src}"
            );
        }
    }
}
