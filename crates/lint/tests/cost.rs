//! The certification pass end to end: stdlib and example programs
//! certify affine-finite, the certified bounds dominate what the
//! interpreter actually measures, and programs the certificate proves
//! too expensive are refused at admission without executing a statement.

use amgen_core::{Budget, GenCtx};
use amgen_dsl::{stdlib, DslError, Interpreter};
use amgen_lint::{checked_run, CertifyOptions, CheckError, Code, Linter};
use amgen_tech::Tech;

/// A linter with the technology bound and the whole stdlib preloaded.
fn stdlib_linter() -> Linter {
    let mut l = Linter::with_rules(Tech::bicmos_1u().compile_arc());
    for (_, lib) in stdlib::ALL {
        l.load(lib).unwrap();
    }
    l
}

/// Top-level driver calls exercising every stdlib module, in the shapes
/// the paper uses them (Figs. 2, 3, 7 and the block-E placement).
const DRIVERS: [&str; 7] = [
    "row = ContactRow(layer = \"poly\", W = 10)\n",
    "diff = DiffPair(W = 10, L = 2)\n",
    "x = Interdigit(n = 4, W = 8, L = 2)\n",
    "x = Stacked(n = 3, W = 8, L = 2)\n",
    "e = CentroidE(side = 2, center = 2, W = 8, L = 1)\n",
    "r = FlexRow(layer = \"poly\", S = 12)\n",
    "FOR i = 1 TO 6\n  x = ContactRow(layer = \"poly\", W = i + 4)\nEND\n",
];

#[test]
fn stdlib_entities_certify_affine_finite() {
    let l = stdlib_linter();
    // Certifying an empty top still analyzes the whole library.
    let (diags, report) = l.certify_source("\n");
    assert!(diags.is_empty(), "{diags:?}");
    assert!(!report.entities.is_empty());
    for (name, c) in &report.entities {
        assert!(c.fuel.is_finite(), "{name}: fuel unbounded");
        assert!(c.compact_steps.is_finite(), "{name}: steps unbounded");
        assert!(c.shapes.is_finite(), "{name}: shapes unbounded");
        assert!(c.recursion.is_finite(), "{name}: recursion unbounded");
        assert!(c.variant_runs.is_finite(), "{name}: runs unbounded");
    }
    // Spot checks against the sources: ContactRow is three statements
    // with no compaction; DiffPair compacts five times per run, three
    // directly and one in each of two Trans calls.
    let row = &report.entities["ContactRow"];
    assert_eq!(row.fuel.affine().unwrap().as_constant(), Some(3.0));
    assert_eq!(row.compact_steps.affine().unwrap().as_constant(), Some(0.0));
    let pair = &report.entities["DiffPair"];
    assert_eq!(
        pair.compact_steps.affine().unwrap().as_constant(),
        Some(5.0)
    );
    assert_eq!(pair.recursion.affine().unwrap().as_constant(), Some(2.0));
}

#[test]
fn example_files_certify_clean_as_a_set() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let mut sources: Vec<(String, String)> = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) == Some("amg") {
            let name = path.file_name().unwrap().to_string_lossy().to_string();
            sources.push((name, std::fs::read_to_string(&path).unwrap()));
        }
    }
    assert!(sources.len() >= 4, "examples/*.amg went missing");
    let set: Vec<(&str, &str)> = sources
        .iter()
        .map(|(n, s)| (n.as_str(), s.as_str()))
        .collect();
    let l = Linter::with_rules(Tech::bicmos_1u().compile_arc());
    let (per_file, report) = l.certify_set(&set);
    for ((name, _), diags) in sources.iter().zip(&per_file) {
        assert!(diags.is_empty(), "{name}: {diags:?}");
    }
    assert_eq!(report.tops.len(), sources.len());
    for ((name, _), top) in sources.iter().zip(&report.tops) {
        let c = top.as_ref().unwrap_or_else(|| panic!("{name}: no cert"));
        assert!(c.fuel.is_finite(), "{name}: fuel unbounded");
        // Example tops call with constant arguments, so the whole-run
        // totals close to plain numbers.
        assert!(c.total_fuel(64).closed().is_some(), "{name}: open fuel");
    }
}

/// The soundness gate: for every driver, the certified whole-run totals
/// must dominate what the interpreter's metrics actually measure.
#[test]
fn certified_bounds_dominate_measured_costs() {
    let tech = Tech::bicmos_1u();
    let linter = stdlib_linter();
    for driver in DRIVERS {
        let (diags, report) = linter.certify_source(driver);
        assert!(
            !amgen_lint::has_errors(&diags),
            "{}: {diags:?}",
            driver.trim()
        );
        let cert = report.tops[0].as_ref().expect("driver certifies");

        let ctx = GenCtx::from_tech(&tech);
        let mut interp = Interpreter::new(ctx.clone());
        for (_, lib) in stdlib::ALL {
            interp.load(lib).unwrap();
        }
        interp.run(driver).unwrap_or_else(|e| {
            panic!("{}: driver must run: {e}", driver.trim());
        });

        let mv = interp.max_variants;
        let fuel = cert.total_fuel(mv).closed().expect("closed fuel");
        let steps = cert.total_compact_steps(mv).closed().expect("closed steps");
        let shapes = cert.total_shapes(mv).closed().expect("closed shapes");
        let snap = ctx.snapshot();
        let used = ctx.limits.fuel_used();
        assert!(
            used as f64 <= fuel,
            "{}: measured fuel {used} > certified {fuel}",
            driver.trim()
        );
        assert!(
            ctx.limits.compact_steps() as f64 <= steps,
            "{}: measured steps {} > certified {steps}",
            driver.trim(),
            ctx.limits.compact_steps()
        );
        assert!(
            snap.shapes_generated as f64 <= shapes,
            "{}: measured shapes {} > certified {shapes}",
            driver.trim(),
            snap.shapes_generated
        );
        // The certificate is a bound, not an oracle — but it should not
        // be vacuous either: a completed run consumes at least fuel_lo.
        assert!(
            used as f64 >= cert.fuel_lo,
            "{}: measured fuel {used} below the certified lower bound {}",
            driver.trim(),
            cert.fuel_lo
        );
    }
}

/// A constant fuel bomb is refused at admission: the certificate proves
/// the loop exceeds the budget, so not a single statement executes.
#[test]
fn fuel_bomb_is_rejected_before_executing() {
    let tech = Tech::bicmos_1u();
    let ctx = GenCtx::from_tech(&tech).with_budget(
        Budget::unlimited()
            .with_dsl_fuel(1_000)
            .with_max_recursion(32),
    );
    let mut interp = Interpreter::new(ctx.clone());
    let src = "FOR i = 1 TO 100000\n  x = i\nEND\n";
    let err = checked_run(&mut interp, src).expect_err("bomb must be refused");
    match &err {
        CheckError::Admission { estimate, reason } => {
            assert!(estimate.fuel.unwrap() > 1_000, "{estimate:?}");
            assert!(reason.contains("fuel"), "{reason}");
        }
        other => panic!("expected admission refusal, got: {other}"),
    }
    assert_eq!(ctx.limits.fuel_used(), 0, "refusal must precede execution");
    assert_eq!(ctx.snapshot().shapes_generated, 0);
}

/// An unboundedly recursive program is refused by lint (E501) — also
/// without executing anything.
#[test]
fn recursion_bomb_is_rejected_by_lint() {
    let tech = Tech::bicmos_1u();
    let ctx = GenCtx::from_tech(&tech);
    let mut interp = Interpreter::new(ctx.clone());
    let src = "x = ERec(1)\n\nENT ERec(<n>)\n  y = ERec(n + 1)\n";
    let err = checked_run(&mut interp, src).expect_err("recursion bomb must be refused");
    match &err {
        CheckError::Lint(diags) => {
            assert!(
                diags.iter().any(|d| d.code == Code::UnboundedRecursion),
                "{diags:?}"
            );
        }
        other => panic!("expected a lint refusal, got: {other}"),
    }
    assert_eq!(ctx.limits.fuel_used(), 0);
}

/// Bounded recursion with a decreasing measure passes admission and runs.
#[test]
fn bounded_recursion_is_admitted_and_runs() {
    let tech = Tech::bicmos_1u();
    let ctx = GenCtx::from_tech(&tech).with_budget(
        Budget::unlimited()
            .with_dsl_fuel(1_000)
            .with_max_recursion(32),
    );
    let mut interp = Interpreter::new(ctx.clone());
    let src = "\
x = ECount(n = 5)

ENT ECount(<n>)
  INBOX(\"poly\", W = n + 1)
  IF n > 1
    y = ECount(n = n - 1)
  END
";
    checked_run(&mut interp, src).unwrap();
    assert!(ctx.limits.fuel_used() > 0);
}

/// A program with no static bound (W503) still runs under the dynamic
/// budget — the certificate makes no claim rather than a false one.
#[test]
fn statically_unbounded_programs_still_run_dynamically() {
    let tech = Tech::bicmos_1u();
    let ctx = GenCtx::from_tech(&tech).with_budget(
        Budget::unlimited()
            .with_dsl_fuel(10_000)
            .with_max_recursion(32),
    );
    let mut interp = Interpreter::new(ctx.clone());
    // n * n trips: not affine, so W503 — a warning, not an error.
    let src = "\
x = ESq(n = 3)

ENT ESq(<n>)
  FOR i = 1 TO n * n
    INBOX(\"poly\")
  END
";
    let linter = {
        let mut l = Linter::with_rules(Tech::bicmos_1u().compile_arc());
        l.load(src).unwrap();
        l
    };
    let (diags, _) = linter.certify_source(src);
    assert!(
        diags.iter().any(|d| d.code == Code::NoStaticBound),
        "{diags:?}"
    );
    checked_run(&mut interp, src).unwrap();
    assert!(ctx.limits.fuel_used() > 9, "the loop really ran");
}

/// E502 fires only when a fuel limit is configured for certification,
/// and flags loops certain to exhaust it.
#[test]
fn certain_exhaustion_needs_a_configured_fuel() {
    let src = "FOR i = 1 TO 20000\n  x = i\nEND\n";
    let lax = Linter::new();
    let (diags, _) = lax.certify_source(src);
    assert!(
        !diags.iter().any(|d| d.code == Code::CertainExhaustion),
        "{diags:?}"
    );
    let strict = Linter::new().with_certify(CertifyOptions {
        fuel: Some(10_000),
        ..CertifyOptions::default()
    });
    let (diags, _) = strict.certify_source(src);
    assert!(
        diags
            .iter()
            .any(|d| d.code == Code::CertainExhaustion && d.is_error()),
        "{diags:?}"
    );
}

// ----- spanless-diagnostic regressions ----------------------------------

/// Runtime errors synthesized without a source location must not claim
/// "line 0".
#[test]
fn line_zero_runtime_errors_render_without_a_location() {
    let with_line = DslError::Runtime {
        line: 7,
        message: "boom".into(),
    };
    assert_eq!(with_line.to_string(), "line 7: boom");
    let without = DslError::Runtime {
        line: 0,
        message: "boom".into(),
    };
    assert_eq!(without.to_string(), "boom");
}

/// Scope-level certification findings carry no span; they must render
/// with a bare file arrow, never `file:0:0`.
#[test]
fn spanless_certification_findings_render_cleanly() {
    let l = Linter::new().with_certify(CertifyOptions {
        fuel: Some(10),
        ..CertifyOptions::default()
    });
    // No single loop exceeds the limit — the straight-line sequence
    // does — so the E502 lands at scope level with no span.
    let src =
        "a = 1\nb = 2\nc = 3\nd = 4\ne = 5\nf = 6\ng = 7\nh = 8\ni = 9\nj = 10\nk = 11\nl = 12\n";
    let diags = l.lint_source(src);
    let e502 = diags
        .iter()
        .find(|d| d.code == Code::CertainExhaustion)
        .unwrap_or_else(|| panic!("{diags:?}"));
    let rendered = amgen_lint::render("t.amg", src, e502);
    assert!(rendered.contains(" --> t.amg\n"), "{rendered}");
    assert!(!rendered.contains(":0"), "{rendered}");
}
