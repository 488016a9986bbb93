//! Integration tests: the shipped generator programs lint clean, the
//! checked front-end gates execution on lint errors, and the analyzer is
//! fast enough to run on every invocation.

use amgen_core::GenCtx;
use amgen_dsl::stdlib;
use amgen_dsl::Interpreter;
use amgen_lint::{checked_run, has_errors, CheckError, Code, Linter, Severity};
use amgen_tech::Tech;

fn linter() -> Linter {
    let mut l = Linter::with_rules(Tech::bicmos_1u().compile_arc());
    l.load(stdlib::FIG2_CONTACT_ROW).unwrap();
    l
}

#[test]
fn stdlib_sources_lint_clean() {
    let l = linter();
    for (name, src) in stdlib::ALL {
        let diags = l.lint_source(src);
        assert!(
            diags.is_empty(),
            "{name} should lint clean, got:\n{}",
            amgen_lint::render_all(name, src, &diags)
        );
    }
}

#[test]
fn cross_source_set_shares_one_namespace() {
    let l = Linter::with_rules(Tech::bicmos_1u().compile_arc());
    // FIG7 calls ContactRow, defined in FIG2 — linted together they
    // resolve; alone, FIG7 reports unknown callees.
    let per_file = l.lint_set(&[
        ("fig2", stdlib::FIG2_CONTACT_ROW),
        ("fig7", stdlib::FIG7_DIFF_PAIR),
    ]);
    assert!(per_file.iter().all(|d| d.is_empty()), "{per_file:?}");

    let alone = l.lint_source(stdlib::FIG7_DIFF_PAIR);
    assert!(alone.iter().any(|d| d.code == Code::UnknownCallee));
}

#[test]
fn duplicate_entities_within_a_set_warn() {
    let l = Linter::new();
    let src_a = "ENT Foo(layer)\n  INBOX(layer)\n";
    let src_b = "ENT Foo(layer)\n  ARRAY(layer)\n";
    let per_file = l.lint_set(&[("a", src_a), ("b", src_b)]);
    assert!(per_file[0].is_empty(), "{:?}", per_file[0]);
    assert_eq!(per_file[1].len(), 1, "{:?}", per_file[1]);
    assert_eq!(per_file[1][0].code, Code::DuplicateEntity);
    // Redefining a *library* entity is the interpreter's reload
    // behaviour, not a duplicate.
    let mut l = Linter::new();
    l.load(src_a).unwrap();
    assert!(l.lint_source(src_b).is_empty());
}

#[test]
fn layer_param_inference_crosses_entities() {
    // `p` flows through Outer -> Inner -> INBOX, so the bad literal at
    // the outermost call site is caught.
    let src = "\
x = Outer(p = \"polyy\")

ENT Inner(q)
  INBOX(q)

ENT Outer(p)
  i = Inner(q = p)
  compact(i, EAST, \"poly\")
";
    let diags = linter().lint_source(src);
    assert!(
        diags
            .iter()
            .any(|d| d.code == Code::UnknownLayer && d.span.line == 1),
        "{diags:?}"
    );
}

#[test]
fn checked_run_gates_on_lint_errors() {
    let mut interp = Interpreter::new(GenCtx::from_tech(&Tech::bicmos_1u()));
    interp.load(stdlib::FIG2_CONTACT_ROW).unwrap();

    // Error: unknown layer never reaches the interpreter.
    let err = checked_run(&mut interp, "r = ContactRow(layer = \"polyy\")\n").unwrap_err();
    let CheckError::Lint(diags) = err else {
        panic!("expected lint gate, got {err:?}")
    };
    assert!(diags.iter().any(|d| d.code == Code::UnknownLayer));

    // Clean program runs.
    let out = checked_run(&mut interp, "r = ContactRow(layer = \"poly\", W = 4)\n").unwrap();
    assert!(out.contains_key("r"));
}

#[test]
fn every_code_has_distinct_text() {
    let mut seen = std::collections::HashSet::new();
    for c in Code::ALL {
        assert!(seen.insert(c.as_str()), "duplicate code {c}");
        assert_eq!(c.severity() == Severity::Error, c.as_str().starts_with('E'));
    }
}

#[test]
fn linting_the_full_program_set_is_fast() {
    // Acceptance: linting the full example set completes in < 50 ms.
    // Debug builds are ~10x slower than release; stay well under even so.
    let l = linter();
    let set: Vec<(&str, &str)> = vec![
        ("fig2", stdlib::FIG2_CONTACT_ROW),
        ("fig7", stdlib::FIG7_DIFF_PAIR),
        ("interdigit", stdlib::INTERDIGIT),
        ("stacked", stdlib::STACKED),
        ("centroid", stdlib::CENTROID_PLACEMENT),
        ("variant", stdlib::VARIANT_ROW),
    ];
    let t0 = std::time::Instant::now();
    let per_file = l.lint_set(&set);
    let elapsed = t0.elapsed();
    assert!(per_file.iter().all(|d| !has_errors(d)));
    assert!(
        elapsed.as_millis() < 250,
        "linting took {elapsed:?} (budget 250ms debug / 50ms release)"
    );
}
