//! Run-to-run determinism over every example program: two independent
//! interpreter runs must produce byte-identical layouts (Debug
//! rendering included, so shape order, net numbering and port order all
//! count) and byte-identical lint diagnostics. This is the regression
//! net for HashMap-iteration-order leaks — a content-addressed cache
//! turns any such leak into a wrong-answer bug.

use std::collections::BTreeMap;
use std::sync::Arc;

use amgen_core::GenCtx;
use amgen_db::LayoutObject;
use amgen_dsl::interp::Interpreter;
use amgen_lint::Linter;
use amgen_tech::Tech;

fn examples() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");
    let mut sources: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("examples directory")
        .filter_map(|e| {
            let path = e.ok()?.path();
            (path.extension()? == "amg").then(|| {
                (
                    path.file_name().unwrap().to_string_lossy().into_owned(),
                    std::fs::read_to_string(&path).unwrap(),
                )
            })
        })
        .collect();
    sources.sort();
    assert!(!sources.is_empty(), "no .amg examples found in {dir}");
    sources
}

fn render(map: &BTreeMap<String, LayoutObject>) -> String {
    format!("{map:#?}")
}

#[test]
fn every_example_is_byte_identical_across_runs() {
    // One compiled ruleset for both runs: layer handles carry a
    // per-compile brand, and determinism is defined per technology.
    let rules = Tech::bicmos_1u().compile_arc();
    let all = examples();
    for (name, src) in examples() {
        let run = || {
            let mut interp = Interpreter::new(GenCtx::new(Arc::clone(&rules)));
            for (_, lib) in &all {
                interp.load(lib).unwrap();
            }
            render(&interp.run(&src).unwrap_or_else(|e| {
                panic!("example {name} failed: {e}");
            }))
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "layouts of {name} differ between runs");
    }
}

#[test]
fn every_example_lints_byte_identically_across_runs() {
    let rules = Tech::bicmos_1u().compile_arc();
    for (name, src) in examples() {
        let run = || {
            Linter::with_rules(Arc::clone(&rules))
                .lint_source(&src)
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "diagnostics of {name} differ between runs");
    }
}

/// The same programs run warm against a shared cache: the cached result
/// must render byte-identically to the cold one (cache transparency at
/// the whole-program level).
#[test]
fn every_example_is_cache_transparent() {
    let rules = Tech::bicmos_1u().compile_arc();
    let all = examples();
    for (name, src) in examples() {
        let ctx = GenCtx::new(Arc::clone(&rules)).with_default_cache();
        let mut interp = Interpreter::new(ctx);
        for (_, lib) in &all {
            interp.load(lib).unwrap();
        }
        let cold = render(&interp.run(&src).unwrap());
        let warm = render(&interp.run(&src).unwrap());
        assert_eq!(cold, warm, "cached rerun of {name} differs");

        let mut fresh = Interpreter::new(GenCtx::new(Arc::clone(&rules)));
        for (_, lib) in &all {
            fresh.load(lib).unwrap();
        }
        let uncached = render(&fresh.run(&src).unwrap());
        assert_eq!(cold, uncached, "cached run of {name} differs from uncached");
    }
}
