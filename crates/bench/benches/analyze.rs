//! Certification-pass throughput: run the full six-pass analysis —
//! symbols, kinds, layers, dead code, constants and cost certification
//! — over the repo's whole DSL corpus (every embedded stdlib library
//! source plus every `examples/*.amg` file, certified as one set with
//! the stdlib loaded as a library) and time one complete sweep.
//!
//! Doubles as the CI smoke gate on analysis latency: certifying the
//! 11+ sources must finish in <= 5 ms per sweep (fastest sample of 25,
//! release build; the method is [`amgen_bench::sample`]'s, so a sample
//! is the mean sweep time of a ~10 ms batch) — static certification
//! has to stay cheap enough to run on every `checked_run` admission, or
//! callers will be tempted to skip it. The bench also sanity-checks the
//! output: every corpus source certifies finite and error-free, so a
//! regression that makes the pass trivially refuse everything cannot
//! masquerade as a speedup.

use amgen::dsl::stdlib;
use amgen::lint::{CertifyOptions, CostReport, Diagnostic, Linter};
use amgen_bench::sample::{fmt_dur, series, Mode};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Duration;

/// One full corpus sweep: certify the stdlib sources as a set, then the
/// example files as a set with the stdlib loaded as a library — the
/// same shape `amgen-lint --certify --stdlib examples/*.amg` runs.
fn sweep(examples: &[(String, String)]) -> (Vec<Vec<Diagnostic>>, CostReport) {
    let linter = Linter::new().with_certify(CertifyOptions::default());
    let (mut diags, mut report) = linter.certify_set(&stdlib::ALL);

    let mut with_lib = Linter::new().with_certify(CertifyOptions::default());
    for (name, src) in stdlib::ALL {
        with_lib
            .load(src)
            .unwrap_or_else(|e| panic!("{name} failed to load: {e}"));
    }
    let files: Vec<(&str, &str)> = examples
        .iter()
        .map(|(n, s)| (n.as_str(), s.as_str()))
        .collect();
    let (ex_diags, ex_report) = with_lib.certify_set(&files);
    diags.extend(ex_diags);
    report.entities.extend(ex_report.entities);
    report.tops.extend(ex_report.tops);
    (diags, report)
}

fn main() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let mut examples: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("examples/ exists")
        .filter_map(|e| {
            let p = e.unwrap().path();
            (p.extension().is_some_and(|x| x == "amg")).then(|| {
                let name = p.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read_to_string(&p).unwrap())
            })
        })
        .collect();
    examples.sort();
    let sources = stdlib::ALL.len() + examples.len();
    assert!(
        sources >= 11,
        "corpus shrank to {sources} sources (want >= 11)"
    );

    // Output sanity before timing: the corpus certifies clean and every
    // top-level program carries a closed (numeric) certificate.
    let (diags, report) = sweep(&examples);
    for d in diags.iter().flatten() {
        assert!(!d.is_error(), "corpus no longer certifies clean: {d}");
    }
    let max_variants = amgen::dsl::costmodel::DEFAULT_MAX_VARIANTS;
    for (cert, (name, _)) in report.tops.iter().skip(stdlib::ALL.len()).zip(&examples) {
        let cert = cert
            .as_ref()
            .unwrap_or_else(|| panic!("{name}: no certificate"));
        assert!(
            cert.total_fuel(max_variants).closed().is_some(),
            "{name}: top-level fuel bound is not closed"
        );
    }

    let case = format!("certify_corpus_{sources}");
    let certify = Mode::new(&case, || {
        black_box(sweep(black_box(&examples)));
    });
    let lo = series("analyze", 25, &[certify]).fastest(0);
    println!(
        "{:<50} {} entities, {} top-level programs certified per sweep",
        "",
        report.entities.len(),
        report.tops.len()
    );

    // CI smoke: full-corpus certification stays under 5 ms. The fastest
    // sample is the reproducible statistic on a noisy shared machine.
    assert!(
        lo <= Duration::from_millis(5),
        "certifying {sources} sources took {} (budget 5 ms)",
        fmt_dur(lo)
    );
    println!("analyze smoke: {sources}-source certification sweep <= 5 ms");
}
