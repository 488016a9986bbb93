//! Smoke test: every workload runs for about a second through the
//! library entry point, untraced and traced, and reports exactly the
//! metrics BENCHMARK.json names, with their units, and no failed
//! operation.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

use amgen::serve::json::{self, Json};
use amgen_e2e_bench::report::{Report, END_TO_END, PER_LAYER};
use amgen_e2e_bench::stats::percentile;
use amgen_e2e_bench::{run, Workload};

const WINDOW: Duration = Duration::from_secs(1);

/// `section` of BENCHMARK.json as name → unit.
fn declared(section: &str) -> BTreeMap<String, String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(metrics)) = doc.get(section) else {
        panic!("BENCHMARK.json lacks `{section}`");
    };
    metrics
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn assert_emits(report: &Report, section: &str) {
    let declared = declared(section);
    let emitted: BTreeMap<String, String> = report
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(
        emitted,
        declared,
        "{}: metrics differ from BENCHMARK.json",
        report.workload.name()
    );
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let table = |t: &[(&str, &str)]| -> BTreeMap<String, String> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), table(END_TO_END));
    assert_eq!(declared("per_layer"), table(PER_LAYER));
}

#[test]
fn every_workload_reports_every_metric_without_failures() {
    let trace_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    for workload in Workload::ALL {
        let name = workload.name();
        let plain = run(workload, 1, WINDOW, None).expect("untraced run");
        assert_emits(&plain, "end_to_end");
        assert!(plain.tally.attempted > 0, "{name}: nothing attempted");
        assert_eq!(plain.tally.failed, 0, "{name}: {:?}", plain.tally.failures);
        for m in &plain.metrics {
            // A one-second run (a debug build's above all) may be too
            // short for a p99; the refusal must then be explicit, never
            // a guess.
            let short = m.name == "latency_p99_ms"
                && percentile(&vec![0.0; m.samples as usize], 99.0).is_err();
            assert_eq!(m.value.is_some(), !short, "{name}: {m:?}");
        }

        let trace_file = trace_dir.join(format!("{name}.trace.json"));
        let traced = run(workload, 1, WINDOW, Some(&trace_file)).expect("traced run");
        assert_emits(&traced, "per_layer");
        assert!(traced.correct(), "{name}: {:?}", traced.tally.failures);
        let chrome = std::fs::read_to_string(&trace_file).expect("trace written");
        assert!(
            chrome.starts_with("{\"traceEvents\":["),
            "{name}: not Chrome JSON"
        );
        let value = |metric: &str| traced.metric(metric).and_then(|m| m.value).expect(metric);
        if matches!(workload, Workload::ServeWarm | Workload::ServeSweep) {
            for counter in [
                "serve.shed",
                "serve.protocol_errors",
                "serve.worker_panics",
                "serve.breaker_refused",
            ] {
                assert_eq!(value(counter), 0.0, "{name}: {counter}");
            }
            let share = value("serve.accounted_share");
            assert!(
                share > 0.0 && share <= 1.0,
                "{name}: accounted share {share}"
            );
        }
    }
}
