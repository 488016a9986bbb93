//! Metric names and units, and the two JSON lines a run prints: the
//! full report (values, units, sample counts, failures) and, last, the
//! result line `{"correct","attempted","failed","metrics"}`.

use std::collections::BTreeMap;
use std::path::PathBuf;

use amgen::core::{MetricsSnapshot, Stage};
use amgen::serve::json::Json;

use crate::check::Tally;
use crate::stats::timings;
use crate::Workload;

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
/// `BENCHMARK.json` lists the same names, units and their bounds.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, from the traced run: `(name, unit)`. A layer a
/// workload never reaches reports 0 with 0 samples. Times are means per
/// measured operation.
pub const PER_LAYER: &[(&str, &str)] = &[
    // The served request path, replayed in-process layer by layer.
    ("serve.decode_us", "us"),
    ("dsl.setup_us", "us"),
    ("lint.certify_us", "us"),
    ("lint.admit_us", "us"),
    ("dsl.run_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.checked_run_us", "us"),
    ("serve.client_us", "us"),
    ("serve.residual_us", "us"),
    ("serve.accounted_share", "share"),
    ("serve.resp_kib", "KiB"),
    ("serve.resp_over_8k_share", "share"),
    ("lint.refused_share", "share"),
    ("dsl.fuel_per_op", "count"),
    ("dsl.shapes_per_op", "count"),
    ("serve.shed", "count"),
    ("serve.protocol_errors", "count"),
    ("serve.worker_panics", "count"),
    ("serve.breaker_refused", "count"),
    ("cache.hit_ratio", "share"),
    ("cache.evicted_per_kop", "count"),
    // The program's own per-stage wall time (`MetricsSnapshot`).
    ("stage.prim_us", "us"),
    ("stage.compact_us", "us"),
    ("stage.drc_us", "us"),
    ("stage.extract_us", "us"),
    ("stage.route_us", "us"),
    ("stage.modgen_us", "us"),
    ("stage.dsl_us", "us"),
    ("prim.objects_per_op", "count"),
    // Native generation and sign-off.
    ("modgen.gen_us", "us"),
    ("modgen.shapes_per_op", "count"),
    ("db.assemble_us", "us"),
    ("drc.check_us", "us"),
    ("drc.latchup_us", "us"),
    ("drc.violations", "count"),
    ("extract.connectivity_us", "us"),
    ("extract.nets_per_op", "count"),
    // The machine: median time of the reference kernel the native
    // workloads scale their end-to-end times by.
    ("machine.reference_ms", "ms"),
    // Set-up layers.
    ("tech.compile_us", "us"),
    ("amp.build_ms", "ms"),
    ("serve.start_ms", "ms"),
    // Traced throughput; against the untraced run it gives the overhead.
    ("trace.throughput_ops_s", "ops/s"),
];

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The value; `None` when it could not be measured (a p99 without
    /// enough samples), which fails the run.
    pub value: Option<f64>,
    /// Samples the value rests on.
    pub samples: u64,
}

/// Metric values collected by a workload, keyed by name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, (Option<f64>, u64)>);

impl Values {
    /// Sets a metric value and its sample count.
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        self.0.insert(name, (Some(value), samples));
    }

    /// Marks a metric as measured but unavailable.
    pub fn missing(&mut self, name: &'static str, samples: u64) {
        self.0.insert(name, (None, samples));
    }
}

/// The outcome of one run of one workload.
#[derive(Debug)]
pub struct Report {
    /// The workload run.
    pub workload: Workload,
    /// Its input seed.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// True for the traced run (per-layer metrics).
    pub traced: bool,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// The Chrome trace written by a traced run.
    pub trace_file: Option<PathBuf>,
    /// Median time of the reference kernel, ms, on the workloads that
    /// scale their times by it (`machine.reference_ms`).
    pub reference_ms: Option<f64>,
}

impl Report {
    /// Orders `values` by the metric table of the run kind. End-to-end
    /// metrics a workload did not set are missing; per-layer metrics it
    /// did not set belong to layers it never reaches and read 0.
    pub fn new(
        workload: Workload,
        seed: u64,
        seconds: f64,
        traced: bool,
        tally: Tally,
        values: Values,
    ) -> Report {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let metrics = table
            .iter()
            .map(|&(name, unit)| {
                let (value, samples) = match values.0.get(name) {
                    Some(&v) => v,
                    None if traced => (Some(0.0), 0),
                    None => (None, 0),
                };
                Metric {
                    name,
                    unit,
                    value: value.filter(|v| v.is_finite()),
                    samples,
                }
            })
            .collect();
        Report {
            workload,
            seed,
            seconds,
            traced,
            tally,
            metrics,
            trace_file: None,
            reference_ms: values.0.get("machine.reference_ms").and_then(|v| v.0),
        }
    }

    /// A metric by name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// True when every operation passed its check and every metric was
    /// measured.
    pub fn correct(&self) -> bool {
        self.tally.attempted > 0
            && self.tally.failed == 0
            && self.metrics.iter().all(|m| m.value.is_some())
    }

    /// The full report, one JSON line: every metric with unit and
    /// sample count, the failures, and the trace file.
    pub fn document(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let entry = Json::obj([
                    ("value", m.value.map_or(Json::Null, Json::from)),
                    ("unit", Json::from(m.unit)),
                    ("samples", Json::from(m.samples)),
                ]);
                (m.name.to_string(), entry)
            })
            .collect();
        let mut doc = BTreeMap::new();
        doc.insert("workload".to_string(), Json::from(self.workload.name()));
        doc.insert("seed".to_string(), Json::from(self.seed));
        doc.insert("seconds".to_string(), Json::from(self.seconds));
        doc.insert("traced".to_string(), Json::from(self.traced));
        doc.insert("attempted".to_string(), Json::from(self.tally.attempted));
        doc.insert("failed".to_string(), Json::from(self.tally.failed));
        doc.insert(
            "failures".to_string(),
            Json::Arr(
                self.tally
                    .failures
                    .iter()
                    .map(|f| Json::from(f.as_str()))
                    .collect(),
            ),
        );
        doc.insert("metrics".to_string(), Json::Obj(metrics));
        if let Some(ms) = self.reference_ms {
            doc.insert("reference_ms".to_string(), Json::from(ms));
        }
        if let Some(path) = &self.trace_file {
            doc.insert(
                "trace_file".to_string(),
                Json::from(path.display().to_string()),
            );
        }
        Json::Obj(doc).to_string()
    }

    /// The result line: `correct`, `attempted`, `failed` and each
    /// metric's value and unit.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .filter_map(|m| {
                let value = m.value?;
                let entry = Json::obj([("value", Json::from(value)), ("unit", Json::from(m.unit))]);
                Some((m.name.to_string(), entry))
            })
            .collect();
        Json::obj([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.tally.attempted)),
            ("failed", Json::from(self.tally.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_string()
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Sets `peak_rss_mb`. Called once the window has closed and before the
/// benchmark loads or copies its per-operation records, whose size
/// follows the operation count rather than the program's memory.
pub fn set_peak_rss(values: &mut Values) {
    if let Some(rss) = peak_rss_mib() {
        values.set("peak_rss_mb", rss, 1);
    }
}

/// Sets the timings every workload measures the same way once its
/// window has closed: throughput, p50 and p99 latency ([`timings`]).
/// `done` holds each measured operation's completion time (seconds
/// since the window opened) and latency (ms).
pub fn set_timings(values: &mut Values, done: &[(f64, f64)]) {
    let n = done.len() as u64;
    match timings(done) {
        Some(t) => {
            values.set("throughput_ops_s", t.throughput, n);
            values.set("trace.throughput_ops_s", t.throughput, n);
            values.set("latency_p50_ms", t.p50, n);
            match t.p99 {
                Ok(v) => values.set("latency_p99_ms", v, n),
                Err(_) => values.missing("latency_p99_ms", n),
            }
        }
        None => {
            for name in ["throughput_ops_s", "latency_p50_ms", "latency_p99_ms"] {
                values.missing(name, n);
            }
        }
    }
}

/// Per-operation stage times and counts from context counters that
/// cover `ops` operations.
pub fn set_stage_values(snaps: &[MetricsSnapshot], ops: u64, values: &mut Values) {
    let per_op = |f: &dyn Fn(&MetricsSnapshot) -> u64| {
        snaps.iter().map(f).sum::<u64>() as f64 / ops.max(1) as f64
    };
    for (stage, name) in [
        (Stage::Prim, "stage.prim_us"),
        (Stage::Compact, "stage.compact_us"),
        (Stage::Drc, "stage.drc_us"),
        (Stage::Extract, "stage.extract_us"),
        (Stage::Route, "stage.route_us"),
        (Stage::Modgen, "stage.modgen_us"),
        (Stage::Dsl, "stage.dsl_us"),
    ] {
        values.set(name, per_op(&|s| s.stage_nanos(stage)) / 1e3, ops);
    }
    values.set("prim.objects_per_op", per_op(&|s| s.objects_placed), ops);
    values.set(
        "cache.evicted_per_kop",
        per_op(&|s| s.cache_evicted) * 1e3,
        ops,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        for name in names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn missing_end_to_end_metric_fails_the_run() {
        let mut tally = Tally::default();
        tally.record(Ok(()));
        let mut values = Values::default();
        for (name, _) in END_TO_END {
            values.set(name, 1.5, 10);
        }
        let ok = Report::new(Workload::ServeWarm, 1, 1.0, false, tally.clone(), values);
        assert!(ok.correct());
        assert!(ok
            .result_line()
            .starts_with(r#"{"attempted":1,"correct":true"#));

        let mut values = Values::default();
        values.set("setup_s", 1.5, 10);
        values.missing("latency_p99_ms", 999);
        let short = Report::new(Workload::ServeWarm, 1, 1.0, false, tally, values);
        assert!(!short.correct());
        assert_eq!(short.metric("latency_p99_ms").unwrap().samples, 999);
        assert!(short
            .document()
            .contains(r#""latency_p99_ms":{"samples":999,"unit":"ms","value":null}"#));
    }

    #[test]
    fn unreached_layers_read_zero() {
        let mut tally = Tally::default();
        tally.record(Ok(()));
        let report = Report::new(
            Workload::ChipSignoff,
            1,
            1.0,
            true,
            tally,
            Values::default(),
        );
        assert!(report.correct());
        assert_eq!(report.metric("serve.decode_us").unwrap().value, Some(0.0));
    }
}
