//! Per-layer accounting from spans. The benchmark times each layer from
//! outside, by opening an `amgen-trace` span around the public call the
//! layer exposes; the spans are folded into per-name totals as the run
//! goes, and the first events are kept for the Chrome trace file.

use std::collections::BTreeMap;
use std::path::Path;

use amgen::trace::{Event, Phase, Trace, TraceSink};

use crate::report::{Values, PER_LAYER};

/// Events kept for the Chrome file; later ones only feed the totals, so
/// a long traced run stays small in memory.
const KEPT_EVENTS: usize = 60_000;

/// Operations between folds of the sink into the totals.
const FOLD_EVERY: u64 = 256;

/// A span sink plus the running per-span-name totals.
pub struct Layers {
    sink: TraceSink,
    /// Span name → (spans, total nanoseconds).
    totals: BTreeMap<String, (u64, u64)>,
    kept: Trace,
    ops: u64,
}

impl Layers {
    /// A recorder, switched on when `enabled` (off, every span is one
    /// relaxed load and records nothing).
    pub fn new(enabled: bool) -> Layers {
        let sink = TraceSink::new();
        sink.set_enabled(enabled);
        Layers {
            sink,
            totals: BTreeMap::new(),
            kept: Trace::default(),
            ops: 0,
        }
    }

    /// The sink spans are opened on (shared by client threads).
    pub fn sink(&self) -> &TraceSink {
        &self.sink
    }

    /// True when spans are recorded.
    pub fn enabled(&self) -> bool {
        self.sink.enabled()
    }

    /// Marks one operation finished on the calling thread, folding the
    /// recorded spans now and then.
    pub fn end_op(&mut self) {
        self.ops += 1;
        if self.ops.is_multiple_of(FOLD_EVERY) {
            self.fold();
        }
    }

    /// Drains the sink into the totals. Spans record begin and end
    /// together when they close, so every drained begin has its end.
    pub fn fold(&mut self) {
        if !self.sink.enabled() {
            return;
        }
        let trace = self.sink.drain();
        let mut open: BTreeMap<u32, Vec<(&str, u64)>> = BTreeMap::new();
        for e in &trace.events {
            match e.phase {
                Phase::Begin => open
                    .entry(e.tid)
                    .or_default()
                    .push((e.name.as_str(), e.t_ns)),
                Phase::End => {
                    if let Some((name, t0)) = open.get_mut(&e.tid).and_then(Vec::pop) {
                        let slot = self.totals.entry(name.to_string()).or_default();
                        slot.0 += 1;
                        slot.1 += e.t_ns.saturating_sub(t0);
                    }
                }
                Phase::Instant => {}
            }
        }
        let room = KEPT_EVENTS.saturating_sub(self.kept.events.len());
        let keep: Vec<Event> = trace.events.into_iter().take(room).collect();
        self.kept.events.extend(keep);
        for t in trace.threads {
            if !self.kept.threads.iter().any(|k| k.tid == t.tid) {
                self.kept.threads.push(t);
            }
        }
    }

    /// Spans recorded under `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.totals.get(name).map_or(0, |t| t.0)
    }

    /// Total microseconds spent in spans named `name`, divided by `ops`.
    pub fn mean_us(&self, name: &str, ops: u64) -> f64 {
        let ns = self.totals.get(name).map_or(0, |t| t.1);
        ns as f64 / 1e3 / ops.max(1) as f64
    }

    /// Sets the metric each of `spans` feeds (`dsl.run` feeds
    /// `dsl.run_us`) to its mean microseconds per operation over `ops`
    /// operations; returns their sum.
    pub fn set_means(&self, spans: &[&str], ops: u64, values: &mut Values) -> f64 {
        let mut sum = 0.0;
        for &span in spans {
            let us = self.mean_us(span, ops);
            values.set(metric_name(span), us, self.count(span));
            sum += us;
        }
        sum
    }

    /// Writes the kept events as Chrome JSON.
    pub fn write_chrome(&mut self, path: &Path) -> std::io::Result<()> {
        self.fold();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        self.kept.write_chrome_file(path)
    }
}

/// `"dsl.run"` → `"dsl.run_us"`, the metric a layer span feeds.
fn metric_name(span: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|m| m.0)
        .find(|m| m.strip_suffix("_us") == Some(span))
        .unwrap_or_else(|| panic!("no metric for span `{span}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_spans_map_to_metrics() {
        assert_eq!(metric_name("dsl.run"), "dsl.run_us");
        assert_eq!(metric_name("serve.decode"), "serve.decode_us");
    }

    #[test]
    fn nested_spans_fold_into_per_name_totals() {
        let mut layers = Layers::new(true);
        for seq in 0..3u64 {
            let mut op = layers.sink().span("bench", || "op");
            op.arg("seq", seq);
            {
                let _a = layers.sink().span("drc", || "drc.check");
                std::hint::black_box(seq);
            }
            drop(op);
            layers.end_op();
        }
        layers.fold();
        assert_eq!(layers.count("op"), 3);
        assert_eq!(layers.count("drc.check"), 3);
        assert!(layers.mean_us("op", 3) >= layers.mean_us("drc.check", 3));
        assert_eq!(layers.count("missing"), 0);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut layers = Layers::new(false);
        drop(layers.sink().span("bench", || "op"));
        layers.end_op();
        layers.fold();
        assert_eq!(layers.count("op"), 0);
    }
}
