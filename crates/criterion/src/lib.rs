//! An **offline drop-in subset of the criterion API**.
//!
//! The real `criterion` crate cannot be vendored in this environment, so
//! this crate implements the slice of its surface the workspace's benches
//! use: [`Criterion::bench_function`], [`Criterion::benchmark_group`],
//! [`BenchmarkGroup::bench_with_input`], [`Bencher::iter`],
//! [`BenchmarkId`] and the [`criterion_group!`] / [`criterion_main!`]
//! macros.
//!
//! Measurement is a plain wall-clock loop: a short warm-up sizes the
//! batch so one sample takes roughly `TARGET_SAMPLE`, then
//! `sample_size` samples are taken and the median per-iteration time is
//! printed. No statistics, plots or baselines — just honest numbers on
//! stderr-free stdout, good enough to compare series within one run.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Rough wall-clock budget for one sample.
const TARGET_SAMPLE: Duration = Duration::from_millis(10);

/// Times one benchmark body.
pub struct Bencher {
    iters_per_sample: u64,
    samples: Vec<Duration>,
    sample_count: usize,
}

impl Bencher {
    fn new(sample_count: usize) -> Bencher {
        Bencher {
            iters_per_sample: 0,
            samples: Vec::new(),
            sample_count,
        }
    }

    /// Runs `f` repeatedly and records per-iteration timings.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up: find an iteration count that fills the sample budget.
        let mut iters = 1u64;
        loop {
            let t = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            let elapsed = t.elapsed();
            if elapsed >= TARGET_SAMPLE || iters >= 1 << 20 {
                self.iters_per_sample = iters;
                break;
            }
            // Grow towards the budget (at least double).
            let scale = (TARGET_SAMPLE.as_nanos() / elapsed.as_nanos().max(1)).max(2);
            iters = iters.saturating_mul(scale as u64).min(1 << 20);
        }
        for _ in 0..self.sample_count {
            let t = Instant::now();
            for _ in 0..self.iters_per_sample {
                std::hint::black_box(f());
            }
            self.samples
                .push(t.elapsed() / self.iters_per_sample as u32);
        }
    }

    fn report(&self) -> String {
        if self.samples.is_empty() {
            return "no samples".to_string();
        }
        let mut s = self.samples.clone();
        s.sort();
        let med = s[s.len() / 2];
        let lo = s[0];
        let hi = s[s.len() - 1];
        format!("time: [{} {} {}]", fmt_dur(lo), fmt_dur(med), fmt_dur(hi))
    }
}

fn fmt_dur(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Identifies one benchmark within a group.
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// A function name plus a parameter.
    pub fn new(name: impl Into<String>, param: impl Display) -> BenchmarkId {
        BenchmarkId(format!("{}/{}", name.into(), param))
    }

    /// Just a parameter (the group name is the function).
    pub fn from_parameter(param: impl Display) -> BenchmarkId {
        BenchmarkId(param.to_string())
    }
}

/// The benchmark driver.
#[derive(Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Runs a stand-alone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        name: &str,
        mut f: F,
    ) -> &mut Criterion {
        let mut b = Bencher::new(DEFAULT_SAMPLES);
        f(&mut b);
        println!("{name:<50} {}", b.report());
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _parent: self,
            name: name.into(),
            samples: DEFAULT_SAMPLES,
        }
    }
}

const DEFAULT_SAMPLES: usize = 15;

/// A group of related benchmarks sharing settings.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    samples: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(2);
        self
    }

    /// Runs a benchmark with an input value.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let mut b = Bencher::new(self.samples);
        f(&mut b, input);
        println!("{:<50} {}", format!("{}/{}", self.name, id.0), b.report());
        self
    }

    /// Runs a named benchmark inside the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut b = Bencher::new(self.samples);
        f(&mut b);
        println!("{:<50} {}", format!("{}/{}", self.name, name), b.report());
        self
    }

    /// Ends the group (a no-op; kept for API compatibility).
    pub fn finish(self) {}
}

/// Declares a group of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Declares the bench entry point.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
