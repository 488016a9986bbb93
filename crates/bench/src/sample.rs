//! The sampler every CI-gated bench times with.
//!
//! [`series`] times the *modes* of one workload — untraced against
//! traced, the linear scan against the spatial index, a cold search
//! against a cache hit — and compares each mode with mode 0:
//!
//! * **Batches.** A warm-up on mode 0 sizes a batch of iterations that
//!   takes about 10 ms; every sample is the per-iteration mean of one
//!   batch, so timer resolution and per-call jitter stay out of it.
//! * **Interleaved, rotated rounds.** Each round times one batch of
//!   every mode, starting one mode later than the round before, so a
//!   load ramp on a noisy shared machine hits all modes alike instead of
//!   penalising whichever mode runs last.
//! * **Min-paired ratio.** A mode's ratio to mode 0 is the smaller of
//!   the minimum over the rounds of its per-round ratio and the ratio of
//!   the two modes' fastest samples. Preemption only adds time to the
//!   batch it hits, so one clean round suffices to read a ratio, and
//!   spikes in the other rounds cannot fail an overhead gate. The flip
//!   side: a round whose mode-0 batch was preempted reads low, so on a
//!   noisy machine the statistic errs towards passing, and a reading
//!   below 1.0 for a mode that does strictly more work is pairing noise.
//! * **Off-clock hooks.** A mode may carry a hook that runs after each
//!   of its batches, outside the timed region — the tracing bench drains
//!   its event sink there, so it reports the cost of *recording* alone.
//!
//! Each mode prints one `name/mode time: [lo median hi]` line — the
//! shape the criterion stub prints, and the case names the
//! `BENCH_*.json` files key on — and every mode after the first prints
//! its ratio to mode 0.

use std::time::{Duration, Instant};

/// Wall-clock length of one sampled batch.
const TARGET_SAMPLE: Duration = Duration::from_millis(10);

/// One timed variant of a workload.
pub struct Mode<'a> {
    name: &'a str,
    run: Box<dyn Fn() + 'a>,
    off_clock: Option<Box<dyn Fn() + 'a>>,
}

impl<'a> Mode<'a> {
    /// A mode that times `run`, printed as `name`.
    pub fn new(name: &'a str, run: impl Fn() + 'a) -> Mode<'a> {
        Mode {
            name,
            run: Box::new(run),
            off_clock: None,
        }
    }

    /// Runs `hook` after each of this mode's timed batches, off the clock.
    pub fn off_clock(self, hook: impl Fn() + 'a) -> Mode<'a> {
        Mode {
            off_clock: Some(Box::new(hook)),
            ..self
        }
    }

    fn batch(&self, iters: u64) -> Duration {
        let t = Instant::now();
        for _ in 0..iters {
            (self.run)();
        }
        t.elapsed()
    }
}

/// What [`series`] measured, indexed like its modes.
pub struct Series {
    /// Per mode, the per-iteration time of each round, sorted.
    pub samples: Vec<Vec<Duration>>,
    /// Per mode, the min-paired ratio to mode 0 (1.0 for mode 0).
    pub ratios: Vec<f64>,
}

impl Series {
    /// A mode's fastest sample.
    pub fn fastest(&self, mode: usize) -> Duration {
        self.samples[mode][0]
    }

    /// A mode's median sample.
    pub fn median(&self, mode: usize) -> Duration {
        let s = &self.samples[mode];
        s[s.len() / 2]
    }
}

/// Times `modes` over `rounds` interleaved rounds (see the module docs),
/// prints one line per mode and one ratio line per mode after the first,
/// and returns the samples and ratios.
pub fn series(name: &str, rounds: usize, modes: &[Mode]) -> Series {
    assert!(rounds > 0 && !modes.is_empty(), "{name}: nothing to time");
    let n = modes.len();
    let target = TARGET_SAMPLE.as_nanos();
    let mut iters = 1u64;
    loop {
        let elapsed = modes[0].batch(iters).as_nanos();
        if elapsed >= target || iters >= 1 << 20 {
            break;
        }
        let scale = (target / elapsed.max(1)).max(2);
        iters = iters.saturating_mul(scale as u64).min(1 << 20);
    }
    let mut samples = vec![Vec::with_capacity(rounds); n];
    let mut ratios = vec![f64::INFINITY; n];
    for r in 0..rounds {
        for i in 0..n {
            let k = (r + i) % n;
            samples[k].push(modes[k].batch(iters) / iters as u32);
            if let Some(hook) = &modes[k].off_clock {
                hook();
            }
        }
        let base = samples[0][r].as_nanos().max(1) as f64;
        for (ratio, s) in ratios.iter_mut().zip(&samples) {
            *ratio = ratio.min(s[r].as_nanos() as f64 / base);
        }
    }
    for s in &mut samples {
        s.sort();
    }
    let lo0 = samples[0][0].as_nanos().max(1) as f64;
    for (ratio, s) in ratios.iter_mut().zip(&samples) {
        *ratio = ratio.min(s[0].as_nanos() as f64 / lo0);
    }
    for (mode, s) in modes.iter().zip(&samples) {
        println!(
            "{:<50} time: [{} {} {}]",
            format!("{name}/{}", mode.name),
            fmt_dur(s[0]),
            fmt_dur(s[rounds / 2]),
            fmt_dur(s[rounds - 1])
        );
    }
    for (mode, &r) in modes.iter().zip(&ratios).skip(1) {
        let against = if r < 0.5 {
            format!("{:.1}x faster than", 1.0 / r)
        } else {
            format!("{:+.1}% over", (r - 1.0) * 100.0)
        };
        println!(
            "{:<50} {}: {against} {} (min paired)",
            "", mode.name, modes[0].name
        );
    }
    Series { samples, ratios }
}

/// Formats a duration with a unit that keeps three significant digits.
pub fn fmt_dur(d: Duration) -> String {
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

/// Least-squares slope of `ln(y)` against `ln(x)` — the empirical growth
/// exponent of a series of `(size, time)` points.
pub fn fitted_exponent(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        let (lx, ly) = (x.ln(), y.ln());
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn fitted_exponent_recovers_a_power_law() {
        let points: Vec<(f64, f64)> = [8.0, 16.0, 32.0, 64.0]
            .iter()
            .map(|&x: &f64| (x, 3.0 * x.powf(1.5)))
            .collect();
        assert!((fitted_exponent(&points) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn fmt_dur_picks_the_unit() {
        assert_eq!(fmt_dur(Duration::from_nanos(999)), "999 ns");
        assert_eq!(fmt_dur(Duration::from_nanos(1_500)), "1.50 µs");
        assert_eq!(fmt_dur(Duration::from_micros(2_340)), "2.34 ms");
        assert_eq!(fmt_dur(Duration::from_secs(3)), "3.00 s");
    }

    #[test]
    fn series_samples_every_mode_and_runs_hooks_once_per_batch() {
        let (runs, hooks) = (Cell::new(0u64), Cell::new(0u64));
        let spin = || std::hint::black_box((0..200u64).sum::<u64>());
        let s = series(
            "sample/test",
            3,
            &[
                Mode::new("a", || {
                    spin();
                }),
                Mode::new("b", || {
                    spin();
                    runs.set(runs.get() + 1);
                })
                .off_clock(|| hooks.set(hooks.get() + 1)),
            ],
        );
        assert_eq!(s.samples.len(), 2);
        assert!(s.samples.iter().all(|m| m.len() == 3 && m.is_sorted()));
        assert_eq!(s.ratios[0], 1.0);
        assert!(s.ratios[1].is_finite() && s.ratios[1] > 0.0);
        assert_eq!(hooks.get(), 3, "one hook call per timed batch");
        assert_eq!(runs.get() % 3, 0, "every batch is the same size");
        assert!(s.fastest(1) <= s.median(1));
    }
}
