//! The machine's speed, measured while a native workload runs.
//!
//! The native workloads are bound by the processor. On a host shared
//! with other tenants its speed drifts by ±10% over tens of seconds,
//! so whole-window wall times move from run to run by more than the
//! bounds a change is held to. The window therefore stops every 100 ms
//! for a fixed piece of reference work that shares no code with the
//! program, and the native timings are reported at reference speed:
//! each stretch of the window and each operation's time is multiplied
//! by 2.0 ms over the median time of the kernel runs nearest to it. A change to the program moves the scaled times
//! as it moves the wall times; a change in the machine's speed moves
//! the program and the kernel alike and cancels.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::median;
use crate::Rng;

/// Kernel time at reference speed, ms. Scaled times are those of a
/// machine that runs the kernel in this time.
const REFERENCE_MS: f64 = 2.0;

/// Window time from one kernel run to the next.
const EVERY: Duration = Duration::from_millis(100);

/// Kernel runs on each side of a moment whose median gives the
/// machine's speed at that moment: about a second of the window, short
/// against the drift and long enough to outvote an interrupted run.
const NEIGHBOURS: usize = 5;

/// Rectangles the kernel sweeps.
const RECTS: usize = 3000;

/// The reference work: counts the overlapping pairs among seeded
/// rectangles with a sweep line over an ordered map of open ones, and
/// tallies them in a hash map. The same work on every call; returns a
/// checksum of it.
fn kernel() -> u64 {
    let mut rng = Rng::new(0x5EED);
    let mut coord = |n: u64| (rng.next_u64() % n) as i64;
    let mut rects: Vec<[i64; 4]> = (0..RECTS)
        .map(|_| {
            let (x, y) = (coord(100_000), coord(100_000));
            [x, y, x + 1 + coord(3000), y + 1 + coord(3000)]
        })
        .collect();
    rects.sort_unstable();
    // Right edge and index of each rectangle the sweep line crosses.
    let mut open: BTreeMap<(i64, usize), ()> = BTreeMap::new();
    let mut per_rect: HashMap<usize, u32> = HashMap::new();
    let mut pairs = 0u64;
    for (i, a) in rects.iter().enumerate() {
        while let Some(entry) = open.first_entry() {
            if entry.key().0 > a[0] {
                break;
            }
            entry.remove();
        }
        for &(_, j) in open.keys() {
            let b = &rects[j];
            if a[1] < b[3] && b[1] < a[3] {
                pairs += 1;
                *per_rect.entry(j).or_default() += 1;
            }
        }
        open.insert((a[2], i), ());
    }
    pairs << 32 | per_rect.len() as u64
}

/// The kernel runs of one window: when each ran and how long it took.
/// The first run is due when the window opens.
#[derive(Debug, Default)]
pub struct Reference {
    /// (window time, s; kernel time, ms), in window order.
    runs: Vec<(f64, f64)>,
    /// Window time the next run is due.
    next: Duration,
}

impl Reference {
    /// Runs the kernel if it is due at window time `elapsed`, and
    /// returns the wall time that took, which the window leaves out.
    pub fn tick(&mut self, elapsed: Duration) -> Duration {
        if elapsed < self.next {
            return Duration::ZERO;
        }
        let t = Instant::now();
        black_box(kernel());
        let took = t.elapsed();
        self.record(elapsed.as_secs_f64(), took.as_secs_f64() * 1e3);
        self.next = elapsed + EVERY;
        took
    }

    fn record(&mut self, at: f64, ms: f64) {
        self.runs.push((at, ms));
    }

    /// Kernel runs so far.
    pub fn runs(&self) -> usize {
        self.runs.len()
    }

    /// The median kernel time over the window, ms; NaN without runs.
    pub fn median_ms(&self) -> f64 {
        let ms: Vec<f64> = self.runs.iter().map(|r| r.1).collect();
        median(&ms)
    }

    /// The factor that takes a wall time at window time `at` to
    /// reference speed: 2.0 ms over the median of the five kernel runs
    /// on each side of `at`. 1 without runs.
    pub fn factor(&self, at: f64) -> f64 {
        let i = self.runs.partition_point(|r| r.0 < at);
        let near = &self.runs[i.saturating_sub(NEIGHBOURS)..(i + NEIGHBOURS).min(self.runs.len())];
        if near.is_empty() {
            return 1.0;
        }
        let ms: Vec<f64> = near.iter().map(|r| r.1).collect();
        REFERENCE_MS / median(&ms)
    }

    /// Takes `done`, each operation's (completion time, s; latency, ms)
    /// in completion order, to reference speed in place: every latency
    /// and every stretch of the window between two completions is
    /// scaled by the factor at its completion.
    pub fn scale(&self, done: &mut [(f64, f64)]) {
        let (mut clock, mut last) = (0.0, 0.0);
        for op in done {
            let f = self.factor(op.0);
            clock += (op.0 - last) * f;
            last = op.0;
            *op = (clock, op.1 * f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reference whose kernel took `ms` at each of `times`.
    fn reference(runs: &[(f64, f64)]) -> Reference {
        let mut r = Reference::default();
        for &(at, ms) in runs {
            r.record(at, ms);
        }
        r
    }

    #[test]
    fn the_kernel_does_the_same_work_every_time() {
        let sum = kernel();
        assert_eq!(sum, kernel());
        assert!(sum >> 32 > 100, "too few overlaps to be work: {sum:#x}");
    }

    #[test]
    fn a_machine_at_reference_speed_is_left_as_measured() {
        let r = reference(&[(0.0, REFERENCE_MS), (0.125, REFERENCE_MS)]);
        let mut done = [(0.0625, 1.5), (0.25, 3.0)];
        r.scale(&mut done);
        assert_eq!(done, [(0.0625, 1.5), (0.25, 3.0)]);
    }

    #[test]
    fn a_slow_stretch_is_scaled_where_it_happened() {
        // The kernel ran at reference speed for the first second, then
        // at half speed (twice the time) for the next.
        let runs: Vec<(f64, f64)> = (0..20)
            .map(|i| (i as f64 / 10.0, if i < 10 { 2.0 } else { 4.0 }))
            .collect();
        let r = reference(&runs);
        assert_eq!(r.factor(0.2), 1.0);
        assert_eq!(r.factor(1.8), 0.5);
        // An operation that took 0.5 s at reference speed took 1 s in
        // the slow stretch; scaled, it takes 0.5 s again.
        let mut done = [(0.25, 250.0), (1.25, 1000.0)];
        r.scale(&mut done);
        assert_eq!(done, [(0.25, 250.0), (0.75, 500.0)]);
    }

    #[test]
    fn an_interrupted_kernel_run_is_outvoted() {
        let mut runs: Vec<(f64, f64)> = (0..11).map(|i| (i as f64 / 10.0, 4.0)).collect();
        runs[5].1 = 40.0;
        assert_eq!(reference(&runs).factor(0.5), 0.5);
    }

    #[test]
    fn without_kernel_runs_nothing_is_scaled() {
        let r = Reference::default();
        assert_eq!(r.factor(3.0), 1.0);
        assert!(r.median_ms().is_nan());
    }

    #[test]
    fn the_kernel_runs_once_per_period() {
        let mut r = Reference::default();
        assert!(r.tick(Duration::ZERO) > Duration::ZERO);
        assert_eq!(r.tick(EVERY / 2), Duration::ZERO);
        assert!(r.tick(EVERY) > Duration::ZERO);
        assert_eq!(r.runs.len(), 2);
    }
}
