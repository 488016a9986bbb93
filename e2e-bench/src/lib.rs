//! `amgen-bench`: one command that measures served and native module
//! generation end to end, and, in a separate traced run, splits each
//! operation into the layers it passes through.
//!
//! Four workloads, each chosen to load different layers (see
//! README.md):
//!
//! * `serve_warm` — cache-hit requests: fixed per-request costs;
//! * `serve_sweep` — fresh parameter draws: interpretation, compaction
//!   and response encoding;
//! * `native_signoff` — module generators plus DRC, latch-up and
//!   extraction, no server;
//! * `chip_signoff` — the same sign-off on chip-scale layouts.

pub mod check;
pub mod compare;
pub mod layers;
pub mod native;
pub mod reference;
pub mod replay;
pub mod report;
pub mod serve;
pub mod stats;

use std::path::Path;
use std::time::Duration;

use layers::Layers;
use report::Report;

/// Set-ups per run; `setup_s` is their median. A served workload builds
/// them all before its window; a native one builds one before and the
/// rest at even points of the window.
pub const SETUP_REPS: usize = 15;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two clients replaying a small corpus the cache already holds.
    ServeWarm,
    /// Two clients sending fresh draws from a 20k-point parameter grid.
    ServeSweep,
    /// Native generators signed off by DRC, latch-up and extraction.
    NativeSignoff,
    /// Chip-scale assemblies of the Fig. 9 amplifier, signed off.
    ChipSignoff,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::ServeWarm,
        Workload::ServeSweep,
        Workload::NativeSignoff,
        Workload::ChipSignoff,
    ];

    /// The command-line and report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeWarm => "serve_warm",
            Workload::ServeSweep => "serve_sweep",
            Workload::NativeSignoff => "native_signoff",
            Workload::ChipSignoff => "chip_signoff",
        }
    }

    /// The workload with this name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// SplitMix64: the seeded source of every workload input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Seeded reshuffles of a fixed set of inputs, one pass after another.
/// Every run long enough for a few passes covers the same mix of
/// inputs, so only their order depends on the seed; independent draws
/// would let the mix, and with it the tail latency, vary by seed.
#[derive(Debug, Clone)]
pub struct Deck<T> {
    items: Vec<T>,
    order: Vec<usize>,
    rng: Rng,
}

impl<T> Deck<T> {
    /// A deck over `items` (at least one), shuffled by `rng`.
    pub fn new(items: Vec<T>, rng: Rng) -> Deck<T> {
        assert!(!items.is_empty(), "a deck needs at least one item");
        Deck {
            items,
            order: Vec::new(),
            rng,
        }
    }

    /// The next input.
    pub fn deal(&mut self) -> &mut T {
        if self.order.is_empty() {
            self.order = (0..self.items.len()).collect();
            self.rng.shuffle(&mut self.order);
        }
        &mut self.items[self.order.pop().expect("refilled above")]
    }
}

/// Runs one workload for a `window` of measured operations. With
/// `trace` set, the run records spans, writes them there as Chrome
/// JSON and reports the per-layer metrics; otherwise it reports the
/// end-to-end ones.
pub fn run(
    workload: Workload,
    seed: u64,
    window: Duration,
    trace: Option<&Path>,
) -> Result<Report, String> {
    let mut layers = Layers::new(trace.is_some());
    let (tally, values) = match workload {
        Workload::ServeWarm | Workload::ServeSweep => {
            serve::run(workload, seed, window, &mut layers)?
        }
        Workload::NativeSignoff | Workload::ChipSignoff => {
            native::run(workload, seed, window, &mut layers)?
        }
    };
    let mut report = Report::new(
        workload,
        seed,
        window.as_secs_f64(),
        trace.is_some(),
        tally,
        values,
    );
    if let Some(path) = trace {
        layers
            .write_chrome(path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        report.trace_file = Some(path.to_path_buf());
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn a_deck_deals_every_item_once_per_pass() {
        let deal = |seed| {
            let mut deck = Deck::new((0..7).collect(), Rng::new(seed));
            (0..21).map(|_| *deck.deal()).collect::<Vec<u32>>()
        };
        assert_eq!(deal(3), deal(3));
        assert_ne!(deal(3), deal(4));
        for pass in deal(3).chunks(7) {
            let mut pass = pass.to_vec();
            pass.sort_unstable();
            assert_eq!(pass, (0..7).collect::<Vec<_>>());
        }
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..11).collect();
        let mut b = a.clone();
        Rng::new(7).shuffle(&mut a);
        Rng::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        a.sort_unstable();
        assert_eq!(a, (0..11).collect::<Vec<_>>());
    }
}
