//! Tracing overhead: each figure workload is timed on three contexts —
//! the sink disabled (the shipping default: every probe is one relaxed
//! atomic load), recording at `Detail::Coarse` and at `Detail::Fine` —
//! and printed side by side with the measured overhead. Each mode drains
//! its sink after every batch, off the clock: the number reported is the
//! cost of *recording*, since the exporters run once per process in real
//! use.
//!
//! Doubles as the CI smoke gate: the traced Fig. 6 generator must stay
//! within 10% of the untraced one, or the bench exits nonzero. The
//! method (15 interleaved rounds, min-paired ratio) is
//! [`amgen_bench::sample`]'s.

use amgen::drc::latchup::check_latchup;
use amgen::modgen::{contact_row, ContactRowParams};
use amgen::opt::{Optimizer, RatingWeights, SearchOptions};
use amgen::prelude::*;
use amgen_bench::sample::{self, Mode};
use amgen_bench::workloads;
use std::hint::black_box;

/// Runs one workload at each tracing level and returns the
/// coarse-traced/untraced ratio. The workload receives the context to
/// generate with.
fn series(name: &str, tech: &Tech, run: &dyn Fn(&GenCtx)) -> f64 {
    let levels = [
        ("untraced", Detail::Off),
        ("traced", Detail::Coarse),
        ("traced_fine", Detail::Fine),
    ];
    let modes = levels.map(|(mode, detail)| {
        let ctx = GenCtx::from_tech(tech).with_tracing_at(detail);
        let sink = ctx.trace.clone();
        Mode::new(mode, move || run(&ctx)).off_clock(move || {
            black_box(sink.drain().events.len());
        })
    });
    sample::series(&format!("trace/{name}"), 15, &modes).ratios[1]
}

fn main() {
    let tech = workloads::tech();
    let latchup = workloads::latchup_workload(&tech, 32, 3);
    let poly = tech.layer("poly").unwrap();

    series("fig01_latchup32", &tech, &|ctx| {
        black_box(check_latchup(ctx, &latchup).len());
    });
    series("fig03_contact_row", &tech, &|ctx| {
        black_box(
            contact_row(ctx, poly, &ContactRowParams::new())
                .unwrap()
                .len(),
        );
    });
    let fig06 = series("fig06_diff_pair", &tech, &|ctx| {
        black_box(workloads::fig6_pair(ctx).len());
    });
    series("fig10_centroid", &tech, &|ctx| {
        black_box(workloads::fig10_centroid(ctx).len());
    });
    let steps = workloads::opt_steps(&tech, 4);
    series("opt_order_k4", &tech, &|ctx| {
        let opt = Optimizer::new(ctx, RatingWeights::default());
        let r = opt
            .optimize_order(&steps, SearchOptions::default())
            .unwrap();
        black_box((r.rating.score, r.explored));
    });

    // CI smoke: recording must stay cheap on the Fig. 6 path.
    assert!(
        fig06 <= 1.10,
        "traced fig06 is {:.1}% over untraced (budget 10%)",
        (fig06 - 1.0) * 100.0
    );
    println!("trace overhead smoke: fig06 within 10% budget");
}
