//! Robustness-layer overhead: each figure workload is timed three ways
//! on the same technology —
//!
//! * `plain` — the shipping default: no budget armed, no fault hook. The
//!   checkpoints compiled into the pipeline reduce to a cancellation
//!   load plus one `None` branch.
//! * `budget` — a generous armed [`Budget`]: every statement charges
//!   fuel, every compaction step counts, deadlines are polled.
//! * `hooked` — a never-firing [`FaultPlan`] installed: every probe
//!   takes the slow path and asks the hook (the chaos-harness mode).
//!
//! Doubles as the CI smoke gate: the budget-armed Fig. 6 generator must
//! stay within 2% of plain (and hooked within 5%), or the bench exits
//! nonzero. The method (25 interleaved rounds, min-paired ratio) is
//! [`amgen_bench::sample`]'s.

use amgen::drc::latchup::check_latchup;
use amgen::faults::FaultPlan;
use amgen::modgen::{contact_row, ContactRowParams};
use amgen::prelude::*;
use amgen_bench::sample::{self, Mode};
use amgen_bench::workloads;
use std::hint::black_box;
use std::time::Duration;

/// A budget generous enough that nothing in a figure workload ever
/// trips it — armed so every charge and checkpoint does its real work.
fn generous_budget() -> Budget {
    Budget::unlimited()
        .with_dsl_fuel(u64::MAX / 2)
        .with_max_recursion(usize::MAX / 2)
        .with_max_compact_steps(u64::MAX / 2)
        .with_max_opt_nodes(u64::MAX / 2)
        .with_wall(Duration::from_secs(3600))
}

/// Runs one workload on a plain, a budget-armed, and a hooked context;
/// returns the (budget/plain, hooked/plain) overhead ratios.
fn series(name: &str, tech: &Tech, run: &dyn Fn(&GenCtx)) -> (f64, f64) {
    let plain = GenCtx::from_tech(tech);
    let budget = GenCtx::from_tech(tech).with_budget(generous_budget());
    let hooked = GenCtx::from_tech(tech).with_faults(FaultPlan::new(0).build().1);
    let modes = [
        Mode::new("plain", || run(&plain)),
        Mode::new("budget", || run(&budget)),
        Mode::new("hooked", || run(&hooked)),
    ];
    let r = sample::series(&format!("faults/{name}"), 25, &modes).ratios;
    (r[1], r[2])
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
    let (fig06_budget, fig06_hooked) = series("fig06_diff_pair", &tech, &|ctx| {
        black_box(workloads::fig6_pair(ctx).len());
    });
    series("fig10_centroid", &tech, &|ctx| {
        black_box(workloads::fig10_centroid(ctx).len());
    });

    // CI smoke: the robustness layer must stay free when disarmed and
    // near-free when armed, on the Fig. 6 path.
    assert!(
        fig06_budget <= 1.02,
        "budget-armed fig06 is {:.1}% over plain (budget 2%)",
        (fig06_budget - 1.0) * 100.0
    );
    assert!(
        fig06_hooked <= 1.05,
        "hooked fig06 is {:.1}% over plain (budget 5%)",
        (fig06_hooked - 1.0) * 100.0
    );
    println!("fault overhead smoke: fig06 within budget (2% armed, 5% hooked)");
}
