//! Fig. 1 — the latch-up rule check.
//!
//! Benchmarks the 16-case rectangle subtraction and the full cover check
//! as the number of active areas grows.

use amgen::drc::latchup;
use amgen::prelude::*;
use amgen_bench::workloads;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_subtraction(c: &mut Criterion) {
    let solid = Rect::new(0, 0, 100_000, 100_000);
    // One cutter per overlap class of the figure.
    let cutters = [
        Rect::new(-10_000, -10_000, 110_000, 110_000), // full/full
        Rect::new(-10_000, -10_000, 40_000, 40_000),   // corner
        Rect::new(30_000, 30_000, 70_000, 70_000),     // middle/middle
        Rect::new(-10_000, 30_000, 110_000, 70_000),   // full/middle band
    ];
    c.bench_function("fig01/rect_subtract_16cases", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for cut in &cutters {
                n += black_box(solid.subtract(cut)).len();
            }
            n
        })
    });
}

fn bench_cover_check(c: &mut Criterion) {
    let tech = workloads::tech();
    let ctx = GenCtx::from_tech(&tech);
    let mut g = c.benchmark_group("fig01/latchup_check");
    for n in [8usize, 32, 128] {
        let obj = workloads::latchup_workload(&tech, n, 3);
        g.bench_with_input(BenchmarkId::from_parameter(n), &obj, |b, obj| {
            b.iter(|| black_box(latchup::latchup_remainder(&ctx, obj)).is_empty())
        });
    }
    g.finish();
}

fn bench_violation_report(c: &mut Criterion) {
    let tech = workloads::tech();
    let ctx = GenCtx::from_tech(&tech);
    // Sparse contacts: the check must produce remainder rectangles.
    let obj = workloads::latchup_workload(&tech, 64, 64);
    c.bench_function("fig01/latchup_violations", |b| {
        b.iter(|| black_box(latchup::check_latchup(&ctx, &obj)).len())
    });
}

criterion_group!(
    benches,
    bench_subtraction,
    bench_cover_check,
    bench_violation_report
);
criterion_main!(benches);
