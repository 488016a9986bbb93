//! §2.4 — the optimization mode.
//!
//! Benchmarks the compaction-order search (backtracking with pruning)
//! against exhaustive enumeration, for growing object counts.

use amgen::opt::{Optimizer, RatingWeights, SearchOptions};
use amgen::prelude::*;
use amgen_bench::workloads;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_order_search(c: &mut Criterion) {
    let tech = workloads::tech();
    let ctx = GenCtx::from_tech(&tech);
    let opt = Optimizer::new(&ctx, RatingWeights::default());
    let mut g = c.benchmark_group("opt/order_search");
    g.sample_size(10);
    for k in [3usize, 4, 5] {
        let s = workloads::opt_steps(&tech, k);
        g.bench_with_input(BenchmarkId::from_parameter(k), &s, |b, s| {
            b.iter(|| {
                let r = opt.optimize_order(s, SearchOptions::default()).unwrap();
                black_box((r.rating.score, r.explored, r.pruned))
            })
        });
    }
    g.finish();
}

/// Sequential vs. parallel branch-and-bound on the same 6-movable-square
/// workload (7 steps total, ~6! orders before pruning).
fn bench_parallel_vs_sequential(c: &mut Criterion) {
    let tech = workloads::tech();
    let ctx = GenCtx::from_tech(&tech);
    let opt = Optimizer::new(&ctx, RatingWeights::default());
    let s = workloads::opt_steps(&tech, 6);
    let mut g = c.benchmark_group("opt/order_search_par");
    g.sample_size(10);
    for (name, opts) in [
        ("seq", SearchOptions::default()),
        (
            "seq_nodom",
            SearchOptions {
                dominance: false,
                ..Default::default()
            },
        ),
        ("par", SearchOptions::parallel()),
    ] {
        g.bench_with_input(BenchmarkId::new(name, 6), &s, |b, s| {
            b.iter(|| {
                let r = opt.optimize_order(s, opts).unwrap();
                black_box((r.rating.score, r.explored, r.pruned, r.dominated))
            })
        });
    }
    g.finish();
}

fn bench_single_order(c: &mut Criterion) {
    let tech = workloads::tech();
    let ctx = GenCtx::from_tech(&tech);
    let opt = Optimizer::new(&ctx, RatingWeights::default());
    let s = workloads::opt_steps(&tech, 5);
    c.bench_function("opt/single_order_build", |b| {
        b.iter(|| black_box(opt.build(&s).unwrap().1.score))
    });
}

criterion_group!(
    benches,
    bench_order_search,
    bench_parallel_vs_sequential,
    bench_single_order
);
criterion_main!(benches);
