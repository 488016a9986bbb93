//! Rule-kernel microbenchmarks.
//!
//! Measures the cost of the dense [`RuleSet`](amgen::tech::RuleSet)
//! queries that dominate the inner loops of compaction, DRC and routing:
//! a full n×n sweep of pairwise spacing/clearance plus per-layer width.
//! Building the deck (parse, validate, lower into the dense tables) is
//! measured separately so its one-off cost stays visible.

use amgen::prelude::*;
use amgen_bench::workloads;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_dense_sweep(c: &mut Criterion) {
    let tech = workloads::tech();
    let ctx = GenCtx::from_tech(&tech);
    let layers: Vec<Layer> = tech.layers().collect();
    c.bench_function("rules/dense_pairwise_sweep", |b| {
        b.iter(|| {
            let mut acc = 0i64;
            for &a in &layers {
                acc += ctx.min_width(a);
                for &bl in &layers {
                    acc += ctx.min_spacing(a, bl).unwrap_or(0);
                    acc += ctx.clearance(a, bl);
                }
            }
            black_box(acc)
        })
    });
}

fn bench_deck_build(c: &mut Criterion) {
    c.bench_function("rules/deck_build", |b| {
        b.iter(|| black_box(Tech::bicmos_1u()).layer_count())
    });
}

criterion_group!(benches, bench_dense_sweep, bench_deck_build);
criterion_main!(benches);
