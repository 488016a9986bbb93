//! Rule-kernel microbenchmarks.
//!
//! Measures the cost of the dense [`RuleSet`](amgen::tech::RuleSet)
//! queries that dominate the inner loops of compaction, DRC and routing:
//! a full n×n sweep of pairwise spacing/clearance plus per-layer width,
//! against the same sweep through the `Tech` front-end (name-keyed
//! `HashMap` storage). The kernel compile itself is measured separately
//! so its one-off cost stays visible.

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

fn bench_tech_sweep(c: &mut Criterion) {
    let tech = workloads::tech();
    let layers: Vec<Layer> = tech.layers().collect();
    c.bench_function("rules/tech_pairwise_sweep", |b| {
        b.iter(|| {
            let mut acc = 0i64;
            for &a in &layers {
                acc += tech.min_width(a);
                for &bl in &layers {
                    acc += tech.min_spacing(a, bl).unwrap_or(0);
                    acc += tech.clearance(a, bl);
                }
            }
            black_box(acc)
        })
    });
}

fn bench_compile(c: &mut Criterion) {
    let tech = workloads::tech();
    c.bench_function("rules/ruleset_compile", |b| {
        b.iter(|| black_box(tech.compile()).layer_count())
    });
}

criterion_group!(benches, bench_dense_sweep, bench_tech_sweep, bench_compile);
criterion_main!(benches);
