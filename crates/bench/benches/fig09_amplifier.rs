//! Figs. 8/9 — the full BiCMOS amplifier.
//!
//! Benchmarks the complete flow: module generation for all six blocks,
//! placement, global routing, DRC, latch-up check and extraction — the
//! paper's end-to-end demonstration.

use amgen::amp::build_amplifier;
use amgen::prelude::*;
use amgen_bench::workloads;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_full_amplifier(c: &mut Criterion) {
    let tech = workloads::tech();
    let ctx = GenCtx::from_tech(&tech);
    let mut g = c.benchmark_group("fig09");
    g.sample_size(10);
    g.bench_function("amplifier_end_to_end", |b| {
        b.iter(|| {
            let (amp, report) = build_amplifier(&ctx).unwrap();
            black_box((amp.len(), report.width_um, report.height_um))
        })
    });
    g.finish();
}

fn bench_amplifier_gds_export(c: &mut Criterion) {
    let tech = workloads::tech();
    let ctx = GenCtx::from_tech(&tech);
    let (amp, _) = build_amplifier(&ctx).unwrap();
    c.bench_function("fig09/gds_export", |b| {
        b.iter(|| black_box(write_gds(&tech, &amp)).len())
    });
}

criterion_group!(benches, bench_full_amplifier, bench_amplifier_gds_export);
criterion_main!(benches);
