//! Fig. 10 — the centroidal cross-coupled differential pair (block E).
//!
//! The paper reports *"the computation time for building this module is
//! five seconds"* (1996 workstation). This bench measures the same build
//! on current hardware, plus its scaling with finger pairs.

use amgen::modgen::centroid::{centroid_diff_pair, CentroidParams};
use amgen::modgen::MosType;
use amgen::prelude::*;
use amgen_bench::workloads;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_paper_configuration(c: &mut Criterion) {
    let tech = workloads::tech();
    let ctx = GenCtx::from_tech(&tech);
    let mut g = c.benchmark_group("fig10");
    g.sample_size(10);
    g.bench_function("paper_configuration", |b| {
        let p = CentroidParams::paper(MosType::N)
            .with_w(um(6))
            .with_l(um(1));
        b.iter(|| black_box(centroid_diff_pair(&ctx, &p).unwrap()).len())
    });
    g.finish();
}

fn bench_scaling_with_pairs(c: &mut Criterion) {
    let tech = workloads::tech();
    let ctx = GenCtx::from_tech(&tech);
    let mut g = c.benchmark_group("fig10/pairs_scaling");
    g.sample_size(10);
    for pairs in [1usize, 2, 3] {
        g.bench_with_input(BenchmarkId::from_parameter(pairs), &pairs, |b, &pairs| {
            let mut p = CentroidParams::paper(MosType::N)
                .with_w(um(6))
                .without_guard();
            p.pairs_per_side = pairs;
            b.iter(|| black_box(centroid_diff_pair(&ctx, &p).unwrap()).len())
        });
    }
    g.finish();
}

fn bench_crossing_audit(c: &mut Criterion) {
    let tech = workloads::tech();
    let ctx = GenCtx::from_tech(&tech);
    let m = workloads::fig10_centroid(&ctx);
    c.bench_function("fig10/crossing_audit", |b| {
        let router = Router::new(&ctx);
        b.iter(|| black_box(router.crossing_counts(&m)).len())
    });
}

criterion_group!(
    benches,
    bench_paper_configuration,
    bench_scaling_with_pairs,
    bench_crossing_audit
);
criterion_main!(benches);
