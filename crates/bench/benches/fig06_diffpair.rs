//! Figs. 6/7 — the five-step MOS differential pair.
//!
//! Benchmarks the native generator, the DSL-interpreted version, and the
//! per-step cost of the successive compaction.

use amgen::dsl::{stdlib, Interpreter};
use amgen::modgen::diffpair::{diff_pair, DiffPairParams};
use amgen::modgen::mos::{mos_finger, MosType};
use amgen::prelude::*;
use amgen_bench::workloads;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_native(c: &mut Criterion) {
    let tech = workloads::tech();
    let ctx = GenCtx::from_tech(&tech);
    c.bench_function("fig06/native_diff_pair", |b| {
        let p = DiffPairParams::new(MosType::P).with_w(um(10)).with_l(um(2));
        b.iter(|| black_box(diff_pair(&ctx, &p).unwrap()).len())
    });
}

fn bench_dsl(c: &mut Criterion) {
    let tech = workloads::tech();
    let ctx = GenCtx::from_tech(&tech);
    c.bench_function("fig06/dsl_diff_pair", |b| {
        let mut i = Interpreter::new(ctx.clone());
        i.load(stdlib::FIG2_CONTACT_ROW).unwrap();
        i.load(stdlib::FIG7_DIFF_PAIR).unwrap();
        b.iter(|| {
            let out = i.run("diff = DiffPair(W = 10, L = 2)\n").unwrap();
            black_box(out["diff"].len())
        })
    });
}

fn bench_single_compaction_step(c: &mut Criterion) {
    // The cost of one successive-compaction step against a grown
    // structure (the paper argues this stays cheap because no global edge
    // graph is kept).
    let tech = workloads::tech();
    let ctx = GenCtx::from_tech(&tech);
    let finger = mos_finger(&ctx, MosType::P, Some(um(10)), Some(um(2)), "g", "d", true).unwrap();
    let comp = Compactor::new(&ctx);
    let diff = tech.layer("pdiff").unwrap();
    let opts = CompactOptions::new().ignoring(diff);
    // Pre-grow the main structure.
    let mut main = LayoutObject::new("main");
    for _ in 0..6 {
        comp.compact(&mut main, &finger, Dir::West, &opts).unwrap();
    }
    c.bench_function("fig06/one_step_against_6_fingers", |b| {
        b.iter(|| {
            let mut m = main.clone();
            black_box(comp.compact(&mut m, &finger, Dir::West, &opts).unwrap())
        })
    });
}

criterion_group!(
    benches,
    bench_native,
    bench_dsl,
    bench_single_compaction_step
);
criterion_main!(benches);
