//! Fig. 5 — auto-connected edges and variable-edge optimization.
//!
//! Benchmarks one compaction step with the same-potential merge (5a) and
//! runs the fixed-vs-variable-edges ablation of 5b, reporting the area
//! delta through the measurement harness (`cargo run --bin experiments`).

use amgen::modgen::{contact_row, ContactRowParams};
use amgen::prelude::*;
use amgen_bench::workloads;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// Builds the Fig. 5b scene: a wide vertical contact row with variable
/// (or fixed) east edges, and a metal stripe to compact against it.
fn scene(tech: &GenCtx, variable: bool) -> (LayoutObject, LayoutObject) {
    let poly = tech.layer("poly").unwrap();
    let mut params = ContactRowParams::new().with_w(um(4)).with_l(um(12));
    if variable {
        params = params.with_variable_edges();
    }
    let row = contact_row(tech, poly, &params).unwrap();
    let m1 = tech.layer("metal1").unwrap();
    let mut probe = LayoutObject::new("probe");
    let sig = probe.net("sig");
    probe.push(Shape::new(m1, Rect::new(0, 0, um(2), um(12))).with_net(sig));
    (row, probe)
}

fn bench_fixed_vs_variable(c: &mut Criterion) {
    let tech = workloads::tech();
    let ctx = GenCtx::from_tech(&tech);
    let mut g = c.benchmark_group("fig05/compaction_step");
    for (name, variable) in [("fixed_edges", false), ("variable_edges", true)] {
        let (row, probe) = scene(&ctx, variable);
        g.bench_function(name, |b| {
            let comp = Compactor::new(&ctx);
            b.iter(|| {
                let mut main = LayoutObject::new("main");
                comp.compact(&mut main, &row, Dir::West, &CompactOptions::new())
                    .unwrap();
                let r = comp
                    .compact(&mut main, &probe, Dir::East, &CompactOptions::new())
                    .unwrap();
                black_box((main.bbox().width(), r.shrunk_edges))
            })
        });
    }
    g.finish();
}

fn bench_autoconnect_merge(c: &mut Criterion) {
    // Fig. 5a: same-potential rectangles merge during compaction.
    let tech = workloads::tech();
    let ctx = GenCtx::from_tech(&tech);
    let m1 = tech.layer("metal1").unwrap();
    let mut strip = LayoutObject::new("strip");
    let vdd = strip.net("vdd");
    strip.push(Shape::new(m1, Rect::new(0, 0, um(20), um(2))).with_net(vdd));
    c.bench_function("fig05/same_potential_merge", |b| {
        let comp = Compactor::new(&ctx);
        b.iter(|| {
            let mut main = LayoutObject::new("main");
            for _ in 0..8 {
                comp.compact(&mut main, &strip, Dir::North, &CompactOptions::new())
                    .unwrap();
            }
            black_box(main.bbox().height())
        })
    });
}

criterion_group!(benches, bench_fixed_vs_variable, bench_autoconnect_merge);
criterion_main!(benches);
