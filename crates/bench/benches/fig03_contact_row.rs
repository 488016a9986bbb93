//! Figs. 2/3 — contact-row generation.
//!
//! Benchmarks the three parameter variants of Fig. 3 and the scaling of
//! generation time with row width, both through the native generator and
//! through the layout description language interpreter.

use amgen::dsl::{stdlib, Interpreter};
use amgen::modgen::{contact_row, ContactRowParams};
use amgen::prelude::*;
use amgen_bench::workloads;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_variants(c: &mut Criterion) {
    let tech = workloads::tech();
    let ctx = GenCtx::from_tech(&tech);
    let poly = tech.layer("poly").unwrap();
    let variants: [(&str, ContactRowParams); 3] = [
        ("defaults", ContactRowParams::new()),
        ("w_given", ContactRowParams::new().with_w(um(10))),
        (
            "w_and_l",
            ContactRowParams::new().with_w(um(8)).with_l(um(6)),
        ),
    ];
    let mut g = c.benchmark_group("fig03/native");
    for (name, params) in variants {
        g.bench_function(name, |b| {
            b.iter(|| black_box(contact_row(&ctx, poly, &params).unwrap()).len())
        });
    }
    g.finish();
}

fn bench_width_scaling(c: &mut Criterion) {
    let tech = workloads::tech();
    let ctx = GenCtx::from_tech(&tech);
    let poly = tech.layer("poly").unwrap();
    let mut g = c.benchmark_group("fig03/width_scaling");
    for w in [um(4), um(16), um(64)] {
        g.bench_with_input(BenchmarkId::from_parameter(w / 1_000), &w, |b, &w| {
            let p = ContactRowParams::new().with_w(w);
            b.iter(|| black_box(contact_row(&ctx, poly, &p).unwrap()).len())
        });
    }
    g.finish();
}

fn bench_dsl_interpreter(c: &mut Criterion) {
    let tech = workloads::tech();
    let ctx = GenCtx::from_tech(&tech);
    c.bench_function("fig03/dsl_interpreted", |b| {
        let mut i = Interpreter::new(ctx.clone());
        i.load(stdlib::FIG2_CONTACT_ROW).unwrap();
        b.iter(|| {
            let out = i
                .run("row = ContactRow(layer = \"poly\", W = 10)\n")
                .unwrap();
            black_box(out["row"].len())
        })
    });
}

criterion_group!(
    benches,
    bench_variants,
    bench_width_scaling,
    bench_dsl_interpreter
);
criterion_main!(benches);
