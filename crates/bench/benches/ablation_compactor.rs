//! §2.3 ablation — successive compaction vs. a general pairwise-graph
//! compactor.
//!
//! The paper argues for its approach: *"the compaction is done
//! successively by involving only one new object in each step. Thus, only
//! outer edges of the main object have to be kept in the data structure
//! and no general edge graph must be created. This speeds up the
//! compaction time."* This bench implements the strawman — a compactor
//! that, at every step, rebuilds the full pairwise constraint graph over
//! **all** placed objects and re-solves the 1-D positions — and compares
//! build time for the same row-of-modules workload.

use amgen::prelude::*;
use amgen_bench::workloads;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// A simple module to chain: a poly/metal block pair.
fn unit(tech: &GenCtx, i: usize) -> LayoutObject {
    let poly = tech.layer("poly").unwrap();
    let m1 = tech.layer("metal1").unwrap();
    let mut o = LayoutObject::new("unit");
    let h = um(4 + (i % 3) as i64 * 2);
    o.push(Shape::new(poly, Rect::new(0, 0, um(2), h)));
    o.push(Shape::new(m1, Rect::new(0, h + um(2), um(2), h + um(4))));
    o
}

/// The paper's method: one successive step per object.
fn successive(tech: &GenCtx, n: usize) -> i64 {
    let comp = Compactor::new(tech);
    let mut main = LayoutObject::new("main");
    for i in 0..n {
        comp.compact(&mut main, &unit(tech, i), Dir::East, &CompactOptions::new())
            .unwrap();
    }
    main.bbox().width()
}

/// The strawman: keep every object separate; at each step rebuild the
/// full pairwise constraint graph (every placed object vs every other)
/// and solve all x positions from scratch with a longest-path sweep.
fn full_graph(tech: &GenCtx, n: usize) -> i64 {
    let poly = tech.layer("poly").unwrap();
    let m1 = tech.layer("metal1").unwrap();
    let objs: Vec<LayoutObject> = (0..n).map(|i| unit(tech, i)).collect();
    let mut xs = vec![0i64; 0];
    for k in 0..n {
        xs.push(0);
        // Rebuild ALL pairwise constraints among objects 0..=k and
        // re-solve: x[j] >= x[i] + w(i) + gap(i, j) for i < j.
        for j in 0..=k {
            let mut x = 0i64;
            for i in 0..j {
                for a in objs[i].shapes() {
                    for b in objs[j].shapes() {
                        let gap = if a.layer == b.layer {
                            tech.min_spacing(a.layer, b.layer).unwrap_or(0)
                        } else if (a.layer == poly && b.layer == m1)
                            || (a.layer == m1 && b.layer == poly)
                        {
                            continue;
                        } else {
                            tech.clearance(a.layer, b.layer)
                        };
                        if a.rect.y_range().inflated(gap).overlaps(&b.rect.y_range()) {
                            x = x.max(xs[i] + a.rect.x1 + gap - b.rect.x0);
                        }
                    }
                }
            }
            xs[j] = x;
        }
    }
    let last = n - 1;
    xs[last] + objs[last].bbox().x1
}

fn bench_ablation(c: &mut Criterion) {
    let tech = workloads::tech();
    let ctx = GenCtx::from_tech(&tech);
    let mut g = c.benchmark_group("ablation/compactor");
    for n in [8usize, 16, 32] {
        g.bench_with_input(BenchmarkId::new("successive", n), &n, |b, &n| {
            b.iter(|| black_box(successive(&ctx, n)))
        });
        g.bench_with_input(BenchmarkId::new("full_graph", n), &n, |b, &n| {
            b.iter(|| black_box(full_graph(&ctx, n)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
