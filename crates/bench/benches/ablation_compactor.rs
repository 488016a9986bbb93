//! §2.3 ablation — successive compaction vs. a general pairwise-graph
//! compactor, and how one successive step scales with the structure.
//!
//! The paper argues for its approach: *"the compaction is done
//! successively by involving only one new object in each step. Thus, only
//! outer edges of the main object have to be kept in the data structure
//! and no general edge graph must be created. This speeds up the
//! compaction time."* Two series test both halves of that claim:
//!
//! * `ablation/compactor_{n}` — the strawman, a compactor that at every
//!   step rebuilds the full pairwise constraint graph over **all** placed
//!   objects and re-solves the 1-D positions, against the successive
//!   compactor on the same row of n = 8/16/32 modules.
//! * `ablation/interdigit_{n}` — `interdigitated` (NMOS, n fingers,
//!   W = 10 µm, L = 2 µm) at n = 4/8/16/32/64, 78–978 shapes. Each step
//!   pairs the incoming finger with the structure's outer edges only, so
//!   the build must stay well below quadratic: the fitted log-log growth
//!   exponent of the build time over the shape count must stay below 1.5.
//!
//! The method (25 interleaved rounds, min-paired ratio) is
//! [`amgen_bench::sample`]'s. The bench asserts and exits nonzero on a
//! miss.

use amgen::modgen::interdigit::{interdigitated, InterdigitParams};
use amgen::modgen::MosType;
use amgen::prelude::*;
use amgen_bench::sample::{fitted_exponent, series, Mode};
use amgen_bench::workloads;
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

fn main() {
    let tech = workloads::tech();
    let ctx = GenCtx::from_tech(&tech);

    // ---- successive vs the full pairwise graph -----------------------
    for n in [8usize, 16, 32] {
        series(
            &format!("ablation/compactor_{n}"),
            25,
            &[
                Mode::new("successive", || {
                    black_box(successive(&ctx, n));
                }),
                Mode::new("full_graph", || {
                    black_box(full_graph(&ctx, n));
                }),
            ],
        );
    }

    // ---- growth of a successive build over the finger count ----------
    let mut points: Vec<(f64, f64)> = Vec::new();
    for fingers in [4usize, 8, 16, 32, 64] {
        let params = InterdigitParams::new(MosType::N, fingers)
            .with_w(um(10))
            .with_l(um(2));
        let shapes = interdigitated(&ctx, &params).unwrap().len();
        let build = Mode::new("build", || {
            black_box(interdigitated(&ctx, &params).unwrap().len());
        });
        let s = series(&format!("ablation/interdigit_{fingers}"), 25, &[build]);
        println!("{:<50} {shapes} shapes", "");
        points.push((shapes as f64, s.fastest(0).as_nanos() as f64));
    }
    let exponent = fitted_exponent(&points);
    println!(
        "{:<50} fitted exponent over 4..64 fingers: {exponent:.2}",
        "ablation/interdigit/build"
    );

    // ---- gate --------------------------------------------------------
    assert!(
        exponent < 1.5,
        "interdigitated builds grow as n^{exponent:.2} over 4..64 fingers (budget n^1.5)"
    );
    println!("ablation smoke: interdigit exponent < 1.5 ({exponent:.2})");
}
