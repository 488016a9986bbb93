//! Generation-cache overhead and speedup: each workload is timed three
//! ways on the same technology —
//!
//! * `plain` — the shipping default: no cache installed; every lookup
//!   site reduces to one `None` branch.
//! * `miss` — a cache installed but cleared before every build: the
//!   full miss path (key canonicalization, sharded lookup, result clone
//!   and insert) on every call. Hierarchical generators partially
//!   offset that cost by reusing repeated children *within* the build.
//! * `hit` — a pre-warmed cache: the whole module is served from
//!   memory (one lookup plus a clone of the stored result).
//!
//! Doubles as the CI smoke gate on the Fig. 6 path: the miss path must
//! stay within 2% of plain and a hit must be at least 10x faster — or
//! the bench exits nonzero. A warm `optimize_order` must likewise be
//! served at least 10x faster than the cold search. The method (25
//! interleaved rounds, min-paired ratio) is [`amgen_bench::sample`]'s.

use amgen::modgen::{contact_row, ContactRowParams};
use amgen::prelude::*;
use amgen_bench::sample::{series, Mode};
use amgen_bench::workloads;
use std::hint::black_box;
use std::sync::Arc;

/// Runs one generator workload in plain / miss / hit modes; returns
/// `(miss_ratio, hit_ratio)` relative to plain.
fn gen_series(name: &str, tech: &Tech, run: &dyn Fn(&GenCtx)) -> (f64, f64) {
    let plain_ctx = GenCtx::from_tech(tech);
    let cache = Arc::new(GenCache::new());
    let miss_ctx = GenCtx::from_tech(tech).with_cache(Arc::clone(&cache));
    let hit_ctx = GenCtx::from_tech(tech).with_default_cache();
    run(&hit_ctx); // warm
    let modes = [
        Mode::new("plain", || run(&plain_ctx)),
        Mode::new("miss", || {
            cache.clear();
            run(&miss_ctx)
        }),
        Mode::new("hit", || run(&hit_ctx)),
    ];
    let r = series(&format!("cache/{name}"), 25, &modes).ratios;
    (r[1], r[2])
}

fn main() {
    let tech = workloads::tech();
    let poly = tech.layer("poly").unwrap();

    gen_series("fig03_contact_row", &tech, &|ctx| {
        black_box(
            contact_row(ctx, poly, &ContactRowParams::new())
                .unwrap()
                .len(),
        );
    });
    let (fig06_miss, fig06_hit) = gen_series("fig06_diff_pair", &tech, &|ctx| {
        black_box(workloads::fig6_pair(ctx).len());
    });
    gen_series("fig10_centroid", &tech, &|ctx| {
        black_box(workloads::fig10_centroid(ctx).len());
    });

    // The precomputed-variant table: a warm optimize_order against the
    // cold branch-and-bound search on an order-sensitive workload.
    let seed = {
        let mut o = LayoutObject::new("L");
        o.push(Shape::new(poly, Rect::new(0, 0, um(1), um(8))));
        o.push(Shape::new(poly, Rect::new(0, 0, um(8), um(1))));
        o
    };
    let square = |w: i64| {
        let mut o = LayoutObject::new("sq");
        o.push(Shape::new(poly, Rect::new(0, 0, w, um(2))));
        o
    };
    let steps = vec![
        Step::new(seed, Dir::East, CompactOptions::new()),
        Step::new(square(um(2)), Dir::East, CompactOptions::new()),
        Step::new(square(um(3)), Dir::North, CompactOptions::new()),
        Step::new(square(um(2)), Dir::North, CompactOptions::new()),
        Step::new(square(um(1)), Dir::East, CompactOptions::new()),
    ];
    let cold_cache = Arc::new(GenCache::new());
    let cold_opt = Optimizer::new(
        &GenCtx::from_tech(&tech).with_cache(Arc::clone(&cold_cache)),
        RatingWeights::default(),
    );
    let warm_opt = Optimizer::new(
        &GenCtx::from_tech(&tech).with_default_cache(),
        RatingWeights::default(),
    );
    warm_opt
        .optimize_order(&steps, SearchOptions::default())
        .unwrap();
    let search = Mode::new("search", || {
        cold_cache.clear();
        let r = cold_opt
            .optimize_order(&steps, SearchOptions::default())
            .unwrap();
        assert!(!r.cached);
        black_box(r.rating.score);
    });
    let warm = Mode::new("warm", || {
        let r = warm_opt
            .optimize_order(&steps, SearchOptions::default())
            .unwrap();
        assert!(r.cached);
        black_box(r.rating.score);
    });
    let opt_warm = series("cache/optimize_order", 25, &[search, warm]).ratios[1];

    // CI smoke: the cache must be near-free when it cannot help and
    // decisively fast when it can.
    assert!(
        fig06_miss <= 1.02,
        "fig06 miss path is {:.1}% over plain (budget 2%)",
        (fig06_miss - 1.0) * 100.0
    );
    assert!(
        fig06_hit <= 0.1,
        "fig06 hit is only {:.1}x faster than plain (floor 10x)",
        1.0 / fig06_hit
    );
    assert!(
        opt_warm <= 0.1,
        "warm optimize_order is only {:.1}x faster than the search (floor 10x)",
        1.0 / opt_warm
    );
    println!("cache overhead smoke: miss <= +2%, hit >= 10x, warm optimize_order >= 10x");
}
