//! The precomputed-variant table: a warm `optimize_order` with an
//! identical key is served from the generation cache in O(1), and only
//! clean, proven-complete searches are ever stored.

use amgen_compact::CompactOptions;
use amgen_core::GenCtx;
use amgen_db::{LayoutObject, Shape};
use amgen_geom::{um, Dir, Rect};
use amgen_opt::{Optimizer, RatingWeights, SearchOptions, Step};
use amgen_tech::Tech;

fn stripe(ctx: &GenCtx, w: i64, h: i64) -> LayoutObject {
    let poly = ctx.layer("poly").unwrap();
    let mut o = LayoutObject::new("s");
    o.push(Shape::new(poly, Rect::new(0, 0, w, h)));
    o
}

fn steps(ctx: &GenCtx) -> Vec<Step> {
    vec![
        Step::new(stripe(ctx, um(1), um(8)), Dir::East, CompactOptions::new()),
        Step::new(stripe(ctx, um(4), um(1)), Dir::North, CompactOptions::new()),
        Step::new(stripe(ctx, um(1), um(8)), Dir::East, CompactOptions::new()),
        Step::new(stripe(ctx, um(2), um(2)), Dir::East, CompactOptions::new()),
    ]
}

fn cached_ctx() -> GenCtx {
    GenCtx::from_tech(&Tech::bicmos_1u()).with_default_cache()
}

#[test]
fn warm_search_is_served_from_the_variant_table() {
    let ctx = cached_ctx();
    let opt = Optimizer::new(&ctx, RatingWeights::default());
    let s = steps(&ctx);
    let cold = opt.optimize_order(&s, SearchOptions::default()).unwrap();
    assert!(!cold.cached);
    assert!(cold.complete);
    assert!(cold.explored > 0);
    assert!(
        !cold.variants.is_empty(),
        "cached contexts collect variants"
    );
    assert_eq!(
        cold.variants[0].order, cold.order,
        "variants[0] is the winner"
    );

    let warm = opt.optimize_order(&s, SearchOptions::default()).unwrap();
    assert!(warm.cached, "identical key must hit the variant table");
    assert_eq!(warm.explored, 0, "a warm result does no search work");
    assert_eq!(warm.order, cold.order);
    assert_eq!(warm.layout, cold.layout);
    assert_eq!(warm.rating.score, cold.rating.score);
    assert_eq!(warm.variants, cold.variants);
    assert!(warm.complete && !warm.degraded);
    assert!(opt.ctx().snapshot().cache_hits >= 1);
}

#[test]
fn variants_are_sorted_best_first() {
    let ctx = cached_ctx();
    let opt = Optimizer::new(&ctx, RatingWeights::default());
    let r = opt
        .optimize_order(
            &steps(&ctx),
            SearchOptions {
                keep_first: false,
                ..Default::default()
            },
        )
        .unwrap();
    assert!(
        r.variants.len() >= 2,
        "a 4-step search rates several orders"
    );
    for w in r.variants.windows(2) {
        assert!(
            w[0].score < w[1].score || (w[0].score == w[1].score && w[0].order < w[1].order),
            "variants must be sorted by (score, order): {:?}",
            r.variants
        );
    }
    assert_eq!(r.rating.score, r.variants[0].score);
}

#[test]
fn different_keys_do_not_collide() {
    let ctx = cached_ctx();
    let opt = Optimizer::new(&ctx, RatingWeights::default());
    let s = steps(&ctx);
    let pinned = opt.optimize_order(&s, SearchOptions::default()).unwrap();
    // Same steps, different search option: a distinct key, so no hit.
    let free = opt
        .optimize_order(
            &s,
            SearchOptions {
                keep_first: false,
                ..Default::default()
            },
        )
        .unwrap();
    assert!(!free.cached, "keep_first is part of the key");
    assert!(free.rating.score <= pinned.rating.score + 1e-9);
    // Different weights: also a distinct key.
    let heavy = Optimizer::new(
        &ctx,
        RatingWeights {
            area_per_um2: 2.0,
            cap_per_af: 0.01,
        },
    );
    assert!(
        !heavy
            .optimize_order(&s, SearchOptions::default())
            .unwrap()
            .cached
    );
}

#[test]
fn incomplete_searches_are_never_stored() {
    let ctx = cached_ctx();
    let opt = Optimizer::new(&ctx, RatingWeights::default());
    let s = steps(&ctx);
    let capped = SearchOptions {
        keep_first: false,
        max_nodes: 3,
        ..Default::default()
    };
    let first = opt.optimize_order(&s, capped).unwrap();
    assert!(!first.complete, "3 nodes cannot complete a 4-step search");
    let second = opt.optimize_order(&s, capped).unwrap();
    assert!(
        !second.cached,
        "a best-effort result must never be served as a proven optimum"
    );
}

#[test]
fn uncached_contexts_are_unaffected() {
    let ctx = GenCtx::from_tech(&Tech::bicmos_1u());
    let opt = Optimizer::new(&ctx, RatingWeights::default());
    let s = steps(&ctx);
    let a = opt.optimize_order(&s, SearchOptions::default()).unwrap();
    let b = opt.optimize_order(&s, SearchOptions::default()).unwrap();
    assert!(!a.cached && !b.cached);
    assert!(a.variants.is_empty() && b.variants.is_empty());
    assert!(b.explored > 0);
    let snap = opt.ctx().snapshot();
    assert_eq!((snap.cache_hits, snap.cache_misses), (0, 0));
}
