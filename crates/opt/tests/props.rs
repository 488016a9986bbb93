//! Property tests for the order optimizer: the search result is never
//! worse than any specific permutation it explored against, the parallel
//! search agrees with the sequential one, and results are deterministic.

use amgen_compact::CompactOptions;
use amgen_core::GenCtx;
use amgen_db::{LayoutObject, Shape};
use amgen_geom::{Dir, Rect};
use amgen_opt::{Optimizer, RatingWeights, SearchOptions, Step};
use amgen_tech::Tech;
use proptest::prelude::*;

fn steps_from(spec: &[(i64, i64, usize)], tech: &GenCtx) -> Vec<Step> {
    let poly = tech.layer("poly").unwrap();
    spec.iter()
        .map(|&(w, h, side)| {
            let mut o = LayoutObject::new("s");
            o.push(Shape::new(poly, Rect::new(0, 0, w * 1_000, h * 1_000)));
            Step::new(o, Dir::ALL[side], CompactOptions::new())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The optimizer's score is a lower bound over every permutation
    /// (sampled via a shuffle seed) of the same steps.
    #[test]
    fn optimum_beats_any_permutation(
        spec in prop::collection::vec((1i64..8, 1i64..8, 0usize..4), 2..5),
        shuffle in prop::collection::vec(0usize..100, 2..5),
    ) {
        let tech = GenCtx::from_tech(&Tech::bicmos_1u());
        let opt = Optimizer::new(&tech, RatingWeights::default());
        let steps = steps_from(&spec, &tech);
        let best = opt
            .optimize_order(
                &steps,
                SearchOptions { keep_first: false, max_nodes: 100_000, ..Default::default() },
            )
            .unwrap();
        // Build one specific permutation derived from the shuffle values.
        let mut order: Vec<usize> = (0..steps.len()).collect();
        for (i, &s) in shuffle.iter().enumerate() {
            let j = s % steps.len();
            order.swap(i % steps.len(), j);
        }
        let permuted: Vec<Step> = order.iter().map(|&i| steps[i].clone()).collect();
        let (_, perm_rating) = opt.build(&permuted).unwrap();
        prop_assert!(
            best.rating.score <= perm_rating.score + 1e-9,
            "optimizer {} > permutation {} (order {order:?})",
            best.rating.score,
            perm_rating.score
        );
    }

    /// The reported best order reproduces the reported rating exactly.
    #[test]
    fn reported_order_reproduces_rating(
        spec in prop::collection::vec((1i64..8, 1i64..8, 0usize..4), 2..5),
    ) {
        let tech = GenCtx::from_tech(&Tech::bicmos_1u());
        let opt = Optimizer::new(&tech, RatingWeights::default());
        let steps = steps_from(&spec, &tech);
        let best = opt.optimize_order(&steps, SearchOptions::default()).unwrap();
        let reordered: Vec<Step> = best.order.iter().map(|&i| steps[i].clone()).collect();
        let (_, rating) = opt.build(&reordered).unwrap();
        prop_assert!((rating.score - best.rating.score).abs() < 1e-9);
    }

    /// The parallel search returns the same best score — and, through the
    /// lexicographic tie-break, the same best order — as the sequential
    /// search, on random 3–6-step workloads.
    #[test]
    fn parallel_matches_sequential(
        spec in prop::collection::vec((1i64..8, 1i64..8, 0usize..4), 3..7),
    ) {
        let tech = GenCtx::from_tech(&Tech::bicmos_1u());
        let opt = Optimizer::new(&tech, RatingWeights::default());
        let steps = steps_from(&spec, &tech);
        let base = SearchOptions { keep_first: false, max_nodes: 1_000_000, ..Default::default() };
        let seq = opt.optimize_order(&steps, base).unwrap();
        let par = opt
            .optimize_order(&steps, SearchOptions { workers: 4, ..base })
            .unwrap();
        prop_assert_eq!(seq.rating.score, par.rating.score);
        prop_assert_eq!(&seq.order, &par.order);
        // Dominance off must not change the answer either (it may only
        // explore more).
        let plain = opt
            .optimize_order(&steps, SearchOptions { dominance: false, ..base })
            .unwrap();
        prop_assert_eq!(seq.rating.score, plain.rating.score);
        prop_assert_eq!(&seq.order, &plain.order);
        prop_assert!(seq.explored <= plain.explored);
    }

    /// Two runs with the same parallel configuration give identical
    /// results, bit for bit — thread scheduling must not leak into the
    /// answer.
    #[test]
    fn parallel_search_is_deterministic(
        spec in prop::collection::vec((1i64..8, 1i64..8, 0usize..4), 3..7),
    ) {
        let tech = GenCtx::from_tech(&Tech::bicmos_1u());
        let opt = Optimizer::new(&tech, RatingWeights::default());
        let steps = steps_from(&spec, &tech);
        let opts = SearchOptions {
            keep_first: false,
            max_nodes: 1_000_000,
            workers: 4,
            ..Default::default()
        };
        let a = opt.optimize_order(&steps, opts).unwrap();
        let b = opt.optimize_order(&steps, opts).unwrap();
        prop_assert_eq!(a.rating.score, b.rating.score);
        prop_assert_eq!(a.order, b.order);
    }
}
