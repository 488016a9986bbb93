//! Chaos suite: deterministic fault-injection sweeps over the paper's
//! figure workloads.
//!
//! The contract under test is the pipeline-wide robustness layer:
//!
//! * no panic escapes a public generator API under `Fail` injection at
//!   any site,
//! * every injected failure surfaces as a typed [`GenError`] carrying
//!   the site's stage,
//! * the parallel optimizer survives injected worker panics — it returns
//!   a valid layout or a typed error, never a wedged thread.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use amgen::amp::{build_amplifier, build_amplifier_cmos};
use amgen::compact::CompactError;
use amgen::modgen::baseline::contact_row_by_coordinates;
use amgen::modgen::bipolar::{bipolar_npn, bipolar_pair, NpnParams};
use amgen::modgen::capacitor::{mos_capacitor, MosCapParams};
use amgen::modgen::cascode::{cascode_pair, CascodeParams};
use amgen::modgen::centroid::{centroid_diff_pair, CentroidParams};
use amgen::modgen::diffpair::{diff_pair, DiffPairParams};
use amgen::modgen::diode::{diode_transistor, DiodeParams};
use amgen::modgen::guard::{guard_ring, GuardRingParams};
use amgen::modgen::interdigit::{interdigitated, InterdigitParams};
use amgen::modgen::mirror::{current_mirror, MirrorParams};
use amgen::modgen::mos::mos_finger;
use amgen::modgen::quad::{common_centroid_quad, QuadParams};
use amgen::modgen::resistor::{matched_resistor_pair, poly_resistor, ResistorParams};
use amgen::modgen::stacked::{stacked_transistor, StackedParams};
use amgen::modgen::{contact_row, mos_transistor, ContactRowParams, MosParams, MosType};
use amgen::prelude::*;

fn tech() -> Tech {
    Tech::bicmos_1u()
}

/// Fig. 1 — a latch-up workload built through the primitives, then
/// rule-checked. Exercises the prim fault sites and the checker.
fn fig01_latchup(ctx: &GenCtx) -> Result<(), GenError> {
    let prim = Primitives::new(ctx);
    let pdiff = ctx.layer("pdiff").expect("pdiff exists in bicmos_1u");
    let mut obj = LayoutObject::new("latchup");
    for i in 0..8i64 {
        let mut stripe = LayoutObject::new("stripe");
        prim.inbox(&mut stripe, pdiff, Some(um(8)), Some(um(6)))?;
        for s in stripe.shapes() {
            obj.push(
                Shape::new(s.layer, s.rect.translated(Vector::new(i * um(12), 0)))
                    .with_role(ShapeRole::DeviceActive),
            );
        }
    }
    let _report = Drc::new(ctx).check(&obj);
    Ok(())
}

/// Fig. 3 — the parameterized contact row.
fn fig03_contact_row(ctx: &GenCtx) -> Result<(), GenError> {
    let poly = ctx.layer("poly").expect("poly exists in bicmos_1u");
    contact_row(ctx, poly, &ContactRowParams::new().with_w(um(10)))?;
    Ok(())
}

/// Fig. 6 — the differential pair.
fn fig06_diff_pair(ctx: &GenCtx) -> Result<(), GenError> {
    diff_pair(
        ctx,
        &DiffPairParams::new(MosType::P).with_w(um(10)).with_l(um(2)),
    )?;
    Ok(())
}

/// Fig. 10 — the common-centroid pair in the paper's configuration.
fn fig10_centroid(ctx: &GenCtx) -> Result<(), GenError> {
    centroid_diff_pair(
        ctx,
        &CentroidParams::paper(MosType::N)
            .with_w(um(6))
            .with_l(um(1)),
    )?;
    Ok(())
}

/// Fig. 2 — the contact row written in the language (interpreter path).
fn fig02_dsl(ctx: &GenCtx) -> Result<(), GenError> {
    let mut interp = Interpreter::new(ctx.clone());
    interp.run(
        r#"
row = ContactRow(layer = "poly", W = 10)

ENT ContactRow(layer, <W>, <L>)
  INBOX(layer, W, L)
  INBOX("metal1")
  ARRAY("contact")
"#,
    )?;
    Ok(())
}

type Workload = fn(&GenCtx) -> Result<(), GenError>;

const WORKLOADS: [(&str, Workload); 5] = [
    ("fig01_latchup", fig01_latchup),
    ("fig03_contact_row", fig03_contact_row),
    ("fig06_diff_pair", fig06_diff_pair),
    ("fig10_centroid", fig10_centroid),
    ("fig02_dsl", fig02_dsl),
];

/// Every (site, nth-occurrence, workload) combination: the run must
/// return — no panic — and fail (with the injected, stage-tagged error)
/// exactly when the injection fired.
#[test]
fn fail_injection_sweep_is_typed_and_panic_free() {
    let t = tech();
    for site in FaultSite::ALL {
        for n in [1, 2, 5, 25] {
            for (name, workload) in WORKLOADS {
                let (plan, hook) = FaultPlan::new(0xC0FFEE).fail_nth(site, n).build();
                let ctx = GenCtx::from_tech(&t).with_faults(hook);
                let outcome =
                    catch_unwind(AssertUnwindSafe(|| workload(&ctx))).unwrap_or_else(|_| {
                        panic!("panic escaped {name} with Fail injected at {site} (n={n})")
                    });
                let fired = plan.injected() > 0;
                match outcome {
                    Ok(()) => assert!(
                        !fired,
                        "{name}: injection at {site} (n={n}) fired but the run succeeded"
                    ),
                    Err(e) => {
                        assert!(
                            fired,
                            "{name}: failed without an injection at {site} (n={n}): {e}"
                        );
                        assert!(e.is_injected(), "{name}: untyped failure at {site}: {e}");
                        assert_eq!(
                            e.stage,
                            site.stage(),
                            "{name}: injected failure lost its stage context: {e}"
                        );
                        assert_eq!(ctx.snapshot().faults_injected, plan.injected());
                    }
                }
            }
        }
    }
}

/// Seed-rate sweep: random-looking (but replayable) failures at every
/// site simultaneously. Runs must never panic and never return anything
/// but Ok or a typed error.
#[test]
fn seeded_rate_sweep_never_panics() {
    let t = tech();
    for seed in 0..8u64 {
        let mut plan = FaultPlan::new(seed);
        for site in FaultSite::ALL {
            plan = plan.fail_rate(site, 0.02);
        }
        let (plan, hook) = plan.build();
        let ctx = GenCtx::from_tech(&t).with_faults(hook);
        for (name, workload) in WORKLOADS {
            let outcome = catch_unwind(AssertUnwindSafe(|| workload(&ctx)))
                .unwrap_or_else(|_| panic!("panic escaped {name} at seed {seed}"));
            if let Err(e) = outcome {
                assert!(
                    e.is_injected(),
                    "{name} seed {seed}: failure was not the injected fault: {e}"
                );
            }
        }
        // Determinism: replaying the same seed injects identically.
        let mut replay = FaultPlan::new(seed);
        for site in FaultSite::ALL {
            replay = replay.fail_rate(site, 0.02);
        }
        let (replay, hook2) = replay.build();
        let ctx2 = GenCtx::from_tech(&t).with_faults(hook2);
        for (_, workload) in WORKLOADS {
            let _ = catch_unwind(AssertUnwindSafe(|| workload(&ctx2)));
        }
        assert_eq!(
            replay.injected(),
            plan.injected(),
            "seed {seed} must replay identically"
        );
    }
}

/// The optimizer under injected worker panics: for every seed the search
/// must hand back a full valid order (panicked branches pruned) or a
/// typed error — and return at all (no wedged Condvar wait).
#[test]
fn optimizer_survives_injected_worker_panics() {
    let t = tech();
    let poly = t.layer("poly").unwrap();
    let steps: Vec<Step> = (0..5i64)
        .map(|i| {
            let mut o = LayoutObject::new("s");
            o.push(Shape::new(poly, Rect::new(0, 0, um(2 + i % 3), um(2))));
            Step::new(o, Dir::ALL[(i as usize) % 4], CompactOptions::new())
        })
        .collect();
    for seed in 0..6u64 {
        let (plan, hook) = FaultPlan::new(seed)
            .panic_rate(FaultSite::OptWorker, 0.4)
            .build();
        let ctx = GenCtx::from_tech(&t).with_faults(hook);
        let opt = Optimizer::new(&ctx, RatingWeights::default());
        let r = opt.optimize_order(
            &steps,
            SearchOptions {
                keep_first: false,
                workers: 4,
                ..Default::default()
            },
        );
        match r {
            Ok(res) => {
                let mut sorted = res.order.clone();
                sorted.sort_unstable();
                assert_eq!(
                    sorted,
                    (0..steps.len()).collect::<Vec<_>>(),
                    "seed {seed}: result must be a valid permutation"
                );
                assert_eq!(
                    res.metrics.opt_panics,
                    plan.injected(),
                    "seed {seed}: every injected panic must be recorded"
                );
            }
            Err(e) => {
                let g: GenError = e.into();
                assert!(
                    g.is_injected() || matches!(g.kind, GenErrorKind::WorkerPanic(_)),
                    "seed {seed}: optimizer failure must be typed: {g}"
                );
            }
        }
    }
}

/// Injection and the generation cache compose: a context with a fault
/// hook installed bypasses the cache entirely — even a pre-warmed one —
/// so every injection site is still probed and every planned fault
/// still fires. A cached result must never mask a chaos run.
#[test]
fn chaos_runs_are_never_served_from_the_cache() {
    let t = tech();
    let cache = std::sync::Arc::new(GenCache::new());

    // Pre-warm the shared cache with clean runs of every workload.
    let warm = GenCtx::from_tech(&t).with_cache(std::sync::Arc::clone(&cache));
    for (name, workload) in WORKLOADS {
        workload(&warm).unwrap_or_else(|e| panic!("clean warm-up of {name} failed: {e}"));
    }
    assert!(
        warm.snapshot().cache_misses > 0,
        "warm-up must populate the cache"
    );

    for site in FaultSite::ALL {
        for (name, workload) in WORKLOADS {
            let (plan, hook) = FaultPlan::new(0xC0FFEE).fail_nth(site, 1).build();
            let ctx = GenCtx::from_tech(&t)
                .with_cache(std::sync::Arc::clone(&cache))
                .with_faults(hook);
            let outcome = catch_unwind(AssertUnwindSafe(|| workload(&ctx)))
                .unwrap_or_else(|_| panic!("panic escaped {name} with cache + fault at {site}"));
            let snap = ctx.snapshot();
            assert_eq!(
                (snap.cache_hits, snap.cache_misses),
                (0, 0),
                "{name}: a fault-hooked context touched the cache at {site}"
            );
            match outcome {
                Ok(()) => assert_eq!(plan.injected(), 0),
                Err(e) => {
                    assert!(
                        plan.injected() > 0,
                        "{name}: uninjected failure at {site}: {e}"
                    );
                    assert!(e.is_injected(), "{name}: untyped failure at {site}: {e}");
                }
            }
        }
    }
}

/// Budgets and injection compose: a cancelled context beats the fault
/// hook to the checkpoint, and the error stays typed.
#[test]
fn cancellation_wins_over_injection() {
    let t = tech();
    let (_, hook) = FaultPlan::new(1).fail_nth(FaultSite::PrimCall, 1).build();
    let ctx = GenCtx::from_tech(&t).with_faults(hook);
    ctx.cancel_token().cancel();
    let err = fig03_contact_row(&ctx).unwrap_err();
    assert!(err.is_cancelled(), "{err}");
}

/// One public entry point, called with valid arguments.
type Entry = fn(&GenCtx) -> Result<(), GenError>;

/// Drops an entry point's output, keeping its typed error.
fn done<T, E: Into<GenError>>(result: Result<T, E>) -> Result<(), GenError> {
    result.map(drop).map_err(Into::into)
}

fn layer(ctx: &GenCtx, name: &str) -> Layer {
    ctx.layer(name).expect("layer exists in bicmos_1u")
}

/// A one-rectangle object on `name`, built without any stage.
fn rect_on(ctx: &GenCtx, name: &str) -> LayoutObject {
    let mut obj = LayoutObject::new(name);
    obj.push(Shape::new(layer(ctx, name), Rect::new(0, 0, um(4), um(4))));
    obj
}

/// The optimizer's entry point. Under an expired deadline it returns its
/// incumbent flagged `degraded` instead of failing, so the sweep also
/// calls it directly to read the flag.
fn optimize_two_steps(c: &GenCtx) -> Result<OptResult, CompactError> {
    let steps = [
        Step::new(rect_on(c, "poly"), Dir::East, CompactOptions::new()),
        Step::new(rect_on(c, "poly"), Dir::North, CompactOptions::new()),
    ];
    Optimizer::new(c, RatingWeights::default()).optimize_order(&steps, SearchOptions::default())
}

/// Every public entry point that reaches a checkpoint: the module
/// generators, the primitives, the compactor, the wiring routines, the
/// optimizer, the amplifier builders and the interpreter.
const ENTRY_POINTS: [(&str, Entry); 34] = [
    ("contact_row", |c| {
        done(contact_row(c, layer(c, "poly"), &ContactRowParams::new()))
    }),
    ("contact_row_by_coordinates", |c| {
        done(contact_row_by_coordinates(c, "poly", um(10)))
    }),
    ("mos_transistor", |c| {
        done(mos_transistor(c, &MosParams::new(MosType::N)))
    }),
    ("mos_finger", |c| {
        done(mos_finger(c, MosType::P, None, None, "g", "d", true))
    }),
    ("diff_pair", |c| {
        done(diff_pair(c, &DiffPairParams::new(MosType::P)))
    }),
    ("interdigitated", |c| {
        done(interdigitated(c, &InterdigitParams::new(MosType::N, 4)))
    }),
    ("stacked_transistor", |c| {
        done(stacked_transistor(c, &StackedParams::new(MosType::N, 3)))
    }),
    ("centroid_diff_pair", |c| {
        done(centroid_diff_pair(c, &CentroidParams::paper(MosType::N)))
    }),
    ("current_mirror", |c| {
        done(current_mirror(c, &MirrorParams::new(MosType::N)))
    }),
    ("cascode_pair", |c| {
        done(cascode_pair(c, &CascodeParams::new(MosType::N)))
    }),
    ("diode_transistor", |c| {
        done(diode_transistor(c, &DiodeParams::new(MosType::N)))
    }),
    ("common_centroid_quad", |c| {
        done(common_centroid_quad(c, &QuadParams::new(MosType::N)))
    }),
    ("poly_resistor", |c| {
        done(poly_resistor(c, &ResistorParams::new(4)))
    }),
    ("matched_resistor_pair", |c| {
        done(matched_resistor_pair(c, 2, um(10)))
    }),
    ("mos_capacitor", |c| {
        done(mos_capacitor(c, &MosCapParams::new(MosType::N)))
    }),
    ("bipolar_npn", |c| done(bipolar_npn(c, &NpnParams::new()))),
    ("bipolar_pair", |c| done(bipolar_pair(c, &NpnParams::new()))),
    ("guard_ring", |c| {
        done(guard_ring(
            c,
            &rect_on(c, "ndiff"),
            &GuardRingParams::default(),
        ))
    }),
    ("Primitives::inbox", |c| {
        let mut obj = LayoutObject::new("p");
        done(Primitives::new(c).inbox(&mut obj, layer(c, "poly"), None, None))
    }),
    ("Primitives::array", |c| {
        let mut obj = rect_on(c, "poly");
        done(Primitives::new(c).array(&mut obj, layer(c, "contact")))
    }),
    ("Primitives::around", |c| {
        let mut obj = rect_on(c, "pdiff");
        done(Primitives::new(c).around(&mut obj, layer(c, "nwell"), 0))
    }),
    ("Primitives::ring", |c| {
        let mut obj = rect_on(c, "poly");
        done(Primitives::new(c).ring(&mut obj, layer(c, "pdiff"), None, None))
    }),
    ("Primitives::two_rects", |c| {
        let mut obj = LayoutObject::new("m");
        done(Primitives::new(c).two_rects(
            &mut obj,
            layer(c, "poly"),
            layer(c, "ndiff"),
            None,
            None,
        ))
    }),
    ("Compactor::compact", |c| {
        let mut main = LayoutObject::new("main");
        let opts = CompactOptions::new();
        done(Compactor::new(c).compact(&mut main, &rect_on(c, "poly"), Dir::West, &opts))
    }),
    ("Router::straight", |c| {
        let (a, b) = (
            Rect::new(0, 0, um(4), um(2)),
            Rect::new(0, um(8), um(4), um(10)),
        );
        let mut obj = LayoutObject::new("w");
        done(Router::new(c).straight(&mut obj, layer(c, "metal1"), a, b, None, None))
    }),
    ("Router::l_route", |c| {
        let (a, b) = (Point::new(0, 0), Point::new(um(10), um(10)));
        let mut obj = LayoutObject::new("w");
        done(Router::new(c).l_route(&mut obj, layer(c, "metal1"), a, b, None, None))
    }),
    ("Router::z_route", |c| {
        let (a, b) = (Point::new(0, 0), Point::new(um(10), um(10)));
        let mut obj = LayoutObject::new("w");
        done(Router::new(c).z_route(&mut obj, layer(c, "metal1"), a, b, um(5), None, None))
    }),
    ("Router::via_stack", |c| {
        let (via, m1, m2) = (layer(c, "via1"), layer(c, "metal1"), layer(c, "metal2"));
        let mut obj = LayoutObject::new("w");
        done(Router::new(c).via_stack(&mut obj, via, m1, m2, Point::new(0, 0), None))
    }),
    ("Router::underpass_v", |c| {
        let (via, m1, m2) = (layer(c, "via1"), layer(c, "metal1"), layer(c, "metal2"));
        let mut obj = LayoutObject::new("w");
        done(Router::new(c).underpass_v(&mut obj, via, m1, m2, 0, 0, um(10), None))
    }),
    ("Router::route_mirrored", |c| {
        let mut obj = LayoutObject::new("w");
        let (l, r) = (obj.net("l"), obj.net("r"));
        let path = [Rect::new(0, 0, um(2), um(10))];
        done(Router::new(c).route_mirrored(&mut obj, layer(c, "metal1"), &path, um(5), l, r))
    }),
    ("Optimizer::optimize_order", |c| done(optimize_two_steps(c))),
    ("build_amplifier", |c| done(build_amplifier(c))),
    ("build_amplifier_cmos", |c| done(build_amplifier_cmos(c))),
    ("Interpreter::run", |c| {
        done(Interpreter::new(c.clone()).run("x = 1\n"))
    }),
];

/// A limit armed on a context holds in every stage the context reaches.
/// Each entry point first runs on a live context (it must succeed), then
/// again under each limit: a cancelled token, a compaction-step or fuel
/// budget one below what the live run used, and an expired wall
/// deadline. No entry point finishes, and each reports the typed limit —
/// except the optimizer under the deadline, which by design returns its
/// incumbent flagged `degraded`.
#[test]
fn a_cancelled_context_stops_every_entry_point() {
    let t = tech();
    let (mut compacting, mut fuelled) = (0, 0);
    for (name, entry) in ENTRY_POINTS {
        let live = GenCtx::from_tech(&t);
        if let Err(e) = entry(&live) {
            panic!("{name} must succeed on a live context: {e}");
        }
        let exhausts = |budget: Budget, resource: Resource| {
            let e = entry(&GenCtx::from_tech(&t).with_budget(budget))
                .err()
                .unwrap_or_else(|| panic!("{name} finished past its {} budget", resource.name()));
            assert_eq!(
                e.kind,
                GenErrorKind::BudgetExhausted(resource),
                "{name}: {e}"
            );
        };
        let steps = live.limits.compact_steps();
        if steps > 0 {
            compacting += 1;
            exhausts(
                Budget::unlimited().with_max_compact_steps(steps - 1),
                Resource::CompactSteps,
            );
        }
        let fuel = live.limits.fuel_used();
        if fuel > 0 {
            fuelled += 1;
            exhausts(
                Budget::unlimited().with_dsl_fuel(fuel - 1),
                Resource::DslFuel,
            );
        }
        let expired = Budget::unlimited().with_wall(Duration::ZERO);
        if name == "Optimizer::optimize_order" {
            let r = optimize_two_steps(&GenCtx::from_tech(&t).with_budget(expired));
            assert!(
                r.expect("the optimizer degrades, not fails").degraded,
                "{name}"
            );
        } else {
            exhausts(expired, Resource::Wall);
        }
        let cancelled = GenCtx::from_tech(&t);
        cancelled.cancel_token().cancel();
        match entry(&cancelled) {
            Ok(()) => panic!("{name} finished on a cancelled context"),
            Err(e) => assert!(e.is_cancelled(), "{name}: {e}"),
        }
    }
    assert_eq!(
        (compacting, fuelled),
        (18, 1),
        "entries that compact / burn fuel"
    );
}
