//! Cache behaviour of the module generators: hits are structurally
//! identical to fresh builds, hierarchical generators reuse child
//! modules, and contexts without a cache are unaffected. The last tests
//! pin the generator entry protocol itself: what a hit, a cold build and
//! a fault-probed build record.

use std::sync::{Arc, Mutex};

use amgen_core::{FaultAction, FaultHook, FaultSite, GenCache, GenCtx, Stage};
use amgen_geom::um;
use amgen_modgen::capacitor::{mos_capacitor, MosCapParams};
use amgen_modgen::centroid::{centroid_diff_pair, CentroidParams};
use amgen_modgen::diffpair::{diff_pair, DiffPairParams};
use amgen_modgen::mos::mos_finger;
use amgen_modgen::resistor::{matched_resistor_pair, poly_resistor, ResistorParams};
use amgen_modgen::{contact_row, mos_transistor, ContactRowParams, MosParams, MosType};
use amgen_tech::Tech;

fn cached_ctx() -> GenCtx {
    GenCtx::from_tech(&Tech::bicmos_1u()).with_default_cache()
}

#[test]
fn hit_is_structurally_identical_to_fresh_build() {
    let ctx = cached_ctx();
    let fresh_ctx = GenCtx::from_tech(&Tech::bicmos_1u());

    let params = MosParams::new(MosType::N);
    let cold = mos_transistor(&ctx, &params).unwrap();
    let warm = mos_transistor(&ctx, &params).unwrap();
    let fresh = mos_transistor(&fresh_ctx, &params).unwrap();
    // Same context: byte-for-byte identical (layer handles included).
    assert_eq!(cold, warm);
    // Different compiled ruleset: layer handles carry a different
    // compile brand, so compare the geometric signature.
    assert_eq!(cold.signature(), fresh.signature());
    assert_eq!(cold.signature(), warm.signature());

    let snap = ctx.snapshot();
    assert!(snap.cache_hits >= 1, "{snap}");
    assert!(snap.cache_misses >= 1, "{snap}");
    // The uncached context never touched a cache.
    let fresh_snap = fresh_ctx.snapshot();
    assert_eq!((fresh_snap.cache_hits, fresh_snap.cache_misses), (0, 0));
}

#[test]
fn scalar_outputs_are_cached_alongside_the_layout() {
    let ctx = cached_ctx();
    let params = ResistorParams::new(4);
    let (cold, r_cold) = poly_resistor(&ctx, &params).unwrap();
    let (warm, r_warm) = poly_resistor(&ctx, &params).unwrap();
    assert_eq!(cold, warm);
    assert_eq!(r_cold, r_warm);
    assert!(ctx.snapshot().cache_hits >= 1);
}

#[test]
fn distinct_params_do_not_collide() {
    let ctx = cached_ctx();
    let poly = ctx.layer("poly").unwrap();
    let a = contact_row(&ctx, poly, &ContactRowParams::new()).unwrap();
    let b = contact_row(&ctx, poly, &ContactRowParams::new().with_net("gnd")).unwrap();
    assert_ne!(a, b, "net parameter must be part of the key");
    let c = diff_pair(&ctx, &DiffPairParams::new(MosType::N)).unwrap();
    let d = diff_pair(&ctx, &DiffPairParams::new(MosType::P)).unwrap();
    assert_ne!(c.signature(), d.signature());
}

/// The fig10 acceptance: the centroid pair internally builds many
/// fig06-scale sub-modules (contact rows, guard-ring rows), and with a
/// cache those child builds are served from memory — the miss count
/// stays below the total number of sub-builds.
#[test]
fn centroid_build_reuses_child_modules() {
    let ctx = cached_ctx();
    let cold = centroid_diff_pair(&ctx, &CentroidParams::paper(MosType::N)).unwrap();
    let snap = ctx.snapshot();
    assert!(
        snap.cache_hits >= 1,
        "a single centroid build must reuse at least one child module: {snap}"
    );
    let total_sub_builds = snap.cache_hits + snap.cache_misses;
    assert!(
        snap.cache_misses < total_sub_builds,
        "misses ({}) must stay below total sub-builds ({})",
        snap.cache_misses,
        total_sub_builds
    );

    // The whole module is itself memoized: a repeat build is one hit.
    let hits_before = snap.cache_hits;
    let warm = centroid_diff_pair(&ctx, &CentroidParams::paper(MosType::N)).unwrap();
    assert_eq!(cold, warm);
    assert!(ctx.snapshot().cache_hits > hits_before);
}

/// α-renaming: a diff pair's two fingers (and its repeated contact
/// rows) differ only in net labels, so they share canonical cache
/// entries within one cold build — and the served modules are
/// byte-identical to an uncached build under the caller's labels.
#[test]
fn diff_pair_fingers_share_one_alpha_entry() {
    let ctx = cached_ctx();
    let p = DiffPairParams::new(MosType::P);
    let cold = diff_pair(&ctx, &p).unwrap();

    let snap = ctx.snapshot();
    assert!(
        snap.cache_hits >= 1,
        "label-renamed fingers must share one entry: {snap}"
    );
    for port in ["g1", "g2", "s", "d1", "d2"] {
        assert!(cold.port(port).is_some(), "missing port {port}");
    }
    assert!(
        cold.net_names().iter().all(|n| !n.contains('\u{1}')),
        "placeholder labels must never leak: {:?}",
        cold.net_names()
    );

    // Byte-identical to an uncached build under the same compiled rules.
    let plain = GenCtx {
        rules: Arc::clone(&ctx.rules),
        ..GenCtx::from_tech(&Tech::bicmos_1u())
    };
    let uncached = diff_pair(&plain, &p).unwrap();
    assert_eq!(cold, uncached, "α-renamed serving must be transparent");

    let warm = diff_pair(&ctx, &p).unwrap();
    assert_eq!(cold, warm);
}

#[test]
fn caches_are_shared_across_clones_and_contexts() {
    let cache = Arc::new(GenCache::new());
    let a = GenCtx::from_tech(&Tech::bicmos_1u()).with_cache(Arc::clone(&cache));
    let params = MosParams::new(MosType::N);
    let cold = mos_transistor(&a, &params).unwrap();

    // A second context sharing the cache (same compiled rules) hits.
    let b = GenCtx {
        rules: Arc::clone(&a.rules),
        ..GenCtx::from_tech(&Tech::bicmos_1u())
    }
    .with_cache(Arc::clone(&cache));
    let warm = mos_transistor(&b, &params).unwrap();
    assert_eq!(cold, warm);
    assert_eq!(b.snapshot().cache_hits, 1);

    // A context compiled from a *different* ruleset instance must
    // rebuild: the key carries the compile brand, so none of the stored
    // entries can be served. (Intra-build dedup hits against its own
    // fresh entries are fine.)
    let other = GenCtx::from_tech(&Tech::bicmos_1u()).with_cache(Arc::clone(&cache));
    let rebuilt = mos_transistor(&other, &params).unwrap();
    assert!(other.snapshot().cache_misses >= 1);
    assert_ne!(
        cold, rebuilt,
        "old-brand bytes must never be served across compiles"
    );
    assert_eq!(
        cold.signature(),
        rebuilt.signature(),
        "same rules still generate identically"
    );
}

/// The drained `modgen` events of `ctx`, span ends left out: each span's
/// name where it opens, and the `cache.hit` / `cache.miss` instants.
fn modgen_events(ctx: &GenCtx) -> Vec<String> {
    ctx.trace
        .drain()
        .events
        .into_iter()
        .filter(|e| e.cat == "modgen" && format!("{:?}", e.phase) != "End")
        .map(|e| e.name.to_string())
        .collect()
}

/// A warm call is served before the `Stage::Modgen` guard opens: no
/// span, no stage time, one `cache.hit` instant — for layout-only,
/// value-returning and α-renamed generators alike.
#[test]
fn a_warm_call_records_only_a_cache_hit() {
    let ctx = cached_ctx().with_tracing(true);
    let poly = ctx.layer("poly").unwrap();
    let calls: [&dyn Fn(&GenCtx); 4] = [
        &|c| drop(diff_pair(c, &DiffPairParams::new(MosType::N)).unwrap()),
        &|c| drop(poly_resistor(c, &ResistorParams::new(3)).unwrap()),
        &|c| drop(contact_row(c, poly, &ContactRowParams::new().with_net("x")).unwrap()),
        &|c| drop(mos_finger(c, MosType::P, None, None, "g", "d", true).unwrap()),
    ];
    for call in calls {
        call(&ctx);
        ctx.trace.drain();
        let charged = ctx.snapshot().stage_nanos(Stage::Modgen);
        call(&ctx);
        assert_eq!(ctx.snapshot().stage_nanos(Stage::Modgen), charged);
        assert_eq!(modgen_events(&ctx), ["cache.hit"]);
    }
}

/// A cold fig06 build opens one span per generator entered, in call
/// order; with a cache, each keyed entry first records its lookup, and
/// the second finger and the `d2` row are served as α-renamed hits.
#[test]
fn a_cold_fig06_build_records_its_generator_spans() {
    let fig06 = DiffPairParams::new(MosType::P).with_w(um(10)).with_l(um(2));
    let plain = GenCtx::from_tech(&Tech::bicmos_1u()).with_tracing(true);
    diff_pair(&plain, &fig06).unwrap();
    assert_eq!(
        modgen_events(&plain),
        [
            "diff_pair",
            "mos_finger",
            "contact_row",
            "contact_row",
            "mos_finger",
            "contact_row",
            "contact_row",
            "contact_row",
        ]
    );
    let cached = cached_ctx().with_tracing(true);
    diff_pair(&cached, &fig06).unwrap();
    assert_eq!(
        modgen_events(&cached),
        [
            "cache.miss",
            "diff_pair",
            "cache.miss",
            "mos_finger",
            "cache.miss",
            "contact_row",
            "cache.miss",
            "contact_row",
            "cache.hit",
            "cache.hit",
        ]
    );
}

/// Records the detail of every `ModgenEntry` probe and lets it proceed.
#[derive(Debug, Default)]
struct EntryProbes(Mutex<Vec<String>>);

impl FaultHook for EntryProbes {
    fn decide(&self, site: FaultSite, detail: &str) -> FaultAction {
        if site == FaultSite::ModgenEntry {
            self.0.lock().unwrap().push(detail.to_string());
        }
        FaultAction::Proceed
    }
}

/// A fault hook bypasses the cache, so every generator entered runs its
/// build and probes `ModgenEntry` exactly once, under its span's name.
#[test]
fn every_generator_entered_probes_its_entry_once() {
    let probes = Arc::new(EntryProbes::default());
    let ctx = cached_ctx()
        .with_faults(Arc::clone(&probes) as Arc<dyn FaultHook>)
        .with_tracing(true);
    centroid_diff_pair(&ctx, &CentroidParams::paper(MosType::N)).unwrap();
    matched_resistor_pair(&ctx, 2, um(10)).unwrap();
    mos_capacitor(&ctx, &MosCapParams::new(MosType::P)).unwrap();
    let spans = modgen_events(&ctx);
    let probed = probes.0.lock().unwrap().clone();
    assert!(probed.len() > 20, "{probed:?}");
    assert_eq!(probed, spans);
    let snap = ctx.snapshot();
    assert_eq!((snap.cache_hits, snap.cache_misses), (0, 0));
}
