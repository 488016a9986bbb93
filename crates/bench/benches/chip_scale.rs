//! Chip-scale geometry gate: the spatial index must keep the geometry
//! core sub-quadratic as layouts grow from module to chip size.
//!
//! Seven gated series, one reported one and a reported tall case —
//!
//! * `latchup_n` — the latch-up check on an `n`-stripe workload, timed
//!   both as the pre-index sequential scan and on the spatial index.
//!   At n = 128 the indexed check must be at least 5x faster, and the
//!   fitted log-log growth exponent of the indexed check over
//!   n ∈ {8..128} must stay below 1.5 (the scan is ~quadratic).
//! * `fig_chip` — assembling the chip workload (the full amplifier
//!   replicated 10x plus rails) from a pre-built prototype must take
//!   under 1 ms per assembly; this is the arena-reservation path
//!   (`with_capacity`/`reserve`) end to end.
//! * `connectivity_t` — indexed connectivity extraction on the chip at
//!   t ∈ {1, 2, 4, 8, 16} tiles (1,350–21,576 shapes, index built once
//!   per chip): the fitted log-log growth exponent over the shape count
//!   must stay below 1.5, so extraction cannot turn quadratic. The
//!   chip's extraction memo and its sign-off join memo are both pinned
//!   to another deck, so every call runs the deck's join plan and the
//!   extraction kernel together instead of reading either memo.
//! * `index_t` — the spatial-index build on the same chips: a fresh
//!   clone's first `spatial_index()`, beside a clone-only mode so the
//!   build's share reads off the ratio. The fitted log-log growth
//!   exponent of the clone-plus-build time over the shape count must
//!   stay below 1.5.
//! * `plan_t` — the deck's sign-off plan alone on the same chips:
//!   `SpatialIndex::joins` with the join memo pinned to another deck, so
//!   every call runs every join of the plan. Each join sweeps the
//!   object's y-bands (a tile row, its rail and its stripe are bands of
//!   their own) and each pair of bands within its distance, so an
//!   entry's scan stays inside its row: the fitted log-log growth
//!   exponent must stay below 1.5 like the others. (Before the bands,
//!   the scan crossed every tile row and the exponent read 1.21–1.49.)
//! * `plan_column16` — the same plan on a tall object, 16 tiles in one
//!   column (about 21.6k shapes, 16 rows), printed beside the 16-tile
//!   square chip's: without bands its scan crossed all 16 rows.
//! * `extract_t` — the extraction kernel alone on the same chips:
//!   `Extractor::components` with the join memo warm for the deck and
//!   the component memo pinned to another deck, so every call runs the
//!   kernel on memoised pairs. Its fitted log-log growth exponent is
//!   printed but not gated: the connectivity series already gates the
//!   plan and the kernel together.
//! * `drc_t` — the full `Drc::check` on the same chips, index,
//!   extraction memo and join memo warm, so the series times the checks
//!   alone (the connectivity series gates the joins and the extraction):
//!   the fitted log-log growth exponent over the shape count must stay
//!   below 1.5 as well.
//! * a one-shot parity audit: indexed DRC and extraction must be
//!   byte-identical to the linear-scan baselines on the chip.
//!
//! The method (25 interleaved rounds, min-paired ratio) is
//! [`amgen_bench::sample`]'s. The bench asserts and exits nonzero on any
//! miss.

use amgen::drc::latchup;
use amgen::prelude::*;
use amgen_bench::sample::{fitted_exponent, fmt_dur, series, Mode};
use amgen_bench::workloads;
use std::hint::black_box;
use std::time::Duration;

fn main() {
    let tech = workloads::tech();
    let ctx = GenCtx::from_tech(&tech);

    // ---- latch-up scaling: scan vs indexed over the stripe sweep -----
    let mut indexed_points: Vec<(f64, f64)> = Vec::new();
    let mut speedup_128 = 0.0f64;
    for n in [8usize, 16, 32, 64, 128] {
        let obj = workloads::latchup_workload(&tech, n, 3);
        obj.spatial_index(); // the persistent index is built once
        let scan = Mode::new("scan", || {
            black_box(latchup::latchup_remainder_scan(&ctx, &obj).len());
        });
        let indexed = Mode::new("indexed", || {
            black_box(latchup::latchup_remainder(&ctx, &obj).len());
        });
        let s = series(&format!("chip/latchup_{n}"), 25, &[scan, indexed]);
        indexed_points.push((n as f64, s.fastest(1).as_nanos() as f64));
        if n == 128 {
            speedup_128 = 1.0 / s.ratios[1];
        }
    }
    let exponent = fitted_exponent(&indexed_points);
    println!(
        "{:<50} fitted exponent over n in 8..128: {exponent:.2}",
        "chip/latchup/indexed"
    );

    // ---- chip assembly: prototype built once, replication measured ---
    let proto = workloads::chip_prototype(&tech);
    let assemble10 = Mode::new("assemble", || {
        black_box(workloads::fig_chip(&tech, &proto, 10).len());
    });
    let chip_p50 = series("chip/fig_chip_10x", 25, &[assemble10]).median(0);

    // ---- connectivity and DRC scaling over the tile count -------------
    let ex = Extractor::new(&ctx);
    let drc = Drc::new(&ctx);
    // A lookup under another deck extracts, or runs its join plan,
    // without touching the memo.
    let other_deck = Tech::cmos_08();
    assert_ne!(other_deck.id(), tech.id());
    let mut connectivity_points: Vec<(f64, f64)> = Vec::new();
    let mut index_points: Vec<(f64, f64)> = Vec::new();
    let mut plan_points: Vec<(f64, f64)> = Vec::new();
    let mut extract_points: Vec<(f64, f64)> = Vec::new();
    let mut drc_points: Vec<(f64, f64)> = Vec::new();
    for tiles in [1usize, 2, 4, 8, 16] {
        let chip = workloads::fig_chip(&tech, &proto, tiles);
        // No index yet, so every clone builds its own on first use.
        let clone = Mode::new("clone", || {
            black_box(chip.clone().len());
        });
        let build = Mode::new("index", || {
            black_box(chip.clone().spatial_index().bbox());
        });
        let s = series(&format!("chip/index_{tiles}"), 25, &[clone, build]);
        index_points.push((chip.len() as f64, s.fastest(1).as_nanos() as f64));

        // Pin both memos to the other deck: every `connectivity` call
        // below runs the join plan and the extraction kernel.
        chip.spatial_index()
            .components(other_deck.id(), Default::default);
        chip.spatial_index().joins(&other_deck);
        let plan = Mode::new("joins", || {
            black_box(chip.spatial_index().joins(&tech));
        });
        let s = series(&format!("chip/plan_{tiles}"), 25, &[plan]);
        plan_points.push((chip.len() as f64, s.fastest(0).as_nanos() as f64));

        let extract = Mode::new("indexed", || {
            black_box(ex.connectivity(&chip).len());
        });
        let s = series(&format!("chip/connectivity_{tiles}"), 25, &[extract]);
        connectivity_points.push((chip.len() as f64, s.fastest(0).as_nanos() as f64));

        // The join memo warm for the deck, the component memo pinned to
        // the other: every call runs the kernel alone.
        let chip = workloads::fig_chip(&tech, &proto, tiles);
        chip.spatial_index().joins(&tech);
        chip.spatial_index()
            .components(other_deck.id(), Default::default);
        let kernel = Mode::new("kernel", || {
            black_box(ex.components(&chip).len());
        });
        let s = series(&format!("chip/extract_{tiles}"), 25, &[kernel]);
        extract_points.push((chip.len() as f64, s.fastest(0).as_nanos() as f64));

        let chip = workloads::fig_chip(&tech, &proto, tiles);
        ex.connectivity(&chip); // index, extraction and join memos warm
        let check = Mode::new("indexed", || {
            black_box(drc.check(&chip).len());
        });
        let s = series(&format!("chip/drc_{tiles}"), 25, &[check]);
        drc_points.push((chip.len() as f64, s.fastest(0).as_nanos() as f64));
    }
    let connectivity_exponent = fitted_exponent(&connectivity_points);
    println!(
        "{:<50} fitted exponent over 1..16 tiles: {connectivity_exponent:.2}",
        "chip/connectivity/indexed"
    );
    let index_exponent = fitted_exponent(&index_points);
    println!(
        "{:<50} fitted exponent over 1..16 tiles: {index_exponent:.2}",
        "chip/index/build"
    );
    let plan_exponent = fitted_exponent(&plan_points);
    println!(
        "{:<50} fitted exponent over 1..16 tiles: {plan_exponent:.2}",
        "chip/plan/joins"
    );
    let extract_exponent = fitted_exponent(&extract_points);
    println!(
        "{:<50} fitted exponent over 1..16 tiles: {extract_exponent:.2} (not gated)",
        "chip/extract/kernel"
    );
    let drc_exponent = fitted_exponent(&drc_points);
    println!(
        "{:<50} fitted exponent over 1..16 tiles: {drc_exponent:.2}",
        "chip/drc/indexed"
    );

    // ---- a tall object: the plan on 16 tiles in one column -----------
    let column = workloads::tiled_chip(&tech, &proto, 16, 1);
    column.spatial_index().joins(&other_deck);
    let plan = Mode::new("joins", || {
        black_box(column.spatial_index().joins(&tech));
    });
    let column_plan = series("chip/plan_column16", 25, &[plan]).fastest(0);
    let square_plan = Duration::from_nanos(plan_points[4].1 as u64);
    println!(
        "{:<50} {} on {} shapes, against {} on the 16-tile square chip (not gated)",
        "chip/plan/column16",
        fmt_dur(column_plan),
        column.len(),
        fmt_dur(square_plan)
    );

    // ---- parity audit on the assembled chip --------------------------
    let chip = workloads::fig_chip(&tech, &proto, 10);
    assert!(
        latchup::latchup_remainder(&ctx, &chip).rects()
            == latchup::latchup_remainder_scan(&ctx, &chip).rects(),
        "indexed latch-up diverged from the scan on the chip workload"
    );
    assert!(
        ex.connectivity(&chip) == ex.connectivity_scan(&chip),
        "indexed connectivity diverged from the scan on the chip workload"
    );
    println!("chip/parity: latchup + connectivity byte-identical on the 10x chip");

    // ---- gates -------------------------------------------------------
    assert!(
        speedup_128 >= 5.0,
        "indexed latch-up at 128 stripes is only {speedup_128:.1}x faster than the scan (floor 5x)"
    );
    assert!(
        exponent < 1.5,
        "indexed latch-up grows as n^{exponent:.2} over 8..128 (budget n^1.5)"
    );
    assert!(
        chip_p50 < Duration::from_millis(1),
        "fig_chip 10x assembly p50 is {} (budget 1 ms)",
        fmt_dur(chip_p50)
    );
    assert!(
        connectivity_exponent < 1.5,
        "indexed connectivity grows as n^{connectivity_exponent:.2} over 1..16 tiles (budget n^1.5)"
    );
    assert!(
        index_exponent < 1.5,
        "the index build grows as n^{index_exponent:.2} over 1..16 tiles (budget n^1.5)"
    );
    assert!(
        plan_exponent < 1.5,
        "the sign-off plan grows as n^{plan_exponent:.2} over 1..16 tiles (budget n^1.5)"
    );
    assert!(
        drc_exponent < 1.5,
        "indexed DRC grows as n^{drc_exponent:.2} over 1..16 tiles (budget n^1.5)"
    );
    println!(
        "chip scale smoke: latchup@128 >= 5x ({speedup_128:.1}x), exponent < 1.5 ({exponent:.2}), fig_chip 10x p50 < 1 ms ({}), connectivity exponent < 1.5 ({connectivity_exponent:.2}), index build exponent < 1.5 ({index_exponent:.2}), plan exponent < 1.5 ({plan_exponent:.2}), DRC exponent < 1.5 ({drc_exponent:.2})",
        fmt_dur(chip_p50)
    );
}
