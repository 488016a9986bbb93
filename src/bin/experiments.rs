//! The reproduction harness: regenerates every figure/measurement of the
//! paper and prints paper-reported vs. measured values — the data behind
//! EXPERIMENTS.md.
//!
//! ```sh
//! cargo run --release --bin experiments
//! ```

use amgen::amp::build_amplifier;
use amgen::drc::latchup;
use amgen::dsl::{stdlib, Interpreter};
use amgen::modgen::baseline::BASELINE_SOURCE;
use amgen::modgen::centroid::{centroid_diff_pair, CentroidParams};
use amgen::modgen::diffpair::{diff_pair, DiffPairParams};
use amgen::modgen::{contact_row, ContactRowParams, MosType};
use amgen::opt::{Optimizer, RatingWeights, SearchOptions, Step};
use amgen::prelude::*;
use std::time::Instant;

fn header(title: &str) {
    println!();
    println!("==== {title} ====");
}

fn main() {
    let tech = Tech::bicmos_1u();
    std::fs::create_dir_all("out").expect("create out/");
    // `--trace out.json` (or AMGEN_TRACE=out.json) records every figure
    // into one Chrome-trace file; stages sharing `ctx` contribute spans.
    let trace_path = amgen::trace::trace_path_from_args();
    let ctx = GenCtx::from_tech(&tech).with_tracing_at(if trace_path.is_some() {
        Detail::Fine
    } else {
        Detail::Off
    });

    let figure = |name: &'static str, f: &dyn Fn()| {
        let _span = ctx.trace.span("experiments", || name);
        f();
    };
    figure("fig1", &|| fig1(&tech, &ctx));
    figure("fig3", &|| fig3(&tech, &ctx));
    figure("fig4", &|| fig4(&tech));
    figure("fig5", &|| fig5(&tech, &ctx));
    figure("fig6", &|| fig6(&tech, &ctx));
    figure("fig9", &|| fig9(&tech, &ctx));
    figure("fig10", &|| fig10(&tech, &ctx));
    figure("code_length", &code_length);
    figure("opt_order", &|| opt_order(&tech, &ctx));
    figure("catalog", &|| catalog(&tech, &ctx));
    println!();
    println!("done — SVG/GDS/CIF artifacts in out/");
    if let Some(path) = trace_path {
        println!("{}", ctx.run_report());
        ctx.trace
            .drain()
            .write_chrome_file(&path)
            .expect("write trace");
        println!("chrome trace written to {}", path.display());
    }
}

/// Fig. 1: the 16 overlap cases of the latch-up subtraction.
fn fig1(tech: &Tech, ctx: &GenCtx) {
    header("Fig. 1 — latch-up rule check (16 overlap cases)");
    let d = tech.latchup_distance();
    let solid = Rect::new(0, 0, 8 * d, 8 * d);
    let cases = [
        ("full", (-d, 9 * d)),
        ("low", (-2 * d, 0)),
        ("high", (8 * d, 10 * d)),
        ("middle", (4 * d - 100, 4 * d + 100)),
    ];
    let mut ok = 0;
    for &(hn, (x0, x1)) in &cases {
        for &(vn, (y0, y1)) in &cases {
            let pdiff = tech.layer("pdiff").unwrap();
            let mut obj = LayoutObject::new("case");
            obj.push(Shape::new(pdiff, solid).with_role(ShapeRole::DeviceActive));
            obj.push(
                Shape::new(pdiff, Rect::new(x0, y0, x1, y1)).with_role(ShapeRole::SubstrateContact),
            );
            let rem = latchup::latchup_remainder(ctx, &obj);
            let cover = Rect::new(x0, y0, x1, y1).inflated(d);
            let cut = solid.intersection(&cover).map_or(0, |o| o.area());
            let exact = rem.area() == solid.area() - cut;
            if exact {
                ok += 1;
            }
            println!(
                "  {hn:>6} x {vn:<6} remainders = {:2}  exact-area = {exact}",
                rem.len()
            );
        }
    }
    println!("  paper: systematic check of all 16 overlap cases | measured: {ok}/16 exact");
}

/// Fig. 3: the three contact-row variants.
fn fig3(tech: &Tech, ctx: &GenCtx) {
    header("Fig. 3 — contact row variants");
    let poly = tech.layer("poly").unwrap();
    let ct = tech.layer("contact").unwrap();
    let variants: [(&str, ContactRowParams); 3] = [
        ("W,L omitted", ContactRowParams::new()),
        ("W = 10 um ", ContactRowParams::new().with_w(um(10))),
        (
            "W = 8, L = 6",
            ContactRowParams::new().with_w(um(8)).with_l(um(6)),
        ),
    ];
    println!("  paper: single contact | one row | 2-D array (shapes of Fig. 3)");
    for (name, p) in variants {
        let row = contact_row(ctx, poly, &p).unwrap();
        let xs: std::collections::HashSet<i64> = row.shapes_on(ct).map(|s| s.rect.x0).collect();
        let ys: std::collections::HashSet<i64> = row.shapes_on(ct).map(|s| s.rect.y0).collect();
        let clean = Drc::new(ctx).check(&row).is_empty();
        println!(
            "  {name:14} -> {:5.1} x {:4.1} um, {:2} contacts ({}x{}), DRC clean = {clean}",
            row.bbox().width() as f64 / 1e3,
            row.bbox().height() as f64 / 1e3,
            row.shapes_on(ct).count(),
            xs.len(),
            ys.len(),
        );
    }
}

/// Fig. 4: the fill-pattern legend for the layers.
fn fig4(tech: &Tech) {
    header("Fig. 4 — layer legend");
    let legend = amgen::export::render_legend(tech);
    std::fs::write("out/fig4_legend.svg", &legend).unwrap();
    println!(
        "  {} layers rendered (paper: fill patterns; here: colour swatches) -> out/fig4_legend.svg",
        tech.layer_count()
    );
}

/// The whole module library: one line per generator (sizes, check).
fn catalog(tech: &Tech, ctx: &GenCtx) {
    use amgen::modgen::capacitor::{mos_capacitor, MosCapParams};
    use amgen::modgen::cascode::{cascode_pair, CascodeParams};
    use amgen::modgen::diode::{diode_transistor, DiodeParams};
    use amgen::modgen::interdigit::{interdigitated, InterdigitParams};
    use amgen::modgen::mirror::{current_mirror, MirrorParams};
    use amgen::modgen::quad::{common_centroid_quad, QuadParams};
    use amgen::modgen::resistor::{poly_resistor, ResistorParams};
    use amgen::modgen::stacked::{stacked_transistor, StackedParams};
    use amgen::modgen::{contact_row, mos_transistor, ContactRowParams, MosParams, MosType};

    header("Module library catalogue");
    let drc = Drc::new(ctx);
    let print_row = |name: &str, m: &LayoutObject, extra: String| {
        let bb = m.bbox();
        let shorts = drc
            .check_spacing(m)
            .iter()
            .filter(|v| v.kind == amgen::drc::ViolationKind::Short)
            .count();
        println!(
            "  {name:22} {:6.1} x {:5.1} um  {:4} shapes  shorts={shorts}  {extra}",
            bb.width() as f64 / 1e3,
            bb.height() as f64 / 1e3,
            m.len(),
        );
        // Every catalogue module also exports to CIF.
        let cif = amgen::export::write_cif(tech, m);
        assert!(amgen::export::parse_cif_summary(&cif).is_ok());
    };
    let poly = tech.layer("poly").unwrap();
    let row = contact_row(ctx, poly, &ContactRowParams::new().with_w(um(10))).unwrap();
    print_row("contact_row", &row, String::new());
    let m = mos_transistor(ctx, &MosParams::new(MosType::N).with_w(um(10))).unwrap();
    print_row("mos_transistor", &m, String::new());
    let m = interdigitated(ctx, &InterdigitParams::new(MosType::N, 4).with_w(um(8))).unwrap();
    print_row("interdigitated x4", &m, String::new());
    let m = stacked_transistor(ctx, &StackedParams::new(MosType::N, 4).with_w(um(6))).unwrap();
    print_row("stacked x4", &m, String::new());
    let m = diode_transistor(ctx, &DiodeParams::new(MosType::N).with_w(um(8))).unwrap();
    print_row("diode_connected", &m, String::new());
    let m = current_mirror(ctx, &MirrorParams::new(MosType::N).with_w(um(6))).unwrap();
    print_row("current_mirror", &m, String::new());
    let m = cascode_pair(ctx, &CascodeParams::new(MosType::N).with_w(um(6))).unwrap();
    print_row("cascode_pair", &m, String::new());
    let m = common_centroid_quad(ctx, &QuadParams::new(MosType::N).with_w(um(6))).unwrap();
    print_row("centroid_quad (2-D)", &m, String::new());
    let (m, ohms) = poly_resistor(ctx, &ResistorParams::new(6).with_leg_l(um(15))).unwrap();
    print_row("poly_resistor", &m, format!("≈ {ohms:.0} Ω"));
    let (m, ff) = mos_capacitor(ctx, &MosCapParams::new(MosType::N).with_side(um(12))).unwrap();
    print_row("mos_capacitor", &m, format!("≈ {ff:.2} fF"));
}

/// Fig. 5: auto-connect and the variable-edge ablation.
fn fig5(tech: &Tech, ctx: &GenCtx) {
    header("Fig. 5 — variable edges (fixed vs variable ablation)");
    let poly = tech.layer("poly").unwrap();
    let m1 = tech.layer("metal1").unwrap();
    let comp = Compactor::new(ctx);
    let run = |variable: bool| -> (i64, usize, usize) {
        let mut p = ContactRowParams::new().with_w(um(4)).with_l(um(12));
        if variable {
            p = p.with_variable_edges();
        }
        let row = contact_row(ctx, poly, &p).unwrap();
        let mut probe = LayoutObject::new("probe");
        let sig = probe.net("sig");
        probe.push(Shape::new(m1, Rect::new(0, 0, um(2), um(12))).with_net(sig));
        let mut main = LayoutObject::new("main");
        comp.compact(&mut main, &row, Dir::West, &CompactOptions::new())
            .unwrap();
        let r = comp
            .compact(&mut main, &probe, Dir::East, &CompactOptions::new())
            .unwrap();
        (main.bbox().width(), r.shrunk_edges, r.rebuilt_groups)
    };
    let (w_fixed, _, _) = run(false);
    let (w_var, shrunk, rebuilt) = run(true);
    println!("  fixed edges:    width {:5.1} um", w_fixed as f64 / 1e3);
    println!(
        "  variable edges: width {:5.1} um  ({} edge(s) moved, {} group(s) rebuilt)",
        w_var as f64 / 1e3,
        shrunk,
        rebuilt
    );
    println!(
        "  paper: 'a substantial reduction of the layout area' | measured: -{:.0}%",
        100.0 * (w_fixed - w_var) as f64 / w_fixed as f64
    );
}

/// Figs. 6/7: the differential pair, native and through the DSL.
fn fig6(tech: &Tech, ctx: &GenCtx) {
    header("Figs. 6/7 — MOS differential pair");
    let t0 = Instant::now();
    let native = diff_pair(
        ctx,
        &DiffPairParams::new(MosType::P).with_w(um(10)).with_l(um(2)),
    )
    .unwrap();
    let native_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut interp = Interpreter::new(ctx.clone());
    interp.load(stdlib::FIG2_CONTACT_ROW).unwrap();
    interp.load(stdlib::FIG7_DIFF_PAIR).unwrap();
    let t0 = Instant::now();
    let out = interp.run("diff = DiffPair(W = 10, L = 2)\n").unwrap();
    let dsl_ms = t0.elapsed().as_secs_f64() * 1e3;
    let dsl_pair = &out["diff"];
    let poly = tech.layer("poly").unwrap();
    let gates = |o: &LayoutObject| {
        o.shapes_on(poly)
            .filter(|s| s.rect.height() > 3 * s.rect.width())
            .count()
    };
    println!(
        "  native: {} shapes, {} gates, {:.1} x {:.1} um, {:.2} ms",
        native.len(),
        gates(&native),
        native.bbox().width() as f64 / 1e3,
        native.bbox().height() as f64 / 1e3,
        native_ms
    );
    println!(
        "  DSL:    {} shapes, {} gates, {:.1} x {:.1} um, {:.2} ms (interpreted)",
        dsl_pair.len(),
        gates(dsl_pair),
        dsl_pair.bbox().width() as f64 / 1e3,
        dsl_pair.bbox().height() as f64 / 1e3,
        dsl_ms
    );
    println!(
        "  paper: 2 transistors, 3 diffusion rows, 2 poly contacts | measured gates: {}",
        gates(dsl_pair)
    );
    std::fs::write("out/fig6_diffpair.svg", render_svg(tech, dsl_pair)).unwrap();
    std::fs::write(
        "out/fig6_diffpair.cif",
        amgen::export::write_cif(tech, dsl_pair),
    )
    .unwrap();
}

/// Figs. 8/9: the amplifier.
fn fig9(tech: &Tech, ctx: &GenCtx) {
    header("Figs. 8/9 — BiCMOS amplifier");
    let t0 = Instant::now();
    let (amp, report) = build_amplifier(ctx).unwrap();
    let secs = t0.elapsed().as_secs_f64();
    for (name, w, h) in &report.blocks {
        println!("  block {name:18} {w:7.1} x {h:6.1} um");
    }
    println!(
        "  total {:.1} x {:.1} um = {:.0} um^2   (paper: 592 x 481 = 284,752 um^2, other device sizes)",
        report.width_um,
        report.height_um,
        report.width_um * report.height_um
    );
    println!(
        "  shorts = {}  spacing = {}  latch-up clean = {}  C(out) = {:.1} fF  [{secs:.2} s]",
        report.shorts, report.spacing, report.latchup_clean, report.output_cap_ff
    );
    std::fs::write("out/fig9_amplifier.svg", render_svg(tech, &amp)).unwrap();
    std::fs::write("out/fig9_amplifier.gds", write_gds(tech, &amp)).unwrap();
    // System-level technology independence: the CMOS variant of the same
    // amplifier, generated in the 0.8 µm deck.
    let cmos = Tech::cmos_08();
    let (_, rc) = amgen::amp::build_amplifier_cmos(&GenCtx::from_tech(&cmos)).unwrap();
    println!(
        "  CMOS variant in {}: {:.1} x {:.1} um, shorts = {}, latch-up clean = {}",
        cmos.name(),
        rc.width_um,
        rc.height_um,
        rc.shorts,
        rc.latchup_clean
    );
}

/// Fig. 10: the centroid pair.
fn fig10(tech: &Tech, ctx: &GenCtx) {
    header("Fig. 10 — centroidal cross-coupled pair (block E)");
    let t0 = Instant::now();
    let m = centroid_diff_pair(
        ctx,
        &CentroidParams::paper(MosType::N)
            .with_w(um(6))
            .with_l(um(1)),
    )
    .unwrap();
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let counts = Router::new(ctx).crossing_counts(&m);
    let get = |n: &str| {
        counts
            .iter()
            .find(|(x, _)| x == n)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    };
    let poly = tech.layer("poly").unwrap();
    let stripes = m
        .shapes_on(poly)
        .filter(|s| s.rect.height() > 3 * s.rect.width())
        .count();
    println!(
        "  {} shapes, {} gate fingers (8 active + 16 dummies)",
        m.len(),
        stripes
    );
    println!(
        "  crossings d1 = {}, d2 = {} (paper: 'every net has identical crossings')",
        get("d1"),
        get("d2")
    );
    println!(
        "  latch-up clean = {} (substrate contacts included in the module)",
        latchup::check_latchup(ctx, &m).is_empty()
    );
    println!("  build time {ms:.1} ms (paper: 5 s on 1996 hardware)");
    std::fs::write("out/fig10_centroid.svg", render_svg(tech, &m)).unwrap();
    // The same placement written in the language itself (the paper's
    // module E source was ~180 lines).
    let dsl_lines = stdlib::CENTROID_PLACEMENT
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .count();
    let mut i = Interpreter::new(ctx.clone());
    i.load(stdlib::FIG2_CONTACT_ROW).unwrap();
    i.load(stdlib::CENTROID_PLACEMENT).unwrap();
    let out = i
        .run("e = CentroidE(side = 4, center = 8, W = 6, L = 1)\n")
        .unwrap();
    println!(
        "  same placement in the DSL: {dsl_lines} lines (paper: ~180), {} shapes",
        out["e"].len()
    );
}

fn significant_lines(src: &str) -> usize {
    src.lines()
        .map(str::trim)
        .filter(|l| {
            !l.is_empty() && !l.starts_with("//") && !l.starts_with("#[") && !l.starts_with("#!")
        })
        .count()
}

/// T-code: DSL source length vs the coordinate-level baseline.
fn code_length() {
    header("T-code — module source length, DSL vs coordinate level");
    let dsl_row = significant_lines(stdlib::FIG2_CONTACT_ROW);
    let dsl_pair = significant_lines(stdlib::FIG7_DIFF_PAIR);
    // The baseline file: count only the generator function body (strip
    // the test module).
    let baseline_body = BASELINE_SOURCE
        .split("#[cfg(test)]")
        .next()
        .unwrap_or(BASELINE_SOURCE);
    let baseline = significant_lines(baseline_body);
    println!("  ContactRow in the DSL:          {dsl_row:4} lines");
    println!("  DiffPair + Trans in the DSL:    {dsl_pair:4} lines");
    println!("  coordinate-level contact row:   {baseline:4} lines (Rust, rules by hand)");
    println!(
        "  paper: coordinate methods 'needed a multiple of this source code' | measured ratio: {:.1}x",
        baseline as f64 / dsl_row as f64
    );
}

/// §2.4: the optimization mode.
fn opt_order(tech: &Tech, ctx: &GenCtx) {
    header("T-opt — compaction-order optimization (section 2.4)");
    let poly = tech.layer("poly").unwrap();
    let mut seed = LayoutObject::new("L");
    seed.push(Shape::new(poly, Rect::new(0, 0, um(1), um(8))));
    seed.push(Shape::new(poly, Rect::new(0, 0, um(8), um(1))));
    let mut steps = vec![Step::new(seed, Dir::East, CompactOptions::new())];
    for i in 0..4 {
        let y0 = (i as i64 % 3) * um(3);
        let mut sq = LayoutObject::new("sq");
        sq.push(Shape::new(poly, Rect::new(0, y0, um(2), y0 + um(2))));
        steps.push(Step::new(sq, Dir::East, CompactOptions::new()));
    }
    let opt = Optimizer::new(ctx, RatingWeights::default());
    let (_, written) = opt.build(&steps).unwrap();
    let best = opt
        .optimize_order(&steps, SearchOptions::default())
        .unwrap();
    println!(
        "  written order: area {:7.1} um^2 | optimized: {:7.1} um^2 ({:.0}% better)",
        written.area_um2,
        best.rating.area_um2,
        100.0 * (written.area_um2 - best.rating.area_um2) / written.area_um2
    );
    println!(
        "  search: {} explored, {} pruned, {} dominated, best order {:?}, {:.1} ms",
        best.explored,
        best.pruned,
        best.dominated,
        best.order,
        best.wall.as_secs_f64() * 1e3
    );
    let par = opt
        .optimize_order(&steps, SearchOptions::parallel())
        .unwrap();
    assert_eq!(
        par.order, best.order,
        "parallel search must agree with sequential"
    );
    println!(
        "  parallel ({} workers): {} explored, {:.1} ms",
        par.workers,
        par.explored,
        par.wall.as_secs_f64() * 1e3
    );
}
