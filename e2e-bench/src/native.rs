//! The native workloads: module generators and chip assembly called
//! directly, each operation signed off by DRC, latch-up and
//! connectivity extraction. No server, one thread, no cache. Their
//! end-to-end times are reported at reference speed ([`crate::reference`]).

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use amgen::core::{GenCtx, MetricsSnapshot};
use amgen::db::LayoutObject;
use amgen::drc::latchup::check_latchup;
use amgen::drc::Drc;
use amgen::extract::Extractor;
use amgen::geom::um;
use amgen::modgen::bipolar::{bipolar_npn, NpnParams};
use amgen::modgen::capacitor::{mos_capacitor, MosCapParams};
use amgen::modgen::cascode::{cascode_pair, CascodeParams};
use amgen::modgen::centroid::{centroid_diff_pair, CentroidParams};
use amgen::modgen::diffpair::{diff_pair, DiffPairParams};
use amgen::modgen::diode::{diode_transistor, DiodeParams};
use amgen::modgen::interdigit::{interdigitated, InterdigitParams};
use amgen::modgen::mirror::{current_mirror, MirrorParams};
use amgen::modgen::quad::{common_centroid_quad, QuadParams};
use amgen::modgen::resistor::{poly_resistor, ResistorParams};
use amgen::modgen::stacked::{stacked_transistor, StackedParams};
use amgen::modgen::{
    contact_row, mos_transistor, ContactRowParams, ModgenError, MosParams, MosType,
};
use amgen::tech::Tech;
use amgen_bench::workloads::fig_chip;

use crate::check::{Ledger, Signoff, Tally};
use crate::layers::Layers;
use crate::reference::Reference;
use crate::replay::{tech, TECHS};
use crate::report::{set_peak_rss, set_stage_values, set_timings, Values};
use crate::stats::median;
use crate::{Deck, Rng, Workload, SETUP_REPS};

type Build = fn(&GenCtx, &[i64]) -> Result<LayoutObject, ModgenError>;

/// A native generator with its parameter grid. Axis values are µm for
/// dimensions, counts for fingers and legs, and 0/1 for N/P.
struct Generator {
    name: &'static str,
    /// Needs the bipolar layers of `bicmos_1u`.
    bicmos_only: bool,
    axes: &'static [std::ops::RangeInclusive<i64>],
    build: Build,
}

fn mos(v: i64) -> MosType {
    if v == 0 {
        MosType::N
    } else {
        MosType::P
    }
}

fn count(v: i64) -> usize {
    v as usize
}

/// The module library over a parameter grid. Every point generates in
/// every technology it lists.
const GENERATORS: &[Generator] = &[
    Generator {
        name: "contact_row",
        bicmos_only: false,
        axes: &[0..=2, 2..=20, 2..=12],
        build: |ctx, p| {
            let layer = ["poly", "pdiff", "metal1"][p[0] as usize];
            let layer = ctx.layer(layer).expect("layer in both decks");
            contact_row(
                ctx,
                layer,
                &ContactRowParams::new().with_w(um(p[1])).with_l(um(p[2])),
            )
        },
    },
    Generator {
        name: "mos",
        bicmos_only: false,
        axes: &[0..=1, 2..=20, 1..=4],
        build: |ctx, p| {
            mos_transistor(
                ctx,
                &MosParams::new(mos(p[0])).with_w(um(p[1])).with_l(um(p[2])),
            )
        },
    },
    Generator {
        name: "interdigit",
        bicmos_only: false,
        axes: &[0..=1, 1..=8, 2..=16, 1..=3],
        build: |ctx, p| {
            let params = InterdigitParams::new(mos(p[0]), count(p[1]));
            interdigitated(ctx, &params.with_w(um(p[2])).with_l(um(p[3])))
        },
    },
    Generator {
        name: "stacked",
        bicmos_only: false,
        axes: &[0..=1, 1..=6, 2..=16, 1..=3],
        build: |ctx, p| {
            let params = StackedParams::new(mos(p[0]), count(p[1]));
            stacked_transistor(ctx, &params.with_w(um(p[2])).with_l(um(p[3])))
        },
    },
    Generator {
        name: "diode",
        bicmos_only: false,
        // W = 2 µm fails in bicmos_1u ("diode strap endpoints not
        // found"), so the grid starts at 3.
        axes: &[0..=1, 3..=16, 1..=3],
        build: |ctx, p| {
            diode_transistor(
                ctx,
                &DiodeParams::new(mos(p[0]))
                    .with_w(um(p[1]))
                    .with_l(um(p[2])),
            )
        },
    },
    Generator {
        name: "mirror",
        bicmos_only: false,
        axes: &[0..=1, 1..=3, 2..=12, 1..=3],
        build: |ctx, p| {
            let params = MirrorParams::new(mos(p[0])).with_side_fingers(count(p[1]));
            current_mirror(ctx, &params.with_w(um(p[2])).with_l(um(p[3])))
        },
    },
    Generator {
        name: "cascode",
        bicmos_only: false,
        axes: &[0..=1, 1..=3, 2..=12],
        build: |ctx, p| {
            let params = CascodeParams::new(mos(p[0])).with_fingers(count(p[1]));
            cascode_pair(ctx, &params.with_w(um(p[2])))
        },
    },
    Generator {
        name: "diff_pair",
        bicmos_only: false,
        axes: &[0..=1, 2..=16, 1..=3],
        build: |ctx, p| {
            diff_pair(
                ctx,
                &DiffPairParams::new(mos(p[0]))
                    .with_w(um(p[1]))
                    .with_l(um(p[2])),
            )
        },
    },
    Generator {
        name: "centroid",
        bicmos_only: false,
        axes: &[0..=1, 2..=10, 1..=2],
        build: |ctx, p| {
            let params = CentroidParams::paper(mos(p[0])).without_guard();
            centroid_diff_pair(ctx, &params.with_w(um(p[1])).with_l(um(p[2])))
        },
    },
    Generator {
        name: "quad",
        bicmos_only: false,
        axes: &[0..=1, 2..=10, 1..=2],
        build: |ctx, p| {
            common_centroid_quad(
                ctx,
                &QuadParams::new(mos(p[0])).with_w(um(p[1])).with_l(um(p[2])),
            )
        },
    },
    Generator {
        name: "resistor",
        bicmos_only: false,
        axes: &[1..=8, 4..=20],
        build: |ctx, p| {
            poly_resistor(ctx, &ResistorParams::new(count(p[0])).with_leg_l(um(p[1]))).map(|r| r.0)
        },
    },
    Generator {
        name: "capacitor",
        bicmos_only: false,
        axes: &[0..=1, 4..=20],
        build: |ctx, p| {
            mos_capacitor(ctx, &MosCapParams::new(mos(p[0])).with_side(um(p[1]))).map(|r| r.0)
        },
    },
    Generator {
        name: "npn",
        bicmos_only: true,
        axes: &[1..=6],
        build: |ctx, p| bipolar_npn(ctx, &NpnParams::new().with_emitter_l(um(p[0]))),
    },
];

impl Generator {
    fn points(&self) -> usize {
        self.axes
            .iter()
            .map(|a| (a.end() - a.start() + 1) as usize)
            .product()
    }

    fn params(&self, mut index: usize) -> Vec<i64> {
        self.axes
            .iter()
            .map(|a| {
                let len = (a.end() - a.start() + 1) as usize;
                let v = a.start() + (index % len) as i64;
                index /= len;
                v
            })
            .collect()
    }

    fn supports(&self, tech: &str) -> bool {
        !self.bicmos_only || tech == "bicmos_1u"
    }
}

/// One point of the native grid: a technology, a generator it
/// supports, and the generator's parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Draw {
    tech: usize,
    generator: usize,
    params: Vec<i64>,
}

impl Draw {
    fn key(&self) -> String {
        format!(
            "{}/{}/{:?}",
            GENERATORS[self.generator].name, TECHS[self.tech], self.params
        )
    }
}

/// The native grid, one class per (technology, generator) pair the
/// generator supports, each holding every point of its parameter grid.
pub fn module_classes() -> Vec<Vec<Draw>> {
    let mut classes = Vec::new();
    for (tech, name) in TECHS.iter().enumerate() {
        for (generator, g) in GENERATORS.iter().enumerate() {
            if g.supports(name) {
                let points = (0..g.points()).map(|i| Draw {
                    tech,
                    generator,
                    params: g.params(i),
                });
                classes.push(points.collect());
            }
        }
    }
    classes
}

/// A technology's rule deck, context and sign-off tools, built at set-up.
pub struct Signer {
    tech: Tech,
    ctx: GenCtx,
    drc: Drc,
    extractor: Extractor,
}

impl Signer {
    /// Builds the signer of technology `name`, and returns with it the
    /// time its `compile_arc` call took.
    fn new(name: &str) -> (Signer, Duration) {
        let tech = tech(name);
        let t0 = Instant::now();
        let rules = tech.compile_arc();
        let compile = t0.elapsed();
        let ctx = GenCtx::new(rules);
        let signer = Signer {
            drc: Drc::new(&ctx),
            extractor: Extractor::new(&ctx),
            tech,
            ctx,
        };
        (signer, compile)
    }

    /// DRC, latch-up and connectivity on `obj`, a span around each.
    fn sign_off(&self, obj: &LayoutObject, layers: &Layers) -> Signoff {
        let sink = layers.sink();
        let drc = {
            let _s = sink.span("drc", || "drc.check");
            self.drc.check(obj).len()
        };
        let latchup = {
            let _s = sink.span("drc", || "drc.latchup");
            check_latchup(&self.ctx, obj).len()
        };
        let nets = {
            let _s = sink.span("extract", || "extract.connectivity");
            self.extractor.connectivity(obj).len()
        };
        Signoff {
            signature: obj.signature(),
            drc,
            latchup,
            nets,
        }
    }

    /// Generates one draw.
    pub fn generate(&self, draw: &Draw) -> Result<LayoutObject, ModgenError> {
        (GENERATORS[draw.generator].build)(&self.ctx, &draw.params)
    }
}

/// The amplifier prototype a chip tile replicates, per technology.
fn prototype(name: &str, tech: &Tech) -> Result<LayoutObject, String> {
    let ctx = GenCtx::from_tech(tech).with_default_cache();
    let built = match name {
        "bicmos_1u" => amgen::amp::build_amplifier(&ctx),
        _ => amgen::amp::build_amplifier_cmos(&ctx),
    };
    built
        .map(|b| b.0)
        .map_err(|e| format!("{name} amplifier: {e}"))
}

/// What a native workload builds before it can run.
struct SetUp {
    /// One signer per technology, in [`TECHS`] order.
    signers: Vec<Signer>,
    /// The amplifier prototype per technology (chip workload only).
    protos: Vec<LayoutObject>,
}

/// Timings of every set-up built in one run.
#[derive(Default)]
struct SetUpTimes {
    /// Window time each set-up was built at, s; 0 for the one before.
    at: Vec<f64>,
    total_s: Vec<f64>,
    compile_us: Vec<f64>,
    amp_ms: Vec<f64>,
}

impl SetUpTimes {
    /// Builds the set-up once at window time `at`, timing it and its
    /// parts.
    fn build(&mut self, chip: bool, at: f64) -> Result<SetUp, String> {
        let t0 = Instant::now();
        let mut setup = SetUp {
            signers: Vec::new(),
            protos: Vec::new(),
        };
        for name in TECHS {
            let (signer, compile) = Signer::new(name);
            self.compile_us.push(compile.as_secs_f64() * 1e6);
            if chip {
                let t = Instant::now();
                setup.protos.push(prototype(name, &signer.tech)?);
                self.amp_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            setup.signers.push(signer);
        }
        self.total_s.push(t0.elapsed().as_secs_f64());
        self.at.push(at);
        Ok(setup)
    }
}

/// The input of one native operation.
enum Input {
    /// A module from the native grid.
    Module(Draw),
    /// A chip of `tiles` amplifier tiles in technology `tech`.
    Chip { tech: usize, tiles: usize },
}

/// The inputs a workload deals: a deck of classes, each a deck of
/// inputs, so that every class gets the same share of operations
/// whatever its number of inputs. A native class is a (technology,
/// generator) pair. A chip class is a tile count of 2-4 in one
/// technology, with two classes in bicmos_1u (the process of the
/// paper's amplifier) for each in cmos_08: with an even split of
/// technologies the six classes would put the median between two of
/// them.
fn inputs(chip: bool, seed: u64) -> Deck<Deck<Input>> {
    let classes: Vec<Vec<Input>> = if chip {
        [0, 0, 1]
            .into_iter()
            .flat_map(|tech| (2..=4).map(move |tiles| vec![Input::Chip { tech, tiles }]))
            .collect()
    } else {
        module_classes()
            .into_iter()
            .map(|points| points.into_iter().map(Input::Module).collect())
            .collect()
    };
    let decks = classes
        .into_iter()
        .enumerate()
        .map(|(i, inputs)| Deck::new(inputs, Rng::new(seed ^ ((i as u64 + 1) << 32))))
        .collect();
    Deck::new(decks, Rng::new(seed))
}

/// The (completion time, latency) of each measured operation, written
/// to a file in `out/` while the window runs and read back once it has
/// closed. Held in memory, the record would grow with the operation
/// count, and a faster program would read as a larger one in
/// `peak_rss_mb`. The file is removed when the log is dropped.
struct OpLog {
    path: PathBuf,
    out: BufWriter<File>,
}

impl OpLog {
    fn create(workload: Workload, seed: u64) -> Result<OpLog, String> {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        let name = format!("{}-seed{seed}-{}.ops", workload.name(), std::process::id());
        let path = dir.join(name);
        let file = std::fs::create_dir_all(&dir)
            .and_then(|()| File::create(&path))
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(OpLog {
            path,
            out: BufWriter::new(file),
        })
    }

    fn push(&mut self, at: f64, latency: f64) -> Result<(), String> {
        self.out
            .write_all(&at.to_le_bytes())
            .and_then(|()| self.out.write_all(&latency.to_le_bytes()))
            .map_err(|e| format!("cannot write {}: {e}", self.path.display()))
    }

    /// Every record, in the order pushed.
    fn read(&mut self) -> Result<Vec<(f64, f64)>, String> {
        let fail = |e: std::io::Error| format!("cannot read back {}: {e}", self.path.display());
        self.out.flush().map_err(fail)?;
        let bytes = std::fs::read(&self.path).map_err(fail)?;
        let f = |b: &[u8]| f64::from_le_bytes(b.try_into().expect("8 bytes"));
        Ok(bytes
            .chunks_exact(16)
            .map(|r| (f(&r[..8]), f(&r[8..])))
            .collect())
    }
}

impl Drop for OpLog {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Operations before the window opens.
const WARMUP_OPS: usize = 32;

/// Runs a native workload; `layers` records spans when tracing.
pub fn run(
    workload: Workload,
    seed: u64,
    window: Duration,
    layers: &mut Layers,
) -> Result<(Tally, Values), String> {
    let chip = workload == Workload::ChipSignoff;
    let mut times = SetUpTimes::default();
    let SetUp { signers, protos } = times.build(chip, 0.0)?;

    let mut deck = inputs(chip, seed);
    let mut ledger = Ledger::default();
    let mut tally = Tally::default();
    let mut log = OpLog::create(workload, seed)?;
    let (mut shapes, mut violations, mut nets) = (0, 0, 0);
    // Cumulative stage counters at the window start, per technology.
    let mut base: Vec<MetricsSnapshot> = Vec::new();
    let traced = layers.enabled();
    layers.sink().set_enabled(false);
    let mut start = Instant::now();
    // Window time spent re-timing the set-up and running the reference
    // kernel, which the window clock does not count.
    let mut paused = Duration::ZERO;
    let mut reference = Reference::default();
    let mut setups = 1;
    for i in 0.. {
        if i == WARMUP_OPS {
            base = signers.iter().map(|s| s.ctx.snapshot()).collect();
            layers.sink().set_enabled(traced);
            start = Instant::now();
        }
        let measured = i >= WARMUP_OPS;
        if measured {
            let elapsed = start.elapsed().saturating_sub(paused);
            if elapsed >= window {
                break;
            }
            paused += reference.tick(elapsed);
            // The set-up is a few microseconds to milliseconds of work
            // whose speed follows the machine's load, so it is built
            // again at even points of the window rather than all at
            // once before it: its median then samples the same machine
            // the operations ran on.
            if setups < SETUP_REPS && elapsed >= window * setups as u32 / SETUP_REPS as u32 {
                let t = Instant::now();
                drop(times.build(chip, elapsed.as_secs_f64())?);
                paused += t.elapsed();
                setups += 1;
            }
        }
        // Deal the input before the clock starts.
        let input = deck.deal().deal();
        let (tech, key) = match input {
            Input::Module(draw) => (draw.tech, draw.key()),
            Input::Chip { tech, tiles } => (*tech, format!("fig_chip/{}/{tiles}", TECHS[*tech])),
        };
        let signer = &signers[tech];
        let t0 = Instant::now();
        let mut op = layers.sink().span("bench", || "op");
        op.arg("seq", i as u64);
        let obj = match input {
            Input::Chip { tiles, .. } => {
                let _s = layers.sink().span("db", || "db.assemble");
                Ok(fig_chip(&signer.tech, &protos[tech], *tiles))
            }
            Input::Module(draw) => {
                let _s = layers.sink().span("modgen", || "modgen.gen");
                signer.generate(draw)
            }
        };
        let check = obj.map(|obj| {
            let signoff = signer.sign_off(&obj, layers);
            (obj.len(), signoff)
        });
        drop(op);
        let latency = t0.elapsed();
        let check = match check {
            Ok((len, signoff)) => {
                if measured {
                    shapes += len;
                    violations += signoff.drc + signoff.latchup;
                    nets += signoff.nets;
                }
                ledger.check(&key, signoff)
            }
            Err(e) => Err(format!("`{key}`: {e}")),
        };
        if measured {
            tally.record(check);
            let t = t0.duration_since(start).saturating_sub(paused) + latency;
            log.push(t.as_secs_f64(), latency.as_secs_f64() * 1e3)?;
            layers.end_op();
        } else if let Err(e) = check {
            tally.fail(format!("warm-up: {e}"));
        }
    }
    // Times of the window at reference speed; the per-layer times of a
    // traced run stay wall times.
    let setup_s: Vec<f64> = times
        .total_s
        .iter()
        .zip(&times.at)
        .map(|(s, &at)| s * reference.factor(at))
        .collect();
    let mut values = Values::default();
    set_peak_rss(&mut values);
    let mut done = log.read()?;
    let n = done.len() as u64;
    reference.scale(&mut done);
    values.set("setup_s", median(&setup_s), setup_s.len() as u64);
    values.set(
        "machine.reference_ms",
        reference.median_ms(),
        reference.runs() as u64,
    );
    values.set(
        "tech.compile_us",
        median(&times.compile_us),
        times.compile_us.len() as u64,
    );
    if chip {
        values.set(
            "amp.build_ms",
            median(&times.amp_ms),
            times.amp_ms.len() as u64,
        );
    }
    set_timings(&mut values, &done);
    if layers.enabled() {
        layers.fold();
        let front = if chip { "db.assemble" } else { "modgen.gen" };
        layers.set_means(
            &[front, "drc.check", "drc.latchup", "extract.connectivity"],
            n,
            &mut values,
        );
        let per_op = |total: usize| total as f64 / n.max(1) as f64;
        if !chip {
            values.set("modgen.shapes_per_op", per_op(shapes), n);
        }
        values.set("drc.violations", per_op(violations), n);
        values.set("extract.nets_per_op", per_op(nets), n);
        let deltas: Vec<MetricsSnapshot> = signers
            .iter()
            .zip(&base)
            .map(|(s, b)| delta(&s.ctx.snapshot(), b))
            .collect();
        set_stage_values(&deltas, n, &mut values);
    }
    Ok((tally, values))
}

/// `now - base` for the counters [`set_stage_values`] reads; the others
/// stay cumulative.
fn delta(now: &MetricsSnapshot, base: &MetricsSnapshot) -> MetricsSnapshot {
    let mut d = now.clone();
    d.objects_placed -= base.objects_placed;
    d.cache_evicted -= base.cache_evicted;
    for (slot, b) in d.stage_nanos.iter_mut().zip(base.stage_nanos) {
        *slot -= b;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every native grid point generates and signs off. Slow: run with
    /// `cargo test --release -- --ignored`.
    #[test]
    #[ignore]
    fn every_native_point_generates() {
        let signers: Vec<Signer> = TECHS.iter().map(|t| Signer::new(t).0).collect();
        let layers = Layers::new(false);
        let mut failures = Vec::new();
        let mut points = 0;
        for draw in module_classes().into_iter().flatten() {
            points += 1;
            match signers[draw.tech].generate(&draw) {
                Ok(obj) if !obj.is_empty() => {
                    signers[draw.tech].sign_off(&obj, &layers);
                }
                other => failures.push(format!("{}: {:?}", draw.key(), other.map(|o| o.len()))),
            }
        }
        assert!(
            failures.is_empty(),
            "{} of {points} failed: {:?}",
            failures.len(),
            &failures[..failures.len().min(10)]
        );
    }
}
