//! The served workloads: two closed-loop clients against an in-process
//! `amgen-serve`, each on its own connection and tenant.
//!
//! The client is the crate's own `write_frame`/`read_frame` over a
//! plain `TcpStream` with default options, as SERVING.md documents it.
//! Setting `TCP_NODELAY` or buffering the frame would hide the framing
//! stalls this benchmark exists to show.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use amgen::faults::hostile;
use amgen::serve::json::Json;
use amgen::serve::proto::{read_frame, write_frame};
use amgen::serve::{ServeConfig, Server};
use amgen::trace::TraceSink;

use crate::check::{check_response, Digest, Expect, Ledger, Served, Tally};
use crate::layers::Layers;
use crate::replay::{Replayer, TECHS};
use crate::report::{set_peak_rss, set_stage_values, set_timings, Values};
use crate::stats::median;
use crate::{Deck, Rng, Workload, SETUP_REPS};

/// One tenant per client. FNV-1a puts these two on different shards of
/// the default two-worker pool (checked by a test).
pub const TENANTS: [&str; 2] = ["bench-a", "bench-b"];

/// One generation request, before it is addressed to a tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Request id; equal jobs share it, so their payloads must match.
    pub id: String,
    /// Technology.
    pub tech: &'static str,
    /// The program.
    pub source: String,
    /// Wire parameters.
    pub params: BTreeMap<String, Json>,
    /// The outcome the server must answer with.
    pub expect: Expect,
}

impl Job {
    fn new(id: &str, tech: &'static str, source: &str, params: &[(&str, Json)]) -> Job {
        Job {
            id: id.to_string(),
            tech,
            source: source.to_string(),
            params: params
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            expect: Expect::Ok,
        }
    }

    /// The request document sent by `tenant`.
    pub fn request(&self, tenant: &str) -> String {
        let mut doc = BTreeMap::new();
        doc.insert("id".to_string(), Json::from(self.id.as_str()));
        doc.insert("tenant".to_string(), Json::from(tenant));
        doc.insert("tech".to_string(), Json::from(self.tech));
        doc.insert("source".to_string(), Json::from(self.source.as_str()));
        if !self.params.is_empty() {
            doc.insert("params".to_string(), Json::Obj(self.params.clone()));
        }
        Json::Obj(doc).to_string()
    }
}

fn num(n: i64) -> Json {
    Json::from(n)
}

/// The `serve_warm` corpus: the six figure requests of the serving load
/// test, the block-E centroid, two `cmos_08` requests and two hostile
/// programs the server must refuse (2 of 11, under the breaker's 80%).
pub fn warm_corpus() -> Vec<Job> {
    let bomb = |h: hostile::Hostile, code: &'static str| Job {
        expect: Expect::Refused(code),
        ..Job::new(h.name, "bicmos_1u", h.source, &[])
    };
    vec![
        Job::new(
            "fig2-poly",
            "bicmos_1u",
            r#"row = ContactRow(layer = "poly", W = 10)"#,
            &[],
        ),
        Job::new(
            "fig2-pdiff",
            "bicmos_1u",
            "row = ContactRow(layer = lyr, W = w)",
            &[("lyr", Json::from("pdiff")), ("w", num(14))],
        ),
        Job::new("fig7", "bicmos_1u", "pair = DiffPair(W = 10, L = 2)", &[]),
        Job::new(
            "interdigit",
            "bicmos_1u",
            "t = Interdigit(n = n, W = 8, L = 2)",
            &[("n", num(4))],
        ),
        Job::new(
            "stacked",
            "bicmos_1u",
            "s = Stacked(n = 3, W = 8, L = 2)",
            &[],
        ),
        Job::new(
            "variant",
            "bicmos_1u",
            r#"r = FlexRow(layer = "poly", S = 20)"#,
            &[],
        ),
        Job::new(
            "centroid",
            "bicmos_1u",
            "e = CentroidE(side = 2, center = 2, W = 6, L = 1)",
            &[],
        ),
        Job::new("cmos-fig7", "cmos_08", "pair = DiffPair(W = 8, L = 1)", &[]),
        Job::new(
            "cmos-interdigit",
            "cmos_08",
            "t = Interdigit(n = n, W = 6, L = 1)",
            &[("n", num(6))],
        ),
        bomb(hostile::FUEL_BOMB, "ADMISSION_REFUSED"),
        bomb(hostile::RECURSION_BOMB, "LINT_REJECTED"),
    ]
}

/// One axis of a sweep family: a parameter name and its integer values.
type Axis = (&'static str, std::ops::RangeInclusive<i64>);

/// A family of the `serve_sweep` grid: a program over wire parameters
/// and the axes those parameters range over.
struct Family {
    name: &'static str,
    source: &'static str,
    layers: &'static [&'static str],
    axes: &'static [Axis],
}

/// Widths and lengths shared by the transistor families, µm. Wider
/// devices carry more contacts, and a response over the server's 8 KiB
/// write buffer waits for two framing stalls instead of one. Up to
/// 10 µm, about one response in eight is that large (the many-finger
/// `Interdigit` and `CentroidE` ones), few enough that a run clears the
/// 1000 operations of its p99 with room to spare (tested below). The
/// long L axis keeps the grid above 20 000 points.
const W: Axis = ("W", 4..=10);
const L: Axis = ("L", 1..=26);

/// The `serve_sweep` grid: every stdlib entity over its parameters.
const FAMILIES: &[Family] = &[
    Family {
        name: "interdigit",
        source: "t = Interdigit(n = n, W = W, L = L)",
        layers: &[],
        axes: &[("n", 1..=24), W, L],
    },
    Family {
        name: "stacked",
        source: "s = Stacked(n = n, W = W, L = L)",
        layers: &[],
        axes: &[("n", 1..=12), W, L],
    },
    Family {
        name: "diffpair",
        source: "p = DiffPair(W = W, L = L)",
        layers: &[],
        axes: &[W, L],
    },
    Family {
        name: "centroid",
        source: "e = CentroidE(side = side, center = center, W = W, L = L)",
        layers: &[],
        axes: &[("side", 1..=4), ("center", 1..=4), W, L],
    },
    Family {
        name: "contactrow",
        source: "r = ContactRow(layer = lyr, W = W, L = L)",
        layers: &["poly", "pdiff"],
        axes: &[W, ("L", 2..=30)],
    },
    Family {
        name: "flexrow",
        source: "r = FlexRow(layer = lyr, S = S)",
        layers: &["poly", "pdiff"],
        axes: &[("S", 4..=64)],
    },
];

fn axis_len(axis: &Axis) -> usize {
    (axis.1.end() - axis.1.start() + 1) as usize
}

impl Family {
    /// Grid points in one technology.
    fn points(&self) -> usize {
        self.layers.len().max(1) * self.axes.iter().map(axis_len).product::<usize>()
    }

    /// The `index`-th point, in `tech`.
    fn job(&self, tech: &'static str, mut index: usize) -> Job {
        let mut id = format!("{}-{tech}", self.name);
        let mut params = BTreeMap::new();
        if !self.layers.is_empty() {
            let layer = self.layers[index % self.layers.len()];
            index /= self.layers.len();
            id.push_str(&format!("-{layer}"));
            params.insert("lyr".to_string(), Json::from(layer));
        }
        for axis in self.axes {
            let v = axis.1.start() + (index % axis_len(axis)) as i64;
            index /= axis_len(axis);
            id.push_str(&format!("-{}{v}", axis.0));
            params.insert(axis.0.to_string(), num(v));
        }
        Job {
            id,
            tech,
            source: self.source.to_string(),
            params,
            expect: Expect::Ok,
        }
    }
}

/// Points in the whole sweep grid, both technologies.
pub fn sweep_points() -> usize {
    TECHS.len() * FAMILIES.iter().map(Family::points).sum::<usize>()
}

/// Every point of the sweep grid, in a fixed order.
pub fn sweep_grid() -> impl Iterator<Item = Job> {
    FAMILIES.iter().flat_map(|f| {
        TECHS
            .iter()
            .flat_map(move |&t| (0..f.points()).map(move |i| f.job(t, i)))
    })
}

/// One seeded sweep draw: a family, then a technology, then a point, so
/// every family gets the same share of requests whatever its size.
pub fn sweep_draw(rng: &mut Rng) -> Job {
    let family = &FAMILIES[rng.below(FAMILIES.len())];
    let tech = TECHS[rng.below(TECHS.len())];
    family.job(tech, rng.below(family.points()))
}

/// The job stream of one client.
enum Jobs {
    /// Seeded reshuffles of the warm corpus, one pass after another.
    Warm(Deck<Job>),
    /// Fresh seeded draws from the sweep grid.
    Sweep { rng: Rng },
}

impl Jobs {
    fn new(workload: Workload, seed: u64, client: usize) -> Jobs {
        let rng = Rng::new(seed ^ (0x5eed_0000 + client as u64));
        match workload {
            Workload::ServeWarm => Jobs::Warm(Deck::new(warm_corpus(), rng)),
            _ => Jobs::Sweep { rng },
        }
    }

    fn next(&mut self) -> Job {
        match self {
            Jobs::Warm(deck) => deck.deal().clone(),
            Jobs::Sweep { rng } => sweep_draw(rng),
        }
    }
}

/// Requests per client before the window opens: one pass over the warm
/// corpus, as many sweep draws.
const WARMUP_OPS: usize = 11;

/// One request as the client saw it.
struct ClientOp {
    /// Global send order.
    seq: u64,
    request: String,
    latency: Duration,
    /// When the response arrived.
    done: Instant,
    frame_bytes: usize,
    served: Option<Served>,
    measured: bool,
}

/// Sends one request and waits for its response.
fn round_trip(stream: &mut TcpStream, request: &str) -> Result<(Duration, Vec<u8>), String> {
    let t0 = Instant::now();
    write_frame(stream, request.as_bytes()).map_err(|e| format!("send failed: {e}"))?;
    let frame = read_frame(stream, usize::MAX).map_err(|e| format!("receive failed: {e}"))?;
    Ok((t0.elapsed(), frame))
}

/// Starts a server and waits until it has answered one request per
/// technology: the stdlib parse, both kernel compiles and the (absent)
/// snapshot load are then behind it.
fn start_ready() -> Result<(Server, Duration, Duration), String> {
    let t0 = Instant::now();
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).map_err(|e| e.to_string())?;
    let started = t0.elapsed();
    let mut stream = TcpStream::connect(server.addr()).map_err(|e| e.to_string())?;
    for tech in TECHS {
        let job = Job::new(
            &format!("ready-{tech}"),
            tech,
            "r = ContactRow(layer = \"poly\")",
            &[],
        );
        let (_, frame) = round_trip(&mut stream, &job.request(TENANTS[0]))?;
        check_response(&frame, &job.id, Expect::Ok)?;
    }
    Ok((server, started, t0.elapsed()))
}

/// What the client threads of one run share.
struct Clients<'a> {
    addr: SocketAddr,
    workload: Workload,
    seed: u64,
    window: Duration,
    /// Opened by the first client to finish warming up.
    window_start: Mutex<Option<Instant>>,
    /// The next global send sequence number.
    seq: AtomicU64,
    ledger: Mutex<Ledger<Digest>>,
    sink: &'a TraceSink,
}

impl Clients<'_> {
    /// One client's closed loop: warm-up, then requests until the
    /// window closes. Returns its operations and tally.
    fn run(&self, client: usize) -> Result<(Vec<ClientOp>, Tally), String> {
        let tenant = TENANTS[client];
        let mut jobs = Jobs::new(self.workload, self.seed, client);
        let mut stream = TcpStream::connect(self.addr).map_err(|e| e.to_string())?;
        let mut ops = Vec::new();
        let mut tally = Tally::default();
        for i in 0.. {
            let measured = i >= WARMUP_OPS;
            if measured {
                let start = *self
                    .window_start
                    .lock()
                    .expect("window lock")
                    .get_or_insert_with(Instant::now);
                if start.elapsed() >= self.window {
                    break;
                }
            }
            let job = jobs.next();
            let request = job.request(tenant);
            let seq = self.seq.fetch_add(1, Ordering::Relaxed);
            let (latency, frame) = {
                let mut span = self.sink.span("serve", || "serve.client");
                span.arg("seq", seq);
                round_trip(&mut stream, &request)?
            };
            let done = Instant::now();
            let served = check_response(&frame, &job.id, job.expect).and_then(|served| {
                let mut ledger = self.ledger.lock().expect("ledger lock");
                ledger.check(&job.id, served.digest).map(|()| served)
            });
            let (served, check) = match served {
                Ok(s) => (Some(s), Ok(())),
                Err(e) => (None, Err(e)),
            };
            if measured {
                tally.record(check);
            } else if let Err(e) = check {
                tally.fail(format!("warm-up: {e}"));
            }
            ops.push(ClientOp {
                seq,
                request,
                latency,
                done,
                frame_bytes: frame.len() + frame.len().to_string().len() + 1,
                served,
                measured,
            });
        }
        Ok((ops, tally))
    }
}

/// Runs a served workload; `layers` records spans when tracing.
pub fn run(
    workload: Workload,
    seed: u64,
    window: Duration,
    layers: &mut Layers,
) -> Result<(Tally, Values), String> {
    let mut values = Values::default();
    let mut setups = Vec::new();
    let mut starts = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPS {
        // The previous rep's server shuts down outside the timing.
        drop(server.take());
        let (s, started, ready) = start_ready()?;
        server = Some(s);
        starts.push(started.as_secs_f64() * 1e3);
        setups.push(ready.as_secs_f64());
    }
    let server = server.expect("at least one set-up");
    values.set("setup_s", median(&setups), setups.len() as u64);
    values.set("serve.start_ms", median(&starts), starts.len() as u64);

    let clients = Clients {
        addr: server.addr(),
        workload,
        seed,
        window,
        window_start: Mutex::new(None),
        seq: AtomicU64::new(0),
        ledger: Mutex::new(Ledger::default()),
        sink: layers.sink(),
    };
    let results: Vec<Result<_, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..TENANTS.len())
            .map(|c| {
                let clients = &clients;
                scope.spawn(move || clients.run(c))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut tally = Tally::default();
    let mut ops = Vec::new();
    for r in results {
        let (client_ops, client_tally) = r?;
        ops.extend(client_ops);
        tally.absorb(client_tally);
    }
    let start = clients
        .window_start
        .into_inner()
        .expect("window lock")
        .ok_or("no client reached the window")?;
    for (name, count) in [
        ("serve.shed", server.shed()),
        ("serve.protocol_errors", server.protocol_errors()),
        ("serve.worker_panics", server.worker_panics()),
        ("serve.breaker_refused", server.breaker_refused()),
    ] {
        if count > 0 {
            tally.fail(format!("server counter {name} = {count}, expected 0"));
        }
        values.set(name, count as f64, 1);
    }
    server.shutdown();

    set_peak_rss(&mut values);
    ops.sort_by_key(|op| op.seq);
    let measured: Vec<&ClientOp> = ops.iter().filter(|op| op.measured).collect();
    let done: Vec<(f64, f64)> = measured
        .iter()
        .map(|op| {
            let t = op.done.saturating_duration_since(start).as_secs_f64();
            (t, op.latency.as_secs_f64() * 1e3)
        })
        .collect();
    set_timings(&mut values, &done);
    if layers.enabled() {
        account(&ops, &measured, layers, &mut tally, &mut values);
    }
    Ok((tally, values))
}

/// The traced run's per-layer account: response statistics from the
/// live run, then the in-process replay of every request in send order.
fn account(
    ops: &[ClientOp],
    measured: &[&ClientOp],
    layers: &mut Layers,
    tally: &mut Tally,
    values: &mut Values,
) {
    let n = measured.len() as u64;
    let per_op = |total: f64| total / n.max(1) as f64;
    let served: Vec<&Served> = measured
        .iter()
        .filter_map(|op| op.served.as_ref())
        .collect();
    let client_us = per_op(
        measured
            .iter()
            .map(|op| op.latency.as_secs_f64() * 1e6)
            .sum(),
    );
    values.set("serve.client_us", client_us, n);
    values.set(
        "serve.checked_run_us",
        per_op(served.iter().map(|s| s.wall_us).sum()),
        n,
    );
    values.set(
        "dsl.fuel_per_op",
        per_op(served.iter().map(|s| s.fuel_used).sum()),
        n,
    );
    let (hits, misses): (f64, f64) = served.iter().fold((0.0, 0.0), |(h, m), s| {
        (h + s.cache_hits, m + s.cache_misses)
    });
    values.set("cache.hit_ratio", hits / (hits + misses).max(1.0), n);
    values.set(
        "serve.resp_kib",
        per_op(measured.iter().map(|op| op.frame_bytes as f64).sum()) / 1024.0,
        n,
    );
    let over = measured
        .iter()
        .filter(|op| op.frame_bytes > 8 * 1024)
        .count();
    values.set("serve.resp_over_8k_share", per_op(over as f64), n);

    let replayer = Replayer::new();
    values.set(
        "tech.compile_us",
        replayer.compile_time().as_secs_f64() * 1e6 / TECHS.len() as f64,
        TECHS.len() as u64,
    );
    let mut refused = 0u64;
    let mut shapes = 0u64;
    let mut snaps = Vec::new();
    for op in ops {
        // Warm-up requests replay untraced, so the replay's cache
        // starts the window as warm as the server's did.
        let sink = layers.sink();
        sink.set_enabled(op.measured);
        let out = {
            let mut span = sink.span("bench", || "op");
            span.arg("seq", op.seq);
            replayer.replay(&op.request, sink)
        };
        match out {
            Ok(out) => {
                if op.served.as_ref().is_some_and(|s| s.digest != out.digest) {
                    tally.fail(format!(
                        "replay of request {} differs from the live payload",
                        op.seq
                    ));
                }
                if op.measured {
                    refused += u64::from(out.refused);
                    shapes += out.shapes;
                    snaps.push(out.snap);
                }
            }
            Err(e) => tally.fail(format!("replay of request {} failed: {e}", op.seq)),
        }
        if op.measured {
            layers.end_op();
        }
    }
    layers.sink().set_enabled(true);
    layers.fold();
    let spans = [
        "serve.decode",
        "dsl.setup",
        "lint.certify",
        "lint.admit",
        "dsl.run",
        "serve.encode",
    ];
    let accounted = layers.set_means(&spans, n, values);
    values.set("serve.residual_us", client_us - accounted, n);
    values.set("serve.accounted_share", accounted / client_us, n);
    values.set("lint.refused_share", per_op(refused as f64), n);
    values.set("dsl.shapes_per_op", per_op(shapes as f64), n);
    set_stage_values(&snaps, n, values);
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use amgen::serve::json;

    use super::*;
    use crate::compare::load_bounds;
    use crate::stats::MIN_BEYOND;

    fn fnv1a(s: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in s.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    #[test]
    fn tenants_land_on_different_shards() {
        let workers = ServeConfig::default().workers as u64;
        assert_ne!(fnv1a(TENANTS[0]) % workers, fnv1a(TENANTS[1]) % workers);
    }

    #[test]
    fn warm_corpus_keeps_bombs_under_the_breaker_threshold() {
        let corpus = warm_corpus();
        assert_eq!(corpus.len(), WARMUP_OPS);
        let bombs = corpus.iter().filter(|j| j.expect != Expect::Ok).count();
        let pct = ServeConfig::default().breaker_threshold_pct as usize;
        assert!(bombs * 100 < pct * corpus.len());
    }

    #[test]
    fn sweep_grid_has_twenty_thousand_distinct_points() {
        assert!(sweep_points() >= 20_000, "{}", sweep_points());
        let ids: std::collections::HashSet<String> = sweep_grid().map(|j| j.id).collect();
        assert_eq!(ids.len(), sweep_points());
    }

    #[test]
    fn sweep_draws_repeat_for_a_seed() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..50).map(|_| sweep_draw(&mut rng).id).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
    }

    /// The framing stall a response waits for per 8 KiB write, ms, as
    /// measured at the commit that added the benchmark (README, "The
    /// 44 ms finding").
    const STALL_MS: f64 = 44.0;

    /// `serve_sweep` must make enough operations for its p99 even after a
    /// throughput loss up to the bound: otherwise a change within the
    /// bound would fail the run as incorrect instead of being judged
    /// against it. The operation count is predicted from the response
    /// sizes of seeded draws, one stall per started 8 KiB.
    #[test]
    fn sweep_clears_the_p99_floor_by_more_than_the_throughput_bound() {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
        let bench = root.join("BENCHMARK.json");
        let bound = load_bounds(&bench)
            .unwrap()
            .into_iter()
            .find(|b| b.name == "throughput_ops_s")
            .expect("throughput bound")
            .bound;
        let text = std::fs::read_to_string(&bench).unwrap();
        let seconds = json::parse(&text)
            .unwrap()
            .get("run_seconds")
            .and_then(Json::as_num)
            .expect("run_seconds");

        let replayer = Replayer::new();
        let sink = TraceSink::new();
        sink.set_enabled(false);
        let mut rng = Rng::new(1);
        let draws = 300;
        let mut stall_ms = 0.0;
        for _ in 0..draws {
            let out = replayer
                .replay(&sweep_draw(&mut rng).request(TENANTS[0]), &sink)
                .unwrap();
            stall_ms += STALL_MS * out.frame_bytes.div_ceil(8 * 1024) as f64;
        }
        let ops = TENANTS.len() as f64 * seconds * 1e3 / (stall_ms / draws as f64);
        let floor = (MIN_BEYOND * 100) as f64;
        assert!(
            ops * (1.0 - bound) > floor,
            "{ops:.0} operations predicted; {:.0} after a {bound} loss, {floor} needed",
            ops * (1.0 - bound)
        );
    }

    /// Every sweep point is admitted and generated. Slow: run with
    /// `cargo test --release -- --ignored`.
    #[test]
    #[ignore]
    fn every_sweep_point_generates() {
        let replayer = Replayer::new();
        let sink = TraceSink::new();
        let mut failures = Vec::new();
        for job in sweep_grid() {
            match replayer.replay(&job.request(TENANTS[0]), &sink) {
                Ok(out) if !out.refused && out.shapes > 0 => {}
                other => failures.push(format!("{}: {other:?}", job.id)),
            }
        }
        assert!(
            failures.is_empty(),
            "{} failed: {:?}",
            failures.len(),
            &failures[..failures.len().min(10)]
        );
    }
}
