//! The indexed checker against its all-pairs oracle (`check_scan` and
//! each sub-check's `*_scan` twin) on random dirty layouts in both
//! built-in decks and in `bicmos_1u` without its spacing rules: every
//! layer, cuts at and off cut size, touching shapes on different nets,
//! near-miss gaps for every spaced layer pair, cuts enclosed only by the
//! union of two shapes, min-area clusters, narrow straps and latch-up
//! roles, at module scale, at chip depth, and at chip depth in y-strips
//! whose gaps lie around the deck's largest spacing rule, so the
//! spatial index's joins run across its bands.
//! Each case also runs the checker after `connectivity` has filled the
//! extraction memo, and the other way round.

use amgen_core::GenCtx;
use amgen_db::{LayoutObject, NetId, Shape, ShapeRole};
use amgen_drc::latchup::{check_latchup, check_latchup_scan};
use amgen_drc::{Drc, ViolationKind};
use amgen_extract::Extractor;
use amgen_geom::Vector;
use amgen_geom::{Coord, Rect};
use amgen_tech::builtin::BICMOS_1U;
use amgen_tech::{Layer, LayerKind, Tech};
use proptest::prelude::*;
use proptest::rng::TestRng;
use std::sync::OnceLock;

/// Grid unit of the random layouts (0.25 µm): rules are 2–20 units, so a
/// few dozen items in a 10 µm square interact constantly.
const U: Coord = 250;
const NETS: [&str; 3] = ["a", "b", "c"];

/// Side of the chip-depth layouts' square in grid units (32 µm), the
/// length of their rails.
const CHIP: i64 = 128;

/// One random layout item: `(kind, pick, (x, y), (w, h), net pick,
/// extra)`; see [`layout`] for what each kind draws.
type Item = (u8, usize, (i64, i64), (i64, i64), usize, usize);

/// Items of the given kinds placed in a square of side `span`.
fn item_in(kinds: std::ops::Range<u8>, span: i64) -> impl Strategy<Value = Item> {
    (
        kinds,
        0usize..64,
        (0i64..span, 0i64..span),
        (0i64..8, 0i64..8),
        0usize..4,
        0usize..12,
    )
}

/// Module-scale items: every kind but the rail, in a 10 µm square.
fn item() -> impl Strategy<Value = Item> {
    item_in(0..8, 40)
}

/// A chip-depth layout: a few hundred items in the [`CHIP`] square,
/// which puts dozens of shapes on each layer, so the layer trees have
/// internal nodes, and a few metal rails across it, which give some
/// leaves a hull as long as the square.
fn chip_items() -> impl Strategy<Value = Vec<Item>> {
    (
        prop::collection::vec(item_in(0..8, CHIP), 200..400),
        prop::collection::vec(item_in(8..9, CHIP), 2..6),
    )
        .prop_map(|(items, rails)| [items, rails].concat())
}

/// A banded chip-depth layout: items of the [`CHIP`] square dealt by
/// `y` into one y-strip per gap plus one, the gap above strip `j` being
/// the deck's largest spacing rule plus `gaps[j]` grid steps (never
/// below 0), and sometimes a post that bridges the strips from the
/// bottom one up: a metal pick, an `x` and the strip it reaches.
type Banded = (Vec<Item>, Vec<i64>, Option<(usize, i64, usize)>);

/// Items for [`banded_layout`]: 2–4 strips, gaps from two grid steps
/// below the rule to four above, a post in half the cases.
fn banded_items() -> impl Strategy<Value = Banded> {
    (
        prop::collection::vec(item_in(0..8, CHIP), 200..400),
        prop::collection::vec(-2i64..=4, 1..4),
        prop::option::of((0usize..4, 0i64..CHIP, 0usize..4)),
    )
}

/// The deck's layers by role in the layouts.
struct Deck {
    all: Vec<Layer>,
    conductors: Vec<Layer>,
    metals: Vec<Layer>,
    diffusions: Vec<Layer>,
    cuts: Vec<Layer>,
    /// `(a, b, rule)` for every unordered layer pair with a nonzero
    /// spacing rule; in a deck without any, every conductor with itself
    /// at a notional rule of one unit, so near misses are still drawn.
    spaced: Vec<(Layer, Layer, Coord)>,
}

impl Deck {
    fn new(ctx: &GenCtx) -> Deck {
        let all: Vec<Layer> = ctx.layers().collect();
        let of = |f: &dyn Fn(LayerKind) -> bool| -> Vec<Layer> {
            all.iter().copied().filter(|&l| f(ctx.kind(l))).collect()
        };
        let mut spaced = Vec::new();
        for (k, &a) in all.iter().enumerate() {
            for &b in &all[k..] {
                if let Some(rule) = ctx.min_spacing(a, b).filter(|&r| r > 0) {
                    spaced.push((a, b, rule));
                }
            }
        }
        let conductors = of(&|k| k.is_conductor());
        if spaced.is_empty() {
            spaced = conductors.iter().map(|&l| (l, l, U)).collect();
        }
        Deck {
            conductors,
            metals: of(&|k| k == LayerKind::Metal),
            diffusions: of(&|k| k == LayerKind::Diffusion),
            cuts: of(&|k| k == LayerKind::Cut),
            all,
            spaced,
        }
    }
}

/// A shape on `layer`, on `net` when one is given.
fn shape(layer: Layer, rect: Rect, net: Option<NetId>) -> Shape {
    let s = Shape::new(layer, rect);
    match net {
        Some(n) => s.with_net(n),
        None => s,
    }
}

/// Builds the dirty layout the items describe in `ctx`'s deck.
fn layout(ctx: &GenCtx, items: &[Item]) -> LayoutObject {
    let deck = Deck::new(ctx);
    let grid = ctx.grid();
    let mut obj = LayoutObject::new("dirty");
    let r = |x: i64, y: i64, w: i64, h: i64| Rect::new(x * U, y * U, (x + w) * U, (y + h) * U);
    for &(kind, pick, (x, y), (w, h), net, extra) in items {
        let net = (net < NETS.len()).then(|| obj.net(NETS[net]));
        let two = (obj.net(NETS[extra % 3]), obj.net(NETS[(extra + 1) % 3]));
        match kind {
            // A rectangle on any layer, possibly degenerate; diffusion
            // sometimes carries a latch-up role.
            0 => {
                let layer = deck.all[pick % deck.all.len()];
                obj.push(shape(layer, r(x, y, w, h), net));
                let role = match extra % 4 {
                    0 => ShapeRole::DeviceActive,
                    1 => ShapeRole::SubstrateContact,
                    _ => ShapeRole::Normal,
                };
                if ctx.kind(layer) == LayerKind::Diffusion && role != ShapeRole::Normal {
                    obj.push(Shape::new(layer, r(x, y + h, w + 2, 2)).with_role(role));
                }
            }
            // Two touching or overlapping shapes of one layer on two
            // different nets: a short.
            1 => {
                let layer = deck.conductors[pick % deck.conductors.len()];
                let (a, b) = two;
                let overlap = (extra % 2) as i64;
                obj.push(shape(layer, r(x, y, w + 1, h + 1), Some(a)));
                obj.push(shape(
                    layer,
                    r(x + w + 1 - overlap, y, w + 1, h + 1),
                    Some(b),
                ));
            }
            // A near miss for one spaced layer pair: the gap is the rule
            // plus or minus one grid step, exactly the rule, zero or an
            // overlap, along x, y or the diagonal.
            2 => {
                let (la, lb, rule) = deck.spaced[pick % deck.spaced.len()];
                let gap = match extra % 5 {
                    0 => rule - grid,
                    1 => rule,
                    2 => rule + grid,
                    3 => 0,
                    _ => -U,
                };
                let a = r(x, y, w + 1, h + 1);
                let (dx, dy) = match (pick / deck.spaced.len()) % 3 {
                    0 => (a.width() + gap, 0),
                    1 => (0, a.height() + gap),
                    _ => (a.width() + gap, a.height() + gap),
                };
                let b = Rect::new(
                    a.x0 + dx,
                    a.y0 + dy,
                    a.x0 + dx + U * (h + 1),
                    a.y0 + dy + U * (w + 1),
                );
                obj.push(shape(la, a, net));
                obj.push(shape(lb, b, if extra % 3 == 0 { None } else { net }));
            }
            // A cut at or off its size between the two conductors of one
            // of its pairs, each at, under or without its margin.
            3 => {
                let cut = deck.cuts[pick % deck.cuts.len()];
                let pairs = ctx.connected_pairs(cut);
                let (a, b) = pairs[(pick / deck.cuts.len()) % pairs.len()];
                let size = ctx.cut_size(cut).unwrap() + if extra % 4 == 3 { grid } else { 0 };
                let c = Rect::new(x * U, y * U, x * U + size, y * U + size);
                obj.push(shape(cut, c, None));
                let short = |k: usize| if extra / 4 == k { grid } else { 0 };
                obj.push(shape(a, c.inflated(ctx.enclosure(a, cut) - short(1)), net));
                if extra % 5 != 4 {
                    obj.push(shape(b, c.inflated(ctx.enclosure(b, cut) - short(2)), net));
                }
            }
            // A cut whose enclosure on one side holds only for the union
            // of two abutting (or, when `extra` is odd, gapped) halves.
            4 => {
                let cut = deck.cuts[pick % deck.cuts.len()];
                let pairs = ctx.connected_pairs(cut);
                let (a, b) = pairs[(pick / deck.cuts.len()) % pairs.len()];
                let size = ctx.cut_size(cut).unwrap();
                let c = Rect::new(x * U, y * U, x * U + size, y * U + size);
                obj.push(shape(cut, c, None));
                let wa = c.inflated(ctx.enclosure(a, cut) + U * (w % 2));
                let mid = c.x0 + size / 2;
                let gap = (extra % 2) as i64 * grid;
                obj.push(shape(a, Rect::new(wa.x0, wa.y0, mid, wa.y1), net));
                obj.push(shape(a, Rect::new(mid + gap, wa.y0, wa.x1, wa.y1), net));
                obj.push(shape(b, c.inflated(ctx.enclosure(b, cut)), net));
            }
            // A min-area cluster: a chain of small squares, abutting
            // along a side, at a corner or (odd `extra`) one step apart.
            5 => {
                let metals: Vec<Layer> = deck
                    .conductors
                    .iter()
                    .copied()
                    .filter(|&l| ctx.min_area_um2(l) > 0.0)
                    .collect();
                let layer = metals[pick % metals.len()];
                let side = 4 + w % 3;
                let step = side + (extra % 2) as i64;
                for k in 0..(1 + extra as i64 % 5) {
                    let dy = if pick % 2 == 0 { 0 } else { k * step };
                    obj.push(shape(layer, r(x + k * step, y + dy, side, side), net));
                }
            }
            // Two bars closer than their rule, joined by a strap above
            // them (one component), with the gap between them filled
            // when `extra` is even.
            6 => {
                let layer = deck.conductors[pick % deck.conductors.len()];
                let rule = ctx.min_spacing(layer, layer).unwrap_or(U);
                let gap = (rule - grid).max(grid);
                let a = Rect::new(x * U, y * U, x * U + 4 * U, y * U + (h + 4) * U);
                let b = Rect::new(a.x1 + gap, a.y0, a.x1 + gap + 4 * U, a.y1);
                obj.push(shape(layer, a, net));
                obj.push(shape(layer, b, None));
                obj.push(shape(
                    layer,
                    Rect::new(a.x0, a.y1, b.x1, a.y1 + 4 * U),
                    None,
                ));
                if extra % 2 == 0 {
                    obj.push(shape(
                        layer,
                        Rect::new(a.x1, a.y0, b.x0, a.y0 + 2 * U),
                        None,
                    ));
                }
            }
            // A gate-crossed diffusion with a contact on one side, and a
            // narrow strap on the diffusion, sometimes widened by a
            // neighbour.
            7 => {
                let diff = deck.diffusions[pick % deck.diffusions.len()];
                let poly = ctx.layer("poly").unwrap();
                let contact = ctx.layer("contact").unwrap();
                let m1 = ctx.layer("metal1").unwrap();
                let d = r(x, y, w + 8, h + 4);
                obj.push(shape(diff, d, net));
                obj.push(shape(
                    poly,
                    r(x + 3 + (extra as i64 % (w + 3)), y - 2, 2, h + 8),
                    None,
                ));
                let cs = ctx.cut_size(contact).unwrap();
                let c = Rect::new(d.x0 + U, d.y0 + U, d.x0 + U + cs, d.y0 + U + cs);
                obj.push(shape(contact, c, None));
                obj.push(shape(m1, c.inflated(ctx.enclosure(m1, contact)), net));
                let narrow = ctx.min_width(diff) - grid;
                obj.push(shape(
                    diff,
                    Rect::new(d.x1, d.y0, d.x1 + 3 * U, d.y0 + narrow),
                    None,
                ));
                if extra % 3 == 0 {
                    obj.push(shape(
                        diff,
                        Rect::new(d.x1, d.y0 + narrow, d.x1 + 3 * U, d.y1),
                        None,
                    ));
                }
            }
            // A metal rail across the whole chip square, along x or y,
            // at its layer's minimum width or one grid unit wider.
            _ => {
                let layer = deck.metals[pick % deck.metals.len()];
                let width = ctx.min_width(layer) + (w % 2) * U;
                obj.push(shape(
                    layer,
                    if extra % 2 == 0 {
                        Rect::new(0, y * U, CHIP * U, y * U + width)
                    } else {
                        Rect::new(x * U, 0, x * U + width, CHIP * U)
                    },
                    net,
                ));
            }
        }
    }
    obj
}

/// Builds the banded layout `banded` describes: each strip's items by
/// [`layout`], moved down to the strip's local `y` and stacked above the
/// strip below at its gap, then the post from the bottom strip to the
/// top of the one it reaches.
fn banded_layout(ctx: &GenCtx, (items, gaps, post): &Banded) -> LayoutObject {
    let strips = gaps.len() as i64 + 1;
    let height = CHIP / strips;
    let mut obj = LayoutObject::new("banded");
    let (mut base, mut tops) = (0, Vec::new());
    for j in 0..strips {
        let strip: Vec<Item> = items
            .iter()
            .filter(|it| (it.2 .1 / height).min(strips - 1) == j)
            .map(|&(kind, pick, (x, y), wh, net, extra)| {
                (kind, pick, (x, y - j * height), wh, net, extra)
            })
            .collect();
        let part = layout(ctx, &strip);
        // The raw y-extent: a degenerate shape, which `bbox` leaves out,
        // must not reach into the gap.
        let Some((y0, y1)) = part
            .shapes()
            .iter()
            .map(|s| (s.rect.y0, s.rect.y1))
            .reduce(|(lo, hi), (y0, y1)| (lo.min(y0), hi.max(y1)))
        else {
            continue;
        };
        obj.absorb(&part, Vector::new(0, base - y0));
        tops.push(base + y1 - y0);
        let gap = gaps.get(j as usize).map_or(0, |&d| d * ctx.grid());
        base += y1 - y0 + (ctx.max_spacing() + gap).max(0);
    }
    if let Some((pick, x, reach)) = *post {
        let deck = Deck::new(ctx);
        let layer = deck.metals[pick % deck.metals.len()];
        let width = ctx.min_width(layer);
        let top = tops[reach % tops.len()];
        obj.push(Shape::new(layer, Rect::new(x * U, 0, x * U + width, top)));
    }
    obj
}

/// Every sub-check and the full check equal their scans, with the
/// extraction memo cold (spacing fills it) and warm (`connectivity`
/// filled it first).
fn assert_matches_scan(ctx: &GenCtx, items: &[Item]) {
    assert_layout_matches_scan(ctx, &|| layout(ctx, items));
}

/// [`assert_matches_scan`] on the layouts `make` builds, a fresh one per
/// memo order.
fn assert_layout_matches_scan(ctx: &GenCtx, make: &dyn Fn() -> LayoutObject) {
    let drc = Drc::new(ctx);
    let e = Extractor::new(ctx);
    let obj = make();
    assert_eq!(drc.check_spacing(&obj), drc.check_spacing_scan(&obj));
    assert_eq!(drc.check_widths(&obj), drc.check_widths_scan(&obj));
    assert_eq!(drc.check_enclosures(&obj), drc.check_enclosures_scan(&obj));
    assert_eq!(drc.check_min_area(&obj), drc.check_min_area_scan(&obj));
    assert_eq!(check_latchup(ctx, &obj), check_latchup_scan(ctx, &obj));
    assert_eq!(e.connectivity(&obj), e.connectivity_scan(&obj));
    assert_eq!(drc.check(&obj), drc.check_scan(&obj));

    let fresh = make();
    let nets = e.connectivity(&fresh);
    assert_eq!(nets, e.connectivity(&fresh), "a memo hit changed the nets");
    assert_eq!(drc.check(&fresh), drc.check_scan(&fresh));
}

/// One context per deck for all cases, so a memo that leaked from one
/// layout to the next would be read under the same deck id.
fn bicmos() -> &'static GenCtx {
    static CTX: OnceLock<GenCtx> = OnceLock::new();
    CTX.get_or_init(|| GenCtx::from_tech(&Tech::bicmos_1u()))
}

/// See [`bicmos`].
fn cmos() -> &'static GenCtx {
    static CTX: OnceLock<GenCtx> = OnceLock::new();
    CTX.get_or_init(|| GenCtx::from_tech(&Tech::cmos_08()))
}

/// `bicmos_1u` with its `space` lines removed. In the built-in decks
/// nearly every distance-0 join of the sign-off plan rides on a spacing
/// join; here none does, so each consumer reads its own entries. See
/// [`bicmos`].
fn unspaced() -> &'static GenCtx {
    static CTX: OnceLock<GenCtx> = OnceLock::new();
    CTX.get_or_init(|| {
        let text: String = BICMOS_1U
            .lines()
            .filter(|line| !line.starts_with("space "))
            .map(|line| format!("{line}\n"))
            .collect();
        let tech = Tech::parse(&text).unwrap();
        assert_eq!(tech.max_spacing(), 0, "no spacing rule is left");
        GenCtx::from_tech(&tech)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_bicmos_layouts_match_the_scan(items in prop::collection::vec(item(), 1..32)) {
        assert_matches_scan(bicmos(), &items);
    }

    #[test]
    fn random_cmos_layouts_match_the_scan(items in prop::collection::vec(item(), 1..32)) {
        assert_matches_scan(cmos(), &items);
    }

    #[test]
    fn random_unspaced_layouts_match_the_scan(items in prop::collection::vec(item(), 1..32)) {
        assert_matches_scan(unspaced(), &items);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn chip_depth_bicmos_layouts_match_the_scan(items in chip_items()) {
        assert_matches_scan(bicmos(), &items);
    }

    #[test]
    fn chip_depth_cmos_layouts_match_the_scan(items in chip_items()) {
        assert_matches_scan(cmos(), &items);
    }

    #[test]
    fn chip_depth_unspaced_layouts_match_the_scan(items in chip_items()) {
        assert_matches_scan(unspaced(), &items);
    }

    #[test]
    fn banded_bicmos_layouts_match_the_scan(banded in banded_items()) {
        assert_layout_matches_scan(bicmos(), &|| banded_layout(bicmos(), &banded));
    }

    #[test]
    fn banded_cmos_layouts_match_the_scan(banded in banded_items()) {
        assert_layout_matches_scan(cmos(), &|| banded_layout(cmos(), &banded));
    }

    #[test]
    fn banded_unspaced_layouts_match_the_scan(banded in banded_items()) {
        assert_layout_matches_scan(unspaced(), &|| banded_layout(unspaced(), &banded));
    }
}

/// The banded layouts are banded: across 16 draws per deck, most
/// layouts split into more than one band (a post that reaches the top
/// strip joins them all, and so does a gap under a bucket's height,
/// which the unspaced deck draws often), and in the two built-in decks
/// some join of the plan reports a pair across two bands, so the
/// oracles above run the joins' cross-band sweeps. (In the unspaced
/// deck every join is at distance 0, so no pair can cross a gap.)
#[test]
fn banded_layouts_join_across_bands() {
    for (ctx, spaced) in [(bicmos(), true), (cmos(), true), (unspaced(), false)] {
        let mut rng = TestRng::new(0xba5d);
        let (mut banded, mut across) = (0, 0);
        for _ in 0..16 {
            let obj = banded_layout(ctx, &banded_items().generate(&mut rng));
            let ix = obj.spatial_index();
            let bands = ix.bands();
            banded += usize::from(bands.count() > 1);
            let band = |i: u32| {
                let y0 = obj.shapes()[i as usize].rect.y0;
                bands.gaps().iter().filter(|g| g.0 < y0).count()
            };
            let plan = ix.joins(ctx);
            for &(a, b, _) in ctx.signoff_plan() {
                across += plan
                    .between(a, b)
                    .filter(|&(p, q)| band(p) != band(q))
                    .count();
            }
        }
        assert!(banded >= 8, "{}: {banded} of 16 banded", ctx.name());
        assert_eq!(
            across > 0,
            spaced,
            "{}: {across} pairs across bands",
            ctx.name()
        );
    }
}

/// The random layouts are dirty enough to matter: across 64 layouts per
/// deck they trip every rule the checker knows.
#[test]
fn random_layouts_trip_every_rule() {
    for ctx in [bicmos(), cmos()] {
        let drc = Drc::new(ctx);
        let items = prop::collection::vec(item(), 1..32);
        let mut rng = TestRng::new(0xd1c);
        let mut seen: Vec<ViolationKind> = Vec::new();
        for _ in 0..64 {
            for v in drc.check(&layout(ctx, &items.generate(&mut rng))) {
                if !seen.contains(&v.kind) {
                    seen.push(v.kind);
                }
            }
        }
        for kind in [
            ViolationKind::Width,
            ViolationKind::Spacing,
            ViolationKind::Short,
            ViolationKind::Enclosure,
            ViolationKind::CutSize,
            ViolationKind::MinArea,
            ViolationKind::LatchUp,
        ] {
            assert!(seen.contains(&kind), "{}: no {kind:?}", ctx.name());
        }
    }
}
