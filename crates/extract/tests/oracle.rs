//! The indexed connectivity kernel against its all-pairs oracle
//! (`connectivity_scan`): random layouts in both built-in decks and in
//! `bicmos_1u` without its spacing rules, at module scale, at chip depth
//! and at chip depth in y-strips (so the spatial index's joins run
//! across its bands), the device-layer tie-break, net renames on a warm
//! extraction memo, and a chain long enough to overflow a recursive
//! union-find.

use amgen_core::GenCtx;
use amgen_db::{LayoutObject, Port, Shape};
use amgen_extract::Extractor;
use amgen_geom::{um, Rect, Vector};
use amgen_tech::builtin::BICMOS_1U;
use amgen_tech::Tech;
use proptest::prelude::*;

/// Grid unit of the random layouts (0.5 µm): small enough that a few
/// dozen items overlap, abut and stack often.
const U: i64 = 500;
const NETS: [&str; 3] = ["a", "b", "c"];

/// Side of the chip-depth layouts' square in grid units (50 µm), the
/// length of their rails.
const CHIP: i64 = 100;

/// One random layout item: `(kind, layer pick, (x, y), (w, h), net
/// pick, extra)`. The kinds bias the layout toward the cases the kernel
/// treats specially: gate-crossed diffusion, abutting chains and cuts
/// stacked over metal and device layers.
type Item = (u8, usize, (i64, i64), (i64, i64), usize, usize);

/// Items of the given kinds placed in a square of side `span`.
fn item_in(kinds: std::ops::Range<u8>, span: i64) -> impl Strategy<Value = Item> {
    (
        kinds,
        0usize..8,
        (0i64..span, 0i64..span),
        (1i64..8, 1i64..8),
        0usize..4,
        1usize..6,
    )
}

/// Module-scale items: every kind but the rail, in a 15 µm square.
fn item() -> impl Strategy<Value = Item> {
    item_in(0..6, 30)
}

/// A chip-depth layout: a few hundred items in the [`CHIP`] square,
/// which puts dozens of shapes on each layer, so the layer trees have
/// internal nodes, and a few rails across it, which give some leaves a
/// hull as long as the square.
fn chip_items() -> impl Strategy<Value = Vec<Item>> {
    (
        prop::collection::vec(item_in(0..6, CHIP), 200..400),
        prop::collection::vec(item_in(6..7, CHIP), 2..6),
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
        prop::collection::vec(item_in(0..6, CHIP), 200..400),
        prop::collection::vec(-2i64..=4, 1..4),
        prop::option::of((0usize..2, 0i64..CHIP, 0usize..4)),
    )
}

/// Builds the banded layout `banded` describes: each strip's items by
/// [`layout`], moved down to the strip's local `y` and stacked above the
/// strip below at its gap (measured between raw extents, degenerate
/// shapes included), then the post from the bottom strip to the top of
/// the one it reaches.
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
        let layer = ctx.layer(["metal1", "metal2"][pick]).unwrap();
        let top = tops[reach % tops.len()];
        obj.push(Shape::new(layer, Rect::new(x * U, 0, x * U + U, top)));
    }
    obj
}

/// Builds the layout the items describe in `ctx`'s deck.
fn layout(ctx: &GenCtx, items: &[Item]) -> LayoutObject {
    let l = |name: &str| ctx.layer(name).unwrap();
    let diffusions: Vec<&str> = ["pdiff", "ndiff", "base", "emitter"]
        .into_iter()
        .filter(|n| ctx.layer(n).is_ok())
        .collect();
    let mut devices = diffusions.clone();
    devices.push("poly");
    let mut conductors = devices.clone();
    conductors.extend(["metal1", "metal2"]);
    let mut any = conductors.clone();
    any.extend(["contact", "via1"]);
    let mut obj = LayoutObject::new("random");
    let r = |x: i64, y: i64, w: i64, h: i64| Rect::new(x * U, y * U, (x + w) * U, (y + h) * U);
    for &(kind, pick, (x, y), (w, h), net, extra) in items {
        let net = (net < NETS.len()).then(|| obj.net(NETS[net]));
        let mut push = |layer: &str, rect: Rect| {
            let s = Shape::new(l(layer), rect);
            obj.push(match net {
                Some(n) => s.with_net(n),
                None => s,
            });
        };
        match kind {
            // A plain rectangle on any layer.
            0 => push(any[pick % any.len()], r(x, y, w, h)),
            // A diffusion crossed by a vertical gate.
            1 => {
                push(diffusions[pick % diffusions.len()], r(x, y, w + 3, h));
                push("poly", r(x + 1 + (extra as i64 % (w + 1)), y - 1, 1, h + 2));
            }
            // A chain of abutting rectangles along x or y.
            2 => {
                let layer = conductors[pick % conductors.len()];
                for k in 0..extra as i64 {
                    let (dx, dy) = if pick % 2 == 0 {
                        (k * w, 0)
                    } else {
                        (0, k * h)
                    };
                    push(layer, r(x + dx, y + dy, w, h));
                }
            }
            // A contact stacked between metal1 and a device layer.
            3 => {
                push("contact", r(x, y, 1, 1));
                push("metal1", r(x - 1, y - 1, w + 1, h + 1));
                push(
                    devices[pick % devices.len()],
                    r(x - (w % 2), y - 1, h + 1, w + 1),
                );
            }
            // A via stacked between metal1 and metal2.
            4 => {
                push("via1", r(x, y, 1, 1));
                push("metal1", r(x - 1, y, w + 1, 1));
                push("metal2", r(x, y - 1, 1, h + 1));
            }
            // Two device layers of equal area under one contact: the
            // tie-break decides which one the contact joins.
            5 => {
                let a = pick % devices.len();
                let b = (a + extra) % devices.len();
                push(devices[a], r(x - 1, y - 1, w + 1, h + 1));
                push(devices[b], r(x - 1, y - 1, w + 1, h + 1));
                push("contact", r(x, y, 1, 1));
                push("metal1", r(x, y, 1, 1));
            }
            // A metal rail across the whole chip square, along x or y.
            _ => {
                let layer = ["metal1", "metal2"][pick % 2];
                if extra % 2 == 0 {
                    push(layer, r(0, y, CHIP, 1 + h % 2));
                } else {
                    push(layer, r(x, 0, 1 + w % 2, CHIP));
                }
            }
        }
    }
    obj
}

/// `bicmos_1u` with its `space` lines removed. In the built-in decks
/// nearly every distance-0 join of the sign-off plan rides on a spacing
/// join; here none does, so extraction reads its own entries.
fn unspaced() -> GenCtx {
    let text: String = BICMOS_1U
        .lines()
        .filter(|line| !line.starts_with("space "))
        .map(|line| format!("{line}\n"))
        .collect();
    let tech = Tech::parse(&text).unwrap();
    assert_eq!(tech.max_spacing(), 0, "no spacing rule is left");
    GenCtx::from_tech(&tech)
}

fn assert_matches_scan(ctx: &GenCtx, items: &[Item]) {
    assert_layout_matches_scan(ctx, &layout(ctx, items));
}

fn assert_layout_matches_scan(ctx: &GenCtx, obj: &LayoutObject) {
    let e = Extractor::new(ctx);
    assert_eq!(e.connectivity(obj), e.connectivity_scan(obj));
    assert_eq!(e.parasitics(obj), e.parasitics_scan(obj));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_bicmos_layouts_match_the_scan(items in prop::collection::vec(item(), 1..28)) {
        assert_matches_scan(&GenCtx::from_tech(&Tech::bicmos_1u()), &items);
    }

    #[test]
    fn random_cmos_layouts_match_the_scan(items in prop::collection::vec(item(), 1..28)) {
        assert_matches_scan(&GenCtx::from_tech(&Tech::cmos_08()), &items);
    }

    #[test]
    fn random_unspaced_layouts_match_the_scan(items in prop::collection::vec(item(), 1..28)) {
        assert_matches_scan(&unspaced(), &items);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn chip_depth_bicmos_layouts_match_the_scan(items in chip_items()) {
        assert_matches_scan(&GenCtx::from_tech(&Tech::bicmos_1u()), &items);
    }

    #[test]
    fn chip_depth_cmos_layouts_match_the_scan(items in chip_items()) {
        assert_matches_scan(&GenCtx::from_tech(&Tech::cmos_08()), &items);
    }

    #[test]
    fn chip_depth_unspaced_layouts_match_the_scan(items in chip_items()) {
        assert_matches_scan(&unspaced(), &items);
    }

    #[test]
    fn banded_bicmos_layouts_match_the_scan(banded in banded_items()) {
        let ctx = GenCtx::from_tech(&Tech::bicmos_1u());
        assert_layout_matches_scan(&ctx, &banded_layout(&ctx, &banded));
    }

    #[test]
    fn banded_cmos_layouts_match_the_scan(banded in banded_items()) {
        let ctx = GenCtx::from_tech(&Tech::cmos_08());
        assert_layout_matches_scan(&ctx, &banded_layout(&ctx, &banded));
    }

    #[test]
    fn banded_unspaced_layouts_match_the_scan(banded in banded_items()) {
        let ctx = unspaced();
        assert_layout_matches_scan(&ctx, &banded_layout(&ctx, &banded));
    }
}

/// The banded layouts are banded: across 16 draws per deck, most split
/// into more than one band in the built-in decks, and some in the
/// unspaced deck, whose gaps of a few grid steps often fall under a
/// bucket's height and merge (a post that reaches the top strip joins
/// every band too); and some post bridges two strips, so the oracles
/// above extract across bands.
#[test]
fn banded_layouts_split_into_bands() {
    use proptest::rng::TestRng;
    for (ctx, least) in [
        (GenCtx::from_tech(&Tech::bicmos_1u()), 8),
        (GenCtx::from_tech(&Tech::cmos_08()), 8),
        (unspaced(), 1),
    ] {
        let mut rng = TestRng::new(0xba5d);
        let (mut banded, mut bridged) = (0, 0);
        for _ in 0..16 {
            let draw = banded_items().generate(&mut rng);
            let obj = banded_layout(&ctx, &draw);
            banded += usize::from(obj.spatial_index().bands().count() > 1);
            bridged += usize::from(draw.2.is_some_and(|p| p.2 % (draw.1.len() + 1) > 0));
        }
        assert!(banded >= least, "{}: {banded} of 16 banded", ctx.name());
        assert!(bridged > 0, "{}: no post bridges two strips", ctx.name());
    }
}

/// A contact over two equal-area fragments on two device layers joins
/// the layer whose `connect` line comes first in the deck — not the
/// lower layer index: swapping the two lines swaps the winner.
#[test]
fn equal_area_device_tie_goes_to_the_first_connect_line() {
    let swapped = BICMOS_1U.replace(
        "connect contact pdiff metal1\nconnect contact ndiff metal1\n",
        "connect contact ndiff metal1\nconnect contact pdiff metal1\n",
    );
    assert_ne!(swapped, BICMOS_1U, "the deck lists pdiff's line first");
    for (deck, expected) in [
        (Tech::bicmos_1u(), [vec![0, 2, 3], vec![1]]),
        (Tech::parse(&swapped).unwrap(), [vec![0], vec![1, 2, 3]]),
    ] {
        let ctx = GenCtx::from_tech(&deck);
        let l = |name: &str| ctx.layer(name).unwrap();
        let mut obj = LayoutObject::new("tie");
        obj.push(Shape::new(l("pdiff"), Rect::new(0, 0, um(3), um(3))));
        obj.push(Shape::new(l("ndiff"), Rect::new(0, 0, um(3), um(3))));
        obj.push(Shape::new(
            l("contact"),
            Rect::new(um(1), um(1), um(2), um(2)),
        ));
        obj.push(Shape::new(l("metal1"), Rect::new(0, 0, um(3), um(3))));
        let e = Extractor::new(&ctx);
        let nets = e.connectivity(&obj);
        assert_eq!(nets, e.connectivity_scan(&obj));
        let shapes: Vec<Vec<usize>> = nets.into_iter().map(|n| n.shapes).collect();
        assert_eq!(shapes, expected);
    }
}

/// Gates split a diffusion in ascending shape order, and the order
/// matters: two partial gates cut a 12 µm² or an 8 µm² corner piece
/// depending on which goes first, and the contact over that corner
/// picks the 10 µm² ndiff beside it only when the piece is larger.
#[test]
fn gates_split_diffusion_in_ascending_shape_order() {
    let ctx = GenCtx::from_tech(&Tech::bicmos_1u());
    let l = |name: &str| ctx.layer(name).unwrap();
    let g1 = Shape::new(l("poly"), Rect::new(um(2), -um(1), um(3), um(6)));
    let g2 = Shape::new(l("poly"), Rect::new(um(6), um(4), um(7), um(11)));
    for (gates, pdiff_wins) in [([g1, g2], false), ([g2, g1], true)] {
        let mut obj = LayoutObject::new("gates");
        obj.push(Shape::new(l("pdiff"), Rect::new(0, 0, um(10), um(10))));
        for g in gates {
            obj.push(g);
        }
        obj.push(Shape::new(l("ndiff"), Rect::new(0, 0, um(2), um(5))));
        obj.push(Shape::new(l("contact"), Rect::new(500, 500, 1_500, 1_500)));
        obj.push(Shape::new(l("metal1"), Rect::new(0, 0, um(2), um(2))));
        let e = Extractor::new(&ctx);
        let nets = e.connectivity(&obj);
        assert_eq!(nets, e.connectivity_scan(&obj));
        let shapes: Vec<Vec<usize>> = nets.into_iter().map(|n| n.shapes).collect();
        let expected: Vec<Vec<usize>> = if pdiff_wins {
            vec![vec![0, 4, 5], vec![1], vec![2], vec![3]]
        } else {
            vec![vec![0], vec![1], vec![2], vec![3, 4, 5]]
        };
        assert_eq!(shapes, expected);
    }
}

/// The extraction memo holds geometry only: once it is warm, renaming
/// and merging nets (`rename_net`), relabelling a net and its port
/// (`rename_label`) and prefixing a copy (`prefixed`) all show up in the
/// declared names `connectivity` reports, which keep equalling the scan.
#[test]
fn renames_on_a_warm_memo_show_the_new_names() {
    let ctx = GenCtx::from_tech(&Tech::bicmos_1u());
    let m1 = ctx.layer("metal1").unwrap();
    let mut obj = LayoutObject::new("nets");
    let a = obj.net("a");
    let b = obj.net("b");
    obj.push(Shape::new(m1, Rect::new(0, 0, um(2), um(2))).with_net(a));
    obj.push(Shape::new(m1, Rect::new(um(2), 0, um(4), um(2))));
    obj.push(Shape::new(m1, Rect::new(um(8), 0, um(10), um(2))).with_net(b));
    obj.push_port(Port {
        name: "b".into(),
        layer: m1,
        rect: Rect::new(um(8), 0, um(10), um(2)),
        net: Some(b),
    });
    let e = Extractor::new(&ctx);
    let names = |o: &LayoutObject| -> Vec<Vec<String>> {
        let nets = e.connectivity(o);
        assert_eq!(nets, e.connectivity(o), "a memo hit changed the nets");
        assert_eq!(nets, e.connectivity_scan(o));
        nets.into_iter().map(|n| n.declared).collect()
    };
    assert_eq!(names(&obj), [vec!["a"], vec!["b"]]);
    obj.rename_net("a", "vdd");
    assert_eq!(names(&obj), [vec!["vdd"], vec!["b"]]);
    obj.rename_label("b", "out");
    assert!(obj.port("out").is_some());
    assert_eq!(names(&obj), [vec!["vdd"], vec!["out"]]);
    obj.rename_net("vdd", "out");
    assert_eq!(names(&obj), [vec!["out"], vec!["out"]]);
    assert_eq!(names(&obj.prefixed("x:")), [vec!["x:out"], vec!["x:out"]]);
}

/// A 20,000-segment metal1 rail is one net even on a 256 KiB stack: the
/// union-find's parent chain along the rail is as long as the rail.
#[test]
fn a_long_rail_is_one_net_on_a_small_stack() {
    let ctx = GenCtx::from_tech(&Tech::bicmos_1u());
    let m1 = ctx.layer("metal1").unwrap();
    let mut rail = LayoutObject::with_capacity("rail", 20_000);
    for i in 0..20_000 {
        rail.push(Shape::new(
            m1,
            Rect::new(0, i * um(2), um(2), (i + 1) * um(2)),
        ));
    }
    let nets = std::thread::Builder::new()
        .stack_size(256 << 10)
        .spawn(move || Extractor::new(&ctx).connectivity(&rail))
        .unwrap()
        .join()
        .unwrap();
    assert_eq!(nets.len(), 1);
    assert_eq!(nets[0].shapes.len(), 20_000);
}
