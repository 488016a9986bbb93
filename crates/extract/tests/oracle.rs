//! The indexed connectivity kernel against its all-pairs oracle
//! (`connectivity_scan`): random layouts in both built-in decks, the
//! device-layer tie-break, net renames on a warm extraction memo, and a
//! chain long enough to overflow a recursive union-find.

use amgen_core::GenCtx;
use amgen_db::{LayoutObject, Port, Shape};
use amgen_extract::Extractor;
use amgen_geom::{um, Rect};
use amgen_tech::builtin::BICMOS_1U;
use amgen_tech::Tech;
use proptest::prelude::*;

/// Grid unit of the random layouts (0.5 µm): small enough that a few
/// dozen items overlap, abut and stack often.
const U: i64 = 500;
const NETS: [&str; 3] = ["a", "b", "c"];

/// One random layout item: `(kind, layer pick, (x, y), (w, h), net
/// pick, extra)`. The kinds bias the layout toward the cases the kernel
/// treats specially: gate-crossed diffusion, abutting chains and cuts
/// stacked over metal and device layers.
type Item = (u8, usize, (i64, i64), (i64, i64), usize, usize);

fn item() -> impl Strategy<Value = Item> {
    (
        0u8..6,
        0usize..8,
        (0i64..30, 0i64..30),
        (1i64..8, 1i64..8),
        0usize..4,
        1usize..6,
    )
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
            _ => {
                let a = pick % devices.len();
                let b = (a + extra) % devices.len();
                push(devices[a], r(x - 1, y - 1, w + 1, h + 1));
                push(devices[b], r(x - 1, y - 1, w + 1, h + 1));
                push("contact", r(x, y, 1, 1));
                push("metal1", r(x, y, 1, 1));
            }
        }
    }
    obj
}

fn assert_matches_scan(ctx: &GenCtx, items: &[Item]) {
    let obj = layout(ctx, items);
    let e = Extractor::new(ctx);
    assert_eq!(e.connectivity(&obj), e.connectivity_scan(&obj));
    assert_eq!(e.parasitics(&obj), e.parasitics_scan(&obj));
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
