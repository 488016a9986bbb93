//! The centroidal cross-coupled differential pair (Fig. 10 / block E).
//!
//! The paper's flagship module: *"the differential pair in block E
//! consists of centroidal cross-coupled inter-digital transistors with
//! eight dummy transistors in the middle and four dummy transistors on
//! the right and left side ... the wiring is fully symmetrical and every
//! net has identical crossings."*
//!
//! Structure (left to right), with a shared source row between every
//! unit:
//!
//! ```text
//! [side dummies] A-pair B-pair ... [center dummies] ... B-pair A-pair [side dummies]
//! ```
//!
//! Device A's fingers mirror device B's about the module centre, so both
//! devices share one centroid (process gradients cancel). Drain risers of
//! the two devices are given **identical crossings**: the `d1` risers are
//! extended past their own bus so they cross `d2`'s bus exactly as often
//! as `d2`'s risers cross `d1`'s.

use amgen_compact::{CompactOptions, Compactor};
use amgen_core::{FaultSite, GenCtx, Stage};
use amgen_db::{LayoutObject, Port, Shape};
use amgen_geom::{Coord, Dir, Point, Rect, Vector};
use amgen_prim::Primitives;
use amgen_route::Router;

use crate::contact_row::{contact_row, ContactRowParams};
use crate::error::ModgenError;
use crate::guard::{guard_ring, GuardRingParams};
use crate::mos::MosType;

/// Which device a gate finger belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Device {
    A,
    B,
    Dummy,
}

/// Parameters of the centroid pair.
#[derive(Debug, Clone)]
pub struct CentroidParams {
    /// Polarity.
    pub mos: MosType,
    /// Finger pairs of each device per half (total fingers per device =
    /// `4 * pairs_per_side`).
    pub pairs_per_side: usize,
    /// Dummy gates in the module centre (paper: 8).
    pub center_dummies: usize,
    /// Dummy gates on each outer side (paper: 4).
    pub side_dummies: usize,
    /// Channel width per finger; `None` selects 6 µm.
    pub w: Option<Coord>,
    /// Channel length; `None` selects the minimum.
    pub l: Option<Coord>,
    /// Wrap the module in a substrate-contact guard ring.
    pub guard: bool,
}

impl CentroidParams {
    /// The paper's block-E configuration: 8 centre dummies, 4 per side,
    /// one finger pair of each device per half, guard ring on.
    pub fn paper(mos: MosType) -> CentroidParams {
        CentroidParams {
            mos,
            pairs_per_side: 1,
            center_dummies: 8,
            side_dummies: 4,
            w: None,
            l: None,
            guard: true,
        }
    }

    /// Sets the channel width.
    #[must_use]
    pub fn with_w(mut self, w: Coord) -> Self {
        self.w = Some(w);
        self
    }

    /// Sets the channel length.
    #[must_use]
    pub fn with_l(mut self, l: Coord) -> Self {
        self.l = Some(l);
        self
    }

    /// Disables the guard ring.
    #[must_use]
    pub fn without_guard(mut self) -> Self {
        self.guard = false;
        self
    }
}

const REACH: Coord = 2_500;

/// One gate finger: poly stripe reaching up (A), down (B) or neither
/// (dummy), over a diffusion band segment.
fn gate_unit(
    tech: &GenCtx,
    mos: MosType,
    dev: Device,
    w: Coord,
    l: Option<Coord>,
) -> Result<LayoutObject, ModgenError> {
    let poly = tech.poly()?;
    let diff = mos.diff(tech)?;
    let l = l
        .unwrap_or_else(|| tech.min_width(poly))
        .max(tech.min_width(poly));
    let gx = tech.extension(poly, diff);
    let dx = tech.extension(diff, poly);
    let (y0, y1) = match dev {
        Device::A => (-gx, w + gx + REACH),
        Device::B => (-gx - REACH, w + gx),
        Device::Dummy => (-gx, w + gx),
    };
    let mut obj = LayoutObject::new("gate");
    let net = match dev {
        Device::A => obj.net("g1"),
        Device::B => obj.net("g2"),
        Device::Dummy => obj.net("dum"),
    };
    obj.push(Shape::new(poly, Rect::new(0, y0, l, y1)).with_net(net));
    obj.push(
        Shape::new(diff, Rect::new(-dx, 0, l + dx, w)).with_role(amgen_db::ShapeRole::DeviceActive),
    );
    Ok(obj)
}

/// Generates the centroid pair. Ports: gates `g1`/`g2`, drains `d1`/`d2`
/// (metal2 buses), common source `s`, and `sub` when the guard ring is
/// enabled.
pub fn centroid_diff_pair(
    tech: &GenCtx,
    params: &CentroidParams,
) -> Result<LayoutObject, ModgenError> {
    let key = crate::cached::module_key(tech, "centroid_diff_pair", |k| {
        k.push(crate::cached::mos_code(params.mos));
        k.push(params.pairs_per_side);
        k.push(params.center_dummies);
        k.push(params.side_dummies);
        k.push(params.w);
        k.push(params.l);
        k.push(params.guard);
    });
    tech.generate_cached(Stage::Modgen, key, || {
        centroid_diff_pair_uncached(tech, params)
    })
}

fn centroid_diff_pair_uncached(
    tech: &GenCtx,
    params: &CentroidParams,
) -> Result<LayoutObject, ModgenError> {
    let _stage = tech.stage(Stage::Modgen, || "centroid_diff_pair");
    tech.checkpoint(Stage::Modgen)?;
    tech.fault_check(FaultSite::ModgenEntry, "centroid_diff_pair")?;
    if params.pairs_per_side == 0 {
        return Err(ModgenError::BadParam {
            param: "pairs_per_side",
            message: "must be at least 1".into(),
        });
    }
    let c = Compactor::new(tech);
    let router = Router::new(tech);
    let prim = Primitives::new(tech);
    let poly = tech.poly()?;
    let diff = params.mos.diff(tech)?;
    let m1 = tech.metal1()?;
    let m2 = tech.metal2()?;
    let via = tech.via1()?;
    let w = params.w.unwrap_or(6_000).max(4_000);
    let gx = tech.extension(poly, diff);

    // Column plan: units separated by shared source rows. An active pair
    // is gate-drainrow-gate; a dummy run is consecutive gates.
    #[derive(Clone, Copy)]
    enum Unit {
        Pair(Device),
        Dummies(usize),
    }
    let mut units: Vec<Unit> = Vec::new();
    if params.side_dummies > 0 {
        units.push(Unit::Dummies(params.side_dummies));
    }
    for _ in 0..params.pairs_per_side {
        units.push(Unit::Pair(Device::A));
        units.push(Unit::Pair(Device::B));
    }
    if params.center_dummies > 0 {
        units.push(Unit::Dummies(params.center_dummies));
    }
    for _ in 0..params.pairs_per_side {
        units.push(Unit::Pair(Device::B));
        units.push(Unit::Pair(Device::A));
    }
    if params.side_dummies > 0 {
        units.push(Unit::Dummies(params.side_dummies));
    }

    let mut main = LayoutObject::new("centroid_pair");
    let opts = CompactOptions::new().ignoring(diff);
    let s_row = |tech: &GenCtx| -> Result<LayoutObject, ModgenError> {
        contact_row(tech, diff, &ContactRowParams::new().with_l(w).with_net("s"))
    };

    // Track where things land.
    let mut a_cols: Vec<Rect> = Vec::new();
    let mut b_cols: Vec<Rect> = Vec::new();
    let mut row_centers: Vec<(String, Coord)> = Vec::new();

    let mut place_gate = |main: &mut LayoutObject, dev: Device| -> Result<(), ModgenError> {
        let g = gate_unit(tech, params.mos, dev, w, params.l)?;
        let before = main.len();
        c.compact(main, &g, Dir::East, &opts)?;
        let rect = main.shapes()[before].rect; // the poly stripe
        match dev {
            Device::A => a_cols.push(rect),
            Device::B => b_cols.push(rect),
            Device::Dummy => {}
        }
        Ok(())
    };
    let place_row = |main: &mut LayoutObject,
                     net: &str,
                     row_centers: &mut Vec<(String, Coord)>|
     -> Result<(), ModgenError> {
        let r = contact_row(tech, diff, &ContactRowParams::new().with_l(w).with_net(net))?;
        let x0 = main.bbox().x1;
        c.compact(main, &r, Dir::East, &opts)?;
        let x1 = main.bbox().x1;
        row_centers.push((net.to_string(), (x0 + x1) / 2));
        Ok(())
    };

    // Seed source row, then units each followed by a source row.
    let seed = s_row(tech)?;
    c.compact(&mut main, &seed, Dir::West, &opts)?;
    row_centers.push(("s".to_string(), main.bbox_on(m1).center().x));
    for unit in units {
        match unit {
            Unit::Dummies(k) => {
                for _ in 0..k {
                    place_gate(&mut main, Device::Dummy)?;
                }
            }
            Unit::Pair(dev) => {
                place_gate(&mut main, dev)?;
                place_row(
                    &mut main,
                    if dev == Device::A { "d1" } else { "d2" },
                    &mut row_centers,
                )?;
                place_gate(&mut main, dev)?;
            }
        }
        place_row(&mut main, "s", &mut row_centers)?;
    }

    // Gate straps: g1 across the A reach at the top, g2 at the bottom.
    let strap_w = tech.min_width(poly);
    let g1 = main.net("g1");
    let g2 = main.net("g2");
    let a_span = a_cols.iter().fold(Rect::EMPTY, |acc, r| acc.union_bbox(r));
    let b_span = b_cols.iter().fold(Rect::EMPTY, |acc, r| acc.union_bbox(r));
    let strap_a = Rect::new(
        a_span.x0,
        w + gx + REACH - strap_w,
        a_span.x1,
        w + gx + REACH,
    );
    let strap_b = Rect::new(b_span.x0, -gx - REACH, b_span.x1, -gx - REACH + strap_w);
    main.push(Shape::new(poly, strap_a).with_net(g1));
    main.push(Shape::new(poly, strap_b).with_net(g2));

    // Gate contact rows at the module centre, on each strap.
    let center_x = main.bbox().center().x;
    for (net, strap, above) in [("g1", strap_a, true), ("g2", strap_b, false)] {
        let mut pc = contact_row(tech, poly, &ContactRowParams::new().with_net(net))?;
        let pb = pc.bbox();
        let dy = if above {
            strap.y1 - pb.y0
        } else {
            strap.y0 - pb.y1
        };
        pc.translate(Vector::new(center_x - pb.center().x, dy));
        main.absorb(&pc, Vector::ZERO);
    }

    // Buses: the common source below the module (risers drop straight
    // down, crossing nothing on their own layer); the two drain buses
    // stacked above. A riser that must pass the other drain's bus dives
    // into a metal1 **underpass** — one real crossing. The d1 risers,
    // whose own bus comes first, get a *dummy* underpass through bus_d2,
    // so both drain nets end up with identical crossings (Fig. 10).
    let bus_w = tech.min_width(m2).max(2_000);
    let span = main.bbox();
    let bus_s = Rect::new(span.x0, span.y0 - 2_000 - bus_w, span.x1, span.y0 - 2_000);
    let bus_d1 = Rect::new(span.x0, span.y1 + 2_000, span.x1, span.y1 + 2_000 + bus_w);
    let bus_d2 = Rect::new(
        span.x0,
        bus_d1.y1 + 6_000,
        span.x1,
        bus_d1.y1 + 6_000 + bus_w,
    );
    let d1_id = main.net("d1");
    let d2_id = main.net("d2");
    let s_id = main.net("s");
    main.push(Shape::new(m2, bus_s).with_net(s_id));
    main.push(Shape::new(m2, bus_d1).with_net(d1_id));
    main.push(Shape::new(m2, bus_d2).with_net(d2_id));

    let wire_w = tech.min_width(m2);
    // Underpass landing offsets: via pads are 1 µm half-height, metal2
    // spacing is 2 µm, so via centres sit 3 µm off the foreign bus edges.
    let below_d1 = bus_d1.y0 - 3_000;
    let above_d1 = bus_d1.y1 + 3_000;
    let below_d2 = bus_d2.y0 - 3_000;
    let above_d2 = bus_d2.y1 + 3_000;
    for (net, x) in &row_centers {
        let id = main.net(net);
        router.via_stack(&mut main, via, m1, m2, Point::new(*x, w / 2), Some(id))?;
        let col = |y0: i64, y1: i64| Rect::new(x - wire_w / 2, y0, x - wire_w / 2 + wire_w, y1);
        match net.as_str() {
            "s" => {
                main.push(Shape::new(m2, col(bus_s.y0, w / 2)).with_net(id));
            }
            "d1" => {
                // Rise through own bus, then dummy-cross bus_d2.
                main.push(Shape::new(m2, col(w / 2, below_d2)).with_net(id));
                router.underpass_v(&mut main, via, m1, m2, *x, below_d2, above_d2, Some(id))?;
            }
            _ => {
                // d2: rise to below bus_d1, underpass it, continue to own bus.
                main.push(Shape::new(m2, col(w / 2, below_d1)).with_net(id));
                router.underpass_v(&mut main, via, m1, m2, *x, below_d1, above_d1, Some(id))?;
                main.push(Shape::new(m2, col(above_d1, bus_d2.y1)).with_net(id));
            }
        }
    }
    main.push_port(Port {
        name: "d1".into(),
        layer: m2,
        rect: bus_d1,
        net: Some(d1_id),
    });
    main.push_port(Port {
        name: "d2".into(),
        layer: m2,
        rect: bus_d2,
        net: Some(d2_id),
    });
    main.push_port(Port {
        name: "s".into(),
        layer: m2,
        rect: bus_s,
        net: Some(s_id),
    });

    // Implants / well.
    match params.mos {
        MosType::N => {
            let nplus = tech.nplus()?;
            prim.around(&mut main, nplus, 0)?;
        }
        MosType::P => {
            let pplus = tech.pplus()?;
            prim.around(&mut main, pplus, 0)?;
            let nwell = tech.nwell()?;
            prim.around(&mut main, nwell, 0)?;
        }
    }

    if params.guard {
        main = guard_ring(tech, &main, &GuardRingParams::default())?;
    }
    Ok(main)
}

/// The mean x position of a device's gate columns — equal for both
/// devices in a common-centroid arrangement.
pub fn device_centroid_x(cols: &[Rect]) -> f64 {
    if cols.is_empty() {
        return 0.0;
    }
    cols.iter().map(|r| r.center().x as f64).sum::<f64>() / cols.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use amgen_drc::{latchup, Drc};
    use amgen_extract::Extractor;
    use amgen_geom::um;
    use amgen_tech::Tech;

    fn tech() -> GenCtx {
        GenCtx::from_tech(&Tech::bicmos_1u())
    }

    fn paper_module(t: &GenCtx) -> LayoutObject {
        centroid_diff_pair(
            t,
            &CentroidParams::paper(MosType::N)
                .with_w(um(6))
                .with_l(um(1)),
        )
        .unwrap()
    }

    #[test]
    fn paper_configuration_builds() {
        let m = paper_module(&tech());
        assert!(m.port("d1").is_some());
        assert!(m.port("d2").is_some());
        assert!(m.port("s").is_some());
        assert!(m.port("sub").is_some(), "substrate contacts included");
    }

    #[test]
    fn gate_finger_count_matches_plan() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let m = centroid_diff_pair(
            &t,
            &CentroidParams::paper(MosType::N)
                .with_w(um(6))
                .without_guard(),
        )?;
        let poly = t.layer("poly")?;
        // Vertical poly stripes: 4+4 active + 8+4+4 dummies = 24.
        let stripes = m
            .shapes_on(poly)
            .filter(|s| s.rect.height() > 3 * s.rect.width())
            .count();
        assert_eq!(stripes, 24);
        Ok(())
    }

    #[test]
    fn devices_share_a_centroid() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        // Re-derive the columns from the built module: A columns reach
        // high, B columns reach low.
        let m = centroid_diff_pair(
            &t,
            &CentroidParams::paper(MosType::N)
                .with_w(um(6))
                .without_guard(),
        )?;
        let poly = t.layer("poly")?;
        let stripes: Vec<Rect> = m
            .shapes_on(poly)
            .filter(|s| s.rect.height() > 3 * s.rect.width())
            .map(|s| s.rect)
            .collect();
        let y_top = stripes.iter().map(|r| r.y1).max().ok_or("no stripes")?;
        let y_bot = stripes.iter().map(|r| r.y0).min().ok_or("no stripes")?;
        let a: Vec<Rect> = stripes.iter().copied().filter(|r| r.y1 == y_top).collect();
        let b: Vec<Rect> = stripes.iter().copied().filter(|r| r.y0 == y_bot).collect();
        assert_eq!(a.len(), 4);
        assert_eq!(b.len(), 4);
        let ca = device_centroid_x(&a);
        let cb = device_centroid_x(&b);
        assert!((ca - cb).abs() < 1_000.0, "centroids differ: {ca} vs {cb}");
        Ok(())
    }

    #[test]
    fn drain_nets_have_identical_crossings() {
        let t = tech();
        let m = paper_module(&t);
        let counts = Router::new(&t).crossing_counts(&m);
        let get = |n: &str| {
            counts
                .iter()
                .find(|(x, _)| x == n)
                .map(|(_, c)| *c)
                .unwrap_or(0)
        };
        assert_eq!(get("d1"), get("d2"), "{counts:?}");
        assert!(get("d1") > 0, "the drains do cross other nets");
    }

    #[test]
    fn latchup_clean_with_guard_ring() {
        let t = tech();
        let m = paper_module(&t);
        assert!(latchup::check_latchup(&t, &m).is_empty());
    }

    #[test]
    fn latchup_fails_without_guard_ring() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let m = centroid_diff_pair(
            &t,
            &CentroidParams::paper(MosType::N)
                .with_w(um(6))
                .without_guard(),
        )?;
        assert!(!latchup::check_latchup(&t, &m).is_empty());
        Ok(())
    }

    #[test]
    fn no_gate_to_gate_short() {
        let t = tech();
        let m = paper_module(&t);
        let nets = Extractor::new(&t).connectivity(&m);
        for n in &nets {
            let has_g1 = n.declared.iter().any(|x| x == "g1");
            let has_g2 = n.declared.iter().any(|x| x == "g2");
            assert!(!(has_g1 && has_g2), "gates shorted: {:?}", n.declared);
            let has_d1 = n.declared.iter().any(|x| x == "d1");
            let has_d2 = n.declared.iter().any(|x| x == "d2");
            assert!(!(has_d1 && has_d2), "drains shorted: {:?}", n.declared);
        }
    }

    #[test]
    fn spacing_clean() {
        let t = tech();
        let m = paper_module(&t);
        let v = Drc::new(&t).check_spacing(&m);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn zero_pairs_rejected() {
        let t = tech();
        let mut p = CentroidParams::paper(MosType::N);
        p.pairs_per_side = 0;
        assert!(matches!(
            centroid_diff_pair(&t, &p),
            Err(ModgenError::BadParam { .. })
        ));
    }

    #[test]
    fn more_pairs_grow_the_module() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let mut small = CentroidParams::paper(MosType::N).without_guard();
        small.center_dummies = 2;
        small.side_dummies = 1;
        let mut big = small.clone();
        big.pairs_per_side = 2;
        let a = centroid_diff_pair(&t, &small)?;
        let b = centroid_diff_pair(&t, &big)?;
        assert!(b.bbox().width() > a.bbox().width());
        Ok(())
    }
}
