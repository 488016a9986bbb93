//! Deterministic global routing primitives for the amplifier.
//!
//! The discipline that keeps the assembly short-free:
//!
//! * **horizontal** segments run on **metal2** (rails, channel tracks,
//!   taps out of bus ends, entries into device columns),
//! * **vertical** segments run on **metal1** inside the *streets* between
//!   blocks (and in the open area below/above them),
//! * every direction change is a via stack.
//!
//! Horizontal metal2 freely crosses the blocks' metal1 guard rings and
//! device columns; vertical metal1 freely crosses the metal2 rails,
//! tracks and bus stubs of other nets — all crossings are inter-layer.

use amgen_core::GenCtx;
use amgen_db::{LayoutObject, Shape};
use amgen_geom::{Coord, Point, Rect};
use amgen_route::Router;

/// Pushes a horizontal metal2 segment (centred on `y`) and returns it.
pub fn h_m2(
    tech: &GenCtx,
    obj: &mut LayoutObject,
    net: &str,
    y: Coord,
    xa: Coord,
    xb: Coord,
) -> Rect {
    let m2 = tech.metal2().expect("metal2 exists");
    let w = tech.min_width(m2).max(2_000);
    let r = Rect::new(xa.min(xb), y - w / 2, xa.max(xb), y - w / 2 + w);
    let id = obj.net(net);
    obj.push(Shape::new(m2, r).with_net(id));
    r
}

/// Pushes a vertical metal1 segment (centred on `x`) and returns it.
pub fn v_m1(
    tech: &GenCtx,
    obj: &mut LayoutObject,
    net: &str,
    x: Coord,
    ya: Coord,
    yb: Coord,
) -> Rect {
    let m1 = tech.metal1().expect("metal1 exists");
    let w = tech.min_width(m1).max(2_000);
    let r = Rect::new(x - w / 2, ya.min(yb), x - w / 2 + w, ya.max(yb));
    let id = obj.net(net);
    obj.push(Shape::new(m1, r).with_net(id));
    r
}

/// Places a metal1↔metal2 via stack at `p`.
pub fn via(tech: &GenCtx, obj: &mut LayoutObject, net: &str, p: Point) -> Result<(), String> {
    let router = Router::new(tech);
    let m1 = tech.metal1().map_err(|e| e.to_string())?;
    let m2 = tech.metal2().map_err(|e| e.to_string())?;
    let v = tech.via1().map_err(|e| e.to_string())?;
    let id = obj.net(net);
    router
        .via_stack(obj, v, m1, m2, p, Some(id))
        .map_err(|e| e.to_string())?;
    Ok(())
}

/// The midpoint of a port rectangle's east or west edge — where a
/// horizontal tap leaves the bus.
pub fn bus_end(rect: Rect, east: bool) -> Point {
    Point::new(if east { rect.x1 } else { rect.x0 }, rect.center().y)
}

/// Taps a metal2 bus: a horizontal metal2 segment from the bus's
/// east/west end to `street_x`, with a via stack there. Returns the via
/// point (on both metal1 and metal2).
pub fn tap(
    tech: &GenCtx,
    obj: &mut LayoutObject,
    net: &str,
    port_rect: Rect,
    east: bool,
    street_x: Coord,
) -> Result<Point, String> {
    let end = bus_end(port_rect, east);
    h_m2(tech, obj, net, end.y, end.x, street_x);
    let p = Point::new(street_x, end.y);
    via(tech, obj, net, p)?;
    Ok(p)
}

/// Enters a block horizontally to land on a metal1 column (a contact-row
/// port inside an unguarded module): metal2 from `street_x` to the
/// column's centre at `entry_y`, via down into the column.
pub fn enter_column(
    tech: &GenCtx,
    obj: &mut LayoutObject,
    net: &str,
    column: Rect,
    entry_y: Coord,
    street_x: Coord,
) -> Result<Point, String> {
    let cx = column.center().x;
    h_m2(tech, obj, net, entry_y, street_x, cx);
    via(tech, obj, net, Point::new(cx, entry_y))?;
    via(tech, obj, net, Point::new(street_x, entry_y))?;
    Ok(Point::new(street_x, entry_y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use amgen_extract::Extractor;
    use amgen_geom::um;
    use amgen_tech::Tech;

    #[test]
    fn tap_plus_drop_connects_a_bus_to_a_rail() {
        let t = GenCtx::from_tech(&Tech::bicmos_1u());
        let m2 = t.layer("metal2").unwrap();
        let mut obj = LayoutObject::new("x");
        let sig = obj.net("sig");
        let bus = Rect::new(0, um(20), um(30), um(22));
        obj.push(Shape::new(m2, bus).with_net(sig));
        // Tap east into a street at x = 40 um, drop to a rail at y = 0.
        let p = tap(&t, &mut obj, "sig", bus, true, um(40)).unwrap();
        v_m1(&t, &mut obj, "sig", p.x, p.y, 0);
        via(&t, &mut obj, "sig", Point::new(p.x, 0)).unwrap();
        h_m2(&t, &mut obj, "sig", 0, um(35), um(45));
        let nets = Extractor::new(&t).connectivity(&obj);
        assert_eq!(nets.len(), 1, "{nets:?}");
    }

    #[test]
    fn vertical_m1_crosses_foreign_m2_without_connecting() {
        let t = GenCtx::from_tech(&Tech::bicmos_1u());
        let mut obj = LayoutObject::new("x");
        h_m2(&t, &mut obj, "a", um(5), 0, um(20));
        v_m1(&t, &mut obj, "b", um(10), 0, um(10));
        let nets = Extractor::new(&t).connectivity(&obj);
        assert_eq!(nets.len(), 2, "layers cross without shorting");
    }

    #[test]
    fn bus_end_points() {
        let r = Rect::new(0, 0, um(10), um(2));
        assert_eq!(bus_end(r, true), Point::new(um(10), um(1)));
        assert_eq!(bus_end(r, false), Point::new(0, um(1)));
    }

    #[test]
    fn enter_column_lands_on_metal1() {
        let t = GenCtx::from_tech(&Tech::bicmos_1u());
        let m1 = t.layer("metal1").unwrap();
        let mut obj = LayoutObject::new("x");
        let sig = obj.net("sig");
        let column = Rect::new(um(20), 0, um(22), um(10));
        obj.push(Shape::new(m1, column).with_net(sig));
        enter_column(&t, &mut obj, "sig", column, um(5), um(40)).unwrap();
        let nets = Extractor::new(&t).connectivity(&obj);
        assert_eq!(nets.len(), 1, "{nets:?}");
    }
}
