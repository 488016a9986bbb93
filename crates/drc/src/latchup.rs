//! The latch-up rule check (Fig. 1 of the paper).
//!
//! *"This rule determines if temporary rectangles which are placed around
//! the substrate contacts enclose all locos areas of MOS-transistors. ...
//! If after examining all enclosing rectangles no parts of the solid
//! rectangles are remaining, the latch-up rule is fulfilled."*
//!
//! The algorithm is exactly the figure's: keep a [`Region`] of active-area
//! rectangles; for each substrate contact, subtract its temporary coverage
//! rectangle (contact inflated by the technology's latch-up distance);
//! every subtraction resolves one of the 16 overlap cases into remainder
//! rectangles. The rule passes when nothing remains.

use amgen_core::GenCtx;
use amgen_db::{LayoutObject, ShapeRole};
use amgen_geom::{Coord, Rect, Region};

use crate::violation::{Violation, ViolationKind};

/// The temporary coverage rectangles of all substrate contacts.
pub fn coverage_rects(ctx: &GenCtx, obj: &LayoutObject) -> Vec<Rect> {
    let d = ctx.latchup_distance();
    obj.shapes()
        .iter()
        .filter(|s| s.role == ShapeRole::SubstrateContact)
        .map(|s| s.rect.inflated(d))
        .collect()
}

/// The active-area region that must be covered.
pub fn active_region(obj: &LayoutObject) -> Region {
    obj.shapes()
        .iter()
        .filter(|s| s.role == ShapeRole::DeviceActive)
        .map(|s| s.rect)
        .collect()
}

/// Runs the latch-up check, returning the **uncovered remainder** — empty
/// when the rule is fulfilled. This exposes the intermediate result of
/// Fig. 1 for inspection and for the reproduction harness.
///
/// Runs on the object's [spatial index](LayoutObject::spatial_index):
/// each active rectangle consults only the substrate contacts within
/// latch-up distance instead of the whole-chip contact list, turning the
/// check sub-quadratic. The result is byte-identical to the sequential
/// scan ([`latchup_remainder_scan`]) — see that function for the
/// equivalence argument.
pub fn latchup_remainder(ctx: &GenCtx, obj: &LayoutObject) -> Region {
    let d = ctx.latchup_distance();
    if d == 0 {
        // Technology does not state the rule: vacuously fulfilled.
        return Region::new();
    }
    latchup_remainder_indexed(d, obj)
}

/// The pre-index sequential pass of Fig. 1: subtract every contact's
/// coverage rectangle from the global active region, in shape order.
/// Kept as the reference the indexed path is equivalence-tested against.
///
/// The indexed path is byte-identical because `subtract_rect` replaces
/// each fragment by its remainder pieces *in place*: fragments of one
/// active rectangle stay contiguous and in source order for the whole
/// pass, a cover that does not overlap a fragment maps it to itself, and
/// the global early exit only skips covers that could no longer change
/// anything. Folding each active rectangle independently over the same
/// cover order therefore produces the same final rectangle sequence.
#[doc(hidden)]
pub fn latchup_remainder_scan(ctx: &GenCtx, obj: &LayoutObject) -> Region {
    let mut remaining = active_region(obj);
    if ctx.latchup_distance() == 0 {
        return Region::new();
    }
    for cover in coverage_rects(ctx, obj) {
        remaining.subtract_rect(cover);
        if remaining.is_empty() {
            break;
        }
    }
    remaining
}

/// Index-backed latch-up: for each active rectangle, query the contacts
/// whose coverage can reach it (window = rect inflated by the latch-up
/// distance), take the no-remainder fast path when one cover contains
/// the rectangle outright, and otherwise subtract the candidate covers
/// in shape order.
fn latchup_remainder_indexed(d: Coord, obj: &LayoutObject) -> Region {
    let ix = obj.spatial_index();
    let contacts = ix
        .role(ShapeRole::SubstrateContact)
        .expect("role is indexed");
    let shapes = obj.shapes();
    let mut out = Region::new();
    let mut cand: Vec<u32> = Vec::new();
    let mut frags: Vec<Rect> = Vec::new();
    let mut next: Vec<Rect> = Vec::new();
    for s in shapes {
        if s.role != ShapeRole::DeviceActive || s.rect.is_empty() {
            continue;
        }
        let a = s.rect;
        // `cover ∩ a ≠ ∅ ⇔ contact ∩ a.inflated(d) ≠ ∅`: one window
        // query finds every contact whose coverage can touch `a`.
        let window = a.inflated(d);
        // Fast path: a single containing cover leaves no remainder no
        // matter in which order covers would have been subtracted.
        if contacts.any_candidate(&window, |_, c| c.inflated(d).contains_rect(&a)) {
            continue;
        }
        contacts.query_into(&window, &mut cand);
        frags.clear();
        frags.push(a);
        for &j in &cand {
            let cover = shapes[j as usize].rect.inflated(d);
            next.clear();
            for f in &frags {
                next.extend(f.subtract(&cover));
            }
            std::mem::swap(&mut frags, &mut next);
            if frags.is_empty() {
                break;
            }
        }
        for f in &frags {
            out.push(*f);
        }
    }
    out
}

/// The latch-up check as violations: one per uncovered remainder
/// rectangle — the paper's *"additional substrate contacts have to be
/// inserted"* diagnostics.
pub fn check_latchup(ctx: &GenCtx, obj: &LayoutObject) -> Vec<Violation> {
    ctx.metrics.add_drc_checks(1);
    let mut span = ctx.span(amgen_core::Stage::Drc, || "latchup");
    let remaining = latchup_remainder(ctx, obj);
    span.arg("uncovered", remaining.rects().len());
    drop(span);
    violations(ctx, remaining)
}

/// [`check_latchup`] on the sequential scan ([`latchup_remainder_scan`]),
/// for the byte-identity parity baseline.
#[doc(hidden)]
pub fn check_latchup_scan(ctx: &GenCtx, obj: &LayoutObject) -> Vec<Violation> {
    let remaining = latchup_remainder_scan(ctx, obj);
    violations(ctx, remaining)
}

fn violations(ctx: &GenCtx, remaining: Region) -> Vec<Violation> {
    remaining
        .rects()
        .iter()
        .map(|&rect| Violation {
            kind: ViolationKind::LatchUp,
            rect,
            message: format!(
                "active area not within {} of a substrate contact",
                ctx.latchup_distance()
            ),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use amgen_db::Shape;
    use amgen_geom::um;
    use amgen_tech::Tech;

    fn setup() -> (GenCtx, amgen_tech::Layer, amgen_tech::Layer) {
        let t = GenCtx::from_tech(&Tech::bicmos_1u());
        let pdiff = t.layer("pdiff").unwrap();
        (t.clone(), pdiff, t.layer("ndiff").unwrap())
    }

    fn active(l: amgen_tech::Layer, r: Rect) -> Shape {
        Shape::new(l, r).with_role(ShapeRole::DeviceActive)
    }

    fn subcon(l: amgen_tech::Layer, r: Rect) -> Shape {
        Shape::new(l, r).with_role(ShapeRole::SubstrateContact)
    }

    #[test]
    fn covered_active_passes() {
        let (t, pdiff, _) = setup();
        let mut obj = LayoutObject::new("x");
        obj.push(active(pdiff, Rect::new(0, 0, um(10), um(4))));
        obj.push(subcon(pdiff, Rect::new(um(12), 0, um(14), um(2))));
        // Latch-up distance is 50 um: one contact covers everything.
        assert!(check_latchup(&t, &obj).is_empty());
    }

    #[test]
    fn distant_active_fails() {
        let (t, pdiff, _) = setup();
        let d = t.latchup_distance();
        let mut obj = LayoutObject::new("x");
        obj.push(active(pdiff, Rect::new(0, 0, um(10), um(4))));
        // Contact far beyond the coverage distance.
        obj.push(subcon(
            pdiff,
            Rect::new(um(12) + 2 * d, 0, um(14) + 2 * d, um(2)),
        ));
        let v = check_latchup(&t, &obj);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::LatchUp);
    }

    #[test]
    fn no_contacts_at_all_fails() {
        let (t, pdiff, _) = setup();
        let mut obj = LayoutObject::new("x");
        obj.push(active(pdiff, Rect::new(0, 0, um(10), um(4))));
        assert_eq!(check_latchup(&t, &obj).len(), 1);
    }

    #[test]
    fn no_active_area_passes_vacuously() {
        let (t, pdiff, _) = setup();
        let mut obj = LayoutObject::new("x");
        obj.push(Shape::new(pdiff, Rect::new(0, 0, um(10), um(4))));
        assert!(check_latchup(&t, &obj).is_empty());
    }

    #[test]
    fn partial_coverage_reports_the_remainder() {
        let (t, pdiff, _) = setup();
        let d = t.latchup_distance();
        let mut obj = LayoutObject::new("x");
        // A long active stripe: 3 * d long, contact at the west end only.
        obj.push(active(pdiff, Rect::new(0, 0, 3 * d, um(4))));
        obj.push(subcon(pdiff, Rect::new(-um(2), 0, 0, um(2))));
        let rem = latchup_remainder(&t, &obj);
        assert!(!rem.is_empty());
        // Exactly the east part beyond x = d is uncovered.
        assert_eq!(rem.bbox().x0, d);
        assert_eq!(rem.bbox().x1, 3 * d);
    }

    #[test]
    fn two_contacts_jointly_cover_like_fig1() {
        let (t, pdiff, _) = setup();
        let d = t.latchup_distance();
        let mut obj = LayoutObject::new("x");
        obj.push(active(pdiff, Rect::new(0, 0, 3 * d, um(4))));
        obj.push(subcon(pdiff, Rect::new(-um(2), 0, 0, um(2))));
        obj.push(subcon(pdiff, Rect::new(2 * d, 0, 2 * d + um(2), um(2))));
        assert!(check_latchup(&t, &obj).is_empty());
    }

    /// The indexed path must reproduce the sequential scan byte for
    /// byte — same remainder rectangles, same order — on workloads that
    /// exercise full coverage, no coverage, partial multi-fragment
    /// remainders and the overlap corner cases.
    #[test]
    fn indexed_matches_scan_byte_for_byte() {
        let (t, pdiff, _) = setup();
        let d = t.latchup_distance();
        let mut s = 0x5eed_u64;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for trial in 0..30 {
            let mut obj = LayoutObject::new("x");
            let n_active = 1 + (next() % 40) as i64;
            let n_contacts = (next() % 12) as i64;
            for i in 0..n_active {
                let x = i * d / 2 + (next() % (d as u64 / 4)) as i64;
                let y = (next() % (2 * d as u64)) as i64 - d;
                let w = 100 + (next() % (3 * d as u64)) as i64;
                let h = 100 + (next() % (d as u64)) as i64;
                obj.push(active(pdiff, Rect::new(x, y, x + w, y + h)));
            }
            for i in 0..n_contacts {
                let x = i * 2 * d + (next() % (2 * d as u64)) as i64 - d;
                let y = (next() % (4 * d as u64)) as i64 - 2 * d;
                obj.push(subcon(pdiff, Rect::new(x, y, x + um(2), y + um(2))));
            }
            let scan = latchup_remainder_scan(&t, &obj);
            let indexed = latchup_remainder(&t, &obj);
            assert_eq!(scan.rects(), indexed.rects(), "trial {trial} diverged");
        }
    }

    /// The full 4x4 overlap matrix of Fig. 1, driven through the check:
    /// a single coverage rectangle in each of the 16 configurations cuts
    /// the active area; adding complementary contacts finishes the job.
    #[test]
    fn sixteen_overlap_cases_resolve() {
        let (t, pdiff, _) = setup();
        let d = t.latchup_distance();
        let solid = Rect::new(0, 0, 8 * d, 8 * d);
        // Contact extents along one axis producing each overlap class once
        // inflated by the latch-up distance d.
        let cases = [
            (-d, 9 * d),                // full cover
            (-2 * d, 0),                // low part only
            (8 * d, 10 * d),            // high part only
            (4 * d - 100, 4 * d + 100), // middle
        ];
        for &(x0, x1) in &cases {
            for &(y0, y1) in &cases {
                let contact = Rect::new(x0, y0, x1, y1);
                let mut obj = LayoutObject::new("x");
                obj.push(active(pdiff, solid));
                obj.push(subcon(pdiff, contact));
                let rem = latchup_remainder(&t, &obj);
                // Remainder area must equal solid minus the overlap.
                let cover = contact.inflated(d);
                let cut = solid.intersection(&cover).map_or(0, |o| o.area());
                assert_eq!(rem.area(), solid.area() - cut, "contact {contact}");
            }
        }
    }
}
