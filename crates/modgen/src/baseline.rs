//! Coordinate-level baseline generators (the style of the paper's
//! ref. \[11\]).
//!
//! The paper argues that its procedural language shortens module code:
//! *"Former methods for equivalent generation by describing each
//! rectangle with its exact coordinates needed a multiple of this source
//! code and were much more difficult to construct and to maintain."*
//!
//! This module is that strawman, written honestly: the same contact row
//! and differential-pair geometry, but with every coordinate computed by
//! hand from the rules. Tests pin it to the generator output; the
//! experiment harness compares the line counts (`T-code` in
//! EXPERIMENTS.md).

use amgen_core::{FaultSite, GenCtx, Stage};
use amgen_db::{LayoutObject, Shape};
use amgen_geom::{Coord, Rect};

use crate::error::ModgenError;

/// This module's own source text, for the code-length experiment
/// (`T-code` in EXPERIMENTS.md): the harness compares the length of the
/// hand-coordinate generator below against the DSL sources it replaces.
pub const BASELINE_SOURCE: &str = include_str!("baseline.rs");

/// Hand-coordinate contact row, equivalent to
/// [`crate::contact_row::contact_row`] with an explicit width and
/// defaulted length on a non-cut layer.
///
/// Every coordinate below is derived manually — exactly the style the
/// paper's language replaces.
pub fn contact_row_by_coordinates(
    tech: &GenCtx,
    layer_name: &str,
    w: Coord,
) -> Result<LayoutObject, ModgenError> {
    let key = crate::cached::module_key(tech, "contact_row_by_coordinates", |k| {
        k.push(layer_name);
        k.push(w);
    });
    tech.generate_cached(Stage::Modgen, key, || {
        contact_row_by_coordinates_uncached(tech, layer_name, w)
    })
}

fn contact_row_by_coordinates_uncached(
    tech: &GenCtx,
    layer_name: &str,
    w: Coord,
) -> Result<LayoutObject, ModgenError> {
    let _stage = tech.stage(Stage::Modgen, || "contact_row_by_coordinates");
    tech.checkpoint(Stage::Modgen)?;
    tech.fault_check(FaultSite::ModgenEntry, "contact_row_by_coordinates")?;
    let layer = tech.layer(layer_name)?;
    let metal1 = tech.metal1()?;
    let contact = tech.contact()?;

    // --- manual rule arithmetic -----------------------------------
    let cut = tech
        .cut_size(contact)
        .map_err(|e| ModgenError::Tech(e.to_string()))?;
    let cut_space = tech
        .min_spacing(contact, contact)
        .ok_or_else(|| ModgenError::Tech("missing contact spacing".into()))?;
    let enc_base = tech.enclosure(layer, contact);
    let enc_metal = tech.enclosure(metal1, contact);
    let enc = enc_base.max(enc_metal);
    let min_w_layer = tech.min_width(layer);
    let min_w_metal = tech.min_width(metal1);

    // The row must be wide enough for the requested width, the layer
    // minima, and one contact with enclosure on both sides.
    let need_for_cut = cut + 2 * enc;
    let row_w = w.max(min_w_layer).max(min_w_metal).max(need_for_cut);
    // The length is the minimum that satisfies the same constraints.
    let row_l = min_w_layer.max(min_w_metal).max(need_for_cut);

    // Snap to the manufacturing grid.
    let row_w = tech.snap_up(row_w);
    let row_l = tech.snap_up(row_l);

    // --- explicit rectangles ---------------------------------------
    let mut obj = LayoutObject::new(format!("baseline_row:{layer_name}"));
    let base_rect = Rect::new(0, 0, row_w, row_l);
    obj.push(Shape::new(layer, base_rect));
    let metal_rect = Rect::new(0, 0, row_w, row_l);
    obj.push(Shape::new(metal1, metal_rect));

    // Contact array: maximum count that fits, spread equidistantly from
    // the first position flush at the frame start to the last flush at
    // the frame end.
    let frame_x0 = enc;
    let frame_x1 = row_w - enc;
    let frame_y0 = enc;
    let frame_y1 = row_l - enc;
    let span_x = frame_x1 - frame_x0;
    let span_y = frame_y1 - frame_y0;
    let nx = ((span_x + cut_space) / (cut + cut_space)).max(1);
    let ny = ((span_y + cut_space) / (cut + cut_space)).max(1);
    for j in 0..ny {
        let y = if ny == 1 {
            frame_y0 + (span_y - cut) / 2
        } else {
            frame_y0 + (span_y - cut) * j / (ny - 1)
        };
        for i in 0..nx {
            let x = if nx == 1 {
                frame_x0 + (span_x - cut) / 2
            } else {
                frame_x0 + (span_x - cut) * i / (nx - 1)
            };
            obj.push(Shape::new(contact, Rect::new(x, y, x + cut, y + cut)));
        }
    }
    Ok(obj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contact_row::{contact_row, ContactRowParams};
    use amgen_drc::Drc;
    use amgen_geom::um;
    use amgen_tech::Tech;

    fn tech() -> GenCtx {
        GenCtx::from_tech(&Tech::bicmos_1u())
    }

    #[test]
    fn baseline_row_matches_generator_footprint() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let poly = t.layer("poly")?;
        for w in [um(4), um(10), um(16)] {
            let gen = contact_row(&t, poly, &ContactRowParams::new().with_w(w))?;
            let base = contact_row_by_coordinates(&t, "poly", w)?;
            assert_eq!(
                gen.bbox().width(),
                base.bbox().width(),
                "width differs at w={w}"
            );
            assert_eq!(gen.bbox().height(), base.bbox().height());
            let ct = t.layer("contact")?;
            assert_eq!(
                gen.shapes_on(ct).count(),
                base.shapes_on(ct).count(),
                "contact count differs at w={w}"
            );
        }
        Ok(())
    }

    #[test]
    fn baseline_row_is_drc_clean() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let row = contact_row_by_coordinates(&t, "pdiff", um(12))?;
        let v = Drc::new(&t).check(&row);
        assert!(v.is_empty(), "{v:?}");
        Ok(())
    }

    #[test]
    fn baseline_breaks_in_the_other_technology_shape() -> Result<(), Box<dyn std::error::Error>> {
        // The point of the paper: the generator port to another deck is
        // free, the hand-coordinate version must be re-derived. Here both
        // happen to consume rules through the API, so the baseline *does*
        // port — but its contact math silently assumes the metal and base
        // enclosures are equal. Assert the decks keep that assumption so
        // the comparison stays fair.
        for t in [Tech::bicmos_1u(), Tech::cmos_08()] {
            let poly = t.layer("poly")?;
            let ct = t.layer("contact")?;
            let m1 = t.layer("metal1")?;
            assert_eq!(t.enclosure(poly, ct), t.enclosure(m1, ct), "{}", t.name());
        }
        Ok(())
    }
}
