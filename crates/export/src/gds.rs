//! Minimal binary GDSII stream writer (and a summary parser for tests).
//!
//! Only what a flat module export needs: one library, one structure,
//! `BOUNDARY` elements for every shape. Records follow the GDSII stream
//! format: `[u16 length][u8 record type][u8 data type][payload]`.

use amgen_db::LayoutObject;
use amgen_tech::Tech;

// Record types.
const HEADER: u8 = 0x00;
const BGNLIB: u8 = 0x01;
const LIBNAME: u8 = 0x02;
const UNITS: u8 = 0x03;
const ENDLIB: u8 = 0x04;
const BGNSTR: u8 = 0x05;
const STRNAME: u8 = 0x06;
const ENDSTR: u8 = 0x07;
const BOUNDARY: u8 = 0x08;
const LAYER: u8 = 0x0d;
const DATATYPE: u8 = 0x0e;
const XY: u8 = 0x10;
const ENDEL: u8 = 0x11;

// Data types.
const DT_NONE: u8 = 0x00;
const DT_I16: u8 = 0x02;
const DT_I32: u8 = 0x03;
const DT_F64: u8 = 0x05;
const DT_ASCII: u8 = 0x06;

fn record(out: &mut Vec<u8>, rectype: u8, datatype: u8, payload: &[u8]) {
    let len = (payload.len() + 4) as u16;
    out.extend_from_slice(&len.to_be_bytes());
    out.push(rectype);
    out.push(datatype);
    out.extend_from_slice(payload);
}

fn ascii_payload(s: &str) -> Vec<u8> {
    let mut p: Vec<u8> = s.bytes().collect();
    if !p.len().is_multiple_of(2) {
        p.push(0);
    }
    p
}

/// GDSII 8-byte excess-64 floating point.
fn gds_f64(v: f64) -> [u8; 8] {
    if v == 0.0 {
        return [0; 8];
    }
    let sign = if v < 0.0 { 0x80u8 } else { 0 };
    let mut m = v.abs();
    let mut e: i32 = 64;
    while m >= 1.0 {
        m /= 16.0;
        e += 1;
    }
    while m < 1.0 / 16.0 {
        m *= 16.0;
        e -= 1;
    }
    let mut out = [0u8; 8];
    out[0] = sign | (e as u8);
    let mut frac = m;
    for b in out.iter_mut().skip(1) {
        frac *= 256.0;
        let byte = frac.floor();
        *b = byte as u8;
        frac -= byte;
    }
    out
}

/// Writes the object as a single-structure GDSII stream. Database unit =
/// 1 nm, user unit = 1 µm.
///
/// # Example
/// ```
/// use amgen_db::{LayoutObject, Shape};
/// use amgen_geom::Rect;
/// use amgen_tech::Tech;
///
/// let tech = Tech::bicmos_1u();
/// let poly = tech.layer("poly").unwrap();
/// let mut obj = LayoutObject::new("cell");
/// obj.push(Shape::new(poly, Rect::new(0, 0, 1_000, 5_000)));
/// let bytes = amgen_export::write_gds(&tech, &obj);
/// let summary = amgen_export::parse_gds_summary(&bytes).unwrap();
/// assert_eq!(summary.boundaries, 1);
/// ```
pub fn write_gds(tech: &Tech, obj: &LayoutObject) -> Vec<u8> {
    let mut out = Vec::new();
    record(&mut out, HEADER, DT_I16, &600i16.to_be_bytes());
    // BGNLIB: 12 i16 timestamps (zeroed — deterministic output).
    record(&mut out, BGNLIB, DT_I16, &[0u8; 24]);
    record(&mut out, LIBNAME, DT_ASCII, &ascii_payload("AMGEN"));
    let mut units = Vec::new();
    units.extend_from_slice(&gds_f64(1e-3)); // db units per user unit (nm/µm)
    units.extend_from_slice(&gds_f64(1e-9)); // db unit in metres
    record(&mut out, UNITS, DT_F64, &units);
    record(&mut out, BGNSTR, DT_I16, &[0u8; 24]);
    let name = if obj.name().is_empty() {
        "TOP"
    } else {
        obj.name()
    };
    let clean: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_uppercase()
            } else {
                '_'
            }
        })
        .collect();
    record(&mut out, STRNAME, DT_ASCII, &ascii_payload(&clean));
    for s in obj.shapes() {
        if s.rect.is_empty() {
            continue;
        }
        let info = tech.info(s.layer);
        record(&mut out, BOUNDARY, DT_NONE, &[]);
        record(&mut out, LAYER, DT_I16, &(info.gds_layer).to_be_bytes());
        record(
            &mut out,
            DATATYPE,
            DT_I16,
            &(info.gds_datatype).to_be_bytes(),
        );
        let r = s.rect;
        let pts: [(i64, i64); 5] = [
            (r.x0, r.y0),
            (r.x1, r.y0),
            (r.x1, r.y1),
            (r.x0, r.y1),
            (r.x0, r.y0),
        ];
        let mut xy = Vec::with_capacity(40);
        for (x, y) in pts {
            xy.extend_from_slice(&(x as i32).to_be_bytes());
            xy.extend_from_slice(&(y as i32).to_be_bytes());
        }
        record(&mut out, XY, DT_I32, &xy);
        record(&mut out, ENDEL, DT_NONE, &[]);
    }
    record(&mut out, ENDSTR, DT_NONE, &[]);
    record(&mut out, ENDLIB, DT_NONE, &[]);
    out
}

/// Structural summary of a GDSII stream (used for round-trip tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GdsSummary {
    /// Structure name.
    pub structure: String,
    /// Number of `BOUNDARY` elements.
    pub boundaries: usize,
    /// Distinct GDS layer numbers seen.
    pub layers: Vec<i16>,
    /// Bounding box of all points (x0, y0, x1, y1) in database units.
    pub bbox: (i64, i64, i64, i64),
}

/// Parses just enough of a GDSII stream to verify its structure.
pub fn parse_gds_summary(bytes: &[u8]) -> Result<GdsSummary, String> {
    let mut pos = 0usize;
    let mut structure = String::new();
    let mut boundaries = 0usize;
    let mut layers: Vec<i16> = Vec::new();
    let mut bbox = (i64::MAX, i64::MAX, i64::MIN, i64::MIN);
    let mut saw_endlib = false;
    while pos + 4 <= bytes.len() {
        let len = u16::from_be_bytes([bytes[pos], bytes[pos + 1]]) as usize;
        if len < 4 || pos + len > bytes.len() {
            return Err(format!("bad record length {len} at offset {pos}"));
        }
        let rectype = bytes[pos + 2];
        let payload = &bytes[pos + 4..pos + len];
        match rectype {
            STRNAME => {
                structure = payload
                    .iter()
                    .take_while(|&&b| b != 0)
                    .map(|&b| b as char)
                    .collect();
            }
            BOUNDARY => boundaries += 1,
            LAYER => {
                let l = i16::from_be_bytes([payload[0], payload[1]]);
                if !layers.contains(&l) {
                    layers.push(l);
                }
            }
            XY => {
                for ch in payload.chunks_exact(8) {
                    let x = i32::from_be_bytes([ch[0], ch[1], ch[2], ch[3]]) as i64;
                    let y = i32::from_be_bytes([ch[4], ch[5], ch[6], ch[7]]) as i64;
                    bbox.0 = bbox.0.min(x);
                    bbox.1 = bbox.1.min(y);
                    bbox.2 = bbox.2.max(x);
                    bbox.3 = bbox.3.max(y);
                }
            }
            ENDLIB => saw_endlib = true,
            _ => {}
        }
        pos += len;
    }
    if !saw_endlib {
        return Err("stream ended without ENDLIB".into());
    }
    layers.sort_unstable();
    Ok(GdsSummary {
        structure,
        boundaries,
        layers,
        bbox,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use amgen_db::Shape;
    use amgen_geom::Rect;

    #[test]
    fn round_trip_structure() {
        let t = Tech::bicmos_1u();
        let poly = t.layer("poly").unwrap();
        let m1 = t.layer("metal1").unwrap();
        let mut obj = LayoutObject::new("my cell");
        obj.push(Shape::new(poly, Rect::new(0, 0, 1_000, 5_000)));
        obj.push(Shape::new(m1, Rect::new(-500, 0, 2_000, 2_000)));
        let bytes = write_gds(&t, &obj);
        let s = parse_gds_summary(&bytes).unwrap();
        assert_eq!(s.structure, "MY_CELL");
        assert_eq!(s.boundaries, 2);
        assert_eq!(s.layers, vec![t.info(poly).gds_layer, t.info(m1).gds_layer]);
        assert_eq!(s.bbox, (-500, 0, 2_000, 5_000));
    }

    #[test]
    fn output_is_deterministic() {
        let t = Tech::bicmos_1u();
        let poly = t.layer("poly").unwrap();
        let mut obj = LayoutObject::new("x");
        obj.push(Shape::new(poly, Rect::new(0, 0, 100, 100)));
        assert_eq!(write_gds(&t, &obj), write_gds(&t, &obj));
    }

    #[test]
    fn empty_shapes_are_skipped() {
        let t = Tech::bicmos_1u();
        let poly = t.layer("poly").unwrap();
        let mut obj = LayoutObject::new("x");
        obj.push(Shape::new(poly, Rect::EMPTY));
        obj.push(Shape::new(poly, Rect::new(0, 0, 100, 100)));
        let s = parse_gds_summary(&write_gds(&t, &obj)).unwrap();
        assert_eq!(s.boundaries, 1);
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let t = Tech::bicmos_1u();
        let poly = t.layer("poly").unwrap();
        let mut obj = LayoutObject::new("x");
        obj.push(Shape::new(poly, Rect::new(0, 0, 100, 100)));
        let bytes = write_gds(&t, &obj);
        let cut = &bytes[..bytes.len() - 6];
        assert!(parse_gds_summary(cut).is_err());
    }

    #[test]
    fn gds_float_encodes_one() {
        // 1.0 = 0.0625 * 16^1: exponent 65, mantissa 0x10...
        let b = gds_f64(1.0);
        assert_eq!(b[0], 65);
        assert_eq!(b[1], 0x10);
    }

    #[test]
    fn real_module_exports() {
        let t = Tech::bicmos_1u();
        let row = amgen_modgen::contact_row(
            &amgen_core::GenCtx::from_tech(&t),
            t.layer("poly").unwrap(),
            &amgen_modgen::ContactRowParams::new().with_w(10_000),
        )
        .unwrap();
        let s = parse_gds_summary(&write_gds(&t, &row)).unwrap();
        assert_eq!(s.boundaries, row.len());
        assert!(s.layers.len() >= 3);
    }
}
