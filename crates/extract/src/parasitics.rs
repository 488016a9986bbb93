//! Per-net parasitic estimation.

use amgen_core::{GenCtx, Stage};
use amgen_db::LayoutObject;
use amgen_geom::Region;
use amgen_tech::LayerKind;

use crate::connectivity::Extractor;

/// Parasitics of one extracted net.
#[derive(Debug, Clone, PartialEq)]
pub struct NetParasitics {
    /// Declared name, when the net carries exactly one.
    pub name: Option<String>,
    /// Member shape indices.
    pub shapes: Vec<usize>,
    /// Total capacitance to substrate in attofarads (area + fringe over
    /// the merged geometry of each conductor layer).
    pub cap_af: f64,
    /// Crude series wire resistance estimate in milliohms: for every
    /// conductor shape, `sheet × (long dimension / short dimension)`,
    /// summed. Cut layers contribute nothing.
    pub res_mohm: f64,
}

impl Extractor {
    /// Extracts connectivity and computes parasitics for every net.
    ///
    /// Overlapping same-layer geometry is merged before the capacitance
    /// integral, so abutting rectangles are not double counted.
    pub fn parasitics(&self, obj: &LayoutObject) -> Vec<NetParasitics> {
        let nets = self.connectivity(obj);
        self.parasitics_of(obj, nets)
    }

    /// [`parasitics`](Extractor::parasitics) over the linear-scan
    /// connectivity pass, for the byte-identity parity baseline.
    #[doc(hidden)]
    pub fn parasitics_scan(&self, obj: &LayoutObject) -> Vec<NetParasitics> {
        let nets = self.connectivity_scan(obj);
        self.parasitics_of(obj, nets)
    }

    fn parasitics_of(
        &self,
        obj: &LayoutObject,
        nets: Vec<crate::ExtractedNet>,
    ) -> Vec<NetParasitics> {
        let _span = self
            .ctx
            .span(Stage::Extract, || format!("parasitics:{}", obj.name()));
        let tech = self.rules();
        nets.into_iter()
            .map(|net| {
                let mut cap = 0.0f64;
                let mut res = 0.0f64;
                // Group the member shapes per layer.
                let mut layers: Vec<amgen_tech::Layer> =
                    net.shapes.iter().map(|&i| obj.shapes()[i].layer).collect();
                layers.sort_unstable();
                layers.dedup();
                for layer in layers {
                    if !tech.kind(layer).is_conductor() {
                        continue;
                    }
                    let region: Region = net
                        .shapes
                        .iter()
                        .map(|&i| &obj.shapes()[i])
                        .filter(|s| s.layer == layer)
                        .map(|s| s.rect)
                        .collect();
                    let cc = tech.cap_coeffs(layer);
                    // Convert du² (nm²) to µm² and du (nm) to µm.
                    let area_um2 = region.area() as f64 / 1e6;
                    let perim_um = region.perimeter() as f64 / 1e3;
                    cap += area_um2 * cc.area_af_per_um2 + perim_um * cc.fringe_af_per_um;
                    if let Some(sheet) = tech.sheet_res_mohm(layer) {
                        for &i in &net.shapes {
                            let s = &obj.shapes()[i];
                            if s.layer != layer {
                                continue;
                            }
                            let (w, h) = (s.rect.width().max(1), s.rect.height().max(1));
                            let squares = w.max(h) as f64 / w.min(h) as f64;
                            res += sheet as f64 * squares;
                        }
                    }
                }
                let name = if net.declared.len() == 1 {
                    Some(net.declared[0].clone())
                } else {
                    None
                };
                NetParasitics {
                    name,
                    shapes: net.shapes,
                    cap_af: cap,
                    res_mohm: res,
                }
            })
            .collect()
    }

    /// Total parasitic capacitance of the layout in attofarads —
    /// the scalar "electrical conditions" term of the paper's rating
    /// function, optionally weighted per net name.
    ///
    /// `weight` receives the declared net name (or `None`) and returns a
    /// multiplier; sensitive signal nets can be weighted above supplies.
    pub fn weighted_cap_af<F>(&self, obj: &LayoutObject, weight: F) -> f64
    where
        F: Fn(Option<&str>) -> f64,
    {
        self.parasitics(obj)
            .iter()
            .map(|n| n.cap_af * weight(n.name.as_deref()))
            .sum()
    }
}

/// Capacitance of a single isolated rectangle on a layer (helper for
/// tests and quick estimates), in attofarads.
pub fn rect_cap_af(ctx: &GenCtx, layer: amgen_tech::Layer, rect: amgen_geom::Rect) -> f64 {
    if ctx.kind(layer) == LayerKind::Cut {
        return 0.0;
    }
    let cc = ctx.cap_coeffs(layer);
    let area_um2 = rect.area() as f64 / 1e6;
    let perim_um = 2.0 * (rect.width() + rect.height()) as f64 / 1e3;
    area_um2 * cc.area_af_per_um2 + perim_um * cc.fringe_af_per_um
}

#[cfg(test)]
mod tests {
    use super::*;
    use amgen_db::Shape;
    use amgen_geom::{um, Rect};
    use amgen_tech::Tech;

    #[test]
    fn single_wire_matches_hand_calculation() {
        let t = GenCtx::from_tech(&Tech::bicmos_1u());
        let m1 = t.layer("metal1").unwrap();
        let mut obj = LayoutObject::new("x");
        let n = obj.net("sig");
        // 10 um x 1.5 um metal1: area 15 um^2, perimeter 23 um.
        obj.push(Shape::new(m1, Rect::new(0, 0, um(10), 1_500)).with_net(n));
        let nets = Extractor::new(&t).parasitics(&obj);
        assert_eq!(nets.len(), 1);
        let cc = t.cap_coeffs(m1);
        let expected = 15.0 * cc.area_af_per_um2 + 23.0 * cc.fringe_af_per_um;
        assert!(
            (nets[0].cap_af - expected).abs() < 1e-9,
            "{}",
            nets[0].cap_af
        );
        assert_eq!(nets[0].name.as_deref(), Some("sig"));
        // Resistance: 10/1.5 squares at 70 mohm.
        let squares = um(10) as f64 / 1_500.0;
        assert!((nets[0].res_mohm - 70.0 * squares).abs() < 1e-9);
    }

    #[test]
    fn overlapping_geometry_is_not_double_counted() {
        let t = GenCtx::from_tech(&Tech::bicmos_1u());
        let m1 = t.layer("metal1").unwrap();
        let mut single = LayoutObject::new("a");
        single.push(Shape::new(m1, Rect::new(0, 0, um(10), um(2))));
        let mut split = LayoutObject::new("b");
        // The same footprint as two overlapping halves.
        split.push(Shape::new(m1, Rect::new(0, 0, um(6), um(2))));
        split.push(Shape::new(m1, Rect::new(um(4), 0, um(10), um(2))));
        let e = Extractor::new(&t);
        let ca = e.parasitics(&single)[0].cap_af;
        let cb = e.parasitics(&split)[0].cap_af;
        assert!((ca - cb).abs() < 1e-9, "{ca} vs {cb}");
    }

    #[test]
    fn poly_wire_has_higher_resistance_than_metal() {
        let t = GenCtx::from_tech(&Tech::bicmos_1u());
        let poly = t.layer("poly").unwrap();
        let m1 = t.layer("metal1").unwrap();
        let e = Extractor::new(&t);
        let wire = |layer| {
            let mut obj = LayoutObject::new("w");
            obj.push(Shape::new(layer, Rect::new(0, 0, um(20), um(1))));
            e.parasitics(&obj)[0].res_mohm
        };
        assert!(wire(poly) > 100.0 * wire(m1));
    }

    #[test]
    fn weighted_cap_can_emphasise_signal_nets() {
        let t = GenCtx::from_tech(&Tech::bicmos_1u());
        let m1 = t.layer("metal1").unwrap();
        let mut obj = LayoutObject::new("x");
        let sig = obj.net("sig");
        let vdd = obj.net("vdd");
        obj.push(Shape::new(m1, Rect::new(0, 0, um(10), um(2))).with_net(sig));
        obj.push(Shape::new(m1, Rect::new(0, um(5), um(10), um(7))).with_net(vdd));
        let e = Extractor::new(&t);
        let flat = e.weighted_cap_af(&obj, |_| 1.0);
        let weighted = e.weighted_cap_af(&obj, |n| if n == Some("sig") { 10.0 } else { 1.0 });
        assert!(weighted > flat);
    }

    #[test]
    fn rect_cap_helper_matches_extractor() {
        let t = GenCtx::from_tech(&Tech::bicmos_1u());
        let m1 = t.layer("metal1").unwrap();
        let r = Rect::new(0, 0, um(4), um(2));
        let mut obj = LayoutObject::new("x");
        obj.push(Shape::new(m1, r));
        let via_extractor = Extractor::new(&t).parasitics(&obj)[0].cap_af;
        assert!((rect_cap_af(&t, m1, r) - via_extractor).abs() < 1e-9);
    }

    #[test]
    fn cut_layers_contribute_no_cap() {
        let t = GenCtx::from_tech(&Tech::bicmos_1u());
        let ct = t.layer("contact").unwrap();
        assert_eq!(rect_cap_af(&t, ct, Rect::new(0, 0, 1_000, 1_000)), 0.0);
    }
}
