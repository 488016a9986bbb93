//! Building a technology: the staged rule deck and its lowering into the
//! compiled rule kernel.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};

use crate::error::TechError;
use crate::layer::{Layer, LayerInfo, LayerKind};
use crate::ruleset::{QueryCounter, RuleSet, KNOWN_NAMES, NO_SPACE_RULE};

/// Coordinate type re-declared locally (1 du = 1 nm) to keep this crate
/// free of a geometry dependency; it matches `amgen_geom::Coord`.
pub type Coord = i64;

static NEXT_TECH_ID: AtomicU32 = AtomicU32::new(1);

/// Parasitic capacitance coefficients of a conductor layer.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CapCoeffs {
    /// Area capacitance to substrate, in aF/µm².
    pub area_af_per_um2: f64,
    /// Fringe (perimeter) capacitance, in aF/µm.
    pub fringe_af_per_um: f64,
}

/// A process technology: layers plus the design-rule tables.
///
/// This is the compiled [`RuleSet`] under the name the rest of the
/// environment builds and passes decks by, so every rule query has one
/// implementation.
pub type Tech = RuleSet;

/// Incremental constructor for a [`Tech`]: stages rule statements keyed
/// by layer, then [`TechBuilder::build`] validates the deck and lowers it
/// into the dense kernel.
#[derive(Debug, Default)]
pub struct TechBuilder {
    name: String,
    grid: Coord,
    latchup_distance: Coord,
    layers: Vec<LayerInfo>,
    by_name: HashMap<String, u16>,
    min_width: Vec<Coord>,
    /// Symmetric: `space a b` stages both `(a, b)` and `(b, a)`.
    min_space: HashMap<(u16, u16), Coord>,
    enclosure: HashMap<(u16, u16), Coord>,
    extension: HashMap<(u16, u16), Coord>,
    cut_size: Vec<Option<Coord>>,
    connections: Vec<(u16, u16, u16)>,
    cap: Vec<CapCoeffs>,
    sheet_res_mohm: Vec<Option<i64>>,
    min_area_um2: Vec<f64>,
}

impl RuleSet {
    /// Starts building a technology with the given name.
    pub fn builder(name: impl Into<String>) -> TechBuilder {
        TechBuilder {
            name: name.into(),
            grid: 1,
            ..TechBuilder::default()
        }
    }
}

impl TechBuilder {
    /// Sets the manufacturing grid (du); [`TechBuilder::build`] rejects a
    /// grid below 1.
    pub fn grid(mut self, g: Coord) -> TechBuilder {
        self.grid = g;
        self
    }

    /// Sets the latch-up coverage distance (du); [`TechBuilder::build`]
    /// rejects a negative one.
    pub fn latchup_distance(mut self, d: Coord) -> TechBuilder {
        self.latchup_distance = d;
        self
    }

    /// Declares a layer; errors on duplicates.
    pub fn layer(
        mut self,
        name: &str,
        kind: LayerKind,
        gds_layer: i16,
    ) -> Result<TechBuilder, TechError> {
        if self.by_name.contains_key(name) {
            return Err(TechError::DuplicateLayer(name.to_string()));
        }
        let index = self.layers.len() as u16;
        self.layers.push(LayerInfo::new(name, kind, gds_layer));
        self.by_name.insert(name.to_string(), index);
        self.min_width.push(0);
        self.cut_size.push(None);
        self.cap.push(CapCoeffs::default());
        self.sheet_res_mohm.push(None);
        self.min_area_um2.push(0.0);
        Ok(self)
    }

    fn idx(&self, name: &str) -> Result<u16, TechError> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| TechError::UnknownLayer(name.to_string()))
    }

    fn positive(rule: &str, v: Coord) -> Result<Coord, TechError> {
        if v < 0 {
            Err(TechError::InvalidValue {
                rule: rule.to_string(),
                value: v,
            })
        } else {
            Ok(v)
        }
    }

    /// Sets a minimum width rule.
    pub fn width(mut self, layer: &str, w: Coord) -> Result<TechBuilder, TechError> {
        let i = self.idx(layer)?;
        self.min_width[i as usize] = Self::positive(&format!("width {layer}"), w)?;
        Ok(self)
    }

    /// Sets a (symmetric) minimum spacing rule between two layers.
    pub fn space(mut self, a: &str, b: &str, s: Coord) -> Result<TechBuilder, TechError> {
        let (ia, ib) = (self.idx(a)?, self.idx(b)?);
        let s = Self::positive(&format!("space {a} {b}"), s)?;
        self.min_space.insert((ia, ib), s);
        self.min_space.insert((ib, ia), s);
        Ok(self)
    }

    /// Sets a required enclosure of `inner` by `outer`.
    pub fn enclose(mut self, outer: &str, inner: &str, e: Coord) -> Result<TechBuilder, TechError> {
        let (io, ii) = (self.idx(outer)?, self.idx(inner)?);
        let e = Self::positive(&format!("enclose {outer} {inner}"), e)?;
        self.enclosure.insert((io, ii), e);
        Ok(self)
    }

    /// Sets a required extension of `a` beyond `b`.
    pub fn extend(mut self, a: &str, b: &str, e: Coord) -> Result<TechBuilder, TechError> {
        let (ia, ib) = (self.idx(a)?, self.idx(b)?);
        let e = Self::positive(&format!("extend {a} {b}"), e)?;
        self.extension.insert((ia, ib), e);
        Ok(self)
    }

    /// Sets the fixed square size of a cut layer.
    pub fn cut_size(mut self, layer: &str, s: Coord) -> Result<TechBuilder, TechError> {
        let i = self.idx(layer)?;
        if s <= 0 {
            return Err(TechError::InvalidValue {
                rule: format!("cutsize {layer}"),
                value: s,
            });
        }
        self.cut_size[i as usize] = Some(s);
        Ok(self)
    }

    /// Declares that `cut` connects conductors `a` and `b`.
    pub fn connect(mut self, cut: &str, a: &str, b: &str) -> Result<TechBuilder, TechError> {
        let (ic, ia, ib) = (self.idx(cut)?, self.idx(a)?, self.idx(b)?);
        self.connections.push((ic, ia, ib));
        Ok(self)
    }

    /// Sets capacitance coefficients (aF/µm², aF/µm).
    pub fn cap(mut self, layer: &str, area: f64, fringe: f64) -> Result<TechBuilder, TechError> {
        let i = self.idx(layer)?;
        self.cap[i as usize] = CapCoeffs {
            area_af_per_um2: area,
            fringe_af_per_um: fringe,
        };
        Ok(self)
    }

    /// Sets sheet resistance in mΩ/□.
    pub fn sheet_res(mut self, layer: &str, mohm: i64) -> Result<TechBuilder, TechError> {
        let i = self.idx(layer)?;
        self.sheet_res_mohm[i as usize] = Some(mohm);
        Ok(self)
    }

    /// Sets a minimum-area rule in µm².
    pub fn min_area(mut self, layer: &str, um2: f64) -> Result<TechBuilder, TechError> {
        let i = self.idx(layer)?;
        if um2.is_nan() || um2 < 0.0 {
            return Err(TechError::InvalidValue {
                rule: format!("minarea {layer}"),
                value: um2 as i64,
            });
        }
        self.min_area_um2[i as usize] = um2;
        Ok(self)
    }

    /// Mutable access to the most recently declared layer (tech-file
    /// parser support).
    pub(crate) fn last_layer_mut(&mut self) -> Option<&mut LayerInfo> {
        self.layers.last_mut()
    }

    /// Validates the deck and lowers it into the dense kernel.
    ///
    /// The grid must be at least 1 and the latch-up distance must not be
    /// negative; every cut layer must have a cut size, and every
    /// connection's cut must actually be a cut layer joining two
    /// conductors.
    pub fn build(self) -> Result<Tech, TechError> {
        for (rule, value, min) in [
            ("grid", self.grid, 1),
            ("latchup", self.latchup_distance, 0),
        ] {
            if value < min {
                return Err(TechError::InvalidValue {
                    rule: rule.to_string(),
                    value,
                });
            }
        }
        let name = |i: u16| &self.layers[i as usize].name;
        for (i, info) in self.layers.iter().enumerate() {
            if info.kind.is_cut() && self.cut_size[i].is_none() {
                return Err(TechError::MissingRule(format!("cutsize {}", info.name)));
            }
        }
        for &(c, a, b) in &self.connections {
            if !self.layers[c as usize].kind.is_cut() {
                return Err(TechError::InvalidValue {
                    rule: format!("connect {}", name(c)),
                    value: c as i64,
                });
            }
            for side in [a, b] {
                if !self.layers[side as usize].kind.is_conductor() {
                    return Err(TechError::InvalidValue {
                        rule: format!("connect {} {} {}", name(c), name(a), name(b)),
                        value: side as i64,
                    });
                }
            }
        }

        let n = self.layers.len();
        let id = NEXT_TECH_ID.fetch_add(1, Ordering::Relaxed);
        let at = |index: u16| Layer { tech_id: id, index };
        let dense = |rules: &HashMap<(u16, u16), Coord>, unset: Coord| {
            let mut table = vec![unset; n * n];
            for (&(a, b), &v) in rules {
                table[a as usize * n + b as usize] = v;
            }
            table
        };
        let mut cut_pairs = vec![Vec::new(); n];
        for &(c, a, b) in &self.connections {
            cut_pairs[c as usize].push((at(a), at(b)));
        }
        Ok(RuleSet {
            tech_id: id,
            grid: self.grid,
            latchup_distance: self.latchup_distance,
            n,
            space: dense(&self.min_space, NO_SPACE_RULE),
            enclosure: dense(&self.enclosure, 0),
            extension: dense(&self.extension, 0),
            connections: self
                .connections
                .iter()
                .map(|&(c, a, b)| (at(c), at(a), at(b)))
                .collect(),
            cut_pairs,
            known: KNOWN_NAMES.map(|name| self.by_name.get(name).map(|&i| at(i))),
            name: self.name,
            infos: self.layers,
            by_name: self.by_name,
            min_width: self.min_width,
            cut_size: self.cut_size,
            cap: self.cap,
            sheet_res_mohm: self.sheet_res_mohm,
            min_area_um2: self.min_area_um2,
            queries: QueryCounter::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Tech {
        Tech::builder("tiny")
            .grid(10)
            .latchup_distance(5_000)
            .layer("poly", LayerKind::Poly, 10)
            .unwrap()
            .layer("metal1", LayerKind::Metal, 20)
            .unwrap()
            .layer("contact", LayerKind::Cut, 15)
            .unwrap()
            .width("poly", 1_000)
            .unwrap()
            .space("poly", "poly", 1_500)
            .unwrap()
            .space("poly", "metal1", 0)
            .unwrap()
            .enclose("metal1", "contact", 500)
            .unwrap()
            .cut_size("contact", 1_000)
            .unwrap()
            .connect("contact", "poly", "metal1")
            .unwrap()
            .cap("metal1", 30.0, 80.0)
            .unwrap()
            .sheet_res("poly", 25_000)
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn lookups() {
        let t = tiny();
        let poly = t.layer("poly").unwrap();
        let m1 = t.layer("metal1").unwrap();
        let ct = t.layer("contact").unwrap();
        assert_eq!(t.min_width(poly), 1_000);
        assert_eq!(t.min_spacing(poly, poly), Some(1_500));
        assert_eq!(t.min_spacing(poly, m1), Some(0));
        assert_eq!(t.min_spacing(m1, ct), None);
        assert_eq!(t.clearance(m1, ct), 0);
        assert_eq!(t.enclosure(m1, ct), 500);
        assert_eq!(t.enclosure(ct, m1), 0, "enclosure is directional");
        assert_eq!(t.cut_size(ct).unwrap(), 1_000);
        assert!(t.connects(ct, poly, m1));
        assert!(t.connects(ct, m1, poly), "connection is symmetric");
        assert_eq!(t.cap_coeffs(m1).area_af_per_um2, 30.0);
        assert_eq!(t.sheet_res_mohm(poly), Some(25_000));
        assert_eq!(t.sheet_res_mohm(m1), None);
    }

    #[test]
    fn unknown_layer_is_an_error() {
        let t = tiny();
        assert!(matches!(t.layer("metal9"), Err(TechError::UnknownLayer(_))));
    }

    #[test]
    fn duplicate_layer_rejected() {
        let r = Tech::builder("x")
            .layer("poly", LayerKind::Poly, 1)
            .unwrap()
            .layer("poly", LayerKind::Poly, 2);
        assert!(matches!(r, Err(TechError::DuplicateLayer(_))));
    }

    #[test]
    fn cut_layer_requires_cut_size() {
        let r = Tech::builder("x")
            .layer("contact", LayerKind::Cut, 1)
            .unwrap()
            .build();
        assert!(matches!(r, Err(TechError::MissingRule(_))));
    }

    #[test]
    fn connect_through_non_cut_rejected() {
        let r = Tech::builder("x")
            .layer("poly", LayerKind::Poly, 1)
            .unwrap()
            .layer("metal1", LayerKind::Metal, 2)
            .unwrap()
            .connect("poly", "poly", "metal1")
            .unwrap()
            .build();
        assert!(matches!(r, Err(TechError::InvalidValue { .. })));
    }

    #[test]
    fn negative_rule_value_rejected() {
        let r = Tech::builder("x")
            .layer("poly", LayerKind::Poly, 1)
            .unwrap()
            .width("poly", -5);
        assert!(matches!(r, Err(TechError::InvalidValue { .. })));
    }

    #[test]
    fn grid_snapping() {
        let t = tiny();
        assert_eq!(t.snap_down(1_234), 1_230);
        assert_eq!(t.snap_up(1_234), 1_240);
        assert_eq!(t.snap_down(-15), -20);
        assert_eq!(t.snap_up(-15), -10);
        assert_eq!(t.snap_up(1_240), 1_240);
    }

    #[test]
    #[should_panic(expected = "layer handle from technology")]
    fn cross_tech_handle_panics() {
        let t1 = tiny();
        let t2 = tiny();
        let foreign = t2.layer("poly").unwrap();
        let _ = t1.min_width(foreign);
    }

    #[test]
    fn layers_iterator_visits_all() {
        let t = tiny();
        let names: Vec<&str> = t.layers().map(|l| t.layer_name(l)).collect();
        assert_eq!(names, ["poly", "metal1", "contact"]);
    }
}
