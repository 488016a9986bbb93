//! The design-rule kernel: the one store a technology's rules live in.
//!
//! A [`RuleSet`] (also named [`Tech`](crate::Tech)) holds every rule of
//! a deck in dense `n_layers × n_layers` tables and flat per-layer
//! arrays, so every query is a bounds-checked array index — no hashing,
//! no string comparison, no allocation — in the innermost loops of the
//! generator, where every primitive placement and compaction probe asks
//! for a spacing or an enclosure.
//! [`TechBuilder::build`](crate::tech::TechBuilder::build) lowers a staged
//! deck into these tables once.
//!
//! Every [`Layer`] handle is branded with the id of the kernel that made
//! it; copies ([`Clone`], [`RuleSet::compile_arc`]) keep the id, so their
//! handles interchange, while a handle from a different technology panics.
//!
//! The kernel also interns the *well-known* layer names the module
//! library relies on (`poly`, `metal1`, `contact`, ...) when it is built;
//! generators fetch them through accessors like [`RuleSet::poly`] that
//! return a proper [`TechError`] when a deck lacks the layer, instead of
//! resolving strings per call.

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::TechError;
use crate::layer::{Layer, LayerInfo, LayerKind};
use crate::tech::{CapCoeffs, Coord};

/// Sentinel in the dense spacing table for "no rule declared" (the pair
/// is unconstrained and may overlap freely). Distinct from an explicit
/// `space a b 0` rule, which compacts to abutment but forbids nothing.
pub(crate) const NO_SPACE_RULE: Coord = Coord::MIN;

/// The layer names interned at build time for the module library.
pub(crate) const KNOWN_NAMES: [&str; 13] = [
    "poly", "metal1", "metal2", "contact", "via1", "ndiff", "pdiff", "nwell", "nplus", "pplus",
    "base", "emitter", "buried",
];

/// A process technology: layers plus every design rule, compiled into an
/// immutable kernel that every pipeline stage consumes read-only.
///
/// [`Tech`](crate::Tech) names the same type. Build one with
/// [`RuleSet::builder`], [`RuleSet::parse`] (tech-file text) or use the
/// built-in decks [`RuleSet::bicmos_1u`] / [`RuleSet::cmos_08`]; share it
/// with [`RuleSet::compile_arc`]. All pair rules live in dense `n × n`
/// tables indexed by `a.index() * n + b.index()`; all per-layer rules live
/// in flat arrays.
#[derive(Debug, Clone)]
pub struct RuleSet {
    pub(crate) tech_id: u32,
    pub(crate) name: String,
    pub(crate) grid: Coord,
    pub(crate) latchup_distance: Coord,
    pub(crate) n: usize,
    pub(crate) infos: Vec<LayerInfo>,
    /// Name → index, used only by the front ends (dsl binding, tests).
    pub(crate) by_name: HashMap<String, u16>,
    pub(crate) min_width: Vec<Coord>,
    /// Symmetric; both `(a,b)` and `(b,a)` entries are filled.
    pub(crate) space: Vec<Coord>,
    /// Directional: `enclosure[outer * n + inner]`.
    pub(crate) enclosure: Vec<Coord>,
    /// Directional: `extension[a * n + b]`.
    pub(crate) extension: Vec<Coord>,
    pub(crate) cut_size: Vec<Option<Coord>>,
    pub(crate) cap: Vec<CapCoeffs>,
    pub(crate) sheet_res_mohm: Vec<Option<i64>>,
    pub(crate) min_area_um2: Vec<f64>,
    /// All declared `(cut, a, b)` connections, as resolved handles.
    pub(crate) connections: Vec<(Layer, Layer, Layer)>,
    /// Per-layer slice of conductor pairs connected by that cut layer.
    pub(crate) cut_pairs: Vec<Vec<(Layer, Layer)>>,
    /// Interned well-known handles, in [`KNOWN_NAMES`] order.
    pub(crate) known: [Option<Layer>; KNOWN_NAMES.len()],
}

impl RuleSet {
    /// A shareable copy of this kernel — the form every pipeline stage
    /// holds. The copy keeps the layer-handle brand.
    pub fn compile_arc(&self) -> Arc<RuleSet> {
        Arc::new(self.clone())
    }

    #[inline]
    fn check(&self, l: Layer) -> usize {
        assert_eq!(
            l.tech_id, self.tech_id,
            "layer handle from technology {} used with technology {} ({})",
            l.tech_id, self.tech_id, self.name
        );
        l.index as usize
    }

    /// Technology name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Unique id of this technology (brands [`Layer`] handles; copies
    /// share it).
    pub fn id(&self) -> u32 {
        self.tech_id
    }

    /// Manufacturing grid in du.
    #[inline]
    pub fn grid(&self) -> Coord {
        self.grid
    }

    /// Maximum distance a substrate contact "covers" for the latch-up rule
    /// (the half-size of the temporary rectangles of the paper's Fig. 1).
    #[inline]
    pub fn latchup_distance(&self) -> Coord {
        self.latchup_distance
    }

    /// Looks a layer up by name. Front-end use only (dsl binding,
    /// tech-file tooling, tests); generators hold interned handles.
    pub fn layer(&self, name: &str) -> Result<Layer, TechError> {
        self.by_name
            .get(name)
            .map(|&index| Layer {
                tech_id: self.tech_id,
                index,
            })
            .ok_or_else(|| TechError::UnknownLayer(name.to_string()))
    }

    /// Number of layers.
    #[inline]
    pub fn layer_count(&self) -> usize {
        self.n
    }

    /// Iterates over all layer handles.
    pub fn layers(&self) -> impl Iterator<Item = Layer> + '_ {
        let id = self.tech_id;
        (0..self.n as u16).map(move |index| Layer { tech_id: id, index })
    }

    /// Static info of a layer.
    #[inline]
    pub fn info(&self, l: Layer) -> &LayerInfo {
        &self.infos[self.check(l)]
    }

    /// Layer name.
    #[inline]
    pub fn layer_name(&self, l: Layer) -> &str {
        &self.info(l).name
    }

    /// Layer kind.
    #[inline]
    pub fn kind(&self, l: Layer) -> LayerKind {
        self.info(l).kind
    }

    /// Minimum feature width of a layer (0 when unspecified).
    #[inline]
    pub fn min_width(&self, l: Layer) -> Coord {
        self.min_width[self.check(l)]
    }

    /// Minimum spacing between shapes on `a` and `b`; `None` when the
    /// pair is unconstrained (shapes may overlap freely, e.g. implant
    /// over diffusion).
    #[inline]
    pub fn min_spacing(&self, a: Layer, b: Layer) -> Option<Coord> {
        let s = self.space[self.check(a) * self.n + self.check(b)];
        (s != NO_SPACE_RULE).then_some(s)
    }

    /// Spacing required between *disconnected* shapes on `a` and `b`,
    /// defaulting to 0 when no rule exists (the compactor may abut them).
    #[inline]
    pub fn clearance(&self, a: Layer, b: Layer) -> Coord {
        let s = self.space[self.check(a) * self.n + self.check(b)];
        if s == NO_SPACE_RULE {
            0
        } else {
            s
        }
    }

    /// Required enclosure of `inner` by `outer` on every side (0 when no
    /// rule exists).
    #[inline]
    pub fn enclosure(&self, outer: Layer, inner: Layer) -> Coord {
        self.enclosure[self.check(outer) * self.n + self.check(inner)]
    }

    /// Required extension of `a` beyond `b` (e.g. poly gate past
    /// diffusion); 0 when no rule exists.
    #[inline]
    pub fn extension(&self, a: Layer, b: Layer) -> Coord {
        self.extension[self.check(a) * self.n + self.check(b)]
    }

    /// Fixed square size of a cut layer.
    #[inline]
    pub fn cut_size(&self, l: Layer) -> Result<Coord, TechError> {
        self.cut_size[self.check(l)]
            .ok_or_else(|| TechError::MissingRule(format!("cutsize {}", self.layer_name(l))))
    }

    /// True if cut layer `cut` connects conductors `a` and `b` (in
    /// either order).
    #[inline]
    pub fn connects(&self, cut: Layer, a: Layer, b: Layer) -> bool {
        let (ia, ib) = (self.check(a), self.check(b));
        self.cut_pairs[self.check(cut)].iter().any(|&(x, y)| {
            (x.index as usize == ia && y.index as usize == ib)
                || (x.index as usize == ib && y.index as usize == ia)
        })
    }

    /// The conductor pairs connected by `cut` — a borrowed slice; the
    /// compact/drc inner loops iterate this without allocating.
    #[inline]
    pub fn connected_pairs(&self, cut: Layer) -> &[(Layer, Layer)] {
        &self.cut_pairs[self.check(cut)]
    }

    /// All declared connections `(cut, a, b)`.
    pub fn connections(&self) -> &[(Layer, Layer, Layer)] {
        &self.connections
    }

    /// Parasitic capacitance coefficients of a layer (zero when unset).
    #[inline]
    pub fn cap_coeffs(&self, l: Layer) -> CapCoeffs {
        self.cap[self.check(l)]
    }

    /// Sheet resistance in mΩ/□, if declared.
    #[inline]
    pub fn sheet_res_mohm(&self, l: Layer) -> Option<i64> {
        self.sheet_res_mohm[self.check(l)]
    }

    /// Minimum area of a merged region on this layer, in µm² (0 when no
    /// rule is declared).
    #[inline]
    pub fn min_area_um2(&self, l: Layer) -> f64 {
        self.min_area_um2[self.check(l)]
    }

    /// Snaps a coordinate down to the manufacturing grid.
    #[inline]
    pub fn snap_down(&self, v: Coord) -> Coord {
        v.div_euclid(self.grid) * self.grid
    }

    /// Snaps a coordinate up to the manufacturing grid.
    #[inline]
    pub fn snap_up(&self, v: Coord) -> Coord {
        -self.snap_down(-v)
    }

    // ---- interned well-known layers ------------------------------------

    #[inline]
    fn known(&self, slot: usize) -> Result<Layer, TechError> {
        self.known[slot].ok_or_else(|| TechError::UnknownLayer(KNOWN_NAMES[slot].to_string()))
    }

    /// The interned `poly` layer.
    pub fn poly(&self) -> Result<Layer, TechError> {
        self.known(0)
    }

    /// The interned `metal1` layer.
    pub fn metal1(&self) -> Result<Layer, TechError> {
        self.known(1)
    }

    /// The interned `metal2` layer.
    pub fn metal2(&self) -> Result<Layer, TechError> {
        self.known(2)
    }

    /// The interned `contact` layer.
    pub fn contact(&self) -> Result<Layer, TechError> {
        self.known(3)
    }

    /// The interned `via1` layer.
    pub fn via1(&self) -> Result<Layer, TechError> {
        self.known(4)
    }

    /// The interned `ndiff` layer.
    pub fn ndiff(&self) -> Result<Layer, TechError> {
        self.known(5)
    }

    /// The interned `pdiff` layer.
    pub fn pdiff(&self) -> Result<Layer, TechError> {
        self.known(6)
    }

    /// The interned `nwell` layer.
    pub fn nwell(&self) -> Result<Layer, TechError> {
        self.known(7)
    }

    /// The interned `nplus` implant layer.
    pub fn nplus(&self) -> Result<Layer, TechError> {
        self.known(8)
    }

    /// The interned `pplus` implant layer.
    pub fn pplus(&self) -> Result<Layer, TechError> {
        self.known(9)
    }

    /// The interned bipolar `base` layer.
    pub fn base(&self) -> Result<Layer, TechError> {
        self.known(10)
    }

    /// The interned bipolar `emitter` layer.
    pub fn emitter(&self) -> Result<Layer, TechError> {
        self.known(11)
    }

    /// The interned `buried` (subcollector) layer.
    pub fn buried(&self) -> Result<Layer, TechError> {
        self.known(12)
    }
}

/// Rule equivalence: every dense table element-wise equal, plus the layer
/// roster, grid and latch-up distance. Technology ids are deliberately
/// ignored — two decks parsed from the same text are equal even though
/// their handles don't interchange.
impl PartialEq for RuleSet {
    fn eq(&self, other: &RuleSet) -> bool {
        let pairs_eq = |a: &[(Layer, Layer)], b: &[(Layer, Layer)]| {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|(x, y)| x.0.index == y.0.index && x.1.index == y.1.index)
        };
        self.name == other.name
            && self.grid == other.grid
            && self.latchup_distance == other.latchup_distance
            && self.n == other.n
            && self.infos == other.infos
            && self.min_width == other.min_width
            && self.space == other.space
            && self.enclosure == other.enclosure
            && self.extension == other.extension
            && self.cut_size == other.cut_size
            && self.cap == other.cap
            && self.sheet_res_mohm == other.sheet_res_mohm
            && self.min_area_um2 == other.min_area_um2
            && self
                .cut_pairs
                .iter()
                .zip(&other.cut_pairs)
                .all(|(a, b)| pairs_eq(a, b))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::builtin::{BICMOS_1U, CMOS_08};
    use crate::tech::Tech;

    /// An oracle independent of the builder: every rule statement of a
    /// built-in deck, read with a plain line splitter, reads back through
    /// its kernel query, and every pair or layer without a statement
    /// reads as "no rule".
    #[test]
    fn every_deck_statement_reads_back() {
        for text in [BICMOS_1U, CMOS_08] {
            let t = Tech::parse(text).unwrap();
            let l = |name: &str| t.layer(name).unwrap();
            let int = |v: &str| v.parse::<Coord>().unwrap();
            let float = |v: &str| v.parse::<f64>().unwrap();
            let mut spaced = HashSet::new();
            let mut enclosed = HashSet::new();
            let mut extended = HashSet::new();
            let mut cuts = HashSet::new();
            for line in text.lines() {
                let words: Vec<&str> = line.split('#').next().unwrap().split_whitespace().collect();
                match words[..] {
                    ["width", a, w] => assert_eq!(t.min_width(l(a)), int(w), "{line}"),
                    ["space", a, b, s] => {
                        assert_eq!(t.min_spacing(l(a), l(b)), Some(int(s)), "{line}");
                        assert_eq!(t.min_spacing(l(b), l(a)), Some(int(s)), "{line}");
                        spaced.extend([(a, b), (b, a)]);
                    }
                    ["enclose", o, i, e] => {
                        assert_eq!(t.enclosure(l(o), l(i)), int(e), "{line}");
                        enclosed.insert((o, i));
                    }
                    ["extend", a, b, e] => {
                        assert_eq!(t.extension(l(a), l(b)), int(e), "{line}");
                        extended.insert((a, b));
                    }
                    ["cutsize", c, s] => {
                        assert_eq!(t.cut_size(l(c)), Ok(int(s)), "{line}");
                        cuts.insert(c);
                    }
                    ["connect", c, a, b] => {
                        assert!(t.connects(l(c), l(a), l(b)), "{line}");
                        assert!(t.connects(l(c), l(b), l(a)), "{line}");
                    }
                    ["cap", x, area, fringe] => {
                        let cc = CapCoeffs {
                            area_af_per_um2: float(area),
                            fringe_af_per_um: float(fringe),
                        };
                        assert_eq!(t.cap_coeffs(l(x)), cc, "{line}");
                    }
                    ["sheetres", x, r] => {
                        assert_eq!(t.sheet_res_mohm(l(x)), Some(int(r)), "{line}");
                    }
                    ["minarea", x, a] => assert_eq!(t.min_area_um2(l(x)), float(a), "{line}"),
                    _ => {}
                }
            }
            for a in t.layers() {
                let name = t.layer_name(a);
                for b in t.layers() {
                    let pair = (name, t.layer_name(b));
                    if !spaced.contains(&pair) {
                        assert_eq!(t.min_spacing(a, b), None, "{pair:?}");
                    }
                    if !enclosed.contains(&pair) {
                        assert_eq!(t.enclosure(a, b), 0, "{pair:?}");
                    }
                    if !extended.contains(&pair) {
                        assert_eq!(t.extension(a, b), 0, "{pair:?}");
                    }
                }
                if !cuts.contains(name) {
                    assert!(t.cut_size(a).is_err(), "{name}");
                }
            }
        }
    }

    #[test]
    fn compile_arc_keeps_the_brand() {
        let t = Tech::bicmos_1u();
        let poly = t.layer("poly").unwrap();
        let shared = t.compile_arc();
        assert_eq!(shared.id(), t.id());
        assert_eq!(shared.layer("poly").unwrap(), poly);
        assert_eq!(
            shared.min_width(poly),
            t.min_width(poly),
            "handles interchange"
        );
    }

    #[test]
    fn well_known_layers_are_interned() {
        let r = Tech::bicmos_1u();
        assert_eq!(r.poly().unwrap(), r.layer("poly").unwrap());
        assert_eq!(r.emitter().unwrap(), r.layer("emitter").unwrap());
        let c = Tech::cmos_08();
        assert!(c.base().is_err(), "plain CMOS deck has no bipolar layers");
    }

    #[test]
    fn ruleset_equality_ignores_tech_id() {
        let a = Tech::bicmos_1u();
        let b = Tech::bicmos_1u();
        assert_ne!(a.id(), b.id());
        assert_eq!(a, b);
        let c = Tech::cmos_08();
        assert_ne!(a, c);
    }
}
