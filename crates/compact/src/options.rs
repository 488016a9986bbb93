//! Per-step compaction options.

use amgen_geom::Coord;
use amgen_tech::Layer;

/// Options for one [`crate::Compactor::compact`] step.
#[derive(Debug, Clone)]
pub struct CompactOptions {
    /// Layers that are *"not relevant during this compaction step"* —
    /// shapes on them impose no constraints, and same-potential geometry
    /// on them is auto-connected after placement (the third argument of
    /// the paper's `compact()`).
    pub ignore: Vec<Layer>,

    /// Additional clearance added on top of every spacing rule.
    pub extra_clearance: Coord,

    /// Enables variable-edge shrinking (Fig. 5b). On by default.
    pub variable_edges: bool,
}

impl Default for CompactOptions {
    fn default() -> CompactOptions {
        CompactOptions::new()
    }
}

impl CompactOptions {
    /// Default options: no ignored layers, variable edges enabled.
    pub fn new() -> CompactOptions {
        CompactOptions {
            ignore: Vec::new(),
            extra_clearance: 0,
            variable_edges: true,
        }
    }

    /// Adds an ignored layer.
    #[must_use]
    pub fn ignoring(mut self, layer: Layer) -> CompactOptions {
        self.ignore.push(layer);
        self
    }

    /// Sets the extra clearance.
    #[must_use]
    pub fn with_extra_clearance(mut self, c: Coord) -> CompactOptions {
        self.extra_clearance = c;
        self
    }

    /// Disables variable-edge shrinking (used by the Fig. 5 ablation).
    #[must_use]
    pub fn without_variable_edges(mut self) -> CompactOptions {
        self.variable_edges = false;
        self
    }

    /// True if the layer is on the ignore list.
    pub fn is_ignored(&self, layer: Layer) -> bool {
        self.ignore.contains(&layer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amgen_tech::Tech;

    #[test]
    fn default_is_empty_with_variable_edges() {
        let o = CompactOptions::default();
        assert!(o.ignore.is_empty());
        assert!(o.variable_edges);
        assert_eq!(o.extra_clearance, 0);
    }

    #[test]
    fn builder_methods() {
        let t = Tech::bicmos_1u();
        let poly = t.layer("poly").unwrap();
        let m1 = t.layer("metal1").unwrap();
        let o = CompactOptions::new()
            .ignoring(poly)
            .with_extra_clearance(100)
            .without_variable_edges();
        assert!(o.is_ignored(poly));
        assert!(!o.is_ignored(m1));
        assert_eq!(o.extra_clearance, 100);
        assert!(!o.variable_edges);
    }
}
