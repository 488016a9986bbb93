//! Mask layers and their electrical roles.

/// A handle to a layer of a technology ([`crate::RuleSet`]).
///
/// Layers are cheap copyable indices; all rule lookups go through the
/// owning rule kernel. Handles from different technologies must not be
/// mixed (rule queries would silently use the wrong table); the kernel
/// therefore brands each handle with its technology id, which copies of
/// the kernel share, and every lookup panics on a mismatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Layer {
    pub(crate) tech_id: u32,
    pub(crate) index: u16,
}

impl Layer {
    /// The index of this layer within its technology's layer table.
    #[inline]
    pub fn index(self) -> usize {
        self.index as usize
    }
}

/// The electrical/process role of a layer.
///
/// The role drives defaults: cut layers get a fixed square size, conductor
/// layers take part in connectivity and parasitic extraction, implants and
/// wells are non-conducting decoration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Diffusion / active area (conducting, forms MOS source/drain).
    Diffusion,
    /// Polysilicon (conducting, forms MOS gates).
    Poly,
    /// A metal routing layer (conducting).
    Metal,
    /// A cut layer: contact or via (connects two conductor layers).
    Cut,
    /// A dopant implant (non-conducting decoration).
    Implant,
    /// A well or tub.
    Well,
    /// Buried layer / subcollector (bipolar).
    Buried,
    /// Anything else (text, boundary, ...).
    Other,
}

impl LayerKind {
    /// True for layers that carry signal (take part in connectivity).
    pub fn is_conductor(self) -> bool {
        matches!(
            self,
            LayerKind::Diffusion | LayerKind::Poly | LayerKind::Metal | LayerKind::Buried
        )
    }

    /// True for contact/via layers.
    pub fn is_cut(self) -> bool {
        matches!(self, LayerKind::Cut)
    }

    /// Parses the kind keyword used in tech files.
    pub fn parse(s: &str) -> Option<LayerKind> {
        match s {
            "diffusion" | "diff" => Some(LayerKind::Diffusion),
            "poly" => Some(LayerKind::Poly),
            "metal" => Some(LayerKind::Metal),
            "cut" | "contact" | "via" => Some(LayerKind::Cut),
            "implant" => Some(LayerKind::Implant),
            "well" => Some(LayerKind::Well),
            "buried" => Some(LayerKind::Buried),
            "other" => Some(LayerKind::Other),
            _ => None,
        }
    }

    /// The canonical tech-file keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            LayerKind::Diffusion => "diffusion",
            LayerKind::Poly => "poly",
            LayerKind::Metal => "metal",
            LayerKind::Cut => "cut",
            LayerKind::Implant => "implant",
            LayerKind::Well => "well",
            LayerKind::Buried => "buried",
            LayerKind::Other => "other",
        }
    }
}

/// Static information about one layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerInfo {
    /// Name used by the layout description language (e.g. `"metal1"`).
    pub name: String,
    /// Electrical role.
    pub kind: LayerKind,
    /// GDSII layer number for export.
    pub gds_layer: i16,
    /// GDSII datatype for export.
    pub gds_datatype: i16,
}

impl LayerInfo {
    /// Creates layer info with datatype 0.
    pub fn new(name: impl Into<String>, kind: LayerKind, gds_layer: i16) -> LayerInfo {
        LayerInfo {
            name: name.into(),
            kind,
            gds_layer,
            gds_datatype: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_classification() {
        assert!(LayerKind::Metal.is_conductor());
        assert!(LayerKind::Poly.is_conductor());
        assert!(LayerKind::Buried.is_conductor());
        assert!(!LayerKind::Cut.is_conductor());
        assert!(!LayerKind::Well.is_conductor());
        assert!(LayerKind::Cut.is_cut());
        assert!(!LayerKind::Metal.is_cut());
    }

    #[test]
    fn kind_keyword_round_trip() {
        for k in [
            LayerKind::Diffusion,
            LayerKind::Poly,
            LayerKind::Metal,
            LayerKind::Cut,
            LayerKind::Implant,
            LayerKind::Well,
            LayerKind::Buried,
            LayerKind::Other,
        ] {
            assert_eq!(LayerKind::parse(k.keyword()), Some(k));
        }
        assert_eq!(LayerKind::parse("plutonium"), None);
    }

    #[test]
    fn layer_info_construction() {
        let li = LayerInfo::new("metal1", LayerKind::Metal, 20);
        assert_eq!(li.name, "metal1");
        assert_eq!(li.gds_layer, 20);
        assert_eq!(li.gds_datatype, 0);
    }
}
