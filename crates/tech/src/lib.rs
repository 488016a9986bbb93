//! Technology description for the analog module generator environment.
//!
//! The paper stores all design rules in a *technology description file* so
//! that modules written in the layout description language stay
//! technology-independent: *"the design rules are stored in a technology
//! description file"* and *"the implemented language interpreter evaluates
//! and fulfills the design rules automatically"*.
//!
//! This crate provides:
//!
//! * [`Layer`] / [`LayerKind`] — mask layers with their electrical role,
//! * [`Tech`] — the rule database, the same type as the dense [`RuleSet`]
//!   kernel every stage queries: minimum widths, intra- and inter-layer
//!   spacings, enclosures, extensions, cut sizes, connectivity through cut
//!   layers, parasitic coefficients and the latch-up coverage distance,
//!   lowered into flat tables once by
//!   [`TechBuilder::build`](tech::TechBuilder::build),
//! * a tiny line-oriented **tech-file format** ([`Tech::parse`] /
//!   [`Tech::to_tech_file`]) so decks are human-diffable like the paper's,
//! * two built-in decks: [`Tech::bicmos_1u`], a synthetic 1 µm BiCMOS
//!   process standing in for the proprietary Siemens process of the
//!   paper's §3, and [`Tech::cmos_08`], a plain 0.8 µm CMOS deck used to
//!   demonstrate technology independence.
//!
//! # Example
//!
//! ```
//! use amgen_tech::Tech;
//!
//! let tech = Tech::bicmos_1u();
//! let poly = tech.layer("poly").unwrap();
//! let contact = tech.layer("contact").unwrap();
//! let metal1 = tech.layer("metal1").unwrap();
//! assert!(tech.min_width(poly) > 0);
//! // A contact inside metal1 needs an enclosure on every side:
//! assert!(tech.enclosure(metal1, contact) > 0);
//! // Contacts connect poly to metal1:
//! assert!(tech.connects(contact, poly, metal1));
//! ```

pub mod builtin;
pub mod error;
pub mod file;
pub mod layer;
pub mod ruleset;
pub mod tech;

pub use error::TechError;
pub use layer::{Layer, LayerInfo, LayerKind};
pub use ruleset::RuleSet;
pub use tech::{CapCoeffs, Tech};
