//! Connectivity extraction and parasitic estimation.
//!
//! The paper's optimizer rates layouts by *"the area and electrical
//! conditions"*, and the amplifier's quality is judged by *"parasitic
//! capacitances of the internal nodes"*. This crate supplies those
//! numbers:
//!
//! * [`Extractor::connectivity`] — groups shapes into electrical nets by
//!   geometric contact (same-layer touch/overlap) and through cut layers,
//!   and cross-checks the result against the declared potentials,
//! * [`Extractor::parasitics`] — per-net capacitance from the technology's
//!   area/fringe coefficients over the **merged** geometry (overlaps
//!   counted once) and a series wire-resistance estimate from sheet
//!   resistances.
//!
//! # Example
//!
//! ```
//! use amgen_core::GenCtx;
//! use amgen_db::{LayoutObject, Shape};
//! use amgen_extract::Extractor;
//! use amgen_geom::Rect;
//! use amgen_tech::Tech;
//!
//! let tech = GenCtx::from_tech(&Tech::bicmos_1u());
//! let m1 = tech.layer("metal1").unwrap();
//! let mut obj = LayoutObject::new("wire");
//! let net = obj.net("sig");
//! obj.push(Shape::new(m1, Rect::new(0, 0, 10_000, 1_500)).with_net(net));
//! let nets = Extractor::new(&tech).parasitics(&obj);
//! assert_eq!(nets.len(), 1);
//! assert!(nets[0].cap_af > 0.0);
//! ```

pub mod connectivity;
pub mod parasitics;

pub use connectivity::{ExtractedNet, Extractor};
pub use parasitics::NetParasitics;
