//! Design-rule checker for generated modules.
//!
//! The paper's environment *"evaluates and fulfills the design rules
//! automatically. If a rule cannot be fulfilled an error message
//! occurs."* This crate is the independent referee: it re-checks finished
//! layouts against the technology so that tests can assert the generators
//! and the compactor never produce rule violations.
//!
//! Checks implemented:
//!
//! * **Width** — every shape meets its layer's minimum width; cut shapes
//!   are exactly the cut size.
//! * **Spacing** — Manhattan spacing between disconnected shapes meets the
//!   pair's rule; same-layer overlaps of *different* potentials are
//!   reported as shorts.
//! * **Enclosure** — every cut is fully enclosed, with the rule margin, by
//!   both conductor layers of one of its connectable pairs (unions of
//!   same-layer shapes count, so rows of abutting rectangles are fine).
//! * **Latch-up** (Fig. 1 of the paper) — the temporary rectangles around
//!   all substrate contacts must jointly cover every MOS active area; the
//!   check is the rectangle-cover subtraction with the 16 overlap cases.
//!
//! # Example
//!
//! ```
//! use amgen_core::GenCtx;
//! use amgen_db::{LayoutObject, Shape};
//! use amgen_drc::Drc;
//! use amgen_geom::Rect;
//! use amgen_tech::Tech;
//!
//! let tech = GenCtx::from_tech(&Tech::bicmos_1u());
//! let poly = tech.layer("poly").unwrap();
//! let mut obj = LayoutObject::new("bad");
//! obj.push(Shape::new(poly, Rect::new(0, 0, 400, 5_000))); // too narrow
//! let report = Drc::new(&tech).check(&obj);
//! assert_eq!(report.len(), 1);
//! ```

pub mod checks;
pub mod latchup;
pub mod violation;

pub use checks::Drc;
pub use violation::{Violation, ViolationKind};
