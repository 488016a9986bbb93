//! Layout database for the analog module generator environment.
//!
//! The data model follows the paper closely:
//!
//! * The database is **rectangle-only** — every [`Shape`] is one rectangle
//!   on one layer.
//! * *"Each geometry contains special properties that define if its edges
//!   are fixed or variable for moving inwards or outwards"* — captured by
//!   [`EdgeFlags`] on every shape; the compactor may move variable edges
//!   to densify the layout (Fig. 5b).
//! * Shapes carry an optional **potential** ([`NetId`]): *"edges on the
//!   same potential are not considered during compaction, because they can
//!   be merged"* — the auto-connect feature of Fig. 5a.
//! * A *"special property for every rectangle can avoid undesired overlaps
//!   (parasitic capacitances)"* — [`Shape::keepout`].
//! * [`LayoutObject`] is the unit the compactor abuts: a named bag of
//!   shapes plus named [`Port`]s for wiring, [`Group`]s that remember how
//!   to **rebuild** generated sub-structures (the recalculated contact
//!   array of Fig. 5b), and a local net table.
//!
//! # Example
//!
//! ```
//! use amgen_db::{LayoutObject, Shape};
//! use amgen_geom::Rect;
//! use amgen_tech::Tech;
//!
//! let tech = Tech::bicmos_1u();
//! let poly = tech.layer("poly").unwrap();
//! let mut obj = LayoutObject::new("gate");
//! let net = obj.net("g");
//! obj.push(Shape::new(poly, Rect::new(0, 0, 1_000, 5_000)).with_net(net));
//! assert_eq!(obj.bbox().width(), 1_000);
//! ```

pub mod components;
pub mod object;
pub mod shape;
pub mod signature;
pub mod spatial;

pub use components::{Components, DisjointSets};
pub use object::{Group, GroupId, LayoutObject, Port, RebuildKind};
pub use shape::{EdgeFlags, NetId, Shape, ShapeRole};
pub use signature::LayoutSignature;
pub use spatial::{PlanPairs, SpatialIndex};
