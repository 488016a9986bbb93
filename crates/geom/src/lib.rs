//! Integer geometry kernel for the analog module generator environment.
//!
//! All coordinates are integers in **database units** (1 du = 1 nanometre),
//! mirroring the rectangle-only data model of Wolf/Kleine/Hosticka
//! (DATE 1996): *"To keep the layout data structure efficient, polygons are
//! converted into simple rectangular structures."*
//!
//! The crate provides:
//!
//! * [`Coord`], [`Point`] and [`Vector`] — scalar and planar primitives,
//! * [`Rect`] — closed axis-aligned rectangles with the full algebra the
//!   paper relies on: intersection, containment, inflation and the
//!   **16-case subtraction** used by the latch-up rule check (Fig. 1),
//! * [`Region`] — a set of rectangles with cover tests and exact area
//!   bookkeeping,
//! * [`RectTree`] — a bulk-loaded packed R-tree for deterministic window
//!   queries, the engine behind the database's spatial index,
//! * [`Dir`] / [`Axis`] — the four compaction directions of the successive
//!   compactor,
//! * [`Interval`] — one-dimensional interval arithmetic used by the
//!   compaction constraint scan,
//! * [`Orient`] — the eight Manhattan orientations used for mirrored and
//!   common-centroid device placement,
//! * [`poly`] — decomposition of rectilinear polygons into rectangles.
//!
//! # Example
//!
//! ```
//! use amgen_geom::{Rect, Region};
//!
//! // Fig. 1 of the paper: a temporary rectangle around a substrate contact
//! // must, together with its peers, cover every active area.
//! let active = Rect::new(0, 0, 10_000, 4_000);
//! let temp_a = Rect::new(-2_000, -2_000, 6_000, 6_000);
//! let temp_b = Rect::new(4_000, -2_000, 12_000, 6_000);
//! let mut remaining = Region::from_rect(active);
//! remaining.subtract_rect(temp_a);
//! remaining.subtract_rect(temp_b);
//! assert!(remaining.is_empty(), "latch-up rule fulfilled");
//! ```

pub mod coord;
pub mod interval;
pub mod orient;
pub mod point;
pub mod poly;
pub mod rect;
pub mod region;
pub mod rtree;

pub use coord::{nm, um, Axis, Coord, Dir};
pub use interval::Interval;
pub use orient::Orient;
pub use point::{Point, Vector};
pub use rect::{HOverlap, Rect, VOverlap};
pub use region::Region;
pub use rtree::{RectTree, YBands};
