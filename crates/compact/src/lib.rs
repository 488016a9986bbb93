//! The successive compactor (§2.3 of the paper).
//!
//! *"Complex modules are constructed by compacting either geometric
//! primitives or hierarchically built objects to an existing structure.
//! In contrast to general compaction approaches, the compaction is done
//! successively by involving only one new object in each step."*
//!
//! [`Compactor::compact`] slides a [`LayoutObject`](amgen_db::LayoutObject) toward the growing
//! main structure from the given **attachment side** until the design
//! rules stop it, then folds it in. The features of the paper:
//!
//! * **Minimum-distance abutment** — every shape pair contributes a
//!   one-sided constraint derived from the spacing rules; the binding
//!   constraint places the object.
//! * **Same-potential merging** (Fig. 5a) — shape pairs on the same layer
//!   and potential are *"not considered during compaction, because they
//!   can be merged"*: the object stops at touch and the geometry connects.
//! * **Irrelevant layers** — the per-step ignore list
//!   ([`CompactOptions::ignore`]); shapes on these layers impose no
//!   constraints and are *"connected automatically after the compaction if
//!   they are on the same potential"* (bridging).
//! * **Variable edges** (Fig. 5b) — when the binding constraint involves a
//!   variable edge, the compactor moves it inward until a fixed edge
//!   binds, and **rebuilds** affected groups (contact arrays are
//!   recalculated).
//! * **Overlap keepouts** — `Shape::keepout` forbids overlap where the
//!   rules would allow it (parasitic-capacitance avoidance).
//!
//! # Direction convention
//!
//! The paper writes `compact(diffcon, WEST, "pdiff")`. Here the direction
//! names the **side of the main structure where the object attaches**: the
//! object approaches from the `WEST` and slides east until it rests against
//! the structure. This convention reproduces the paper's five-step MOS
//! differential pair (Figs. 6–7): three `WEST` steps yield
//! `contact row | gate | contact row | gate | contact row`.
//!
//! # Example
//!
//! ```
//! use amgen_compact::{CompactOptions, Compactor};
//! use amgen_core::GenCtx;
//! use amgen_db::{LayoutObject, Shape};
//! use amgen_geom::{Dir, Rect};
//! use amgen_tech::Tech;
//!
//! let tech = GenCtx::from_tech(&Tech::bicmos_1u());
//! let poly = tech.layer("poly").unwrap();
//! let c = Compactor::new(&tech);
//!
//! let mut main = LayoutObject::new("main");
//! let mut stripe = LayoutObject::new("stripe");
//! stripe.push(Shape::new(poly, Rect::new(0, 0, 1_000, 10_000)));
//!
//! c.compact(&mut main, &stripe, Dir::West, &CompactOptions::default()).unwrap();
//! c.compact(&mut main, &stripe, Dir::West, &CompactOptions::default()).unwrap();
//! // The second stripe sits exactly one poly-poly spacing west of the first.
//! let s = tech.min_spacing(poly, poly).unwrap();
//! assert_eq!(main.bbox().width(), 1_000 + s + 1_000);
//! ```

pub mod engine;
pub mod options;
pub mod rebuild;

pub use engine::{CompactError, CompactReport, Compactor};
pub use options::CompactOptions;
