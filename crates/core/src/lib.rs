//! # amgen — an analog module generator environment
//!
//! A Rust reproduction of *"A Novel Analog Module Generator Environment"*
//! (M. Wolf, U. Kleine, B. J. Hosticka, DATE 1996): a complete system for
//! generating analog IC layout modules from parameterizable, technology
//! independent descriptions.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | subsystem | crate | paper section |
//! |---|---|---|
//! | geometry kernel (rect algebra, Fig. 1 subtraction) | [`geom`] | data model |
//! | technology / design rules, compiled [`RuleSet`](tech::RuleSet) kernel | [`tech`] | tech file |
//! | shared generation context ([`GenCtx`](core::GenCtx)) and stage metrics | [`core`] | infrastructure |
//! | structured event tracing, Chrome-trace export | [`trace`] | tooling |
//! | layout database (shapes, edges, nets, objects) | [`db`] | §2.2–2.3 |
//! | primitive shape functions (INBOX, ARRAY, ...) | [`prim`] | §2.2 |
//! | successive compactor (variable edges, auto-connect) | [`compact`] | §2.3 |
//! | order optimizer + rating function | [`opt`] | §2.4 |
//! | design rule checker (incl. latch-up, Fig. 1) | [`drc`] | §2.1 |
//! | connectivity & parasitic extraction | [`extract`] | §2.4, §3 |
//! | the layout description language | [`dsl`] | §2.1 |
//! | static analyzer for generator programs | [`lint`] | tooling |
//! | wiring routines (symmetric routing, Fig. 10) | [`route`] | §2, §3 |
//! | module library (contact rows → centroid pairs) | [`modgen`] | §2.5, §3 |
//! | SVG / GDSII export | [`export`] | tooling |
//! | the BiCMOS amplifier example | [`amp`] | §3, Figs. 8–10 |
//! | deterministic fault injection (chaos testing) | [`faults`] | tooling |
//! | multi-tenant generation server (wire protocol) | [`serve`] | tooling |
//!
//! # Quickstart
//!
//! ```
//! use amgen::prelude::*;
//!
//! // The paper's Fig. 2 module, written in the layout description
//! // language and generated in the built-in BiCMOS technology.
//! let ctx = GenCtx::from_tech(&Tech::bicmos_1u());
//! let mut interp = Interpreter::new(ctx.clone());
//! let out = interp
//!     .run(
//!         r#"
//! row = ContactRow(layer = "poly", W = 10)
//!
//! ENT ContactRow(layer, <W>, <L>)
//!   INBOX(layer, W, L)
//!   INBOX("metal1")
//!   ARRAY("contact")
//! "#,
//!     )
//!     .unwrap();
//! let row = &out["row"];
//! assert!(Drc::new(&ctx).check(row).is_empty());
//! ```
//!
//! # The rule kernel and the generation context
//!
//! Every stage consumes design rules through the technology's compiled
//! [`RuleSet`](tech::RuleSet) (`Tech` is the same type) — dense pairwise
//! tables, interned layer handles, no strings or hashing in hot loops —
//! carried in a shared [`GenCtx`](core::GenCtx). Every stage entry point
//! takes `&GenCtx`: build the context once per run — its budget, cancel
//! token, cache and tracing then reach every stage — share it (workers
//! bump the `Arc`), and read the per-stage counters afterwards. Stage time is inclusive
//! (a module generator's time contains the primitives it calls) and is
//! charged on every exit, errors included:
//!
//! ```
//! use amgen::modgen::{contact_row, ContactRowParams};
//! use amgen::prelude::*;
//!
//! let ctx = GenCtx::from_tech(&Tech::bicmos_1u()); // build the kernel once
//! let poly = ctx.poly().unwrap(); // interned handle, no name lookup
//! for _ in 0..3 {
//!     contact_row(&ctx, poly, &ContactRowParams::new()).unwrap();
//! }
//! let m = ctx.snapshot();
//! assert!(m.stage_nanos(Stage::Modgen) > 0);
//! ```

pub use amgen_amp as amp;
pub use amgen_compact as compact;
pub use amgen_core as core;
pub use amgen_db as db;
pub use amgen_drc as drc;
pub use amgen_dsl as dsl;
pub use amgen_export as export;
pub use amgen_extract as extract;
pub use amgen_faults as faults;
pub use amgen_geom as geom;
pub use amgen_lint as lint;
pub use amgen_modgen as modgen;
pub use amgen_opt as opt;
pub use amgen_prim as prim;
pub use amgen_route as route;
pub use amgen_serve as serve;
pub use amgen_tech as tech;
pub use amgen_trace as trace;

/// The most common types, for glob import.
pub mod prelude {
    pub use amgen_compact::{CompactOptions, Compactor};
    pub use amgen_core::{
        Budget, CachedModule, CancelToken, CanonParam, FaultAction, FaultHook, FaultSite, GenCache,
        GenCtx, GenError, GenErrorKind, GenKey, GenOptions, GenResult, Metrics, MetricsSnapshot,
        Resource, Stage,
    };
    pub use amgen_db::{LayoutObject, Port, Shape, ShapeRole};
    pub use amgen_drc::Drc;
    pub use amgen_dsl::Interpreter;
    pub use amgen_export::{render_svg, write_gds};
    pub use amgen_extract::Extractor;
    pub use amgen_faults::FaultPlan;
    pub use amgen_geom::{um, Dir, Point, Rect, Region, Vector};
    pub use amgen_opt::{OptResult, Optimizer, RatingWeights, SearchOptions, Step};
    pub use amgen_prim::Primitives;
    pub use amgen_route::Router;
    pub use amgen_tech::{Layer, RuleSet, Tech};
    pub use amgen_trace::{Detail, Trace, TraceSink};
}
