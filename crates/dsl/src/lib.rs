//! The procedural layout description language (§2.1 of the paper).
//!
//! *"The new procedural language enables the designer to describe
//! parameterizable modules for analog integrated circuits hierarchically
//! and design-rule independent. This language features loops, conditional
//! statements and a set of simple functions to create and to wire
//! primitive geometries without considering exact coordinates."*
//!
//! The concrete syntax follows the paper's Figs. 2 and 7:
//!
//! ```text
//! gatecon = ContactRow(layer = "poly", W = 1)
//!
//! ENT ContactRow(layer, <W>, <L>)
//!   INBOX(layer, W, L)
//!   INBOX("metal1")
//!   ARRAY("contact")
//! ```
//!
//! * `ENT name(params)` declares an entity; `<param>` marks an optional
//!   parameter (*"if an optional parameter is omitted, a default value is
//!   used"* — the design-rule minimum).
//! * Geometry builtins (`INBOX`, `ARRAY`, `TWORECTS`, `RING`, `AROUND`)
//!   operate on the entity's own layout object; `compact(child, DIR,
//!   layers...)` folds a child object in through the successive
//!   compactor.
//! * `name2 = name1` copies an object (`trans2 = trans1 // copy`).
//! * `FOR v = a TO b ... END` and `IF cond ... ELSE ... END` provide
//!   loops and conditions.
//! * `VARIANT ... OR ... END` declares **topology alternatives**; the
//!   interpreter explores every combination (the paper's backtracking)
//!   and [`Interpreter::run`] rates them with the optimizer's
//!   rating function to select the winner.
//!
//! Numbers are micrometres (`W = 10` is a 10 µm width); they convert to
//! integer database units internally. The original environment translated
//! the language to C — here it is interpreted, which changes constant
//! factors only (see DESIGN.md, substitutions).
//!
//! # Example
//!
//! ```
//! use amgen_core::GenCtx;
//! use amgen_dsl::Interpreter;
//! use amgen_tech::Tech;
//!
//! let tech = Tech::bicmos_1u();
//! let src = r#"
//! row = ContactRow(layer = "poly", W = 10)
//!
//! ENT ContactRow(layer, <W>, <L>)
//!   INBOX(layer, W, L)
//!   INBOX("metal1")
//!   ARRAY("contact")
//! "#;
//! let mut interp = Interpreter::new(GenCtx::from_tech(&tech));
//! let objects = interp.run(src).unwrap();
//! assert!(objects.contains_key("row"));
//! ```

pub mod ast;
pub mod costmodel;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod span;
pub mod stdlib;
pub mod value;

pub use interp::{DslError, Interpreter};
pub use span::Span;
pub use value::Value;
