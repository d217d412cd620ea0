//! Transition systems, program reversal and related machinery.
//!
//! This crate implements the semantic core of the paper:
//!
//! * [`TransitionSystem`] — Definition 2.2: locations, program variables, an
//!   initial location with initial variable valuations `Θ_init`, and
//!   transitions whose relations are assertions (conjunctions of polynomial
//!   inequalities) over unprimed and primed variables, plus the dedicated
//!   terminal location `ℓ_out` with its self-loop.
//! * [`lower`] — lowering of a [`revterm_lang::Program`] to its transition
//!   system (the construction the paper calls "standard and we omit it").
//! * [`TransitionSystem::reverse`] — Definition 3.1, the program reversal at
//!   the heart of the approach.
//! * [`Resolution`] and [`TransitionSystem::restrict`] — Definition 5.1,
//!   resolution of non-determinism yielding proper under-approximations.
//! * [`PredicateMap`], [`Assertion`], [`PropPredicate`] — predicate maps of
//!   type `(c, d)` used for invariants and backward invariants.
//! * [`interp`] — a concrete-semantics interpreter used by the bounded
//!   safety prover and by the test suite as ground truth.
//! * [`graph`] — SCCs of the location graph, which the baseline provers
//!   enumerate.
//!
//! # Example
//!
//! ```
//! use revterm_lang::parse_program;
//! use revterm_ts::lower;
//!
//! let prog = parse_program(
//!     "while x >= 9 do x := ndet(); y := 10 * x; while x <= y do x := x + 1; od od",
//! ).unwrap();
//! let ts = lower(&prog).unwrap();
//! assert_eq!(ts.vars().len(), 2);
//! let reversed = ts.reverse(revterm_ts::Assertion::tautology());
//! assert_eq!(reversed.init_loc(), ts.terminal_loc());
//! ```

#![warn(missing_docs)]

mod assertion;
pub mod graph;
pub mod interp;
mod lower;
mod resolution;
mod system;
mod vars;

pub use assertion::{Assertion, PredicateMap, PropPredicate};
pub use lower::{lower, LowerError};
pub use resolution::Resolution;
pub use system::{Loc, Transition, TransitionKind, TransitionSystem};
pub use vars::VarTable;
