//! Abstract-interpretation pre-analysis for the RevTerm pipeline.
//!
//! This crate computes cheap static facts about a
//! [`revterm_ts::TransitionSystem`] *before* the expensive machinery
//! (resolution enumeration, Houdini invariant synthesis, Farkas/Handelman
//! multiplier LPs) runs, in two closely related forms:
//!
//! 1. **Per-location interval fixpoint** — [`analyze`] runs a worklist
//!    abstract interpretation in the interval domain with delayed widening
//!    and a narrowing pass, producing an [`AbstractState`]: for every
//!    location either a proof of unreachability or a sound per-variable
//!    [`Interval`] (with the constants it pins).  The `revterm analyze` CLI
//!    subcommand and the wire `analyze` operation run it afresh on each
//!    call and render it together with [`Diagnostics`] (unused variables,
//!    unreachable locations, constant guards); the prover never reads it.
//!
//! 2. **Premise closure** — [`close_premises`] interval-closes one
//!    entailment query's premise set.  Every bound it derives is an
//!    explicit nonnegative (Farkas) combination of the premises, and the
//!    closure records it: a positive answer from
//!    [`PremiseClosure::entails`] comes with that combination
//!    ([`PremiseClosure::combination`]) and a contradiction with its
//!    refutation ([`PremiseClosure::refutation`]), both in the one witness
//!    format, [`revterm_poly::Combination`], that the multiplier LP emits
//!    too, so the answer is *guaranteed* to agree with the LP.  Houdini and the blocked-transition check
//!    use it to skip LP solves outright (`absint_fast_paths` in `LpStats`);
//!    certificate evidence generation ships its combinations, which the
//!    exact check verifies, and solves an LP only for what it cannot decide.
//!
//! Both are **sound pruning only**: the facts may only skip work whose
//! outcome is already forced, never change a verdict, certificate, or perf
//! digest.  That contract is why the certificate-producing path does *not*
//! filter atom pools or template universes by these facts — dropping atoms
//! that the analysis proves redundant would still change the shape of the
//! synthesized invariants.
//!
//! # Example: analyzing a lowered program
//!
//! ```
//! use revterm_absint::{analyze, diagnostics};
//! use revterm_lang::parse_program;
//! use revterm_ts::lower;
//!
//! let program = parse_program("x := 5; while x >= 1 do x := x - 1; od").unwrap();
//! let ts = lower(&program).unwrap();
//! let state = analyze(&ts);
//!
//! // Every location the analysis keeps is a sound envelope; after `x := 5`
//! // the loop head sees x in [0, 5] (narrowing recovers the bounds).
//! assert!(state.is_reachable(ts.init_loc()));
//! assert!(!state.terminal_unreachable(&ts));
//! let diag = diagnostics(&ts, &state);
//! assert!(diag.unreachable_locs.is_empty());
//! ```
//!
//! # Example: the entailment fast path
//!
//! ```
//! use revterm_absint::close_premises;
//! use revterm_poly::{Poly, Var};
//! use revterm_num::rat;
//!
//! let x = Poly::var(Var(0));
//! let y = Poly::var(Var(1));
//! // x >= 2 and y - x >= 0 entail y >= 1 by pure bound propagation.
//! let premises = vec![x - Poly::constant(rat(2)), y.clone() - Poly::var(Var(0))];
//! let closure = close_premises(premises.iter());
//! assert!(closure.entails(&(y - Poly::constant(rat(1)))));
//! ```

#![warn(missing_docs)]

mod analysis;
mod closure;
mod interval;

pub use analysis::{analyze, analyze_from, diagnostics, AbstractState, Diagnostics};
pub use closure::{close_premises, IntervalEnv, PremiseClosure, Refutation, CLOSURE_ROUNDS};
pub use interval::Interval;
