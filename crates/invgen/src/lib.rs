//! Template-based inductive invariant generation.
//!
//! The paper treats invariant generation as a black box: "fix a template for
//! the invariant (a type-(c,d) propositional predicate map and a degree bound
//! D), encode invariance and inductiveness as constraints, and solve them"
//! (Section 5).  This crate provides that black box.
//!
//! Synthesis proceeds guess-and-check:
//!
//! 1. a finite **candidate atom pool** of shape bounded by the template
//!    parameters is generated per location ([`candidate_atoms`]) — interval
//!    atoms for `c = 1`, octagon atoms for `c ≥ 2`, guard-derived and
//!    quadratic atoms for larger `c`/`D`, with thresholds drawn from the
//!    program's constants and from sample valuations;
//! 2. candidates falsified by known-reachable sample valuations are discarded;
//! 3. a Houdini-style fixpoint ([`synthesize_invariant`]) removes atoms that
//!    are not preserved by some transition, using the exact
//!    Farkas/Handelman entailment oracle of `revterm-solver`, until the
//!    remaining predicate map is inductive;
//! 4. an independent verifier ([`is_inductive`], [`initiation_holds`])
//!    decides the same obligations from scratch. Synthesis runs
//!    [`is_inductive`] on its result only in a `debug_assert!`; the core
//!    crate walks the verifier's obligation enumeration
//!    ([`discharge_consecution`]) to validate whole BI-certificates, with
//!    evidence ([`Discharge`]) it checks without an LP.
//!
//! Synthesis has one entry point, [`synthesize_invariant`]. Its caller owns
//! the caches it reads and fills — a [`PoolCache`] per system and a
//! `revterm_solver::EntailmentCache`, whose LP warm starts stay inside it —
//! and the [`SynthesisBudget`] it polls; a one-off call passes fresh caches
//! and an unlimited budget.
//!
//! Everything is exact: a predicate map returned by this crate is inductive
//! by construction. A debug build also re-verifies it; a release build
//! relies on the fixpoint, and on the core crate's certificate check, which
//! runs on every NO.

#![warn(missing_docs)]

mod atoms;
mod houdini;
mod verify;

pub use atoms::{candidate_atoms, collect_constants, PoolCache, SampleSet, TemplateParams};
pub use houdini::{synthesize_invariant, SynthesisBudget, SynthesisOptions};
pub use verify::{
    discharge_consecution, discharge_predicate, initiation_holds, is_inductive, predicate_entails,
    AtomProof, Discharge, InductivenessViolation,
};
