//! Exact constraint solving: rational LP and polynomial entailment.
//!
//! The paper discharges its synthesis conditions with off-the-shelf SMT
//! solvers (Z3, MathSAT5, Barcelogic).  This reproduction keeps the solver
//! in-tree: the only oracles the rest of the workspace needs are
//!
//! * **LP feasibility / optimisation over the rationals** — [`LpProblem`],
//!   a two-phase primal simplex with exact arithmetic, and
//! * **polynomial entailment** — [`entails`] and [`implies_false`], a
//!   Farkas/Handelman-style positive-combination oracle built on the LP
//!   layer: `g_1 ≥ 0 ∧ … ∧ g_k ≥ 0 ⟹ p ≥ 0` is certified by exhibiting
//!   non-negative multipliers `λ` with `p = λ_0 + Σ_j λ_j · π_j` where the
//!   `π_j` range over products of the premises up to a degree bound.
//!
//! # The exact LP encoding, and why it is stored sparse
//!
//! The entailment oracle turns each query into one LP over the multiplier
//! variables `λ_j`: one **equality row per monomial** occurring in the
//! premise products or the conclusion, stating that the monomial's
//! coefficients match on both sides. A given monomial occurs in only a
//! handful of products, so each row has 3–6 nonzeros regardless of how many
//! hundreds of multiplier columns the product budget generates. The LP is
//! therefore stored as sorted, zero-free nonzero lists with packed
//! machine-word [`revterm_num::Rat`] coefficients.
//!
//! Two simplex engines produce **bitwise-identical** results on cold solves
//! (they make the same Bland's-rule choices and exact arithmetic makes
//! every comparison representation-independent):
//!
//! * [`LpProblem::solve`] — the engine: a fraction-free revised simplex
//!   over a column-form standard form scaled to integers. It keeps the
//!   basis inverse as an integer adjugate with its determinant, so every
//!   pivot divides exactly and none takes a gcd; it computes in `i64` words
//!   and solves an LP again over [`revterm_num::Int`] when its numbers
//!   leave them. It supports **warm starts** from stored optimal bases,
//!   which is what lets a Houdini entailment stream skip phase 1 on
//!   structurally repeated LPs. The entailment oracle builds everything of
//!   an LP but its right-hand side once per premise set (a *skeleton*:
//!   products, monomial rows, integer column runs) and copies each LP's
//!   columns for this engine from it; the memo [`EntailmentCache`] keeps
//!   the skeletons of the premise set it is asked about during one prove,
//!   and its private store of bases is the only one, so warm starts are a
//!   detail of this crate that no caller sees;
//! * [`LpProblem::solve_dense`] — the dense reference tableau, the
//!   differential oracle.
//!
//! The [`lp`] module docs describe the lowering to standard form, the
//! fraction-free update, why the integer scalings keep every pivot, the two
//! word tiers and the warm-start contract; the
//! [`entail`] module docs describe the positive-combination encoding, the
//! premise-set skeleton the columns are copied from, and the structural
//! keying that drives the memo's stored bases.
//!
//! Both oracles are *sound*: a positive answer comes with an explicit
//! certificate (a feasible point; for entailments, a [`Combination`] of
//! premise products that [`Combination::certifies`] checks without an LP),
//! and every non-termination verdict produced by the core crate rests on
//! such combinations, each checked that way. [`Combination`] lives in
//! `revterm-poly`, where the interval closure of `revterm-absint` builds
//! the same witnesses, and [`SplitMix64`] in `revterm-num`; this crate
//! re-exports both for the callers that import them from here.  The oracles are incomplete in
//! general (as is any decision procedure for non-linear integer arithmetic),
//! which only ever costs coverage, never soundness.
//!
//! # Example
//!
//! ```
//! use revterm_poly::{Poly, Var};
//! use revterm_solver::{entails, EntailmentOptions};
//!
//! let x = Poly::var(Var(0));
//! // x >= 3  implies  2x - 5 >= 0.
//! let premise = vec![&x - &Poly::constant_i64(3)];
//! let conclusion = &x.scale(&revterm_num::rat(2)) - &Poly::constant_i64(5);
//! assert!(entails(&premise, &conclusion, &EntailmentOptions::default()));
//! ```

#![warn(missing_docs)]

pub mod entail;
pub mod lp;

pub use entail::{
    entails, entails_with_witness, implies_false, implies_false_with_witness, EntailmentCache,
    EntailmentOptions, LpEngine,
};
pub use lp::{LpProblem, LpResult, LpSolution, LpStats, Rel, VarKind};
pub use revterm_num::SplitMix64;
pub use revterm_poly::Combination;
