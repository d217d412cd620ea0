//! Multivariate polynomial arithmetic over exact rationals.
//!
//! This crate is the symbolic backbone of the RevTerm reproduction: program
//! guards and updates, invariant templates and ranking functions are all
//! represented as [`Poly`] values — multivariate polynomials with
//! [`revterm_num::Rat`] coefficients over an abstract variable space
//! ([`Var`]). Every entailment witness, whether an LP or the interval
//! closure found it, is a [`Combination`] of premise products, checked by
//! [`Combination::certifies`] with this crate's arithmetic alone.
//!
//! The crate deliberately knows nothing about *what* the variables mean
//! (program variables, primed variables, template coefficients, …); callers
//! partition the variable space.  A lighter-weight linear view ([`LinExpr`])
//! is provided for the LP layers.
//!
//! # Term keys and the canonical order
//!
//! [`Monomial`] is a two-word `Copy` key: degree-≤ 2 monomials over small
//! variable ids pack into a single `u64`, larger ones intern into a global
//! pool with stable ids (see the [`Monomial`] docs and
//! [`mono_pool_stats`]).  [`Poly`] stores its terms as a flat sorted
//! `Vec<(Monomial, Rat)>` — exposed via [`Poly::flat_terms`] — so caches hash
//! term streams as plain words and LP row builders ingest them without
//! cloning.
//!
//! The canonical term order is **load-bearing**: LP rows are laid out in
//! monomial order, so the order decides Simplex pivot sequences and
//! therefore the exact solutions the bench digests fingerprint.  It is the
//! lexicographic order on canonical factor lists, identical on both key
//! tiers:
//!
//! ```
//! use revterm_poly::{Monomial, Poly, Var};
//! use revterm_num::rat;
//! let p = (Poly::var(Var(0)) + Poly::var(Var(1))).pow(2) + Poly::constant(rat(1));
//! // 1 + x^2 + 2xy + y^2 iterates as: 1, x*y, x^2, y^2 (lex on factor lists).
//! let order: Vec<String> = p.terms().map(|(m, _)| m.to_string()).collect();
//! assert_eq!(order, ["1", "v0*v1", "v0^2", "v1^2"]);
//! ```
//!
//! # Example
//!
//! ```
//! use revterm_poly::{Poly, Var};
//! use revterm_num::rat;
//!
//! let x = Var(0);
//! let y = Var(1);
//! // p = (x + y)^2
//! let p = (Poly::var(x) + Poly::var(y)).pow(2);
//! assert_eq!(p.total_degree(), 2);
//! let val = p.eval(&|v| if v == x { rat(3) } else { rat(4) });
//! assert_eq!(val, rat(49));
//! ```

#![warn(missing_docs)]

mod combination;
mod linexpr;
mod monomial;
#[allow(clippy::module_inception)]
mod poly;

pub use combination::Combination;
pub use linexpr::LinExpr;
pub use monomial::{mono_pool_stats, MonoPoolStats, Monomial, MAX_PACKED_EXP, MAX_PACKED_VAR};
pub use poly::Poly;

/// Runs a streaming renderer into a fresh `String`. Each rendered type
/// writes itself once, in a `write_with` that takes any [`std::fmt::Write`];
/// its `display_with` is that rendering collected by this function.
pub fn render(write: impl FnOnce(&mut dyn std::fmt::Write) -> std::fmt::Result) -> String {
    let mut out = String::new();
    write(&mut out).expect("writing to a String cannot fail");
    out
}

/// An abstract variable identifier.
///
/// The polynomial layer treats variables as opaque indices; higher layers
/// decide which indices denote program variables, primed copies, or template
/// coefficients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

impl Var {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for Var {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}
