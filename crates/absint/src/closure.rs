//! Interval closure of a premise set — the entailment fast path.
//!
//! [`close_premises`] propagates bounds through the *linear* atoms of a
//! premise set (each premise read as `p ≥ 0`) for a fixed number of rounds
//! and returns either a per-variable [`IntervalEnv`] or a proof that the
//! premises are contradictory over the rationals.
//!
//! # Why a "yes" here agrees with the multiplier LP
//!
//! Every bound the closure derives is an explicit nonnegative combination of
//! the premises: a refinement step for `x_i` from the premise
//! `c + Σ aⱼxⱼ ≥ 0` divides by the positive `|a_i|` and substitutes bounds
//! that (inductively) carry their own combinations, so each derived fact has
//! a Farkas certificate over multipliers on the *individual* premises.  The
//! multiplier LP in `revterm_solver::entail` always offers a column for each
//! single premise (products of size 1) plus the constant `1`, so whenever
//! [`PremiseClosure::entails`] answers `true` the LP is feasible and answers
//! `true` as well — and a detected [`PremiseClosure::Contradiction`] is a
//! Farkas derivation of `-1 ≥ 0`, which is exactly what `implies_false`
//! asks the LP for.  The fast path can therefore *never* flip a verdict; it
//! only skips LP work whose outcome is already forced.  When the closure is
//! inconclusive the caller falls through to the LP, so "no" costs nothing
//! but the closure itself.
//!
//! Nonlinear premises are ignored (sound: fewer facts) and nonlinear
//! conclusions are never claimed (they could require product multipliers
//! the options budget rules out).
//!
//! ```
//! use revterm_absint::close_premises;
//! use revterm_poly::{Poly, Var};
//! use revterm_num::rat;
//!
//! let x = Poly::var(Var(0));
//! // Premises: x - 9 >= 0.  Conclusion: x - 7 >= 0.
//! let premises = vec![x.clone() - Poly::constant(rat(9))];
//! let closure = close_premises(premises.iter());
//! assert!(closure.entails(&(x.clone() - Poly::constant(rat(7)))));
//! assert!(!closure.entails(&(Poly::constant(rat(11)) - x)));
//! assert!(!closure.is_contradiction());
//! ```

use crate::interval::Interval;
use revterm_num::Rat;
use revterm_poly::{LinExpr, Poly, Var};
use std::collections::BTreeMap;

/// Refinement rounds for both the premise closure and guard refinement.
///
/// Any fixed number is sound and LP-agreeing (see the module docs); more
/// rounds only buy deeper derivations at closure cost.
pub const CLOSURE_ROUNDS: usize = 3;

/// Per-variable interval bounds; variables without an entry are unbounded.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IntervalEnv {
    bounds: BTreeMap<u32, Interval>,
}

/// Result of [`close_premises`].
#[derive(Clone, Debug)]
pub enum PremiseClosure {
    /// The linear premises are contradictory over the rationals (a Farkas
    /// derivation of `-1 ≥ 0` exists).
    Contradiction,
    /// The closed bound environment.
    Env(IntervalEnv),
}

impl IntervalEnv {
    /// The unconstrained environment.
    pub fn top() -> IntervalEnv {
        IntervalEnv::default()
    }

    /// The interval currently known for `v` (top when untracked).
    pub fn get(&self, v: Var) -> Interval {
        self.bounds.get(&v.0).cloned().unwrap_or_else(Interval::top)
    }

    /// Intersect the interval for `v` with `iv`; `false` signals emptiness.
    pub fn meet_var(&mut self, v: Var, iv: &Interval) -> bool {
        match self.get(v).meet(iv) {
            Some(m) => {
                self.bounds.insert(v.0, m);
                true
            }
            None => false,
        }
    }

    /// Iterate the tracked (variable, interval) bounds in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (Var, &Interval)> + '_ {
        self.bounds.iter().map(|(v, iv)| (Var(*v), iv))
    }

    /// Upper bound of `coeff · x_v` under the current bounds; `None` = +∞.
    fn term_sup(&self, v: Var, coeff: &Rat) -> Option<Rat> {
        let iv = self.get(v);
        if coeff.is_positive() {
            iv.hi().map(|h| h * coeff)
        } else {
            iv.lo().map(|l| l * coeff)
        }
    }

    /// Lower bound of `coeff · x_v` under the current bounds; `None` = −∞.
    fn term_inf(&self, v: Var, coeff: &Rat) -> Option<Rat> {
        let iv = self.get(v);
        if coeff.is_positive() {
            iv.lo().map(|l| l * coeff)
        } else {
            iv.hi().map(|h| h * coeff)
        }
    }

    /// One tightening pass for the atom `lin ≥ 0`.
    ///
    /// Returns `false` when the atom (under the current bounds) is
    /// contradictory.
    fn tighten(&mut self, lin: &LinExpr) -> bool {
        if lin.is_constant() {
            return !lin.constant_part().is_negative();
        }
        let terms: Vec<(Var, Rat)> = lin.nonzeros().map(|(v, c)| (v, c.clone())).collect();
        for (i, (v, coeff)) in terms.iter().enumerate() {
            // a_i·x_i ≥ -(c + Σ_{j≠i} a_j·x_j) ≥ -(c + Σ_{j≠i} sup(a_j·x_j)).
            let mut rest_sup = lin.constant_part().clone();
            let mut bounded = true;
            for (j, (w, d)) in terms.iter().enumerate() {
                if j == i {
                    continue;
                }
                match self.term_sup(*w, d) {
                    Some(s) => rest_sup += &s,
                    None => {
                        bounded = false;
                        break;
                    }
                }
            }
            if !bounded {
                continue;
            }
            let bound = &(-rest_sup) / coeff;
            let refinement = if coeff.is_positive() {
                Interval::new(Some(bound), None).expect("half-open interval")
            } else {
                Interval::new(None, Some(bound)).expect("half-open interval")
            };
            if !self.meet_var(*v, &refinement) {
                return false;
            }
        }
        true
    }

    /// Refine the environment by the atoms `lin ≥ 0` for `rounds` passes.
    ///
    /// Returns `false` when a contradiction is derived (the environment is
    /// left in an unspecified but sound state).
    pub fn refine(&mut self, atoms: &[LinExpr], rounds: usize) -> bool {
        for _ in 0..rounds {
            let before = self.bounds.clone();
            for lin in atoms {
                if !self.tighten(lin) {
                    return false;
                }
            }
            if self.bounds == before {
                break;
            }
        }
        true
    }

    /// A proved lower bound for the *linear* polynomial `p`; `None` when `p`
    /// is nonlinear or unbounded below under the current bounds.
    pub fn lower_bound(&self, p: &Poly) -> Option<Rat> {
        let lin = p.as_linear()?;
        let mut acc = lin.constant_part().clone();
        for (v, c) in lin.nonzeros() {
            acc += &self.term_inf(v, c)?;
        }
        Some(acc)
    }

    /// Does `p ≥ 0` follow from the tracked bounds?  (Linear `p` only.)
    pub fn entails(&self, p: &Poly) -> bool {
        self.lower_bound(p).is_some_and(|l| !l.is_negative())
    }

    /// Sound interval evaluation of an arbitrary polynomial.
    pub fn eval_poly(&self, p: &Poly) -> Interval {
        let mut acc = Interval::point(Rat::zero());
        for (m, c) in p.terms() {
            let mut factor = Interval::point(Rat::one());
            for (v, exp) in m.iter() {
                factor = factor.mul(&self.get(v).pow(exp));
            }
            acc = acc.add(&factor.scale(c));
        }
        acc
    }
}

/// Close a premise set (each premise read as `p ≥ 0`) under interval
/// propagation over its linear atoms.  See the module docs for the
/// agreement contract with the multiplier LP.
pub fn close_premises<'a>(premises: impl IntoIterator<Item = &'a Poly>) -> PremiseClosure {
    let lins: Vec<LinExpr> = premises.into_iter().filter_map(Poly::as_linear).collect();
    let mut env = IntervalEnv::top();
    if env.refine(&lins, CLOSURE_ROUNDS) {
        PremiseClosure::Env(env)
    } else {
        PremiseClosure::Contradiction
    }
}

impl PremiseClosure {
    /// Did the closure derive a contradiction (`-1 ≥ 0`)?
    pub fn is_contradiction(&self) -> bool {
        matches!(self, PremiseClosure::Contradiction)
    }

    /// Does `conclusion ≥ 0` follow from the closed bounds?
    ///
    /// Returns `false` on [`PremiseClosure::Contradiction`]: whether the LP
    /// would answer `true` for an arbitrary conclusion under contradictory
    /// premises depends on whether its refutation fits the caller's product
    /// budget, so the *caller* decides what a contradiction licenses.
    pub fn entails(&self, conclusion: &Poly) -> bool {
        match self {
            PremiseClosure::Contradiction => false,
            PremiseClosure::Env(env) => env.entails(conclusion),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revterm_num::rat;

    fn x() -> Poly {
        Poly::var(Var(0))
    }

    fn y() -> Poly {
        Poly::var(Var(1))
    }

    fn c(v: i64) -> Poly {
        Poly::constant(rat(v))
    }

    #[test]
    fn transitive_bounds_close() {
        // x >= 9, y - x >= 1  ==>  y >= 10, and hence y - 3 >= 0.
        let premises = [x() - c(9), y() - x() - c(1)];
        let cl = close_premises(premises.iter());
        assert!(cl.entails(&(y() - c(10))));
        assert!(cl.entails(&(y() - c(3))));
        assert!(!cl.entails(&(y() - c(11))));
        assert!(!cl.is_contradiction());
    }

    #[test]
    fn contradiction_is_detected() {
        // x >= 5 and -x >= -3 (i.e. x <= 3) are contradictory.
        let premises = [x() - c(5), c(3) - x()];
        assert!(close_premises(premises.iter()).is_contradiction());
        // A negative constant premise alone is contradictory.
        assert!(close_premises([c(-1)].iter()).is_contradiction());
    }

    #[test]
    fn nonlinear_parts_are_ignored_soundly() {
        // The nonlinear premise contributes nothing; the linear one still closes.
        let premises = [x() * x() - c(4), x() - c(2)];
        let cl = close_premises(premises.iter());
        assert!(cl.entails(&(x() - c(2))));
        // Nonlinear conclusions are never claimed, even when true.
        assert!(!cl.entails(&(x() * x() - c(4))));
    }

    #[test]
    fn negative_coefficients_refine_upper_bounds() {
        // 10 - x >= 0 and x - y >= 0  ==>  y <= 10, i.e. 10 - y >= 0.
        let premises = [c(10) - x(), x() - y()];
        let cl = close_premises(premises.iter());
        assert!(cl.entails(&(c(10) - y())));
        assert!(!cl.entails(&(y() - c(0))));
    }
}
