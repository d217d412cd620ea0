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
//! `c + Σ aⱼxⱼ ≥ 0` divides by the positive `|a_i|` and adds, for every
//! other term, `|a_j| / |a_i|` times the bound it substituted, and those
//! bounds carry their own combinations. The closure keeps that derivation:
//! each bound it sets records a *fact* — the premise it came from and the
//! earlier facts it read — so [`PremiseClosure::combination`] unrolls any
//! conclusion it entails into weights on the constant `1` and on the
//! *individual* premises, and a [`PremiseClosure::Contradiction`] unrolls
//! into a combination summing to `−1` ([`PremiseClosure::refutation`]).
//! Both are a [`Combination`], the witness the multiplier LP returns too,
//! with the constant first (when its weight is positive) and then the
//! premises by increasing index.
//! The multiplier LP in `revterm_solver::entail` always offers a column for
//! each single premise (products of size 1) plus the constant `1`, so such a
//! combination is a feasible point of its LP: whenever
//! [`PremiseClosure::entails`] answers `true` the LP answers `true` as well,
//! and a contradiction is exactly what `implies_false` asks the LP for. The
//! fast path can therefore *never* flip a verdict; it only skips LP work
//! whose outcome is already forced. When the closure is inconclusive the
//! caller falls through to the LP, so "no" costs nothing but the closure
//! itself. Certificate evidence ships the unrolled combinations, and the
//! exact check re-derives each of them with `Poly`/`Rat` arithmetic, so the
//! argument above is verified on every use rather than trusted.
//!
//! Bounds seeded through [`IntervalEnv::meet_var`] — the per-location
//! envelope the analysis installs before its [`IntervalEnv::refine`] — have
//! no premise behind them. The closure still propagates them, but no
//! combination may use them: an unroll that reaches one yields `None`.
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
//! let conclusion = x.clone() - Poly::constant(rat(7));
//! assert!(closure.entails(&conclusion));
//! // The evidence: 1 · (x - 9) + 2 · 1.
//! let farkas = closure.combination(&premises, &conclusion).unwrap();
//! let terms: Vec<_> = farkas.terms().collect();
//! assert_eq!(terms, [(&[][..], &rat(2)), (&[0][..], &rat(1))]);
//! assert!(!closure.entails(&(Poly::constant(rat(11)) - x)));
//! assert!(!closure.is_contradiction());
//! ```

use crate::interval::Interval;
use revterm_num::Rat;
use revterm_poly::{Combination, LinExpr, Poly, Var};
use std::collections::BTreeMap;

/// Refinement rounds for both the premise closure and guard refinement.
///
/// Any fixed number is sound and LP-agreeing (see the module docs); more
/// rounds only buy deeper derivations at closure cost.
pub const CLOSURE_ROUNDS: usize = 3;

/// The fact id of a bound no premise derived (seeded by
/// [`IntervalEnv::meet_var`], or not set at all).
const SEEDED: u32 = u32::MAX;

/// Per-variable interval bounds; variables without an entry are unbounded.
///
/// Every bound the refinement derives remembers the fact behind it, so the
/// bounds a conclusion reads unroll into a combination of premises.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IntervalEnv {
    bounds: BTreeMap<u32, Bound>,
    /// The derived facts, in derivation order: a fact reads only earlier
    /// ones.
    facts: Vec<Fact>,
    /// The ids of the facts each fact read, concatenated in fact order.
    deps: Vec<u32>,
}

/// A tracked variable's interval and the facts behind its two ends.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Bound {
    interval: Interval,
    lo: u32,
    hi: u32,
}

/// One derived bound: premise `premise` solved for `var`, with every other
/// term bounded by the fact it read (their ids end at `deps_end` in
/// [`IntervalEnv::deps`], in the premise's term order). Its weights are
/// recomputed from the premise when the fact is unrolled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Fact {
    premise: u32,
    var: u32,
    deps_end: u32,
}

/// Why the refinement stopped at a contradiction.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Conflict {
    /// The premise is the negative constant `constant`.
    Negative { premise: u32, constant: Rat },
    /// Fact `fact` put one end of its variable past the other end, which
    /// fact `other` set, by `gap > 0`.
    Crossing { fact: u32, other: u32, gap: Rat },
}

/// A contradiction the closure derived, kept so that its refutation can be
/// unrolled on demand ([`PremiseClosure::refutation`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Refutation {
    env: IntervalEnv,
    conflict: Conflict,
}

/// Result of [`close_premises`].
#[derive(Clone, Debug)]
pub enum PremiseClosure {
    /// The linear premises are contradictory over the rationals (a Farkas
    /// derivation of `-1 ≥ 0` exists).
    Contradiction(Refutation),
    /// The closed bound environment.
    Env(IntervalEnv),
}

impl Bound {
    fn top() -> Bound {
        Bound { interval: Interval::top(), lo: SEEDED, hi: SEEDED }
    }
}

impl IntervalEnv {
    /// The unconstrained environment.
    pub fn top() -> IntervalEnv {
        IntervalEnv::default()
    }

    /// The interval currently known for `v` (top when untracked).
    pub fn get(&self, v: Var) -> Interval {
        self.bounds.get(&v.0).map_or_else(Interval::top, |b| b.interval.clone())
    }

    /// Intersect the interval for `v` with `iv`; `false` signals emptiness.
    ///
    /// A bound this tightens is *seeded*: no premise stands behind it, so no
    /// combination unrolls through it.
    pub fn meet_var(&mut self, v: Var, iv: &Interval) -> bool {
        let bound = self.bounds.entry(v.0).or_insert_with(Bound::top);
        let Some(met) = bound.interval.meet(iv) else { return false };
        if met.lo() != bound.interval.lo() {
            bound.lo = SEEDED;
        }
        if met.hi() != bound.interval.hi() {
            bound.hi = SEEDED;
        }
        bound.interval = met;
        true
    }

    /// Iterate the tracked (variable, interval) bounds in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (Var, &Interval)> + '_ {
        self.bounds.iter().map(|(v, b)| (Var(*v), &b.interval))
    }

    /// Upper bound of `coeff · x_v` under the current bounds and the fact
    /// behind it; `None` = +∞.
    fn term_sup(&self, v: Var, coeff: &Rat) -> Option<(Rat, u32)> {
        let b = self.bounds.get(&v.0)?;
        if coeff.is_positive() {
            Some((b.interval.hi()? * coeff, b.hi))
        } else {
            Some((b.interval.lo()? * coeff, b.lo))
        }
    }

    /// Lower bound of `coeff · x_v` under the current bounds and the fact
    /// behind it; `None` = −∞.
    fn term_inf(&self, v: Var, coeff: &Rat) -> Option<(Rat, u32)> {
        let b = self.bounds.get(&v.0)?;
        if coeff.is_positive() {
            Some((b.interval.lo()? * coeff, b.lo))
        } else {
            Some((b.interval.hi()? * coeff, b.hi))
        }
    }

    /// One tightening pass for premise `premise`, the atom `lin ≥ 0`.
    ///
    /// Returns whether a bound moved, or the contradiction the atom
    /// (under the current bounds) produces.
    fn tighten(&mut self, premise: u32, lin: &LinExpr) -> Result<bool, Conflict> {
        if lin.is_constant() {
            let constant = lin.constant_part();
            if constant.is_negative() {
                return Err(Conflict::Negative { premise, constant: constant.clone() });
            }
            return Ok(false);
        }
        let mut changed = false;
        for (v, coeff) in lin.nonzeros() {
            // a_i·x_i ≥ -(c + Σ_{j≠i} a_j·x_j) ≥ -(c + Σ_{j≠i} sup(a_j·x_j)).
            // The facts read are staged at the end of `deps` and kept only
            // if the bound they give is recorded.
            let deps_start = self.deps.len();
            let mut rest_sup = lin.constant_part().clone();
            let mut bounded = true;
            for (w, d) in lin.nonzeros().filter(|(w, _)| *w != v) {
                match self.term_sup(w, d) {
                    Some((s, fact)) => {
                        rest_sup += &s;
                        self.deps.push(fact);
                    }
                    None => {
                        bounded = false;
                        break;
                    }
                }
            }
            if bounded && self.narrow(v, coeff, premise, &(-rest_sup) / coeff)? {
                changed = true;
            } else {
                self.deps.truncate(deps_start);
            }
        }
        Ok(changed)
    }

    /// Meets `x_v` with the bound `premise` gives it — a lower bound when
    /// `coeff` is positive, an upper one otherwise — and records the fact
    /// if the bound is tighter than the one it replaces. Returns whether it
    /// was, or the contradiction when it crosses the opposite end.
    fn narrow(&mut self, v: Var, coeff: &Rat, premise: u32, value: Rat) -> Result<bool, Conflict> {
        let lower = coeff.is_positive();
        let bound = self.bounds.entry(v.0).or_insert_with(Bound::top);
        let (own, other) = if lower {
            (bound.interval.lo(), bound.interval.hi())
        } else {
            (bound.interval.hi(), bound.interval.lo())
        };
        let past = |end: &Rat| if lower { &value > end } else { &value < end };
        if !own.is_none_or(past) {
            return Ok(false);
        }
        let fact = u32::try_from(self.facts.len()).expect("fact ids fit u32");
        let deps_end = u32::try_from(self.deps.len()).expect("dependency ids fit u32");
        self.facts.push(Fact { premise, var: v.0, deps_end });
        if let Some(end) = other.filter(|&end| past(end)) {
            let gap = (&value - end).abs();
            let other = if lower { bound.hi } else { bound.lo };
            return Err(Conflict::Crossing { fact, other, gap });
        }
        if lower {
            bound.interval.set_lo(value);
            bound.lo = fact;
        } else {
            bound.interval.set_hi(value);
            bound.hi = fact;
        }
        Ok(true)
    }

    /// Refines by the indexed premises `lin ≥ 0` for at most `rounds`
    /// passes, stopping early once a pass moves no bound.
    fn close<'a, I>(&mut self, premises: &I, rounds: usize) -> Result<(), Conflict>
    where
        I: Iterator<Item = (u32, &'a LinExpr)> + Clone,
    {
        for _ in 0..rounds {
            let mut changed = false;
            for (premise, lin) in premises.clone() {
                changed |= self.tighten(premise, lin)?;
            }
            if !changed {
                break;
            }
        }
        Ok(())
    }

    /// Refine the environment by the atoms `lin ≥ 0` for `rounds` passes.
    ///
    /// Returns `false` when a contradiction is derived (the environment is
    /// left in an unspecified but sound state).
    pub fn refine(&mut self, atoms: &[LinExpr], rounds: usize) -> bool {
        self.close(&(0..).zip(atoms), rounds).is_ok()
    }

    /// A proved lower bound for the *linear* polynomial `p`; `None` when `p`
    /// is nonlinear or unbounded below under the current bounds.
    pub fn lower_bound(&self, p: &Poly) -> Option<Rat> {
        let lin = p.as_linear()?;
        let mut acc = lin.constant_part().clone();
        for (v, c) in lin.nonzeros() {
            acc += &self.term_inf(v, c)?.0;
        }
        Some(acc)
    }

    /// Does `p ≥ 0` follow from the tracked bounds?  (Linear `p` only.)
    pub fn entails(&self, p: &Poly) -> bool {
        self.lower_bound(p).is_some_and(|l| !l.is_negative())
    }

    /// The combination proving `conclusion ≥ 0` from the premises the
    /// bounds were derived from; `None` exactly when [`IntervalEnv::entails`]
    /// is `false`, or when the proof would read a seeded bound.
    fn combination(&self, premises: &[Poly], conclusion: &Poly) -> Option<Combination> {
        let lin = conclusion.as_linear()?;
        // conclusion = slack + Σ |c_v| · (the bound fact on x_v that
        // `lower_bound` reads), where slack is that lower bound.
        let mut slack = lin.constant_part().clone();
        let mut weights = BTreeMap::new();
        for (v, c) in lin.nonzeros() {
            let (inf, fact) = self.term_inf(v, c)?;
            slack += &inf;
            *weights.entry(fact).or_default() += &c.abs();
        }
        if slack.is_negative() {
            return None;
        }
        self.unroll(weights, premises, Combination::constant(slack))
    }

    /// Spreads weighted facts down to the premises: a fact of weight `w`
    /// from the premise `c + Σ a_j·x_j ≥ 0`, solved for `x_i`, is
    /// `w / |a_i|` times the premise plus `w · |a_j| / |a_i|` times each fact
    /// it read. Facts read only earlier facts, so taking them in decreasing
    /// id order completes each weight before it is spread. The premise
    /// terms are appended to `combination` by increasing premise index.
    /// `None` if a seeded bound is reached or `premises` is not what the
    /// facts read.
    fn unroll(
        &self,
        mut weights: BTreeMap<u32, Rat>,
        premises: &[Poly],
        mut combination: Combination,
    ) -> Option<Combination> {
        let mut lambdas: BTreeMap<u32, Rat> = BTreeMap::new();
        while let Some((id, weight)) = weights.pop_last() {
            let fact = self.facts.get(id as usize)?;
            let deps_start = match id.checked_sub(1) {
                Some(previous) => self.facts[previous as usize].deps_end as usize,
                None => 0,
            };
            let mut deps = self.deps[deps_start..fact.deps_end as usize].iter();
            let lin = premises.get(fact.premise as usize)?.as_linear()?;
            let var = Var(fact.var);
            let solved = lin.coeff(var).abs();
            if solved.is_zero() {
                return None;
            }
            let scale = &weight / &solved;
            for (_, a) in lin.nonzeros().filter(|(w, _)| *w != var) {
                *weights.entry(*deps.next()?).or_default() += &(&scale * &a.abs());
            }
            if deps.next().is_some() {
                return None;
            }
            *lambdas.entry(fact.premise).or_default() += &scale;
        }
        for (premise, lambda) in lambdas {
            combination.push(&[premise], lambda);
        }
        Some(combination)
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
///
/// Premises are indexed by their position in `premises`, nonlinear ones
/// included, so the combinations read from the result name the premises as
/// the caller numbers them.
pub fn close_premises<'a>(premises: impl IntoIterator<Item = &'a Poly>) -> PremiseClosure {
    let lins: Vec<(u32, LinExpr)> =
        (0..).zip(premises).filter_map(|(k, p)| Some((k, p.as_linear()?))).collect();
    let mut env = IntervalEnv::top();
    match env.close(&lins.iter().map(|(k, lin)| (*k, lin)), CLOSURE_ROUNDS) {
        Ok(()) => PremiseClosure::Env(env),
        Err(conflict) => PremiseClosure::Contradiction(Refutation { env, conflict }),
    }
}

impl PremiseClosure {
    /// Did the closure derive a contradiction (`-1 ≥ 0`)?
    pub fn is_contradiction(&self) -> bool {
        matches!(self, PremiseClosure::Contradiction(_))
    }

    /// Does `conclusion ≥ 0` follow from the closed bounds?
    ///
    /// Returns `false` on [`PremiseClosure::Contradiction`]: whether the LP
    /// would answer `true` for an arbitrary conclusion under contradictory
    /// premises depends on whether its refutation fits the caller's product
    /// budget, so the *caller* decides what a contradiction licenses.
    pub fn entails(&self, conclusion: &Poly) -> bool {
        match self {
            PremiseClosure::Contradiction(_) => false,
            PremiseClosure::Env(env) => env.entails(conclusion),
        }
    }

    /// The combination behind [`PremiseClosure::entails`]: for a closure of
    /// `premises`, `Some` exactly when `entails(conclusion)` holds, and its
    /// sum is `conclusion`. Its terms are the constant `1` (when its weight
    /// is positive) and then single premises by increasing index.
    pub fn combination(&self, premises: &[Poly], conclusion: &Poly) -> Option<Combination> {
        match self {
            PremiseClosure::Contradiction(_) => None,
            PremiseClosure::Env(env) => env.combination(premises, conclusion),
        }
    }

    /// The refutation behind a [`PremiseClosure::Contradiction`] of
    /// `premises`: a combination of single premises, by increasing index,
    /// summing to `−1`. `None` for an [`PremiseClosure::Env`].
    pub fn refutation(&self, premises: &[Poly]) -> Option<Combination> {
        let PremiseClosure::Contradiction(Refutation { env, conflict }) = self else {
            return None;
        };
        match conflict {
            // (−1/c) · c = −1.
            Conflict::Negative { premise, constant } => {
                let mut combination = Combination::new();
                combination.push(&[*premise], -constant.recip());
                Some(combination)
            }
            // The two ends sum to `−gap`: (x − lo) + (hi − x) with lo > hi.
            Conflict::Crossing { fact, other, gap } => {
                let weight = gap.recip();
                let weights = BTreeMap::from([(*fact, weight.clone()), (*other, weight)]);
                env.unroll(weights, premises, Combination::new())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revterm_num::{rat, SplitMix64};

    fn x() -> Poly {
        Poly::var(Var(0))
    }

    fn y() -> Poly {
        Poly::var(Var(1))
    }

    fn c(v: i64) -> Poly {
        Poly::constant(rat(v))
    }

    /// The `(premise indices, λ)` terms of `combination`, owned.
    fn terms(combination: &Combination) -> Vec<(Vec<u32>, Rat)> {
        combination.terms().map(|(factors, lambda)| (factors.to_vec(), lambda.clone())).collect()
    }

    /// Whether the closure's combination for `conclusion` certifies it.
    fn proves(premises: &[Poly], conclusion: &Poly) -> bool {
        let closure = close_premises(premises.iter());
        closure
            .combination(premises, conclusion)
            .is_some_and(|farkas| farkas.certifies(premises, conclusion))
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
        assert!(proves(&premises, &(y() - c(10))) && proves(&premises, &(y() - c(3))));
        assert_eq!(cl.combination(&premises, &(y() - c(11))), None);
    }

    #[test]
    fn contradiction_is_detected() {
        // x >= 5 and -x >= -3 (i.e. x <= 3) are contradictory.
        let premises = [x() - c(5), c(3) - x()];
        let cl = close_premises(premises.iter());
        assert!(cl.is_contradiction());
        // ½ · (x - 5) + ½ · (3 - x) = -1.
        let refutation = cl.refutation(&premises).unwrap();
        let half = Rat::packed(1, 2);
        assert_eq!(terms(&refutation), [(vec![0], half.clone()), (vec![1], half)]);
        assert!(refutation.certifies(&premises, &c(-1)));
        // A negative constant premise alone is contradictory.
        let negative = [x(), c(-4)];
        let refutation = close_premises(negative.iter()).refutation(&negative).unwrap();
        assert_eq!(terms(&refutation), [(vec![1], Rat::packed(1, 4))]);
        assert!(refutation.certifies(&negative, &c(-1)));
        assert_eq!(close_premises(premises[..1].iter()).refutation(&premises[..1]), None);
    }

    #[test]
    fn nonlinear_parts_are_ignored_soundly() {
        // The nonlinear premise contributes nothing; the linear one still closes.
        let premises = [x() * x() - c(4), x() - c(2)];
        let cl = close_premises(premises.iter());
        assert!(cl.entails(&(x() - c(2))));
        // The combination names the linear premise by its place in the set.
        // x - 1 = 1 · (x - 2) + 1: the constant first, then the premise.
        let farkas = cl.combination(&premises, &(x() - c(1))).unwrap();
        assert_eq!(terms(&farkas), [(vec![], rat(1)), (vec![1], rat(1))]);
        assert!(proves(&premises, &(x() - c(1))));
        // Nonlinear conclusions are never claimed, even when true.
        assert!(!cl.entails(&(x() * x() - c(4))));
        assert_eq!(cl.combination(&premises, &(x() * x() - c(4))), None);
    }

    #[test]
    fn negative_coefficients_refine_upper_bounds() {
        // 10 - x >= 0 and x - y >= 0  ==>  y <= 10, i.e. 10 - y >= 0.
        let premises = [c(10) - x(), x() - y()];
        let cl = close_premises(premises.iter());
        assert!(cl.entails(&(c(10) - y())));
        assert!(!cl.entails(&(y() - c(0))));
        assert!(proves(&premises, &(c(10) - y())));
    }

    #[test]
    fn seeded_bounds_are_propagated_but_never_unrolled() {
        // x in [5, +inf) by seed, y - x >= 0 as premise 0: y >= 5 holds,
        // but no combination of the premise alone proves it.
        let mut env = IntervalEnv::top();
        assert!(env.meet_var(Var(0), &Interval::new(Some(rat(5)), None).unwrap()));
        let premises = [y() - x()];
        let lins: Vec<LinExpr> = premises.iter().filter_map(Poly::as_linear).collect();
        assert!(env.refine(&lins, CLOSURE_ROUNDS));
        assert!(env.entails(&(y() - c(5))));
        assert_eq!(env.combination(&premises, &(y() - c(5))), None);
        assert_eq!(env.combination(&premises, &(x() - c(5))), None);
    }

    /// The closure as it was before it recorded facts: the reference the
    /// property test holds the answers of [`close_premises`] to.
    mod reference {
        use crate::interval::Interval;
        use revterm_num::Rat;
        use revterm_poly::{LinExpr, Poly, Var};
        use std::collections::BTreeMap;

        #[derive(Clone, Default)]
        pub(super) struct Env {
            bounds: BTreeMap<u32, Interval>,
        }

        impl Env {
            fn get(&self, v: Var) -> Interval {
                self.bounds.get(&v.0).cloned().unwrap_or_else(Interval::top)
            }

            fn meet_var(&mut self, v: Var, iv: &Interval) -> bool {
                match self.get(v).meet(iv) {
                    Some(m) => {
                        self.bounds.insert(v.0, m);
                        true
                    }
                    None => false,
                }
            }

            fn term_sup(&self, v: Var, coeff: &Rat) -> Option<Rat> {
                let iv = self.get(v);
                if coeff.is_positive() {
                    iv.hi().map(|h| h * coeff)
                } else {
                    iv.lo().map(|l| l * coeff)
                }
            }

            fn term_inf(&self, v: Var, coeff: &Rat) -> Option<Rat> {
                let iv = self.get(v);
                if coeff.is_positive() {
                    iv.lo().map(|l| l * coeff)
                } else {
                    iv.hi().map(|h| h * coeff)
                }
            }

            fn tighten(&mut self, lin: &LinExpr) -> bool {
                if lin.is_constant() {
                    return !lin.constant_part().is_negative();
                }
                let terms: Vec<(Var, Rat)> = lin.nonzeros().map(|(v, c)| (v, c.clone())).collect();
                for (i, (v, coeff)) in terms.iter().enumerate() {
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

            fn refine(&mut self, atoms: &[LinExpr], rounds: usize) -> bool {
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

            pub(super) fn lower_bound(&self, p: &Poly) -> Option<Rat> {
                let lin = p.as_linear()?;
                let mut acc = lin.constant_part().clone();
                for (v, c) in lin.nonzeros() {
                    acc += &self.term_inf(v, c)?;
                }
                Some(acc)
            }

            pub(super) fn entails(&self, p: &Poly) -> bool {
                self.lower_bound(p).is_some_and(|l| !l.is_negative())
            }
        }

        /// The closed bounds after `rounds` passes, or `None` on a
        /// contradiction.
        pub(super) fn close(premises: &[Poly], rounds: usize) -> Option<Env> {
            let lins: Vec<LinExpr> = premises.iter().filter_map(Poly::as_linear).collect();
            let mut env = Env::default();
            env.refine(&lins, rounds).then_some(env)
        }
    }

    /// A nonzero integer of magnitude at most `magnitude`.
    fn nonzero(rng: &mut SplitMix64, magnitude: i64) -> i64 {
        let v = rng.next_in_range(1, magnitude);
        if rng.next_u64().is_multiple_of(2) {
            v
        } else {
            -v
        }
    }

    /// A coefficient: a small integer, a fraction, or one within a few
    /// units of `±i64::MAX`.
    fn coefficient(rng: &mut SplitMix64) -> Rat {
        match rng.next_in_range(0, 5) {
            0..=2 => rat(nonzero(rng, 4)),
            3 | 4 => Rat::packed(nonzero(rng, 9), rng.next_in_range(2, 7)),
            _ => {
                let huge = Rat::from(i64::MAX - rng.next_in_range(0, 3));
                if rng.next_u64().is_multiple_of(2) {
                    huge
                } else {
                    -huge
                }
            }
        }
    }

    /// A constant term: small integers and fractions, now and then a huge
    /// one.
    fn constant(rng: &mut SplitMix64) -> Rat {
        match rng.next_in_range(0, 7) {
            0..=4 => rat(rng.next_in_range(-12, 12)),
            5 | 6 => Rat::packed(rng.next_in_range(-40, 40), rng.next_in_range(2, 9)),
            _ => &Rat::from(i64::MAX - rng.next_in_range(0, 3)) * &rat(nonzero(rng, 1)),
        }
    }

    /// A linear polynomial over 1 to `nvars` distinct variables.
    fn linear(rng: &mut SplitMix64, nvars: u32) -> Poly {
        let mut p = Poly::constant(constant(rng));
        for v in 0..nvars {
            if v == 0 || rng.next_u64().is_multiple_of(2) {
                p = p + Poly::var(Var(v)).scale(&coefficient(rng));
            }
        }
        p
    }

    /// A premise set over `nvars` variables: random linear atoms, often a
    /// chain listed back to front (each round carries its bound one link
    /// further), upper bounds that may cross the chain's lower bounds, and
    /// now and then a nonlinear atom or a negative constant that shifts the
    /// indices of the atoms behind it.
    fn premise_set(rng: &mut SplitMix64, nvars: u32) -> Vec<Poly> {
        let mut premises: Vec<Poly> =
            (0..rng.next_in_range(0, 3)).map(|_| linear(rng, nvars)).collect();
        if !rng.next_u64().is_multiple_of(3) {
            for v in (1..nvars).rev() {
                let link = Poly::var(Var(v)) - Poly::var(Var(v - 1)).scale(&coefficient(rng).abs());
                premises.push(link - Poly::constant(constant(rng)));
            }
            let base = Poly::var(Var(0)).scale(&coefficient(rng).abs());
            premises.push(base - Poly::constant(constant(rng)));
        }
        for _ in 0..rng.next_in_range(0, 2) {
            let v = Var(rng.next_in_range(0, i64::from(nvars) - 1) as u32);
            premises
                .push(Poly::constant(constant(rng)) - Poly::var(v).scale(&coefficient(rng).abs()));
        }
        if rng.next_u64().is_multiple_of(4) {
            let at = rng.next_in_range(0, premises.len() as i64) as usize;
            premises
                .insert(at, Poly::var(Var(0)) * Poly::var(Var(1)) - Poly::constant(constant(rng)));
        }
        if rng.next_u64().is_multiple_of(12) {
            let at = rng.next_in_range(0, premises.len() as i64) as usize;
            premises.insert(at, Poly::constant(rat(-rng.next_in_range(1, 5))));
        }
        premises
    }

    /// Conclusions around what the reference closure can prove: each
    /// variable's bounds exactly, with slack and just out of reach, and
    /// random linear polynomials shifted to, below and past their proved
    /// lower bound.
    fn conclusions(rng: &mut SplitMix64, nvars: u32, closed: &reference::Env) -> Vec<Poly> {
        let third = Poly::constant(Rat::packed(1, 3));
        let mut out = vec![Poly::zero(), Poly::constant(rat(3)), Poly::constant(rat(-1))];
        let around = |p: Poly, out: &mut Vec<Poly>| {
            if let Some(lower) = closed.lower_bound(&p) {
                let at = p.clone() - Poly::constant(lower);
                out.push(at.clone() + third.clone());
                out.push(at.clone() - third.clone());
                out.push(at);
            }
            out.push(p);
        };
        for v in 0..nvars {
            around(Poly::var(Var(v)), &mut out);
            around(-Poly::var(Var(v)), &mut out);
        }
        for _ in 0..4 {
            let p = linear(rng, nvars);
            around(p, &mut out);
        }
        out
    }

    #[test]
    fn every_closure_answer_carries_a_combination_that_certifies_it() {
        let mut rng = SplitMix64::new(0xC105_0E5E);
        let (mut refuted, mut proved, mut deep, mut huge) = (0, 0, 0, 0);
        for case in 0..600 {
            let nvars = rng.next_in_range(2, 4) as u32;
            let premises = premise_set(&mut rng, nvars);
            let closure = close_premises(premises.iter());
            let expected = reference::close(&premises, CLOSURE_ROUNDS);
            assert_eq!(closure.is_contradiction(), expected.is_none(), "case {case}: {premises:?}");
            let Some(closed) = expected else {
                let refutation = closure.refutation(&premises);
                let refutes = refutation.is_some_and(|farkas| farkas.certifies(&premises, &c(-1)));
                assert!(refutes, "case {case}: no refutation of {premises:?}");
                refuted += 1;
                continue;
            };
            assert_eq!(closure.refutation(&premises), None);
            let shallow = reference::close(&premises, CLOSURE_ROUNDS - 1);
            for conclusion in conclusions(&mut rng, nvars, &closed) {
                let entails = closure.entails(&conclusion);
                assert_eq!(entails, closed.entails(&conclusion), "case {case}: {conclusion:?}");
                let combination = closure.combination(&premises, &conclusion);
                assert_eq!(combination.is_some(), entails, "case {case}: {conclusion:?}");
                let Some(farkas) = combination else { continue };
                assert!(
                    farkas.certifies(&premises, &conclusion),
                    "case {case}: {farkas:?} does not prove {conclusion:?} from {premises:?}"
                );
                proved += 1;
                if shallow.as_ref().is_some_and(|env| !env.entails(&conclusion)) {
                    deep += 1;
                }
                // Premise terms only: the constant's weight does not count.
                if farkas
                    .terms()
                    .any(|(factors, lambda)| !factors.is_empty() && !lambda.is_packed())
                {
                    huge += 1;
                }
            }
        }
        // The family reaches every shape the test is about.
        assert!(refuted >= 100, "only {refuted} contradictory sets");
        assert!(proved >= 2000, "only {proved} proved conclusions");
        assert!(deep >= 200, "only {deep} conclusions needed the last round");
        assert!(huge >= 200, "only {huge} combinations with a multiplier past i64");
    }
}
