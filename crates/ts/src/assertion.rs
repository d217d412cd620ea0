//! Assertions, propositional predicates and predicate maps.
//!
//! Terminology follows Section 2 of the paper:
//!
//! * an **assertion** is a finite conjunction of polynomial inequalities
//!   (each stored as a polynomial `p` meaning `p ≥ 0`),
//! * a **propositional predicate** is a finite disjunction of assertions,
//! * a **predicate map** assigns a propositional predicate to every location.
//!
//! Because all programs range over the integers, strict inequalities and
//! negations can be expressed exactly: `p > 0` is `p - 1 ≥ 0` and
//! `¬(p ≥ 0)` is `-p - 1 ≥ 0`.

use crate::system::Loc;
use crate::vars::VarTable;
use revterm_num::{Int, Rat};
use revterm_poly::{Poly, Var};
use std::fmt;

/// A conjunction of polynomial inequalities `p ≥ 0`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Assertion {
    atoms: Vec<Poly>,
}

impl Assertion {
    /// The empty conjunction (`true`).
    pub fn tautology() -> Assertion {
        Assertion { atoms: Vec::new() }
    }

    /// An unsatisfiable assertion (`-1 ≥ 0`).
    pub fn unsatisfiable() -> Assertion {
        Assertion { atoms: vec![Poly::constant_i64(-1)] }
    }

    /// Builds an assertion from polynomials, each interpreted as `p ≥ 0`.
    pub fn from_polys<I: IntoIterator<Item = Poly>>(polys: I) -> Assertion {
        Assertion { atoms: polys.into_iter().collect() }
    }

    /// A single inequality `p ≥ 0`.
    pub fn ge_zero(p: Poly) -> Assertion {
        Assertion { atoms: vec![p] }
    }

    /// The equality `p = 0`, encoded as `p ≥ 0 ∧ -p ≥ 0`.
    pub fn eq_zero(p: Poly) -> Assertion {
        Assertion { atoms: vec![p.clone(), -p] }
    }

    /// The atoms (each meaning `p ≥ 0`).
    pub fn atoms(&self) -> &[Poly] {
        &self.atoms
    }

    /// Number of conjuncts.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Returns `true` iff there are no conjuncts (the assertion is `true`).
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Adds a conjunct `p ≥ 0`.
    pub fn push(&mut self, p: Poly) {
        self.atoms.push(p);
    }

    /// Conjunction of two assertions.
    pub fn and(&self, other: &Assertion) -> Assertion {
        Assertion { atoms: self.atoms.iter().chain(other.atoms.iter()).cloned().collect() }
    }

    /// Returns `true` iff every atom is a constant polynomial that is
    /// non-negative (so the assertion is syntactically `true`).
    pub fn is_trivially_true(&self) -> bool {
        self.atoms.iter().all(|p| match p.as_constant() {
            Some(c) => !c.is_negative(),
            None => false,
        })
    }

    /// Returns `true` iff some atom is a constant negative polynomial
    /// (so the assertion is syntactically `false`).
    pub fn is_trivially_false(&self) -> bool {
        self.atoms.iter().any(|p| match p.as_constant() {
            Some(c) => c.is_negative(),
            None => false,
        })
    }

    /// Evaluates the assertion under a rational assignment.
    pub fn holds(&self, assignment: &dyn Fn(Var) -> Rat) -> bool {
        self.atoms.iter().all(|p| !p.eval(assignment).is_negative())
    }

    /// Evaluates the assertion under an integer assignment (through the fast
    /// integer-point evaluation — see [`Poly::eval_at_int_point`]).
    pub fn holds_int(&self, assignment: &dyn Fn(Var) -> Int) -> bool {
        self.atoms.iter().all(|p| !p.eval_at_int_point(assignment).is_negative())
    }

    /// Applies a variable renaming to every atom.
    pub fn rename(&self, map: &dyn Fn(Var) -> Var) -> Assertion {
        Assertion { atoms: self.atoms.iter().map(|p| p.rename(map)).collect() }
    }

    /// Substitutes polynomials for variables in every atom.
    pub fn substitute(&self, subst: &dyn Fn(Var) -> Poly) -> Assertion {
        Assertion { atoms: self.atoms.iter().map(|p| p.substitute(subst)).collect() }
    }

    /// The exact negation of the assertion over the integers: a disjunction of
    /// the negations of the individual atoms (`¬(p ≥ 0) ≡ -p - 1 ≥ 0`).
    pub fn negate(&self) -> PropPredicate {
        if self.atoms.is_empty() {
            return PropPredicate::unsatisfiable();
        }
        PropPredicate {
            disjuncts: self
                .atoms
                .iter()
                .map(|p| Assertion::ge_zero(-(p.clone()) - Poly::one()))
                .collect(),
        }
    }

    /// Maximal total degree of any atom.
    pub fn max_degree(&self) -> u32 {
        self.atoms.iter().map(|p| p.total_degree()).max().unwrap_or(0)
    }

    /// The variables mentioned by the assertion.
    pub fn vars(&self) -> Vec<Var> {
        let mut out: Vec<Var> = self.atoms.iter().flat_map(|p| p.vars()).collect();
        out.sort();
        out.dedup();
        out
    }

    /// Writes the assertion to `out`, each variable named by `names`: its
    /// atoms as `p >= 0` joined by ` /\ `, and `true` for the empty
    /// conjunction.
    pub fn write_with(
        &self,
        out: &mut dyn fmt::Write,
        names: &dyn Fn(&mut dyn fmt::Write, Var) -> fmt::Result,
    ) -> fmt::Result {
        if self.atoms.is_empty() {
            return out.write_str("true");
        }
        for (i, p) in self.atoms.iter().enumerate() {
            if i > 0 {
                out.write_str(" /\\ ")?;
            }
            p.write_with(out, names)?;
            out.write_str(" >= 0")?;
        }
        Ok(())
    }

    /// Renders the assertion using a variable table for names.
    pub fn display_with(&self, vars: &VarTable) -> String {
        revterm_poly::render(|out| self.write_with(out, &|out, v| vars.write_name(out, v)))
    }
}

impl fmt::Display for Assertion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_with(f, &|out, v| write!(out, "{v}"))
    }
}

/// A propositional predicate: a finite disjunction of assertions.
///
/// The empty disjunction denotes `false` (the empty set of valuations).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct PropPredicate {
    disjuncts: Vec<Assertion>,
}

impl PropPredicate {
    /// The predicate `true` (one empty disjunct).
    pub fn tautology() -> PropPredicate {
        PropPredicate { disjuncts: vec![Assertion::tautology()] }
    }

    /// The predicate `false` (no disjuncts).
    pub fn unsatisfiable() -> PropPredicate {
        PropPredicate { disjuncts: Vec::new() }
    }

    /// Builds a predicate from its disjuncts.
    pub fn from_disjuncts<I: IntoIterator<Item = Assertion>>(disjuncts: I) -> PropPredicate {
        PropPredicate { disjuncts: disjuncts.into_iter().collect() }
    }

    /// A predicate with a single disjunct.
    pub fn from_assertion(a: Assertion) -> PropPredicate {
        PropPredicate { disjuncts: vec![a] }
    }

    /// The disjuncts.
    pub fn disjuncts(&self) -> &[Assertion] {
        &self.disjuncts
    }

    /// Number of disjuncts.
    pub fn len(&self) -> usize {
        self.disjuncts.len()
    }

    /// Returns `true` iff the predicate has no disjuncts (denotes `false`).
    pub fn is_empty(&self) -> bool {
        self.disjuncts.is_empty()
    }

    /// Adds a disjunct.
    pub fn push(&mut self, a: Assertion) {
        self.disjuncts.push(a);
    }

    /// Disjunction of two predicates.
    pub fn or(&self, other: &PropPredicate) -> PropPredicate {
        PropPredicate {
            disjuncts: self.disjuncts.iter().chain(other.disjuncts.iter()).cloned().collect(),
        }
    }

    /// Conjunction of two predicates (distributes disjuncts).
    pub fn and(&self, other: &PropPredicate) -> PropPredicate {
        let mut disjuncts = Vec::new();
        for a in &self.disjuncts {
            for b in &other.disjuncts {
                disjuncts.push(a.and(b));
            }
        }
        PropPredicate { disjuncts }
    }

    /// The exact negation over the integers (may grow the formula).
    pub fn negate(&self) -> PropPredicate {
        // ¬(D1 ∨ ... ∨ Dk) = ¬D1 ∧ ... ∧ ¬Dk, each ¬Di a disjunction.
        let mut acc = PropPredicate::tautology();
        for d in &self.disjuncts {
            acc = acc.and(&d.negate());
        }
        acc
    }

    /// Evaluates the predicate under a rational assignment.
    pub fn holds(&self, assignment: &dyn Fn(Var) -> Rat) -> bool {
        self.disjuncts.iter().any(|d| d.holds(assignment))
    }

    /// Evaluates the predicate under an integer assignment (through the fast
    /// integer-point evaluation — see [`Poly::eval_at_int_point`]).
    pub fn holds_int(&self, assignment: &dyn Fn(Var) -> Int) -> bool {
        self.disjuncts.iter().any(|d| d.holds_int(assignment))
    }

    /// Applies a variable renaming.
    pub fn rename(&self, map: &dyn Fn(Var) -> Var) -> PropPredicate {
        PropPredicate { disjuncts: self.disjuncts.iter().map(|d| d.rename(map)).collect() }
    }

    /// Substitutes polynomials for variables.
    pub fn substitute(&self, subst: &dyn Fn(Var) -> Poly) -> PropPredicate {
        PropPredicate { disjuncts: self.disjuncts.iter().map(|d| d.substitute(subst)).collect() }
    }

    /// Returns `true` iff the predicate is syntactically `false`.
    pub fn is_trivially_false(&self) -> bool {
        self.disjuncts.iter().all(|d| d.is_trivially_false())
    }

    /// Returns `true` iff the predicate is syntactically `true`.
    pub fn is_trivially_true(&self) -> bool {
        self.disjuncts.iter().any(|d| d.is_trivially_true())
    }

    /// The type of the predicate as a `(c, d)` pair: `d` disjuncts each of at
    /// most `c` conjuncts (Section 2, "type-(c,d) predicate map").
    pub fn shape(&self) -> (usize, usize) {
        let c = self.disjuncts.iter().map(|d| d.len()).max().unwrap_or(0);
        (c, self.disjuncts.len())
    }

    /// Maximal total degree of any atom.
    pub fn max_degree(&self) -> u32 {
        self.disjuncts.iter().map(|d| d.max_degree()).max().unwrap_or(0)
    }

    /// Writes the predicate to `out`, each variable named by `names`: its
    /// disjuncts in parentheses joined by ` \/ `, and `false` for the empty
    /// disjunction.
    pub fn write_with(
        &self,
        out: &mut dyn fmt::Write,
        names: &dyn Fn(&mut dyn fmt::Write, Var) -> fmt::Result,
    ) -> fmt::Result {
        if self.disjuncts.is_empty() {
            return out.write_str("false");
        }
        for (i, d) in self.disjuncts.iter().enumerate() {
            out.write_str(if i > 0 { " \\/ (" } else { "(" })?;
            d.write_with(out, names)?;
            out.write_str(")")?;
        }
        Ok(())
    }

    /// Renders the predicate using a variable table for names.
    pub fn display_with(&self, vars: &VarTable) -> String {
        revterm_poly::render(|out| self.write_with(out, &|out, v| vars.write_name(out, v)))
    }
}

impl fmt::Display for PropPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_with(f, &|out, v| write!(out, "{v}"))
    }
}

/// A predicate map: one propositional predicate per location.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct PredicateMap {
    preds: Vec<PropPredicate>,
}

impl PredicateMap {
    /// Creates a predicate map assigning `true` to `num_locs` locations.
    pub fn tautology(num_locs: usize) -> PredicateMap {
        PredicateMap { preds: vec![PropPredicate::tautology(); num_locs] }
    }

    /// Creates a predicate map assigning `false` to `num_locs` locations.
    pub fn unsatisfiable(num_locs: usize) -> PredicateMap {
        PredicateMap { preds: vec![PropPredicate::unsatisfiable(); num_locs] }
    }

    /// Creates a predicate map from per-location predicates.
    pub fn from_vec(preds: Vec<PropPredicate>) -> PredicateMap {
        PredicateMap { preds }
    }

    /// Number of locations covered.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Returns `true` iff the map covers no locations.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// The predicate at a location.
    ///
    /// # Panics
    ///
    /// Panics if the location is out of range.
    pub fn at(&self, loc: Loc) -> &PropPredicate {
        &self.preds[loc.0]
    }

    /// Sets the predicate at a location.
    ///
    /// # Panics
    ///
    /// Panics if the location is out of range.
    pub fn set(&mut self, loc: Loc, pred: PropPredicate) {
        self.preds[loc.0] = pred;
    }

    /// Iterates over `(location, predicate)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Loc, &PropPredicate)> + '_ {
        self.preds.iter().enumerate().map(|(i, p)| (Loc(i), p))
    }

    /// The complement predicate map `¬I` (Section 2), exact over the integers.
    pub fn complement(&self) -> PredicateMap {
        PredicateMap { preds: self.preds.iter().map(|p| p.negate()).collect() }
    }

    /// The maximal `(c, d)` shape over all locations.
    pub fn shape(&self) -> (usize, usize) {
        let c = self.preds.iter().map(|p| p.shape().0).max().unwrap_or(0);
        let d = self.preds.iter().map(|p| p.shape().1).max().unwrap_or(0);
        (c, d)
    }

    /// Writes the map to `out`, one `location: predicate` line per
    /// location, each variable named by `names` and each location by
    /// `loc_names`.
    pub fn write_with(
        &self,
        out: &mut dyn fmt::Write,
        names: &dyn Fn(&mut dyn fmt::Write, Var) -> fmt::Result,
        loc_names: &dyn Fn(&mut dyn fmt::Write, Loc) -> fmt::Result,
    ) -> fmt::Result {
        for (loc, pred) in self.iter() {
            loc_names(out, loc)?;
            out.write_str(": ")?;
            pred.write_with(out, names)?;
            out.write_str("\n")?;
        }
        Ok(())
    }

    /// Renders the map using a variable table and location names.
    pub fn display_with(&self, vars: &VarTable, loc_names: &dyn Fn(Loc) -> String) -> String {
        revterm_poly::render(|out| {
            self.write_with(out, &|out, v| vars.write_name(out, v), &|out, loc| {
                out.write_str(&loc_names(loc))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revterm_num::{int, rat};

    fn x() -> Poly {
        Poly::var(Var(0))
    }
    fn y() -> Poly {
        Poly::var(Var(1))
    }

    #[test]
    fn assertion_basics() {
        let a = Assertion::ge_zero(x() - Poly::constant_i64(9)); // x - 9 >= 0
        assert_eq!(a.len(), 1);
        assert!(a.holds(&|_| rat(9)));
        assert!(a.holds(&|_| rat(100)));
        assert!(!a.holds(&|_| rat(8)));
        assert!(Assertion::tautology().holds(&|_| rat(-5)));
        assert!(!Assertion::unsatisfiable().holds(&|_| rat(0)));
        assert!(Assertion::unsatisfiable().is_trivially_false());
        assert!(Assertion::tautology().is_trivially_true());
    }

    #[test]
    fn assertion_eq_and_conjunction() {
        let eq = Assertion::eq_zero(x() - y());
        assert!(eq.holds(&|_| rat(3)));
        assert!(!eq.holds(&|v| if v == Var(0) { rat(3) } else { rat(4) }));
        let both = eq.and(&Assertion::ge_zero(x()));
        assert_eq!(both.len(), 3);
        assert!(!both.holds(&|_| rat(-1)));
    }

    #[test]
    fn assertion_negation_is_exact_on_integers() {
        let a = Assertion::from_polys([x(), y() - Poly::constant_i64(3)]); // x>=0 /\ y>=3
        let neg = a.negate();
        // Check on a grid of integer points: holds(neg) == !holds(a).
        for xv in -3..4 {
            for yv in 0..6 {
                let assign = move |v: Var| if v == Var(0) { int(xv) } else { int(yv) };
                assert_eq!(neg.holds_int(&assign), !a.holds_int(&assign), "at ({xv},{yv})");
            }
        }
        // Negation of `true` is `false`.
        assert!(Assertion::tautology().negate().is_empty());
    }

    #[test]
    fn predicate_operations() {
        let p = PropPredicate::from_disjuncts([
            Assertion::ge_zero(x() - Poly::constant_i64(5)),
            Assertion::ge_zero(-x() - Poly::constant_i64(5)),
        ]); // x >= 5 \/ x <= -5
        assert!(p.holds(&|_| rat(7)));
        assert!(p.holds(&|_| rat(-7)));
        assert!(!p.holds(&|_| rat(0)));
        assert_eq!(p.shape(), (1, 2));

        let q = p.negate(); // -5 < x < 5
        for v in -8..9_i64 {
            assert_eq!(q.holds(&|_| rat(v)), !(v >= 5 || v <= -5), "at {v}");
        }

        let conj = p.and(&PropPredicate::from_assertion(Assertion::ge_zero(y())));
        assert_eq!(conj.len(), 2);
        assert!(conj.holds(&|v| if v == Var(0) { rat(9) } else { rat(0) }));
        assert!(!conj.holds(&|v| if v == Var(0) { rat(9) } else { rat(-1) }));
    }

    #[test]
    fn predicate_true_false() {
        assert!(PropPredicate::tautology().is_trivially_true());
        assert!(PropPredicate::unsatisfiable().is_trivially_false());
        assert!(PropPredicate::unsatisfiable().negate().is_trivially_true());
        assert_eq!(PropPredicate::tautology().to_string(), "(true)");
        assert_eq!(PropPredicate::unsatisfiable().to_string(), "false");
    }

    #[test]
    fn predicate_map() {
        let mut m = PredicateMap::tautology(3);
        assert_eq!(m.len(), 3);
        m.set(Loc(1), PropPredicate::from_assertion(Assertion::ge_zero(x())));
        assert!(m.at(Loc(0)).is_trivially_true());
        assert!(!m.at(Loc(1)).is_trivially_true());
        let comp = m.complement();
        assert!(comp.at(Loc(0)).is_trivially_false());
        assert!(comp.at(Loc(1)).holds(&|_| rat(-1)));
        assert!(!comp.at(Loc(1)).holds(&|_| rat(0)));
        assert_eq!(m.shape(), (1, 1));
        assert_eq!(m.iter().count(), 3);
    }

    #[test]
    fn rename_and_substitute() {
        let a = Assertion::ge_zero(x() - y());
        let renamed = a.rename(&|v| Var(v.0 + 2));
        assert_eq!(renamed.vars(), vec![Var(2), Var(3)]);
        let substituted = a.substitute(&|v| {
            if v == Var(1) {
                Poly::constant_i64(3)
            } else {
                Poly::var(v)
            }
        });
        assert!(substituted.holds(&|_| rat(3)));
        assert!(!substituted.holds(&|_| rat(2)));
    }

    #[test]
    fn golden_renderings() {
        let vars = VarTable::new(vec!["x".into(), "y".into()]);
        // A primed name: x' - x - 1 >= 0 (`x` sorts before `x'`).
        let step = Assertion::ge_zero(Poly::var(vars.primed(0)) - x() - Poly::one());
        assert_eq!(step.display_with(&vars), "-x + x' - 1 >= 0");
        assert_eq!(step.to_string(), "-v0 + v2 - 1 >= 0");
        let both = step.and(&Assertion::ge_zero(y()));
        assert_eq!(both.display_with(&vars), "-x + x' - 1 >= 0 /\\ y >= 0");
        assert_eq!(Assertion::tautology().display_with(&vars), "true");
        assert_eq!(Assertion::tautology().to_string(), "true");
        assert_eq!(PropPredicate::unsatisfiable().display_with(&vars), "false");
        assert_eq!(PropPredicate::unsatisfiable().to_string(), "false");
        let pred = PropPredicate::from_disjuncts([both, Assertion::tautology()]);
        assert_eq!(pred.to_string(), "(-v0 + v2 - 1 >= 0 /\\ v1 >= 0) \\/ (true)");
        let map = PredicateMap::from_vec(vec![pred, PropPredicate::unsatisfiable()]);
        assert_eq!(
            map.display_with(&vars, &|l| l.to_string()),
            "l0: (-x + x' - 1 >= 0 /\\ y >= 0) \\/ (true)\nl1: false\n"
        );
    }

    #[test]
    fn display() {
        let vars = VarTable::new(vec!["x".into(), "y".into()]);
        let a = Assertion::ge_zero(x() - Poly::constant_i64(9));
        assert_eq!(a.display_with(&vars), "x - 9 >= 0");
        let p = PropPredicate::from_disjuncts([a, Assertion::tautology()]);
        assert_eq!(p.display_with(&vars), "(x - 9 >= 0) \\/ (true)");
    }
}
