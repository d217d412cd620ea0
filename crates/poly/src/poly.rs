//! Multivariate polynomials with rational coefficients.

use crate::{LinExpr, Monomial, Var};
use revterm_num::{Int, Rat};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// A multivariate polynomial with [`Rat`] coefficients.
///
/// Stored as a flat `Vec` of `(monomial, coefficient)` pairs, sorted by the
/// canonical [`Monomial`] order with no zero coefficients — the same
/// canonical sequence the previous `BTreeMap` representation iterated, now
/// contiguous in memory.  Addition and subtraction are sorted-list merges,
/// multiplication expands cross products and coalesces one sorted run, and
/// cache layers can hash or ship the term stream directly via
/// [`Poly::flat_terms`] without walking a tree.
///
/// ```
/// use revterm_poly::{Poly, Var};
/// use revterm_num::rat;
/// let x = Poly::var(Var(0));
/// let p = &x * &x - Poly::constant(rat(4));
/// assert_eq!(p.eval(&|_| rat(3)), rat(5));
/// assert_eq!(p.total_degree(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Poly {
    /// Sorted by [`Monomial`]'s canonical order; no zero coefficients.
    terms: Vec<(Monomial, Rat)>,
}

impl Poly {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Poly { terms: Vec::new() }
    }

    /// The constant polynomial `1`.
    pub fn one() -> Self {
        Poly::constant(Rat::one())
    }

    /// A constant polynomial.
    pub fn constant(c: Rat) -> Self {
        Poly::from_term(Monomial::one(), c)
    }

    /// A constant polynomial from an `i64`.
    pub fn constant_i64(c: i64) -> Self {
        Poly::constant(Rat::from(c))
    }

    /// The polynomial consisting of a single variable.
    pub fn var(v: Var) -> Self {
        Poly::from_term(Monomial::var(v), Rat::one())
    }

    /// A single term `c * m`.
    pub fn from_term(m: Monomial, c: Rat) -> Self {
        let mut terms = Vec::new();
        if !c.is_zero() {
            terms.push((m, c));
        }
        Poly { terms }
    }

    /// Builds a polynomial from `(monomial, coefficient)` pairs, merging
    /// duplicates and dropping zero coefficients.
    pub fn from_terms<I: IntoIterator<Item = (Monomial, Rat)>>(iter: I) -> Self {
        let mut terms: Vec<(Monomial, Rat)> = iter.into_iter().collect();
        terms.sort_by_key(|t| t.0);
        let p = Poly { terms: coalesce_sorted(terms) };
        p.debug_assert_canonical();
        p
    }

    /// Adds `c * m` in place.
    pub fn add_term(&mut self, m: Monomial, c: Rat) {
        if c.is_zero() {
            return;
        }
        match self.terms.binary_search_by(|(k, _)| k.cmp(&m)) {
            Ok(i) => {
                self.terms[i].1 += &c;
                if self.terms[i].1.is_zero() {
                    self.terms.remove(i);
                }
            }
            Err(i) => {
                debug_assert!(
                    i == 0 || self.terms[i - 1].0 < m,
                    "poly insertion breaks monomial order"
                );
                debug_assert!(
                    i == self.terms.len() || m < self.terms[i].0,
                    "poly insertion breaks monomial order"
                );
                self.terms.insert(i, (m, c));
            }
        }
    }

    /// Canonical-form invariant: monomial keys strictly increasing, no zero
    /// coefficients.  Every kernel (add, mul, substitution, renaming) relies
    /// on it; `cargo test` runs with `debug_assertions` on, so any violation
    /// fails loudly there while release builds pay nothing.  Checked in full
    /// only on whole-poly construction — per-insertion paths use O(1)
    /// neighbor checks to keep debug builds near release speed.
    #[inline]
    fn debug_assert_canonical(&self) {
        debug_assert!(
            self.terms.windows(2).all(|w| w[0].0 < w[1].0),
            "poly terms not strictly increasing by monomial key"
        );
        debug_assert!(
            self.terms.iter().all(|(_, c)| !c.is_zero()),
            "poly retains an explicit zero coefficient"
        );
    }

    /// Returns `true` iff this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// Returns `true` iff the polynomial is a constant (possibly zero).
    pub fn is_constant(&self) -> bool {
        self.terms.iter().all(|(m, _)| m.is_one())
    }

    /// Returns the constant value if the polynomial is constant.
    pub fn as_constant(&self) -> Option<Rat> {
        if self.is_constant() {
            Some(self.constant_term())
        } else {
            None
        }
    }

    /// The coefficient of the constant monomial.
    pub fn constant_term(&self) -> Rat {
        // The constant monomial is the minimum of the canonical order, so it
        // can only sit in slot 0.
        match self.terms.first() {
            Some((m, c)) if m.is_one() => c.clone(),
            _ => Rat::zero(),
        }
    }

    /// The coefficient of a monomial (zero if absent).
    pub fn coefficient(&self, m: &Monomial) -> Rat {
        match self.terms.binary_search_by(|(k, _)| k.cmp(m)) {
            Ok(i) => self.terms[i].1.clone(),
            Err(_) => Rat::zero(),
        }
    }

    /// Iterates over `(monomial, coefficient)` pairs in canonical order.
    pub fn terms(&self) -> impl Iterator<Item = (&Monomial, &Rat)> + '_ {
        self.terms.iter().map(|(m, c)| (m, c))
    }

    /// The raw sorted term slice: `(monomial, coefficient)` pairs in
    /// canonical order with no zero coefficients.
    ///
    /// This is the zero-copy ingestion surface for cache-key hashing and
    /// sparse-row construction: monomials are single-word `Copy` keys, so a
    /// consumer can fold the whole polynomial into a hasher (or an LP row)
    /// as one flat word stream without cloning anything.
    pub fn flat_terms(&self) -> &[(Monomial, Rat)] {
        &self.terms
    }

    /// Number of (non-zero) terms.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Total degree (degree of the zero polynomial is 0 by convention).
    pub fn total_degree(&self) -> u32 {
        self.terms.iter().map(|(m, _)| m.degree()).max().unwrap_or(0)
    }

    /// The set of variables that occur in the polynomial.
    pub fn vars(&self) -> Vec<Var> {
        let mut out: Vec<Var> = self.terms.iter().flat_map(|(m, _)| m.vars()).collect();
        out.sort();
        out.dedup();
        out
    }

    /// Multiplies the polynomial by a scalar.
    pub fn scale(&self, c: &Rat) -> Poly {
        if c.is_zero() {
            return Poly::zero();
        }
        if c.is_one() {
            return self.clone();
        }
        Poly { terms: self.terms.iter().map(|(m, v)| (*m, v * c)).collect() }
    }

    /// Raises the polynomial to a non-negative power.
    pub fn pow(&self, exp: u32) -> Poly {
        let mut result = Poly::one();
        for _ in 0..exp {
            result = &result * self;
        }
        result
    }

    /// Evaluates the polynomial under a total variable assignment.
    pub fn eval(&self, assignment: &dyn Fn(Var) -> Rat) -> Rat {
        let mut acc = Rat::zero();
        for (m, c) in &self.terms {
            let mut term = c.clone();
            for (v, e) in m.iter() {
                term *= &assignment(v).pow(e);
            }
            acc += &term;
        }
        acc
    }

    /// Evaluates the polynomial at an integer point.
    ///
    /// Equivalent to `eval(&|v| Rat::from(assignment(v)))` but each monomial
    /// is evaluated in plain integer arithmetic, so only one rational
    /// multiply-add (with its gcd normalisation) is paid per term instead of
    /// one per variable power.  The interpreter calls this on every guard
    /// atom of every step, which makes the difference measurable.
    pub fn eval_at_int_point(&self, assignment: &dyn Fn(Var) -> Int) -> Rat {
        let mut acc = Rat::zero();
        for (m, c) in &self.terms {
            let mut mv = Int::one();
            for (v, e) in m.iter() {
                mv *= &assignment(v).pow(e);
            }
            acc += &(c * &Rat::from(mv));
        }
        acc
    }

    /// Evaluates the polynomial under an integer assignment, returning an
    /// integer when all coefficients are integral, and `None` otherwise.
    pub fn eval_int(&self, assignment: &dyn Fn(Var) -> Int) -> Option<Int> {
        self.eval_at_int_point(assignment).to_int()
    }

    /// Substitutes polynomials for variables: every occurrence of a variable
    /// `v` is replaced by `subst(v)` (which may be the variable itself).
    pub fn substitute(&self, subst: &dyn Fn(Var) -> Poly) -> Poly {
        let mut acc = Poly::zero();
        for (m, c) in &self.terms {
            let mut term = Poly::constant(c.clone());
            for (v, e) in m.iter() {
                let repl = subst(v);
                term = &term * &repl.pow(e);
            }
            acc = &acc + &term;
        }
        acc
    }

    /// Renames variables using the given map (a special case of
    /// [`Poly::substitute`] that avoids re-expansion).
    pub fn rename(&self, map: &dyn Fn(Var) -> Var) -> Poly {
        let mut out = Poly::zero();
        for (m, c) in &self.terms {
            let renamed = Monomial::from_pairs(m.iter().map(|(v, e)| (map(v), e)));
            out.add_term(renamed, c.clone());
        }
        out
    }

    /// Returns the linear view of the polynomial if its degree is at most 1.
    pub fn as_linear(&self) -> Option<LinExpr> {
        if self.total_degree() > 1 {
            return None;
        }
        let mut lin = LinExpr::constant(self.constant_term());
        for (m, c) in &self.terms {
            if m.is_one() {
                continue;
            }
            let mut vars = m.iter();
            let (v, e) = vars.next().expect("non-constant monomial has a variable");
            debug_assert_eq!(e, 1);
            debug_assert!(vars.next().is_none());
            lin.add_coeff(v, c.clone());
        }
        Some(lin)
    }

    /// Writes the polynomial to `out`, each variable named by `names`:
    /// terms by descending total degree, terms of one degree in canonical
    /// order, as in `2*x^2 - y + 7`, and `0` for the zero polynomial.
    pub fn write_with(
        &self,
        out: &mut dyn fmt::Write,
        names: &dyn Fn(&mut dyn fmt::Write, Var) -> fmt::Result,
    ) -> fmt::Result {
        if self.is_zero() {
            return out.write_str("0");
        }
        // One pass per degree present, highest first, so the order needs no
        // sorted copy of the terms.
        let mut first = true;
        let mut degree = Some(self.total_degree());
        while let Some(d) = degree {
            for (m, c) in self.terms().filter(|(m, _)| m.degree() == d) {
                match (first, c.is_negative()) {
                    (true, true) => out.write_str("-")?,
                    (true, false) => {}
                    (false, true) => out.write_str(" - ")?,
                    (false, false) => out.write_str(" + ")?,
                }
                first = false;
                let abs = c.abs();
                if m.is_one() {
                    write!(out, "{abs}")?;
                } else {
                    if !abs.is_one() {
                        write!(out, "{abs}*")?;
                    }
                    m.write_with(out, names)?;
                }
            }
            degree = self.terms().map(|(m, _)| m.degree()).filter(|&e| e < d).max();
        }
        Ok(())
    }

    /// Renders the polynomial using a variable name resolver.
    pub fn display_with(&self, names: &dyn Fn(Var) -> String) -> String {
        crate::render(|out| self.write_with(out, &|out, v| out.write_str(&names(v))))
    }
}

/// Sums runs of equal monomials in a sorted term list and drops zeros.
fn coalesce_sorted(terms: Vec<(Monomial, Rat)>) -> Vec<(Monomial, Rat)> {
    let mut out: Vec<(Monomial, Rat)> = Vec::with_capacity(terms.len());
    for (m, c) in terms {
        match out.last_mut() {
            Some(last) if last.0 == m => last.1 += &c,
            _ => {
                out.push((m, c));
                continue;
            }
        }
        if out.last().is_some_and(|(_, c)| c.is_zero()) {
            out.pop();
        }
    }
    out.retain(|(_, c)| !c.is_zero());
    out
}

impl fmt::Display for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_with(f, &|out, v| write!(out, "{v}"))
    }
}

impl From<LinExpr> for Poly {
    fn from(lin: LinExpr) -> Self {
        let mut p = Poly::constant(lin.constant_part().clone());
        for (v, c) in lin.coeffs() {
            p.add_term(Monomial::var(*v), c.clone());
        }
        p
    }
}

impl From<Rat> for Poly {
    fn from(c: Rat) -> Self {
        Poly::constant(c)
    }
}

impl<'b> Add<&'b Poly> for &Poly {
    type Output = Poly;
    fn add(self, rhs: &'b Poly) -> Poly {
        merge_terms(&self.terms, &rhs.terms, false)
    }
}

impl<'b> Sub<&'b Poly> for &Poly {
    type Output = Poly;
    fn sub(self, rhs: &'b Poly) -> Poly {
        merge_terms(&self.terms, &rhs.terms, true)
    }
}

/// Merges two sorted term lists, adding (or subtracting) coefficients of
/// equal monomials and dropping exact cancellations.
fn merge_terms(a: &[(Monomial, Rat)], b: &[(Monomial, Rat)], negate_b: bool) -> Poly {
    let mut out: Vec<(Monomial, Rat)> = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            Ordering::Less => {
                out.push(a[i].clone());
                i += 1;
            }
            Ordering::Greater => {
                let (m, c) = &b[j];
                out.push((*m, if negate_b { -c.clone() } else { c.clone() }));
                j += 1;
            }
            Ordering::Equal => {
                let c = if negate_b { &a[i].1 - &b[j].1 } else { &a[i].1 + &b[j].1 };
                if !c.is_zero() {
                    out.push((a[i].0, c));
                }
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    for (m, c) in &b[j..] {
        out.push((*m, if negate_b { -c.clone() } else { c.clone() }));
    }
    Poly { terms: out }
}

impl<'b> Mul<&'b Poly> for &Poly {
    type Output = Poly;
    fn mul(self, rhs: &'b Poly) -> Poly {
        // Constant factors never change the monomial set: skip the expansion
        // and reuse the other operand's sorted terms.  The `products` stage
        // of the entailment oracle multiplies by `1` on every query, so this
        // path is hot.
        if self.is_constant() {
            return rhs.scale(&self.constant_term());
        }
        if rhs.is_constant() {
            return self.scale(&rhs.constant_term());
        }
        // Expand all cross products, then coalesce one sorted run.  The
        // monomial products are Copy keys, so the expansion is a flat buffer
        // of word pairs plus the coefficient products.
        let mut prods: Vec<(Monomial, Rat)> =
            Vec::with_capacity(self.terms.len() * rhs.terms.len());
        for (m1, c1) in &self.terms {
            for (m2, c2) in &rhs.terms {
                prods.push((m1.mul(m2), c1 * c2));
            }
        }
        prods.sort_unstable_by_key(|t| t.0);
        Poly { terms: coalesce_sorted(prods) }
    }
}

macro_rules! forward_poly_binop {
    ($trait:ident, $method:ident) => {
        impl $trait<Poly> for Poly {
            type Output = Poly;
            fn $method(self, rhs: Poly) -> Poly {
                (&self).$method(&rhs)
            }
        }
        impl<'a> $trait<&'a Poly> for Poly {
            type Output = Poly;
            fn $method(self, rhs: &'a Poly) -> Poly {
                (&self).$method(rhs)
            }
        }
        impl<'a> $trait<Poly> for &'a Poly {
            type Output = Poly;
            fn $method(self, rhs: Poly) -> Poly {
                self.$method(&rhs)
            }
        }
    };
}

forward_poly_binop!(Add, add);
forward_poly_binop!(Sub, sub);
forward_poly_binop!(Mul, mul);

impl Neg for Poly {
    type Output = Poly;
    fn neg(self) -> Poly {
        // Negation never needs re-reduction; avoid the multiply of `scale`.
        Poly { terms: self.terms.into_iter().map(|(m, c)| (m, -c)).collect() }
    }
}

impl Neg for &Poly {
    type Output = Poly;
    fn neg(self) -> Poly {
        -self.clone()
    }
}

impl std::iter::Sum for Poly {
    fn sum<I: Iterator<Item = Poly>>(iter: I) -> Poly {
        iter.fold(Poly::zero(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revterm_num::{rat, SplitMix64};
    use std::collections::BTreeMap;

    /// In `lo..hi` (the upper end excluded).
    fn in_range(rng: &mut SplitMix64, lo: i64, hi: i64) -> i64 {
        lo + (rng.next_u64() as i64).rem_euclid(hi - lo)
    }

    fn x() -> Poly {
        Poly::var(Var(0))
    }
    fn y() -> Poly {
        Poly::var(Var(1))
    }

    #[test]
    fn construction_and_constants() {
        assert!(Poly::zero().is_zero());
        assert_eq!(Poly::constant(rat(0)), Poly::zero());
        assert!(Poly::one().is_constant());
        assert_eq!(Poly::constant_i64(5).as_constant(), Some(rat(5)));
        assert_eq!(x().as_constant(), None);
        assert_eq!(Poly::one().num_terms(), 1);
    }

    #[test]
    fn arithmetic_basics() {
        let p = &x() + &y();
        let q = &x() - &y();
        let prod = &p * &q; // x^2 - y^2
        assert_eq!(prod.coefficient(&Monomial::from_pairs([(Var(0), 2)])), rat(1));
        assert_eq!(prod.coefficient(&Monomial::from_pairs([(Var(1), 2)])), rat(-1));
        assert_eq!(prod.coefficient(&Monomial::from_pairs([(Var(0), 1), (Var(1), 1)])), rat(0));
        assert_eq!(prod.total_degree(), 2);
    }

    #[test]
    fn cancellation_yields_zero() {
        let p = &x() * &x() + x();
        let q = -(&x() * &x() + x());
        assert!((&p + &q).is_zero());
        assert_eq!((&p - &p), Poly::zero());
    }

    #[test]
    fn pow_and_eval() {
        let p = (&x() + &y()).pow(3);
        assert_eq!(p.total_degree(), 3);
        // (2 + 3)^3 = 125
        assert_eq!(p.eval(&|v| if v == Var(0) { rat(2) } else { rat(3) }), rat(125));
        assert_eq!(p.pow(0), Poly::one());
    }

    #[test]
    fn eval_int() {
        let p = &x() * &x() - Poly::constant_i64(1);
        let v = p.eval_int(&|_| revterm_num::int(5)).unwrap();
        assert_eq!(v, revterm_num::int(24));
        let half = Poly::constant(rat(1) / rat(2));
        assert!(half.eval_int(&|_| revterm_num::int(0)).is_none());
    }

    #[test]
    fn substitution() {
        // p = x^2 + y, substitute x -> y + 1 gives y^2 + 3y + 1 at y (check at y=2: 4+6+1=11)
        let p = &(&x() * &x()) + &y();
        let q = p.substitute(&|v| {
            if v == Var(0) {
                &y() + &Poly::one()
            } else {
                Poly::var(v)
            }
        });
        assert_eq!(q.eval(&|_| rat(2)), rat(11));
    }

    #[test]
    fn rename() {
        let p = &x() * &y();
        let q = p.rename(&|v| Var(v.0 + 10));
        assert_eq!(q.vars(), vec![Var(10), Var(11)]);
        assert_eq!(q.total_degree(), 2);
    }

    #[test]
    fn linear_view() {
        let p = &x().scale(&rat(2)) + &Poly::constant_i64(3);
        let lin = p.as_linear().unwrap();
        assert_eq!(lin.coeff(Var(0)), rat(2));
        assert_eq!(lin.constant_part().clone(), rat(3));
        assert!((&x() * &x()).as_linear().is_none());
        let back: Poly = lin.into();
        assert_eq!(back, p);
    }

    #[test]
    fn display() {
        let p = &(&x() * &x()).scale(&rat(2)) - &y() + Poly::constant_i64(7);
        let s = p.display_with(&|v| if v == Var(0) { "x".into() } else { "y".into() });
        assert_eq!(s, "2*x^2 - y + 7");
        assert_eq!(Poly::zero().to_string(), "0");
        assert_eq!((-x()).to_string(), "-v0");
    }

    #[test]
    fn golden_renderings() {
        let names = |v: Var| ["x", "y", "z"][v.index()].to_string();
        let frac = |n: i64, d: i64| Rat::new(revterm_num::int(n), revterm_num::int(d));
        // Descending degree; terms of one degree keep the canonical order
        // (`x*y` before `x^2` before `y^2`, `x` before `y`).
        let p = &(&x() + &y()).pow(2) - &(&x() * &y()) + &x() + &y() + Poly::one();
        assert_eq!(p.display_with(&names), "x*y + x^2 + y^2 + x + y + 1");
        // A leading negative coefficient, rational ones and a negative constant.
        let q = &(&(&x() * &x()).scale(&frac(-3, 2)) + &y().scale(&frac(1, 2)))
            - &Poly::constant(frac(2, 3))
            - Poly::constant_i64(7);
        assert_eq!(q.display_with(&names), "-3/2*x^2 + 1/2*y - 23/3");
        assert_eq!(q.to_string(), "-3/2*v0^2 + 1/2*v1 - 23/3");
        assert_eq!((-&y().scale(&frac(2, 3))).display_with(&names), "-2/3*y");
        // A three-factor monomial lives in the interned tier.
        let xyz = Monomial::from_pairs([(Var(0), 2), (Var(1), 1), (Var(2), 3)]);
        assert!(!xyz.is_packed());
        assert_eq!(xyz.display_with(&names), "x^2*y*z^3");
        assert_eq!(xyz.to_string(), "v0^2*v1*v2^3");
        let r = Poly::from_terms([(xyz, rat(-1)), (Monomial::var(Var(2)), rat(4))]);
        assert_eq!(r.display_with(&names), "-x^2*y*z^3 + 4*z");
        assert_eq!(Poly::zero().display_with(&names), "0");
        assert_eq!(Poly::constant_i64(-5).to_string(), "-5");
    }

    #[test]
    fn vars() {
        let p = &x() * &Poly::var(Var(7)) + Poly::var(Var(3));
        assert_eq!(p.vars(), vec![Var(0), Var(3), Var(7)]);
        assert!(Poly::one().vars().is_empty());
    }

    #[test]
    fn terms_are_sorted_and_nonzero() {
        let mut rng = SplitMix64::new(20);
        for _ in 0..64 {
            let p = small_poly(&mut rng);
            let ms: Vec<&Monomial> = p.terms().map(|(m, _)| m).collect();
            assert!(ms.windows(2).all(|w| w[0] < w[1]), "terms out of order: {p}");
            assert!(p.terms().all(|(_, c)| !c.is_zero()), "zero coeff kept: {p}");
            assert_eq!(p.flat_terms().len(), p.num_terms());
        }
    }

    // Random polynomials over 3 variables with small integer coefficients.
    fn small_poly(rng: &mut SplitMix64) -> Poly {
        let n_terms = in_range(rng, 0, 6) as usize;
        Poly::from_terms((0..n_terms).map(|_| {
            let v = in_range(rng, 0, 3) as u32;
            let e = in_range(rng, 0, 3) as u32;
            let c = in_range(rng, -5, 6);
            (Monomial::from_pairs([(Var(v), e)]), rat(c))
        }))
    }

    // Random polynomials that straddle the packed/interned monomial tiers:
    // up to 3 factors per monomial with exponents past the packed limit.
    fn mixed_tier_poly(rng: &mut SplitMix64) -> Poly {
        let n_terms = in_range(rng, 0, 5) as usize;
        Poly::from_terms((0..n_terms).map(|_| {
            let n_factors = in_range(rng, 0, 4) as usize;
            let m = Monomial::from_pairs((0..n_factors).map(|_| {
                let v = in_range(rng, 0, 4) as u32;
                let e = in_range(rng, 0, 20) as u32;
                (Var(v), e)
            }));
            (m, rat(in_range(rng, -5, 6)))
        }))
    }

    #[test]
    fn prop_add_commutative() {
        let mut rng = SplitMix64::new(21);
        for _ in 0..128 {
            let p = small_poly(&mut rng);
            let q = small_poly(&mut rng);
            assert_eq!(&p + &q, &q + &p);
        }
    }

    #[test]
    fn prop_mul_commutative() {
        let mut rng = SplitMix64::new(22);
        for _ in 0..128 {
            let p = small_poly(&mut rng);
            let q = small_poly(&mut rng);
            assert_eq!(&p * &q, &q * &p);
        }
    }

    #[test]
    fn prop_distributivity() {
        let mut rng = SplitMix64::new(23);
        for _ in 0..128 {
            let p = small_poly(&mut rng);
            let q = small_poly(&mut rng);
            let r = small_poly(&mut rng);
            assert_eq!(&p * &(&q + &r), &p * &q + &p * &r);
        }
    }

    #[test]
    fn prop_eval_homomorphic() {
        let mut rng = SplitMix64::new(24);
        for _ in 0..128 {
            let p = small_poly(&mut rng);
            let q = small_poly(&mut rng);
            let (a, b, c) =
                (in_range(&mut rng, -4, 5), in_range(&mut rng, -4, 5), in_range(&mut rng, -4, 5));
            let assign = move |v: Var| match v.0 {
                0 => rat(a),
                1 => rat(b),
                _ => rat(c),
            };
            let sum_eval = (&p + &q).eval(&assign);
            let prod_eval = (&p * &q).eval(&assign);
            assert_eq!(sum_eval, &p.eval(&assign) + &q.eval(&assign));
            assert_eq!(prod_eval, &p.eval(&assign) * &q.eval(&assign));
        }
    }

    #[test]
    fn prop_substitute_identity() {
        let mut rng = SplitMix64::new(25);
        for _ in 0..128 {
            let p = small_poly(&mut rng);
            assert_eq!(p.substitute(&Poly::var), p);
        }
    }

    #[test]
    fn prop_neg_is_additive_inverse() {
        let mut rng = SplitMix64::new(26);
        for _ in 0..128 {
            let p = small_poly(&mut rng);
            assert!((&p + &(-p.clone())).is_zero());
        }
    }

    /// Reference polynomial semantics on the old `BTreeMap` representation,
    /// for the differential loop below.
    #[derive(Debug, PartialEq, Eq)]
    struct RefPoly(BTreeMap<Monomial, Rat>);

    impl RefPoly {
        fn of(p: &Poly) -> RefPoly {
            RefPoly(p.terms().map(|(m, c)| (*m, c.clone())).collect())
        }

        fn add_term(&mut self, m: Monomial, c: &Rat) {
            if c.is_zero() {
                return;
            }
            let entry = self.0.entry(m).or_insert_with(Rat::zero);
            *entry += c;
            if entry.is_zero() {
                self.0.remove(&m);
            }
        }

        fn add(&self, other: &RefPoly) -> RefPoly {
            let mut out = RefPoly(self.0.clone());
            for (m, c) in &other.0 {
                out.add_term(*m, c);
            }
            out
        }

        fn mul(&self, other: &RefPoly) -> RefPoly {
            let mut out = RefPoly(BTreeMap::new());
            for (m1, c1) in &self.0 {
                for (m2, c2) in &other.0 {
                    out.add_term(m1.mul(m2), &(c1 * c2));
                }
            }
            out
        }

        fn substitute(&self, subst: &dyn Fn(Var) -> Poly) -> RefPoly {
            let mut acc = RefPoly(BTreeMap::new());
            for (m, c) in &self.0 {
                let mut term = RefPoly::of(&Poly::constant(c.clone()));
                for (v, e) in m.iter() {
                    let repl = RefPoly::of(&subst(v));
                    for _ in 0..e {
                        term = term.mul(&repl);
                    }
                }
                acc = acc.add(&term);
            }
            acc
        }
    }

    #[test]
    fn prop_flat_kernels_match_btreemap_reference() {
        // Differential loop: the flat merge/coalesce kernels must agree with
        // the old BTreeMap entry-at-a-time semantics — same terms, same
        // canonical iteration order — including across the packed/interned
        // monomial tier boundary.
        let mut rng = SplitMix64::new(27);
        for round in 0..96 {
            let p = mixed_tier_poly(&mut rng);
            let q = mixed_tier_poly(&mut rng);
            let (rp, rq) = (RefPoly::of(&p), RefPoly::of(&q));

            let sum = &p + &q;
            assert_eq!(RefPoly::of(&sum), rp.add(&rq), "add mismatch round {round}");
            let diff = &p - &q;
            let sum_back = &diff + &q;
            assert_eq!(sum_back, p, "sub/add roundtrip mismatch round {round}");
            let prod = &p * &q;
            assert_eq!(RefPoly::of(&prod), rp.mul(&rq), "mul mismatch round {round}");

            // Substitution: x -> y + 1, everything else identity.
            let subst = |v: Var| {
                if v == Var(0) {
                    &Poly::var(Var(1)) + &Poly::one()
                } else {
                    Poly::var(v)
                }
            };
            assert_eq!(
                RefPoly::of(&p.substitute(&subst)),
                rp.substitute(&subst),
                "substitute mismatch round {round}"
            );

            // The canonical term sequence is exactly the BTreeMap iteration
            // order (this is what keeps LP row order and digests stable).
            let flat: Vec<Monomial> = prod.terms().map(|(m, _)| *m).collect();
            let tree: Vec<Monomial> = RefPoly::of(&prod).0.into_keys().collect();
            assert_eq!(flat, tree, "order mismatch round {round}");
        }
    }
}
