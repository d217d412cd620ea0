//! The one witness format of an entailment: a nonnegative combination of
//! premise products.
//!
//! The solver's multiplier LPs and the interval closure's derivations both
//! emit a [`Combination`], and certificate evidence stores it; the check
//! ([`Combination::certifies`]) needs only `Poly`/`Rat` arithmetic.

use crate::{Monomial, Poly};
use revterm_num::Rat;

/// A nonnegative combination of premise products,
///
/// ```text
/// Σ_j λ_j · Π_{i ∈ F_j} g_i        with every λ_j > 0,
/// ```
///
/// where each `F_j` is a multiset of premise indices (the empty multiset is
/// the constant product `1`). A combination whose sum is the conclusion
/// certifies an entailment; one whose sum is `−1` certifies that the
/// premises are unsatisfiable, and so entail anything. It names premises,
/// not columns of the solver's product list, so it is checked without
/// rebuilding that list ([`Combination::certifies`]).
///
/// The factor runs of all terms share one buffer, so a term costs its
/// multiplier plus a few index words and no allocation of its own.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Combination {
    /// The premise indices of every term's product, concatenated.
    factors: Vec<u32>,
    /// Per term: the end of its run in `factors`, and its multiplier.
    terms: Vec<(u32, Rat)>,
}

impl Combination {
    /// The empty combination (its sum is `0`).
    pub fn new() -> Combination {
        Combination::default()
    }

    /// The one-term combination `c · 1` of a constant `c ≥ 0` (no term at
    /// all for `c = 0`).
    pub fn constant(c: Rat) -> Combination {
        let mut comb = Combination::new();
        if c.is_positive() {
            comb.push(&[], c);
        }
        comb
    }

    /// Appends the term `lambda · Π_{i ∈ factors} g_i`.
    pub fn push(&mut self, factors: &[u32], lambda: Rat) {
        self.factors.extend_from_slice(factors);
        let end = u32::try_from(self.factors.len()).expect("factor buffer fits u32 offsets");
        self.terms.push((end, lambda));
    }

    /// The terms as `(premise indices, λ)` pairs, in insertion order.
    pub fn terms(&self) -> impl Iterator<Item = (&[u32], &Rat)> + '_ {
        let mut start = 0;
        self.terms.iter().map(move |(end, lambda)| {
            let factors = &self.factors[start..*end as usize];
            start = *end as usize;
            (factors, lambda)
        })
    }

    /// The sum `Σ_j λ_j · Π_{i ∈ F_j} premises[i]`, or `None` if a factor
    /// index is out of range or some `λ_j` is not strictly positive (such a
    /// sum is not known to be nonnegative on the premise set).
    fn sum(&self, premises: &[Poly]) -> Option<Poly> {
        let mut terms = Vec::new();
        for (factors, lambda) in self.terms() {
            if !lambda.is_positive() {
                return None;
            }
            let Some((&first, rest)) = factors.split_first() else {
                terms.push((Monomial::one(), lambda.clone()));
                continue;
            };
            // Single premises — every term of a Farkas combination — are
            // scaled straight into the sum; only real products are built.
            let first = premises.get(first as usize)?;
            let product;
            let poly = if rest.is_empty() {
                first
            } else {
                let mut p = first.clone();
                for &i in rest {
                    p = &p * premises.get(i as usize)?;
                }
                product = p;
                &product
            };
            terms.extend(poly.flat_terms().iter().map(|(m, c)| (*m, c * lambda)));
        }
        Some(Poly::from_terms(terms))
    }

    /// Checks, with `Poly`/`Rat` arithmetic only, that this combination
    /// proves `⋀ premises ≥ 0 ⟹ conclusion ≥ 0`: every multiplier is
    /// positive, every index names a premise, and the sum equals the
    /// conclusion coefficient by coefficient — or equals `−1`, refuting the
    /// premises. Pass `−1` as the conclusion to accept only a refutation.
    pub fn certifies(&self, premises: &[Poly], conclusion: &Poly) -> bool {
        self.sum(premises).is_some_and(|sum| {
            sum == *conclusion || sum.as_constant().is_some_and(|c| c == Rat::from(-1))
        })
    }

    /// Releases the buffers' spare capacity, for a combination that is
    /// kept (memoized evidence) rather than checked and dropped.
    pub fn shrink_to_fit(&mut self) {
        self.factors.shrink_to_fit();
        self.terms.shrink_to_fit();
    }
}
