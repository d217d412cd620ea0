//! Closed rational intervals with optional infinite endpoints.
//!
//! [`Interval`] is the value domain shared by the premise closure
//! ([`crate::closure`]) and the per-location abstract interpreter
//! ([`crate::analysis`]).  An interval is always **nonempty**; emptiness
//! (unreachability / contradiction) is represented by the callers, so every
//! operation here either returns another nonempty interval or an `Option`
//! when the result may be empty ([`Interval::meet`], [`Interval::new`]).

use revterm_num::Rat;
use std::fmt;

/// A nonempty closed interval `[lo, hi]` over the rationals.
///
/// A `None` bound means the interval is unbounded on that side (−∞ / +∞).
/// The invariant `lo <= hi` holds whenever both bounds are finite.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Interval {
    lo: Option<Rat>,
    hi: Option<Rat>,
}

/// Extended rational used internally for endpoint arithmetic.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Ext {
    NegInf,
    Fin(Rat),
    PosInf,
}

impl Ext {
    fn from_lo(b: &Option<Rat>) -> Ext {
        b.as_ref().map_or(Ext::NegInf, |r| Ext::Fin(r.clone()))
    }

    fn from_hi(b: &Option<Rat>) -> Ext {
        b.as_ref().map_or(Ext::PosInf, |r| Ext::Fin(r.clone()))
    }

    fn into_lo(self) -> Option<Rat> {
        match self {
            Ext::Fin(r) => Some(r),
            _ => None,
        }
    }

    fn into_hi(self) -> Option<Rat> {
        match self {
            Ext::Fin(r) => Some(r),
            _ => None,
        }
    }

    /// Extended multiplication with the standard interval-arithmetic
    /// convention `0 · ±∞ = 0` (sound for closed interval endpoints).
    fn mul(&self, other: &Ext) -> Ext {
        match (self, other) {
            (Ext::Fin(a), Ext::Fin(b)) => Ext::Fin(a * b),
            (Ext::Fin(a), inf) | (inf, Ext::Fin(a)) => {
                if a.is_zero() {
                    Ext::Fin(Rat::zero())
                } else if a.is_positive() == (*inf == Ext::PosInf) {
                    Ext::PosInf
                } else {
                    Ext::NegInf
                }
            }
            (Ext::PosInf, Ext::PosInf) | (Ext::NegInf, Ext::NegInf) => Ext::PosInf,
            _ => Ext::NegInf,
        }
    }
}

impl Interval {
    /// The unconstrained interval `(-∞, +∞)`.
    pub fn top() -> Interval {
        Interval { lo: None, hi: None }
    }

    /// The singleton interval `[v, v]`.
    pub fn point(v: Rat) -> Interval {
        Interval { lo: Some(v.clone()), hi: Some(v) }
    }

    /// `[lo, +∞)` when `hi` is `None`, `(-∞, hi]` when `lo` is `None`, etc.
    ///
    /// Returns `None` when both bounds are finite and `lo > hi` (the empty
    /// interval, which this type does not represent).
    pub fn new(lo: Option<Rat>, hi: Option<Rat>) -> Option<Interval> {
        if let (Some(l), Some(h)) = (&lo, &hi) {
            if l > h {
                return None;
            }
        }
        Some(Interval { lo, hi })
    }

    /// Lower bound; `None` means −∞.
    pub fn lo(&self) -> Option<&Rat> {
        self.lo.as_ref()
    }

    /// Upper bound; `None` means +∞.
    pub fn hi(&self) -> Option<&Rat> {
        self.hi.as_ref()
    }

    /// Replaces the lower bound; the caller keeps it at most the upper one.
    pub(crate) fn set_lo(&mut self, lo: Rat) {
        debug_assert!(self.hi.as_ref().is_none_or(|h| &lo <= h), "interval would be empty");
        self.lo = Some(lo);
    }

    /// Replaces the upper bound; the caller keeps it at least the lower one.
    pub(crate) fn set_hi(&mut self, hi: Rat) {
        debug_assert!(self.lo.as_ref().is_none_or(|l| l <= &hi), "interval would be empty");
        self.hi = Some(hi);
    }

    /// Is this the unconstrained interval?
    pub fn is_top(&self) -> bool {
        self.lo.is_none() && self.hi.is_none()
    }

    /// The single value of a point interval, if this is one.
    pub fn as_constant(&self) -> Option<&Rat> {
        match (&self.lo, &self.hi) {
            (Some(l), Some(h)) if l == h => Some(l),
            _ => None,
        }
    }

    /// Does the interval contain `v`?
    pub fn contains(&self, v: &Rat) -> bool {
        self.lo.as_ref().is_none_or(|l| l <= v) && self.hi.as_ref().is_none_or(|h| v <= h)
    }

    /// Least upper bound (interval hull).
    pub fn join(&self, other: &Interval) -> Interval {
        let lo = match (&self.lo, &other.lo) {
            (Some(a), Some(b)) => Some(if a <= b { a.clone() } else { b.clone() }),
            _ => None,
        };
        let hi = match (&self.hi, &other.hi) {
            (Some(a), Some(b)) => Some(if a >= b { a.clone() } else { b.clone() }),
            _ => None,
        };
        Interval { lo, hi }
    }

    /// Greatest lower bound; `None` when the intersection is empty.
    pub fn meet(&self, other: &Interval) -> Option<Interval> {
        let lo = match (&self.lo, &other.lo) {
            (Some(a), Some(b)) => Some(if a >= b { a.clone() } else { b.clone() }),
            (Some(a), None) | (None, Some(a)) => Some(a.clone()),
            (None, None) => None,
        };
        let hi = match (&self.hi, &other.hi) {
            (Some(a), Some(b)) => Some(if a <= b { a.clone() } else { b.clone() }),
            (Some(a), None) | (None, Some(a)) => Some(a.clone()),
            (None, None) => None,
        };
        Interval::new(lo, hi)
    }

    /// Standard interval widening: any bound that moved since `self` jumps
    /// straight to the corresponding infinity.  `newer` must be `⊒ self`
    /// (callers pass the join of the old and incoming values).
    pub fn widen(&self, newer: &Interval) -> Interval {
        let lo = match (&self.lo, &newer.lo) {
            (Some(old), Some(new)) if new >= old => Some(old.clone()),
            _ => None,
        };
        let hi = match (&self.hi, &newer.hi) {
            (Some(old), Some(new)) if new <= old => Some(old.clone()),
            _ => None,
        };
        Interval { lo, hi }
    }

    /// Interval addition.
    pub fn add(&self, other: &Interval) -> Interval {
        let add_opt = |a: &Option<Rat>, b: &Option<Rat>| match (a, b) {
            (Some(a), Some(b)) => Some(a + b),
            _ => None,
        };
        Interval { lo: add_opt(&self.lo, &other.lo), hi: add_opt(&self.hi, &other.hi) }
    }

    /// Negation `[-hi, -lo]`.
    pub fn neg(&self) -> Interval {
        Interval { lo: self.hi.as_ref().map(|h| -h), hi: self.lo.as_ref().map(|l| -l) }
    }

    /// Exact scaling by a rational constant.
    pub fn scale(&self, c: &Rat) -> Interval {
        if c.is_zero() {
            return Interval::point(Rat::zero());
        }
        let lo = self.lo.as_ref().map(|l| l * c);
        let hi = self.hi.as_ref().map(|h| h * c);
        if c.is_positive() {
            Interval { lo, hi }
        } else {
            Interval { lo: hi, hi: lo }
        }
    }

    /// Interval multiplication.
    pub fn mul(&self, other: &Interval) -> Interval {
        if let Some(c) = self.as_constant() {
            return other.scale(c);
        }
        if let Some(c) = other.as_constant() {
            return self.scale(c);
        }
        let xs = [Ext::from_lo(&self.lo), Ext::from_hi(&self.hi)];
        let ys = [Ext::from_lo(&other.lo), Ext::from_hi(&other.hi)];
        let mut min: Option<Ext> = None;
        let mut max: Option<Ext> = None;
        for x in &xs {
            for y in &ys {
                let p = x.mul(y);
                if min.as_ref().is_none_or(|m| p < *m) {
                    min = Some(p.clone());
                }
                if max.as_ref().is_none_or(|m| p > *m) {
                    max = Some(p);
                }
            }
        }
        Interval {
            lo: min.expect("nonempty candidate set").into_lo(),
            hi: max.expect("nonempty candidate set").into_hi(),
        }
    }

    /// Interval exponentiation; even powers are clamped to `[0, +∞)`.
    pub fn pow(&self, exp: u32) -> Interval {
        if exp == 0 {
            return Interval::point(Rat::one());
        }
        let mut acc = self.clone();
        for _ in 1..exp {
            acc = acc.mul(self);
        }
        if exp.is_multiple_of(2) {
            let nonneg = Interval { lo: Some(Rat::zero()), hi: None };
            acc.meet(&nonneg).unwrap_or(nonneg)
        } else {
            acc
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.lo {
            Some(l) => write!(f, "[{l}, ")?,
            None => write!(f, "(-inf, ")?,
        }
        match &self.hi {
            Some(h) => write!(f, "{h}]"),
            None => write!(f, "+inf)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revterm_num::{rat, ratio};

    fn iv(lo: i64, hi: i64) -> Interval {
        Interval::new(Some(rat(lo)), Some(rat(hi))).unwrap()
    }

    #[test]
    fn join_meet_widen_basics() {
        let a = iv(0, 5);
        let b = iv(3, 9);
        assert_eq!(a.join(&b), iv(0, 9));
        assert_eq!(a.meet(&b), Some(iv(3, 5)));
        assert_eq!(iv(0, 1).meet(&iv(2, 3)), None);
        // Widening blows up only the moved bound.
        let w = a.widen(&a.join(&b));
        assert_eq!(w, Interval::new(Some(rat(0)), None).unwrap());
        assert!(w.join(&b) == w, "widened interval is stable under the join");
    }

    #[test]
    fn arithmetic_is_sound_on_samples() {
        let a = iv(-2, 3);
        let b = iv(4, 7);
        let sum = a.add(&b);
        let prod = a.mul(&b);
        let sq = a.pow(2);
        for x in -2..=3i64 {
            for y in 4..=7i64 {
                assert!(sum.contains(&rat(x + y)));
                assert!(prod.contains(&rat(x * y)));
            }
            assert!(sq.contains(&rat(x * x)));
        }
        assert!(sq.lo().is_some_and(|l| !l.is_negative()), "even power is nonnegative");
    }

    #[test]
    fn unbounded_multiplication() {
        let nonneg = Interval::new(Some(rat(0)), None).unwrap();
        let pos = Interval::new(Some(rat(2)), None).unwrap();
        assert_eq!(pos.mul(&pos), Interval::new(Some(rat(4)), None).unwrap());
        assert_eq!(nonneg.mul(&Interval::point(rat(0))), Interval::point(rat(0)));
        assert!(nonneg.mul(&iv(-1, 1)).is_top());
    }

    #[test]
    fn signs_and_constants() {
        assert_eq!(Interval::point(ratio(7, 2)).as_constant(), Some(&ratio(7, 2)));
        assert_eq!(iv(1, 2).as_constant(), None);
    }
}
