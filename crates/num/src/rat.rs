//! Exact rational numbers built on [`Int`], with a packed machine-word tier.

use crate::int::{gcd_u64, Int, Sign};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

/// Internal representation of a [`Rat`].
///
/// Canonical-form invariant (mirroring [`Int`]'s two tiers): a value whose
/// reduced numerator and denominator both fit in an `i64` is stored
/// [`Repr::Packed`]; [`Repr::Big`] is used **only** when at least one part
/// lies outside the `i64` range. Every value therefore has exactly one
/// representation and the derived `PartialEq`/`Eq`/`Hash` are automatically
/// representation-independent.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// Inline machine-word fraction: `den > 0`, `gcd(|num|, den) == 1`, zero
    /// as `0/1`. This tier covers essentially every coefficient the LP and
    /// Farkas/Handelman hot paths produce, keeps a `Rat` at three words and
    /// makes arithmetic allocation-free.
    Packed {
        /// Sign-carrying numerator.
        num: i64,
        /// Strictly positive denominator, coprime with `num`.
        den: i64,
    },
    /// Heap fallback for fractions with a part outside the `i64` range
    /// (boxed so the packed tier does not pay for the fallback's size).
    Big(Box<BigRat>),
}

/// The arbitrary-precision payload of [`Repr::Big`]: canonical numerator and
/// denominator with at least one of them outside the `i64` range.
#[derive(Clone, PartialEq, Eq, Hash)]
struct BigRat {
    num: Int,
    den: Int,
}

/// An exact rational number.
///
/// Invariants: the denominator is strictly positive and `gcd(num, den) == 1`
/// (with `0` canonically represented as `0/1`).
///
/// Like [`Int`], the type is two-tier: fractions whose reduced numerator and
/// denominator both fit in an `i64` are stored packed inline (no heap
/// allocation, 24 bytes); anything larger falls back to a boxed pair of
/// [`Int`]s. Results of arithmetic demote back to the packed tier whenever
/// they fit, so `Eq`/`Ord`/`Hash` never depend on how a value was computed.
/// [`Rat::is_packed`] reports the tier.
///
/// ```
/// use revterm_num::{Rat, Int};
/// let r = Rat::new(Int::from(6), Int::from(-8));
/// assert_eq!(r.to_string(), "-3/4");
/// assert_eq!(r.numer(), Int::from(-3));
/// assert_eq!(r.denom(), Int::from(4));
/// assert!(r.is_packed());
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rat {
    repr: Repr,
}

/// Error returned when parsing a [`Rat`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRatError {
    msg: String,
}

impl fmt::Display for ParseRatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rational literal: {}", self.msg)
    }
}

impl std::error::Error for ParseRatError {}

impl Rat {
    /// Unchecked packed constructor: the pair must already be canonical
    /// (`den > 0`, `gcd(|num|, den) == 1`, zero as `0/1`). Every packed fast
    /// path goes through this, so the debug assertion is the single place
    /// where the invariant is re-checked in test builds.
    fn packed_raw(num: i64, den: i64) -> Rat {
        debug_assert!(den > 0, "packed rational with non-positive denominator");
        debug_assert!(
            if num == 0 { den == 1 } else { gcd_u64(num.unsigned_abs(), den as u64) == 1 },
            "packed rational not reduced: {num}/{den}"
        );
        Rat { repr: Repr::Packed { num, den } }
    }

    /// Unchecked big constructor: the pair must be canonical and at least one
    /// part must be outside the `i64` range (otherwise the value belongs to
    /// the packed tier).
    fn big_raw(num: Int, den: Int) -> Rat {
        debug_assert!(den.is_positive(), "big rational with non-positive denominator");
        debug_assert!(num.gcd(&den).is_one(), "big rational not reduced: {num}/{den}");
        debug_assert!(
            num.to_i64().is_none() || den.to_i64().is_none(),
            "big rational holds a packable value: {num}/{den}"
        );
        Rat { repr: Repr::Big(Box::new(BigRat { num, den })) }
    }

    /// Canonicalizing-tier constructor from an already *reduced* [`Int`] pair
    /// (`den > 0`, coprime): demotes to the packed tier when both parts fit
    /// in an `i64`.
    fn from_int_parts(num: Int, den: Int) -> Rat {
        match (num.to_i64(), den.to_i64()) {
            (Some(n), Some(d)) => Rat::packed_raw(n, d),
            _ => Rat::big_raw(num, den),
        }
    }

    /// Same as [`Rat::from_int_parts`] for reduced `i128` pairs (`den > 0`),
    /// as produced by the packed fast paths' exact intermediates.
    fn from_i128_parts(num: i128, den: i128) -> Rat {
        match (i64::try_from(num), i64::try_from(den)) {
            (Ok(n), Ok(d)) => Rat::packed_raw(n, d),
            _ => Rat::big_raw(Int::from(num), Int::from(den)),
        }
    }

    /// Calls `f` with borrowed numerator/denominator [`Int`] views.
    ///
    /// For packed values the views are freshly built inline `Int`s
    /// (allocation-free); for big values they borrow the boxed parts. This is
    /// the bridge the mixed/big arithmetic paths use.
    fn with_int_parts<R>(&self, f: impl FnOnce(&Int, &Int) -> R) -> R {
        match &self.repr {
            Repr::Packed { num, den } => f(&Int::from(*num), &Int::from(*den)),
            Repr::Big(b) => f(&b.num, &b.den),
        }
    }

    /// Creates a new rational from a numerator and denominator, reducing to
    /// canonical form.
    ///
    /// # Panics
    ///
    /// Panics with `"rational with zero denominator"` if `den` is zero — a
    /// zero denominator is **always** a caller bug in this workspace (LP
    /// pivots divide by explicitly non-zero pivots, and parsers reject `x/0`
    /// before constructing). Use [`Rat::checked_new`] when the denominator
    /// is not statically known to be non-zero.
    pub fn new(num: Int, den: Int) -> Rat {
        Rat::checked_new(num, den).expect("rational with zero denominator")
    }

    /// Creates a new rational, reducing to canonical form, or returns `None`
    /// if `den` is zero (the non-panicking form of [`Rat::new`]).
    ///
    /// ```
    /// use revterm_num::{Int, Rat};
    /// assert!(Rat::checked_new(Int::one(), Int::zero()).is_none());
    /// assert_eq!(Rat::checked_new(Int::from(2), Int::from(4)), Some("1/2".parse().unwrap()));
    /// ```
    pub fn checked_new(num: Int, den: Int) -> Option<Rat> {
        // Machine-word inputs reduce on the packed fast path.
        if let (Some(n), Some(d)) = (num.to_i64(), den.to_i64()) {
            return Rat::checked_packed(n, d);
        }
        if den.is_zero() {
            return None;
        }
        let (mut num, mut den) = (num, den);
        if den.is_negative() {
            num = -num;
            den = -den;
        }
        if num.is_zero() {
            return Some(Rat::zero());
        }
        if den.is_one() {
            return Some(Rat::from_int_parts(num, den));
        }
        let g = num.gcd(&den);
        if g.is_one() {
            Some(Rat::from_int_parts(num, den))
        } else {
            Some(Rat::from_int_parts(&num / &g, &den / &g))
        }
    }

    /// Creates a rational directly from machine words, reducing to canonical
    /// form. This is the packed-tier analogue of [`Rat::new`] and never
    /// allocates unless reduction is impossible inside `i64` (the only such
    /// corner is a reduced part of magnitude `2^63`, e.g.
    /// `Rat::packed(1, i64::MIN)`).
    ///
    /// # Panics
    ///
    /// Panics with `"rational with zero denominator"` if `den == 0`, exactly
    /// as [`Rat::new`] does. Use [`Rat::checked_packed`] when the denominator
    /// is not statically known to be non-zero.
    ///
    /// ```
    /// use revterm_num::Rat;
    /// assert_eq!(Rat::packed(6, -8).to_string(), "-3/4");
    /// ```
    pub fn packed(num: i64, den: i64) -> Rat {
        Rat::checked_packed(num, den).expect("rational with zero denominator")
    }

    /// Creates a rational from machine words, or returns `None` if `den` is
    /// zero (the non-panicking form of [`Rat::packed`]).
    ///
    /// The `i64::MIN` corners are handled exactly: normalisation and
    /// reduction run on `i128` intermediates, so `checked_packed(n, i64::MIN)`
    /// and `checked_packed(i64::MIN, d)` produce the correct canonical value
    /// (promoting to the big tier only when a reduced part is exactly
    /// `2^63`).
    ///
    /// ```
    /// use revterm_num::Rat;
    /// assert!(Rat::checked_packed(1, 0).is_none());
    /// assert_eq!(Rat::checked_packed(2, 4), Some(Rat::packed(1, 2)));
    /// ```
    pub fn checked_packed(num: i64, den: i64) -> Option<Rat> {
        if den == 0 {
            return None;
        }
        if num == 0 {
            return Some(Rat::zero());
        }
        // i128 intermediates: negating i64::MIN is exact here.
        let (mut n, mut d) = (num as i128, den as i128);
        if d < 0 {
            n = -n;
            d = -d;
        }
        // Both magnitudes are <= 2^63, so they fit machine words.
        let g = gcd_u64(n.unsigned_abs() as u64, d as u64) as i128;
        Some(Rat::from_i128_parts(n / g, d / g))
    }

    /// The rational zero.
    pub const fn zero() -> Rat {
        Rat { repr: Repr::Packed { num: 0, den: 1 } }
    }

    /// The rational one.
    pub const fn one() -> Rat {
        Rat { repr: Repr::Packed { num: 1, den: 1 } }
    }

    /// Numerator (sign-carrying part). Allocation-free for packed values.
    pub fn numer(&self) -> Int {
        match &self.repr {
            Repr::Packed { num, .. } => Int::from(*num),
            Repr::Big(b) => b.num.clone(),
        }
    }

    /// Denominator (always strictly positive). Allocation-free for packed
    /// values.
    pub fn denom(&self) -> Int {
        match &self.repr {
            Repr::Packed { den, .. } => Int::from(*den),
            Repr::Big(b) => b.den.clone(),
        }
    }

    /// Returns `true` iff the value is stored in the packed machine-word
    /// tier (allocation-free). This is exactly the case when both canonical
    /// parts fit in an `i64`; results of arithmetic demote back to the
    /// packed tier whenever they fit.
    pub fn is_packed(&self) -> bool {
        matches!(self.repr, Repr::Packed { .. })
    }

    /// The canonical `(numerator, denominator)` machine words of a packed
    /// value, or `None` for the big tier. Allocation-free: this is the
    /// accessor for kernels that run their own `i64`/`i128` arithmetic.
    ///
    /// ```
    /// use revterm_num::Rat;
    /// assert_eq!(Rat::packed(6, -8).packed_parts(), Some((-3, 4)));
    /// assert_eq!("1/18446744073709551616".parse::<Rat>().unwrap().packed_parts(), None);
    /// ```
    pub fn packed_parts(&self) -> Option<(i64, i64)> {
        match self.repr {
            Repr::Packed { num, den } => Some((num, den)),
            Repr::Big(_) => None,
        }
    }

    /// Returns `true` iff the value is zero.
    pub fn is_zero(&self) -> bool {
        matches!(self.repr, Repr::Packed { num: 0, .. })
    }

    /// Returns `true` iff the value is one.
    pub fn is_one(&self) -> bool {
        matches!(self.repr, Repr::Packed { num: 1, den: 1 })
    }

    /// Returns `true` iff the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        match &self.repr {
            Repr::Packed { num, .. } => *num < 0,
            Repr::Big(b) => b.num.is_negative(),
        }
    }

    /// Returns `true` iff the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        match &self.repr {
            Repr::Packed { num, .. } => *num > 0,
            Repr::Big(b) => b.num.is_positive(),
        }
    }

    /// Returns `true` iff the value is an integer.
    pub fn is_integer(&self) -> bool {
        match &self.repr {
            Repr::Packed { den, .. } => *den == 1,
            Repr::Big(b) => b.den.is_one(),
        }
    }

    /// Sign of the value.
    pub fn sign(&self) -> Sign {
        match &self.repr {
            Repr::Packed { num, .. } => match num.cmp(&0) {
                Ordering::Less => Sign::Negative,
                Ordering::Equal => Sign::Zero,
                Ordering::Greater => Sign::Positive,
            },
            Repr::Big(b) => b.num.sign(),
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> Rat {
        match &self.repr {
            Repr::Packed { num, den } => match num.checked_abs() {
                Some(n) => Rat::packed_raw(n, *den),
                // |i64::MIN| = 2^63 promotes to the big tier.
                None => Rat::big_raw(Int::from(*num).abs(), Int::from(*den)),
            },
            Repr::Big(b) => Rat::from_int_parts(b.num.abs(), b.den.clone()),
        }
    }

    /// Multiplicative inverse.
    ///
    /// Allocation- and gcd-free: the canonical form is preserved by swapping
    /// numerator and denominator (fixing signs).
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub fn recip(&self) -> Rat {
        assert!(!self.is_zero(), "reciprocal of zero");
        match &self.repr {
            Repr::Packed { num, den } => {
                if *num > 0 {
                    Rat::packed_raw(*den, *num)
                } else {
                    // num < 0: the result is (-den)/(-num); i128 handles the
                    // i64::MIN corner exactly.
                    Rat::from_i128_parts(-(*den as i128), -(*num as i128))
                }
            }
            Repr::Big(b) => {
                // May demote (e.g. the reciprocal of -3/2^63 is -2^63/3).
                if b.num.is_negative() {
                    Rat::from_int_parts(-b.den.clone(), -b.num.clone())
                } else {
                    Rat::from_int_parts(b.den.clone(), b.num.clone())
                }
            }
        }
    }

    /// Largest integer `<=` the value.
    pub fn floor(&self) -> Int {
        match &self.repr {
            // den > 0, so div_euclid is exact flooring and cannot overflow.
            Repr::Packed { num, den } => Int::from(num.div_euclid(*den)),
            Repr::Big(b) => {
                let (q, r) = b.num.div_rem(&b.den);
                if r.is_negative() {
                    q - Int::one()
                } else {
                    q
                }
            }
        }
    }

    /// Smallest integer `>=` the value.
    pub fn ceil(&self) -> Int {
        match &self.repr {
            Repr::Packed { num, den } => {
                let q = num.div_euclid(*den);
                // rem != 0 implies den >= 2, so q + 1 cannot overflow.
                if num.rem_euclid(*den) == 0 {
                    Int::from(q)
                } else {
                    Int::from(q + 1)
                }
            }
            Repr::Big(_) => -((-self.clone()).floor()),
        }
    }

    /// Raises to a non-negative integer power (gcd-free: coprimality is
    /// preserved by powering).
    pub fn pow(&self, exp: u32) -> Rat {
        match &self.repr {
            Repr::Packed { num, den } => match (num.checked_pow(exp), den.checked_pow(exp)) {
                (Some(n), Some(d)) => Rat::packed_raw(n, d),
                _ => Rat::from_int_parts(Int::from(*num).pow(exp), Int::from(*den).pow(exp)),
            },
            Repr::Big(b) => Rat::from_int_parts(b.num.pow(exp), b.den.pow(exp)),
        }
    }

    /// Lossy conversion to `f64` (reporting only).
    pub fn to_f64(&self) -> f64 {
        match &self.repr {
            Repr::Packed { num, den } => *num as f64 / *den as f64,
            Repr::Big(b) => b.num.to_f64() / b.den.to_f64(),
        }
    }

    /// Returns the rational as an [`Int`] if it is an integer.
    pub fn to_int(&self) -> Option<Int> {
        if self.is_integer() {
            Some(self.numer())
        } else {
            None
        }
    }

    /// Minimum of two rationals (by value).
    pub fn min(self, other: Rat) -> Rat {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Maximum of two rationals (by value).
    pub fn max(self, other: Rat) -> Rat {
        if self >= other {
            self
        } else {
            other
        }
    }
}

// ---------------------------------------------------------------------------
// Packed arithmetic kernels. All run on i128 intermediates, which the packed
// invariants bound exactly: |num| <= 2^63 and 0 < den < 2^63, so every
// product below is < 2^126 and every two-product sum is < 2^127 — nothing
// can overflow an i128.
// ---------------------------------------------------------------------------

/// `a/b + c/d` for canonical packed parts. `c` is taken as an `i128` so
/// subtraction can pass a negated `i64::MIN` numerator exactly.
fn packed_add(a: i64, b: i64, c: i128, d: i64) -> Rat {
    if c == 0 {
        return Rat::packed_raw(a, b);
    }
    if a == 0 {
        return Rat::from_i128_parts(c, d as i128);
    }
    let (a, b128, d128) = (a as i128, b as i128, d as i128);
    if b == d {
        // a/d + c/d = (a+c)/d, reduced by gcd(a+c, d) only.
        let t = a + c;
        if t == 0 {
            return Rat::zero();
        }
        if b == 1 {
            return Rat::from_i128_parts(t, 1);
        }
        let g = gcd_u64((t.unsigned_abs() % b as u128) as u64, b as u64) as i128;
        if g == 1 {
            return Rat::from_i128_parts(t, b128);
        }
        return Rat::from_i128_parts(t / g, b128 / g);
    }
    if b == 1 {
        // a + c/d = (a*d + c)/d; gcd(a*d + c, d) = gcd(c, d) = 1.
        return Rat::from_i128_parts(a * d128 + c, d128);
    }
    if d == 1 {
        return Rat::from_i128_parts(a + c * b128, b128);
    }
    let g1 = gcd_u64(b as u64, d as u64);
    if g1 == 1 {
        // Coprime denominators: the cross-multiplied form is already reduced.
        return Rat::from_i128_parts(a * d128 + c * b128, b128 * d128);
    }
    // Knuth 4.5.1 gcd-of-denominators decomposition, on machine-word gcds.
    let g1_128 = g1 as i128;
    let b1 = b128 / g1_128;
    let d1 = d128 / g1_128;
    let t = a * d1 + c * b1;
    if t == 0 {
        return Rat::zero();
    }
    let g2 = gcd_u64((t.unsigned_abs() % g1 as u128) as u64, g1) as i128;
    if g2 == 1 {
        return Rat::from_i128_parts(t, b1 * d128);
    }
    Rat::from_i128_parts(t / g2, b1 * (d128 / g2))
}

/// `(a/b) * (c/d)` for canonical packed parts, both non-zero.
fn packed_mul(a: i64, b: i64, c: i64, d: i64) -> Rat {
    if b == 1 && d == 1 {
        return Rat::from_i128_parts(a as i128 * c as i128, 1);
    }
    // Cross-reduction: gcd(a,d) and gcd(c,b) are all the reduction the
    // product needs (the operands are canonical), on machine-word gcds.
    let g1 = if d == 1 { 1 } else { gcd_u64(a.unsigned_abs(), d as u64) };
    let g2 = if b == 1 { 1 } else { gcd_u64(c.unsigned_abs(), b as u64) };
    let num = (a as i128 / g1 as i128) * (c as i128 / g2 as i128);
    let den = (b as i128 / g2 as i128) * (d as i128 / g1 as i128);
    Rat::from_i128_parts(num, den)
}

/// `(a/b) / (c/d)` for canonical packed parts, both non-zero.
fn packed_div(a: i64, b: i64, c: i64, d: i64) -> Rat {
    // (a/b) / (c/d) = (a*d)/(b*c), cross-reduced before multiplying.
    let g1 = gcd_u64(a.unsigned_abs(), c.unsigned_abs());
    let g2 = gcd_u64(d.unsigned_abs(), b as u64);
    let mut num = (a as i128 / g1 as i128) * (d as i128 / g2 as i128);
    let mut den = (b as i128 / g2 as i128) * (c as i128 / g1 as i128);
    if den < 0 {
        num = -num;
        den = -den;
    }
    Rat::from_i128_parts(num, den)
}

// ---------------------------------------------------------------------------
// Arbitrary-precision kernels (mixed and big operands), on Int views.
// ---------------------------------------------------------------------------

/// `a/b + c/d` over [`Int`] parts (both pairs canonical): the same
/// gcd-of-denominators decomposition as [`packed_add`], without the
/// machine-word bounds.
fn add_int_parts(a: &Int, b: &Int, c: &Int, d: &Int) -> Rat {
    if c.is_zero() {
        return Rat::from_int_parts(a.clone(), b.clone());
    }
    if a.is_zero() {
        return Rat::from_int_parts(c.clone(), d.clone());
    }
    if b == d {
        let t = a + c;
        if t.is_zero() {
            return Rat::zero();
        }
        if b.is_one() {
            return Rat::from_int_parts(t, Int::one());
        }
        let g = t.gcd(b);
        if g.is_one() {
            return Rat::from_int_parts(t, b.clone());
        }
        return Rat::from_int_parts(&t / &g, b / &g);
    }
    if b.is_one() {
        // a + c/d = (a*d + c)/d; gcd(a*d + c, d) = gcd(c, d) = 1.
        return Rat::from_int_parts(a * d + c, d.clone());
    }
    if d.is_one() {
        return Rat::from_int_parts(a + &(c * b), b.clone());
    }
    let g1 = b.gcd(d);
    if g1.is_one() {
        // Coprime denominators: the cross-multiplied form is already
        // reduced, no gcd of the (larger) numerator needed.
        return Rat::from_int_parts(a * d + &(c * b), b * d);
    }
    let b1 = b / &g1;
    let d1 = d / &g1;
    let t = a * &d1 + &(c * &b1);
    if t.is_zero() {
        return Rat::zero();
    }
    let g2 = t.gcd(&g1);
    if g2.is_one() {
        return Rat::from_int_parts(t, &b1 * d);
    }
    Rat::from_int_parts(&t / &g2, &b1 * &(d / &g2))
}

/// `(a/b) * (c/d)` over [`Int`] parts, both values non-zero.
fn mul_int_parts(a: &Int, b: &Int, c: &Int, d: &Int) -> Rat {
    if b.is_one() && d.is_one() {
        return Rat::from_int_parts(a * c, Int::one());
    }
    let g1 = if d.is_one() { Int::one() } else { a.gcd(d) };
    let g2 = if b.is_one() { Int::one() } else { c.gcd(b) };
    let num = &(a / &g1) * &(c / &g2);
    let den = &(b / &g2) * &(d / &g1);
    Rat::from_int_parts(num, den)
}

/// `(a/b) / (c/d)` over [`Int`] parts, both values non-zero.
fn div_int_parts(a: &Int, b: &Int, c: &Int, d: &Int) -> Rat {
    let g1 = a.gcd(c);
    let g2 = d.gcd(b);
    let mut num = &(a / &g1) * &(d / &g2);
    let mut den = &(b / &g2) * &(c / &g1);
    if den.is_negative() {
        num = -num;
        den = -den;
    }
    Rat::from_int_parts(num, den)
}

impl Default for Rat {
    fn default() -> Self {
        Rat::zero()
    }
}

impl From<Int> for Rat {
    fn from(v: Int) -> Self {
        Rat::from_int_parts(v, Int::one())
    }
}

impl From<i64> for Rat {
    fn from(v: i64) -> Self {
        Rat::packed_raw(v, 1)
    }
}

impl From<i32> for Rat {
    fn from(v: i32) -> Self {
        Rat::packed_raw(v as i64, 1)
    }
}

impl FromStr for Rat {
    type Err = ParseRatError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        let parse_int = |t: &str| -> Result<Int, ParseRatError> {
            t.parse::<Int>().map_err(|_| ParseRatError { msg: s.to_string() })
        };
        match s.split_once('/') {
            Some((n, d)) => {
                let num = parse_int(n)?;
                let den = parse_int(d)?;
                if den.is_zero() {
                    return Err(ParseRatError { msg: s.to_string() });
                }
                Ok(Rat::new(num, den))
            }
            None => Ok(Rat::from(parse_int(s)?)),
        }
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.repr {
            Repr::Packed { num, den } => {
                if *den == 1 {
                    write!(f, "{}", num)
                } else {
                    write!(f, "{}/{}", num, den)
                }
            }
            Repr::Big(b) => {
                if b.den.is_one() {
                    write!(f, "{}", b.num)
                } else {
                    write!(f, "{}/{}", b.num, b.den)
                }
            }
        }
    }
}

impl fmt::Debug for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rat({})", self)
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Self) -> Ordering {
        if let (Repr::Packed { num: a, den: b }, Repr::Packed { num: c, den: d }) =
            (&self.repr, &other.repr)
        {
            // Sign comparison is free and settles most queries in the
            // solver's pivoting loops without any multiplication.
            match a.signum().cmp(&c.signum()) {
                Ordering::Equal => {}
                o => return o,
            }
            if b == d {
                return a.cmp(c);
            }
            // a/b ? c/d  <=>  a*d ? c*b   (b, d > 0; exact in i128)
            return (*a as i128 * *d as i128).cmp(&(*c as i128 * *b as i128));
        }
        self.with_int_parts(|a, b| {
            other.with_int_parts(|c, d| {
                match a.sign().cmp(&c.sign()) {
                    Ordering::Equal => {}
                    o => return o,
                }
                if b == d {
                    return a.cmp(c);
                }
                (a * d).cmp(&(c * b))
            })
        })
    }
}

impl<'b> Add<&'b Rat> for &Rat {
    type Output = Rat;
    fn add(self, rhs: &'b Rat) -> Rat {
        if let (Repr::Packed { num: a, den: b }, Repr::Packed { num: c, den: d }) =
            (&self.repr, &rhs.repr)
        {
            return packed_add(*a, *b, *c as i128, *d);
        }
        self.with_int_parts(|a, b| rhs.with_int_parts(|c, d| add_int_parts(a, b, c, d)))
    }
}

impl<'b> Sub<&'b Rat> for &Rat {
    type Output = Rat;
    fn sub(self, rhs: &'b Rat) -> Rat {
        if let (Repr::Packed { num: a, den: b }, Repr::Packed { num: c, den: d }) =
            (&self.repr, &rhs.repr)
        {
            // Negating a canonical numerator keeps the pair canonical (the
            // i128 widening covers -i64::MIN).
            return packed_add(*a, *b, -(*c as i128), *d);
        }
        self.with_int_parts(|a, b| rhs.with_int_parts(|c, d| add_int_parts(a, b, &-c.clone(), d)))
    }
}

impl<'b> Mul<&'b Rat> for &Rat {
    type Output = Rat;
    fn mul(self, rhs: &'b Rat) -> Rat {
        if self.is_zero() || rhs.is_zero() {
            return Rat::zero();
        }
        if let (Repr::Packed { num: a, den: b }, Repr::Packed { num: c, den: d }) =
            (&self.repr, &rhs.repr)
        {
            return packed_mul(*a, *b, *c, *d);
        }
        self.with_int_parts(|a, b| rhs.with_int_parts(|c, d| mul_int_parts(a, b, c, d)))
    }
}

impl<'b> Div<&'b Rat> for &Rat {
    type Output = Rat;
    fn div(self, rhs: &'b Rat) -> Rat {
        assert!(!rhs.is_zero(), "division by zero rational");
        if self.is_zero() {
            return Rat::zero();
        }
        if let (Repr::Packed { num: a, den: b }, Repr::Packed { num: c, den: d }) =
            (&self.repr, &rhs.repr)
        {
            return packed_div(*a, *b, *c, *d);
        }
        self.with_int_parts(|a, b| rhs.with_int_parts(|c, d| div_int_parts(a, b, c, d)))
    }
}

macro_rules! forward_rat_binop {
    ($trait:ident, $method:ident) => {
        impl $trait<Rat> for Rat {
            type Output = Rat;
            fn $method(self, rhs: Rat) -> Rat {
                (&self).$method(&rhs)
            }
        }
        impl<'a> $trait<&'a Rat> for Rat {
            type Output = Rat;
            fn $method(self, rhs: &'a Rat) -> Rat {
                (&self).$method(rhs)
            }
        }
        impl<'a> $trait<Rat> for &'a Rat {
            type Output = Rat;
            fn $method(self, rhs: Rat) -> Rat {
                self.$method(&rhs)
            }
        }
    };
}

forward_rat_binop!(Add, add);
forward_rat_binop!(Sub, sub);
forward_rat_binop!(Mul, mul);
forward_rat_binop!(Div, div);

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        match self.repr {
            Repr::Packed { num, den } => match num.checked_neg() {
                Some(n) => Rat::packed_raw(n, den),
                // -i64::MIN = 2^63 promotes the numerator to the big tier.
                None => Rat::big_raw(-Int::from(num), Int::from(den)),
            },
            // May demote (a numerator of exactly -2^63 becomes i64::MIN).
            Repr::Big(b) => Rat::from_int_parts(-b.num, b.den),
        }
    }
}

impl Neg for &Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        -self.clone()
    }
}

impl AddAssign<&Rat> for Rat {
    fn add_assign(&mut self, rhs: &Rat) {
        *self = &*self + rhs;
    }
}

impl SubAssign<&Rat> for Rat {
    fn sub_assign(&mut self, rhs: &Rat) {
        *self = &*self - rhs;
    }
}

impl MulAssign<&Rat> for Rat {
    fn mul_assign(&mut self, rhs: &Rat) {
        *self = &*self * rhs;
    }
}

impl std::iter::Sum for Rat {
    fn sum<I: Iterator<Item = Rat>>(iter: I) -> Rat {
        iter.fold(Rat::zero(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    /// In `lo..hi` (the upper end excluded).
    fn in_range(rng: &mut SplitMix64, lo: i64, hi: i64) -> i64 {
        lo + (rng.next_u64() as i64).rem_euclid(hi - lo)
    }

    fn r(n: i64, d: i64) -> Rat {
        Rat::new(Int::from(n), Int::from(d))
    }

    fn hash_of(x: &Rat) -> u64 {
        let mut h = DefaultHasher::new();
        x.hash(&mut h);
        h.finish()
    }

    /// Checks the two-tier canonical-form invariant from the outside: packed
    /// iff both canonical parts fit an i64 (the internal constructors
    /// debug-assert reducedness).
    fn assert_canonical(x: &Rat) {
        let fits = x.numer().to_i64().is_some() && x.denom().to_i64().is_some();
        assert_eq!(x.is_packed(), fits, "tier mismatch for {x}");
        assert!(x.denom().is_positive());
        assert!(x.numer().gcd(&x.denom()).is_one() || x.is_zero());
    }

    #[test]
    fn canonical_form() {
        assert_eq!(r(6, -8).to_string(), "-3/4");
        assert_eq!(r(0, 5), Rat::zero());
        assert_eq!(r(0, -5).to_string(), "0");
        assert_eq!(r(-4, -2).to_string(), "2");
        assert_eq!(r(7, 1).to_string(), "7");
    }

    #[test]
    #[should_panic(expected = "rational with zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rat::new(Int::one(), Int::zero());
    }

    #[test]
    #[should_panic(expected = "rational with zero denominator")]
    fn packed_zero_denominator_panics() {
        let _ = Rat::packed(1, 0);
    }

    #[test]
    fn checked_new_is_the_total_form() {
        assert_eq!(Rat::checked_new(Int::one(), Int::zero()), None);
        assert_eq!(Rat::checked_new(Int::zero(), Int::zero()), None);
        assert_eq!(Rat::checked_new(Int::from(6), Int::from(-8)), Some(r(-3, 4)));
        assert_eq!(Rat::checked_new(Int::zero(), Int::from(-5)), Some(Rat::zero()));
        // The canonical zero is 0/1 regardless of the input denominator.
        let z = Rat::checked_new(Int::zero(), Int::from(7)).unwrap();
        assert_eq!(z.denom(), Int::one());
    }

    #[test]
    fn checked_packed_guards_and_min_corners() {
        // Zero denominators are rejected, exactly as in checked_new.
        assert_eq!(Rat::checked_packed(1, 0), None);
        assert_eq!(Rat::checked_packed(0, 0), None);
        assert_eq!(Rat::checked_packed(i64::MIN, 0), None);
        // Ordinary reduction and sign normalisation.
        assert_eq!(Rat::checked_packed(6, -8), Some(r(-3, 4)));
        assert_eq!(Rat::checked_packed(0, -5), Some(Rat::zero()));
        assert_eq!(Rat::packed(2, 4), r(1, 2));
        // i64::MIN numerator: stays packed when the denominator is odd...
        let m = Rat::packed(i64::MIN, 3);
        assert!(m.is_packed());
        assert_eq!(m, Rat::new(Int::from(i64::MIN), Int::from(3)));
        assert_canonical(&m);
        // ...and reduces when it shares factors (2^63 / 2 = 2^62 fits).
        let half = Rat::packed(i64::MIN, 2);
        assert!(half.is_packed());
        assert_eq!(half, Rat::from(Int::from(i64::MIN / 2)));
        // i64::MIN denominator: normalisation negates both parts exactly;
        // 1 / i64::MIN needs a 2^63 denominator and promotes.
        let tiny = Rat::packed(1, i64::MIN);
        assert!(!tiny.is_packed());
        assert_eq!(tiny, Rat::new(Int::one(), Int::from(i64::MIN)));
        assert_eq!(tiny.to_string(), "-1/9223372036854775808");
        assert_canonical(&tiny);
        // i64::MIN / i64::MIN is exactly one.
        assert_eq!(Rat::packed(i64::MIN, i64::MIN), Rat::one());
        // The reciprocal of -1/2^63 is exactly i64::MIN: demotes back to the
        // packed tier and agrees with the direct construction under Eq/Hash.
        let back = tiny.recip();
        assert!(back.is_packed());
        assert_eq!(back, Rat::from(Int::from(i64::MIN)));
        assert_eq!(hash_of(&back), hash_of(&Rat::from(Int::from(i64::MIN))));
    }

    #[test]
    fn packed_tier_roundtrips_at_i64_boundaries() {
        // Crossing the boundary by arithmetic promotes; coming back demotes,
        // and the two representations are indistinguishable to Eq/Ord/Hash.
        let max = Rat::from(Int::from(i64::MAX));
        assert!(max.is_packed());
        let over = &max + &Rat::one();
        assert!(!over.is_packed());
        assert_canonical(&over);
        let back = &over - &Rat::one();
        assert!(back.is_packed(), "demotion failed at i64::MAX + 1 - 1");
        assert_eq!(back, max);
        assert_eq!(hash_of(&back), hash_of(&max));
        assert_eq!(back.cmp(&max), Ordering::Equal);
        // The same round-trip through a huge denominator.
        let eps = Rat::new(Int::one(), Int::from(2).pow(100));
        assert!(!eps.is_packed());
        let x = r(3, 7);
        let shifted = &x + &eps;
        assert!(!shifted.is_packed());
        let back = &shifted - &eps;
        assert!(back.is_packed());
        assert_eq!(back, x);
        assert_eq!(hash_of(&back), hash_of(&x));
        // Negation at the i64::MIN corner promotes and un-promotes.
        let min = Rat::from(Int::from(i64::MIN));
        let negated = -min.clone();
        assert!(!negated.is_packed());
        assert_canonical(&negated);
        let back = -negated;
        assert!(back.is_packed());
        assert_eq!(back, min);
        assert_eq!(hash_of(&back), hash_of(&min));
    }

    #[test]
    fn prop_packed_and_promoted_representations_agree() {
        // A value computed entirely packed and the same value that
        // round-trips through the big tier must agree under Eq/Ord/Hash.
        let mut rng = SplitMix64::new(45);
        let offset = Rat::new(Int::one(), Int::from(2).pow(90));
        for _ in 0..512 {
            let x = r(in_range(&mut rng, -5000, 5000), in_range(&mut rng, 1, 90));
            let roundtripped = &(&x + &offset) - &offset;
            assert!(roundtripped.is_packed(), "round-trip failed to demote for {x}");
            assert_eq!(roundtripped, x);
            assert_eq!(hash_of(&roundtripped), hash_of(&x));
            assert_eq!(roundtripped.cmp(&x), Ordering::Equal);
            let y = r(in_range(&mut rng, -5000, 5000), in_range(&mut rng, 1, 90));
            assert_eq!(roundtripped.cmp(&y), x.cmp(&y));
            assert_canonical(&roundtripped);
        }
    }

    #[test]
    fn prop_packed_ops_overflow_roundtrips() {
        // Products/sums of random machine-word fractions: results that
        // overflow i64 promote, dividing/subtracting back demotes, and every
        // value equals the Int-computed reference.
        let mut rng = SplitMix64::new(46);
        for _ in 0..512 {
            let x = Rat::packed(rng.next_u64() as i64, in_range(&mut rng, 1, i64::MAX));
            let y = Rat::packed(rng.next_u64() as i64, in_range(&mut rng, 1, i64::MAX));
            assert_canonical(&x);
            assert_canonical(&y);
            let sum = &x + &y;
            assert_canonical(&sum);
            assert_eq!(sum, naive_add(&x, &y), "add {x} {y}");
            let back = &sum - &y;
            assert_eq!(back, x, "sub round-trip {x} {y}");
            assert!(back.is_packed());
            assert_eq!(hash_of(&back), hash_of(&x));
            let prod = &x * &y;
            assert_canonical(&prod);
            assert_eq!(prod, naive_mul(&x, &y), "mul {x} {y}");
            if !y.is_zero() {
                let back = &prod / &y;
                assert_eq!(back, x, "div round-trip {x} {y}");
                assert!(back.is_packed());
            }
        }
    }

    /// Reference implementation: cross-multiply and fully re-reduce. The
    /// optimized operators must agree with it exactly.
    fn naive_add(x: &Rat, y: &Rat) -> Rat {
        Rat::new(x.numer() * y.denom() + y.numer() * x.denom(), x.denom() * y.denom())
    }

    fn naive_mul(x: &Rat, y: &Rat) -> Rat {
        Rat::new(x.numer() * y.numer(), x.denom() * y.denom())
    }

    #[test]
    fn prop_fast_paths_agree_with_naive() {
        let mut rng = SplitMix64::new(99);
        for _ in 0..512 {
            let x = r(in_range(&mut rng, -2000, 2000), in_range(&mut rng, 1, 60));
            // Bias towards shared denominators and integers so every fast
            // path (same-den, integer operand, coprime-den, general) is hit.
            let y = match in_range(&mut rng, 0, 4) {
                0 => Rat::from(Int::from(in_range(&mut rng, -2000, 2000))),
                1 => {
                    // Shares x's denominator: integer + fractional part of x.
                    let n = in_range(&mut rng, -2000, 2000);
                    r(n, 1) + (&x - &Rat::from(x.numer().div_rem(&x.denom()).0))
                }
                _ => r(in_range(&mut rng, -2000, 2000), in_range(&mut rng, 1, 60)),
            };
            assert_eq!(&x + &y, naive_add(&x, &y), "add {x} {y}");
            assert_eq!(&x - &y, naive_add(&x, &(-y.clone())), "sub {x} {y}");
            assert_eq!(&x * &y, naive_mul(&x, &y), "mul {x} {y}");
            if !y.is_zero() {
                assert_eq!(&x / &y, naive_mul(&x, &y.recip()), "div {x} {y}");
                assert_eq!((&x / &y).cmp(&Rat::zero()), (&x * &y.recip()).cmp(&Rat::zero()));
            }
            // cmp must agree with the sign of the exact difference.
            let expected = match (&x - &y).sign() {
                Sign::Negative => std::cmp::Ordering::Less,
                Sign::Zero => std::cmp::Ordering::Equal,
                Sign::Positive => std::cmp::Ordering::Greater,
            };
            assert_eq!(x.cmp(&y), expected, "cmp {x} {y}");
        }
    }

    #[test]
    fn prop_big_and_mixed_operands_agree_with_naive() {
        // Pin the big-tier and mixed-tier kernels against the reference too:
        // one operand is pushed outside the machine-word range.
        let mut rng = SplitMix64::new(47);
        let big_den = Int::from(2).pow(80);
        let big_num = Int::from(3).pow(60);
        for _ in 0..128 {
            let x = r(in_range(&mut rng, -500, 500), in_range(&mut rng, 1, 40));
            let y = match in_range(&mut rng, 0, 3) {
                0 => Rat::new(Int::from(in_range(&mut rng, -500, 500)), big_den.clone()),
                1 => Rat::new(big_num.clone(), Int::from(in_range(&mut rng, 1, 40))),
                _ => Rat::new(big_num.clone(), big_den.clone()),
            };
            assert!(!y.is_packed());
            assert_eq!(&x + &y, naive_add(&x, &y), "add {x} {y}");
            assert_eq!(&y + &x, naive_add(&y, &x), "add {y} {x}");
            assert_eq!(&x - &y, naive_add(&x, &(-y.clone())), "sub {x} {y}");
            assert_eq!(&x * &y, naive_mul(&x, &y), "mul {x} {y}");
            if !x.is_zero() {
                assert_eq!(&y / &x, naive_mul(&y, &x.recip()), "div {y} {x}");
            }
            let expected = match (&x - &y).sign() {
                Sign::Negative => std::cmp::Ordering::Less,
                Sign::Zero => std::cmp::Ordering::Equal,
                Sign::Positive => std::cmp::Ordering::Greater,
            };
            assert_eq!(x.cmp(&y), expected, "cmp {x} {y}");
            assert_canonical(&(&x + &y));
            assert_canonical(&(&x * &y));
        }
    }

    #[test]
    fn arithmetic() {
        assert_eq!(r(1, 2) + r(1, 3), r(5, 6));
        assert_eq!(r(1, 2) - r(1, 3), r(1, 6));
        assert_eq!(r(2, 3) * r(3, 4), r(1, 2));
        assert_eq!(r(2, 3) / r(4, 9), r(3, 2));
        assert_eq!(-r(2, 3), r(-2, 3));
        assert_eq!(r(1, 3) + Rat::zero(), r(1, 3));
    }

    #[test]
    fn comparisons() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert!(r(2, 4) == r(1, 2));
        assert!(r(5, 1) > r(9, 2));
        assert_eq!(r(1, 2).max(r(2, 3)), r(2, 3));
        assert_eq!(r(1, 2).min(r(2, 3)), r(1, 2));
    }

    #[test]
    fn floor_ceil_trunc() {
        assert_eq!(r(7, 2).floor(), Int::from(3_i64));
        assert_eq!(r(7, 2).ceil(), Int::from(4_i64));
        assert_eq!(r(-7, 2).floor(), Int::from(-4_i64));
        assert_eq!(r(-7, 2).ceil(), Int::from(-3_i64));
        assert_eq!(r(6, 2).floor(), Int::from(3_i64));
        assert_eq!(r(6, 2).ceil(), Int::from(3_i64));
        // Machine-word extremes stay exact.
        assert_eq!(Rat::packed(i64::MIN, 1).floor(), Int::from(i64::MIN));
        assert_eq!(Rat::packed(i64::MAX, 2).ceil(), Int::from(i64::MAX / 2 + 1));
    }

    #[test]
    fn recip_pow() {
        assert_eq!(r(2, 3).recip(), r(3, 2));
        assert_eq!(r(-2, 3).recip(), r(-3, 2));
        assert_eq!(r(2, 3).pow(3), r(8, 27));
        assert_eq!(r(2, 3).pow(0), Rat::one());
        // recip at the i64::MIN corner promotes (denominator 2^63)...
        let m = Rat::packed(i64::MIN, 3);
        let rec = m.recip();
        assert!(!rec.is_packed());
        assert_eq!(rec.to_string(), "-3/9223372036854775808");
        // ...and recip of that demotes back.
        assert_eq!(rec.recip(), m);
        assert!(rec.recip().is_packed());
        // pow overflow promotes and agrees with the Int-computed value.
        let p = r(10, 3).pow(30);
        assert!(!p.is_packed());
        assert_eq!(p, Rat::new(Int::from(10).pow(30), Int::from(3).pow(30)));
    }

    #[test]
    fn parse_and_display() {
        assert_eq!("3/4".parse::<Rat>().unwrap(), r(3, 4));
        assert_eq!("-6/8".parse::<Rat>().unwrap(), r(-3, 4));
        assert_eq!("17".parse::<Rat>().unwrap(), r(17, 1));
        assert!("1/0".parse::<Rat>().is_err());
        assert!("a/b".parse::<Rat>().is_err());
    }

    #[test]
    fn conversions() {
        assert_eq!(r(4, 2).to_int(), Some(Int::from(2_i64)));
        assert_eq!(r(3, 2).to_int(), None);
        assert!((r(1, 4).to_f64() - 0.25).abs() < 1e-12);
        assert!(r(3, 1).is_integer());
        assert!(!r(3, 2).is_integer());
    }

    #[test]
    fn rat_stays_three_words() {
        // The packed tier's point: a Rat is pointer-sized payload plus tag,
        // small enough that LP rows keep several coefficients per cache line.
        assert!(std::mem::size_of::<Rat>() <= 24, "Rat grew past three words");
    }

    #[test]
    fn prop_add_commutes() {
        let mut rng = SplitMix64::new(11);
        for _ in 0..256 {
            let (a, b) = (in_range(&mut rng, -1000, 1000), in_range(&mut rng, 1, 50));
            let (c, d) = (in_range(&mut rng, -1000, 1000), in_range(&mut rng, 1, 50));
            assert_eq!(r(a, b) + r(c, d), r(c, d) + r(a, b));
        }
    }

    #[test]
    fn prop_mul_distributes() {
        let mut rng = SplitMix64::new(12);
        for _ in 0..256 {
            let x = r(in_range(&mut rng, -100, 100), in_range(&mut rng, 1, 20));
            let y = r(in_range(&mut rng, -100, 100), in_range(&mut rng, 1, 20));
            let z = r(in_range(&mut rng, -100, 100), in_range(&mut rng, 1, 20));
            assert_eq!(&x * (&y + &z), &x * &y + &x * &z);
        }
    }

    #[test]
    fn prop_sub_add_inverse() {
        let mut rng = SplitMix64::new(13);
        for _ in 0..256 {
            let x = r(in_range(&mut rng, -1000, 1000), in_range(&mut rng, 1, 50));
            let y = r(in_range(&mut rng, -1000, 1000), in_range(&mut rng, 1, 50));
            assert_eq!(&(&x - &y) + &y, x);
        }
    }

    #[test]
    fn prop_div_mul_inverse() {
        let mut rng = SplitMix64::new(14);
        for _ in 0..256 {
            let x = r(in_range(&mut rng, -1000, 1000), in_range(&mut rng, 1, 50));
            let c = in_range(&mut rng, -1000, 1000);
            if c == 0 {
                continue;
            }
            let y = r(c, in_range(&mut rng, 1, 50));
            assert_eq!(&(&x / &y) * &y, x);
        }
    }

    #[test]
    fn prop_floor_le_value_lt_floor_plus_one() {
        let mut rng = SplitMix64::new(15);
        for _ in 0..256 {
            let x = r(in_range(&mut rng, -10_000, 10_000), in_range(&mut rng, 1, 100));
            let fl = Rat::from(x.floor());
            assert!(fl <= x);
            assert!(x < &fl + &Rat::one());
        }
    }

    #[test]
    fn prop_parse_display_roundtrip() {
        let mut rng = SplitMix64::new(16);
        for _ in 0..256 {
            let x = r(in_range(&mut rng, -100_000, 100_000), in_range(&mut rng, 1, 1000));
            let back: Rat = x.to_string().parse().unwrap();
            assert_eq!(back, x);
        }
    }

    #[test]
    fn prop_cmp_antisymmetric() {
        let mut rng = SplitMix64::new(17);
        for _ in 0..256 {
            let x = r(in_range(&mut rng, -1000, 1000), in_range(&mut rng, 1, 50));
            let y = r(in_range(&mut rng, -1000, 1000), in_range(&mut rng, 1, 50));
            assert_eq!(x.cmp(&y), y.cmp(&x).reverse());
        }
    }
}
