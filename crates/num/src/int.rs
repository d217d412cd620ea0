//! Two-tier arbitrary-precision integers: inline `i64` with a sign-magnitude
//! bignum fallback.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Rem, Sub, SubAssign};
use std::str::FromStr;

/// Sign of an [`Int`]. The derived ordering (`Negative < Zero < Positive`)
/// matches the numeric one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Sign {
    /// Strictly negative.
    Negative,
    /// Exactly zero.
    Zero,
    /// Strictly positive.
    Positive,
}

/// Internal representation of an [`Int`].
///
/// Canonical-form invariant: every value that fits in an `i64` is stored as
/// `Small`; `Big` is used **only** for values outside the `i64` range
/// (`limbs` is little-endian base-2^64, non-empty, without trailing zero
/// limbs, and `sign` is never [`Sign::Zero`]). Because the representation of
/// every value is unique, the derived `PartialEq`/`Eq`/`Hash` are
/// automatically representation-independent.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// Inline machine-word value; covers all of `i64`, allocation-free.
    Small(i64),
    /// Heap fallback for values outside the `i64` range.
    Big {
        /// Never `Sign::Zero` (zero is `Small(0)`).
        sign: Sign,
        /// Little-endian limbs; no trailing zeros; magnitude > `i64` range.
        limbs: Vec<u64>,
    },
}

/// An arbitrary-precision signed integer.
///
/// Values in the `i64` range are stored inline (no heap allocation); results
/// that overflow a machine word transparently promote to a sign-magnitude
/// limb vector, and every operation demotes back to the inline form whenever
/// its result fits. `Eq`/`Ord`/`Hash` therefore never depend on *how* a value
/// was computed, only on the value itself.
///
/// Arithmetic is implemented for owned values and references; all operations
/// promote as needed and never overflow.
///
/// ```
/// use revterm_num::Int;
/// let a: Int = "123456789012345678901234567890".parse().unwrap();
/// let b = &a * &a;
/// assert_eq!(&b / &a, a);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Int {
    repr: Repr,
}

/// Error returned when parsing an [`Int`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseIntError {
    msg: String,
}

impl fmt::Display for ParseIntError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid integer literal: {}", self.msg)
    }
}

impl std::error::Error for ParseIntError {}

// ---------------------------------------------------------------------------
// Magnitude (unsigned limb-vector) helpers. All operate on canonical vectors.
// ---------------------------------------------------------------------------

fn mag_trim(v: &mut Vec<u64>) {
    while v.last() == Some(&0) {
        v.pop();
    }
}

fn mag_cmp(a: &[u64], b: &[u64]) -> Ordering {
    if a.len() != b.len() {
        return a.len().cmp(&b.len());
    }
    for i in (0..a.len()).rev() {
        match a[i].cmp(&b[i]) {
            Ordering::Equal => continue,
            o => return o,
        }
    }
    Ordering::Equal
}

fn mag_add(a: &[u64], b: &[u64]) -> Vec<u64> {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(long.len() + 1);
    let mut carry = 0u64;
    for i in 0..long.len() {
        let x = long[i];
        let y = if i < short.len() { short[i] } else { 0 };
        let (s1, c1) = x.overflowing_add(y);
        let (s2, c2) = s1.overflowing_add(carry);
        out.push(s2);
        carry = (c1 as u64) + (c2 as u64);
    }
    if carry != 0 {
        out.push(carry);
    }
    out
}

/// Computes `a - b` assuming `a >= b`.
fn mag_sub(a: &[u64], b: &[u64]) -> Vec<u64> {
    debug_assert!(mag_cmp(a, b) != Ordering::Less);
    let mut out = Vec::with_capacity(a.len());
    let mut borrow = 0u64;
    for i in 0..a.len() {
        let x = a[i];
        let y = if i < b.len() { b[i] } else { 0 };
        let (d1, b1) = x.overflowing_sub(y);
        let (d2, b2) = d1.overflowing_sub(borrow);
        out.push(d2);
        borrow = (b1 as u64) + (b2 as u64);
    }
    debug_assert_eq!(borrow, 0);
    mag_trim(&mut out);
    out
}

fn mag_mul(a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0u64; a.len() + b.len()];
    for (i, &x) in a.iter().enumerate() {
        if x == 0 {
            continue;
        }
        let mut carry = 0u128;
        for (j, &y) in b.iter().enumerate() {
            let cur = out[i + j] as u128 + (x as u128) * (y as u128) + carry;
            out[i + j] = cur as u64;
            carry = cur >> 64;
        }
        let mut k = i + b.len();
        while carry != 0 {
            let cur = out[k] as u128 + carry;
            out[k] = cur as u64;
            carry = cur >> 64;
            k += 1;
        }
    }
    mag_trim(&mut out);
    out
}

fn mag_bits(a: &[u64]) -> usize {
    match a.last() {
        None => 0,
        Some(&top) => 64 * (a.len() - 1) + (64 - top.leading_zeros() as usize),
    }
}

fn mag_shl(a: &[u64], bits: usize) -> Vec<u64> {
    if a.is_empty() {
        return Vec::new();
    }
    let limb_shift = bits / 64;
    let bit_shift = bits % 64;
    let mut out = vec![0u64; limb_shift];
    if bit_shift == 0 {
        out.extend_from_slice(a);
    } else {
        let mut carry = 0u64;
        for &x in a {
            out.push((x << bit_shift) | carry);
            carry = x >> (64 - bit_shift);
        }
        if carry != 0 {
            out.push(carry);
        }
    }
    mag_trim(&mut out);
    out
}

fn mag_shr(a: &[u64], bits: usize) -> Vec<u64> {
    let limb_shift = bits / 64;
    let bit_shift = bits % 64;
    if limb_shift >= a.len() {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(a.len() - limb_shift);
    if bit_shift == 0 {
        out.extend_from_slice(&a[limb_shift..]);
    } else {
        let src = &a[limb_shift..];
        for i in 0..src.len() {
            let lo = src[i] >> bit_shift;
            let hi = if i + 1 < src.len() { src[i + 1] << (64 - bit_shift) } else { 0 };
            out.push(lo | hi);
        }
    }
    mag_trim(&mut out);
    out
}

/// Schoolbook binary long division of magnitudes: returns `(quotient, remainder)`.
///
/// Correctness over speed: shift–subtract with per-limb batching is more than
/// fast enough for the coefficient sizes produced by Farkas/Handelman
/// encodings and Simplex pivoting in this project (and the machine-word fast
/// path short-circuits the common case entirely).
fn mag_divrem(a: &[u64], b: &[u64]) -> (Vec<u64>, Vec<u64>) {
    assert!(!b.is_empty(), "division by zero");
    if mag_cmp(a, b) == Ordering::Less {
        return (Vec::new(), a.to_vec());
    }
    // Fast path: single-limb divisor.
    if b.len() == 1 {
        let d = b[0] as u128;
        let mut q = vec![0u64; a.len()];
        let mut rem: u128 = 0;
        for i in (0..a.len()).rev() {
            let cur = (rem << 64) | a[i] as u128;
            q[i] = (cur / d) as u64;
            rem = cur % d;
        }
        mag_trim(&mut q);
        let mut r = vec![rem as u64];
        mag_trim(&mut r);
        return (q, r);
    }
    let shift = mag_bits(a) - mag_bits(b);
    let mut rem = a.to_vec();
    let mut quot = vec![0u64; shift / 64 + 1];
    let mut divisor = mag_shl(b, shift);
    let mut k = shift as isize;
    while k >= 0 {
        if mag_cmp(&rem, &divisor) != Ordering::Less {
            rem = mag_sub(&rem, &divisor);
            quot[(k as usize) / 64] |= 1u64 << ((k as usize) % 64);
        }
        divisor = mag_shr(&divisor, 1);
        k -= 1;
    }
    mag_trim(&mut quot);
    mag_trim(&mut rem);
    (quot, rem)
}

/// Binary GCD on machine words (always the fast path for two small values).
/// Shared with the packed [`crate::Rat`] tier, which reduces machine-word
/// fractions without constructing `Int`s.
pub(crate) fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

fn flip(sign: Sign) -> Sign {
    match sign {
        Sign::Negative => Sign::Positive,
        Sign::Zero => Sign::Zero,
        Sign::Positive => Sign::Negative,
    }
}

// ---------------------------------------------------------------------------
// Int API
// ---------------------------------------------------------------------------

impl Int {
    /// Inline constructor (always canonical: every `i64` is `Small`).
    const fn small(v: i64) -> Int {
        Int { repr: Repr::Small(v) }
    }

    /// The integer zero.
    pub const fn zero() -> Self {
        Int::small(0)
    }

    /// The integer one.
    pub const fn one() -> Self {
        Int::small(1)
    }

    /// Returns `true` iff the value is zero.
    pub fn is_zero(&self) -> bool {
        matches!(self.repr, Repr::Small(0))
    }

    /// Returns `true` iff the value is one.
    pub fn is_one(&self) -> bool {
        matches!(self.repr, Repr::Small(1))
    }

    /// Returns `true` iff the value is stored inline (allocation-free).
    ///
    /// This is exactly the case for values in the `i64` range; the canonical
    /// form invariant guarantees that results of arithmetic demote back to
    /// the inline form whenever they fit.
    pub fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Small(_))
    }

    /// Returns the sign of the value.
    pub fn sign(&self) -> Sign {
        match &self.repr {
            Repr::Small(v) => match v.cmp(&0) {
                Ordering::Less => Sign::Negative,
                Ordering::Equal => Sign::Zero,
                Ordering::Greater => Sign::Positive,
            },
            Repr::Big { sign, .. } => *sign,
        }
    }

    /// Returns `true` iff the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.sign() == Sign::Negative
    }

    /// Returns `true` iff the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.sign() == Sign::Positive
    }

    /// Absolute value.
    pub fn abs(&self) -> Int {
        if self.is_negative() {
            -self.clone()
        } else {
            self.clone()
        }
    }

    /// Canonicalizing constructor from a sign and a magnitude: trims the
    /// limbs and demotes to the inline form when the value fits in an `i64`.
    fn from_mag(sign: Sign, mut limbs: Vec<u64>) -> Int {
        mag_trim(&mut limbs);
        match limbs.len() {
            0 => Int::zero(),
            1 => {
                let m = limbs[0];
                match sign {
                    Sign::Positive if m <= i64::MAX as u64 => Int::small(m as i64),
                    // `m as i64` then wrapping-neg is exact for every
                    // magnitude up to 2^63 (which maps to `i64::MIN`).
                    Sign::Negative if m <= 1u64 << 63 => Int::small((m as i64).wrapping_neg()),
                    Sign::Zero => Int::zero(),
                    _ => Int { repr: Repr::Big { sign, limbs } },
                }
            }
            _ => Int { repr: Repr::Big { sign, limbs } },
        }
    }

    /// One-limb inline magnitude buffer for `Small` values (`[0]` for zero or
    /// `Big`; callers pair it with [`Int::sign_mag`]).
    fn small_buf(&self) -> [u64; 1] {
        match &self.repr {
            Repr::Small(v) => [v.unsigned_abs()],
            Repr::Big { .. } => [0],
        }
    }

    /// Borrowed sign-magnitude view; `buf` must come from
    /// [`Int::small_buf`] on the same value.
    fn sign_mag<'a>(&'a self, buf: &'a [u64; 1]) -> (Sign, &'a [u64]) {
        match &self.repr {
            Repr::Small(v) => {
                let mag: &[u64] = if *v == 0 { &[] } else { &buf[..] };
                (self.sign(), mag)
            }
            Repr::Big { sign, limbs } => (*sign, limbs),
        }
    }

    /// Signed addition on sign-magnitude views.
    fn add_sign_mag(ls: Sign, lm: &[u64], rs: Sign, rm: &[u64]) -> Int {
        match (ls, rs) {
            (Sign::Zero, _) => Int::from_mag(rs, rm.to_vec()),
            (_, Sign::Zero) => Int::from_mag(ls, lm.to_vec()),
            (a, b) if a == b => Int::from_mag(a, mag_add(lm, rm)),
            _ => match mag_cmp(lm, rm) {
                Ordering::Equal => Int::zero(),
                Ordering::Greater => Int::from_mag(ls, mag_sub(lm, rm)),
                Ordering::Less => Int::from_mag(rs, mag_sub(rm, lm)),
            },
        }
    }

    /// Euclidean-style division returning `(quotient, remainder)` with the
    /// same convention as Rust's built-in integers (truncation toward zero;
    /// the remainder has the sign of the dividend).
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn div_rem(&self, other: &Int) -> (Int, Int) {
        assert!(!other.is_zero(), "division by zero");
        if let (Repr::Small(a), Repr::Small(b)) = (&self.repr, &other.repr) {
            // `i64::MIN / -1` overflows `i64`; `i128` covers it exactly.
            let (a, b) = (*a as i128, *b as i128);
            return (Int::from(a / b), Int::from(a % b));
        }
        if self.is_zero() {
            return (Int::zero(), Int::zero());
        }
        let (abuf, bbuf) = (self.small_buf(), other.small_buf());
        let (ls, lm) = self.sign_mag(&abuf);
        let (rs, rm) = other.sign_mag(&bbuf);
        let (q_mag, r_mag) = mag_divrem(lm, rm);
        let q_sign = if ls == rs { Sign::Positive } else { Sign::Negative };
        (Int::from_mag(q_sign, q_mag), Int::from_mag(ls, r_mag))
    }

    /// Greatest common divisor (always non-negative).
    ///
    /// `gcd(0, 0) == 0`. Two inline values use binary GCD on machine words
    /// and never allocate; mixed operands fall back to Euclid, which drops to
    /// the machine-word path after the first reduction step.
    pub fn gcd(&self, other: &Int) -> Int {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.repr, &other.repr) {
            return Int::from(gcd_u64(a.unsigned_abs(), b.unsigned_abs()));
        }
        let mut a = self.abs();
        let mut b = other.abs();
        while !b.is_zero() {
            if let (Repr::Small(x), Repr::Small(y)) = (&a.repr, &b.repr) {
                return Int::from(gcd_u64(x.unsigned_abs(), y.unsigned_abs()));
            }
            let (_, r) = a.div_rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Least common multiple (always non-negative). `lcm(0, x) == 0`.
    pub fn lcm(&self, other: &Int) -> Int {
        if self.is_zero() || other.is_zero() {
            return Int::zero();
        }
        let g = self.gcd(other);
        (&self.abs() / &g) * other.abs()
    }

    /// Raises the value to a non-negative integer power.
    pub fn pow(&self, exp: u32) -> Int {
        let mut result = Int::one();
        let mut base = self.clone();
        let mut e = exp;
        while e > 0 {
            if e & 1 == 1 {
                result = &result * &base;
            }
            base = &base * &base;
            e >>= 1;
        }
        result
    }

    /// Converts to an `i64` if the value fits.
    pub fn to_i64(&self) -> Option<i64> {
        match &self.repr {
            Repr::Small(v) => Some(*v),
            // Canonical form: `Big` is always outside the `i64` range.
            Repr::Big { .. } => None,
        }
    }

    /// Lossy conversion to `f64` (used only for reporting, never for logic).
    pub fn to_f64(&self) -> f64 {
        match &self.repr {
            Repr::Small(v) => *v as f64,
            Repr::Big { sign, limbs } => {
                let mut acc = 0.0_f64;
                for &limb in limbs.iter().rev() {
                    acc = acc * 1.8446744073709552e19 + limb as f64;
                }
                if *sign == Sign::Negative {
                    -acc
                } else {
                    acc
                }
            }
        }
    }

    /// Number of significant bits of the absolute value (zero has 0 bits).
    pub fn bits(&self) -> usize {
        match &self.repr {
            Repr::Small(v) => (64 - v.unsigned_abs().leading_zeros()) as usize,
            Repr::Big { limbs, .. } => mag_bits(limbs),
        }
    }
}

impl Default for Int {
    fn default() -> Self {
        Int::zero()
    }
}

impl From<i64> for Int {
    fn from(v: i64) -> Self {
        Int::small(v)
    }
}

impl From<u64> for Int {
    fn from(v: u64) -> Self {
        if v <= i64::MAX as u64 {
            Int::small(v as i64)
        } else {
            Int { repr: Repr::Big { sign: Sign::Positive, limbs: vec![v] } }
        }
    }
}

impl From<i32> for Int {
    fn from(v: i32) -> Self {
        Int::small(v as i64)
    }
}

impl From<usize> for Int {
    fn from(v: usize) -> Self {
        Int::from(v as u64)
    }
}

impl From<i128> for Int {
    fn from(v: i128) -> Self {
        if let Ok(small) = i64::try_from(v) {
            return Int::small(small);
        }
        let sign = if v < 0 { Sign::Negative } else { Sign::Positive };
        let mag = v.unsigned_abs();
        let lo = mag as u64;
        let hi = (mag >> 64) as u64;
        let mut limbs = vec![lo, hi];
        mag_trim(&mut limbs);
        Int { repr: Repr::Big { sign, limbs } }
    }
}

impl FromStr for Int {
    type Err = ParseIntError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        let (neg, digits) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s.strip_prefix('+').unwrap_or(s)),
        };
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return Err(ParseIntError { msg: s.to_string() });
        }
        // Fast path: at most 18 digits always fits an i64 (10^18 < 2^63).
        if digits.len() <= 18 {
            let acc = chunk_val(digits.as_bytes());
            return Ok(Int::small(if neg { -acc } else { acc }));
        }
        // Slow path: fold 18-digit chunks so the loop does one big-by-small
        // multiply per chunk instead of one per digit.
        let bytes = digits.as_bytes();
        let mut acc = Int::zero();
        let mut pos = 0usize;
        let head = bytes.len() % 18;
        if head > 0 {
            acc = Int::from(chunk_val(&bytes[..head]));
            pos = head;
        }
        let chunk_base = Int::from(1_000_000_000_000_000_000_i64); // 10^18
        while pos < bytes.len() {
            acc = &acc * &chunk_base + Int::from(chunk_val(&bytes[pos..pos + 18]));
            pos += 18;
        }
        if neg {
            acc = -acc;
        }
        Ok(acc)
    }
}

/// Parses up to 18 ASCII digits into an `i64` (callers guarantee the bound).
fn chunk_val(digits: &[u8]) -> i64 {
    let mut acc: i64 = 0;
    for &b in digits {
        acc = acc * 10 + (b - b'0') as i64;
    }
    acc
}

impl fmt::Display for Int {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.repr {
            Repr::Small(v) => write!(f, "{}", v),
            Repr::Big { sign, limbs } => {
                let mut digits = Vec::new();
                let mut mag = limbs.clone();
                let billion = [1_000_000_000_u64];
                // Extract 9 decimal digits at a time.
                while !mag.is_empty() {
                    let (q, r) = mag_divrem(&mag, &billion);
                    let chunk = if r.is_empty() { 0 } else { r[0] };
                    digits.push(chunk);
                    mag = q;
                }
                let mut out = String::new();
                if *sign == Sign::Negative {
                    out.push('-');
                }
                out.push_str(&digits.last().unwrap().to_string());
                for chunk in digits.iter().rev().skip(1) {
                    out.push_str(&format!("{:09}", chunk));
                }
                write!(f, "{}", out)
            }
        }
    }
}

impl fmt::Debug for Int {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Int({})", self)
    }
}

impl PartialOrd for Int {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Int {
    fn cmp(&self, other: &Self) -> Ordering {
        match (&self.repr, &other.repr) {
            (Repr::Small(a), Repr::Small(b)) => a.cmp(b),
            // Canonical form: a Big value lies strictly outside the i64
            // range, so its sign alone decides against any Small value.
            (Repr::Small(_), Repr::Big { sign, .. }) => match sign {
                Sign::Positive => Ordering::Less,
                _ => Ordering::Greater,
            },
            (Repr::Big { sign, .. }, Repr::Small(_)) => match sign {
                Sign::Positive => Ordering::Greater,
                _ => Ordering::Less,
            },
            (Repr::Big { sign: s1, limbs: l1 }, Repr::Big { sign: s2, limbs: l2 }) => {
                match s1.cmp(s2) {
                    Ordering::Equal => {}
                    o => return o,
                }
                match s1 {
                    Sign::Positive => mag_cmp(l1, l2),
                    _ => mag_cmp(l2, l1),
                }
            }
        }
    }
}

// Arithmetic on references; owned forms forward to these.

impl<'b> Add<&'b Int> for &Int {
    type Output = Int;
    fn add(self, rhs: &'b Int) -> Int {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.repr, &rhs.repr) {
            return match a.checked_add(*b) {
                Some(s) => Int::small(s),
                None => Int::from(*a as i128 + *b as i128),
            };
        }
        let (abuf, bbuf) = (self.small_buf(), rhs.small_buf());
        let (ls, lm) = self.sign_mag(&abuf);
        let (rs, rm) = rhs.sign_mag(&bbuf);
        Int::add_sign_mag(ls, lm, rs, rm)
    }
}

impl<'b> Sub<&'b Int> for &Int {
    type Output = Int;
    fn sub(self, rhs: &'b Int) -> Int {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.repr, &rhs.repr) {
            return match a.checked_sub(*b) {
                Some(s) => Int::small(s),
                None => Int::from(*a as i128 - *b as i128),
            };
        }
        let (abuf, bbuf) = (self.small_buf(), rhs.small_buf());
        let (ls, lm) = self.sign_mag(&abuf);
        let (rs, rm) = rhs.sign_mag(&bbuf);
        Int::add_sign_mag(ls, lm, flip(rs), rm)
    }
}

impl<'b> Mul<&'b Int> for &Int {
    type Output = Int;
    fn mul(self, rhs: &'b Int) -> Int {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.repr, &rhs.repr) {
            return match a.checked_mul(*b) {
                Some(p) => Int::small(p),
                // i64 × i64 always fits in i128.
                None => Int::from(*a as i128 * *b as i128),
            };
        }
        if self.is_zero() || rhs.is_zero() {
            return Int::zero();
        }
        let (abuf, bbuf) = (self.small_buf(), rhs.small_buf());
        let (ls, lm) = self.sign_mag(&abuf);
        let (rs, rm) = rhs.sign_mag(&bbuf);
        let sign = if ls == rs { Sign::Positive } else { Sign::Negative };
        Int::from_mag(sign, mag_mul(lm, rm))
    }
}

impl<'b> Div<&'b Int> for &Int {
    type Output = Int;
    fn div(self, rhs: &'b Int) -> Int {
        self.div_rem(rhs).0
    }
}

impl<'b> Rem<&'b Int> for &Int {
    type Output = Int;
    fn rem(self, rhs: &'b Int) -> Int {
        self.div_rem(rhs).1
    }
}

macro_rules! forward_binop {
    ($trait:ident, $method:ident) => {
        impl $trait<Int> for Int {
            type Output = Int;
            fn $method(self, rhs: Int) -> Int {
                (&self).$method(&rhs)
            }
        }
        impl<'a> $trait<&'a Int> for Int {
            type Output = Int;
            fn $method(self, rhs: &'a Int) -> Int {
                (&self).$method(rhs)
            }
        }
        impl<'a> $trait<Int> for &'a Int {
            type Output = Int;
            fn $method(self, rhs: Int) -> Int {
                self.$method(&rhs)
            }
        }
    };
}

forward_binop!(Add, add);
forward_binop!(Sub, sub);
forward_binop!(Mul, mul);
forward_binop!(Div, div);
forward_binop!(Rem, rem);

impl Neg for Int {
    type Output = Int;
    fn neg(self) -> Int {
        match self.repr {
            Repr::Small(v) => match v.checked_neg() {
                Some(n) => Int::small(n),
                // -i64::MIN == 2^63 promotes to a single limb.
                None => Int { repr: Repr::Big { sign: Sign::Positive, limbs: vec![1u64 << 63] } },
            },
            // Demotes when the magnitude is exactly 2^63 (-> i64::MIN).
            Repr::Big { sign, limbs } => Int::from_mag(flip(sign), limbs),
        }
    }
}

impl Neg for &Int {
    type Output = Int;
    fn neg(self) -> Int {
        -self.clone()
    }
}

impl AddAssign<&Int> for Int {
    fn add_assign(&mut self, rhs: &Int) {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.repr, &rhs.repr) {
            if let Some(s) = a.checked_add(*b) {
                self.repr = Repr::Small(s);
                return;
            }
        }
        *self = &*self + rhs;
    }
}

impl SubAssign<&Int> for Int {
    fn sub_assign(&mut self, rhs: &Int) {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.repr, &rhs.repr) {
            if let Some(s) = a.checked_sub(*b) {
                self.repr = Repr::Small(s);
                return;
            }
        }
        *self = &*self - rhs;
    }
}

impl MulAssign<&Int> for Int {
    fn mul_assign(&mut self, rhs: &Int) {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.repr, &rhs.repr) {
            if let Some(p) = a.checked_mul(*b) {
                self.repr = Repr::Small(p);
                return;
            }
        }
        *self = &*self * rhs;
    }
}

impl std::iter::Sum for Int {
    fn sum<I: Iterator<Item = Int>>(iter: I) -> Int {
        iter.fold(Int::zero(), |mut a, b| {
            a += &b;
            a
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn i128_any(rng: &mut SplitMix64) -> i128 {
        ((rng.next_u64() as i128) << 64) | rng.next_u64() as i128
    }

    /// In `lo..hi` (the upper end excluded).
    fn in_range(rng: &mut SplitMix64, lo: i128, hi: i128) -> i128 {
        lo + (i128_any(rng).rem_euclid(hi - lo))
    }

    fn big(s: &str) -> Int {
        s.parse().unwrap()
    }

    fn hash_of(x: &Int) -> u64 {
        let mut h = DefaultHasher::new();
        x.hash(&mut h);
        h.finish()
    }

    /// Checks the canonical-form invariant: inline iff the value fits in i64.
    fn assert_canonical(x: &Int) {
        if let Repr::Big { sign, limbs } = &x.repr {
            assert!(!limbs.is_empty() && *limbs.last().unwrap() != 0, "non-canonical limbs");
            assert!(*sign != Sign::Zero, "Big with Sign::Zero");
            // Big must be outside the i64 range: one limb below 2^63, or
            // exactly 2^63 when negative (`i64::MIN`), would fit.
            let fits = limbs.len() == 1
                && (limbs[0] < 1 << 63 || (limbs[0] == 1 << 63 && *sign == Sign::Negative));
            assert!(!fits, "Big holds an i64 value");
        }
    }

    #[test]
    fn zero_and_one() {
        assert!(Int::zero().is_zero());
        assert!(Int::one().is_one());
        assert_eq!(Int::zero().to_string(), "0");
        assert_eq!(Int::default(), Int::zero());
        assert_eq!(Int::zero().sign(), Sign::Zero);
        assert!(Int::zero().is_inline());
    }

    #[test]
    fn from_and_display_roundtrip_small() {
        for v in [-1000_i64, -37, -1, 0, 1, 5, 64, 1 << 40, i64::MAX, i64::MIN + 1, i64::MIN] {
            assert_eq!(Int::from(v).to_string(), v.to_string());
            assert!(Int::from(v).is_inline());
        }
    }

    #[test]
    fn parse_roundtrip_large() {
        let s = "123456789012345678901234567890123456789";
        assert_eq!(big(s).to_string(), s);
        let s = "-999999999999999999999999999999";
        assert_eq!(big(s).to_string(), s);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<Int>().is_err());
        assert!("12a".parse::<Int>().is_err());
        assert!("--3".parse::<Int>().is_err());
        assert!("1 2".parse::<Int>().is_err());
    }

    #[test]
    fn parse_accepts_whitespace_and_plus() {
        assert_eq!(" 42 ".parse::<Int>().unwrap(), Int::from(42_i64));
        assert_eq!("+42".parse::<Int>().unwrap(), Int::from(42_i64));
    }

    #[test]
    fn addition_with_carries() {
        let a = big("18446744073709551615"); // 2^64 - 1
        let b = Int::one();
        assert_eq!((&a + &b).to_string(), "18446744073709551616");
        assert_eq!((&a + &a).to_string(), "36893488147419103230");
    }

    #[test]
    fn subtraction_and_signs() {
        let a = Int::from(5_i64);
        let b = Int::from(12_i64);
        assert_eq!((&a - &b).to_string(), "-7");
        assert_eq!((&b - &a).to_string(), "7");
        assert_eq!((&a - &a), Int::zero());
        assert_eq!((-Int::from(5_i64)) - Int::from(3_i64), Int::from(-8_i64));
    }

    #[test]
    fn multiplication_large() {
        let a = big("123456789123456789");
        let b = big("987654321987654321");
        assert_eq!((&a * &b).to_string(), "121932631356500531347203169112635269");
        assert_eq!(&a * Int::zero(), Int::zero());
        assert_eq!((-a) * b, -big("121932631356500531347203169112635269"));
    }

    #[test]
    fn division_matches_builtin_semantics() {
        for a in [-100_i64, -37, -5, 0, 5, 37, 100] {
            for b in [-7_i64, -3, -1, 1, 3, 7] {
                let (q, r) = Int::from(a).div_rem(&Int::from(b));
                assert_eq!(q, Int::from(a / b), "q for {a}/{b}");
                assert_eq!(r, Int::from(a % b), "r for {a}%{b}");
            }
        }
    }

    #[test]
    fn division_large() {
        let a = big("121932631356500531347203169112635269");
        let b = big("123456789123456789");
        assert_eq!((&a / &b).to_string(), "987654321987654321");
        assert_eq!(&a % &b, Int::zero());
        let c = &a + Int::from(17_i64);
        assert_eq!(&c % &b, Int::from(17_i64));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = Int::from(3_i64).div_rem(&Int::zero());
    }

    #[test]
    fn gcd_lcm() {
        assert_eq!(Int::from(12_i64).gcd(&Int::from(18_i64)), Int::from(6_i64));
        assert_eq!(Int::from(-12_i64).gcd(&Int::from(18_i64)), Int::from(6_i64));
        assert_eq!(Int::zero().gcd(&Int::zero()), Int::zero());
        assert_eq!(Int::from(4_i64).lcm(&Int::from(6_i64)), Int::from(12_i64));
        assert_eq!(Int::zero().lcm(&Int::from(6_i64)), Int::zero());
    }

    #[test]
    fn gcd_mixed_representations() {
        // gcd of a Big and a Small drops to the machine-word path.
        let two_pow_100 = Int::from(2_i64).pow(100);
        assert_eq!(two_pow_100.gcd(&Int::from(96_i64)), Int::from(32_i64));
        assert_eq!(Int::from(96_i64).gcd(&two_pow_100), Int::from(32_i64));
        // gcd involving i64::MIN magnitude (2^63) stays correct.
        let min = Int::from(i64::MIN);
        assert_eq!(min.gcd(&Int::zero()).to_string(), "9223372036854775808");
        assert_eq!(min.gcd(&Int::from(3_i64)), Int::one());
    }

    #[test]
    fn pow() {
        assert_eq!(Int::from(2_i64).pow(10), Int::from(1024_i64));
        assert_eq!(Int::from(10_i64).pow(0), Int::one());
        assert_eq!(Int::from(-3_i64).pow(3), Int::from(-27_i64));
        assert_eq!(Int::from(10_i64).pow(25).to_string(), format!("1{}", "0".repeat(25)));
    }

    #[test]
    fn ordering() {
        let mut v = [
            Int::from(3_i64),
            Int::from(-10_i64),
            Int::zero(),
            big("99999999999999999999"),
            Int::from(-2_i64),
        ];
        v.sort();
        let shown: Vec<String> = v.iter().map(|x| x.to_string()).collect();
        assert_eq!(shown, vec!["-10", "-2", "0", "3", "99999999999999999999"]);
    }

    #[test]
    fn to_f64_rough() {
        assert_eq!(Int::from(5_i64).to_f64(), 5.0);
        assert!((big("1000000000000000000000").to_f64() - 1e21).abs() < 1e7);
    }

    #[test]
    fn bits() {
        assert_eq!(Int::zero().bits(), 0);
        assert_eq!(Int::one().bits(), 1);
        assert_eq!(Int::from(255_i64).bits(), 8);
        assert_eq!(Int::from(256_i64).bits(), 9);
        assert_eq!(Int::from(2_i64).pow(130).bits(), 131);
        assert_eq!(Int::from(i64::MIN).bits(), 64);
    }

    // -----------------------------------------------------------------------
    // Promotion / demotion edges of the two-tier representation.
    // -----------------------------------------------------------------------

    #[test]
    fn i64_min_edge() {
        let min = Int::from(i64::MIN);
        assert!(min.is_inline());
        assert_eq!(min.to_i64(), Some(i64::MIN));
        // Negating i64::MIN promotes to a single-limb Big of magnitude 2^63.
        let negated = -min.clone();
        assert!(!negated.is_inline());
        assert_eq!(negated.to_string(), "9223372036854775808");
        assert_eq!(negated.to_i64(), None);
        assert_canonical(&negated);
        // Negating back demotes to the inline form and compares/hashes equal.
        let back = -negated.clone();
        assert!(back.is_inline());
        assert_eq!(back, min);
        assert_eq!(hash_of(&back), hash_of(&min));
        // abs() of i64::MIN also promotes.
        assert_eq!(min.abs(), negated);
        // div_rem at the overflow corner: i64::MIN / -1 == 2^63 (promotes).
        let (q, r) = min.div_rem(&Int::from(-1_i64));
        assert_eq!(q, negated);
        assert_eq!(r, Int::zero());
        // Subtraction that lands exactly on i64::MIN stays inline.
        let edge = Int::from(i64::MIN + 1) - Int::one();
        assert!(edge.is_inline());
        assert_eq!(edge, min);
    }

    #[test]
    fn u64_limb_boundary() {
        // 2^63 - 1 (i64::MAX) is the largest inline positive value.
        let max = Int::from(i64::MAX);
        assert!(max.is_inline());
        // 2^63 promotes; 2^64 - 1 is the largest single-limb magnitude;
        // 2^64 needs two limbs. All must agree with string parsing.
        let p63 = &max + Int::one();
        assert!(!p63.is_inline());
        assert_eq!(p63, big("9223372036854775808"));
        assert_canonical(&p63);
        let umax = Int::from(u64::MAX);
        assert!(!umax.is_inline());
        assert_eq!(umax, big("18446744073709551615"));
        assert_canonical(&umax);
        let p64 = &umax + Int::one();
        assert_eq!(p64, big("18446744073709551616"));
        assert_eq!(p64.bits(), 65);
        assert_canonical(&p64);
        // Computing 2^64 a second way (via pow) is Eq/Hash/Ord-identical.
        let p64_pow = Int::from(2_i64).pow(64);
        assert_eq!(p64, p64_pow);
        assert_eq!(hash_of(&p64), hash_of(&p64_pow));
        assert_eq!(p64.cmp(&p64_pow), Ordering::Equal);
        // Ordering across the boundary.
        assert!(max < p63 && p63 < umax && umax < p64);
        assert!(-&p64 < -&umax && -&umax < Int::from(i64::MIN));
    }

    #[test]
    fn add_mul_overflow_roundtrips() {
        let mut rng = SplitMix64::new(42);
        for _ in 0..512 {
            let a = rng.next_u64() as i64;
            let b = rng.next_u64() as i64;
            // Addition promotes iff i64 overflows; subtracting back demotes.
            let sum = Int::from(a) + Int::from(b);
            assert_eq!(sum, Int::from(a as i128 + b as i128));
            assert_eq!(sum.is_inline(), a.checked_add(b).is_some());
            assert_canonical(&sum);
            let back = &sum - &Int::from(b);
            assert!(back.is_inline(), "demotion failed for {a} + {b} - {b}");
            assert_eq!(back, Int::from(a));
            assert_eq!(hash_of(&back), hash_of(&Int::from(a)));
            // Multiplication promotes iff i64 overflows; division demotes.
            let prod = Int::from(a) * Int::from(b);
            assert_eq!(prod, Int::from(a as i128 * b as i128));
            assert_eq!(prod.is_inline(), a.checked_mul(b).is_some());
            assert_canonical(&prod);
            if b != 0 {
                let back = &prod / &Int::from(b);
                assert!(back.is_inline());
                assert_eq!(back, Int::from(a));
            }
        }
    }

    #[test]
    fn small_and_promoted_representations_agree() {
        // A value computed entirely inline and the same value that round-trips
        // through the Big representation must be indistinguishable to
        // Eq/Hash/Ord — the canonical form makes the representations unique.
        let mut rng = SplitMix64::new(43);
        let offset = Int::from(2_i64).pow(100);
        for _ in 0..512 {
            let v = rng.next_u64() as i64;
            let direct = Int::from(v);
            let promoted = &(&direct + &offset) - &offset;
            assert!(promoted.is_inline(), "round-trip through Big failed to demote for {v}");
            assert_eq!(promoted, direct);
            assert_eq!(hash_of(&promoted), hash_of(&direct));
            assert_eq!(promoted.cmp(&direct), Ordering::Equal);
            // Ordering against an unrelated value is consistent either way.
            let w = Int::from(rng.next_u64() as i64);
            assert_eq!(promoted.cmp(&w), direct.cmp(&w));
            assert_canonical(&promoted);
        }
    }

    #[test]
    fn assign_ops_match_binops() {
        let mut rng = SplitMix64::new(44);
        for _ in 0..256 {
            let a = rng.next_u64() as i64;
            let b = rng.next_u64() as i64;
            let (ia, ib) = (Int::from(a), Int::from(b));
            let mut x = ia.clone();
            x += &ib;
            assert_eq!(x, &ia + &ib);
            let mut x = ia.clone();
            x -= &ib;
            assert_eq!(x, &ia - &ib);
            let mut x = ia.clone();
            x *= &ib;
            assert_eq!(x, &ia * &ib);
        }
    }

    #[test]
    fn prop_add_matches_i128() {
        let mut rng = SplitMix64::new(1);
        for _ in 0..256 {
            let a = in_range(&mut rng, -1_000_000_000_000, 1_000_000_000_000);
            let b = in_range(&mut rng, -1_000_000_000_000, 1_000_000_000_000);
            assert_eq!(Int::from(a) + Int::from(b), Int::from(a + b));
        }
    }

    #[test]
    fn prop_mul_matches_i128() {
        let mut rng = SplitMix64::new(2);
        for _ in 0..256 {
            let a = in_range(&mut rng, -1_000_000_000, 1_000_000_000);
            let b = in_range(&mut rng, -1_000_000_000, 1_000_000_000);
            assert_eq!(Int::from(a) * Int::from(b), Int::from(a * b));
        }
    }

    #[test]
    fn prop_divrem_matches_i128() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..256 {
            let a = in_range(&mut rng, -1_000_000_000_000, 1_000_000_000_000);
            let b = in_range(&mut rng, -1_000_000, 1_000_000);
            if b == 0 {
                continue;
            }
            let (q, r) = Int::from(a).div_rem(&Int::from(b));
            assert_eq!(q, Int::from(a / b));
            assert_eq!(r, Int::from(a % b));
        }
    }

    #[test]
    fn prop_divrem_reconstructs() {
        let mut rng = SplitMix64::new(4);
        for _ in 0..256 {
            let a = i128_any(&mut rng);
            let b = i128_any(&mut rng);
            if b == 0 {
                continue;
            }
            // a = q*b + r, |r| < |b|
            let ia = Int::from(a);
            let ib = Int::from(b);
            let (q, r) = ia.div_rem(&ib);
            assert_eq!(&q * &ib + &r, ia);
            assert!(r.abs() < ib.abs());
        }
    }

    #[test]
    fn prop_parse_display_roundtrip() {
        let mut rng = SplitMix64::new(5);
        for _ in 0..256 {
            let i = Int::from(i128_any(&mut rng));
            let back: Int = i.to_string().parse().unwrap();
            assert_eq!(back, i);
        }
    }

    #[test]
    fn prop_gcd_divides() {
        let mut rng = SplitMix64::new(6);
        for _ in 0..256 {
            let a = rng.next_u64() as i64;
            let b = rng.next_u64() as i64;
            let g = Int::from(a).gcd(&Int::from(b));
            if !g.is_zero() {
                assert_eq!(Int::from(a) % &g, Int::zero());
                assert_eq!(Int::from(b) % &g, Int::zero());
            } else {
                assert_eq!(a, 0);
                assert_eq!(b, 0);
            }
        }
    }

    #[test]
    fn prop_cmp_matches_i128() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..256 {
            let a = i128_any(&mut rng);
            let b = i128_any(&mut rng);
            assert_eq!(Int::from(a).cmp(&Int::from(b)), a.cmp(&b));
        }
    }

    #[test]
    fn prop_mul_big_then_div() {
        let mut rng = SplitMix64::new(8);
        for _ in 0..256 {
            let a = in_range(&mut rng, 1, 1_000_000_000_000_000);
            let b = in_range(&mut rng, 1, 1_000_000_000_000_000);
            let ia = Int::from(a);
            let ib = Int::from(b);
            let prod = &ia * &ib;
            assert_eq!(&prod / &ia, ib.clone());
            assert_eq!(&prod / &ib, ia);
            assert_eq!(&prod % &ib, Int::zero());
        }
    }
}
