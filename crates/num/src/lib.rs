//! Exact arbitrary-precision arithmetic for the RevTerm reproduction.
//!
//! All reasoning in the rest of the workspace (polynomial arithmetic, Farkas
//! multipliers, Simplex pivoting, certificate checking) is carried out over
//! exact numbers so that a reported non-termination proof never depends on
//! floating point rounding.
//!
//! The crate provides two types:
//!
//! * [`Int`] — an arbitrary-precision integer with a **two-tier
//!   representation**: values in the `i64` range are stored inline, values
//!   outside it fall back to a sign-magnitude base-2^64 limb vector.
//! * [`Rat`] — an exact rational number with the same two-tier design:
//!   fractions whose reduced numerator and denominator both fit in an `i64`
//!   are stored as a **packed machine-word pair** (24 bytes, allocation-free
//!   arithmetic on `i64`/`i128` intermediates with machine-word gcds);
//!   anything larger falls back to a boxed pair of [`Int`]s.
//!
//! It also holds the two deterministic helpers every layer shares: the
//! [`Fnv64`] hasher behind digests and cache keys, and the [`SplitMix64`]
//! generator that the fuzz generator and the randomized tests draw from.
//!
//! # Two-tier representation and canonical form
//!
//! The coefficients produced by this project's Farkas/Handelman encodings
//! and Simplex pivots are overwhelmingly machine-word sized, so every
//! [`Int`] operation takes a checked `i64` fast path first and only promotes
//! to limbs when the machine word overflows. The **canonical-form
//! invariant** makes the tiering invisible:
//!
//! * every value that fits in an `i64` is stored inline — results demote
//!   back to the inline form whenever they fit (e.g. `-(-2^63)` after a
//!   promotion, or a big subtraction landing in range);
//! * the limb fallback is used *only* for values outside the `i64` range,
//!   with no trailing zero limbs.
//!
//! Each value therefore has exactly one representation, and `Eq`, `Ord` and
//! `Hash` never depend on how a value was computed. [`Int::is_inline`]
//! reports which tier a value is in.
//!
//! **Allocation-free operations** (on inline values): construction from
//! machine integers, `+`, `-`, `*`, the `*Assign` forms, `/`, `%`,
//! [`Int::div_rem`], [`Int::gcd`] (binary GCD on machine words),
//! comparisons, hashing, [`Int::sign`], [`Int::abs`] and negation (except at
//! the `i64::MIN` corner, which promotes to a single limb), and parsing of
//! literals with at most 18 digits. Only promotion, limb arithmetic and
//! `Display` of promoted values allocate.
//!
//! [`Rat`] keeps the classic invariants (strictly positive denominator,
//! `gcd(num, den) == 1`, zero as `0/1` — see [`Rat::new`], [`Rat::packed`],
//! [`Rat::checked_new`] and [`Rat::checked_packed`] for the
//! zero-denominator contract) but avoids the full re-reduction gcd wherever
//! the invariants already decide it: same-denominator addition reduces with
//! a single gcd, integer operands need no gcd at all, general addition uses
//! the gcd-of-denominators decomposition, multiplication cross-reduces
//! before multiplying, and reciprocal/negation/absolute-value are gcd-free.
//! Comparisons short-cut on signs and equal denominators before
//! cross-multiplying. On the packed tier all of this runs on machine words
//! (`i128` intermediates are exact: packed products are bounded by `2^126`),
//! results demote back to the packed tier whenever they fit —
//! [`Rat::is_packed`] reports the tier, mirroring [`Int::is_inline`] — and
//! the unique-representation invariant keeps `Eq`/`Ord`/`Hash`
//! representation-independent.
//!
//! # Examples
//!
//! ```
//! use revterm_num::{Int, Rat};
//!
//! let a = Int::from(10_i64).pow(30);
//! let b = &a * &a;
//! assert_eq!(b.to_string(), format!("1{}", "0".repeat(60)));
//!
//! let half = Rat::new(Int::from(1), Int::from(2));
//! let third = Rat::new(Int::from(1), Int::from(3));
//! assert_eq!((&half + &third).to_string(), "5/6");
//! ```

#![warn(missing_docs)]

mod fnv;
mod int;
mod rat;
mod rng;

pub use fnv::Fnv64;
pub use int::{Int, ParseIntError, Sign};
pub use rat::{ParseRatError, Rat};
pub use rng::SplitMix64;

/// Convenience constructor for an [`Int`] from an `i64`.
///
/// ```
/// use revterm_num::int;
/// assert_eq!(int(-3).to_string(), "-3");
/// ```
pub fn int(v: i64) -> Int {
    Int::from(v)
}

/// Convenience constructor for a [`Rat`] from an `i64`.
///
/// ```
/// use revterm_num::rat;
/// assert_eq!(rat(7), rat(14) / rat(2));
/// ```
pub fn rat(v: i64) -> Rat {
    Rat::from(v)
}

/// Convenience constructor for a [`Rat`] from a numerator/denominator pair.
///
/// # Panics
///
/// Panics if `den == 0`.
///
/// ```
/// use revterm_num::ratio;
/// assert_eq!(ratio(2, 4).to_string(), "1/2");
/// ```
pub fn ratio(num: i64, den: i64) -> Rat {
    Rat::packed(num, den)
}
