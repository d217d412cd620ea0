//! Monomials as `Copy`-cheap two-tier keys: packed words + an interning pool.
//!
//! A [`Monomial`] is a product `v1^e1 * v2^e2 * ...` of variable powers.  It
//! used to own a sorted `Vec<(Var, u32)>`; it is now a **two-word `Copy`
//! key** with two canonical representations:
//!
//! * **Packed** — monomials with at most two factors, variable ids below
//!   [`MAX_PACKED_VAR`] and exponents at most [`MAX_PACKED_EXP`] are encoded
//!   into a single `u64` (this covers every monomial the degree-1/2
//!   invariant and ranking templates produce).  The encoding is
//!   order-preserving: comparing two packed keys as integers gives exactly
//!   the old lexicographic factor-list order.
//! * **Interned** — anything larger is interned once in a process-global
//!   pool and represented by a `&'static` reference carrying a stable
//!   `u32` id (see [`MonoPoolStats`]).  Equal factor lists always intern to
//!   the same entry, so equality is a pointer comparison and hashing is a
//!   single word write.
//!
//! The tier is a pure function of the factor list — a packable monomial is
//! *never* interned — so `Eq`, `Ord` and `Hash` remain representation
//! independent, and `Hash` touches one machine word per monomial no matter
//! how the value was computed.
//!
//! # Canonical order invariant
//!
//! [`Monomial`]'s `Ord` is the lexicographic order on the canonical
//! (variable-sorted, positive-exponent) factor lists — bitwise the same
//! order the previous owned representation derived, on both tiers and
//! across them.  The entailment layer sorts LP rows by this order, so it is
//! load-bearing for digest stability, and the packed tier must compare as
//! plain integers:
//!
//! ```
//! use revterm_poly::{Monomial, Var};
//! let one = Monomial::one();
//! let x = Monomial::var(Var(0));
//! let xy = Monomial::from_pairs([(Var(0), 1), (Var(1), 1)]);
//! let x2 = Monomial::from_pairs([(Var(0), 2)]);
//! let y = Monomial::var(Var(1));
//! // Old derived order: 1 < x < x*y < x^2 < y  (prefix-extension before
//! // exponent growth, variable index before everything else).
//! let mut ms = vec![y, x2, x, xy, one];
//! ms.sort();
//! assert_eq!(ms, vec![one, x, xy, x2, y]);
//! ```

use crate::Var;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// Bits of a packed factor slot reserved for the exponent.
const EXP_BITS: u32 = 4;
/// Largest exponent a packed factor slot can hold.
pub const MAX_PACKED_EXP: u32 = (1 << EXP_BITS) - 1;
/// Largest variable id a packed factor slot can hold (`var + 1` must fit in
/// the remaining 28 bits of the 32-bit slot).
pub const MAX_PACKED_VAR: u32 = (1 << (32 - EXP_BITS)) - 2;

/// The packed monomial representation: two big-endian 32-bit factor slots in
/// one `u64`, each slot `((var + 1) << 4) | exp` with `0` meaning "no
/// factor".  `0` as a whole is the constant monomial `1`.
///
/// Integer comparison of packed keys equals lexicographic comparison of the
/// factor lists: the variable id occupies the high bits of each slot (so a
/// smaller variable wins before exponents are looked at), an absent slot is
/// `0` (so a strict prefix sorts first), and slots are stored most
/// significant first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct PackedMono(pub(crate) u64);

// The whole point of the packed tier: a term key is one machine word.
const _: () = assert!(std::mem::size_of::<PackedMono>() <= 8);

/// An interned (non-packable) monomial: the canonical factor list plus a
/// stable id assigned in first-encounter order.  Entries are allocated once
/// and leaked, so `&'static InternedMono` references are freely `Copy` and
/// shareable across threads.
#[derive(Debug)]
pub(crate) struct InternedMono {
    /// Stable pool id (deterministic for a deterministic run); hashing an
    /// interned monomial writes this single word.
    id: u32,
    /// Total degree, precomputed.
    degree: u32,
    /// Canonical factor list: sorted by variable, all exponents positive.
    factors: Box<[(Var, u32)]>,
}

/// Statistics of the process-global monomial interning pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MonoPoolStats {
    /// Number of distinct monomials interned since process start (monomials
    /// that did not fit the packed tier).
    pub interned: usize,
}

struct Pool {
    map: HashMap<&'static [(Var, u32)], &'static InternedMono>,
}

fn pool() -> &'static Mutex<Pool> {
    static POOL: OnceLock<Mutex<Pool>> = OnceLock::new();
    POOL.get_or_init(|| Mutex::new(Pool { map: HashMap::new() }))
}

/// Current [`MonoPoolStats`] of the process-global interning pool.
///
/// The pool is intentionally process-wide (interned entries are immutable
/// and leaked once), so ids stay meaningful across every [`crate::Poly`] in
/// the process — including values shipped between threads.  Session-level
/// consumers surface these stats next to their cache counters.
pub fn mono_pool_stats() -> MonoPoolStats {
    MonoPoolStats { interned: pool().lock().expect("monomial pool poisoned").map.len() }
}

/// Interns a canonical factor list that does not fit the packed tier.
fn intern(factors: &[(Var, u32)]) -> &'static InternedMono {
    debug_assert!(try_pack(factors).is_none(), "packable monomials must never be interned");
    let mut pool = pool().lock().expect("monomial pool poisoned");
    if let Some(entry) = pool.map.get(factors) {
        return entry;
    }
    let id = u32::try_from(pool.map.len()).expect("monomial pool overflow");
    let degree = factors.iter().map(|&(_, e)| e).sum();
    let entry: &'static InternedMono = Box::leak(Box::new(InternedMono {
        id,
        degree,
        factors: factors.to_vec().into_boxed_slice(),
    }));
    pool.map.insert(&entry.factors, entry);
    entry
}

/// Packs a canonical factor list if it fits, returning the key.
fn try_pack(factors: &[(Var, u32)]) -> Option<PackedMono> {
    if factors.len() > 2 {
        return None;
    }
    let mut key = 0u64;
    for &(v, e) in factors {
        if v.0 > MAX_PACKED_VAR || e == 0 || e > MAX_PACKED_EXP {
            return None;
        }
        let slot = (((v.0 + 1) << EXP_BITS) | e) as u64;
        key = (key << 32) | slot;
    }
    // A single factor occupies the *high* slot so prefix extension sorts
    // after the prefix itself.
    if factors.len() == 1 {
        key <<= 32;
    }
    Some(PackedMono(key))
}

/// Decodes a packed key into its (at most two) factors.
fn unpack(key: u64) -> ([(Var, u32); 2], usize) {
    let mut out = [(Var(0), 0u32); 2];
    let mut n = 0;
    for slot in [(key >> 32) as u32, key as u32] {
        if slot != 0 {
            out[n] = (Var((slot >> EXP_BITS) - 1), slot & MAX_PACKED_EXP);
            n += 1;
        }
    }
    (out, n)
}

#[derive(Clone, Copy)]
enum Repr {
    Packed(PackedMono),
    Interned(&'static InternedMono),
}

/// A monomial, i.e. a product `v1^e1 * v2^e2 * ...` of variable powers.
///
/// `Copy`-cheap (two machine words): see the [crate docs](crate) for the
/// packed/interned tier split and the canonical order invariant.  The empty
/// product denotes the constant monomial `1`.
#[derive(Clone, Copy)]
pub struct Monomial(Repr);

impl Monomial {
    /// The constant monomial `1`.
    pub fn one() -> Self {
        Monomial(Repr::Packed(PackedMono(0)))
    }

    /// The monomial consisting of a single variable.
    pub fn var(v: Var) -> Self {
        Monomial::from_canonical(&[(v, 1)])
    }

    /// Builds a monomial from an already canonical (variable-sorted,
    /// positive-exponent) factor list, choosing the tier.
    fn from_canonical(factors: &[(Var, u32)]) -> Self {
        debug_assert!(factors.windows(2).all(|w| w[0].0 < w[1].0), "factors must be sorted");
        debug_assert!(factors.iter().all(|&(_, e)| e > 0), "exponents must be positive");
        match try_pack(factors) {
            Some(key) => Monomial(Repr::Packed(key)),
            None => Monomial(Repr::Interned(intern(factors))),
        }
    }

    /// Builds a monomial from `(variable, exponent)` pairs.
    ///
    /// Pairs with zero exponents are dropped; repeated variables are merged.
    pub fn from_pairs<I: IntoIterator<Item = (Var, u32)>>(pairs: I) -> Self {
        let mut factors: Vec<(Var, u32)> = Vec::new();
        for (v, e) in pairs {
            if e == 0 {
                continue;
            }
            factors.push((v, e));
        }
        factors.sort_by_key(|&(v, _)| v);
        let mut merged: Vec<(Var, u32)> = Vec::with_capacity(factors.len());
        for (v, e) in factors {
            if let Some(last) = merged.last_mut() {
                if last.0 == v {
                    last.1 += e;
                    continue;
                }
            }
            merged.push((v, e));
        }
        Monomial::from_canonical(&merged)
    }

    /// Returns `true` iff this is the constant monomial `1`.
    pub fn is_one(&self) -> bool {
        matches!(self.0, Repr::Packed(PackedMono(0)))
    }

    /// Returns `true` iff the monomial lives in the packed (single-`u64`)
    /// tier; `false` means it is interned in the pool.
    pub fn is_packed(&self) -> bool {
        matches!(self.0, Repr::Packed(_))
    }

    /// Runs `f` on the canonical factor slice without allocating.
    fn with_factors<R>(&self, f: impl FnOnce(&[(Var, u32)]) -> R) -> R {
        match self.0 {
            Repr::Packed(PackedMono(key)) => {
                let (buf, n) = unpack(key);
                f(&buf[..n])
            }
            Repr::Interned(m) => f(&m.factors),
        }
    }

    /// Total degree (sum of exponents).
    pub fn degree(&self) -> u32 {
        match self.0 {
            Repr::Packed(PackedMono(key)) => {
                ((key >> 32) as u32 & MAX_PACKED_EXP) + (key as u32 & MAX_PACKED_EXP)
            }
            Repr::Interned(m) => m.degree,
        }
    }

    /// Exponent of a variable (zero if absent).
    pub fn exponent(&self, v: Var) -> u32 {
        self.with_factors(|fs| fs.iter().find(|&&(w, _)| w == v).map_or(0, |&(_, e)| e))
    }

    /// Iterates over `(variable, exponent)` pairs in canonical (variable
    /// ascending) order.  Allocation-free on both tiers.
    pub fn iter(&self) -> Factors {
        match self.0 {
            Repr::Packed(PackedMono(key)) => {
                let (buf, n) = unpack(key);
                Factors(FactorsInner::Inline { buf, len: n as u8, pos: 0 })
            }
            Repr::Interned(m) => Factors(FactorsInner::Slice(m.factors.iter())),
        }
    }

    /// The variables occurring in the monomial.
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.iter().map(|(v, _)| v)
    }

    /// Product of two monomials.  Both-packed products merge on the stack
    /// and re-pack without touching the pool unless the result overflows
    /// the packed tier.
    pub fn mul(&self, other: &Monomial) -> Monomial {
        self.with_factors(|a| {
            other.with_factors(|b| {
                // Merge two canonical lists; spill to a Vec only when the
                // merged list cannot fit the stack buffer.
                let mut buf = [(Var(0), 0u32); 8];
                let (mut i, mut j, mut n) = (0, 0, 0);
                let mut spill: Vec<(Var, u32)> = Vec::new();
                let mut push = |item: (Var, u32), n: &mut usize, spill: &mut Vec<(Var, u32)>| {
                    if !spill.is_empty() {
                        spill.push(item);
                    } else if *n < buf.len() {
                        buf[*n] = item;
                        *n += 1;
                    } else {
                        spill.extend_from_slice(&buf);
                        spill.push(item);
                    }
                };
                while i < a.len() && j < b.len() {
                    match a[i].0.cmp(&b[j].0) {
                        std::cmp::Ordering::Less => {
                            push(a[i], &mut n, &mut spill);
                            i += 1;
                        }
                        std::cmp::Ordering::Greater => {
                            push(b[j], &mut n, &mut spill);
                            j += 1;
                        }
                        std::cmp::Ordering::Equal => {
                            push((a[i].0, a[i].1 + b[j].1), &mut n, &mut spill);
                            i += 1;
                            j += 1;
                        }
                    }
                }
                for &f in &a[i..] {
                    push(f, &mut n, &mut spill);
                }
                for &f in &b[j..] {
                    push(f, &mut n, &mut spill);
                }
                if spill.is_empty() {
                    Monomial::from_canonical(&buf[..n])
                } else {
                    Monomial::from_canonical(&spill)
                }
            })
        })
    }

    /// Writes the monomial to `out`, each variable named by `names`: the
    /// factors in canonical order joined by `*`, an exponent above 1 as
    /// `^e`, and `1` for the constant monomial.
    pub fn write_with(
        &self,
        out: &mut dyn fmt::Write,
        names: &dyn Fn(&mut dyn fmt::Write, Var) -> fmt::Result,
    ) -> fmt::Result {
        if self.is_one() {
            return out.write_str("1");
        }
        for (i, (v, e)) in self.iter().enumerate() {
            if i > 0 {
                out.write_str("*")?;
            }
            names(out, v)?;
            if e != 1 {
                write!(out, "^{e}")?;
            }
        }
        Ok(())
    }

    /// Renders the monomial using a variable name resolver.
    pub fn display_with(&self, names: &dyn Fn(Var) -> String) -> String {
        crate::render(|out| self.write_with(out, &|out, v| out.write_str(&names(v))))
    }
}

impl Default for Monomial {
    fn default() -> Self {
        Monomial::one()
    }
}

impl PartialEq for Monomial {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (Repr::Packed(a), Repr::Packed(b)) => a == b,
            // Interning is canonical: equal factor lists share one entry.
            (Repr::Interned(a), Repr::Interned(b)) => std::ptr::eq(*a, *b),
            // A packable monomial is never interned, so cross-tier values
            // always differ.
            _ => false,
        }
    }
}

impl Eq for Monomial {}

impl PartialOrd for Monomial {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Monomial {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        match (&self.0, &other.0) {
            // The packed encoding is order-preserving: integer comparison is
            // the lexicographic factor-list comparison.
            (Repr::Packed(a), Repr::Packed(b)) => a.cmp(b),
            (Repr::Interned(a), Repr::Interned(b)) if std::ptr::eq(*a, *b) => {
                std::cmp::Ordering::Equal
            }
            _ => self.with_factors(|a| other.with_factors(|b| a.cmp(b))),
        }
    }
}

impl std::hash::Hash for Monomial {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // One word per monomial.  Valid packed keys are either 0 or have a
        // non-zero high slot, so `id + 1` (high half zero, low half
        // non-zero) can never collide with a packed key.
        match self.0 {
            Repr::Packed(PackedMono(key)) => state.write_u64(key),
            Repr::Interned(m) => state.write_u64(m.id as u64 + 1),
        }
    }
}

impl fmt::Debug for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Monomial({self})")
    }
}

impl fmt::Display for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_with(f, &|out, v| write!(out, "{v}"))
    }
}

enum FactorsInner {
    Inline { buf: [(Var, u32); 2], len: u8, pos: u8 },
    Slice(std::slice::Iter<'static, (Var, u32)>),
}

/// Iterator over a monomial's `(variable, exponent)` factors (see
/// [`Monomial::iter`]).  Does not borrow the monomial: packed factors are
/// decoded inline and interned factors live in the `'static` pool.
pub struct Factors(FactorsInner);

impl Iterator for Factors {
    type Item = (Var, u32);

    fn next(&mut self) -> Option<(Var, u32)> {
        match &mut self.0 {
            FactorsInner::Inline { buf, len, pos } => {
                if pos < len {
                    let item = buf[*pos as usize];
                    *pos += 1;
                    Some(item)
                } else {
                    None
                }
            }
            FactorsInner::Slice(it) => it.next().copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match &self.0 {
            FactorsInner::Inline { len, pos, .. } => (len - pos) as usize,
            FactorsInner::Slice(it) => it.len(),
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for Factors {}

#[cfg(test)]
mod tests {
    use super::*;
    use revterm_num::SplitMix64;

    #[test]
    fn one_and_var() {
        assert!(Monomial::one().is_one());
        assert_eq!(Monomial::one().degree(), 0);
        let m = Monomial::var(Var(3));
        assert_eq!(m.degree(), 1);
        assert_eq!(m.exponent(Var(3)), 1);
        assert_eq!(m.exponent(Var(2)), 0);
    }

    #[test]
    fn from_pairs_merges_and_drops_zero() {
        let m = Monomial::from_pairs([(Var(1), 2), (Var(0), 1), (Var(1), 1), (Var(2), 0)]);
        assert_eq!(m.exponent(Var(1)), 3);
        assert_eq!(m.exponent(Var(0)), 1);
        assert_eq!(m.exponent(Var(2)), 0);
        assert_eq!(m.degree(), 4);
    }

    #[test]
    fn multiplication() {
        let a = Monomial::from_pairs([(Var(0), 1), (Var(1), 2)]);
        let b = Monomial::from_pairs([(Var(1), 1), (Var(2), 1)]);
        let c = a.mul(&b);
        assert_eq!(c.exponent(Var(0)), 1);
        assert_eq!(c.exponent(Var(1)), 3);
        assert_eq!(c.exponent(Var(2)), 1);
    }

    #[test]
    fn display() {
        let m = Monomial::from_pairs([(Var(0), 2), (Var(1), 1)]);
        assert_eq!(m.to_string(), "v0^2*v1");
        assert_eq!(Monomial::one().to_string(), "1");
        let named = m.display_with(&|v| if v == Var(0) { "x".into() } else { "y".into() });
        assert_eq!(named, "x^2*y");
    }

    /// The reference order the key tiers must reproduce: lexicographic
    /// comparison of canonical factor lists (the old derived `Ord`).
    fn ref_cmp(a: &Monomial, b: &Monomial) -> std::cmp::Ordering {
        let fa: Vec<(Var, u32)> = a.iter().collect();
        let fb: Vec<(Var, u32)> = b.iter().collect();
        fa.cmp(&fb)
    }

    #[test]
    fn packed_tier_boundaries() {
        // Degree-≤2 small-var monomials pack.
        assert!(Monomial::one().is_packed());
        assert!(Monomial::var(Var(0)).is_packed());
        assert!(Monomial::from_pairs([(Var(0), 2)]).is_packed());
        assert!(Monomial::from_pairs([(Var(0), 1), (Var(1), 1)]).is_packed());
        assert!(Monomial::from_pairs([(Var(MAX_PACKED_VAR), MAX_PACKED_EXP)]).is_packed());
        // Exponent overflow falls back to the interned tier.
        assert!(!Monomial::from_pairs([(Var(0), MAX_PACKED_EXP + 1)]).is_packed());
        // Var-id overflow falls back.
        assert!(!Monomial::from_pairs([(Var(MAX_PACKED_VAR + 1), 1)]).is_packed());
        // More than two factors fall back.
        assert!(!Monomial::from_pairs([(Var(0), 1), (Var(1), 1), (Var(2), 1)]).is_packed());
        // The tier is canonical: multiplying back below the boundary returns
        // to the packed tier.
        let big = Monomial::from_pairs([(Var(0), 1), (Var(1), 1), (Var(2), 1)]);
        assert!(!big.is_packed());
        assert_eq!(big.degree(), 3);
    }

    #[test]
    fn eq_ord_hash_agree_across_tiers() {
        use std::hash::{Hash, Hasher};
        let fnv = |m: &Monomial| {
            let mut h = revterm_num::Fnv64::new();
            m.hash(&mut h);
            h.finish()
        };
        // A mixed bag straddling the boundary: packed, exponent-overflow
        // interned, var-overflow interned, many-factor interned.
        let ms = vec![
            Monomial::one(),
            Monomial::var(Var(0)),
            Monomial::var(Var(1)),
            Monomial::from_pairs([(Var(0), 2)]),
            Monomial::from_pairs([(Var(0), 1), (Var(1), 1)]),
            Monomial::from_pairs([(Var(0), MAX_PACKED_EXP + 1)]),
            Monomial::from_pairs([(Var(MAX_PACKED_VAR + 1), 1)]),
            Monomial::from_pairs([(Var(0), 1), (Var(1), 1), (Var(2), 1)]),
            Monomial::from_pairs([(Var(0), 1), (Var(1), 2), (Var(2), 3)]),
        ];
        for a in &ms {
            for b in &ms {
                assert_eq!(a.cmp(b), ref_cmp(a, b), "ord mismatch: {a} vs {b}");
                assert_eq!(a == b, ref_cmp(a, b).is_eq(), "eq mismatch: {a} vs {b}");
                if a == b {
                    assert_eq!(fnv(a), fnv(b), "hash mismatch on equal {a}");
                }
            }
        }
        // Independently built equal monomials intern to the same entry.
        let x = Monomial::from_pairs([(Var(3), 7), (Var(9), 20)]);
        let y = Monomial::from_pairs([(Var(9), 20), (Var(3), 7)]);
        assert!(!x.is_packed());
        assert_eq!(x, y);
        assert_eq!(fnv(&x), fnv(&y));
        assert!(mono_pool_stats().interned > 0);
    }

    #[test]
    fn prop_order_matches_factor_lex_on_random_monomials() {
        // SplitMix64 differential loop over the tier boundary.
        let mut rng = SplitMix64::new(0x4D4F_4E4F);
        let mut random_mono = || {
            let n = rng.next_below(4) as usize;
            Monomial::from_pairs((0..n).map(|_| {
                let v = Var(rng.next_below(6) as u32);
                let e = rng.next_below(20) as u32; // exponents past MAX_PACKED_EXP
                (v, e)
            }))
        };
        let ms: Vec<Monomial> = (0..64).map(|_| random_mono()).collect();
        for a in &ms {
            for b in &ms {
                assert_eq!(a.cmp(b), ref_cmp(a, b), "ord mismatch: {a:?} vs {b:?}");
                let prod = a.mul(b);
                // Multiplication agrees with merging factor maps.
                for v in (0..6).map(Var) {
                    assert_eq!(prod.exponent(v), a.exponent(v) + b.exponent(v));
                }
            }
        }
    }
}
