//! The workspace-standard FNV-1a hasher.
//!
//! One FNV-1a implementation serves two roles across the workspace:
//!
//! * **Digests** — the bench harnesses (`num_profile`, `serve_smoke`)
//!   fold computed values into an [`Fnv64`] and compare the resulting hex
//!   digests across runs, engines and commits.  FNV-1a is deterministic by
//!   construction (no per-process seed), which is exactly what a digest
//!   needs and what `std`'s SipHash-based [`DefaultHasher`] does not
//!   guarantee across Rust releases.
//! * **Cache keys** — the solver layer hashes entailment queries and LP
//!   structural shapes into bucket keys.  Those keys are flat word streams
//!   (packed monomial keys and machine-word rationals), so the multiply-xor
//!   inner loop of FNV beats SipHash's block permutation at these sizes.
//!
//! [`Fnv64`] implements [`std::hash::Hasher`], so any `#[derive(Hash)]`
//! type can be folded into a digest with `value.hash(&mut fnv)`.
//!
//! [`DefaultHasher`]: std::collections::hash_map::DefaultHasher
//!
//! ```
//! use revterm_num::Fnv64;
//! use std::hash::Hasher;
//!
//! let mut h = Fnv64::new();
//! h.write(b"revterm");
//! assert_eq!(h.finish(), 0x4eb0_5495_8521_f558);
//! ```

/// A 64-bit FNV-1a hasher ([`std::hash::Hasher`]).
///
/// The state is the running hash; [`Fnv64::new`] starts from the standard
/// offset basis `0xcbf29ce484222325` and every byte folds in with the prime
/// `0x100000001b3`.  Identical byte streams produce identical hashes on
/// every platform and in every process — no randomness, no seeding.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// Creates a hasher at the FNV-1a offset basis.
    pub fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

impl std::hash::Hasher for Fnv64 {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hasher;

    #[test]
    fn matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        let digest = |bytes: &[u8]| {
            let mut h = Fnv64::new();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn hash_trait_integration() {
        use std::hash::Hash;
        let mut a = Fnv64::new();
        let mut b = Fnv64::new();
        (42_u64, "x").hash(&mut a);
        (42_u64, "x").hash(&mut b);
        assert_eq!(a.finish(), b.finish());
        let mut c = Fnv64::new();
        (43_u64, "x").hash(&mut c);
        assert_ne!(a.finish(), c.finish());
    }
}
