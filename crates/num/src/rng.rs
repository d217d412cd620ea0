//! A tiny deterministic pseudo-random number generator.
//!
//! The fuzz generator draws its programs from it, and the randomized tests
//! across the workspace draw their inputs from it. To keep runs
//! reproducible across machines without an external dependency, this is the
//! workspace's one SplitMix64.

/// A SplitMix64 pseudo-random number generator.
///
/// Deterministic, seedable, and good enough for sampling heuristics; not
/// suitable for cryptography.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// A value uniformly distributed in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        self.next_u64() % bound
    }

    /// A signed value in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn next_in_range(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range");
        let span = (hi - lo) as u64 + 1;
        lo + self.next_below(span) as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_yields_the_reference_sequence() {
        // The published SplitMix64 outputs for seed 0: the fuzz batches are
        // drawn from this generator, so an edit that moves them fails here.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(rng.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(rng.next_u64(), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_are_respected() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..1000 {
            let v = rng.next_below(10);
            assert!(v < 10);
            let w = rng.next_in_range(-5, 5);
            assert!((-5..=5).contains(&w));
        }
        let mut rng = SplitMix64::new(9);
        assert_eq!(rng.next_in_range(3, 3), 3);
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn zero_bound_panics() {
        SplitMix64::new(1).next_below(0);
    }
}
