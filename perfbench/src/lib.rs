//! A deterministic-work benchmark of the RevTerm workspace.
//!
//! Three workloads (see `README.md` for why each exists):
//!
//! * [`Workload::SuiteDeg1`] — the paper's per-configuration protocol: every
//!   curated program on one session, swept over the whole degree-1 grid;
//! * [`Workload::FuzzCold`] — a seeded stream of unseen generated programs,
//!   each proved once on a fresh session;
//! * [`Workload::ServeWarm`] — two clients of a resident daemon asking again
//!   about programs it already holds.
//!
//! Every workload does the same work on every run: no wall-clock limit or
//! deadline is set anywhere, and the only budget is the deterministic
//! entailment-call cap of the fuzz portfolio.  The per-layer counts of a
//! traced run therefore repeat exactly for a given seed.

pub mod host;
pub mod trace;
pub mod workloads;

pub use workloads::{Counts, Pass, Setup, Workload};

/// The `q`-quantile of `values` (`0 ≤ q ≤ 1`), interpolating linearly
/// between the two nearest ranks.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::quantile;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((quantile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }
}
