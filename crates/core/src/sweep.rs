//! Configuration sweeps (the paper's Section 6 evaluation protocol).
//!
//! The paper evaluates RevTerm by running every configuration — a choice of
//! check, SMT solver and template size `(c, d, D)` — separately and counting
//! a benchmark as proved non-terminating if *at least one* configuration
//! succeeds.  [`ProverSession::sweep`](crate::ProverSession::sweep)
//! reproduces that protocol into a [`SweepReport`], which records every
//! configuration's verdict together with its runtime — the raw data behind
//! Tables 1–4.  This module holds the report types and the standard grids.

use crate::config::{CheckKind, ProverConfig, Strategy};
use crate::session::ProveStats;
use revterm_invgen::TemplateParams;
use std::time::Duration;

/// The outcome of one configuration on one benchmark.
#[derive(Debug, Clone)]
pub struct ConfigOutcome {
    /// The configuration label (`check1/houdini/(c=2,d=1,D=1)`).
    pub label: String,
    /// Which check the configuration ran.
    pub check: CheckKind,
    /// Which strategy (solver stand-in) the configuration used.
    pub strategy: Strategy,
    /// The template parameters.
    pub params: TemplateParams,
    /// Whether non-termination was proved.
    pub proved: bool,
    /// Whether the configuration's [`crate::Budget`] cut the run short (in
    /// which case `proved` is `false` but the configuration was not
    /// exhausted).
    pub timed_out: bool,
    /// Wall-clock time of this configuration.
    pub elapsed: Duration,
    /// Per-stage statistics of this configuration's run (candidates tried,
    /// synthesis/entailment calls, cache hits).
    pub stats: ProveStats,
}

/// The sweep result for one benchmark.
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// Per-configuration outcomes, in sweep order.
    pub outcomes: Vec<ConfigOutcome>,
}

impl SweepReport {
    /// Returns `true` iff at least one configuration proved non-termination.
    pub fn proved(&self) -> bool {
        self.outcomes.iter().any(|o| o.proved)
    }

    /// The fastest successful configuration, if any.
    pub fn fastest_success(&self) -> Option<&ConfigOutcome> {
        self.outcomes.iter().filter(|o| o.proved).min_by_key(|o| o.elapsed)
    }

    /// The successful configurations restricted to a check / strategy cell
    /// (used by the Table 3 harness).
    pub fn proved_with(&self, check: CheckKind, strategy: Strategy) -> bool {
        self.outcomes.iter().any(|o| o.proved && o.check == check && o.strategy == strategy)
    }

    /// Whether some configuration with template bounds `c ≤ max_c` and
    /// `d ≤ max_d` proved the benchmark (used by the Table 4 harness).
    pub fn proved_within(&self, max_c: usize, max_d: usize, max_degree: u32) -> bool {
        self.outcomes.iter().any(|o| {
            o.proved && o.params.c <= max_c && o.params.d <= max_d && o.params.degree <= max_degree
        })
    }
}

/// The default configuration grid of the reproduction: both checks, both
/// strategies, template sizes `c ∈ {1, 2, 3}`, `d ∈ {1, 2}` and degrees
/// `D ∈ {1, 2}`.
///
/// The paper sweeps `c, d ∈ [1, 5]` and `D ∈ [1, 2]`; its own Table 4 shows
/// that `c ≤ 3`, `d ≤ 2`, `D ≤ 2` already reaches every benchmark that the
/// full sweep reaches, so the reduced grid preserves the comparison while
/// keeping the exact-arithmetic sweep affordable.
pub fn default_sweep() -> Vec<ProverConfig> {
    let mut configs = Vec::new();
    for &check in &[CheckKind::Check1, CheckKind::Check2] {
        for &strategy in &[Strategy::Houdini, Strategy::GuardPropagation] {
            for &c in &[1usize, 2, 3] {
                for &d in &[1usize, 2] {
                    for &degree in &[1u32, 2] {
                        configs.push(
                            ProverConfig::builder()
                                .check(check)
                                .strategy(strategy)
                                .params(TemplateParams::new(c, d, degree))
                                .build(),
                        );
                    }
                }
            }
        }
    }
    configs
}

/// A small sweep used in tests and the quickstart example: Check 1 and
/// Check 2 with the default strategy and a single template size.
pub fn quick_sweep() -> Vec<ProverConfig> {
    vec![
        ProverConfig::default(),
        ProverConfig::builder().check(CheckKind::Check2).template(3, 1, 1).build(),
    ]
}

/// The degree-1 slice of [`default_sweep`]: both checks, both strategies,
/// `c ∈ {1, 2, 3}`, `d ∈ {1, 2}`, `D = 1` (24 configurations).
///
/// Degree-2 cells pay for Handelman products in every entailment call and
/// are orders of magnitude more expensive; harnesses that track sweep
/// performance (e.g. `num_profile` in `revterm-bench`) use this grid.
pub fn degree1_sweep() -> Vec<ProverConfig> {
    default_sweep().into_iter().filter(|c| c.params.degree == 1).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProverSession;
    use revterm_lang::parse_program;

    #[test]
    fn degree1_sweep_is_the_degree_one_slice() {
        let configs = degree1_sweep();
        assert_eq!(configs.len(), 2 * 2 * 3 * 2);
        assert!(configs.iter().all(|c| c.params.degree == 1));
    }

    #[test]
    fn default_sweep_covers_both_checks_and_strategies() {
        let configs = default_sweep();
        assert_eq!(configs.len(), 2 * 2 * 3 * 2 * 2);
        assert!(configs.iter().any(|c| c.check == CheckKind::Check1));
        assert!(configs.iter().any(|c| c.check == CheckKind::Check2));
        assert!(configs.iter().any(|c| c.strategy == Strategy::GuardPropagation));
        // Labels are unique.
        let mut labels: Vec<String> = configs.iter().map(|c| c.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), configs.len());
    }

    #[test]
    fn sweep_reports_first_success_and_statistics() {
        let program = parse_program("while x >= 0 do x := x + 1; od").unwrap();
        let report = ProverSession::from_program(&program).unwrap().sweep(&quick_sweep(), 1);
        assert!(report.proved());
        let fastest = report.fastest_success().unwrap();
        assert!(fastest.proved);
        assert!(report.proved_with(fastest.check, fastest.strategy));
        assert!(report.proved_within(5, 5, 2));
        assert!(!report.proved_within(0, 0, 0));
    }

    #[test]
    fn sweep_on_terminating_program_reports_nothing() {
        let program = parse_program("n := 0; while n <= 3 do n := n + 1; od").unwrap();
        let report = ProverSession::from_program(&program).unwrap().sweep(&quick_sweep(), 1);
        assert!(!report.proved());
        assert!(report.fastest_success().is_none());
        assert_eq!(report.outcomes.len(), quick_sweep().len());
    }
}
