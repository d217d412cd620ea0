//! The prover's verdict type and its one free entry point.
//!
//! [`prove`] is one cold run on a one-shot set of caches — the "fresh" run
//! that sessions are measured and checked against; everything else goes
//! through a [`crate::ProverSession`], which shares derived artifacts across
//! configurations.

use crate::certificate::NonTerminationCertificate;
use crate::check1::check1_cached;
use crate::check2::check2_cached;
use crate::config::{Budget, CheckKind, ProverConfig};
use crate::session::{Caches, ProveStats};
use revterm_invgen::SynthesisBudget;
use revterm_ts::TransitionSystem;
use std::time::{Duration, Instant};

/// The verdict of a prover run.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// Non-termination was proved; the (validated) certificate is attached.
    NonTerminating(Box<NonTerminationCertificate>),
    /// The prover could not prove non-termination with this configuration
    /// (the program may still be non-terminating — the algorithm is sound,
    /// not complete).
    Unknown,
    /// The configuration's cooperative [`Budget`] expired before the search
    /// finished.  Unlike [`Verdict::Unknown`] this does *not* mean the
    /// configuration was exhausted — re-running with a larger budget may
    /// still prove non-termination.  The interruption happens before any
    /// work (a budget already spent), at candidate boundaries or between
    /// Houdini batches, and a cut-short synthesis is never memoized, so the
    /// session that produced this verdict is never left with partially
    /// computed cache entries.
    Timeout,
}

/// Sentinel returned by the cached checks when the budget fires.
pub(crate) struct TimedOut;

/// The result of a prover run: the verdict plus timing and per-stage
/// statistics.
#[derive(Debug, Clone)]
pub struct ProofResult {
    /// The verdict.
    pub verdict: Verdict,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// The configuration label that produced the verdict.
    pub config_label: String,
    /// Structured per-stage statistics: candidates tried, synthesis and
    /// entailment calls, cache hits (all zero deltas on a cold one-shot run
    /// except the computation counters).
    pub stats: ProveStats,
}

impl ProofResult {
    /// Returns `true` iff non-termination was proved.
    pub fn is_non_terminating(&self) -> bool {
        matches!(self.verdict, Verdict::NonTerminating(_))
    }

    /// Returns `true` iff the run was cut short by its [`Budget`].
    pub fn timed_out(&self) -> bool {
        matches!(self.verdict, Verdict::Timeout)
    }

    /// The certificate, if non-termination was proved.
    pub fn certificate(&self) -> Option<&NonTerminationCertificate> {
        match &self.verdict {
            Verdict::NonTerminating(c) => Some(c),
            Verdict::Unknown | Verdict::Timeout => None,
        }
    }
}

/// Runs one configuration against the session caches, validating any
/// candidate certificate — evidence from the session memo or freshly
/// generated, then the exact check — before reporting non-termination.
///
/// The configuration's [`Budget`] is armed here and polled once before any
/// work, so a run whose budget is already spent (a zero limit or work cap,
/// or a deadline that has passed) is a [`Verdict::Timeout`] that touched no
/// cache.
pub(crate) fn prove_cached(
    ts: &TransitionSystem,
    config: &ProverConfig,
    caches: &mut Caches,
) -> ProofResult {
    let start = Instant::now();
    let mut stats = ProveStats::default();
    let (lookups_before, hits_before) = (caches.entail.lookups, caches.entail.hits);
    let lp_before = caches.entail.lp_stats();
    // The budget armed for this call: the time limit counts from its start,
    // the request's deadline is absolute, and the work cap counts only this
    // call's own entailment lookups.
    let Budget { time_limit, deadline, max_entailment_calls } = config.budget;
    let budget = SynthesisBudget {
        deadline: [time_limit.map(|limit| start + limit), deadline].into_iter().flatten().min(),
        entail_call_stop: max_entailment_calls.map(|cap| lookups_before.saturating_add(cap)),
    };
    let candidate = if budget.exhausted(lookups_before) {
        Err(TimedOut)
    } else {
        match config.check {
            CheckKind::Check1 => check1_cached(ts, config, caches, &mut stats, &budget),
            CheckKind::Check2 => check2_cached(ts, config, caches, &mut stats, &budget),
        }
    };
    let verdict = match candidate {
        Ok(Some(cert)) => match caches.validate(ts, &cert, &config.entailment, &mut stats) {
            Ok(()) => Verdict::NonTerminating(Box::new(cert)),
            Err(_) => Verdict::Unknown,
        },
        Ok(None) => Verdict::Unknown,
        Err(TimedOut) => Verdict::Timeout,
    };
    stats.entailment_calls = caches.entail.lookups - lookups_before;
    stats.entailment_cache_hits = caches.entail.hits - hits_before;
    stats.lp = caches.entail.lp_stats().delta_since(&lp_before);
    ProofResult { verdict, elapsed: start.elapsed(), config_label: config.label(), stats }
}

/// Proves non-termination of a transition system with a single configuration.
///
/// A `NonTerminating` verdict is only returned after the certificate produced
/// by the check has been validated ([`crate::validate_certificate`]); if
/// validation fails (which would indicate a bug in the synthesis heuristics)
/// the verdict is downgraded to `Unknown`.
///
/// This is exactly one cold [`crate::ProverSession::prove`] call.  Prefer
/// opening a session when proving the same system more than once.
pub fn prove(ts: &TransitionSystem, config: &ProverConfig) -> ProofResult {
    prove_cached(ts, config, &mut Caches::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CheckKind, Strategy};
    use crate::ProverSession;
    use revterm_lang::parse_program;

    const RUNNING: &str =
        "while x >= 9 do x := ndet(); y := 10 * x; while x <= y do x := x + 1; od od";

    /// Fig. 3 / Appendix C: every non-terminating execution is aperiodic.
    const APERIODIC: &str = "while x >= 1 do y := 10 * x; while x <= y do x := x + 1; od od";

    /// A scaled-down version of Fig. 2 (bound 3 instead of 99): no initial
    /// configuration is diverging w.r.t. any constant resolution, but the
    /// program is non-terminating.
    const FIG2_SMALL: &str = "n := 0; b := 0; u := 0; \
        while b == 0 and n <= 3 do \
          u := ndet(); \
          if u <= -1 then b := -1; elseif u == 0 then b := 0; else b := 1; fi \
          n := n + 1; \
          if n >= 4 and b >= 1 then while true do skip; od fi \
        od";

    #[test]
    fn check1_proves_running_example() {
        let ts = revterm_ts::lower(&parse_program(RUNNING).unwrap()).unwrap();
        let result = prove(&ts, &ProverConfig::default());
        assert!(result.is_non_terminating());
        let cert = result.certificate().unwrap();
        assert_eq!(cert.check_kind(), CheckKind::Check1);
        // The certificate summary mentions the resolved assignment.
        assert!(cert.summary(&ts).contains("x :="));
    }

    #[test]
    fn check1_proves_aperiodic_example() {
        let ts = revterm_ts::lower(&parse_program(APERIODIC).unwrap()).unwrap();
        let result = prove(&ts, &ProverConfig::default());
        assert!(result.is_non_terminating(), "Fig. 3 should be proved by Check 1");
    }

    #[test]
    fn terminating_programs_stay_unknown() {
        let ts =
            revterm_ts::lower(&parse_program("n := 0; while n <= 5 do n := n + 1; od").unwrap())
                .unwrap();
        for check in [CheckKind::Check1, CheckKind::Check2] {
            let result = prove(&ts, &ProverConfig::with_check(check));
            assert!(!result.is_non_terminating(), "{check} must not claim non-termination");
        }
    }

    #[test]
    fn check2_proves_program_without_initial_diverging_configuration() {
        let ts = revterm_ts::lower(&parse_program(FIG2_SMALL).unwrap()).unwrap();
        // Check 1 fails with constant/linear resolutions (Example 5.5's point).
        let c1 = prove(&ts, &ProverConfig::default());
        assert!(!c1.is_non_terminating(), "Check 1 should not prove the Fig. 2 family");
        // Check 2 succeeds.
        let mut config = ProverConfig::with_check(CheckKind::Check2);
        config.params = revterm_invgen::TemplateParams::new(3, 1, 1);
        let c2 = prove(&ts, &config);
        assert!(c2.is_non_terminating(), "Check 2 should prove the Fig. 2 family");
        assert_eq!(c2.certificate().unwrap().check_kind(), CheckKind::Check2);
    }

    #[test]
    fn guard_propagation_strategy_also_proves_easy_cases() {
        let ts =
            revterm_ts::lower(&parse_program("while x >= 0 do x := x + 1; od").unwrap()).unwrap();
        let config = ProverConfig::builder().strategy(Strategy::GuardPropagation).build();
        assert!(prove(&ts, &config).is_non_terminating());
    }

    #[test]
    fn prove_program_entry_point() {
        let program = parse_program("while true do skip; od").unwrap();
        let mut session = ProverSession::from_program(&program).unwrap();
        let result = session.prove(&ProverConfig::default());
        assert!(result.is_non_terminating());
        assert!(result.elapsed.as_secs() < 120);
        assert!(result.config_label.starts_with("check1"));
    }

    #[test]
    fn prove_with_configs_on_empty_slice_reports_the_documented_label() {
        // Regression: the empty sweep used to return `Unknown` silently with
        // the same label as "ran and failed"; it now carries the documented
        // sentinel label so callers can distinguish the two, and runs nothing.
        let ts = revterm_ts::lower(&parse_program("while true do skip; od").unwrap()).unwrap();
        let mut session = ProverSession::new(ts);
        let result = session.prove_first(&[]);
        assert!(!result.is_non_terminating());
        assert_eq!(result.config_label, crate::session::NO_CONFIGS_LABEL);
        assert_eq!(result.stats, crate::session::ProveStats::default());
        assert_eq!(session.stats().proves, 0);
    }

    #[test]
    fn prove_with_configs_tries_until_success() {
        let ts = revterm_ts::lower(&parse_program(FIG2_SMALL).unwrap()).unwrap();
        let configs = vec![
            ProverConfig::default(),
            ProverConfig::builder()
                .check(CheckKind::Check2)
                .params(revterm_invgen::TemplateParams::new(3, 1, 1))
                .build(),
        ];
        let result = ProverSession::new(ts).prove_first(&configs);
        assert!(result.is_non_terminating());
        assert!(result.config_label.starts_with("check2"));
    }
}
