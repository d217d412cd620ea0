//! The differential oracle harness.
//!
//! [`differential`] runs one program through a [`ProverSession`] config
//! portfolio and cross-checks **four oracles**:
//!
//! 1. **Baselines** — every entry of [`revterm_baselines::table_baselines`]
//!    plus the [`RankingProver`] (the termination side).  All are sound, so
//!    any pair of contradictory claims — including against the program's
//!    by-construction [`KnownLabel`] — is a [`FailureKind::VerdictMismatch`].
//! 2. **Certificate validation** — a `NonTerminating` verdict must carry a
//!    certificate that the independent (uncached) checker accepts under
//!    default entailment options, whose evidence comes from the interval
//!    closure first and an LP for the rest; anything else is
//!    [`FailureKind::InvalidCertificate`]. [`DiffReport::validate_time`]
//!    times it.
//! 3. **Absint on vs. off** — the abstract-interpretation pre-analysis and
//!    its entailment fast path are sound pruning only, so the
//!    [`outcome_digest`] must be bitwise identical with both halves
//!    disabled; divergence is [`FailureKind::DigestDivergence`]. The off
//!    run validates its certificate with LP-only evidence (the session keys
//!    evidence on the options), so the LP path stays fuzzed on every proof.
//! 4. **Revised vs. dense LP engine** — the portfolio re-run on the dense
//!    reference tableau must produce a digest-identical outcome.
//!
//! All axes run on **one reused session** (the primary portfolio warms it,
//! the differential re-runs hit its caches): the sessioned-equals-fresh
//! contract means warm caches cannot change a verdict, so session reuse is
//! both the realistic streaming workload and extra coverage of cache purity.
//!
//! `inject_flip` flips the primary prover verdict (`NonTerminating` ↔
//! `Unknown`) *after* the run but *before* the cross-checks — a deliberate
//! fault injection used by the demo test and CI to prove the harness still
//! catches a lying prover end to end (the flip surfaces as a mismatch with
//! the label/baselines and as a certificate-less non-termination claim).

use crate::generate::KnownLabel;
use revterm::{
    outcome_digest, validate_certificate, Budget, Error, ProverConfig, ProverSession, Strategy,
};
use revterm_baselines::{
    table_baselines, BaselineProver, BaselineVerdict, QuasiInvariantProver, RankingProver,
};
use revterm_invgen::TemplateParams;
use revterm_lang::Program;
use revterm_solver::{EntailmentOptions, LpEngine};
use std::fmt;
use std::time::{Duration, Instant};

/// What went wrong for one program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureKind {
    /// Two sound claimants disagree (`Terminating` vs `NonTerminating`).
    VerdictMismatch,
    /// A claimed non-termination verdict has no validating certificate.
    InvalidCertificate,
    /// An internal differential axis produced a different outcome digest.
    DigestDivergence,
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::VerdictMismatch => write!(f, "verdict-mismatch"),
            FailureKind::InvalidCertificate => write!(f, "invalid-certificate"),
            FailureKind::DigestDivergence => write!(f, "digest-divergence"),
        }
    }
}

impl FailureKind {
    /// Parses the textual form produced by `Display` (used by repro files).
    pub fn parse(s: &str) -> Option<FailureKind> {
        match s {
            "verdict-mismatch" => Some(FailureKind::VerdictMismatch),
            "invalid-certificate" => Some(FailureKind::InvalidCertificate),
            "digest-divergence" => Some(FailureKind::DigestDivergence),
            _ => None,
        }
    }
}

/// One oracle failure with a human-readable detail line.
#[derive(Debug, Clone)]
pub struct OracleFailure {
    /// The failure class.
    pub kind: FailureKind,
    /// What disagreed with what (single line).
    pub detail: String,
}

/// Knobs for [`differential`].
#[derive(Debug, Clone, Default)]
pub struct DiffOptions {
    /// Fault injection: flip the primary verdict before cross-checking.
    /// Test-only — a healthy harness must catch the flip.
    pub inject_flip: bool,
}

/// The fuzzing portfolio: Houdini at interval templates plus
/// guard-propagation at octagon templates, with tightened candidate caps and
/// a work budget so a 500-program CI block stays affordable on one core. The budget is primarily the deterministic
/// entailment-call cap; the wall-clock limit is a safety net for blowups
/// between entailment calls, and any budget cut yields a structured
/// `Timeout` on which the digest axes are skipped (a cut-short run has no
/// canonical outcome to compare). Budgets and caps are not part of config
/// labels, so digests remain comparable across the differential axes.
pub fn default_portfolio() -> Vec<ProverConfig> {
    let budget = Budget {
        time_limit: Some(std::time::Duration::from_millis(1_200)),
        max_entailment_calls: Some(800),
        deadline: None,
    };
    vec![
        ProverConfig::builder()
            .template(1, 1, 1)
            .max_resolutions(8)
            .max_initial_configs(4)
            .divergence_probe_steps(60)
            .budget(budget)
            .build(),
        ProverConfig::builder()
            .strategy(Strategy::GuardPropagation)
            .template(2, 1, 1)
            .max_resolutions(8)
            .max_initial_configs(4)
            .divergence_probe_steps(60)
            .budget(budget)
            .build(),
    ]
}

/// The cross-check report for one program.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// `true` iff the (unflipped) prover proved non-termination.
    pub proved_nontermination: bool,
    /// `true` iff the primary run was cut short by a budget.
    pub timed_out: bool,
    /// Every oracle failure (empty = the program passed).
    pub failures: Vec<OracleFailure>,
    /// Wall-clock time oracle 2 spent validating the primary certificate
    /// (zero when there is none).
    pub validate_time: Duration,
}

impl DiffReport {
    /// `true` iff no oracle failed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs the four-oracle differential harness on one program, proving it
/// with [`default_portfolio`] (first success wins, like `prove_first`).
///
/// # Errors
///
/// Returns [`Error::Analysis`] if the program does not lower to a transition
/// system (generated and shrunk programs always do).
pub fn differential(
    program: &Program,
    label: KnownLabel,
    opts: &DiffOptions,
) -> Result<DiffReport, Error> {
    /// Largest transition system (in locations) on which the SCC-synthesis
    /// baseline (`VeryMax*`) still runs — its quasi-invariant search is
    /// combinatorial in system size and would dominate the whole batch on
    /// the occasional large generated program. The cheap baselines run
    /// regardless of size.
    const QUASI_LOCS_CAP: usize = 10;

    let ts = revterm_ts::lower(program).map_err(|e| Error::Analysis(e.to_string()))?;
    let portfolio = default_portfolio();
    let mut session = ProverSession::new(ts.clone());
    let primary = session.prove_first(&portfolio);
    let mut failures = Vec::new();

    // Oracle 2: certificate validation, independent of the session caches.
    let mut validate_time = Duration::ZERO;
    if let Some(cert) = primary.certificate() {
        let start = Instant::now();
        let validated = validate_certificate(&ts, cert, &EntailmentOptions::default());
        validate_time = start.elapsed();
        if let Err(e) = validated {
            failures.push(OracleFailure {
                kind: FailureKind::InvalidCertificate,
                detail: format!("certificate rejected by independent validation: {e}"),
            });
        }
    }

    // The effective prover claim, after optional fault injection.
    let prover_claims_nt =
        if primary.timed_out() { false } else { primary.is_non_terminating() != opts.inject_flip };
    if prover_claims_nt && primary.certificate().is_none() {
        failures.push(OracleFailure {
            kind: FailureKind::InvalidCertificate,
            detail: "non-termination claimed without a certificate".to_string(),
        });
    }

    // Oracle 1: the claim table.  Everything in it is sound, so one
    // `Terminating` and one `NonTerminating` claim can never coexist.
    let mut nt_claims: Vec<String> = Vec::new();
    let mut term_claims: Vec<String> = Vec::new();
    match label {
        KnownLabel::NonTerminating => nt_claims.push("label".to_string()),
        KnownLabel::Terminating => term_claims.push("label".to_string()),
        KnownLabel::Unknown => {}
    }
    if prover_claims_nt {
        nt_claims.push(format!("prover[{}]", primary.config_label));
    }
    let mut lineup = table_baselines();
    // The table's VeryMax* runs its quasi-invariant search at octagon
    // templates, which is combinatorial in system size; swap in an
    // interval-template instance (still sound, just weaker) and skip it
    // entirely past the size cap.
    lineup.retain(|(name, _)| *name != "VeryMax*");
    if ts.num_locs() <= QUASI_LOCS_CAP {
        let cheap = QuasiInvariantProver { params: TemplateParams::new(1, 1, 1) };
        lineup.push(("VeryMax*", Box::new(cheap) as Box<dyn BaselineProver>));
    }
    lineup.push(("ranking", Box::new(RankingProver) as Box<dyn BaselineProver>));
    for (name, prover) in lineup {
        match prover.analyze(&ts).verdict {
            BaselineVerdict::NonTerminating => nt_claims.push(name.to_string()),
            BaselineVerdict::Terminating => term_claims.push(name.to_string()),
            BaselineVerdict::Unknown => {}
        }
    }
    if !nt_claims.is_empty() && !term_claims.is_empty() {
        failures.push(OracleFailure {
            kind: FailureKind::VerdictMismatch,
            detail: format!(
                "non-terminating per [{}] but terminating per [{}]",
                nt_claims.join(", "),
                term_claims.join(", ")
            ),
        });
    }

    // Oracles 3 and 4: digest-identical outcomes across the internal axes,
    // re-run on the same (now warm) session. A timed-out run has no
    // canonical outcome (the cut point depends on the axis), so comparisons
    // involving a timeout on either side are skipped.
    if !primary.timed_out() {
        let digest = outcome_digest(&primary, &ts);
        let axes = [
            ("absint on/off", variant(&portfolio, |c| c.entailment.interval_fast_path = false)),
            (
                "lp revised vs dense",
                variant(&portfolio, |c| c.entailment.lp_engine = LpEngine::Dense),
            ),
        ];
        for (axis, configs) in axes {
            let alt = session.prove_first(&configs);
            let alt_digest = outcome_digest(&alt, &ts);
            if !alt.timed_out() && alt_digest != digest {
                failures.push(OracleFailure {
                    kind: FailureKind::DigestDivergence,
                    detail: format!("{axis}: {digest:016x} vs {alt_digest:016x}"),
                });
            }
        }
    }

    Ok(DiffReport {
        proved_nontermination: primary.is_non_terminating(),
        timed_out: primary.timed_out(),
        failures,
        validate_time,
    })
}

/// `portfolio`, each configuration with `tweak` applied.
fn variant(portfolio: &[ProverConfig], tweak: impl Fn(&mut ProverConfig)) -> Vec<ProverConfig> {
    portfolio
        .iter()
        .map(|c| {
            let mut alt = c.clone();
            tweak(&mut alt);
            alt
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use revterm_lang::parse_program;

    #[test]
    fn clean_programs_pass_all_four_oracles() {
        for (src, label) in [
            ("while x >= 0 do x := x + 1; od", KnownLabel::NonTerminating),
            ("n := 5; while n >= 0 do n := n - 1; od", KnownLabel::Terminating),
            ("x := 1; y := x + 2; skip;", KnownLabel::Terminating),
        ] {
            let program = parse_program(src).unwrap();
            let report = differential(&program, label, &DiffOptions::default()).unwrap();
            assert!(report.passed(), "{src}: {:?}", report.failures);
        }
    }

    #[test]
    fn injected_flip_is_caught() {
        // Terminating program: the flip turns the sound `Unknown` into a lie,
        // which must surface both as a mismatch and as a missing certificate.
        let program = parse_program("n := 3; while n >= 0 do n := n - 1; od").unwrap();
        let opts = DiffOptions { inject_flip: true };
        let report = differential(&program, KnownLabel::Terminating, &opts).unwrap();
        assert!(!report.passed());
        assert!(report.failures.iter().any(|f| f.kind == FailureKind::VerdictMismatch));
        assert!(report.failures.iter().any(|f| f.kind == FailureKind::InvalidCertificate));
    }

    #[test]
    fn failure_kind_display_parse_round_trip() {
        for kind in [
            FailureKind::VerdictMismatch,
            FailureKind::InvalidCertificate,
            FailureKind::DigestDivergence,
        ] {
            assert_eq!(FailureKind::parse(&kind.to_string()), Some(kind));
        }
        assert_eq!(FailureKind::parse("nope"), None);
    }
}
