//! Non-termination certificates and their independent validation.
//!
//! The two checks of Algorithm 1 produce slightly different artefacts; both
//! are instances of the paper's BI-certificate `(U, BI, Θ)` (Section 4) and
//! both are validated before the prover reports non-termination:
//!
//! * **Check 1** returns a resolution of non-determinism `R_NA`, an initial
//!   valuation `c` and an inductive predicate map `I` of the restricted
//!   system with `I(ℓ_out) = ∅` and `c ∈ I(ℓ_init)`.  The corresponding
//!   BI-certificate is `(T_{R_NA}, ¬I, Z^{|V|})` (Theorem A.4 / Theorem 5.3).
//! * **Check 2** returns a resolution `R_NA`, a conjunctive inductive
//!   invariant `Ĩ` of the full system, a backward invariant `BI` of
//!   `T^{r, Ĩ(ℓ_out)}_{R_NA}` and a concrete finite path of the original
//!   system ending in a configuration of `¬BI`.
//!
//! # Validation in two halves
//!
//! A certificate's entailment obligations — consecution of its invariants,
//! initiation, `Θ ⊆ BI(ℓ_out)` — are walked in one fixed order by
//! `for_each_obligation`. *Evidence generation* discharges each of them
//! with [`revterm_invgen::discharge_predicate`] — the interval closure
//! first, a fresh, cache-free LP for the rest — and keeps what discharged
//! it: the premise that matches an atom verbatim, the closure's combination
//! of single premises, or the sparse Farkas/Handelman multipliers of an LP
//! ([`revterm_invgen::Discharge`]). Every answer is the one LP-only
//! generation gives (with the fast path off, it is LP-only); only the
//! multipliers differ, and they are in no digest. The *exact check* walks the
//! same obligations again and accepts each only if its evidence certifies
//! it with `Poly`/`Rat` arithmetic, then replays the concrete conditions
//! (Check 1's initial valuation, Check 2's witness path). It never calls the
//! simplex, so a wrong "optimal" from the LP layer cannot produce a verdict.
//!
//! [`validate_certificate`] runs both halves. A [`crate::ProverSession`]
//! memoizes evidence per certificate, so a certificate it meets again skips
//! generation — but the check runs on every verdict: evidence may come from
//! the session, the verdict never does.

use crate::config::CheckKind;
use revterm_invgen::{discharge_consecution, discharge_predicate, Discharge};
use revterm_poly::Poly;
use revterm_solver::EntailmentOptions;
use revterm_ts::interp::{is_initial_valuation, relation_holds, Config, Valuation};
use revterm_ts::{Assertion, PredicateMap, PropPredicate, Resolution, TransitionSystem};
use std::fmt;

/// A certificate produced by Check 1.
#[derive(Debug, Clone)]
pub struct Check1Certificate {
    /// The resolution of non-determinism defining the proper
    /// under-approximation `U = T_{R_NA}`.
    pub resolution: Resolution,
    /// The inductive predicate map `I` of `U` (with `I(ℓ_out) = ∅`); the
    /// BI-certificate's backward invariant is its complement `¬I`.
    pub invariant: PredicateMap,
    /// The initial valuation `c` contained in `I(ℓ_init)` — the diverging
    /// configuration witnessing that `¬I` is not an invariant of `T`.
    pub initial: Valuation,
}

/// A certificate produced by Check 2.
#[derive(Debug, Clone)]
pub struct Check2Certificate {
    /// The resolution of non-determinism defining `U = T_{R_NA}`.
    pub resolution: Resolution,
    /// The conjunctive inductive invariant `Ĩ` of the full system used to
    /// over-approximate the reachable terminal valuations.
    pub tilde_invariant: PredicateMap,
    /// The assertion `Θ = Ĩ(ℓ_out)`.
    pub theta: Assertion,
    /// The inductive backward invariant `BI` of `U^{r,Θ}`.
    pub backward_invariant: PredicateMap,
    /// A concrete finite path of `T` from an initial configuration to a
    /// configuration contained in `¬BI` (the safety prover's witness).
    pub witness_path: Vec<Config>,
}

/// A validated non-termination certificate.
#[derive(Debug, Clone)]
pub enum NonTerminationCertificate {
    /// Produced by Check 1.
    Check1(Check1Certificate),
    /// Produced by Check 2.
    Check2(Check2Certificate),
}

impl NonTerminationCertificate {
    /// Which check produced the certificate.
    pub fn check_kind(&self) -> CheckKind {
        match self {
            NonTerminationCertificate::Check1(_) => CheckKind::Check1,
            NonTerminationCertificate::Check2(_) => CheckKind::Check2,
        }
    }

    /// The resolution of non-determinism of the certificate.
    pub fn resolution(&self) -> &Resolution {
        match self {
            NonTerminationCertificate::Check1(c) => &c.resolution,
            NonTerminationCertificate::Check2(c) => &c.resolution,
        }
    }

    /// A short human-readable summary.
    pub fn summary(&self, ts: &TransitionSystem) -> String {
        match self {
            NonTerminationCertificate::Check1(c) => format!(
                "Check 1 certificate: resolution [{}], diverging initial configuration ({}, {})",
                c.resolution.display_with(ts),
                ts.loc_name(ts.init_loc()),
                c.initial
            ),
            NonTerminationCertificate::Check2(c) => format!(
                "Check 2 certificate: resolution [{}], Θ = {}, reachable ¬BI configuration {}",
                c.resolution.display_with(ts),
                c.theta.display_with(ts.vars()),
                c.witness_path.last().map(|x| x.to_string()).unwrap_or_default()
            ),
        }
    }
}

/// Reasons a certificate can fail validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertificateError {
    /// The invariant of a Check 1 certificate is not inductive for the
    /// restricted system.
    NotInductive(String),
    /// A transition into `ℓ_out` is not blocked by a Check 1 invariant.
    TerminalReachable(usize),
    /// The claimed initial valuation does not satisfy `Θ_init` or is not
    /// contained in the invariant at `ℓ_init`.
    BadInitialValuation,
    /// `Ĩ` of a Check 2 certificate is not an invariant of the full system.
    TildeNotInvariant(String),
    /// `BI` of a Check 2 certificate is not an inductive backward invariant.
    BackwardNotInvariant(String),
    /// The witness path of a Check 2 certificate is not a genuine path of the
    /// system, or does not end in `¬BI`.
    BadWitnessPath(String),
}

impl fmt::Display for CertificateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertificateError::NotInductive(m) => write!(f, "invariant not inductive: {m}"),
            CertificateError::TerminalReachable(t) => {
                write!(f, "transition t{t} into the terminal location is not blocked")
            }
            CertificateError::BadInitialValuation => write!(f, "invalid initial valuation"),
            CertificateError::TildeNotInvariant(m) => write!(f, "Ĩ is not an invariant: {m}"),
            CertificateError::BackwardNotInvariant(m) => {
                write!(f, "BI is not an inductive backward invariant: {m}")
            }
            CertificateError::BadWitnessPath(m) => write!(f, "invalid witness path: {m}"),
        }
    }
}

impl std::error::Error for CertificateError {}

/// Validates a certificate against the transition system of the program:
/// evidence generation followed by the exact check (see the module docs).
///
/// This check is independent of the synthesis machinery and of any session
/// state: evidence comes from the interval closure first and a cold LP for
/// the rest, and the verdict from `Poly`/`Rat` arithmetic and the concrete
/// semantics alone, so a bug in the synthesis heuristics — or in the
/// closure or the LP — cannot silently produce an incorrect verdict.
pub fn validate_certificate(
    ts: &TransitionSystem,
    certificate: &NonTerminationCertificate,
    opts: &EntailmentOptions,
) -> Result<(), CertificateError> {
    let evidence = generate_evidence(ts, certificate, opts)?;
    check_evidence(ts, certificate, &evidence)
}

/// What discharges each entailment obligation of one certificate: one
/// [`Discharge`] per obligation, in the order `for_each_obligation` visits
/// them. Evidence only proposes; [`check_evidence`] decides.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Evidence {
    pub(crate) discharges: Vec<Discharge>,
}

/// The key of a session's evidence memo: the certificate parts that fix its
/// entailment obligations, and the options the evidence was generated
/// under. Check 1's initial valuation and Check 2's witness path are not
/// part of it — only the concrete checks read them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum EvidenceKey {
    Check1(Resolution, PredicateMap, EntailmentOptions),
    Check2(Resolution, PredicateMap, Assertion, PredicateMap, EntailmentOptions),
}

impl EvidenceKey {
    pub(crate) fn of(certificate: &NonTerminationCertificate, opts: &EntailmentOptions) -> Self {
        match certificate {
            NonTerminationCertificate::Check1(c) => {
                EvidenceKey::Check1(c.resolution.clone(), c.invariant.clone(), opts.clone())
            }
            NonTerminationCertificate::Check2(c) => EvidenceKey::Check2(
                c.resolution.clone(),
                c.tilde_invariant.clone(),
                c.theta.clone(),
                c.backward_invariant.clone(),
                opts.clone(),
            ),
        }
    }
}

/// The first half of validation: discharges every entailment obligation of
/// `certificate` — the interval closure first, a fresh LP for the rest (no
/// session cache is involved) — and keeps the evidence, or reports the
/// first obligation that does not hold.
pub(crate) fn generate_evidence(
    ts: &TransitionSystem,
    certificate: &NonTerminationCertificate,
    opts: &EntailmentOptions,
) -> Result<Evidence, CertificateError> {
    let mut discharges = Vec::new();
    for_each_obligation(ts, certificate, &mut |premises, target| {
        discharge_predicate(premises, target, opts).map(|d| discharges.push(d)).is_some()
    })?;
    discharges.shrink_to_fit();
    Ok(Evidence { discharges })
}

/// The second half of validation, with no LP: every obligation of
/// `certificate` must be certified by its discharge in `evidence`, no
/// discharge may be left over, and the concrete conditions must hold.
pub(crate) fn check_evidence(
    ts: &TransitionSystem,
    certificate: &NonTerminationCertificate,
    evidence: &Evidence,
) -> Result<(), CertificateError> {
    let mut discharges = evidence.discharges.iter();
    for_each_obligation(ts, certificate, &mut |premises, target| {
        discharges.next().is_some_and(|d| d.certifies(premises, target))
    })?;
    if discharges.next().is_some() {
        let surplus = "the evidence has more discharges than the certificate has obligations";
        return Err(match certificate {
            NonTerminationCertificate::Check1(_) => CertificateError::NotInductive(surplus.into()),
            NonTerminationCertificate::Check2(_) => {
                CertificateError::BackwardNotInvariant(surplus.into())
            }
        });
    }
    match certificate {
        NonTerminationCertificate::Check1(c) => check_initial_valuation(ts, c),
        NonTerminationCertificate::Check2(c) => check_witness_path(ts, c),
    }
}

/// Walks the entailment obligations of `certificate` — premises and the
/// predicate they must entail — in one fixed order, and maps the first one
/// `discharge` rejects to the certificate condition it belongs to. A
/// certificate whose shape does not fit the system is rejected before any
/// obligation (see [`check_shape`]).
fn for_each_obligation(
    ts: &TransitionSystem,
    certificate: &NonTerminationCertificate,
    discharge: &mut dyn FnMut(&[Poly], &PropPredicate) -> bool,
) -> Result<(), CertificateError> {
    check_shape(ts, certificate)?;
    match certificate {
        NonTerminationCertificate::Check1(cert) => {
            let restricted = ts.restrict(&cert.resolution);
            let terminal = restricted.terminal_loc();
            // (1) I(ℓ_out) must be empty.
            if !cert.invariant.at(terminal).is_empty() {
                return Err(CertificateError::NotInductive(
                    "I(ℓ_out) must be the empty predicate".into(),
                ));
            }
            // (2) I must be inductive for the restricted system.  As
            //     I(ℓ_out) = ∅, the obligation of a transition into ℓ_out
            //     says that it is blocked: its premises are unsatisfiable.
            discharge_consecution(&restricted, &cert.invariant, |_| true, discharge).map_err(|v| {
                if restricted.transition(v.transition_id).target == terminal {
                    CertificateError::TerminalReachable(v.transition_id)
                } else {
                    CertificateError::NotInductive(v.to_string())
                }
            })
        }
        NonTerminationCertificate::Check2(cert) => {
            // (1) Ĩ is an invariant of T (inductive + initiation), so
            //     Θ = Ĩ(ℓ_out) over-approximates the reachable terminal
            //     valuations.
            discharge_consecution(ts, &cert.tilde_invariant, |_| true, &mut *discharge)
                .map_err(|v| CertificateError::TildeNotInvariant(v.to_string()))?;
            if !discharge(ts.init_assertion().atoms(), cert.tilde_invariant.at(ts.init_loc())) {
                return Err(CertificateError::TildeNotInvariant("initiation fails".into()));
            }
            // (2) BI is an inductive backward invariant of U^{r,Θ}.
            let reversed = ts.restrict(&cert.resolution).reverse(cert.theta.clone());
            discharge_consecution(&reversed, &cert.backward_invariant, |_| true, &mut *discharge)
                .map_err(|v| CertificateError::BackwardNotInvariant(v.to_string()))?;
            if !discharge(cert.theta.atoms(), cert.backward_invariant.at(reversed.init_loc())) {
                return Err(CertificateError::BackwardNotInvariant(
                    "Θ is not contained in BI(ℓ_out)".into(),
                ));
            }
            Ok(())
        }
    }
}

/// Checks that the parts of `certificate` fit the system, so that neither
/// half of validation indexes past them: a resolution of existing
/// non-deterministic assignments, one predicate per location, every
/// polynomial over the program variables, and one value per variable and a
/// location of the system in every configuration. A part that does not fit
/// is reported as the condition it belongs to.
fn check_shape(
    ts: &TransitionSystem,
    certificate: &NonTerminationCertificate,
) -> Result<(), CertificateError> {
    let over_program_vars = |polys: &[Poly]| {
        polys.iter().all(|p| p.terms().all(|(m, _)| m.vars().all(|v| ts.vars().is_unprimed(v))))
    };
    let foreign = |name: &str| format!("{name} mentions a variable that is not a program variable");
    let resolution_misfit = |resolution: &Resolution| {
        resolution.iter().find_map(|(id, rhs)| {
            if id >= ts.transitions().len() || !ts.transition(id).is_ndet_assign() {
                Some(format!("the resolution resolves t{id}, not a non-deterministic assignment"))
            } else {
                (!over_program_vars(std::slice::from_ref(rhs))).then(|| foreign("the resolution"))
            }
        })
    };
    let map_misfit = |name: &str, map: &PredicateMap| {
        if map.len() != ts.num_locs() {
            return Some(format!(
                "{name} covers {} locations, the system has {}",
                map.len(),
                ts.num_locs()
            ));
        }
        let mut conjunctions = map.iter().flat_map(|(_, pred)| pred.disjuncts());
        conjunctions.any(|c| !over_program_vars(c.atoms())).then(|| foreign(name))
    };
    match certificate {
        NonTerminationCertificate::Check1(c) => {
            let misfit = resolution_misfit(&c.resolution).or_else(|| map_misfit("I", &c.invariant));
            if let Some(m) = misfit {
                return Err(CertificateError::NotInductive(m));
            }
            if c.initial.len() != ts.vars().len() {
                return Err(CertificateError::BadInitialValuation);
            }
        }
        NonTerminationCertificate::Check2(c) => {
            if let Some(m) = map_misfit("Ĩ", &c.tilde_invariant) {
                return Err(CertificateError::TildeNotInvariant(m));
            }
            let misfit = resolution_misfit(&c.resolution)
                .or_else(|| (!over_program_vars(c.theta.atoms())).then(|| foreign("Θ")))
                .or_else(|| map_misfit("BI", &c.backward_invariant));
            if let Some(m) = misfit {
                return Err(CertificateError::BackwardNotInvariant(m));
            }
            let misfit =
                |cfg: &Config| cfg.loc.0 >= ts.num_locs() || cfg.vals.len() != ts.vars().len();
            if let Some(i) = c.witness_path.iter().position(misfit) {
                return Err(CertificateError::BadWitnessPath(format!(
                    "configuration {i} does not fit the system"
                )));
            }
        }
    }
    Ok(())
}

/// Check 1's concrete condition: the initial valuation satisfies `Θ_init`
/// and lies in `I(ℓ_init)`.
fn check_initial_valuation(
    ts: &TransitionSystem,
    cert: &Check1Certificate,
) -> Result<(), CertificateError> {
    if !is_initial_valuation(ts, &cert.initial)
        || !cert.invariant.at(ts.init_loc()).holds_int(&cert.initial.assignment())
    {
        return Err(CertificateError::BadInitialValuation);
    }
    Ok(())
}

/// Check 2's concrete condition: the witness path is a genuine path of `T`
/// from an initial configuration to a configuration in `¬BI`.
fn check_witness_path(
    ts: &TransitionSystem,
    cert: &Check2Certificate,
) -> Result<(), CertificateError> {
    let path = &cert.witness_path;
    if path.is_empty() {
        return Err(CertificateError::BadWitnessPath("empty path".into()));
    }
    let first = &path[0];
    if first.loc != ts.init_loc() || !is_initial_valuation(ts, &first.vals) {
        return Err(CertificateError::BadWitnessPath(
            "path does not start in an initial configuration".into(),
        ));
    }
    for (i, window) in path.windows(2).enumerate() {
        let (a, b) = (&window[0], &window[1]);
        let connected = ts
            .transitions_from(a.loc)
            .filter(|t| t.target == b.loc)
            .any(|t| relation_holds(ts, &t.relation, &a.vals, &b.vals));
        if !connected {
            return Err(CertificateError::BadWitnessPath(format!(
                "step {i} is not justified by any transition"
            )));
        }
    }
    let last = path.last().expect("non-empty path");
    if cert.backward_invariant.at(last.loc).holds_int(&last.vals.assignment()) {
        return Err(CertificateError::BadWitnessPath(
            "the final configuration is contained in BI, not in its complement".into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProverConfig;
    use revterm_invgen::AtomProof;
    use revterm_lang::parse_program;
    use revterm_num::Rat;
    use revterm_poly::Var;
    use revterm_solver::Combination;
    use revterm_ts::{lower, Loc};

    const RUNNING: &str =
        "while x >= 9 do x := ndet(); y := 10 * x; while x <= y do x := x + 1; od od";

    /// The curated suite's `paper_fig2_small`.
    const FIG2_SMALL: &str = "n := 0; b := 0; u := 0; \
        while b == 0 and n <= 3 do \
          u := ndet(); \
          if u <= -1 then b := -1; elseif u == 0 then b := 0; else b := 1; fi \
          n := n + 1; \
          if n >= 4 and b >= 1 then while true do skip; od fi \
        od";

    /// Builds the Example 5.4 certificate by hand.
    fn example_54_certificate(ts: &TransitionSystem) -> Check1Certificate {
        example_54_certificate_resolving_to(ts, 9)
    }

    /// The Example 5.4 certificate with `x := ndet()` resolved to
    /// `x := value` (valid for every `value >= 9`).
    fn example_54_certificate_resolving_to(ts: &TransitionSystem, value: i64) -> Check1Certificate {
        let ndet_id = ts.ndet_transitions().next().unwrap().id;
        let resolution = Resolution::from_pairs([(ndet_id, Poly::constant_i64(value))]);
        let mut invariant = PredicateMap::unsatisfiable(ts.num_locs());
        let x = Poly::var(Var(0));
        for loc in ts.locations() {
            if loc != ts.terminal_loc() {
                invariant.set(
                    loc,
                    PropPredicate::from_assertion(Assertion::ge_zero(&x - &Poly::constant_i64(9))),
                );
            }
        }
        Check1Certificate { resolution, invariant, initial: Valuation::from_i64s(&[9, 0]) }
    }

    #[test]
    fn handwritten_example_54_certificate_validates() {
        let ts = lower(&parse_program(RUNNING).unwrap()).unwrap();
        let cert = NonTerminationCertificate::Check1(example_54_certificate(&ts));
        assert_eq!(validate_certificate(&ts, &cert, &EntailmentOptions::default()), Ok(()));
        assert_eq!(cert.check_kind(), CheckKind::Check1);
        assert!(cert.summary(&ts).contains("Check 1"));
    }

    #[test]
    fn tampered_certificates_are_rejected() {
        let ts = lower(&parse_program(RUNNING).unwrap()).unwrap();
        let good = example_54_certificate(&ts);
        let opts = EntailmentOptions::default();

        // Wrong initial valuation (x = 5 is not diverging and not in I).
        let mut bad = good.clone();
        bad.initial = Valuation::from_i64s(&[5, 0]);
        assert_eq!(
            validate_certificate(&ts, &NonTerminationCertificate::Check1(bad), &opts),
            Err(CertificateError::BadInitialValuation)
        );

        // Wrong resolution (x := 0 makes ℓ_out reachable, so the invariant
        // x >= 9 is no longer inductive for the restricted system).
        let mut bad = good.clone();
        let ndet_id = ts.ndet_transitions().next().unwrap().id;
        bad.resolution = Resolution::from_pairs([(ndet_id, Poly::constant_i64(0))]);
        assert!(matches!(
            validate_certificate(&ts, &NonTerminationCertificate::Check1(bad), &opts),
            Err(CertificateError::NotInductive(_))
        ));

        // Keeping I(ℓ_out) non-empty is rejected outright.
        let mut bad = good;
        bad.invariant.set(ts.terminal_loc(), PropPredicate::tautology());
        assert!(matches!(
            validate_certificate(&ts, &NonTerminationCertificate::Check1(bad), &opts),
            Err(CertificateError::NotInductive(_))
        ));
    }

    #[test]
    fn check2_certificate_path_replay_is_checked() {
        // Build a deliberately broken Check 2 certificate: the path does not
        // start in an initial configuration.
        let ts = lower(&parse_program(RUNNING).unwrap()).unwrap();
        let cert = Check2Certificate {
            resolution: Resolution::empty(),
            tilde_invariant: PredicateMap::tautology(ts.num_locs()),
            theta: Assertion::tautology(),
            backward_invariant: PredicateMap::tautology(ts.num_locs()),
            witness_path: vec![Config::new(ts.terminal_loc(), Valuation::from_i64s(&[0, 0]))],
        };
        let err = validate_certificate(
            &ts,
            &NonTerminationCertificate::Check2(cert),
            &EntailmentOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CertificateError::BadWitnessPath(_)));
    }

    /// A non-terminating counter whose flag never changes.
    const COUNTER_WITH_FLAG: &str = "n := 0; b := 0; while b == 0 do n := n + 1; od";

    /// A Check 2 certificate of [`COUNTER_WITH_FLAG`] whose obligations all hold (every predicate is the tautology) and
    /// whose witness path is one initial configuration: well-formed, but its
    /// path ends inside BI.
    fn tautological_check2_certificate(ts: &TransitionSystem) -> Check2Certificate {
        Check2Certificate {
            resolution: Resolution::empty(),
            tilde_invariant: PredicateMap::tautology(ts.num_locs()),
            theta: Assertion::tautology(),
            backward_invariant: PredicateMap::tautology(ts.num_locs()),
            witness_path: vec![Config::new(ts.init_loc(), Valuation::from_i64s(&[0, 0]))],
        }
    }

    fn rejection(ts: &TransitionSystem, cert: &NonTerminationCertificate) -> CertificateError {
        validate_certificate(ts, cert, &EntailmentOptions::default()).unwrap_err()
    }

    /// `map` without its last location's predicate.
    fn drop_last_location(map: &PredicateMap) -> PredicateMap {
        PredicateMap::from_vec(map.iter().take(map.len() - 1).map(|(_, p)| p.clone()).collect())
    }

    #[test]
    fn a_witness_configuration_that_does_not_fit_the_system_is_rejected() {
        let ts = lower(&parse_program(COUNTER_WITH_FLAG).unwrap()).unwrap();
        let good = tautological_check2_certificate(&ts);
        let wrong = rejection(&ts, &NonTerminationCertificate::Check2(good.clone()));
        assert!(matches!(&wrong, CertificateError::BadWitnessPath(m) if m.contains("in BI")));
        let short = Config::new(ts.init_loc(), Valuation::from_i64s(&[0]));
        let far = Config::new(Loc(ts.num_locs()), Valuation::from_i64s(&[0, 0]));
        let paths = [vec![short], vec![good.witness_path[0].clone(), far]];
        for (path, misfit) in paths.into_iter().zip(["configuration 0", "configuration 1"]) {
            let bad = Check2Certificate { witness_path: path, ..good.clone() };
            let err = rejection(&ts, &NonTerminationCertificate::Check2(bad));
            let expected = format!("{misfit} does not fit the system");
            assert_eq!(err, CertificateError::BadWitnessPath(expected));
        }
    }

    #[test]
    fn an_initial_valuation_that_does_not_fit_the_system_is_rejected() {
        let ts = lower(&parse_program(RUNNING).unwrap()).unwrap();
        let mut bad = example_54_certificate(&ts);
        bad.initial = Valuation(Vec::new());
        let err = rejection(&ts, &NonTerminationCertificate::Check1(bad));
        assert_eq!(err, CertificateError::BadInitialValuation);
    }

    #[test]
    fn a_predicate_map_that_does_not_fit_the_system_is_rejected() {
        let ts = lower(&parse_program(RUNNING).unwrap()).unwrap();
        let mut bad = example_54_certificate(&ts);
        bad.invariant = drop_last_location(&bad.invariant);
        let err = rejection(&ts, &NonTerminationCertificate::Check1(bad));
        assert!(matches!(err, CertificateError::NotInductive(m) if m.contains("covers")));

        let ts = lower(&parse_program(COUNTER_WITH_FLAG).unwrap()).unwrap();
        let mut bad = tautological_check2_certificate(&ts);
        bad.tilde_invariant = drop_last_location(&bad.tilde_invariant);
        let err = rejection(&ts, &NonTerminationCertificate::Check2(bad));
        assert!(matches!(err, CertificateError::TildeNotInvariant(m) if m.contains("covers")));
        let mut bad = tautological_check2_certificate(&ts);
        bad.backward_invariant = drop_last_location(&bad.backward_invariant);
        let err = rejection(&ts, &NonTerminationCertificate::Check2(bad));
        assert!(matches!(err, CertificateError::BackwardNotInvariant(m) if m.contains("covers")));
    }

    #[test]
    fn a_resolution_of_a_transition_that_is_no_assignment_is_rejected() {
        let ts = lower(&parse_program(RUNNING).unwrap()).unwrap();
        let guard = ts.transitions().iter().find(|t| !t.is_ndet_assign()).unwrap().id;
        let mut bad = example_54_certificate(&ts);
        bad.resolution = Resolution::from_pairs([(guard, Poly::constant_i64(9))]);
        let err = rejection(&ts, &NonTerminationCertificate::Check1(bad));
        assert!(matches!(err, CertificateError::NotInductive(m) if m.contains("resolves")));

        let ts = lower(&parse_program(COUNTER_WITH_FLAG).unwrap()).unwrap();
        let mut bad = tautological_check2_certificate(&ts);
        bad.resolution = Resolution::from_pairs([(ts.transitions().len(), Poly::zero())]);
        let err = rejection(&ts, &NonTerminationCertificate::Check2(bad));
        assert!(matches!(err, CertificateError::BackwardNotInvariant(m) if m.contains("resolves")));
    }

    #[test]
    fn a_predicate_over_other_than_program_variables_is_rejected() {
        let ts = lower(&parse_program(RUNNING).unwrap()).unwrap();
        let primed = Poly::var(ts.vars().primed(0));
        let mut bad = example_54_certificate(&ts);
        bad.invariant.set(
            ts.init_loc(),
            PropPredicate::from_assertion(Assertion::ge_zero(primed - Poly::constant_i64(9))),
        );
        let err = rejection(&ts, &NonTerminationCertificate::Check1(bad));
        assert!(matches!(err, CertificateError::NotInductive(m) if m.contains("not a program")));
    }

    /// The Check 2 certificate the prover finds for `paper_fig2_small` with
    /// template `(c, 1, 1)`.
    fn fig2_small_certificate(ts: &TransitionSystem, c: usize) -> NonTerminationCertificate {
        let config = ProverConfig::builder().check(CheckKind::Check2).template(c, 1, 1).build();
        let result = crate::prove(ts, &config);
        result.certificate().expect("Check 2 proves paper_fig2_small").clone()
    }

    /// `evidence` with `edit` applied to the first term whose factors satisfy
    /// `pick`, in the first combination that has one.
    fn tamper_term(
        evidence: &Evidence,
        pick: impl Fn(&[u32]) -> bool,
        edit: impl Fn(&mut Vec<u32>, &mut Rat),
    ) -> Evidence {
        let mut tampered = evidence.clone();
        let combination = tampered
            .discharges
            .iter_mut()
            .flat_map(|discharge| match discharge {
                Discharge::Unsat(c) => vec![c],
                Discharge::Disjunct { atoms, .. } => atoms
                    .iter_mut()
                    .filter_map(|proof| match proof {
                        AtomProof::Farkas(c) => Some(c),
                        AtomProof::Premise(_) => None,
                    })
                    .collect(),
            })
            .find(|c| c.terms().any(|(factors, _)| pick(factors)))
            .expect("the evidence has a term to tamper with");
        let mut rebuilt = Combination::new();
        let mut edited = false;
        for (factors, lambda) in combination.terms() {
            let (mut factors, mut lambda) = (factors.to_vec(), lambda.clone());
            if !edited && pick(&factors) {
                edit(&mut factors, &mut lambda);
                edited = true;
            }
            rebuilt.push(&factors, lambda);
        }
        *combination = rebuilt;
        tampered
    }

    /// Valid evidence with one defect each, labelled.
    fn tampered_variants(evidence: &Evidence) -> Vec<(&'static str, Evidence)> {
        let seventh = Rat::packed(1, 7);
        let mut variants = vec![
            ("a negative λ", tamper_term(evidence, |_| true, |_, l| *l = -l.clone())),
            ("λ + 1/7", tamper_term(evidence, |_| true, |_, l| *l = &*l + &seventh)),
            (
                "a premise index out of range",
                tamper_term(evidence, |f| !f.is_empty(), |f, _| f[0] = 1 << 20),
            ),
        ];
        let mut wrong_disjunct = evidence.clone();
        let index = wrong_disjunct
            .discharges
            .iter_mut()
            .find_map(|d| match d {
                Discharge::Disjunct { index, .. } => Some(index),
                Discharge::Unsat(_) => None,
            })
            .expect("the evidence discharges a disjunct");
        *index += 1;
        variants.push(("the wrong disjunct index", wrong_disjunct));
        for position in [0, evidence.discharges.len() / 2, evidence.discharges.len() - 1] {
            let mut dropped = evidence.clone();
            dropped.discharges.remove(position);
            variants.push(("one obligation dropped", dropped));
        }
        variants
    }

    /// `opts` with the interval fast path off: every obligation's evidence
    /// comes from an LP.
    fn lp_only(opts: &EntailmentOptions) -> EntailmentOptions {
        EntailmentOptions { interval_fast_path: false, ..opts.clone() }
    }

    /// Checks `certificate` against its own evidence, against every tampered
    /// variant of it, and against the evidence of `other`, a different valid
    /// certificate of the same program — once with the closure's evidence
    /// and once with LP-only evidence.
    fn assert_checker_rejects_tampering(
        ts: &TransitionSystem,
        certificate: &NonTerminationCertificate,
        other: &NonTerminationCertificate,
    ) {
        let closure = EntailmentOptions::default();
        for opts in [lp_only(&closure), closure] {
            let evidence = generate_evidence(ts, certificate, &opts).unwrap();
            assert_eq!(check_evidence(ts, certificate, &evidence), Ok(()));
            for (defect, tampered) in tampered_variants(&evidence) {
                assert_ne!(tampered, evidence, "{defect}: the variant is unchanged");
                let verdict = check_evidence(ts, certificate, &tampered);
                assert!(verdict.is_err(), "{defect} was accepted under {opts:?}");
            }
            assert_ne!(EvidenceKey::of(certificate, &opts), EvidenceKey::of(other, &opts));
            let foreign = generate_evidence(ts, other, &opts).unwrap();
            assert_eq!(check_evidence(ts, other, &foreign), Ok(()));
            assert!(
                check_evidence(ts, certificate, &foreign).is_err(),
                "evidence of another certificate was accepted under {opts:?}"
            );
        }
    }

    #[test]
    fn check1_evidence_checker_rejects_tampering() {
        let ts = lower(&parse_program(RUNNING).unwrap()).unwrap();
        let cert = NonTerminationCertificate::Check1(example_54_certificate(&ts));
        let other = NonTerminationCertificate::Check1(example_54_certificate_resolving_to(&ts, 10));
        assert_checker_rejects_tampering(&ts, &cert, &other);
    }

    #[test]
    fn check2_evidence_checker_rejects_tampering() {
        let ts = lower(&parse_program(FIG2_SMALL).unwrap()).unwrap();
        // A wider template finds a different Θ and BI for the same program.
        let (cert, other) = (fig2_small_certificate(&ts, 1), fig2_small_certificate(&ts, 2));
        assert_checker_rejects_tampering(&ts, &cert, &other);
    }

    /// `map` without the first atom of the first nonempty conjunction at a
    /// location other than `ℓ_out`, if there is one.
    fn drop_one_atom(ts: &TransitionSystem, map: &PredicateMap) -> Option<PredicateMap> {
        let (loc, pred) = map.iter().find(|(loc, pred)| {
            *loc != ts.terminal_loc() && pred.disjuncts().iter().any(|d| !d.is_empty())
        })?;
        let mut disjuncts = pred.disjuncts().to_vec();
        let conjunction = disjuncts.iter_mut().find(|d| !d.is_empty())?;
        *conjunction = Assertion::from_polys(conjunction.atoms()[1..].iter().cloned());
        let mut tampered = map.clone();
        tampered.set(loc, PropPredicate::from_disjuncts(disjuncts));
        Some(tampered)
    }

    /// A certificate and its tampered versions: one atom dropped from each
    /// predicate map, and (Check 2) Θ replaced by the tautology.
    fn with_tampered_versions(
        ts: &TransitionSystem,
        certificate: &NonTerminationCertificate,
    ) -> Vec<NonTerminationCertificate> {
        let mut versions = vec![certificate.clone()];
        match certificate {
            NonTerminationCertificate::Check1(c) => {
                if let Some(invariant) = drop_one_atom(ts, &c.invariant) {
                    let tampered = Check1Certificate { invariant, ..c.clone() };
                    versions.push(NonTerminationCertificate::Check1(tampered));
                }
            }
            NonTerminationCertificate::Check2(c) => {
                if let Some(tilde_invariant) = drop_one_atom(ts, &c.tilde_invariant) {
                    let tampered = Check2Certificate { tilde_invariant, ..c.clone() };
                    versions.push(NonTerminationCertificate::Check2(tampered));
                }
                if let Some(backward_invariant) = drop_one_atom(ts, &c.backward_invariant) {
                    let tampered = Check2Certificate { backward_invariant, ..c.clone() };
                    versions.push(NonTerminationCertificate::Check2(tampered));
                }
                let tampered = Check2Certificate { theta: Assertion::tautology(), ..c.clone() };
                versions.push(NonTerminationCertificate::Check2(tampered));
            }
        }
        versions
    }

    #[test]
    fn closure_evidence_validates_exactly_as_lp_only_evidence() {
        // Every quick-grid certificate of the curated suite, and its tampered
        // versions, get the same `Result` — error variant and message
        // included — whether evidence generation lets the interval closure
        // answer first or solves an LP for every atom.
        let (mut certificates, mut rejected) = (0, 0);
        for benchmark in revterm_suite::curated_benchmarks() {
            // Its Check 1 probe squares a bignum on every step.
            if benchmark.name == "nt_square_growth" {
                continue;
            }
            let ts = benchmark.transition_system();
            let mut session = crate::ProverSession::new(ts.clone());
            for config in crate::quick_sweep() {
                let Some(certificate) = session.prove(&config).certificate().cloned() else {
                    continue;
                };
                certificates += 1;
                let off = lp_only(&config.entailment);
                for version in with_tampered_versions(&ts, &certificate) {
                    let with_closure = validate_certificate(&ts, &version, &config.entailment);
                    let lp_only = validate_certificate(&ts, &version, &off);
                    assert_eq!(
                        with_closure,
                        lp_only,
                        "{} under {}",
                        benchmark.name,
                        config.label()
                    );
                    rejected += usize::from(with_closure.is_err());
                }
            }
        }
        assert!(certificates >= 30, "only {certificates} certificates");
        assert!(rejected >= 20, "only {rejected} tampered versions were rejected");
    }
}
