//! The session-centric prover API.
//!
//! The paper's evaluation protocol (Section 6) runs *every* configuration of
//! the check × strategy × template grid on each benchmark.  Most of the work
//! a single [`crate::prove`] call performs depends only on the transition
//! system (or on a small projection of the configuration), not on the full
//! configuration: candidate resolutions, initial valuations, restricted and
//! reversed systems, divergence-probe interpreter traces, the bounded
//! exploration of the reachable configurations, candidate atom pools and —
//! dominating everything — the exact Farkas/Handelman entailment queries.  A
//! [`ProverSession`] owns one transition system together with memo tables
//! for all of those artifacts, so a configuration sweep pays for each
//! artifact once instead of once per configuration.
//!
//! Every cache is a pure memo table: a sessioned run returns *bitwise
//! identical* verdicts and certificates to fresh per-configuration runs, only
//! faster.  A whole search — Check 1's or Check 2's walk over its candidates
//! — is memoized under what it reads of the configuration ([`SearchKey`]), so
//! a configuration the session has already searched, or its strategy or `d`
//! twin, is one lookup plus the exact check.  The invariants a search
//! synthesizes (Check 1's `I`, Check 2's `Ĩ` and each `BI`) are not memoized
//! on their own: on the measured workloads no two distinct searches
//! synthesize from the same inputs, and a search retried after a budget cut
//! synthesizes again, with every entailment lookup the cut run made answered
//! by the entailment memo.  Certificate validation splits in two halves (see
//! [`crate::validate_certificate`]): the session memoizes the *evidence* —
//! the Farkas/Handelman multipliers that discharge a certificate's
//! obligations, read off the interval closure first and found with an LP for
//! the rest — so a certificate met again skips finding them; the *exact
//! check* of that evidence never goes through a cache, and it runs on every
//! `NonTerminating` verdict.  Neither the search memo nor the evidence memo
//! can supply a verdict, only a candidate to check.

use crate::certificate::{
    check_evidence, generate_evidence, CertificateError, Evidence, EvidenceKey,
    NonTerminationCertificate,
};
use crate::check1::synthesis_params;
use crate::config::{CheckKind, ProverConfig};
use crate::prover::{prove_cached, ProofResult};
use crate::sweep::{ConfigOutcome, SweepReport};
use revterm_invgen::{PoolCache, SampleSet};
use revterm_lang::Program;
use revterm_solver::{EntailmentCache, EntailmentOptions, LpStats};
use revterm_ts::interp::{Config, Reach, Valuation};
use revterm_ts::{lower, Assertion, Resolution, TransitionSystem};
use std::collections::HashMap;

/// The label reported by [`ProverSession::prove_first`] when called with an
/// **empty** configuration slice: no configuration ran, so the outcome is
/// `Unknown` by definition, with this sentinel label instead of the
/// `"none"` of a slice whose configurations all ran and failed.
pub const NO_CONFIGS_LABEL: &str = "no-configs";

/// Structured per-stage statistics of one `prove` call.
///
/// Counters are deltas for the single call, not session totals (see
/// [`SessionStats`] for the running aggregate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProveStats {
    /// Candidates examined: `(resolution, initial configuration)` pairs for
    /// Check 1, candidate resolutions for Check 2.  0 when the session's
    /// search memo supplied the candidate certificate (or its absence): a
    /// configuration the session has already searched examines none.
    pub candidates_tried: usize,
    /// Invariant-synthesis (Houdini) invocations; 0 on a search memo hit.
    pub synthesis_calls: usize,
    /// Entailment-oracle queries routed through the session memo (including
    /// ones answered from it); 0 on a search memo hit.  Certificate
    /// validation is not counted here: its evidence comes from the session's
    /// evidence memo (counted as an artifact) or is generated outside the
    /// entailment memo (the interval closure first, a fresh LP for the
    /// rest), and its exact check needs no oracle.
    pub entailment_calls: u64,
    /// Entailment queries answered from the session memo table.
    pub entailment_cache_hits: u64,
    /// Divergence-probe / backward-probe interpreter runs served from cache.
    pub probe_cache_hits: u64,
    /// Interpreter probe computations that had to run.
    pub probe_cache_misses: u64,
    /// Interpreter steps (`revterm_ts::interp::step` calls) those probe
    /// computations made: Check 1's divergence probes, and Check 2's
    /// backward-probe batches, which step each configuration they reach
    /// once. 0 when the probe memo served every probe.
    pub probe_steps: u64,
    /// Derived artifacts (completed searches, resolution lists, initial
    /// valuations, restricted and reversed systems, the bounded
    /// exploration, certificate evidence) served from cache.  A search memo
    /// hit counts one, and the evidence of the certificate it supplies one
    /// more.  A synthesized invariant is no artifact: it is never memoized
    /// on its own, and counts in `synthesis_calls` only.
    pub artifact_cache_hits: u64,
    /// Derived artifacts that had to be computed, a completed search among
    /// them.
    pub artifact_cache_misses: u64,
    /// Probe batches skipped because the abstract-interpretation
    /// pre-analysis proved their outcome (Check 2 backward probes whose
    /// terminal location is provably unreachable).  The memoized result is
    /// bitwise identical to what the probes would have produced.
    pub absint_prunes: u64,
    /// LP engine counters (solves, pivots, warm-start hits) of the misses
    /// this call sent through the session's entailment memo, plus the
    /// queries it answered by the interval fast path.
    pub lp: LpStats,
}

impl ProveStats {
    /// Adds another call's counters into this one.
    pub fn accumulate(&mut self, other: &ProveStats) {
        self.candidates_tried += other.candidates_tried;
        self.synthesis_calls += other.synthesis_calls;
        self.entailment_calls += other.entailment_calls;
        self.entailment_cache_hits += other.entailment_cache_hits;
        self.probe_cache_hits += other.probe_cache_hits;
        self.probe_cache_misses += other.probe_cache_misses;
        self.probe_steps += other.probe_steps;
        self.artifact_cache_hits += other.artifact_cache_hits;
        self.artifact_cache_misses += other.artifact_cache_misses;
        self.absint_prunes += other.absint_prunes;
        self.lp.accumulate(&other.lp);
    }

    /// Total cache hits across all memo layers.
    pub fn total_cache_hits(&self) -> u64 {
        self.entailment_cache_hits + self.probe_cache_hits + self.artifact_cache_hits
    }
}

/// Aggregate statistics of a [`ProverSession`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionStats {
    /// Number of `prove` calls answered by the session.
    pub proves: usize,
    /// Counter totals across all calls.
    pub aggregate: ProveStats,
}

/// Memo key for a whole search, Check 1's or Check 2's walk over its
/// candidates: what [`check1_cached`] and [`check2_cached`] read of a
/// [`ProverConfig`]. The transition system is fixed by the session, and the
/// result of a search is a pure function of the two, so a configuration
/// with the key of a completed search is served its candidate certificate.
/// The key holds the template only as the [`TemplateParams::pool_key`]
/// `(c, degree)` of the strategy's mapping of it, which is what both checks
/// hand every synthesis: synthesis is conjunctive and never reads the
/// template's `d`, and the strategy changes nothing but that mapping, so the
/// strategy and `d` twins of a grid cell share one search.
///
/// [`check1_cached`]: crate::check1::check1_cached
/// [`check2_cached`]: crate::check2::check2_cached
/// [`TemplateParams::pool_key`]: revterm_invgen::TemplateParams::pool_key
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct SearchKey {
    check: CheckKind,
    pool: (usize, u32),
    entailment: EntailmentOptions,
    max_resolutions: usize,
    max_initial_configs: usize,
    divergence_probe_steps: usize,
}

impl SearchKey {
    /// The key of a search under `config`. Every field is named, so a new
    /// configuration field must be placed in or out of the key on purpose.
    pub(crate) fn of(config: &ProverConfig) -> SearchKey {
        let ProverConfig {
            check,
            strategy,
            params,
            entailment,
            max_resolutions,
            max_initial_configs,
            divergence_probe_steps,
            // A budget bounds how far a search runs, not what it finds, and
            // a search it cuts short is never memoized.
            budget: _,
        } = config;
        SearchKey {
            check: *check,
            pool: synthesis_params(*strategy, *params).pool_key(),
            // Read by every synthesis, and all that Check 1's
            // blocked-transition test and Check 2's probe prune read.
            entailment: entailment.clone(),
            max_resolutions: *max_resolutions,
            max_initial_configs: *max_initial_configs,
            divergence_probe_steps: *divergence_probe_steps,
        }
    }
}

/// A restricted system `T_{R_NA}` plus everything memoized per resolution.
pub(crate) struct RestrictedEntry {
    pub system: TransitionSystem,
    pub pool: PoolCache,
    /// Check 1 divergence probes: `(initial valuation, probe steps)` → trace.
    pub probes: HashMap<(Valuation, usize), Vec<Config>>,
    /// Check 2 backward samples: probe steps → every configuration of the
    /// probes that reached ℓ_out (empty when none did).
    pub backward: HashMap<usize, SampleSet>,
    /// Reversed systems `T^{r,Θ}_{R_NA}` keyed by `Θ`, each with its
    /// atom-pool cache.
    pub reversed: HashMap<Assertion, (TransitionSystem, PoolCache)>,
}

impl RestrictedEntry {
    pub(crate) fn new(system: TransitionSystem) -> RestrictedEntry {
        RestrictedEntry {
            system,
            pool: PoolCache::new(),
            probes: HashMap::new(),
            backward: HashMap::new(),
            reversed: HashMap::new(),
        }
    }
}

/// Looks `key` up in `map`, computing and inserting the value on a miss,
/// while bumping the given hit/miss counters — the shared shape of every
/// per-session memo table.  Taking the counters as plain `&mut u64` (rather
/// than `&mut ProveStats`) lets `compute` closures update *other* stats
/// fields concurrently via disjoint field borrows.
pub(crate) fn memo<'m, K: Eq + std::hash::Hash, V>(
    map: &'m mut HashMap<K, V>,
    key: K,
    hits: &mut u64,
    misses: &mut u64,
    compute: impl FnOnce() -> V,
) -> &'m mut V {
    match map.entry(key) {
        std::collections::hash_map::Entry::Occupied(e) => {
            *hits += 1;
            e.into_mut()
        }
        std::collections::hash_map::Entry::Vacant(v) => {
            *misses += 1;
            v.insert(compute())
        }
    }
}

/// All memo tables of a session.  `Default` gives the empty caches used by
/// the one-shot free-function wrappers.
#[derive(Default)]
pub(crate) struct Caches {
    /// Global entailment memo (keyed purely on polynomials, so it is shared
    /// across the base, restricted and reversed systems). Its misses
    /// warm-start their LPs from the bases it stores and count their LP work
    /// in its `lp_stats`.
    pub entail: EntailmentCache,
    /// Atom-pool artifacts of the base system (Check 2's `Ĩ` synthesis).
    pub base_pool: PoolCache,
    /// Candidate resolutions keyed by their cap.
    pub resolutions: HashMap<usize, Vec<Resolution>>,
    /// Preferred initial valuations keyed by their cap.
    pub initials: HashMap<usize, Vec<Valuation>>,
    /// The bounded exploration of the base system, computed on first use:
    /// Check 2's forward samples (in ascending order) and the configurations
    /// every `¬BI` query scans (in discovery order).
    pub reach: Option<Reach>,
    /// Restricted systems and their per-resolution artifacts.
    pub restricted: HashMap<Resolution, RestrictedEntry>,
    /// Completed searches keyed by what they read of the configuration:
    /// the candidate certificate each one found, or `None`.  It supplies
    /// candidates, never a verdict: [`Caches::validate`] runs on every one.
    pub searches: HashMap<SearchKey, Option<NonTerminationCertificate>>,
    /// Evidence of the certificates this session has validated, keyed by
    /// the certificate parts that fix their obligations.  It supplies
    /// multipliers, never a verdict: see [`Caches::validate`].
    pub evidence: HashMap<EvidenceKey, Evidence>,
}

impl Caches {
    /// Validates a candidate certificate: evidence from the memo, or freshly
    /// generated (the interval closure first, a cold LP for the rest, none
    /// of it touching the entailment memo) and memoized once it passes;
    /// then the exact check, which runs on every
    /// call — so a wrong memo entry can only turn a verdict into a
    /// rejection, never into a proof.
    pub(crate) fn validate(
        &mut self,
        ts: &TransitionSystem,
        certificate: &NonTerminationCertificate,
        opts: &EntailmentOptions,
        stats: &mut ProveStats,
    ) -> Result<(), CertificateError> {
        let key = EvidenceKey::of(certificate, opts);
        if let Some(evidence) = self.evidence.get(&key) {
            stats.artifact_cache_hits += 1;
            return check_evidence(ts, certificate, evidence);
        }
        stats.artifact_cache_misses += 1;
        let evidence = generate_evidence(ts, certificate, opts)?;
        check_evidence(ts, certificate, &evidence)?;
        self.evidence.insert(key, evidence);
        Ok(())
    }

    /// The candidate resolutions for `config`, memoized.
    pub(crate) fn resolutions_for(
        &mut self,
        ts: &TransitionSystem,
        config: &ProverConfig,
        stats: &mut ProveStats,
    ) -> Vec<Resolution> {
        memo(
            &mut self.resolutions,
            config.max_resolutions,
            &mut stats.artifact_cache_hits,
            &mut stats.artifact_cache_misses,
            || crate::check1::candidate_resolutions(ts, config.max_resolutions),
        )
        .clone()
    }

    /// The preferred initial valuations for `config`, memoized.
    pub(crate) fn initials_for(
        &mut self,
        ts: &TransitionSystem,
        config: &ProverConfig,
        stats: &mut ProveStats,
    ) -> Vec<Valuation> {
        memo(
            &mut self.initials,
            config.max_initial_configs,
            &mut stats.artifact_cache_hits,
            &mut stats.artifact_cache_misses,
            || crate::check1::preferred_initials(ts, config),
        )
        .clone()
    }
}

/// A prover session: one [`TransitionSystem`] plus memoized derived artifacts
/// shared by every `prove` call on it.
///
/// This is the primary entry point of the crate.  Open a session once per
/// program, then run as many configurations against it as needed — a sweep
/// over the paper's configuration grid typically runs several times faster
/// than fresh per-configuration [`crate::prove`] calls, with identical
/// results (see the module docs for why the caches cannot change verdicts).
///
/// ```
/// use revterm::{ProverSession, ProverConfig, quick_sweep};
/// use revterm_lang::parse_program;
///
/// let program = parse_program("while x >= 0 do x := x + 1; od").unwrap();
/// let mut session = ProverSession::from_program(&program).unwrap();
/// let report = session.sweep(&quick_sweep(), 1);
/// assert!(report.proved());
/// ```
pub struct ProverSession {
    ts: TransitionSystem,
    caches: Caches,
    stats: SessionStats,
}

impl ProverSession {
    /// Opens a session on a transition system.
    pub fn new(ts: TransitionSystem) -> ProverSession {
        ProverSession { ts, caches: Caches::default(), stats: SessionStats::default() }
    }

    /// Opens a session by lowering a program.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Analysis`] if the program cannot be
    /// translated.
    pub fn from_program(program: &Program) -> Result<ProverSession, crate::Error> {
        let ts = lower(program).map_err(|e| crate::Error::Analysis(e.to_string()))?;
        Ok(ProverSession::new(ts))
    }

    /// Opens a session straight from program text (parse + analyse + lower).
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Parse`] for lexical/syntactic/semantic
    /// problems in the text and [`crate::Error::Analysis`] for lowering
    /// failures — the same split the CLI exit codes and the wire protocol
    /// report.
    pub fn from_source(source: &str) -> Result<ProverSession, crate::Error> {
        let program = revterm_lang::parse_program(source).map_err(crate::Error::Parse)?;
        ProverSession::from_program(&program)
    }

    /// The transition system this session proves facts about.
    pub fn ts(&self) -> &TransitionSystem {
        &self.ts
    }

    /// Running counter totals across every `prove` call of this session.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Proves non-termination with a single configuration, reusing every
    /// artifact previous calls on this session have already computed.
    ///
    /// Behaves exactly like the free function [`crate::prove`] (including
    /// the exact check of the certificate), except faster when the session
    /// is warm.  The returned [`ProofResult::stats`] describe this
    /// call's work and cache effectiveness.
    pub fn prove(&mut self, config: &ProverConfig) -> ProofResult {
        let result = prove_cached(&self.ts, config, &mut self.caches);
        self.stats.proves += 1;
        self.stats.aggregate.accumulate(&result.stats);
        result
    }

    /// Tries configurations in order, returning the first success.
    ///
    /// If no configuration succeeds the verdict is `Unknown` with the label
    /// of the **empty** sweep documented on [`NO_CONFIGS_LABEL`] when
    /// `configs` is empty, or `"none"` when configurations ran but all
    /// failed.  If no configuration succeeds but at least one was cut short
    /// by its [`crate::Budget`], the verdict is [`crate::Verdict::Timeout`]
    /// (the search was not exhausted, so `Unknown` would overclaim).  A
    /// request deadline lives in each configuration's budget, so once it
    /// passes every remaining configuration times out before doing any work.
    pub fn prove_first(&mut self, configs: &[ProverConfig]) -> ProofResult {
        let start = std::time::Instant::now();
        let mut stats = ProveStats::default();
        let mut any_timeout = false;
        for config in configs {
            let result = self.prove(config);
            stats.accumulate(&result.stats);
            any_timeout |= result.timed_out();
            if result.is_non_terminating() {
                return ProofResult { elapsed: start.elapsed(), stats, ..result };
            }
        }
        ProofResult {
            verdict: if any_timeout {
                crate::prover::Verdict::Timeout
            } else {
                crate::prover::Verdict::Unknown
            },
            elapsed: start.elapsed(),
            config_label: if configs.is_empty() {
                NO_CONFIGS_LABEL.to_string()
            } else {
                "none".to_string()
            },
            stats,
        }
    }

    /// Runs a configuration sweep (the paper's Section 6 protocol), stopping
    /// early once `stop_after_success` successful configurations have been
    /// observed (pass `usize::MAX` to run the full grid).
    ///
    /// Per-configuration verdicts are identical to fresh [`crate::prove`]
    /// runs, but shared artifacts are computed once across the whole grid.
    /// A configuration whose budget is spent when its turn comes (a request
    /// deadline that has passed) is recorded with [`ConfigOutcome::timed_out`]
    /// set, so a cut-short sweep is distinguishable from an exhausted one.
    pub fn sweep(&mut self, configs: &[ProverConfig], stop_after_success: usize) -> SweepReport {
        let mut report = SweepReport::default();
        let mut successes = 0usize;
        for config in configs {
            let result = self.prove(config);
            let proved = result.is_non_terminating();
            report.outcomes.push(ConfigOutcome {
                label: config.label(),
                check: config.check,
                strategy: config.strategy,
                params: config.params,
                proved,
                timed_out: result.timed_out(),
                elapsed: result.elapsed,
                stats: result.stats,
            });
            if proved {
                successes += 1;
                if successes >= stop_after_success {
                    break;
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::quick_sweep;
    use revterm_lang::parse_program;

    const RUNNING: &str =
        "while x >= 9 do x := ndet(); y := 10 * x; while x <= y do x := x + 1; od od";

    #[test]
    fn second_config_hits_the_session_caches() {
        let ts = revterm_ts::lower(&parse_program(RUNNING).unwrap()).unwrap();
        let mut session = ProverSession::new(ts);
        let first = session.prove(&ProverConfig::default());
        let warm = session.prove(&ProverConfig::builder().template(3, 1, 1).build());
        assert!(first.is_non_terminating());
        assert!(warm.is_non_terminating());
        // The first call on a cold session cannot hit the per-session
        // artifact caches; the second call must.
        assert_eq!(first.stats.artifact_cache_hits, 0);
        assert!(warm.stats.artifact_cache_hits > 0, "warm stats: {:?}", warm.stats);
        assert!(warm.stats.probe_cache_hits > 0, "warm stats: {:?}", warm.stats);
        assert!(warm.stats.entailment_cache_hits > 0, "warm stats: {:?}", warm.stats);
        // Session totals aggregate both calls.
        let agg = session.stats().aggregate;
        assert_eq!(
            agg.entailment_calls,
            first.stats.entailment_calls + warm.stats.entailment_calls
        );
        assert!(agg.total_cache_hits() >= warm.stats.total_cache_hits());
    }

    #[test]
    fn evidence_memo_supplies_multipliers_but_never_a_verdict() {
        use revterm_invgen::Discharge;
        let config = ProverConfig::default();
        let fresh = |plant: &dyn Fn(&mut Evidence)| {
            let mut session = ProverSession::from_source(RUNNING).unwrap();
            let first = session.prove(&config);
            assert!(first.is_non_terminating());
            assert_eq!(session.caches.evidence.len(), 1);
            session.caches.evidence.values_mut().for_each(plant);
            session.prove(&config)
        };
        // Untouched evidence is reused: the second prove checks it again
        // without generating it, and reaches the same verdict.
        let reused = fresh(&|_| {});
        assert!(reused.is_non_terminating());
        assert_eq!(reused.stats.artifact_cache_misses, 0, "stats: {:?}", reused.stats);
        // Wrong evidence in the memo makes the next prove end Unknown: the
        // exact check still runs on every verdict.
        let planted: [&dyn Fn(&mut Evidence); 2] = [
            &|evidence| {
                evidence.discharges.pop();
            },
            &|evidence| {
                for discharge in &mut evidence.discharges {
                    *discharge = Discharge::Unsat(revterm_solver::Combination::new());
                }
            },
        ];
        for plant in planted {
            let result = fresh(plant);
            assert!(matches!(result.verdict, crate::Verdict::Unknown), "{:?}", result.verdict);
        }
    }

    /// The curated suite's `paper_fig2_small`.
    const FIG2_SMALL: &str = "n := 0; b := 0; u := 0; \
        while b == 0 and n <= 3 do \
          u := ndet(); \
          if u <= -1 then b := -1; elseif u == 0 then b := 0; else b := 1; fi \
          n := n + 1; \
          if n >= 4 and b >= 1 then while true do skip; od fi \
        od";

    #[test]
    fn memoized_witness_supplies_a_path_but_never_a_verdict() {
        let check2 = ProverConfig::builder().check(CheckKind::Check2).template(1, 1, 1).build();
        type Plant = dyn Fn(&TransitionSystem, &mut NonTerminationCertificate);
        // Proves `config` on a fresh session, plants into the one candidate
        // its search memo holds, and proves `config` again.
        let replant = |source: &str, config: &ProverConfig, plant: &Plant| {
            let mut session = ProverSession::from_source(source).unwrap();
            assert!(session.prove(config).is_non_terminating());
            let mut found: Vec<_> = session.caches.searches.values_mut().flatten().collect();
            assert_eq!(found.len(), 1, "one search, and it found a candidate");
            plant(&session.ts, found.pop().unwrap());
            let result = session.prove(config);
            (result, session)
        };
        // An untouched memo supplies the candidate again: no synthesis, and
        // the same outcome as a fresh prove, witness path included.
        let (reused, session) = replant(FIG2_SMALL, &check2, &|_, _| {});
        assert_eq!(reused.stats.synthesis_calls, 0, "stats: {:?}", reused.stats);
        let cold = crate::prover::prove(session.ts(), &check2);
        assert_eq!(
            crate::api::outcome_digest(&reused, session.ts()),
            crate::api::outcome_digest(&cold, session.ts()),
        );
        // A wrong witness path or initial valuation in the memoized candidate
        // makes the next prove end Unknown: the exact check replays them on
        // every verdict.
        fn check2_of(candidate: &mut NonTerminationCertificate) -> &mut crate::Check2Certificate {
            match candidate {
                NonTerminationCertificate::Check2(c) => c,
                NonTerminationCertificate::Check1(_) => panic!("a Check 1 candidate"),
            }
        }
        let check1 = ProverConfig::default();
        let planted: [(&str, &ProverConfig, &Plant); 3] = [
            (FIG2_SMALL, &check2, &|_, candidate| {
                check2_of(candidate).witness_path.remove(0);
            }),
            (FIG2_SMALL, &check2, &|_, candidate| {
                let c = check2_of(candidate);
                c.witness_path.pop();
                let last = c.witness_path.last().expect("the path has more than one configuration");
                let inside = c.backward_invariant.at(last.loc).holds_int(&last.vals.assignment());
                assert!(inside, "{last} is not in BI");
            }),
            (RUNNING, &check1, &|ts, candidate| {
                let NonTerminationCertificate::Check1(c) = candidate else {
                    panic!("a Check 2 candidate")
                };
                c.initial = Valuation::from_i64s(&[5, 0]);
                let outside = !c.invariant.at(ts.init_loc()).holds_int(&c.initial.assignment());
                assert!(outside, "{:?} is in I(ℓ_init)", c.initial);
            }),
        ];
        for (source, config, plant) in planted {
            let (result, _) = replant(source, config, plant);
            assert!(matches!(result.verdict, crate::Verdict::Unknown), "{:?}", result.verdict);
        }
    }

    #[test]
    fn a_budget_cut_inside_a_synthesis_is_never_memoized() {
        // Deterministic work caps that cut Check 1's `I` on the running
        // example (its only synthesis), and Check 2's `Ĩ` (the first
        // synthesis of a prove) and `BI` (after `Ĩ` completed) on
        // `paper_fig2_small`. A cut run's `synthesis_calls` says where the
        // cut landed: the synthesis it counted last is the one cut short.
        let check2 = ProverConfig::builder().check(CheckKind::Check2).template(1, 1, 1).build();
        let cases = [
            (RUNNING, ProverConfig::default(), 1, 1),
            (FIG2_SMALL, check2.clone(), 8, 1),
            (FIG2_SMALL, check2.clone(), 64, 1),
            (FIG2_SMALL, check2.clone(), 100, 2),
            (FIG2_SMALL, check2, 300, 2),
        ];
        for (source, config, cap, cut_in) in cases {
            let fresh = ProverSession::from_source(source).unwrap().prove(&config);
            let mut session = ProverSession::from_source(source).unwrap();
            let mut capped = config.clone();
            capped.budget.max_entailment_calls = Some(cap);
            let cut = session.prove(&capped);
            let case = format!("{} capped at {cap}", config.label());
            assert!(cut.timed_out(), "{case} was not cut");
            assert_eq!(cut.stats.synthesis_calls, cut_in, "{case}: {:?}", cut.stats);
            // A cut search is not exhausted, so it is not memoized either.
            assert!(session.caches.searches.is_empty(), "{case}");
            let after = session.prove(&config);
            assert_eq!(session.caches.searches.len(), 1, "{case}");
            let digest = |result: &ProofResult| crate::api::outcome_digest(result, session.ts());
            assert_eq!(digest(&after), digest(&fresh), "{case}");
            // No synthesis is memoized, so the uncapped prove makes the fresh
            // prove's syntheses and lookups; the entailment memo answers
            // every lookup the cut run made, so no LP is solved twice.
            let (after, fresh) = (&after.stats, &fresh.stats);
            assert_eq!(after.synthesis_calls, fresh.synthesis_calls, "{case}: {after:?}");
            assert_eq!(after.entailment_calls, fresh.entailment_calls, "{case}: {after:?}");
            assert!(after.entailment_cache_hits >= cut.stats.entailment_calls, "{case}: {after:?}");
            assert_eq!(cut.stats.lp.solves + after.lp.solves, fresh.lp.solves, "{case}: {after:?}");
        }
    }

    #[test]
    fn a_d2_cell_reuses_every_synthesis_of_its_d1_twin() {
        // Synthesis never reads the template's `d`, and the search memo does
        // not key on it: whichever twin runs second on a session is served
        // the first's search, so it synthesizes nothing and still reaches a
        // fresh prove's outcome.
        let check1 = ProverConfig::builder().template(2, 1, 1).build();
        let check2 = ProverConfig::builder().check(CheckKind::Check2).template(1, 1, 1).build();
        for (source, d1) in [(RUNNING, check1), (FIG2_SMALL, check2)] {
            let mut d2 = d1.clone();
            d2.params.d = 2;
            for (first, twin) in [(&d1, &d2), (&d2, &d1)] {
                let mut session = ProverSession::from_source(source).unwrap();
                let cold = session.prove(first);
                let case = format!("{} after {}", twin.label(), first.label());
                assert!(cold.stats.synthesis_calls > 0, "{case}: {:?}", cold.stats);
                let warm = session.prove(twin);
                assert!(warm.is_non_terminating(), "{case}: {:?}", warm.verdict);
                assert_eq!(warm.stats.synthesis_calls, 0, "{case}: {:?}", warm.stats);
                let fresh = crate::prover::prove(session.ts(), twin);
                assert_eq!(
                    crate::api::outcome_digest(&warm, session.ts()),
                    crate::api::outcome_digest(&fresh, session.ts()),
                    "{case}"
                );
            }
        }
    }

    #[test]
    fn the_search_memo_keys_on_every_field_a_search_reads() {
        use crate::api::outcome_digest as digest;
        use crate::config::Strategy;
        use revterm_solver::LpEngine;
        let base = ProverConfig::default();
        let mut session = ProverSession::from_source(RUNNING).unwrap();
        assert!(session.prove(&base).is_non_terminating());
        // Each variant changes one field the search reads, so none may be
        // served the base's search: each searches afresh and reaches a fresh
        // prove's outcome.
        let variants: [fn(&mut ProverConfig); 10] = [
            |c| c.check = CheckKind::Check2,
            |c| c.params.c = 3,
            |c| c.params.degree = 2,
            |c| c.entailment.interval_fast_path = false,
            |c| c.entailment.max_product_size = 1,
            |c| c.entailment.max_product_degree = 2,
            |c| c.entailment.lp_engine = LpEngine::Dense,
            |c| c.max_resolutions = 4,
            |c| c.max_initial_configs = 2,
            |c| c.divergence_probe_steps = 60,
        ];
        for (i, vary) in variants.iter().enumerate() {
            let mut config = base.clone();
            vary(&mut config);
            let warm = session.prove(&config);
            let case = format!("variant {i}: {config:?}");
            assert_eq!(session.caches.searches.len(), i + 2, "{case}: a search memo hit");
            let fresh = crate::prover::prove(session.ts(), &config);
            assert_eq!(digest(&warm, session.ts()), digest(&fresh, session.ts()), "{case}");
        }
        // On the degree-1 grid only `c` and the check change a search: the
        // strategy and `d` twins of the 6 cells that search are answered
        // from the memo, with no candidate and no synthesis.
        let mut session = ProverSession::from_source(RUNNING).unwrap();
        let mut served = 0;
        for config in crate::sweep::degree1_sweep() {
            let warm = session.prove(&config);
            if warm.stats.candidates_tried == 0 && warm.stats.synthesis_calls == 0 {
                served += 1;
            }
            let fresh = crate::prover::prove(session.ts(), &config);
            let label = config.label();
            assert_eq!(digest(&warm, session.ts()), digest(&fresh, session.ts()), "{label}");
        }
        assert_eq!(served, 18);
        assert_eq!(session.caches.searches.len(), 6);
        // The strategy enters the key only through its mapping of the
        // template, `(min(c, 3), 1, 1)`: a guard-propagation cell is served
        // the search of the Houdini cell it maps to, and a Houdini cell with
        // its parameters searches anew.
        let template = |strategy, (c, d, degree)| {
            ProverConfig::builder().strategy(strategy).template(c, d, degree).build()
        };
        let mut session = ProverSession::from_source(RUNNING).unwrap();
        for (params, mapped) in [((4, 1, 1), (3, 1, 1)), ((2, 1, 2), (2, 1, 1))] {
            session.prove(&template(Strategy::Houdini, mapped));
            for (strategy, served) in
                [(Strategy::GuardPropagation, true), (Strategy::Houdini, false)]
            {
                let config = template(strategy, params);
                let searched = session.caches.searches.len();
                let warm = session.prove(&config);
                let case = format!("{} after houdini {mapped:?}", config.label());
                let fresh = crate::prover::prove(session.ts(), &config);
                assert_eq!(digest(&warm, session.ts()), digest(&fresh, session.ts()), "{case}");
                if served {
                    assert_eq!(session.caches.searches.len(), searched, "{case}: searched anew");
                    let (tried, synthesized) =
                        (warm.stats.candidates_tried, warm.stats.synthesis_calls);
                    assert_eq!((tried, synthesized), (0, 0), "{case}: {:?}", warm.stats);
                } else {
                    assert_eq!(session.caches.searches.len(), searched + 1, "{case}: a memo hit");
                    assert!(warm.stats.synthesis_calls > 0, "{case}: {:?}", warm.stats);
                }
            }
        }
    }

    #[test]
    fn prove_first_on_empty_slice_reports_the_documented_label() {
        // Regression: the empty sweep used to return `Unknown` silently with
        // the same label as "ran and failed"; it now carries the documented
        // sentinel label so callers can distinguish the two, and runs nothing.
        let ts = revterm_ts::lower(&parse_program("while true do skip; od").unwrap()).unwrap();
        let mut session = ProverSession::new(ts);
        let result = session.prove_first(&[]);
        assert!(!result.is_non_terminating());
        assert_eq!(result.config_label, NO_CONFIGS_LABEL);
        assert_eq!(result.stats, ProveStats::default());
        assert_eq!(session.stats().proves, 0);
        // A non-empty slice that fails everywhere keeps the legacy label.
        let ts2 =
            revterm_ts::lower(&parse_program("n := 0; while n <= 3 do n := n + 1; od").unwrap())
                .unwrap();
        let mut session2 = ProverSession::new(ts2);
        let failed = session2.prove_first(&[ProverConfig::default()]);
        assert!(!failed.is_non_terminating());
        assert_eq!(failed.config_label, "none");
    }

    #[test]
    fn zero_deadline_yields_timeout_and_never_poisons_the_session() {
        let mut session = ProverSession::from_source(RUNNING).unwrap();
        let strict = ProverConfig::builder().time_limit(std::time::Duration::ZERO).build();
        let cut = session.prove(&strict);
        assert!(matches!(cut.verdict, crate::Verdict::Timeout));
        assert!(cut.timed_out());
        assert!(!cut.is_non_terminating());
        assert!(cut.certificate().is_none());
        // The interrupted run must not have planted partial results: the
        // same session still reaches the same verdict as a fresh one.
        let after = session.prove(&ProverConfig::default());
        let fresh = ProverSession::from_source(RUNNING).unwrap().prove(&ProverConfig::default());
        assert!(after.is_non_terminating());
        assert_eq!(
            crate::api::outcome_digest(&after, session.ts()),
            crate::api::outcome_digest(&fresh, session.ts()),
        );
        // prove_first reports Timeout only when nothing succeeded.
        let first = session.prove_first(&[strict.clone(), ProverConfig::default()]);
        assert!(first.is_non_terminating());
        let mut cold = ProverSession::from_source(RUNNING).unwrap();
        let all_cut = cold.prove_first(&[strict]);
        assert!(matches!(all_cut.verdict, crate::Verdict::Timeout));
    }

    #[test]
    fn a_spent_budget_times_out_before_any_work() {
        // A zero work cap, a zero time limit and a deadline already passed
        // are each spent when the run starts: the verdict is `Timeout`, no
        // counter moves and no cache is touched.
        use crate::Budget;
        let spent = [
            Budget { max_entailment_calls: Some(0), ..Budget::default() },
            Budget::with_time_limit(std::time::Duration::ZERO),
            Budget { deadline: Some(std::time::Instant::now()), ..Budget::default() },
        ];
        for check in [CheckKind::Check1, CheckKind::Check2] {
            for budget in spent {
                let mut session = ProverSession::from_source(RUNNING).unwrap();
                let cut =
                    session.prove(&ProverConfig::builder().check(check).budget(budget).build());
                let case = format!("{check} with {budget:?}");
                assert!(cut.timed_out(), "{case}: {:?}", cut.verdict);
                assert_eq!(cut.stats, ProveStats::default(), "{case}");
                let Caches { entail, resolutions, initials, reach, restricted, evidence, .. } =
                    &session.caches;
                assert_eq!(entail.lookups, 0, "{case}");
                assert!(resolutions.is_empty() && initials.is_empty(), "{case}");
                assert!(reach.is_none() && restricted.is_empty() && evidence.is_empty(), "{case}");
                assert!(session.caches.searches.is_empty(), "{case}");
            }
        }
        // A sweep whose deadline has passed records every cell as timed out.
        let mut late = quick_sweep();
        for config in &mut late {
            config.budget.deadline = Some(std::time::Instant::now());
        }
        let report = ProverSession::from_source(RUNNING).unwrap().sweep(&late, usize::MAX);
        assert_eq!(report.outcomes.len(), late.len());
        assert!(report.outcomes.iter().all(|o| o.timed_out && !o.proved), "{report:?}");
    }

    #[test]
    fn entailment_call_budget_is_a_deterministic_work_cap() {
        // A zero-call work cap trips the first candidate boundary (the cap
        // is cooperative, so unlike the wall clock it is exactly
        // reproducible: the same request cuts at the same candidate on every
        // machine).
        let mut session = ProverSession::from_source(RUNNING).unwrap();
        let mut capped = ProverConfig::default();
        capped.budget.max_entailment_calls = Some(0);
        let cut = session.prove(&capped);
        assert!(matches!(cut.verdict, crate::Verdict::Timeout), "verdict: {:?}", cut.verdict);
        // A generous cap does not change the verdict of a provable program.
        let mut roomy = ProverConfig::default();
        roomy.budget.max_entailment_calls = Some(u64::MAX);
        let ok = session.prove(&roomy);
        assert!(ok.is_non_terminating());
        // Sweeps record per-configuration timeouts.
        let report = session.sweep(std::slice::from_ref(&capped), usize::MAX);
        assert!(report.outcomes[0].timed_out);
        assert!(!report.outcomes[0].proved);
    }

    #[test]
    fn session_sweep_stops_after_success_like_the_free_sweep() {
        let ts =
            revterm_ts::lower(&parse_program("while x >= 0 do x := x + 1; od").unwrap()).unwrap();
        let mut session = ProverSession::new(ts);
        let report = session.sweep(&quick_sweep(), 1);
        assert!(report.proved());
        assert_eq!(report.outcomes.len(), 1, "stop_after_success must cut the grid short");
        assert_eq!(report.outcomes[0].check, CheckKind::Check1);
    }
}
