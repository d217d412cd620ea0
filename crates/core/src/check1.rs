//! Check 1 of Algorithm 1.
//!
//! Searches for a resolution of non-determinism `R_NA`, an initial
//! configuration `c` and an inductive invariant `I` of the restricted system
//! `T_{R_NA}` such that `c ∈ I(ℓ_init)` and `I(ℓ_out) = ∅`.  Success proves
//! non-termination without any safety-prover call (Section 5.2).

use crate::certificate::{Check1Certificate, NonTerminationCertificate};
use crate::config::{ProverConfig, Strategy};
use crate::prover::TimedOut;
use crate::session::{memo, memo_synthesis, Caches, ProveStats, RestrictedEntry, SynthKey};
use revterm_invgen::{
    synthesize_invariant, SampleSet, SynthesisBudget, SynthesisOptions, TemplateParams,
};
use revterm_poly::Poly;
use revterm_safety::{find_initial_valuations, ndet_candidate_values, SearchBounds};
use revterm_ts::interp::{run, Config, Valuation};
use revterm_ts::{Resolution, TransitionSystem};
use std::sync::Arc;

/// Enumerates candidate resolutions of non-determinism: every combination
/// (capped) of candidate polynomials for the non-deterministic assignment
/// transitions.  Candidate right-hand sides are constants drawn from the
/// program constants plus, for degree ≥ 1, copies of program variables and
/// `±1` offsets of them.
pub(crate) fn candidate_resolutions(
    ts: &TransitionSystem,
    config: &ProverConfig,
) -> Vec<Resolution> {
    let ndet_ids: Vec<usize> = ts.ndet_transitions().map(|t| t.id).collect();
    if ndet_ids.is_empty() {
        return vec![Resolution::empty()];
    }
    let mut rhs_candidates: Vec<Poly> = ndet_candidate_values(ts, SearchBounds::default().grid)
        .into_iter()
        .map(|c| Poly::constant(revterm_num::Rat::from(c)))
        .collect();
    if config.resolution_degree >= 1 {
        for i in 0..ts.vars().len() {
            let x = Poly::var(ts.vars().unprimed(i));
            rhs_candidates.push(x.clone());
            rhs_candidates.push(&x + &Poly::one());
            rhs_candidates.push(&x - &Poly::one());
            rhs_candidates.push(-x);
        }
    }
    if config.resolution_degree >= 2 {
        for i in 0..ts.vars().len() {
            let x = Poly::var(ts.vars().unprimed(i));
            rhs_candidates.push(&x * &x);
        }
    }
    rhs_candidates.dedup();

    // Cartesian product over the non-deterministic transitions, capped.
    let mut resolutions: Vec<Resolution> = vec![Resolution::empty()];
    for &id in &ndet_ids {
        let mut next = Vec::new();
        for base in &resolutions {
            for rhs in &rhs_candidates {
                let mut r = base.clone();
                r.set(id, rhs.clone());
                next.push(r);
                if next.len() >= config.max_resolutions {
                    break;
                }
            }
            if next.len() >= config.max_resolutions {
                break;
            }
        }
        resolutions = next;
    }
    resolutions.truncate(config.max_resolutions);
    resolutions
}

/// Strategy-dependent synthesis options.
pub(crate) fn synthesis_options(
    config: &ProverConfig,
    forced_false: Option<revterm_ts::Loc>,
    require_initiation: bool,
) -> SynthesisOptions {
    let params = match config.strategy {
        Strategy::Houdini => config.params,
        // The guard-propagation strategy restricts the pool to interval atoms
        // plus guard atoms: modelled by forcing c >= 3 (guard atoms on) but
        // degree 1 and no octagon pairs (c capped at 1 would remove guards, so
        // we keep the caller's c but lower the degree).
        Strategy::GuardPropagation => TemplateParams::new(config.params.c.min(3), 1, 1),
    };
    SynthesisOptions {
        params,
        entailment: config.entailment.clone(),
        require_initiation,
        forced_false,
        max_iterations: 64,
    }
}

/// Check 1 with every derived artifact served from (and recorded into) the
/// session caches: candidate resolutions and preferred initial valuations
/// per cap, restricted systems and their atom pools per
/// resolution, divergence-probe traces per `(resolution, initial)` pair, and
/// memoized entailment queries.
///
/// The budget is polled at candidate boundaries and by each synthesis;
/// `Err(TimedOut)` aborts the search *between* memoized computations (a
/// synthesis it cuts short is not memoized), so every cache entry the call
/// leaves behind is complete.
pub(crate) fn check1_cached(
    ts: &TransitionSystem,
    config: &ProverConfig,
    caches: &mut Caches,
    stats: &mut ProveStats,
    budget: &SynthesisBudget,
) -> Result<Option<NonTerminationCertificate>, TimedOut> {
    let initials = caches.initials_for(ts, config, stats);
    if initials.is_empty() {
        return Ok(None);
    }
    let resolutions = caches.resolutions_for(ts, config, stats);
    let Caches { entail, restricted, .. } = caches;
    // At most this many invariant syntheses per prove.
    let mut syntheses_left = 8usize;
    for resolution in resolutions {
        if budget.exhausted(entail.lookups) {
            return Err(TimedOut);
        }
        let entry = memo(
            restricted,
            resolution.clone(),
            &mut stats.artifact_cache_hits,
            &mut stats.artifact_cache_misses,
            || RestrictedEntry::new(ts.restrict(&resolution)),
        );
        let RestrictedEntry { system: restricted_system, pool, probes, invariants, .. } = entry;
        let restricted_system = &*restricted_system;
        for initial in initials.iter().take(config.max_initial_configs) {
            if budget.exhausted(entail.lookups) {
                return Err(TimedOut);
            }
            stats.candidates_tried += 1;
            // Cheap probe: run the (deterministic) restricted system; if it
            // reaches ℓ_out within the probe bound this initial configuration
            // is not diverging under this resolution.
            let probe_key = (initial.clone(), config.divergence_probe_steps);
            let trace = memo(
                probes,
                probe_key,
                &mut stats.probe_cache_hits,
                &mut stats.probe_cache_misses,
                || {
                    let start = Config::new(restricted_system.init_loc(), initial.clone());
                    run(
                        restricted_system,
                        &start,
                        &|_, _| revterm_num::Int::zero(),
                        config.divergence_probe_steps,
                    )
                },
            );
            let reached_terminal =
                trace.last().is_some_and(|c| c.loc == restricted_system.terminal_loc());
            if reached_terminal || trace.len() <= config.divergence_probe_steps / 2 {
                continue;
            }
            if syntheses_left == 0 {
                return Ok(None);
            }
            syntheses_left -= 1;

            let options = synthesis_options(config, Some(restricted_system.terminal_loc()), false);
            // The synthesized invariant is a pure function of the restricted
            // system, the probe trace (which seeds the samples) and the
            // synthesis inputs — all captured by this key — so it can be
            // shared across configurations that agree on them.
            let synth_key =
                ((initial.clone(), config.divergence_probe_steps), SynthKey::of(&options));
            let invariant = memo_synthesis(invariants, synth_key, stats, || {
                // Samples: everything the probe visited belongs to the set
                // the invariant must contain.
                let mut samples = SampleSet::new();
                for cfg in trace.iter() {
                    samples.add(cfg.loc, cfg.vals.clone());
                }
                synthesize_invariant(restricted_system, &samples, &options, pool, entail, budget)
            })?
            .clone();

            // Success condition: every transition into ℓ_out is blocked.
            // A closure contradiction is a Farkas derivation of `-1 ≥ 0`
            // over the individual premises, which is a feasible point of the
            // `implies_false` LP whenever its product budget admits
            // single-premise columns — so the fast path below can only skip
            // the LP, never disagree with it.
            let fast = config.entailment.interval_fast_path
                && config.entailment.max_product_size >= 1
                && config.entailment.max_product_degree >= 1;
            let blocked = restricted_system
                .transitions_to(restricted_system.terminal_loc())
                .filter(|t| t.source != restricted_system.terminal_loc())
                .all(|t| {
                    invariant.at(t.source).disjuncts().iter().all(|d| {
                        let mut premises: Vec<Poly> = d.atoms().to_vec();
                        premises.extend(t.relation.atoms().iter().cloned());
                        if fast
                            && revterm_absint::close_premises(premises.iter()).is_contradiction()
                        {
                            entail.record_fast_path();
                            return true;
                        }
                        let premises: Arc<[Poly]> = premises.into();
                        entail.implies_false(&premises, &config.entailment)
                    })
                });
            if !blocked {
                continue;
            }
            // The initial valuation is in I(ℓ_init) by sample construction,
            // but double-check before emitting the certificate.
            if !invariant.at(restricted_system.init_loc()).holds_int(&initial.assignment()) {
                continue;
            }
            return Ok(Some(NonTerminationCertificate::Check1(Check1Certificate {
                resolution,
                invariant,
                initial: initial.clone(),
            })));
        }
    }
    Ok(None)
}

/// Orders the candidate initial valuations so that valuations from which the
/// program can take a step *into the program body* (rather than exiting
/// immediately to `ℓ_out`) come first, and thins the remainder to an evenly
/// spread sample.  Diverging executions necessarily start by entering the
/// body, so these candidates are by far the most promising.
pub(crate) fn preferred_initials(ts: &TransitionSystem, config: &ProverConfig) -> Vec<Valuation> {
    let bounds = SearchBounds::default();
    let all = find_initial_valuations(ts, &bounds);
    let ndet = ndet_candidate_values(ts, bounds.grid);
    let (mut preferred, rest): (Vec<Valuation>, Vec<Valuation>) = all.into_iter().partition(|v| {
        let cfg = Config::new(ts.init_loc(), v.clone());
        revterm_ts::interp::successors(ts, &cfg, &ndet)
            .iter()
            .any(|(_, succ)| succ.loc != ts.terminal_loc())
    });
    // Spread the non-preferred remainder (useful when the body is entered
    // unconditionally and every valuation is "preferred", or none is).
    let stride = (rest.len() / config.max_initial_configs.max(1)).max(1);
    preferred.extend(rest.into_iter().step_by(stride));
    preferred
}
