//! Check 2 of Algorithm 1.
//!
//! Searches for a resolution of non-determinism `R_NA`, a conjunctive
//! inductive invariant `Ĩ` of the full system (so that `Θ = Ĩ(ℓ_out)`
//! over-approximates the reachable terminal valuations), and an inductive
//! backward invariant `BI` of the reversed restricted system
//! `T^{r,Θ}_{R_NA}`; a safety query then confirms that some configuration of
//! `¬BI` is reachable in `T`, which yields a BI-certificate (Section 5.2).
//!
//! Unlike the paper's encoding we do not separately require "`BI` is not
//! inductive w.r.t. some transition of `T`" — that condition is only a
//! solver-guidance heuristic; the reachability check subsumes it.

use crate::certificate::{Check2Certificate, NonTerminationCertificate};
use crate::check1::synthesis_options;
use crate::config::ProverConfig;
use crate::prover::{BudgetGuard, TimedOut};
use crate::session::{
    memo, reversed_entry_for, Caches, ProveStats, RestrictedEntry, ReversedEntry,
};
use revterm_invgen::{synthesize_invariant_budgeted, SampleSet};
use revterm_safety::{find_path_to, reachable_samples};
use revterm_ts::interp::{run, Config};
use revterm_ts::{Assertion, TransitionSystem};

/// Check 2 with every derived artifact served from (and recorded into) the
/// session caches: the reachable forward samples per search bounds, the
/// `(Ĩ, Θ)` pair per effective synthesis inputs, restricted and reversed
/// systems (with their atom pools) per resolution, backward-probe sample
/// sets, and memoized entailment queries.
///
/// The [`BudgetGuard`] is consulted at candidate-resolution boundaries;
/// `Err(TimedOut)` aborts the search *between* memoized computations, so
/// every cache entry the call leaves behind is complete.
pub(crate) fn check2_cached(
    ts: &TransitionSystem,
    config: &ProverConfig,
    caches: &mut Caches,
    stats: &mut ProveStats,
    guard: &BudgetGuard,
) -> Result<Option<NonTerminationCertificate>, TimedOut> {
    let resolutions = caches.resolutions_for(ts, config, stats);
    let Caches { entail, lp_basis, base_pool, forward_samples, tilde, restricted, .. } = caches;
    if guard.exhausted(entail.lookups) {
        return Err(TimedOut);
    }

    // Step 1: a conjunctive invariant Ĩ of the full system, seeded with
    // concretely reachable samples.
    let fwd = memo(
        forward_samples,
        config.search.clone(),
        &mut stats.artifact_cache_hits,
        &mut stats.artifact_cache_misses,
        || reachable_samples(ts, &config.search),
    );

    let tilde_options = synthesis_options(config, None, true);
    let tilde_key = (tilde_options.params, config.entailment.clone(), config.search.clone());
    // Not expressed via `memo`: a budget-cut synthesis is not a fixpoint and
    // must not be cached (same rule as Check 1's invariant table).
    let (tilde_map, theta) = if let Some(cached) = tilde.get(&tilde_key) {
        stats.artifact_cache_hits += 1;
        cached.clone()
    } else {
        let mut sample_set = SampleSet::new();
        for cfg in fwd.iter() {
            sample_set.add(cfg.loc, cfg.vals.clone());
        }
        stats.synthesis_calls += 1;
        let Some(map) = synthesize_invariant_budgeted(
            ts,
            &sample_set,
            &tilde_options,
            base_pool,
            entail,
            lp_basis,
            &guard.synthesis_budget(),
        ) else {
            return Err(TimedOut);
        };
        let theta: Assertion = match map.at(ts.terminal_loc()).disjuncts() {
            [single] => single.clone(),
            _ => Assertion::tautology(),
        };
        stats.artifact_cache_misses += 1;
        tilde.insert(tilde_key, (map.clone(), theta.clone()));
        (map, theta)
    };

    // Step 2: per candidate resolution, synthesize a backward invariant of
    // the reversed restricted system and query reachability of its complement.
    let mut synthesis_budget = 4usize;
    for resolution in resolutions {
        if synthesis_budget == 0 {
            break;
        }
        if guard.exhausted(entail.lookups) {
            return Err(TimedOut);
        }
        stats.candidates_tried += 1;
        let entry = memo(
            restricted,
            resolution.clone(),
            &mut stats.artifact_cache_hits,
            &mut stats.artifact_cache_misses,
            || RestrictedEntry::new(ts.restrict(&resolution)),
        );
        let RestrictedEntry { system: restricted_system, backward, reversed, .. } = entry;
        let restricted_system = &*restricted_system;

        // Backward samples: configurations from which ℓ_out is reachable in
        // the restricted system.  We probe forward from the concretely
        // reachable configurations of T; every configuration on a probe run
        // that reaches ℓ_out is backward-reachable from ℓ_out in the reversed
        // system and must therefore be contained in BI.
        let backward_key = (config.search.clone(), config.divergence_probe_steps);
        let (any_terminating_probe, backward_samples) = &*memo(
            backward,
            backward_key,
            &mut stats.probe_cache_hits,
            &mut stats.probe_cache_misses,
            || {
                // Pre-analysis prune: the probes below replay configurations
                // of the *unrestricted* system through the restricted one, so
                // seed the interval fixpoint with those very configurations.
                // If even the abstract envelope cannot reach ℓ_out, no probe
                // can terminate, and the result it would compute is exactly
                // the empty one memoized here.
                if config.absint {
                    let state =
                        revterm_absint::analyze_from(restricted_system, fwd.iter().take(400));
                    if state.terminal_unreachable(restricted_system) {
                        stats.absint_prunes += 1;
                        return (false, SampleSet::new());
                    }
                }
                let mut samples = SampleSet::new();
                let mut any_terminating = false;
                for cfg in fwd.iter().take(400) {
                    let start = Config::new(cfg.loc, cfg.vals.clone());
                    let trace = run(
                        restricted_system,
                        &start,
                        &|_, _| revterm_num::Int::zero(),
                        config.divergence_probe_steps,
                    );
                    if trace.last().is_some_and(|c| c.loc == restricted_system.terminal_loc()) {
                        any_terminating = true;
                        for visited in trace {
                            samples.add(visited.loc, visited.vals);
                        }
                    }
                }
                (any_terminating, samples)
            },
        );
        let any_terminating_probe = *any_terminating_probe;
        if !any_terminating_probe {
            // Nothing reaches ℓ_out under this resolution within the probe
            // bounds; Check 1 is the natural route for such resolutions.
            continue;
        }
        synthesis_budget -= 1;

        let (reversed, reversed_hit) = reversed_entry_for(reversed, restricted_system, &theta);
        if reversed_hit {
            stats.artifact_cache_hits += 1;
        } else {
            stats.artifact_cache_misses += 1;
        }
        let ReversedEntry { system: reversed_system, pool: reversed_pool, invariants } = reversed;
        let bi_options = synthesis_options(config, None, true);
        // `BI` is a pure function of the reversed system, the backward
        // samples (determined by the search bounds and probe steps) and the
        // synthesis inputs, so it can be shared across configurations.
        let synth_key = (
            (config.search.clone(), config.divergence_probe_steps),
            (bi_options.params, bi_options.entailment.clone()),
        );
        let bi = if let Some(cached) = invariants.get(&synth_key) {
            stats.artifact_cache_hits += 1;
            cached.clone()
        } else {
            stats.synthesis_calls += 1;
            let Some(map) = synthesize_invariant_budgeted(
                &*reversed_system,
                backward_samples,
                &bi_options,
                reversed_pool,
                entail,
                lp_basis,
                &guard.synthesis_budget(),
            ) else {
                return Err(TimedOut);
            };
            stats.artifact_cache_misses += 1;
            invariants.insert(synth_key, map.clone());
            map
        };

        // Step 3: the safety query — is some configuration of ¬BI reachable
        // in the original system?
        let complement = bi.complement();
        if let Some(path) = find_path_to(ts, &complement, &config.search) {
            return Ok(Some(NonTerminationCertificate::Check2(Check2Certificate {
                resolution,
                tilde_invariant: tilde_map,
                theta,
                backward_invariant: bi,
                witness_path: path,
            })));
        }
    }
    Ok(None)
}
