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
use crate::prover::TimedOut;
use crate::session::{
    memo, memo_synthesis, Caches, ProveStats, RestrictedEntry, ReversedEntry, SynthKey,
};
use revterm_invgen::{synthesize_invariant, SampleSet, SynthesisBudget};
use revterm_safety::{explore, find_path_in, SearchBounds};
use revterm_ts::interp::{run, Config, Reach};
use revterm_ts::{Assertion, TransitionSystem};

/// Check 2 with every derived artifact served from (and recorded into) the
/// session caches: the one bounded exploration of `T`, the `(Ĩ, Θ)` pair
/// per effective synthesis inputs, restricted and reversed systems (with
/// their atom pools) per resolution, backward-probe sample sets, each `BI`
/// together with the answer to its safety query, and memoized entailment
/// queries.
///
/// The budget is polled at candidate-resolution boundaries and by each
/// synthesis; `Err(TimedOut)` aborts the search *between* memoized
/// computations (a synthesis it cuts short is not memoized), so every cache
/// entry the call leaves behind is complete.
pub(crate) fn check2_cached(
    ts: &TransitionSystem,
    config: &ProverConfig,
    caches: &mut Caches,
    stats: &mut ProveStats,
    budget: &SynthesisBudget,
) -> Result<Option<NonTerminationCertificate>, TimedOut> {
    let resolutions = caches.resolutions_for(ts, config, stats);
    let Caches { entail, base_pool, reach, tilde, restricted, .. } = caches;

    // Step 1: a conjunctive invariant Ĩ of the full system, seeded with
    // concretely reachable samples. The same exploration answers every
    // safety query of step 3.
    if reach.is_some() {
        stats.artifact_cache_hits += 1;
    } else {
        stats.artifact_cache_misses += 1;
    }
    let fwd: &Reach = reach.get_or_insert_with(|| explore(ts, &SearchBounds::default()));

    // `Ĩ` and every `BI` are synthesized with the same options.
    let options = synthesis_options(config, None, true);
    let synth_key = SynthKey::of(&options);
    let (tilde_map, theta) = memo_synthesis(tilde, synth_key.clone(), stats, || {
        let mut sample_set = SampleSet::new();
        for cfg in fwd.ascending() {
            sample_set.add(cfg.loc, cfg.vals.clone());
        }
        let map = synthesize_invariant(ts, &sample_set, &options, base_pool, entail, budget)?;
        let theta: Assertion = match map.at(ts.terminal_loc()).disjuncts() {
            [single] => single.clone(),
            _ => Assertion::tautology(),
        };
        Some((map, theta))
    })?
    .clone();

    // Step 2: per candidate resolution, synthesize a backward invariant of
    // the reversed restricted system and query reachability of its complement.
    // At most this many backward-invariant syntheses per prove.
    let mut syntheses_left = 4usize;
    for resolution in resolutions {
        if syntheses_left == 0 {
            break;
        }
        if budget.exhausted(entail.lookups) {
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
        let (any_terminating_probe, backward_samples) = &*memo(
            backward,
            config.divergence_probe_steps,
            &mut stats.probe_cache_hits,
            &mut stats.probe_cache_misses,
            || {
                // Pre-analysis prune: the probes below replay configurations
                // of the *unrestricted* system through the restricted one, so
                // seed the interval fixpoint with those very configurations.
                // If even the abstract envelope cannot reach ℓ_out, no probe
                // can terminate, and the result it would compute is exactly
                // the empty one memoized here.
                if config.entailment.interval_fast_path {
                    let state =
                        revterm_absint::analyze_from(restricted_system, fwd.ascending().take(400));
                    if state.terminal_unreachable(restricted_system) {
                        stats.absint_prunes += 1;
                        return (false, SampleSet::new());
                    }
                }
                let mut samples = SampleSet::new();
                let mut any_terminating = false;
                for cfg in fwd.ascending().take(400) {
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
        if !*any_terminating_probe {
            // Nothing reaches ℓ_out under this resolution within the probe
            // bounds; Check 1 is the natural route for such resolutions.
            continue;
        }
        syntheses_left -= 1;

        let ReversedEntry { system: reversed_system, pool: reversed_pool, invariants } = memo(
            reversed,
            theta.clone(),
            &mut stats.artifact_cache_hits,
            &mut stats.artifact_cache_misses,
            || ReversedEntry::new(restricted_system.reverse(theta.clone())),
        );
        // `BI` is a pure function of the reversed system, the backward
        // samples (determined by the probe steps) and the synthesis inputs,
        // so it can be shared across configurations. So is the answer to its
        // safety query, which asks the session's one exploration: it is
        // memoized beside `BI`.
        let bi_key = (config.divergence_probe_steps, synth_key.clone());
        let (bi, witness) = memo_synthesis(invariants, bi_key, stats, || {
            let map = synthesize_invariant(
                reversed_system,
                backward_samples,
                &options,
                reversed_pool,
                entail,
                budget,
            )?;
            // Step 3: the safety query — is some configuration of ¬BI
            // reachable in the original system?
            let witness = find_path_in(fwd, &map.complement());
            Some((map, witness))
        })?;
        if let Some(path) = witness {
            return Ok(Some(NonTerminationCertificate::Check2(Check2Certificate {
                resolution,
                tilde_invariant: tilde_map,
                theta,
                backward_invariant: bi.clone(),
                witness_path: path.clone(),
            })));
        }
    }
    Ok(None)
}
