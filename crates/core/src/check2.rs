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
use crate::session::{memo, Caches, ProveStats, RestrictedEntry};
use revterm_invgen::{synthesize_invariant, PoolCache, SampleSet, SynthesisBudget};
use revterm_safety::{explore, find_path_in, SearchBounds};
use revterm_ts::interp::{is_terminal, Batch, Config, Reach};
use revterm_ts::{Assertion, TransitionSystem};

/// Check 2 with every derived artifact served from (and recorded into) the
/// session caches: the one bounded exploration of `T`, restricted and
/// reversed systems (with their atom pools) per resolution, backward-probe
/// sample sets, and memoized entailment queries.  `Ĩ` and each `BI` are
/// synthesized where they are used and memoized nowhere but in the
/// certificate the search returns.
///
/// The budget is polled at candidate-resolution boundaries and, inside each
/// synthesis, before every entailment lookup (every lookup of Check 2 is a
/// synthesis's); `Err(TimedOut)` aborts the search *between* memoized
/// computations (the synthesis it cuts short is dropped), so every cache
/// entry the call leaves behind is complete.
pub(crate) fn check2_cached(
    ts: &TransitionSystem,
    config: &ProverConfig,
    caches: &mut Caches,
    stats: &mut ProveStats,
    budget: &SynthesisBudget,
) -> Result<Option<NonTerminationCertificate>, TimedOut> {
    let resolutions = caches.resolutions_for(ts, config, stats);
    let Caches { entail, base_pool, reach, restricted, .. } = caches;

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
    let mut sample_set = SampleSet::new();
    for cfg in fwd.ascending() {
        sample_set.add(cfg.loc, cfg.vals.clone());
    }
    stats.synthesis_calls += 1;
    let tilde_map = synthesize_invariant(ts, &sample_set, &options, base_pool, entail, budget)
        .ok_or(TimedOut)?;
    let theta: Assertion = match tilde_map.at(ts.terminal_loc()).disjuncts() {
        [single] => single.clone(),
        _ => Assertion::tautology(),
    };

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
        let backward_samples = &*memo(
            backward,
            config.divergence_probe_steps,
            &mut stats.probe_cache_hits,
            &mut stats.probe_cache_misses,
            || {
                // Pre-analysis prune: the probes below replay configurations
                // of the *unrestricted* system through the restricted one, so
                // seed the interval fixpoint with those very configurations.
                // If even the abstract envelope cannot reach ℓ_out, no probe
                // can terminate, and the samples they would collect are
                // exactly the empty set memoized here.
                if config.entailment.interval_fast_path {
                    let state =
                        revterm_absint::analyze_from(restricted_system, fwd.ascending().take(400));
                    if state.terminal_unreachable(restricted_system) {
                        stats.absint_prunes += 1;
                        return SampleSet::new();
                    }
                }
                backward_probes(
                    restricted_system,
                    fwd.ascending().take(400),
                    config.divergence_probe_steps,
                    &mut stats.probe_steps,
                )
            },
        );
        if backward_samples.is_empty() {
            // Nothing reaches ℓ_out under this resolution within the probe
            // bounds; Check 1 is the natural route for such resolutions.
            continue;
        }
        syntheses_left -= 1;

        let (reversed_system, reversed_pool) = memo(
            reversed,
            theta.clone(),
            &mut stats.artifact_cache_hits,
            &mut stats.artifact_cache_misses,
            || (restricted_system.reverse(theta.clone()), PoolCache::new()),
        );
        stats.synthesis_calls += 1;
        let bi = synthesize_invariant(
            reversed_system,
            backward_samples,
            &options,
            reversed_pool,
            entail,
            budget,
        )
        .ok_or(TimedOut)?;
        // Step 3: the safety query — is some configuration of ¬BI reachable
        // in the original system?
        if let Some(witness_path) = find_path_in(fwd, &bi.complement()) {
            return Ok(Some(NonTerminationCertificate::Check2(Check2Certificate {
                resolution,
                tilde_invariant: tilde_map,
                theta,
                backward_invariant: bi,
                witness_path,
            })));
        }
    }
    Ok(None)
}

/// Check 2's backward samples under one restricted system: every
/// configuration of the concrete runs of at most `max_steps` steps from
/// `starts` that reach `ℓ_out`, run by run and in order. A run that reaches
/// `ℓ_out` adds at least its last configuration, so the samples are empty
/// exactly when no run does. The runs share one [`Batch`], which steps each
/// configuration they reach once and yields each run exactly as
/// `interp::run` returns it, so the samples are those of one `run` per
/// start. Adds the batch's `interp::step` calls to `probe_steps`.
pub(crate) fn backward_probes<'c>(
    restricted: &TransitionSystem,
    starts: impl IntoIterator<Item = &'c Config>,
    max_steps: usize,
    probe_steps: &mut u64,
) -> SampleSet {
    let zero = |_: usize, _: &Config| revterm_num::Int::zero();
    let mut batch = Batch::new(restricted, &zero, max_steps);
    let mut samples = SampleSet::new();
    for start in starts {
        let trace = batch.run(start);
        if trace.clone().next_back().is_some_and(|c| is_terminal(restricted, c)) {
            for visited in trace {
                samples.add(visited.loc, visited.vals.clone());
            }
        }
    }
    *probe_steps += batch.steps();
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CheckKind;
    use crate::prover::prove_cached;
    use crate::session::Caches;
    use crate::sweep::degree1_sweep;
    use revterm_ts::interp::run;

    /// What the backward batch replaced: one `run` per start, and the whole
    /// trace of each run that ends at `ℓ_out` appended in order.
    fn per_start_samples(
        restricted: &TransitionSystem,
        starts: &[&Config],
        max_steps: usize,
    ) -> SampleSet {
        let mut samples = SampleSet::new();
        for start in starts {
            let trace = run(restricted, start, &|_, _| revterm_num::Int::zero(), max_steps);
            if trace.last().is_some_and(|c| c.loc == restricted.terminal_loc()) {
                for visited in trace {
                    samples.add(visited.loc, visited.vals);
                }
            }
        }
        samples
    }

    #[test]
    fn backward_batches_sample_what_one_run_per_start_samples() {
        let grid: Vec<ProverConfig> =
            degree1_sweep().into_iter().filter(|c| c.check == CheckKind::Check2).collect();
        let max_steps = ProverConfig::default().divergence_probe_steps;
        assert!(grid.iter().all(|c| c.divergence_probe_steps == max_steps));
        let mut batches = 0;
        // `nt_square_growth` squares a bignum on every step of every probe.
        for bench in
            revterm_suite::curated_benchmarks().into_iter().filter(|b| b.name != "nt_square_growth")
        {
            // The restricted systems the grid's Check 2 cells build, each
            // with the batch it memoized (or the prune's empty result).
            // Not every candidate resolution: under `y := x`,
            // `nt_ndet_reset` squares `x` on every iteration, and no cell
            // gets that far.
            let ts = bench.transition_system();
            let mut caches = Caches::default();
            for config in &grid {
                prove_cached(&ts, config, &mut caches);
            }
            let starts: Vec<&Config> =
                caches.reach.iter().flat_map(|r| r.ascending().take(400)).collect();
            for (resolution, entry) in &caches.restricted {
                let Some(memoized) = entry.backward.get(&max_steps) else { continue };
                let mut probe_steps = 0;
                let batch = backward_probes(
                    &entry.system,
                    starts.iter().copied(),
                    max_steps,
                    &mut probe_steps,
                );
                let per_start = per_start_samples(&entry.system, &starts, max_steps);
                let case = format!("{} under {resolution:?}", bench.name);
                assert_eq!(batch, per_start, "{case}");
                assert_eq!(memoized, &per_start, "{case}");
                batches += 1;
            }
        }
        // 70 at this writing: every batch of a `suite_deg1` pass.
        assert!(batches >= 60, "{batches} batches");
    }
}
