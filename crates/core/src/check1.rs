//! Check 1 of Algorithm 1.
//!
//! Searches for a resolution of non-determinism `R_NA`, an initial
//! configuration `c` and an inductive invariant `I` of the restricted system
//! `T_{R_NA}` such that `c ∈ I(ℓ_init)` and `I(ℓ_out) = ∅`.  Success proves
//! non-termination without any safety-prover call (Section 5.2).

use crate::certificate::{Check1Certificate, NonTerminationCertificate};
use crate::config::{ProverConfig, Strategy};
use crate::prover::TimedOut;
use crate::session::{memo, Caches, ProveStats, RestrictedEntry};
use revterm_invgen::{
    synthesize_invariant, SampleSet, SynthesisBudget, SynthesisOptions, TemplateParams,
};
use revterm_poly::Poly;
use revterm_safety::{find_initial_valuations, ndet_candidate_values, SearchBounds};
use revterm_ts::interp::{run, Config, Valuation};
use revterm_ts::{Resolution, TransitionSystem};
use std::sync::Arc;

/// Enumerates candidate resolutions of non-determinism: every combination
/// (capped at `max_resolutions`) of candidate polynomials for the
/// non-deterministic assignment transitions.  Candidate right-hand sides are
/// the constants drawn from the program constants plus, for every program
/// variable `x`, the degree-1 polynomials `x`, `x + 1`, `x - 1` and `-x`.
pub(crate) fn candidate_resolutions(
    ts: &TransitionSystem,
    max_resolutions: usize,
) -> Vec<Resolution> {
    let ndet_ids: Vec<usize> = ts.ndet_transitions().map(|t| t.id).collect();
    if ndet_ids.is_empty() {
        return vec![Resolution::empty()];
    }
    let mut rhs_candidates: Vec<Poly> = ndet_candidate_values(ts, SearchBounds::default().grid)
        .into_iter()
        .map(|c| Poly::constant(revterm_num::Rat::from(c)))
        .collect();
    for i in 0..ts.vars().len() {
        let x = Poly::var(ts.vars().unprimed(i));
        rhs_candidates.push(x.clone());
        rhs_candidates.push(&x + &Poly::one());
        rhs_candidates.push(&x - &Poly::one());
        rhs_candidates.push(-x);
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
                if next.len() >= max_resolutions {
                    break;
                }
            }
            if next.len() >= max_resolutions {
                break;
            }
        }
        resolutions = next;
    }
    resolutions.truncate(max_resolutions);
    resolutions
}

/// The template parameters a check hands every synthesis: the strategy's
/// mapping of the configuration's own.
pub(crate) fn synthesis_params(strategy: Strategy, params: TemplateParams) -> TemplateParams {
    match strategy {
        Strategy::Houdini => params,
        // The guard-propagation strategy synthesizes over the degree-1 pool
        // of `c` capped at 3: `c = 1` keeps the interval atoms only (no guard
        // atoms), `c = 2` adds the octagon atoms, and `c >= 3` the guard atoms
        // as well; `d` is set to 1, which no synthesis reads. The pinned
        // digests record each labelled cell's outcome under this mapping, so
        // changing it moves them.
        Strategy::GuardPropagation => TemplateParams::new(params.c.min(3), 1, 1),
    }
}

/// Strategy-dependent synthesis options.
pub(crate) fn synthesis_options(
    config: &ProverConfig,
    forced_false: Option<revterm_ts::Loc>,
    require_initiation: bool,
) -> SynthesisOptions {
    SynthesisOptions {
        params: synthesis_params(config.strategy, config.params),
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
/// Each `I` is synthesized where it is used and memoized nowhere but in the
/// certificate the search returns.  The budget is polled at candidate
/// boundaries and before every entailment lookup, in each synthesis and in
/// the blocked-transition test; `Err(TimedOut)` aborts the search *between*
/// memoized computations (the synthesis it cuts short is dropped), so every
/// cache entry the call leaves behind is complete.
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
        let RestrictedEntry { system: restricted_system, pool, probes, .. } = entry;
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
                    let trace = run(
                        restricted_system,
                        &start,
                        &|_, _| revterm_num::Int::zero(),
                        config.divergence_probe_steps,
                    );
                    // The `interp::step` calls `run` made.
                    stats.probe_steps += trace.len().min(config.divergence_probe_steps) as u64;
                    trace
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

            // Samples: everything the probe visited belongs to the set the
            // invariant must contain.
            let mut samples = SampleSet::new();
            for cfg in trace.iter() {
                samples.add(cfg.loc, cfg.vals.clone());
            }
            let options = synthesis_options(config, Some(restricted_system.terminal_loc()), false);
            stats.synthesis_calls += 1;
            let invariant =
                synthesize_invariant(restricted_system, &samples, &options, pool, entail, budget)
                    .ok_or(TimedOut)?;

            // Success condition: every transition into ℓ_out is blocked.
            // A closure contradiction is a Farkas derivation of `-1 ≥ 0`
            // over the individual premises, which is a feasible point of the
            // `implies_false` LP whenever its product budget admits
            // single-premise columns — so the fast path below can only skip
            // the LP, never disagree with it.
            let fast = config.entailment.closure_fast_path();
            let terminal = restricted_system.terminal_loc();
            let mut blocked = true;
            'blocking: for t in restricted_system.transitions_to(terminal) {
                if t.source == terminal {
                    continue;
                }
                for d in invariant.at(t.source).disjuncts() {
                    // Most tests end at the closure, so the premises are
                    // only copied for the lookup.
                    let premises = || d.atoms().iter().chain(t.relation.atoms());
                    if fast && revterm_absint::close_premises(premises()).is_contradiction() {
                        entail.record_fast_path();
                        continue;
                    }
                    if budget.exhausted(entail.lookups) {
                        return Err(TimedOut);
                    }
                    let premises: Arc<[Poly]> = premises().cloned().collect();
                    if !entail.implies_false(&premises, &config.entailment) {
                        blocked = false;
                        break 'blocking;
                    }
                }
            }
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
