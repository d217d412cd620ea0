//! Baseline non-termination (and termination) provers.
//!
//! The paper compares RevTerm against AProVE, Ultimate, VeryMax and LoAT.
//! Those tools are closed-source or JVM-based external systems; this crate
//! re-implements the *algorithmic cores* of the non-termination techniques
//! they use, on the same transition-system substrate, so that the benchmark
//! tables compare approaches rather than process-spawning overheads:
//!
//! * [`LassoProver`] — searches for a concrete periodic lasso (a reachable
//!   configuration that repeats under a fixed resolution of non-determinism),
//!   in the spirit of TNT / the lasso-based provers inside AProVE and
//!   Ultimate.  By construction it can only find *periodic* counterexamples.
//! * [`QuasiInvariantProver`] — searches every cyclic SCC for a
//!   quasi-invariant (a set that cannot be left once entered) that blocks all
//!   exits of the SCC *for every resolution of the non-determinism*, then
//!   checks reachability — the Max-SMT approach of VeryMax, without the
//!   under-approximation freedom that RevTerm gets from resolutions.
//! * [`AccelerationProver`] — detects guards that are preserved by every
//!   iteration of a deterministic simple loop (loop acceleration in the
//!   spirit of LoAT).
//! * [`RankingProver`] — a simple linear-ranking-function synthesiser used to
//!   produce the YES rows of the comparison tables (every competitor tool
//!   also proves termination; RevTerm by design does not).
//!
//! All four are sound; their verdicts are cross-checked against the suite's
//! ground truth in the integration tests.

#![warn(missing_docs)]

use revterm_invgen::{
    synthesize_invariant, PoolCache, SampleSet, SynthesisBudget, SynthesisOptions, TemplateParams,
};
use revterm_poly::Poly;
use revterm_safety::{
    explore, find_initial_valuations, find_path_in, ndet_candidate_values, SearchBounds,
};
use revterm_solver::{entails, implies_false, EntailmentCache, EntailmentOptions};
use revterm_ts::graph::cyclic_sccs;
use revterm_ts::interp::{successors, Config, Reach};
use revterm_ts::{Loc, PredicateMap, TransitionSystem};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Verdict of a baseline prover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineVerdict {
    /// The prover established non-termination.
    NonTerminating,
    /// The prover established termination.
    Terminating,
    /// No answer.
    Unknown,
}

/// Outcome of a baseline prover run.
#[derive(Debug, Clone)]
pub struct BaselineResult {
    /// The verdict.
    pub verdict: BaselineVerdict,
    /// Wall-clock time.
    pub elapsed: Duration,
}

/// Common interface of the baseline provers.
pub trait BaselineProver {
    /// A short display name used in the comparison tables.
    fn name(&self) -> &'static str;
    /// Analyses a transition system.
    fn analyze(&self, ts: &TransitionSystem) -> BaselineResult;
}

fn result(verdict: BaselineVerdict, start: Instant) -> BaselineResult {
    BaselineResult { verdict, elapsed: start.elapsed() }
}

// ---------------------------------------------------------------------------
// Lasso prover
// ---------------------------------------------------------------------------

/// Concrete periodic-lasso search within [`SearchBounds::default`] (its
/// value grid, initial valuations and steps per candidate run).
#[derive(Debug, Clone)]
pub struct LassoProver {
    /// Maximal number of (initial valuation, resolution value) runs probed.
    pub max_runs: usize,
}

impl Default for LassoProver {
    fn default() -> Self {
        LassoProver { max_runs: 200 }
    }
}

impl BaselineProver for LassoProver {
    fn name(&self) -> &'static str {
        "lasso"
    }

    /// Searches for a run that revisits a configuration: such a run can be
    /// pumped forever, which is a sound (and periodic-only) proof of
    /// non-termination.
    fn analyze(&self, ts: &TransitionSystem) -> BaselineResult {
        let start = Instant::now();
        let bounds = SearchBounds::default();
        let candidates = ndet_candidate_values(ts, bounds.grid);
        let initials = find_initial_valuations(ts, &bounds);
        let mut runs = 0usize;
        for initial in &initials {
            for value in &candidates {
                if runs >= self.max_runs {
                    return result(BaselineVerdict::Unknown, start);
                }
                runs += 1;
                // Deterministic run resolving every non-deterministic
                // assignment with the same constant value.
                let mut seen: BTreeSet<Config> = BTreeSet::new();
                let mut current = Config::new(ts.init_loc(), initial.clone());
                for _ in 0..bounds.max_steps {
                    if current.loc == ts.terminal_loc() {
                        break;
                    }
                    if !seen.insert(current.clone()) {
                        return result(BaselineVerdict::NonTerminating, start);
                    }
                    let succ = successors(ts, &current, std::slice::from_ref(value));
                    match succ.into_iter().next() {
                        Some((_, next)) => current = next,
                        None => break,
                    }
                }
            }
        }
        result(BaselineVerdict::Unknown, start)
    }
}

// ---------------------------------------------------------------------------
// Quasi-invariant prover
// ---------------------------------------------------------------------------

/// SCC quasi-invariant search (VeryMax-style), whose reachability check
/// explores within [`SearchBounds::default`].
#[derive(Debug, Clone)]
pub struct QuasiInvariantProver {
    /// Template parameters for the quasi-invariant synthesis.
    pub params: TemplateParams,
}

impl Default for QuasiInvariantProver {
    fn default() -> Self {
        QuasiInvariantProver { params: TemplateParams::new(2, 1, 1) }
    }
}

impl BaselineProver for QuasiInvariantProver {
    fn name(&self) -> &'static str {
        "quasi-invariant"
    }

    fn analyze(&self, ts: &TransitionSystem) -> BaselineResult {
        let start = Instant::now();
        let entailment = EntailmentOptions::default();
        // The synthesis and the exploration do not depend on the SCC: each
        // runs at most once, when the first SCC needs it.
        let mut invariant: Option<PredicateMap> = None;
        let mut reach: Option<Reach> = None;
        for scc in cyclic_sccs(ts) {
            if scc.contains(&ts.terminal_loc()) {
                continue;
            }
            let scc_set: BTreeSet<Loc> = scc.iter().copied().collect();
            // Synthesize a predicate map that is inductive for the whole
            // system (no resolution of non-determinism is available to this
            // baseline).  No sample pre-filtering is used: a quasi-invariant
            // does not have to contain the reachable configurations, only to
            // be closed, so Houdini is run on the raw candidate pool and the
            // subsequent reachability query supplies the "is it ever entered"
            // part.  Locations outside the SCC are irrelevant: we only
            // require that (a) the map is inductive along transitions inside
            // the SCC and (b) every transition leaving the SCC is blocked.
            let map = invariant.get_or_insert_with(|| {
                let options = SynthesisOptions {
                    params: self.params,
                    entailment: entailment.clone(),
                    require_initiation: false,
                    forced_false: None,
                    max_iterations: 32,
                };
                synthesize_invariant(
                    ts,
                    &SampleSet::new(),
                    &options,
                    &mut PoolCache::new(),
                    &mut EntailmentCache::new(),
                    &SynthesisBudget::unlimited(),
                )
                .expect("an unlimited synthesis budget cannot be exhausted")
            });
            let exits_blocked = ts.transitions().iter().all(|t| {
                if !scc_set.contains(&t.source) || scc_set.contains(&t.target) {
                    return true;
                }
                map.at(t.source).disjuncts().iter().all(|d| {
                    let mut premises: Vec<Poly> = d.atoms().to_vec();
                    premises.extend(t.relation.atoms().iter().cloned());
                    implies_false(&premises, &entailment)
                })
            });
            if !exits_blocked {
                continue;
            }
            // Non-trivial quasi-invariant found; check it is reachable.
            let mut target = PredicateMap::unsatisfiable(ts.num_locs());
            for &loc in &scc {
                target.set(loc, map.at(loc).clone());
            }
            let reach = reach.get_or_insert_with(|| explore(ts, &SearchBounds::default()));
            if find_path_in(reach, &target).is_some() {
                return result(BaselineVerdict::NonTerminating, start);
            }
        }
        result(BaselineVerdict::Unknown, start)
    }
}

// ---------------------------------------------------------------------------
// Acceleration prover
// ---------------------------------------------------------------------------

/// Guard-preservation loop acceleration (LoAT-style), whose reachability
/// check explores within [`SearchBounds::default`].
#[derive(Debug, Clone, Default)]
pub struct AccelerationProver;

impl BaselineProver for AccelerationProver {
    fn name(&self) -> &'static str {
        "acceleration"
    }

    /// Looks for a reachable configuration from which every subsequently
    /// enabled transition keeps the system inside a cyclic SCC whose guards
    /// are preserved by the (deterministic) updates — detected by checking,
    /// for each simple self-cycle `ℓ → ℓ` or 2-cycle through the SCC, that the
    /// cycle guard entails itself after one iteration.
    fn analyze(&self, ts: &TransitionSystem) -> BaselineResult {
        let start = Instant::now();
        let entailment = EntailmentOptions::default();
        // Concrete acceleration: probe deterministic runs (constant
        // resolution 0/1) and check whether the same location is revisited
        // with the guard-relevant expression not decreasing; the symbolic
        // check below then certifies it.  The exploration that answers the
        // reachability checks does not depend on the SCC: it runs at most
        // once, when the first SCC needs it.
        let mut reach: Option<Reach> = None;
        for scc in cyclic_sccs(ts) {
            if scc.contains(&ts.terminal_loc()) {
                continue;
            }
            let scc_set: BTreeSet<Loc> = scc.iter().copied().collect();
            // Collect transitions inside the SCC; require them deterministic.
            let inside: Vec<_> = ts
                .transitions()
                .iter()
                .filter(|t| scc_set.contains(&t.source) && scc_set.contains(&t.target))
                .collect();
            if inside.iter().any(|t| t.is_ndet_assign()) {
                continue;
            }
            // The "accelerated guard": the conjunction of all unprimed-only
            // atoms of the SCC transitions.  If this guard entails, via every
            // SCC transition, its own primed copy, then once the guard holds
            // inside the SCC the execution can never leave it.
            let guard: Vec<Poly> = inside
                .iter()
                .flat_map(|t| t.relation.atoms().iter().cloned())
                .filter(|p| p.vars().iter().all(|v| ts.vars().is_unprimed(*v)))
                .collect();
            let preserved = inside.iter().all(|t| {
                guard.iter().all(|g| {
                    let mut premises = guard.clone();
                    premises.extend(t.relation.atoms().iter().cloned());
                    entails(&premises, &ts.vars().prime_poly(g), &entailment)
                })
            });
            // Additionally every location in the SCC must have at least one
            // internal outgoing transition (otherwise the run could be forced
            // out of the SCC).
            let closed = scc
                .iter()
                .all(|&loc| ts.transitions_from(loc).any(|t| scc_set.contains(&t.target)));
            if !(preserved && closed) {
                continue;
            }
            // Reachability of the guard inside the SCC.
            let mut target = PredicateMap::unsatisfiable(ts.num_locs());
            for &loc in &scc {
                target.set(
                    loc,
                    revterm_ts::PropPredicate::from_assertion(revterm_ts::Assertion::from_polys(
                        guard.clone(),
                    )),
                );
            }
            let reach = reach.get_or_insert_with(|| explore(ts, &SearchBounds::default()));
            if find_path_in(reach, &target).is_some() {
                return result(BaselineVerdict::NonTerminating, start);
            }
        }
        result(BaselineVerdict::Unknown, start)
    }
}

// ---------------------------------------------------------------------------
// Ranking prover (termination; used for the YES rows of the tables)
// ---------------------------------------------------------------------------

/// Linear ranking-function synthesis for the YES side of the tables.
#[derive(Debug, Clone, Default)]
pub struct RankingProver;

impl BaselineProver for RankingProver {
    fn name(&self) -> &'static str {
        "ranking"
    }

    /// Proves termination by finding, for every cyclic SCC other than the
    /// terminal self-loop, a linear expression that is bounded from below and
    /// strictly decreases on every transition inside the SCC.  Since every
    /// infinite execution eventually stays inside one SCC, this is a sound
    /// termination argument.
    fn analyze(&self, ts: &TransitionSystem) -> BaselineResult {
        let start = Instant::now();
        let entailment = EntailmentOptions::linear();
        // Candidate ranking expressions: ±x, x - y, x + y for program vars.
        let mut candidates: Vec<Poly> = Vec::new();
        for i in 0..ts.vars().len() {
            let x = Poly::var(ts.vars().unprimed(i));
            candidates.push(x.clone());
            candidates.push(-x.clone());
            for j in 0..ts.vars().len() {
                if i == j {
                    continue;
                }
                let y = Poly::var(ts.vars().unprimed(j));
                candidates.push(&x - &y);
                candidates.push(&x + &y);
            }
        }
        for scc in cyclic_sccs(ts) {
            if scc.contains(&ts.terminal_loc()) {
                continue;
            }
            let scc_set: BTreeSet<Loc> = scc.iter().copied().collect();
            let inside: Vec<_> = ts
                .transitions()
                .iter()
                .filter(|t| scc_set.contains(&t.source) && scc_set.contains(&t.target))
                .collect();
            if inside.iter().any(|t| t.is_ndet_assign()) {
                // A non-deterministic assignment inside the SCC: this simple
                // ranking synthesis cannot bound it, give up on the program.
                return result(BaselineVerdict::Unknown, start);
            }
            let ranked = candidates.iter().any(|f| {
                inside.iter().all(|t| {
                    let premises: Vec<Poly> = t.relation.atoms().to_vec();
                    let f_primed = ts.vars().prime_poly(f);
                    // f(x) >= 0 and f(x) - f(x') >= 1 under the transition.
                    entails(&premises, f, &entailment)
                        && entails(&premises, &(f - &f_primed - Poly::one()), &entailment)
                })
            });
            if !ranked {
                return result(BaselineVerdict::Unknown, start);
            }
        }
        result(BaselineVerdict::Terminating, start)
    }
}

/// The baseline line-up used by the comparison tables, with the competitor
/// tool each entry stands in for.
pub fn table_baselines() -> Vec<(&'static str, Box<dyn BaselineProver>)> {
    vec![
        ("Ultimate*", Box::new(LassoProver::default()) as Box<dyn BaselineProver>),
        ("VeryMax*", Box::new(QuasiInvariantProver::default())),
        ("AProVE*", Box::new(LassoProver { max_runs: 400 })),
        ("LoAT*", Box::new(AccelerationProver)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use revterm_lang::parse_program;
    use revterm_ts::lower;

    fn ts(src: &str) -> TransitionSystem {
        lower(&parse_program(src).unwrap()).unwrap()
    }

    #[test]
    fn lasso_finds_periodic_counterexamples() {
        let prover = LassoProver::default();
        assert_eq!(
            prover.analyze(&ts("while x == 0 do skip; od")).verdict,
            BaselineVerdict::NonTerminating
        );
        assert_eq!(
            prover.analyze(&ts("while x >= 5 do x := ndet(); od")).verdict,
            BaselineVerdict::NonTerminating
        );
        // Terminating program: no lasso.
        assert_eq!(
            prover.analyze(&ts("n := 0; while n <= 5 do n := n + 1; od")).verdict,
            BaselineVerdict::Unknown
        );
    }

    #[test]
    fn lasso_misses_aperiodic_divergence() {
        // Fig. 3: every diverging run is aperiodic, so no configuration ever
        // repeats and the lasso prover must answer Unknown.
        let prover = LassoProver::default();
        assert_eq!(
            prover
                .analyze(&ts("while x >= 1 do y := 10 * x; while x <= y do x := x + 1; od od"))
                .verdict,
            BaselineVerdict::Unknown
        );
    }

    #[test]
    fn quasi_invariant_handles_deterministic_aperiodic_loops() {
        let prover = QuasiInvariantProver::default();
        // A loop whose exit is unsatisfiable must never be classified as
        // terminating (the conservative baseline may or may not find the
        // quasi-invariant, depending on its bounded candidate pool).
        assert_ne!(
            prover.analyze(&ts("while true do x := x + 1; od")).verdict,
            BaselineVerdict::Terminating
        );
        // The deterministic aperiodic Fig. 3 loop is at best Unknown for this
        // baseline with its bounded candidate pool — and must never be a
        // false YES/NO.
        assert_ne!(
            prover
                .analyze(&ts("while x >= 1 do y := 10 * x; while x <= y do x := x + 1; od od"))
                .verdict,
            BaselineVerdict::Terminating
        );
        // It cannot commit to a single value of the non-deterministic
        // assignment, so the running example stays Unknown.
        assert_eq!(
            prover
                .analyze(&ts(
                    "while x >= 9 do x := ndet(); y := 10 * x; while x <= y do x := x + 1; od od"
                ))
                .verdict,
            BaselineVerdict::Unknown
        );
        // Terminating programs stay unknown (soundness).
        assert_eq!(
            prover.analyze(&ts("while x >= 0 do x := x - 1; od")).verdict,
            BaselineVerdict::Unknown
        );
    }

    #[test]
    fn acceleration_proves_simple_guard_preserving_loops() {
        let prover = AccelerationProver;
        assert_eq!(
            prover.analyze(&ts("while x >= 0 do x := x + 1; od")).verdict,
            BaselineVerdict::NonTerminating
        );
        assert_eq!(
            prover.analyze(&ts("while x >= 0 do x := x - 1; od")).verdict,
            BaselineVerdict::Unknown
        );
    }

    #[test]
    fn ranking_prover_is_sound_and_proves_loop_free_programs() {
        // The ranking prover demands a linear expression that is bounded and
        // strictly decreasing on *every* transition of a cyclic SCC — a
        // deliberately conservative condition (guard transitions do not
        // decrease anything), so typical loops stay Unknown.  What matters
        // for the comparison tables is that it is sound and that it settles
        // the loop-free programs.
        let prover = RankingProver;
        assert_eq!(
            prover.analyze(&ts("x := 1; y := x + 2; skip;")).verdict,
            BaselineVerdict::Terminating
        );
        // Never claims termination of a non-terminating program.
        assert_eq!(
            prover.analyze(&ts("while x >= 0 do x := x + 1; od")).verdict,
            BaselineVerdict::Unknown
        );
        assert_eq!(prover.analyze(&ts("while true do skip; od")).verdict, BaselineVerdict::Unknown);
        // A conservative Unknown on a terminating loop is acceptable.
        let counter = prover.analyze(&ts("while x >= 0 do x := x - 1; od")).verdict;
        assert_ne!(counter, BaselineVerdict::NonTerminating);
    }

    #[test]
    fn table_lineup_is_complete() {
        let baselines = table_baselines();
        assert_eq!(baselines.len(), 4);
        let names: Vec<&str> = baselines.iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"LoAT*"));
        assert!(names.contains(&"VeryMax*"));
    }
}
