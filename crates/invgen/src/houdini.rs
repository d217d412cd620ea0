//! Guess-and-check (Houdini-style) synthesis of inductive predicate maps.

use crate::atoms::{candidate_atoms, PoolCache, SampleSet, TemplateParams};
use crate::verify::{adaptive_opts, is_inductive};
use revterm_absint::{close_premises, PremiseClosure};
use revterm_poly::Poly;
use revterm_solver::{EntailmentCache, EntailmentOptions};
use revterm_ts::{Assertion, Loc, PredicateMap, PropPredicate, Transition, TransitionSystem};
use std::sync::Arc;
use std::time::Instant;

/// A cooperative work bound for one synthesis call.
///
/// A single Houdini run over a large candidate pool can issue hundreds of
/// thousands of entailment queries; callers that operate under a deadline or
/// an entailment-call cap (the prover's `Budget`) pass one of these, and the
/// fixpoint loop polls it before every entailment lookup, so it stops at the
/// cap instead of only after the fixpoint converges.  Both limits are
/// optional; [`unlimited`] bounds nothing.
///
/// [`unlimited`]: SynthesisBudget::unlimited
#[derive(Debug, Clone, Copy, Default)]
pub struct SynthesisBudget {
    /// Wall-clock cutoff.
    pub deadline: Option<Instant>,
    /// Absolute entailment-lookup count (on the shared [`EntailmentCache`])
    /// at which to stop — i.e. `lookups_at_arm_time + cap`, not a delta.
    pub entail_call_stop: Option<u64>,
}

impl SynthesisBudget {
    /// A budget that never fires.
    pub fn unlimited() -> SynthesisBudget {
        SynthesisBudget::default()
    }

    /// `true` once either limit is hit (checked against the entailment
    /// cache's current lookup counter).
    pub fn exhausted(&self, entail_lookups: u64) -> bool {
        if self.entail_call_stop.is_some_and(|stop| entail_lookups >= stop) {
            return true;
        }
        self.deadline.is_some_and(|deadline| Instant::now() >= deadline)
    }
}

/// Options controlling [`synthesize_invariant`].
#[derive(Debug, Clone)]
pub struct SynthesisOptions {
    /// Template parameters (the paper's `(c, d)` and `D`).
    pub params: TemplateParams,
    /// Entailment budget used for the consecution checks.
    pub entailment: EntailmentOptions,
    /// Require `Θ_init ⟹ I(ℓ_init)` (drop atoms at `ℓ_init` that are not
    /// implied by the initial assertion).  Disable this when the invariant
    /// only needs to contain a single concrete initial configuration that is
    /// already provided as a sample (Check 1).
    pub require_initiation: bool,
    /// A location forced to `false` in the result; transitions into and out
    /// of it are ignored by the synthesis (Check 1 forces `I(ℓ_out) = ∅` and
    /// verifies the incoming transitions separately).
    pub forced_false: Option<Loc>,
    /// Upper bound on the number of Houdini sweeps (a safety valve; the
    /// fixpoint is normally reached much earlier).
    pub max_iterations: usize,
}

impl Default for SynthesisOptions {
    fn default() -> Self {
        SynthesisOptions {
            params: TemplateParams::default(),
            entailment: EntailmentOptions::default(),
            require_initiation: true,
            forced_false: None,
            max_iterations: 64,
        }
    }
}

/// Synthesizes an inductive predicate map for a transition system by
/// candidate generation and Houdini-style weakening.
///
/// The result is inductive by construction once the fixpoint is reached
/// within `max_iterations` sweeps: every atom that some transition does not
/// preserve has been dropped.  A debug build re-verifies it with
/// [`is_inductive`] before returning it (a `debug_assert!`); a release build
/// does not, and relies on the fixpoint and on the core crate's certificate
/// check, which runs on every NO.  With
/// `require_initiation` it additionally satisfies `Θ_init ⟹ I(ℓ_init)`, so it
/// is a genuine invariant of the system.  Sample valuations known to belong
/// to the over-approximated set prune the candidate pool up front.
///
/// The candidate-pool artifacts come from a [`PoolCache`], every entailment
/// query is memoized in an [`EntailmentCache`] (whose misses warm-start
/// their LPs from bases it stores), and the work is bounded by a
/// [`SynthesisBudget`].  Both caches are pure memo tables, so the predicate
/// map is bitwise identical whichever caches are passed; the pool cache must
/// belong to `ts`, while the entailment cache is keyed purely on polynomials
/// and may be shared across systems.  The session-centric prover API threads
/// long-lived caches through here so that configuration sweeps discharge
/// each recurring consecution obligation once; a one-off caller passes
/// fresh caches and [`SynthesisBudget::unlimited`].
///
/// Returns `None` as soon as the budget fires.  It is polled before the
/// initiation pruning, before each transition batch and before every
/// entailment lookup, so a synthesis stopped by its `entail_call_stop`
/// makes no lookup past it.  A `None` result is a *cut-short* computation,
/// not a fixpoint: callers must not cache it or treat it as an invariant.
pub fn synthesize_invariant(
    ts: &TransitionSystem,
    samples: &SampleSet,
    options: &SynthesisOptions,
    pool: &mut PoolCache,
    entail: &mut EntailmentCache,
    budget: &SynthesisBudget,
) -> Option<PredicateMap> {
    let mut atom_sets: Vec<Vec<Poly>> = ts
        .locations()
        .map(|loc| {
            if Some(loc) == options.forced_false {
                Vec::new()
            } else {
                candidate_atoms(ts, loc, samples, &options.params, pool)
            }
        })
        .collect();

    // Interval fast path: a "yes" from the premise closure is always a
    // nonnegative combination of single premises, which the multiplier LP
    // can express under this gate, so skipping the LP cannot flip an answer.
    let fast = options.entailment.closure_fast_path();

    // Initiation pruning: atoms at ℓ_init must follow from Θ_init.
    if budget.exhausted(entail.lookups) {
        return None;
    }
    if options.require_initiation {
        let theta: Arc<[Poly]> = ts.init_assertion().atoms().to_vec().into();
        let theta_closure = if fast { Some(close_premises(theta.iter())) } else { None };
        let init = ts.init_loc();
        let mut kept = Vec::with_capacity(atom_sets[init.0].len());
        for atom in std::mem::take(&mut atom_sets[init.0]) {
            // A closure contradiction is a Farkas proof of `-1 >= 0`, so the
            // `implies_false` query below is already known to hold.
            if let Some(cl) = &theta_closure {
                if cl.entails(&atom) || cl.is_contradiction() {
                    entail.record_fast_path();
                    kept.push(atom);
                    continue;
                }
            }
            if budget.exhausted(entail.lookups) {
                return None;
            }
            if entail.entails(&theta, &atom, &options.entailment) {
                kept.push(atom);
                continue;
            }
            if budget.exhausted(entail.lookups) {
                return None;
            }
            if entail.implies_false(&theta, &options.entailment) {
                kept.push(atom);
            }
        }
        atom_sets[init.0] = kept;
    }

    // Houdini fixpoint: drop atoms that are not preserved by some transition.
    // Candidates are non-constant and range over unprimed variables, so a
    // primed candidate holds a primed variable: it can be one of the
    // transition's relation atoms verbatim but never a source atom, and the
    // verbatim check below scans the relation alone.
    debug_assert!(
        atom_sets.iter().flatten().all(|atom| {
            !atom.is_constant() && atom.vars().iter().all(|v| ts.vars().is_unprimed(*v))
        }),
        "candidate atoms must be non-constant and range over unprimed variables"
    );
    // The unprimed → primed rename is a fixed map of the system, and the
    // fixpoint only ever *removes* atoms, so each atom's primed form is
    // computed once here and carried through the sweeps in a parallel list
    // instead of being re-renamed per transition per iteration.
    let vars = ts.vars();
    let mut primed_sets: Vec<Vec<Poly>> = atom_sets
        .iter()
        .map(|set| set.iter().map(|atom| vars.prime_poly(atom)).collect())
        .collect();
    // A transition's premises are its source's atoms followed by its relation
    // atoms, so they change only when the source's atom set shrinks.
    // `versions` counts those shrinks per location; each transition keeps its
    // premises, tagged with the count they were built at, until the next one.
    let mut versions = vec![0_u64; ts.num_locs()];
    let mut cached: Vec<Option<TransitionPremises>> =
        ts.transitions().iter().map(|_| None).collect();
    let skip = |loc: Loc| Some(loc) == options.forced_false;
    for _ in 0..options.max_iterations {
        let mut changed = false;
        for (t, slot) in ts.transitions().iter().zip(&mut cached) {
            if budget.exhausted(entail.lookups) {
                return None;
            }
            if skip(t.source) || skip(t.target) {
                continue;
            }
            if atom_sets[t.target.0].is_empty() {
                continue;
            }
            let source = &atom_sets[t.source.0];
            let version = versions[t.source.0];
            let premises = match slot {
                Some(p) if p.version == version => p,
                _ => slot.insert(TransitionPremises {
                    version,
                    closure: fast.then(|| close_premises(source.iter().chain(t.relation.atoms()))),
                    shared: None,
                }),
            };
            // A closure contradiction is a Farkas proof that the premises are
            // unsatisfiable, so this transition can never force a drop: with
            // the unsat fallback every obligation answers true, and without
            // it the `implies_false` veto below would fire (its LP is
            // feasible by the very same derivation).  Skip the batch.
            if premises.closure.as_ref().is_some_and(PremiseClosure::is_contradiction) {
                entail.record_fast_path();
                continue;
            }
            let target = t.target.0;
            let before = atom_sets[target].len();
            let mut kept = Vec::with_capacity(before);
            for (i, primed) in primed_sets[target].iter().enumerate() {
                if t.relation.atoms().contains(primed) {
                    kept.push(i);
                    continue;
                }
                if premises.closure.as_ref().is_some_and(|cl| cl.entails(primed)) {
                    entail.record_fast_path();
                    kept.push(i);
                    continue;
                }
                if budget.exhausted(entail.lookups) {
                    return None;
                }
                let shared = premises.shared(source, t);
                let opts = adaptive_opts(shared, primed.total_degree(), &options.entailment);
                if entail.entails(shared, primed, &opts) {
                    kept.push(i);
                }
            }
            if kept.len() != before {
                // Check unsatisfiability once before committing to a drop: if
                // the premises are contradictory the obligations hold anyway.
                if budget.exhausted(entail.lookups) {
                    return None;
                }
                let shared = premises.shared(source, t);
                if entail.implies_false(shared, &adaptive_opts(shared, 0, &options.entailment)) {
                    continue;
                }
                atom_sets[target] = kept.iter().map(|&i| atom_sets[target][i].clone()).collect();
                primed_sets[target] =
                    kept.iter().map(|&i| primed_sets[target][i].clone()).collect();
                versions[target] += 1;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut map = PredicateMap::unsatisfiable(ts.num_locs());
    for loc in ts.locations() {
        if Some(loc) == options.forced_false {
            map.set(loc, PropPredicate::unsatisfiable());
        } else {
            map.set(
                loc,
                PropPredicate::from_assertion(Assertion::from_polys(atom_sets[loc.0].clone())),
            );
        }
    }
    debug_assert!(
        {
            let skipped: Vec<usize> = ts
                .transitions()
                .iter()
                .filter(|t| skip(t.source) || skip(t.target))
                .map(|t| t.id)
                .collect();
            is_inductive(ts, &map, &options.entailment, &skipped).is_ok()
        },
        "houdini result must be inductive"
    );
    Some(map)
}

/// One transition's premises (its source's atoms, then its relation atoms)
/// as the Houdini loop keeps them across sweeps while the source's atom set
/// stays the same.
#[derive(Debug)]
struct TransitionPremises {
    /// The source's shrink count the premises were taken at.
    version: u64,
    /// Their interval closure, when the fast path is on.
    closure: Option<PremiseClosure>,
    /// The premises as one allocation, built by [`Self::shared`].
    shared: Option<Arc<[Poly]>>,
}

impl TransitionPremises {
    /// The premises as one allocation, built on the first entailment query
    /// or `implies_false` veto that needs them: building and keeping every
    /// transition's set raised the peak memory of cold fuzz batches by about
    /// 30 %.  A query this set misses stores this `Arc` in the entailment
    /// cache, which compares by `Arc::ptr_eq` first, so the same query in a
    /// later sweep skips the deep compare.
    fn shared(&mut self, source: &[Poly], t: &Transition) -> &Arc<[Poly]> {
        self.shared
            .get_or_insert_with(|| source.iter().chain(t.relation.atoms()).cloned().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::predicate_entails;
    use revterm_lang::parse_program;
    use revterm_num::int;
    use revterm_poly::Var;
    use revterm_ts::interp::Valuation;
    use revterm_ts::{lower, Resolution, TransitionKind, VarTable};

    const RUNNING: &str =
        "while x >= 9 do x := ndet(); y := 10 * x; while x <= y do x := x + 1; od od";

    /// [`synthesize_invariant`] on fresh caches with an unlimited budget.
    fn synthesize(
        ts: &TransitionSystem,
        samples: &SampleSet,
        options: &SynthesisOptions,
    ) -> PredicateMap {
        let (mut pool, mut entail) = (PoolCache::new(), EntailmentCache::new());
        synthesize_invariant(
            ts,
            samples,
            options,
            &mut pool,
            &mut entail,
            &SynthesisBudget::unlimited(),
        )
        .expect("an unlimited synthesis budget cannot be exhausted")
    }

    /// Whether every disjunct of `map` at `loc` entails `fact ≥ 0`.
    fn invariant_implies_at(
        map: &PredicateMap,
        loc: Loc,
        fact: &Poly,
        opts: &EntailmentOptions,
    ) -> bool {
        let fact = PropPredicate::from_assertion(Assertion::ge_zero(fact.clone()));
        map.at(loc).disjuncts().iter().all(|d| predicate_entails(d.atoms(), &fact, opts))
    }

    #[test]
    fn forward_invariant_of_simple_counter() {
        // n := 0; while n <= 5 do n := n + 1; od
        // Expected invariant fact: n >= 0 at every reachable location.
        let ts = lower(&parse_program("n := 0; while n <= 5 do n := n + 1; od").unwrap()).unwrap();
        let mut samples = SampleSet::new();
        samples.add(ts.init_loc(), Valuation::from_i64s(&[0]));
        let options = SynthesisOptions::default();
        let map = synthesize(&ts, &samples, &options);
        // The map is inductive and initiation holds.
        assert!(is_inductive(&ts, &map, &options.entailment, &[]).is_ok());
        assert!(crate::initiation_holds(&ts, &map, &options.entailment));
        // It implies n >= 0 at the loop head.
        let n = Poly::var(Var(0));
        assert!(invariant_implies_at(&map, ts.init_loc(), &n, &options.entailment));
        // And n <= 6 at the terminal location (the loop exits with n = 6).
        let bound = Poly::constant_i64(6) - &n;
        assert!(invariant_implies_at(&map, ts.terminal_loc(), &bound, &options.entailment));
    }

    #[test]
    fn check1_style_invariant_for_running_example() {
        // Example 5.4: restrict x := ndet() to x := 9; from the initial
        // configuration (x, y) = (9, 0) the invariant x >= 9 holds everywhere
        // and ℓ_out is unreachable.
        let ts = lower(&parse_program(RUNNING).unwrap()).unwrap();
        let ndet_id = ts.ndet_transitions().next().unwrap().id;
        let restricted = ts.restrict(&Resolution::from_pairs([(ndet_id, Poly::constant_i64(9))]));

        // Samples: run the (now deterministic) system from (9, 0).
        let mut samples = SampleSet::new();
        let start =
            revterm_ts::interp::Config::new(restricted.init_loc(), Valuation::from_i64s(&[9, 0]));
        for cfg in revterm_ts::interp::run(&restricted, &start, &|_, _| int(0), 60) {
            samples.add(cfg.loc, cfg.vals);
        }

        let options = SynthesisOptions {
            require_initiation: false,
            forced_false: Some(restricted.terminal_loc()),
            ..SynthesisOptions::default()
        };
        let map = synthesize(&restricted, &samples, &options);

        // The invariant entails x >= 9 at the outer loop head.
        let x = Poly::var(Var(0));
        assert!(invariant_implies_at(
            &map,
            restricted.init_loc(),
            &(&x - &Poly::constant_i64(9)),
            &options.entailment
        ));
        // ℓ_out is forced to false and every transition into it has an
        // unsatisfiable premise under the invariant — the Check 1 success
        // condition.
        assert!(map.at(restricted.terminal_loc()).is_empty());
        for t in restricted.transitions_to(restricted.terminal_loc()) {
            if t.source == restricted.terminal_loc() {
                continue;
            }
            let mut premises: Vec<Poly> = map.at(t.source).disjuncts()[0].atoms().to_vec();
            premises.extend(t.relation.atoms().iter().cloned());
            assert!(
                revterm_solver::implies_false(&premises, &options.entailment),
                "transition t{} into ℓ_out should be blocked by the invariant",
                t.id
            );
        }
    }

    #[test]
    fn initiation_pruning_respects_theta() {
        // Θ_init is x = 5; candidate atoms x >= 9 must be pruned at ℓ_init even
        // though no sample is provided.
        let ts = lower(&parse_program("x := 5; while x >= 0 do x := x - 1; od").unwrap()).unwrap();
        let options = SynthesisOptions::default();
        let map = synthesize(&ts, &SampleSet::new(), &options);
        assert!(crate::initiation_holds(&ts, &map, &options.entailment));
        assert!(is_inductive(&ts, &map, &options.entailment, &[]).is_ok());
        // x <= 5 is an invariant of this program and should be implied at the
        // loop head.
        let x = Poly::var(Var(0));
        assert!(invariant_implies_at(
            &map,
            ts.init_loc(),
            &(Poly::constant_i64(5) - &x),
            &options.entailment
        ));
    }

    #[test]
    fn a_source_that_shrinks_mid_sweep_re_closes_its_outgoing_premises() {
        // Locations a (initial), b and c over one variable x.  In visit order,
        // t0: a → b and t1: b → c copy x, and t2: a → a decrements it.  With
        // the sample x = 5 everywhere, every location starts with x ≥ 5.  The
        // first sweep closes t1's premises while b still has x ≥ 5, then t2
        // drops x ≥ 5 at a.  The second sweep drops x ≥ 5 at b (t0) before it
        // visits t1, whose first-sweep closure would still prove x' ≥ 5 and
        // so keep x ≥ 5 at c.
        let vars = VarTable::new(vec!["x".into()]);
        let x = Poly::var(vars.unprimed(0));
        let x_next = Poly::var(vars.primed(0));
        let one = Poly::constant_i64(1);
        let copy = Assertion::from_polys([&x_next - &x, &x - &x_next]);
        let decrement = Assertion::from_polys([&(&x_next - &x) + &one, &(&x - &x_next) - &one]);
        let transition = |id, source, target, relation| Transition {
            id,
            source: Loc(source),
            target: Loc(target),
            relation,
            kind: TransitionKind::General,
        };
        let five = Poly::constant_i64(5);
        let ts = TransitionSystem::new(
            vars,
            vec!["a".into(), "b".into(), "c".into()],
            Loc(0),
            Assertion::from_polys([&x - &five, &five - &x]),
            Loc(2),
            vec![
                transition(0, 0, 1, copy.clone()),
                transition(1, 1, 2, copy),
                transition(2, 0, 0, decrement),
            ],
        );
        let mut samples = SampleSet::new();
        for loc in ts.locations() {
            samples.add(loc, Valuation::from_i64s(&[5]));
        }
        let options = SynthesisOptions::default();
        let at_least_five = &x - &five;
        let c = Loc(2);
        let pool = candidate_atoms(&ts, c, &samples, &options.params, &mut PoolCache::new());
        assert!(pool.contains(&at_least_five));
        let map = synthesize(&ts, &samples, &options);
        assert!(!map.at(c).disjuncts()[0].atoms().contains(&at_least_five));
        assert!(is_inductive(&ts, &map, &options.entailment, &[]).is_ok());
    }

    #[test]
    fn the_entailment_cap_is_a_hard_bound_that_cuts_nothing_that_fits() {
        // The running example with samples from one run: `Θ_init` is true,
        // so initiation asks both its queries of every atom at ℓ_init, and
        // the fixpoint drops atoms over several batches. Check 1's options
        // skip initiation and force ℓ_out to false.
        let ts = lower(&parse_program(RUNNING).unwrap()).unwrap();
        let mut samples = SampleSet::new();
        let start = revterm_ts::interp::Config::new(ts.init_loc(), Valuation::from_i64s(&[9, 0]));
        for cfg in revterm_ts::interp::run(&ts, &start, &|_, _| int(9), 40) {
            samples.add(cfg.loc, cfg.vals);
        }
        let check1 = SynthesisOptions {
            require_initiation: false,
            forced_false: Some(ts.terminal_loc()),
            ..SynthesisOptions::default()
        };
        for options in [SynthesisOptions::default(), check1] {
            let run = |stop: Option<u64>| {
                let (mut pool, mut entail) = (PoolCache::new(), EntailmentCache::new());
                let budget =
                    SynthesisBudget { entail_call_stop: stop, ..SynthesisBudget::default() };
                let map =
                    synthesize_invariant(&ts, &samples, &options, &mut pool, &mut entail, &budget);
                (map, entail.lookups)
            };
            let (uncapped, n) = run(None);
            let uncapped = uncapped.expect("an unlimited synthesis budget cannot be exhausted");
            assert!(n >= 20, "{n} lookups");
            for k in 0..n {
                let (map, lookups) = run(Some(k));
                assert!(map.is_none(), "a stop at {k} of {n} lookups did not cut");
                assert!(lookups <= k, "{lookups} lookups under a stop at {k}");
            }
            for k in [n + 1, n + 2, u64::MAX] {
                assert_eq!(run(Some(k)), (Some(uncapped.clone()), n), "a stop at {k}");
            }
        }
    }

    #[test]
    fn unreachable_terminal_in_trivial_infinite_loop() {
        // while true do skip; od — ℓ_out is unreachable; with forced_false the
        // synthesis succeeds trivially and the incoming-transition check holds
        // because there are no transitions into ℓ_out at all.
        let ts = lower(&parse_program("while true do skip; od").unwrap()).unwrap();
        assert_eq!(
            ts.transitions_to(ts.terminal_loc()).filter(|t| t.source != ts.terminal_loc()).count(),
            0
        );
        let options = SynthesisOptions {
            require_initiation: false,
            forced_false: Some(ts.terminal_loc()),
            ..SynthesisOptions::default()
        };
        let map = synthesize(&ts, &SampleSet::new(), &options);
        assert!(map.at(ts.terminal_loc()).is_empty());
    }
}
