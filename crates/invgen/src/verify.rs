//! Exact verification of invariance conditions.
//!
//! [`discharge_consecution`] is the one enumeration of a predicate map's
//! consecution obligations. [`is_inductive`] answers them with
//! [`predicate_entails`] inside the synthesis loop; the core crate's
//! certificate validation answers them twice — once generating each
//! obligation's [`Discharge`] with the LP-backed oracle
//! ([`discharge_predicate`]), once re-checking that evidence without an LP
//! ([`Discharge::certifies`]).

use revterm_poly::Poly;
use revterm_solver::{
    entails_with_witness, implies_false_with_witness, Combination, EntailmentOptions,
};
use revterm_ts::{PredicateMap, PropPredicate, Transition, TransitionSystem};
use std::fmt;

/// A witness that a predicate map is not inductive: the transition and the
/// source disjunct for which the consecution check failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InductivenessViolation {
    /// Id of the offending transition.
    pub transition_id: usize,
    /// Index of the source disjunct whose successors are not covered.
    pub disjunct_index: usize,
}

impl fmt::Display for InductivenessViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "consecution fails for transition t{} from disjunct {}",
            self.transition_id, self.disjunct_index
        )
    }
}

/// Chooses entailment options adequate for the degrees involved: purely
/// linear obligations use plain Farkas (fast), anything non-linear uses the
/// configured Handelman budget.
///
/// Farkas' lemma is complete for linear systems, so linearizing an all-linear
/// query never changes its answer, only the size of its LP.
pub(crate) fn adaptive_opts(
    premises: &[Poly],
    conclusion_degree: u32,
    base: &EntailmentOptions,
) -> EntailmentOptions {
    let max_premise_degree = premises.iter().map(|p| p.total_degree()).max().unwrap_or(0);
    if max_premise_degree <= 1 && conclusion_degree <= 1 {
        // Restrict only the product budget; non-budget fields (unsat
        // fallback, the LP-engine selector) keep the caller's values.
        base.linearized()
    } else {
        base.clone()
    }
}

/// How one atom of a disjunct follows from the premises.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AtomProof {
    /// The atom is premise `i`, verbatim.
    Premise(usize),
    /// A combination of premise products summing to the atom (or to `−1`).
    Farkas(Combination),
}

/// The evidence that premises entail a propositional predicate, as
/// [`discharge_predicate`] finds it. [`Discharge::certifies`] re-checks it
/// with `Poly`/`Rat` arithmetic alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Discharge {
    /// Every atom of disjunct `index` of the predicate follows.
    Disjunct {
        /// Which disjunct.
        index: usize,
        /// One proof per atom of the disjunct, in atom order.
        atoms: Vec<AtomProof>,
    },
    /// The premises are unsatisfiable: a combination summing to `−1`.
    Unsat(Combination),
}

impl Discharge {
    /// Checks, without an LP, that this evidence proves that `premises`
    /// entail `predicate`.
    pub fn certifies(&self, premises: &[Poly], predicate: &PropPredicate) -> bool {
        match self {
            Discharge::Disjunct { index, atoms } => {
                let Some(disjunct) = predicate.disjuncts().get(*index) else { return false };
                disjunct.atoms().len() == atoms.len()
                    && disjunct.atoms().iter().zip(atoms).all(|(atom, proof)| match proof {
                        AtomProof::Premise(i) => premises.get(*i) == Some(atom),
                        AtomProof::Farkas(combination) => combination.certifies(premises, atom),
                    })
            }
            Discharge::Unsat(combination) => {
                combination.certifies(premises, &Poly::constant_i64(-1))
            }
        }
    }
}

/// Discharges `premises ⟹ predicate`: the first disjunct all of whose atoms
/// follow (an atom that is itself a premise needs no LP), else a refutation
/// of the premises — unsatisfiable premises entail anything, including the
/// empty predicate. Returns the evidence, or `None` if neither is found.
pub fn discharge_predicate(
    premises: &[Poly],
    predicate: &PropPredicate,
    opts: &EntailmentOptions,
) -> Option<Discharge> {
    'disjuncts: for (index, disjunct) in predicate.disjuncts().iter().enumerate() {
        let mut atoms = Vec::with_capacity(disjunct.atoms().len());
        for atom in disjunct.atoms() {
            let proof = match premises.iter().position(|p| p == atom) {
                Some(i) => AtomProof::Premise(i),
                None => {
                    let opts = adaptive_opts(premises, atom.total_degree(), opts);
                    match entails_with_witness(premises, atom, &opts) {
                        Some(combination) => AtomProof::Farkas(combination),
                        None => continue 'disjuncts,
                    }
                }
            };
            atoms.push(proof);
        }
        return Some(Discharge::Disjunct { index, atoms });
    }
    implies_false_with_witness(premises, &adaptive_opts(premises, 1, opts)).map(Discharge::Unsat)
}

/// Checks whether the premises entail a propositional predicate, i.e. entail
/// *some* disjunct of it (or are unsatisfiable).
pub fn predicate_entails(
    premises: &[Poly],
    predicate: &PropPredicate,
    opts: &EntailmentOptions,
) -> bool {
    discharge_predicate(premises, predicate, opts).is_some()
}

/// Runs `discharge` on the consecution obligations of `map` over the
/// transitions of `ts` that `include` selects, and returns the first one it
/// rejects.
///
/// For a transition `(ℓ, ℓ', ρ)` and a disjunct `A` of `I(ℓ)`, the
/// obligation is that the premises `A(x) ∧ ρ(x, x')` entail `I(ℓ')(x')`.
/// Obligations come in transition order, then disjunct order, and each one's
/// premises are built only when its turn comes. A location whose predicate
/// is `false` (no disjuncts) imposes no obligations from itself.
pub fn discharge_consecution(
    ts: &TransitionSystem,
    map: &PredicateMap,
    include: impl Fn(&Transition) -> bool,
    mut discharge: impl FnMut(&[Poly], &PropPredicate) -> bool,
) -> Result<(), InductivenessViolation> {
    for t in ts.transitions() {
        let disjuncts = map.at(t.source).disjuncts();
        if disjuncts.is_empty() || !include(t) {
            continue;
        }
        let target_pred_primed = map.at(t.target).rename(&|v| ts.vars().prime(v));
        for (j, disjunct) in disjuncts.iter().enumerate() {
            let mut premises: Vec<Poly> = disjunct.atoms().to_vec();
            premises.extend(t.relation.atoms().iter().cloned());
            if !discharge(&premises, &target_pred_primed) {
                return Err(InductivenessViolation { transition_id: t.id, disjunct_index: j });
            }
        }
    }
    Ok(())
}

/// Checks that a predicate map is inductive for a transition system
/// (Section 2): for every transition `(ℓ, ℓ', ρ)` and every disjunct `A` of
/// `I(ℓ)`, the premises `A(x) ∧ ρ(x, x')` entail `I(ℓ')(x')`.
///
/// Returns the first violation found, or `Ok(())` if the map is inductive.
/// Transitions whose id is in `skip_transitions` are not checked (used by
/// the Houdini loop, whose forced-`false` location is handled separately).
pub fn is_inductive(
    ts: &TransitionSystem,
    map: &PredicateMap,
    opts: &EntailmentOptions,
    skip_transitions: &[usize],
) -> Result<(), InductivenessViolation> {
    discharge_consecution(
        ts,
        map,
        |t| !skip_transitions.contains(&t.id),
        |premises, target| predicate_entails(premises, target, opts),
    )
}

/// Checks the initiation condition: `Θ_init ⟹ I(ℓ_init)`.
pub fn initiation_holds(
    ts: &TransitionSystem,
    map: &PredicateMap,
    opts: &EntailmentOptions,
) -> bool {
    let premises: Vec<Poly> = ts.init_assertion().atoms().to_vec();
    predicate_entails(&premises, map.at(ts.init_loc()), opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use revterm_lang::parse_program;
    use revterm_poly::Var;
    use revterm_ts::{lower, Assertion, Loc, Resolution};

    const RUNNING: &str =
        "while x >= 9 do x := ndet(); y := 10 * x; while x <= y do x := x + 1; od od";

    fn x() -> Poly {
        Poly::var(Var(0))
    }

    #[test]
    fn predicate_entailment_with_disjunctions() {
        let opts = EntailmentOptions::default();
        // x >= 5  entails  (x >= 0) \/ (x <= -10).
        let pred = PropPredicate::from_disjuncts([
            Assertion::ge_zero(x()),
            Assertion::ge_zero(-x() - Poly::constant_i64(10)),
        ]);
        assert!(predicate_entails(&[x() - Poly::constant_i64(5)], &pred, &opts));
        // x >= -3 entails neither disjunct.
        assert!(!predicate_entails(&[x() + Poly::constant_i64(3)], &pred, &opts));
        // Unsatisfiable premises entail even the empty predicate.
        let unsat = vec![x(), -x() - Poly::constant_i64(1)];
        assert!(predicate_entails(&unsat, &PropPredicate::unsatisfiable(), &opts));
        // Satisfiable premises never entail the empty predicate.
        assert!(!predicate_entails(&[x()], &PropPredicate::unsatisfiable(), &opts));
    }

    #[test]
    fn discharges_certify_exactly_their_predicate() {
        let opts = EntailmentOptions::default();
        // x >= 5 entails (x >= 0) \/ (x <= -10) through its first disjunct.
        let pred = PropPredicate::from_disjuncts([
            Assertion::ge_zero(x()),
            Assertion::ge_zero(-x() - Poly::constant_i64(10)),
        ]);
        let premises = [x() - Poly::constant_i64(5)];
        let discharge = discharge_predicate(&premises, &pred, &opts).unwrap();
        assert!(matches!(discharge, Discharge::Disjunct { index: 0, .. }));
        assert!(discharge.certifies(&premises, &pred));
        // The same atom proofs do not certify the other disjunct.
        let Discharge::Disjunct { atoms, .. } = discharge else { unreachable!() };
        let swapped = Discharge::Disjunct { index: 1, atoms };
        assert!(!swapped.certifies(&premises, &pred));
        // A verbatim premise needs no multipliers, but must be the right one.
        let verbatim = PropPredicate::from_assertion(Assertion::ge_zero(premises[0].clone()));
        let by_premise = discharge_predicate(&premises, &verbatim, &opts).unwrap();
        assert_eq!(
            by_premise,
            Discharge::Disjunct { index: 0, atoms: vec![AtomProof::Premise(0)] }
        );
        let wrong_premise = Discharge::Disjunct { index: 0, atoms: vec![AtomProof::Premise(1)] };
        assert!(!wrong_premise.certifies(&premises, &verbatim));
    }

    #[test]
    fn linear_premises_are_refuted_at_the_linear_budget() {
        // The empty predicate is discharged only by refuting the premises;
        // all-linear premises are refuted by plain Farkas even under the
        // default degree-4 budget, which cannot change the answer.
        let opts = EntailmentOptions::default();
        let premises = [x() - Poly::constant_i64(3), -x()];
        let linear = implies_false_with_witness(&premises, &opts.linearized()).unwrap();
        assert_eq!(
            discharge_predicate(&premises, &PropPredicate::unsatisfiable(), &opts),
            Some(Discharge::Unsat(linear))
        );
        // A nonlinear premise keeps the configured budget.
        let squared = [&x() * &x() + Poly::one(), -(&x() * &x()) - Poly::constant_i64(2)];
        let full = implies_false_with_witness(&squared, &opts).unwrap();
        assert_eq!(
            discharge_predicate(&squared, &PropPredicate::unsatisfiable(), &opts),
            Some(Discharge::Unsat(full))
        );
    }

    /// Builds the predicate map of Example 5.4: I(ℓ) = (x ≥ 9) everywhere
    /// except I(ℓ_out) = ∅, for the running example restricted by x := 9.
    fn example_54() -> (TransitionSystem, PredicateMap) {
        let ts = lower(&parse_program(RUNNING).unwrap()).unwrap();
        let ndet_id = ts.ndet_transitions().next().unwrap().id;
        let restricted = ts.restrict(&Resolution::from_pairs([(ndet_id, Poly::constant_i64(9))]));
        let mut map = PredicateMap::tautology(restricted.num_locs());
        for loc in restricted.locations() {
            if loc == restricted.terminal_loc() {
                map.set(loc, PropPredicate::unsatisfiable());
            } else {
                map.set(
                    loc,
                    PropPredicate::from_assertion(Assertion::ge_zero(x() - Poly::constant_i64(9))),
                );
            }
        }
        (restricted, map)
    }

    #[test]
    fn example_54_invariant_is_inductive() {
        let (restricted, map) = example_54();
        let opts = EntailmentOptions::default();
        // The map is inductive for the restricted system: x >= 9 is preserved
        // by every transition (x := 9 keeps it, x := x + 1 keeps it, guards
        // keep x unchanged), and the transition into ℓ_out has an
        // unsatisfiable premise (x >= 9 together with the exit guard x < 9).
        assert_eq!(is_inductive(&restricted, &map, &opts, &[]), Ok(()));
    }

    #[test]
    fn wrong_invariant_is_rejected() {
        let (restricted, _) = example_54();
        let opts = EntailmentOptions::default();
        // Claiming x >= 10 everywhere is NOT inductive: the resolved
        // assignment x := 9 breaks it.
        let mut bad = PredicateMap::tautology(restricted.num_locs());
        for loc in restricted.locations() {
            bad.set(
                loc,
                PropPredicate::from_assertion(Assertion::ge_zero(x() - Poly::constant_i64(10))),
            );
        }
        let violation = is_inductive(&restricted, &bad, &opts, &[]).unwrap_err();
        let t = restricted.transition(violation.transition_id);
        assert!(matches!(t.kind, revterm_ts::TransitionKind::Assign { var: 0, .. }));
    }

    #[test]
    fn skipping_transitions_is_honoured() {
        let (restricted, _) = example_54();
        let opts = EntailmentOptions::default();
        // The trivially-true map is NOT inductive towards ℓ_out if we demand
        // I(ℓ_out) = false ... but skipping the offending transitions makes the
        // check pass.
        let mut map = PredicateMap::tautology(restricted.num_locs());
        map.set(restricted.terminal_loc(), PropPredicate::unsatisfiable());
        let violation = is_inductive(&restricted, &map, &opts, &[]).unwrap_err();
        let into_terminal: Vec<usize> =
            restricted.transitions_to(restricted.terminal_loc()).map(|t| t.id).collect();
        assert!(into_terminal.contains(&violation.transition_id));
        assert_eq!(is_inductive(&restricted, &map, &opts, &into_terminal), Ok(()));
    }

    #[test]
    fn initiation() {
        let ts = lower(&parse_program("n := 0; while n <= 5 do n := n + 1; od").unwrap()).unwrap();
        let opts = EntailmentOptions::default();
        let n = Poly::var(ts.vars().lookup("n").unwrap());
        // n >= 0 at every location: initiation holds (Θ_init is n = 0).
        let mut map = PredicateMap::tautology(ts.num_locs());
        for loc in ts.locations() {
            map.set(loc, PropPredicate::from_assertion(Assertion::ge_zero(n.clone())));
        }
        assert!(initiation_holds(&ts, &map, &opts));
        // n >= 1 at ℓ_init: initiation fails.
        let mut bad = map.clone();
        bad.set(
            Loc(ts.init_loc().0),
            PropPredicate::from_assertion(Assertion::ge_zero(n - Poly::one())),
        );
        assert!(!initiation_holds(&ts, &bad, &opts));
    }
}
