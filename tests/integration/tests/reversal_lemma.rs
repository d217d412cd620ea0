//! Integration tests for the program-reversal construction (Section 3):
//! Lemma 3.3 and Theorem 3.5 checked against the concrete semantics.

use revterm_integration::build;
use revterm_num::{int, Int};
use revterm_ts::interp::{bounded_reach, relation_holds, Config, Valuation};
use revterm_ts::Assertion;

const COUNTER: &str = "n := 0; while n <= 3 do n := n + 1; od";

#[test]
fn reversal_swaps_every_relation_pairwise() {
    // For every transition relation ρ of T and every concrete pair (v, v')
    // with ρ(v, v'), the reversed relation ρ' satisfies ρ'(v', v) — and
    // vice versa (Definition 3.1).
    let ts = build("while x >= 9 do x := ndet(); y := 10 * x; while x <= y do x := x + 1; od od");
    let reversed = ts.reverse(Assertion::tautology());
    let values: Vec<i64> = vec![-1, 0, 8, 9, 10, 90];
    for t in ts.transitions() {
        let rev = reversed.transition(t.id);
        assert_eq!(rev.source, t.target);
        assert_eq!(rev.target, t.source);
        for &a in &values {
            for &b in &values {
                for &c in &values {
                    for &d in &values {
                        let src = Valuation(vec![Int::from(a), Int::from(b)]);
                        let dst = Valuation(vec![Int::from(c), Int::from(d)]);
                        let forward = relation_holds(&ts, &t.relation, &src, &dst);
                        let backward = relation_holds(&reversed, &rev.relation, &dst, &src);
                        assert_eq!(
                            forward, backward,
                            "transition t{} disagrees on ({a},{b}) -> ({c},{d})",
                            t.id
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn lemma_3_3_reachability_is_symmetric_under_reversal() {
    // Forward: collect everything reachable from (ℓ_init, n = 0) in T.
    let ts = build(COUNTER);
    let init = Config::new(ts.init_loc(), Valuation(vec![int(0)]));
    let forward = bounded_reach(&ts, std::slice::from_ref(&init), &[], 50, 500);
    let forward = forward.discovered();

    // The reversed system cannot be executed with the structured interpreter
    // (its transitions are unstructured), so we check Lemma 3.3 through the
    // relation level: for every configuration c' reached forward there is a
    // finite path, and replaying that path backwards step by step through the
    // reversed relations must be possible.  We verify the single-step core:
    // whenever c' is a successor of c in T, c is a successor of c' in the
    // reversed system.
    let reversed = ts.reverse(Assertion::tautology());
    for cfg in forward {
        for (tid, succ) in revterm_ts::interp::successors(&ts, cfg, &[]) {
            let rev = reversed.transition(tid);
            assert!(
                relation_holds(&reversed, &rev.relation, &succ.vals, &cfg.vals),
                "reversed step missing for t{tid}: {succ} -> {cfg}"
            );
        }
    }

    // And the headline consequence: the terminal configuration (ℓ_out, 4) is
    // reachable from the initial one, so ℓ_out "sees" the initial
    // configuration in the reversed system.
    assert!(forward.contains(&Config::new(ts.terminal_loc(), Valuation(vec![int(4)]))));
}

#[test]
fn theorem_3_5_inductiveness_transfers_to_the_complement() {
    use revterm_invgen::is_inductive;
    use revterm_poly::Poly;
    use revterm_solver::EntailmentOptions;
    use revterm_ts::{PredicateMap, PropPredicate};

    // I(ℓ) = (n >= 0) everywhere is inductive for the counter program; its
    // complement must be inductive for the reversed system (Theorem 3.5).
    let ts = build(COUNTER);
    let n = Poly::var(ts.vars().lookup("n").unwrap());
    let mut map = PredicateMap::tautology(ts.num_locs());
    for loc in ts.locations() {
        map.set(loc, PropPredicate::from_assertion(Assertion::ge_zero(n.clone())));
    }
    let opts = EntailmentOptions::default();
    assert!(is_inductive(&ts, &map, &opts, &[]).is_ok());
    let reversed = ts.reverse(Assertion::tautology());
    assert!(is_inductive(&reversed, &map.complement(), &opts, &[]).is_ok());

    // The converse direction: a map that is *not* inductive forward.  (Note
    // `n >= 1` would not do here: the leading `n := 0` is folded into
    // `Θ_init` by lowering, so `n >= 1` is consecution-inductive for the
    // loop-only system and merely fails initiation.  `n <= 2` is genuinely
    // broken by the increment at n = 2.)
    let mut bad = PredicateMap::tautology(ts.num_locs());
    for loc in ts.locations() {
        bad.set(loc, PropPredicate::from_assertion(Assertion::ge_zero(Poly::constant_i64(2) - &n)));
    }
    assert!(is_inductive(&ts, &bad, &opts, &[]).is_err());
}

#[test]
fn double_reversal_is_identity_on_relations() {
    for src in [
        COUNTER,
        "while x >= 9 do x := ndet(); y := 10 * x; while x <= y do x := x + 1; od od",
        "while x >= 0 do if * then x := x + 1; else x := x - 1; fi od",
    ] {
        let ts = build(src);
        let back = ts.reverse(Assertion::tautology()).reverse(ts.init_assertion().clone());
        assert_eq!(ts.init_loc(), back.init_loc());
        for (a, b) in ts.transitions().iter().zip(back.transitions()) {
            assert_eq!(a.source, b.source);
            assert_eq!(a.target, b.target);
            assert_eq!(
                a.relation, b.relation,
                "transition t{} changed under double reversal",
                a.id
            );
        }
    }
}
