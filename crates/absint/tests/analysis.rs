//! Widening termination and soundness of the interval fixpoint.

use revterm_absint::{analyze, diagnostics};
use revterm_lang::parse_program;
use revterm_num::Int;
use revterm_ts::interp::{bounded_reach, is_initial_valuation, Config, Valuation};
use revterm_ts::{lower, TransitionSystem};

/// The paper's Fig. 1 running example (same text as the suite constant).
const RUNNING_EXAMPLE: &str =
    "while x >= 9 do x := ndet(); y := 10 * x; while x <= y do x := x + 1; od od";

fn system(src: &str) -> TransitionSystem {
    lower(&parse_program(src).expect("parse")).expect("lower")
}

/// Every concrete configuration reachable from `seeds` must be inside the
/// abstract envelope of its location.
fn assert_sound(ts: &TransitionSystem, seeds: &[Vec<i64>], ndet_values: &[i64]) {
    let state = analyze(ts);
    // Leading constant assignments are folded into the init assertion by
    // the lowering, so not every seed is a legal initial state.
    let initial: Vec<Config> = seeds
        .iter()
        .map(|vals| Valuation::from_i64s(vals))
        .filter(|vals| is_initial_valuation(ts, vals))
        .map(|vals| Config::new(ts.init_loc(), vals))
        .collect();
    assert!(!initial.is_empty(), "no seed satisfies the init assertion");
    let ndet: Vec<Int> = ndet_values.iter().map(|&v| Int::from(v)).collect();
    let reached = bounded_reach(ts, &initial, &ndet, 40, 4000);
    let reached = reached.discovered();
    assert!(!reached.is_empty(), "bounded_reach explored nothing");
    for config in reached {
        assert!(
            state.contains_config(config),
            "abstract state does not cover concrete config at {}",
            ts.loc_name(config.loc)
        );
    }
}

#[test]
fn widening_terminates_on_the_running_example() {
    let ts = system(RUNNING_EXAMPLE);
    // Termination of `analyze` on the nested-loop, nondeterministic system
    // is the point of this test; the assertions below are sanity on top.
    let state = analyze(&ts);
    assert!(state.is_reachable(ts.init_loc()));
    // x = 5 exits the outer loop immediately, so the terminal is reachable
    // and the analysis must not claim otherwise.
    assert!(!state.terminal_unreachable(&ts));
    assert_sound(&ts, &[vec![10, 0], vec![5, 0], vec![9, 100]], &[-3, 9, 11]);
}

#[test]
fn widening_terminates_on_an_unbounded_counter() {
    // The counter diverges for every initial value; widening must still
    // reach a (top) fixpoint instead of enumerating [0,1], [0,2], ...
    let ts = system("while x >= 0 do x := x + 1; od");
    let state = analyze(&ts);
    assert!(state.is_reachable(ts.init_loc()));
    assert_sound(&ts, &[vec![0], vec![7], vec![-2]], &[]);
}

#[test]
fn pinned_counter_proves_the_terminal_unreachable() {
    // After `x := 5` the loop guard `x >= 0` only ever sees x in [5, +inf):
    // the exit guard `x <= -1` can never fire, and the analysis proves it.
    let ts = system("x := 5; while x >= 0 do x := x + 1; od");
    let state = analyze(&ts);
    assert!(state.terminal_unreachable(&ts));
    let diag = diagnostics(&ts, &state);
    assert!(
        diag.unreachable_locs.contains(&ts.terminal_loc()),
        "diagnostics must report the unreachable terminal"
    );
}

#[test]
fn constants_and_unused_vars_are_reported() {
    // `z` is mentioned nowhere; `c` is pinned to 3 at every location it is
    // live (it is assigned once before the loop and never written again).
    let ts = system("c := 3; while x >= 1 do x := x - c; od");
    let state = analyze(&ts);
    let diag = diagnostics(&ts, &state);
    let names = ts.vars().names();
    let c_idx = names.iter().position(|n| n == "c").expect("c exists");
    // The lowering folds the leading `c := 3` into the init assertion, so c
    // is pinned to 3 at every reachable location.
    assert!(
        diag.constant_vars.iter().any(|(i, v)| *i == c_idx && v == &revterm_num::rat(3)),
        "c must be reported constant-everywhere with value 3, got {:?}",
        diag.constant_vars
    );
    assert!(diag.unused_vars.is_empty(), "all variables of this program are used");
    assert_sound(&ts, &[vec![3, 10], vec![3, 0]], &[]);
}
