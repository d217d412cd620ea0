//! Concrete semantics: configurations and an explicit-state interpreter.
//!
//! The interpreter serves two purposes:
//!
//! * it is the "ground truth" against which the symbolic machinery is tested
//!   (e.g. reachability in the reversed system vs. reachability in the
//!   original, Lemma 3.3), and
//! * it powers the bounded safety prover used by Check 2 of the algorithm
//!   (the paper uses CPAchecker; this reproduction uses explicit-state
//!   bounded search, see the `revterm-safety` crate).

use crate::assertion::Assertion;
use crate::system::{Loc, Transition, TransitionKind, TransitionSystem};
use revterm_num::Int;
use revterm_poly::Var;
use std::collections::HashSet;
use std::fmt;

/// A valuation of the program variables (by index).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Valuation(pub Vec<Int>);

impl Valuation {
    /// Creates a valuation from `i64` values.
    pub fn from_i64s(values: &[i64]) -> Valuation {
        Valuation(values.iter().map(|&v| Int::from(v)).collect())
    }

    /// The value of the program variable with the given index.
    pub fn get(&self, index: usize) -> &Int {
        &self.0[index]
    }

    /// Returns a copy with the variable at `index` set to `value`.
    pub fn with(&self, index: usize, value: Int) -> Valuation {
        let mut out = self.clone();
        out.0[index] = value;
        out
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` iff the valuation covers no variables.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// An assignment function (unprimed program variables only) suitable for
    /// the assertion evaluation helpers.
    pub fn assignment(&self) -> impl Fn(Var) -> Int + '_ {
        move |v: Var| self.0[v.index()].clone()
    }
}

impl fmt::Display for Valuation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.0.iter().map(|v| v.to_string()).collect();
        write!(f, "({})", parts.join(", "))
    }
}

/// A configuration: a location together with a variable valuation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Config {
    /// The location.
    pub loc: Loc,
    /// The variable valuation.
    pub vals: Valuation,
}

impl Config {
    /// Creates a configuration.
    pub fn new(loc: Loc, vals: Valuation) -> Config {
        Config { loc, vals }
    }
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.loc, self.vals)
    }
}

/// Checks whether the source-state part of a transition relation is satisfied
/// by a valuation (only atoms over unprimed variables are considered).
pub fn guard_holds(ts: &TransitionSystem, relation: &Assertion, vals: &Valuation) -> bool {
    relation.atoms().iter().all(|p| {
        // Zero-allocation primed-variable scan (`Poly::vars` would build and
        // sort a fresh vector on every step of every probe run).
        let mentions_primed = p.terms().any(|(m, _)| m.vars().any(|v| !ts.vars().is_unprimed(v)));
        mentions_primed || !p.eval_at_int_point(&|v| vals.get(v.index()).clone()).is_negative()
    })
}

/// Checks whether a full transition relation holds for a source/target pair of
/// valuations.
pub fn relation_holds(
    ts: &TransitionSystem,
    relation: &Assertion,
    src: &Valuation,
    dst: &Valuation,
) -> bool {
    relation.holds_int(&|v| {
        if ts.vars().is_primed(v) {
            dst.get(ts.vars().base_index(v)).clone()
        } else {
            src.get(v.index()).clone()
        }
    })
}

/// Returns `true` iff `vals` satisfies the initial assertion `Θ_init`.
pub fn is_initial_valuation(ts: &TransitionSystem, vals: &Valuation) -> bool {
    ts.init_assertion().holds_int(&vals.assignment())
}

/// Returns `true` iff the configuration is terminal (its location is `ℓ_out`).
pub fn is_terminal(ts: &TransitionSystem, config: &Config) -> bool {
    config.loc == ts.terminal_loc()
}

/// Enumerates the successors of a configuration.
///
/// For non-deterministic assignments the candidate values are drawn from
/// `ndet_values`; all other transition kinds are executed exactly.  Each
/// successor is returned together with the id of the transition taken.
///
/// Transitions with kind [`TransitionKind::General`] (which only appear in
/// reversed systems) are skipped: the interpreter is only used on systems
/// produced by lowering or restriction.
pub fn successors(
    ts: &TransitionSystem,
    config: &Config,
    ndet_values: &[Int],
) -> Vec<(usize, Config)> {
    let mut out = Vec::new();
    for t in ts.transitions_from(config.loc) {
        successors_via(ts, config, t, ndet_values, &mut out);
    }
    out
}

fn successors_via(
    ts: &TransitionSystem,
    config: &Config,
    t: &Transition,
    ndet_values: &[Int],
    out: &mut Vec<(usize, Config)>,
) {
    match &t.kind {
        TransitionKind::Guard | TransitionKind::TerminalSelfLoop => {
            if guard_holds(ts, &t.relation, &config.vals) {
                out.push((t.id, Config::new(t.target, config.vals.clone())));
            }
        }
        TransitionKind::Assign { var, rhs } => {
            if guard_holds(ts, &t.relation, &config.vals) {
                if let Some(value) = rhs.eval_int(&config.vals.assignment()) {
                    out.push((t.id, Config::new(t.target, config.vals.with(*var, value))));
                }
            }
        }
        TransitionKind::NdetAssign { var } => {
            if guard_holds(ts, &t.relation, &config.vals) {
                for value in ndet_values {
                    out.push((t.id, Config::new(t.target, config.vals.with(*var, value.clone()))));
                }
            }
        }
        TransitionKind::General => {}
    }
}

/// Runs the system for at most `max_steps` steps from `config`, resolving
/// non-determinism with `chooser` (which receives the transition id and must
/// return the assigned value).  Returns the visited configurations, starting
/// with `config`.  The run stops early if a configuration has no successor
/// under the chooser or when the terminal location is reached (the terminal
/// self-loop is not unrolled).
pub fn run(
    ts: &TransitionSystem,
    config: &Config,
    chooser: &dyn Fn(usize, &Config) -> Int,
    max_steps: usize,
) -> Vec<Config> {
    let mut trace = vec![config.clone()];
    for _ in 0..max_steps {
        // The tail of the trace *is* the current configuration; working on a
        // borrow avoids cloning every visited valuation a second time.
        let current = trace.last().expect("trace is never empty");
        if is_terminal(ts, current) {
            break;
        }
        let mut next = None;
        for t in ts.transitions_from(current.loc) {
            let candidates = match &t.kind {
                TransitionKind::NdetAssign { .. } => vec![chooser(t.id, current)],
                _ => Vec::new(),
            };
            let mut found = Vec::new();
            successors_via(ts, current, t, &candidates, &mut found);
            if let Some((_, cfg)) = found.into_iter().next() {
                next = Some(cfg);
                break;
            }
        }
        match next {
            Some(cfg) => trace.push(cfg),
            None => break,
        }
    }
    trace
}

/// The configurations a bounded breadth-first exploration discovered (see
/// [`bounded_reach`]).
///
/// They are kept in discovery order — the seeds first, then each BFS layer
/// in the order its configurations were first reached — each with the
/// configuration that first reached it, and also in ascending order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Reach {
    /// The configurations in discovery order.
    configs: Vec<Config>,
    /// `parents[i]` indexes the configuration `configs[i]` was first
    /// reached from; `None` for a seed.
    parents: Vec<Option<usize>>,
    /// Indices into `configs`, ordered by ascending configuration.
    ascending: Vec<usize>,
}

impl Reach {
    /// The configurations in discovery order.
    pub fn discovered(&self) -> &[Config] {
        &self.configs
    }

    /// The configurations in ascending order.
    pub fn ascending(&self) -> impl ExactSizeIterator<Item = &Config> + '_ {
        self.ascending.iter().map(|&i| &self.configs[i])
    }

    /// The BFS path to the first configuration, in discovery order, that
    /// satisfies `target`: it starts at a seed, and each configuration on it
    /// is the one its successor was first reached from.
    pub fn path_to_first(&self, target: impl Fn(&Config) -> bool) -> Option<Vec<Config>> {
        let hit = self.configs.iter().position(target)?;
        let mut path = vec![self.configs[hit].clone()];
        let mut current = hit;
        while let Some(parent) = self.parents[current] {
            path.push(self.configs[parent].clone());
            current = parent;
        }
        path.reverse();
        Some(path)
    }
}

/// Explores the configurations reachable from the given set breadth-first,
/// for at most `max_steps` layers and until `max_configs` distinct
/// configurations are known, using `ndet_values` as candidate values for
/// non-deterministic assignments.
///
/// This is a bounded, explicit-state reachability search; it under-approximates
/// the true reachable set (which is what a sound safety check for Check 2
/// needs: any configuration found is genuinely reachable, along the path
/// [`Reach::path_to_first`] rebuilds). The seeds are all kept, even past
/// `max_configs`; a layer stops as soon as the cap is reached.
pub fn bounded_reach(
    ts: &TransitionSystem,
    from: &[Config],
    ndet_values: &[Int],
    max_steps: usize,
    max_configs: usize,
) -> Reach {
    let mut seen: HashSet<Config> = HashSet::new();
    let mut reach = Reach::default();
    for seed in from {
        if seen.insert(seed.clone()) {
            reach.configs.push(seed.clone());
            reach.parents.push(None);
        }
    }
    // Each layer is a contiguous run of the discovery order.
    let mut layer = 0..reach.configs.len();
    for _ in 0..max_steps {
        if layer.is_empty() || reach.configs.len() >= max_configs {
            break;
        }
        let next = reach.configs.len();
        for i in layer {
            for (_, succ) in successors(ts, &reach.configs[i], ndet_values) {
                if reach.configs.len() >= max_configs {
                    break;
                }
                if seen.insert(succ.clone()) {
                    reach.configs.push(succ);
                    reach.parents.push(Some(i));
                }
            }
        }
        layer = next..reach.configs.len();
    }
    reach.ascending = (0..reach.configs.len()).collect();
    reach.ascending.sort_unstable_by(|&a, &b| reach.configs[a].cmp(&reach.configs[b]));
    reach
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower;
    use revterm_lang::parse_program;
    use revterm_num::int;

    const RUNNING: &str =
        "while x >= 9 do x := ndet(); y := 10 * x; while x <= y do x := x + 1; od od";

    fn running_ts() -> TransitionSystem {
        lower(&parse_program(RUNNING).unwrap()).unwrap()
    }

    #[test]
    fn valuation_and_config_basics() {
        let v = Valuation::from_i64s(&[3, -2]);
        assert_eq!(v.len(), 2);
        assert_eq!(v.get(0), &int(3));
        let w = v.with(1, int(7));
        assert_eq!(w.get(1), &int(7));
        assert_eq!(v.get(1), &int(-2));
        assert_eq!(v.to_string(), "(3, -2)");
        let c = Config::new(Loc(1), v);
        assert_eq!(c.to_string(), "(l1, (3, -2))");
    }

    #[test]
    fn running_example_terminating_run() {
        // Example 2.4: assigning x := 0 at the non-deterministic assignment
        // terminates after one outer iteration.
        let ts = running_ts();
        let init = Config::new(ts.init_loc(), Valuation::from_i64s(&[9, 0]));
        assert!(is_initial_valuation(&ts, &init.vals));
        let trace = run(&ts, &init, &|_, _| int(0), 100);
        let last = trace.last().unwrap();
        assert!(is_terminal(&ts, last), "trace should reach ℓ_out, got {last}");
    }

    #[test]
    fn running_example_diverging_run_under_resolution() {
        // Example 2.4 / 5.2: always assigning x := 9 keeps the program in the
        // loops forever.
        let ts = running_ts();
        let init = Config::new(ts.init_loc(), Valuation::from_i64s(&[9, 0]));
        let trace = run(&ts, &init, &|_, _| int(9), 300);
        assert_eq!(trace.len(), 301, "run should not stop early");
        assert!(!is_terminal(&ts, trace.last().unwrap()));
    }

    #[test]
    fn running_example_initial_x_below_9_terminates_immediately() {
        let ts = running_ts();
        let init = Config::new(ts.init_loc(), Valuation::from_i64s(&[5, 0]));
        let trace = run(&ts, &init, &|_, _| int(9), 50);
        assert!(is_terminal(&ts, trace.last().unwrap()));
        assert_eq!(trace.len(), 2);
    }

    #[test]
    fn successors_enumerate_ndet_candidates() {
        let ts = running_ts();
        // At l1 (after entering the loop) the only transition is x := ndet().
        let init = Config::new(ts.init_loc(), Valuation::from_i64s(&[9, 0]));
        let succ1 = successors(&ts, &init, &[]);
        assert_eq!(succ1.len(), 1, "x >= 9 holds so only the loop-entry guard fires");
        let at_l1 = &succ1[0].1;
        let succ2 = successors(&ts, at_l1, &[int(0), int(5), int(9)]);
        assert_eq!(succ2.len(), 3);
        let xs: Vec<Int> = succ2.iter().map(|(_, c)| c.vals.get(0).clone()).collect();
        assert!(xs.contains(&int(0)) && xs.contains(&int(5)) && xs.contains(&int(9)));
    }

    #[test]
    fn relation_holds_matches_interpreter() {
        let ts = running_ts();
        let init = Config::new(ts.init_loc(), Valuation::from_i64s(&[12, 1]));
        for (tid, succ) in successors(&ts, &init, &[int(3)]) {
            assert!(relation_holds(&ts, &ts.transition(tid).relation, &init.vals, &succ.vals));
        }
    }

    #[test]
    fn bounded_reach_is_sound() {
        let ts = running_ts();
        let init = Config::new(ts.init_loc(), Valuation::from_i64s(&[9, 0]));
        let ndet = [int(0), int(9)];
        let reached = bounded_reach(&ts, std::slice::from_ref(&init), &ndet, 20, 2000);
        assert_eq!(reached.discovered()[0], init);
        // Every configuration's path is a genuine run from the seed: each
        // step is a successor of the configuration before it.
        for cfg in reached.discovered().iter().take(50) {
            let path = reached.path_to_first(|c| c == cfg).unwrap();
            assert_eq!((path.first(), path.last()), (Some(&init), Some(cfg)));
            for step in path.windows(2) {
                assert!(successors(&ts, &step[0], &ndet).iter().any(|(_, s)| *s == step[1]));
            }
        }
        // Both orders hold the same configurations, the second one sorted.
        let ascending: Vec<&Config> = reached.ascending().collect();
        assert!(ascending.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(ascending.len(), reached.discovered().len());
        assert!(reached.discovered().iter().all(|c| ascending.binary_search(&c).is_ok()));
        // The terminal location is reachable (choose x := 0).
        assert!(reached.discovered().iter().any(|c| is_terminal(&ts, c)));
    }

    #[test]
    fn restricted_system_runs_deterministically() {
        use crate::resolution::Resolution;
        use revterm_poly::Poly;
        let ts = running_ts();
        let ndet_id = ts.ndet_transitions().next().unwrap().id;
        let restricted = ts.restrict(&Resolution::from_pairs([(ndet_id, Poly::constant_i64(9))]));
        let init = Config::new(restricted.init_loc(), Valuation::from_i64s(&[9, 0]));
        // No chooser needed: everything is deterministic now.
        let trace = run(&restricted, &init, &|_, _| int(0), 200);
        assert_eq!(trace.len(), 201);
        assert!(!is_terminal(&restricted, trace.last().unwrap()));
    }
}
