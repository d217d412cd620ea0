//! Bounded safety prover (reachability oracle).
//!
//! The paper uses CPAchecker to answer one kind of query in Check 2:
//! *"is some configuration of `¬BI` reachable?"*.  Any sound "yes" answer
//! (i.e. a concrete finite path) suffices for the soundness proof of the
//! algorithm, so this reproduction uses explicit-state bounded search over
//! the concrete semantics of the transition system:
//!
//! * initial valuations are enumerated from the program constants and a small
//!   grid around them, filtered by `Θ_init` ([`find_initial_valuations`]);
//! * non-deterministic assignments are resolved by a finite candidate set of
//!   values, again derived from the program constants
//!   ([`ndet_candidate_values`]);
//! * one breadth-first exploration up to configurable step/state bounds
//!   ([`explore`]) collects the reachable configurations in discovery order,
//!   each with the configuration it was first reached from, and in ascending
//!   order ([`Reach`]);
//! * queries read that exploration: the reachable samples
//!   ([`Reach::ascending`]), a reachable configuration in a predicate map
//!   ([`find_reachable_in`]), and Check 2's witness path into `¬BI`
//!   ([`find_path_in`]). A caller that keeps the exploration asks every
//!   query of it without searching again.
//!
//! A negative answer ("not found within bounds") is *not* a proof of
//! unreachability; the core algorithm treats it as "unknown", exactly as the
//! paper treats a safety-prover timeout.

#![warn(missing_docs)]

use revterm_num::Int;
use revterm_ts::interp::{bounded_reach, is_initial_valuation, Config, Reach, Valuation};
use revterm_ts::{PredicateMap, TransitionSystem};

/// Bounds for the explicit-state search.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SearchBounds {
    /// Maximal number of BFS layers explored.
    pub max_steps: usize,
    /// Maximal number of distinct configurations kept.
    pub max_configs: usize,
    /// Maximal number of initial valuations enumerated.
    pub max_initial: usize,
    /// Half-width of the grid of small values tried for unconstrained
    /// variables (the grid is `-grid..=grid` plus the program constants).
    pub grid: i64,
}

impl Default for SearchBounds {
    fn default() -> Self {
        SearchBounds { max_steps: 60, max_configs: 4000, max_initial: 64, grid: 2 }
    }
}

/// Collects candidate integer values for non-deterministic assignments and
/// for seeding initial valuations: the program constants (see
/// `revterm_invgen::collect_constants`'s counterpart here) plus a small grid.
pub fn ndet_candidate_values(ts: &TransitionSystem, grid: i64) -> Vec<Int> {
    let mut values: Vec<Int> = (-grid..=grid).map(Int::from).collect();
    for t in ts.transitions() {
        for atom in t.relation.atoms() {
            let c = atom.constant_term();
            if let Some(i) = c.to_int() {
                values.push(i.clone());
                values.push(-i.clone());
                values.push(&i + &Int::one());
                values.push(&i - &Int::one());
            }
        }
    }
    for atom in ts.init_assertion().atoms() {
        if let Some(i) = atom.constant_term().to_int() {
            values.push(i.clone());
            values.push(-i);
        }
    }
    values.sort();
    values.dedup();
    values
}

/// How many positions of the cartesian-product odometer
/// [`find_initial_valuations`] visits at most.
const MAX_ODOMETER_POSITIONS: usize = 200_000;

/// Enumerates valuations satisfying `Θ_init`, trying the candidate values for
/// every variable (cartesian product, truncated at `bounds.max_initial`).
///
/// The result is that of an odometer over `candidates^n` — variable 0's
/// digit turning fastest — that checks its first 200 000 positions against
/// `Θ_init` and stops at the `max_initial`-th hit. A value that fails an
/// atom mentioning only its own variable fails whatever the others hold, so
/// each digit runs over the values its variable's atoms admit; a surviving
/// combination's position in the full odometer is what the 200 000 cap is
/// measured against, which keeps the output identical element for element.
pub fn find_initial_valuations(ts: &TransitionSystem, bounds: &SearchBounds) -> Vec<Valuation> {
    let candidates = ndet_candidate_values(ts, bounds.grid);
    let n = ts.vars().len();
    if n == 0 {
        return vec![Valuation(Vec::new())];
    }
    let width = candidates.len();
    let cap = width
        .checked_pow(n as u32)
        .map_or(MAX_ODOMETER_POSITIONS, |total| total.min(MAX_ODOMETER_POSITIONS));
    // The candidate indices each variable's single-variable atoms admit.
    let mut admitted: Vec<Vec<usize>> = vec![(0..width).collect(); n];
    for atom in ts.init_assertion().atoms() {
        match atom.vars()[..] {
            [] if atom.as_constant().is_some_and(|c| c.is_negative()) => return Vec::new(),
            [v] if v.index() < n => admitted[v.index()]
                .retain(|&i| !atom.eval_at_int_point(&|_| candidates[i].clone()).is_negative()),
            _ => {}
        }
    }
    if admitted.iter().any(Vec::is_empty) {
        return Vec::new();
    }
    // `width^k`, the weight of digit `k`; saturating, since any position
    // that saturates is past the cap anyway.
    let strides: Vec<usize> =
        std::iter::successors(Some(1usize), |s| Some(s.saturating_mul(width))).take(n).collect();
    let mut digits = vec![0usize; n];
    let mut result = Vec::new();
    loop {
        // Positions grow with the filtered odometer, so the first one past
        // the cap ends the enumeration.
        let position = digits
            .iter()
            .zip(&admitted)
            .zip(&strides)
            .fold(0usize, |pos, ((&d, ids), &s)| pos.saturating_add(ids[d].saturating_mul(s)));
        if position >= cap {
            return result;
        }
        let vals = Valuation(
            digits.iter().zip(&admitted).map(|(&d, ids)| candidates[ids[d]].clone()).collect(),
        );
        if is_initial_valuation(ts, &vals) {
            result.push(vals);
            if result.len() >= bounds.max_initial {
                return result;
            }
        }
        // Increment the odometer.
        let mut k = 0;
        loop {
            digits[k] += 1;
            if digits[k] < admitted[k].len() {
                break;
            }
            digits[k] = 0;
            k += 1;
            if k == n {
                return result;
            }
        }
    }
}

/// Explores the configurations reachable from the initial configurations
/// within the given bounds: one breadth-first search from the enumerated
/// initial valuations ([`find_initial_valuations`]), resolving
/// non-determinism with [`ndet_candidate_values`]. Every configuration it
/// holds is genuinely reachable (the search under-approximates the reachable
/// set). The exploration depends only on the system and the bounds, so a
/// caller that asks several queries keeps it and asks them all of it.
pub fn explore(ts: &TransitionSystem, bounds: &SearchBounds) -> Reach {
    let seeds: Vec<Config> = find_initial_valuations(ts, bounds)
        .into_iter()
        .map(|v| Config::new(ts.init_loc(), v))
        .collect();
    let ndet = ndet_candidate_values(ts, bounds.grid);
    bounded_reach(ts, &seeds, &ndet, bounds.max_steps, bounds.max_configs)
}

/// Returns `true` iff the configuration lies in the predicate map.
fn lies_in(target: &PredicateMap, cfg: &Config) -> bool {
    target.at(cfg.loc).holds_int(&cfg.vals.assignment())
}

/// Searches for a reachable configuration contained in the given predicate
/// map: the least one of [`explore`] in ascending order, if any.
pub fn find_reachable_in(
    ts: &TransitionSystem,
    target: &PredicateMap,
    bounds: &SearchBounds,
) -> Option<Config> {
    explore(ts, bounds).ascending().find(|cfg| lies_in(target, cfg)).cloned()
}

/// The safety query of Check 2: a complete **path** (sequence of
/// configurations, starting from an initial one) to the first configuration
/// of `reach`, in discovery order, that lies in `target` (typically `¬BI`).
/// It is the path a breadth-first search that stops at its first hit
/// returns.
///
/// The returned path is replayable: consecutive configurations are related by
/// a transition of the system, which is exactly what the certificate
/// validator of the core crate re-checks.
pub fn find_path_in(reach: &Reach, target: &PredicateMap) -> Option<Vec<Config>> {
    reach.path_to_first(|cfg| lies_in(target, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use revterm_lang::parse_program;
    use revterm_num::int;
    use revterm_poly::Poly;
    use revterm_ts::{lower, Assertion, PropPredicate, TransitionSystem};

    const RUNNING: &str =
        "while x >= 9 do x := ndet(); y := 10 * x; while x <= y do x := x + 1; od od";

    #[test]
    fn candidate_values_include_guard_constants() {
        let ts = lower(&parse_program(RUNNING).unwrap()).unwrap();
        let values = ndet_candidate_values(&ts, 2);
        assert!(values.contains(&int(9)));
        assert!(values.contains(&int(0)));
        assert!(values.contains(&int(-9)));
    }

    #[test]
    fn initial_valuations_respect_theta() {
        let ts = lower(&parse_program("n := 0; b := 0; while b == 0 do n := n + 1; od").unwrap())
            .unwrap();
        let bounds = SearchBounds::default();
        let inits = find_initial_valuations(&ts, &bounds);
        assert!(!inits.is_empty());
        for v in &inits {
            assert!(is_initial_valuation(&ts, v));
            assert_eq!(v.get(0), &int(0));
            assert_eq!(v.get(1), &int(0));
        }
        // Unconstrained Θ_init: many valuations are produced.
        let ts = lower(&parse_program(RUNNING).unwrap()).unwrap();
        let inits = find_initial_valuations(&ts, &bounds);
        assert!(inits.len() > 5);
    }

    /// The plain odometer that [`find_initial_valuations`] must reproduce:
    /// every position of `candidates^n` up to the cap, checked in order.
    fn plain_odometer(ts: &TransitionSystem, bounds: &SearchBounds) -> Vec<Valuation> {
        let candidates = ndet_candidate_values(ts, bounds.grid);
        let n = ts.vars().len();
        let mut result = Vec::new();
        if n == 0 {
            return vec![Valuation(Vec::new())];
        }
        let mut indices = vec![0usize; n];
        let total = candidates.len().checked_pow(n as u32).unwrap_or(usize::MAX);
        for _ in 0..total.min(MAX_ODOMETER_POSITIONS) {
            let vals = Valuation(indices.iter().map(|&i| candidates[i].clone()).collect());
            if is_initial_valuation(ts, &vals) {
                result.push(vals);
                if result.len() >= bounds.max_initial {
                    break;
                }
            }
            let mut k = 0;
            loop {
                indices[k] += 1;
                if indices[k] < candidates.len() {
                    break;
                }
                indices[k] = 0;
                k += 1;
                if k == n {
                    return result;
                }
            }
        }
        result
    }

    /// Fourteen variables, four of them pinned, all incremented in one loop;
    /// its constants yield 25 candidate values, and `25^14 > 2^64`.
    const FOURTEEN_VARS: &str = "a := -40; b := -30; c := -20; d := -10; \
        while a >= 3 do a := a + 1; b := b + 1; c := c + 1; d := d + 1; e := e + 5; \
        f := f + 7; g := g + 1; h := h + 1; i := i + 1; j := j + 1; k := k + 1; \
        l := l + 1; m := m + 1; n := n + 1; od";

    #[test]
    fn initial_valuations_of_a_fourteen_variable_program() {
        // The odometer has more positions than a usize holds; sizing it
        // must not overflow.
        let ts = lower(&parse_program(FOURTEEN_VARS).unwrap()).unwrap();
        let bounds = SearchBounds::default();
        let width = ndet_candidate_values(&ts, bounds.grid).len();
        assert!(width.checked_pow(ts.vars().len() as u32).is_none(), "{width} candidates");
        // The pins are the four smallest candidates, so the first hit sits
        // at position 1·25 + 2·25² + 3·25³ = 48 125; the next would need a
        // fifth digit, at 25⁴ = 390 625, past the cap.
        let inits = find_initial_valuations(&ts, &bounds);
        assert_eq!(inits.len(), 1);
        assert!(is_initial_valuation(&ts, &inits[0]));
        assert_eq!(inits, plain_odometer(&ts, &bounds));
    }

    #[test]
    fn filtered_enumeration_matches_the_plain_odometer() {
        let mut systems: Vec<TransitionSystem> = revterm_suite::curated_benchmarks()
            .iter()
            .chain(&revterm_suite::fuzz_family(0x5eed_f22d, 40))
            .map(|b| b.transition_system())
            .collect();
        systems.push(lower(&parse_program(FOURTEEN_VARS).unwrap()).unwrap());
        let few = SearchBounds { max_initial: 3, ..SearchBounds::default() };
        // So many results wanted that the position cap ends the enumeration.
        let many = SearchBounds { max_initial: usize::MAX, grid: 1, ..SearchBounds::default() };
        let mut cut_by_cap = 0;
        for ts in &systems {
            for bounds in [&SearchBounds::default(), &few] {
                assert_eq!(find_initial_valuations(ts, bounds), plain_odometer(ts, bounds));
            }
        }
        // The plain odometer walks all 200 000 positions here, so a handful
        // of systems keeps the test quick.
        for ts in systems.iter().filter(|ts| ts.vars().len() >= 4).take(8) {
            let filtered = find_initial_valuations(ts, &many);
            assert_eq!(filtered, plain_odometer(ts, &many));
            let width = ndet_candidate_values(ts, many.grid).len();
            if width.checked_pow(ts.vars().len() as u32).is_none_or(|t| t > MAX_ODOMETER_POSITIONS)
            {
                cut_by_cap += 1;
            }
        }
        assert!(cut_by_cap > 0, "no system reached the position cap");
    }

    /// A search per query: breadth-first, checking each configuration as it
    /// is discovered and stopping at the first hit. [`find_path_in`] on the
    /// one exploration must return its path.
    fn per_query_path_to(
        ts: &TransitionSystem,
        target: &PredicateMap,
        bounds: &SearchBounds,
    ) -> Option<Vec<Config>> {
        use revterm_ts::interp::successors;
        use std::collections::BTreeMap;
        let seeds: Vec<Config> = find_initial_valuations(ts, bounds)
            .into_iter()
            .map(|v| Config::new(ts.init_loc(), v))
            .collect();
        let ndet = ndet_candidate_values(ts, bounds.grid);
        let mut parents: BTreeMap<Config, Option<Config>> = BTreeMap::new();
        let mut frontier: Vec<Config> = Vec::new();
        let reconstruct = |cfg: &Config, parents: &BTreeMap<Config, Option<Config>>| {
            let mut path = vec![cfg.clone()];
            let mut cur = cfg.clone();
            while let Some(Some(p)) = parents.get(&cur) {
                path.push(p.clone());
                cur = p.clone();
            }
            path.reverse();
            path
        };
        for seed in seeds {
            if target.at(seed.loc).holds_int(&seed.vals.assignment()) {
                return Some(vec![seed]);
            }
            if !parents.contains_key(&seed) {
                parents.insert(seed.clone(), None);
                frontier.push(seed);
            }
        }
        for _ in 0..bounds.max_steps {
            if frontier.is_empty() || parents.len() >= bounds.max_configs {
                break;
            }
            let mut next_frontier = Vec::new();
            for cfg in &frontier {
                for (_, succ) in successors(ts, cfg, &ndet) {
                    if parents.contains_key(&succ) || parents.len() >= bounds.max_configs {
                        continue;
                    }
                    parents.insert(succ.clone(), Some(cfg.clone()));
                    if target.at(succ.loc).holds_int(&succ.vals.assignment()) {
                        return Some(reconstruct(&succ, &parents));
                    }
                    next_frontier.push(succ);
                }
            }
            frontier = next_frontier;
        }
        None
    }

    /// A search per call: the same breadth-first search over a `BTreeSet`,
    /// which hands the configurations back in ascending order, as
    /// [`Reach::ascending`] must. Also reports whether `max_configs` cut a
    /// layer part-way through.
    fn per_query_samples(ts: &TransitionSystem, bounds: &SearchBounds) -> (Vec<Config>, bool) {
        use revterm_ts::interp::successors;
        use std::collections::BTreeSet;
        let from: Vec<Config> = find_initial_valuations(ts, bounds)
            .into_iter()
            .map(|v| Config::new(ts.init_loc(), v))
            .collect();
        let ndet = ndet_candidate_values(ts, bounds.grid);
        let mut seen: BTreeSet<Config> = from.iter().cloned().collect();
        let mut frontier: Vec<Config> = from;
        let mut cut_mid_layer = false;
        for _ in 0..bounds.max_steps {
            if frontier.is_empty() || seen.len() >= bounds.max_configs {
                break;
            }
            let mut next_frontier = Vec::new();
            for cfg in &frontier {
                for (_, succ) in successors(ts, cfg, &ndet) {
                    if seen.len() >= bounds.max_configs {
                        cut_mid_layer |= !seen.contains(&succ);
                        break;
                    }
                    if seen.insert(succ.clone()) {
                        next_frontier.push(succ);
                    }
                }
            }
            frontier = next_frontier;
        }
        (seen.into_iter().collect(), cut_mid_layer)
    }

    /// SplitMix64: a tiny deterministic generator for the randomized test
    /// below (no external crates are available in this workspace).
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, bound: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % bound as u64) as usize
        }
    }

    #[test]
    fn one_exploration_answers_every_query_as_the_per_query_searches_did() {
        let benchmarks = revterm_suite::curated_benchmarks();
        let fuzzed = revterm_suite::fuzz_family(0x5eed_f22d, 40);
        let mut rng = Rng(0x0e91_0a7c_b5f5_2d11);
        let (mut hits, mut misses, mut long_paths, mut mid_layer_cuts) = (0, 0, 0, 0);
        for benchmark in benchmarks.iter().chain(&fuzzed) {
            let ts = &benchmark.transition_system();
            let seeds = find_initial_valuations(ts, &SearchBounds::default()).len();
            let mut bounds: Vec<SearchBounds> = (1..=3)
                .map(|max_steps| SearchBounds { max_steps, ..SearchBounds::default() })
                .collect();
            // `nt_square_growth` squares its counter on every loop iteration:
            // 60 steps build numbers of 2^30 bits, seconds per search
            // (ROADMAP item 1), so it runs at the short bounds only.
            if benchmark.name != "nt_square_growth" {
                bounds.push(SearchBounds::default());
                bounds.push(SearchBounds {
                    max_configs: seeds + 1 + rng.below(300),
                    ..SearchBounds::default()
                });
            }
            // The system's own guard and Θ_init atoms; the interpreter only
            // evaluates unprimed variables.
            let atoms: Vec<Poly> = ts
                .transitions()
                .iter()
                .flat_map(|t| t.relation.atoms())
                .chain(ts.init_assertion().atoms())
                .filter(|p| p.vars().iter().all(|&v| ts.vars().is_unprimed(v)))
                .cloned()
                .collect();
            let n = ts.num_locs();
            let mut targets = vec![PredicateMap::tautology(n), PredicateMap::unsatisfiable(n)];
            let mut at_exit = PredicateMap::unsatisfiable(n);
            at_exit.set(ts.terminal_loc(), PropPredicate::tautology());
            targets.push(at_exit);
            for _ in 0..4 {
                if atoms.is_empty() {
                    break;
                }
                let mut conjunction = PredicateMap::tautology(n);
                for loc in ts.locations() {
                    let picked =
                        (0..1 + rng.below(3)).map(|_| atoms[rng.below(atoms.len())].clone());
                    conjunction
                        .set(loc, PropPredicate::from_assertion(Assertion::from_polys(picked)));
                }
                targets.push(conjunction.complement());
            }
            for bounds in &bounds {
                let reach = explore(ts, bounds);
                let (samples, cut) = per_query_samples(ts, bounds);
                mid_layer_cuts += usize::from(cut);
                assert!(reach.ascending().eq(samples.iter()));
                // The tautology's witness is the first seed.
                let first_seed = reach.discovered().first().map(|c| vec![c.clone()]);
                assert_eq!(find_path_in(&reach, &targets[0]), first_seed);
                for target in &targets {
                    let path = find_path_in(&reach, target);
                    assert_eq!(path, per_query_path_to(ts, target, bounds));
                    match path {
                        Some(path) => {
                            hits += 1;
                            long_paths += usize::from(path.len() > 2);
                        }
                        None => misses += 1,
                    }
                }
                // The one-shot query explores again, so one target.
                let target = &targets[rng.below(targets.len())];
                let least_in = samples.iter().find(|c| lies_in(target, c));
                assert_eq!(find_reachable_in(ts, target, bounds).as_ref(), least_in);
            }
        }
        assert!(hits > 0 && misses > 0 && long_paths > 0, "{hits} {misses} {long_paths}");
        assert!(mid_layer_cuts > 0, "no bound cut a layer part-way through");
    }

    #[test]
    fn reachability_finds_terminal_of_terminating_program() {
        let ts = lower(&parse_program("n := 0; while n <= 5 do n := n + 1; od").unwrap()).unwrap();
        let reach = explore(&ts, &SearchBounds::default());
        let cfg = reach.ascending().find(|cfg| cfg.loc == ts.terminal_loc()).unwrap();
        assert_eq!(cfg.vals.get(0), &int(6));
    }

    #[test]
    fn reachability_query_for_predicate_maps() {
        // Fig. 2-style query: is a configuration with n >= 3 reachable at the
        // loop head of a bounded counter? Yes (after three iterations).
        let ts = lower(&parse_program("n := 0; while n <= 5 do n := n + 1; od").unwrap()).unwrap();
        let n = revterm_poly::Poly::var(ts.vars().lookup("n").unwrap());
        let mut target = PredicateMap::unsatisfiable(ts.num_locs());
        target.set(
            ts.init_loc(),
            PropPredicate::from_assertion(Assertion::ge_zero(
                n.clone() - revterm_poly::Poly::constant_i64(3),
            )),
        );
        let hit = find_reachable_in(&ts, &target, &SearchBounds::default()).unwrap();
        assert_eq!(hit.loc, ts.init_loc());
        assert!(hit.vals.get(0) >= &int(3));

        // n >= 100 is not reachable (the loop stops at 6): bounded search
        // correctly reports "not found".
        let mut unreachable = PredicateMap::unsatisfiable(ts.num_locs());
        unreachable.set(
            ts.init_loc(),
            PropPredicate::from_assertion(Assertion::ge_zero(
                n - revterm_poly::Poly::constant_i64(100),
            )),
        );
        assert!(find_reachable_in(&ts, &unreachable, &SearchBounds::default()).is_none());
    }

    #[test]
    fn non_deterministic_program_exploration() {
        let ts = lower(&parse_program(RUNNING).unwrap()).unwrap();
        let bounds = SearchBounds { max_steps: 15, max_configs: 1500, ..SearchBounds::default() };
        let reach = explore(&ts, &bounds);
        let samples: Vec<&Config> = reach.ascending().collect();
        assert!(!samples.is_empty());
        // The terminal location is reachable (choose a value < 9 for x).
        assert!(samples.iter().any(|c| c.loc == ts.terminal_loc()));
        // Some sample stays in the loop with x >= 9.
        assert!(samples.iter().any(|c| c.loc == ts.init_loc() && c.vals.get(0) >= &int(9)));
    }
}
