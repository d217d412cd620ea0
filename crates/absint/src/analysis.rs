//! Per-location interval fixpoint over a [`TransitionSystem`].
//!
//! [`analyze`] runs a classic worklist abstract interpretation in the
//! interval domain: ascending iteration with delayed widening until a
//! post-fixpoint is reached, followed by a bounded number of narrowing
//! passes (plain recomputation below the post-fixpoint).  The result is an
//! [`AbstractState`]: for every location either "statically unreachable" or
//! a sound per-variable [`Interval`] envelope of every concrete state that
//! can reach the location.
//!
//! Transfer functions are keyed on [`TransitionKind`]: guards refine the
//! incoming envelope by the linear unprimed atoms of the relation,
//! deterministic assignments evaluate their right-hand side in interval
//! arithmetic, nondeterministic assignments project the written variable to
//! top, and the opaque `General` kind (reversed systems) falls back to the
//! constraints its purely-primed atoms place on the post-state.

use crate::closure::{IntervalEnv, CLOSURE_ROUNDS};
use crate::interval::Interval;
use revterm_num::Rat;
use revterm_poly::Poly;
use revterm_ts::interp::Config;
use revterm_ts::{Loc, Transition, TransitionKind, TransitionSystem, VarTable};
use std::collections::VecDeque;

/// Join count after which a location's envelope is widened on every further
/// change.  Two plain joins keep small constant ramps exact before bounds
/// escape to infinity.
const WIDEN_DELAY: u32 = 2;

/// Descending (narrowing) passes after the widened post-fixpoint.
const NARROW_PASSES: usize = 2;

/// The result of [`analyze`]: a sound per-location, per-variable interval
/// envelope of the reachable states of one transition system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AbstractState {
    /// Indexed by `Loc.0`; `None` means statically unreachable.
    envs: Vec<Option<Vec<Interval>>>,
}

/// Program diagnostics derived from an [`AbstractState`] (the payload of
/// the `revterm analyze` CLI subcommand).
#[derive(Clone, Debug, Default)]
pub struct Diagnostics {
    /// Locations no concrete execution can reach.
    pub unreachable_locs: Vec<Loc>,
    /// Variable indices mentioned nowhere in the system (neither in the
    /// initial assertion nor in any transition).
    pub unused_vars: Vec<usize>,
    /// Variables proven to hold one fixed value at every reachable location.
    pub constant_vars: Vec<(usize, Rat)>,
    /// Transitions whose guard is decided at their (reachable) source
    /// location: `true` = the guard always holds, `false` = it never fires.
    pub constant_guards: Vec<(usize, bool)>,
}

/// Convert a dense per-variable envelope into the sparse closure
/// environment used for refinement and polynomial evaluation.
fn slice_to_env(env: &[Interval], vars: &VarTable) -> IntervalEnv {
    let mut ienv = IntervalEnv::top();
    for (i, iv) in env.iter().enumerate() {
        if !iv.is_top() {
            let ok = ienv.meet_var(vars.unprimed(i), iv);
            debug_assert!(ok, "meet with top cannot be empty");
        }
    }
    ienv
}

/// Refine `env` by the atoms `p ≥ 0` (only linear, all-unprimed atoms
/// contribute).  `None` signals that the constraints are unsatisfiable
/// under `env`.
fn refine_slice<'a>(
    env: Vec<Interval>,
    atoms: impl Iterator<Item = &'a Poly>,
    vars: &VarTable,
) -> Option<Vec<Interval>> {
    let lins: Vec<_> = atoms
        .filter(|p| p.vars().into_iter().all(|v| vars.is_unprimed(v)))
        .filter_map(Poly::as_linear)
        .collect();
    if lins.is_empty() {
        return Some(env);
    }
    let n = env.len();
    let mut ienv = slice_to_env(&env, vars);
    if !ienv.refine(&lins, CLOSURE_ROUNDS) {
        return None;
    }
    Some((0..n).map(|i| ienv.get(vars.unprimed(i))).collect())
}

/// Abstract post of one transition; `None` when the transition provably
/// cannot fire from `env`.
fn transfer(ts: &TransitionSystem, t: &Transition, env: &[Interval]) -> Option<Vec<Interval>> {
    let vars = ts.vars();
    match &t.kind {
        TransitionKind::TerminalSelfLoop => Some(env.to_vec()),
        TransitionKind::Guard => refine_slice(env.to_vec(), t.relation.atoms().iter(), vars),
        TransitionKind::Assign { var, rhs } => {
            let refined = refine_slice(env.to_vec(), t.relation.atoms().iter(), vars)?;
            let val = slice_to_env(&refined, vars).eval_poly(rhs);
            let mut out = refined;
            out[*var] = val;
            Some(out)
        }
        TransitionKind::NdetAssign { var } => {
            let mut out = refine_slice(env.to_vec(), t.relation.atoms().iter(), vars)?;
            out[*var] = Interval::top();
            Some(out)
        }
        TransitionKind::General => {
            // Pre-state feasibility: the purely-unprimed atoms must hold.
            refine_slice(env.to_vec(), t.relation.atoms().iter(), vars)?;
            // Post-state: only purely-primed atoms constrain it soundly.
            let primed: Vec<Poly> = t
                .relation
                .atoms()
                .iter()
                .filter(|p| {
                    let vs = p.vars();
                    !vs.is_empty() && vs.into_iter().all(|v| vars.is_primed(v))
                })
                .map(|p| p.rename(&|v| vars.unprimed(vars.base_index(v))))
                .collect();
            refine_slice(vec![Interval::top(); env.len()], primed.iter(), vars)
        }
    }
}

fn join_env(a: &[Interval], b: &[Interval]) -> Vec<Interval> {
    a.iter().zip(b).map(|(x, y)| x.join(y)).collect()
}

fn widen_env(old: &[Interval], joined: &[Interval]) -> Vec<Interval> {
    old.iter().zip(joined).map(|(o, j)| o.widen(j)).collect()
}

/// Run the interval analysis to fixpoint (widening, then narrowing).
pub fn analyze(ts: &TransitionSystem) -> AbstractState {
    let n = ts.vars().len();
    let mut seeds: Vec<Option<Vec<Interval>>> = vec![None; ts.num_locs()];
    let init_env =
        refine_slice(vec![Interval::top(); n], ts.init_assertion().atoms().iter(), ts.vars());
    let Some(init_env) = init_env else {
        return AbstractState { envs: seeds };
    };
    seeds[ts.init_loc().0] = Some(init_env);
    fixpoint(ts, &seeds)
}

/// [`analyze`] started from an explicit set of configurations instead of the
/// initial assertion.
///
/// The result envelopes every state reachable *from any of `starts`* — which
/// need not satisfy the initial assertion and may sit at arbitrary
/// locations.  This is the sound pre-analysis for probe runs that replay
/// foreign configurations through a system (Check 2 seeds its backward
/// probes with configurations of the *unrestricted* system): if the terminal
/// location is unreachable in this state, no such probe can terminate.
pub fn analyze_from<'a>(
    ts: &TransitionSystem,
    starts: impl IntoIterator<Item = &'a Config>,
) -> AbstractState {
    let mut seeds: Vec<Option<Vec<Interval>>> = vec![None; ts.num_locs()];
    for config in starts {
        let point: Vec<Interval> =
            config.vals.0.iter().map(|v| Interval::point(Rat::from(v.clone()))).collect();
        let slot = &mut seeds[config.loc.0];
        *slot = Some(match slot.take() {
            None => point,
            Some(cur) => join_env(&cur, &point),
        });
    }
    fixpoint(ts, &seeds)
}

/// Worklist fixpoint from the given per-location seed envelopes.
fn fixpoint(ts: &TransitionSystem, seeds: &[Option<Vec<Interval>>]) -> AbstractState {
    let num_locs = ts.num_locs();
    let mut envs = seeds.to_vec();

    // Ascending phase with delayed widening.
    let mut visits: Vec<u32> = vec![0; num_locs];
    let mut queued: Vec<bool> = vec![false; num_locs];
    let mut worklist = VecDeque::new();
    for loc in ts.locations() {
        if envs[loc.0].is_some() {
            worklist.push_back(loc);
            queued[loc.0] = true;
        }
    }
    while let Some(loc) = worklist.pop_front() {
        queued[loc.0] = false;
        let src = envs[loc.0].clone().expect("queued locations have an envelope");
        for t in ts.transitions_from(loc) {
            let Some(out) = transfer(ts, t, &src) else {
                continue;
            };
            let tgt = t.target.0;
            let updated = match &envs[tgt] {
                None => Some(out),
                Some(old) => {
                    let joined = join_env(old, &out);
                    if joined == *old {
                        None
                    } else if visits[tgt] >= WIDEN_DELAY {
                        Some(widen_env(old, &joined))
                    } else {
                        Some(joined)
                    }
                }
            };
            if let Some(new_env) = updated {
                visits[tgt] += 1;
                envs[tgt] = Some(new_env);
                if !queued[tgt] {
                    queued[tgt] = true;
                    worklist.push_back(Loc(tgt));
                }
            }
        }
    }

    // Descending phase: recompute below the post-fixpoint (no widening).
    for _ in 0..NARROW_PASSES {
        let mut next = seeds.to_vec();
        for t in ts.transitions() {
            let Some(src) = &envs[t.source.0] else {
                continue;
            };
            let Some(out) = transfer(ts, t, src) else {
                continue;
            };
            let tgt = t.target.0;
            next[tgt] = Some(match &next[tgt] {
                None => out,
                Some(cur) => join_env(cur, &out),
            });
        }
        envs = next;
    }

    AbstractState { envs }
}

impl AbstractState {
    /// May any concrete execution reach `loc`?  (`false` is a proof of
    /// unreachability; `true` is only an over-approximation.)
    pub fn is_reachable(&self, loc: Loc) -> bool {
        self.envs.get(loc.0).is_some_and(Option::is_some)
    }

    /// The per-variable envelope at `loc`; `None` when unreachable.
    pub fn env(&self, loc: Loc) -> Option<&[Interval]> {
        self.envs.get(loc.0).and_then(|e| e.as_deref())
    }

    /// The interval of variable `var` at `loc`; `None` when unreachable.
    pub fn interval(&self, loc: Loc, var: usize) -> Option<&Interval> {
        self.env(loc).and_then(|e| e.get(var))
    }

    /// The constant value of `var` at `loc`, when the analysis pinned one.
    pub fn constant_at(&self, loc: Loc, var: usize) -> Option<&Rat> {
        self.interval(loc, var).and_then(Interval::as_constant)
    }

    /// Is the terminal location proven unreachable?  A `true` here means no
    /// concrete run of `ts` can terminate.
    pub fn terminal_unreachable(&self, ts: &TransitionSystem) -> bool {
        !self.is_reachable(ts.terminal_loc())
    }

    /// Soundness predicate used by the differential tests: the envelope at
    /// `config.loc` must contain the concrete valuation.
    pub fn contains_config(&self, config: &Config) -> bool {
        match self.env(config.loc) {
            None => false,
            Some(env) => env
                .iter()
                .zip(config.vals.0.iter())
                .all(|(iv, v)| iv.contains(&Rat::from(v.clone()))),
        }
    }
}

/// Derive the `revterm analyze` diagnostics from an abstract state.
pub fn diagnostics(ts: &TransitionSystem, state: &AbstractState) -> Diagnostics {
    let n = ts.vars().len();
    let unreachable_locs: Vec<Loc> = ts.locations().filter(|l| !state.is_reachable(*l)).collect();
    let unused_vars: Vec<usize> = {
        let mentioned = ts.mentioned_vars();
        (0..n).filter(|&i| !mentioned[i]).collect()
    };
    let constant_vars: Vec<(usize, Rat)> = (0..n)
        .filter_map(|i| {
            let mut value: Option<&Rat> = None;
            for loc in ts.locations() {
                if !state.is_reachable(loc) {
                    continue;
                }
                match (value, state.constant_at(loc, i)) {
                    (_, None) => return None,
                    (None, Some(c)) => value = Some(c),
                    (Some(prev), Some(c)) if prev == c => {}
                    _ => return None,
                }
            }
            value.map(|c| (i, c.clone()))
        })
        .collect();
    let mut constant_guards = Vec::new();
    for t in ts.transitions() {
        if matches!(t.kind, TransitionKind::TerminalSelfLoop) {
            continue;
        }
        let Some(env) = state.env(t.source) else {
            continue;
        };
        let guard: Vec<&Poly> = t
            .relation
            .atoms()
            .iter()
            .filter(|p| !p.is_constant() && p.vars().into_iter().all(|v| ts.vars().is_unprimed(v)))
            .collect();
        if guard.is_empty() {
            continue;
        }
        let ienv = slice_to_env(env, ts.vars());
        if guard.iter().all(|p| ienv.eval_poly(p).lo().is_some_and(|l| !l.is_negative())) {
            constant_guards.push((t.id, true));
        } else if guard.iter().any(|p| ienv.eval_poly(p).hi().is_some_and(Rat::is_negative)) {
            constant_guards.push((t.id, false));
        }
    }
    Diagnostics { unreachable_locs, unused_vars, constant_vars, constant_guards }
}
