//! Profiles the exact-arithmetic hot paths and the prover session's
//! contract, so that changes to `revterm_num`, the LP/poly layers above it
//! and the session can be compared across commits.
//!
//! Its workloads are timed and printed as one JSON object (the field-level
//! schema is documented in the `revterm_bench` crate docs):
//!
//! * **LP-heavy microloop** — a deterministic family of Farkas-style
//!   feasibility/optimisation problems and entailment chains solved through
//!   [`revterm_solver::LpProblem`]. This spends essentially all of its time
//!   in `Rat`/`Int` arithmetic inside simplex pivoting, so it isolates the
//!   arithmetic tower from prover logic. The whole workload runs **twice**:
//!   through the revised simplex (`solve`, the engine) and the dense
//!   reference tableau (`solve_dense`), with separate timings and digests.
//! * **Poly-kernel microloop** — a deterministic polynomial family spanning
//!   both monomial tiers (packed `u64` keys and interned large monomials),
//!   whose flat merge/multiply kernels are timed and differentially digested
//!   against a `BTreeMap` reference implementation; plus an entailment
//!   cache-key hashing loop over the Farkas chain queries, run under a
//!   counting global allocator so the "zero heap allocations on the packed
//!   path" claim is asserted, not assumed.
//! * **Fresh vs session** — the paper's running example and every named
//!   benchmark swept over the 24-cell degree-1 configuration grid twice:
//!   fresh per-configuration `prove` calls, and `prove` on one warm
//!   [`revterm::ProverSession`]. Every cell's [`revterm::outcome_digest`]
//!   — label, verdict and certificate, Check 2's witness path included —
//!   must be the same both ways. Each benchmark gets one `session_vs_fresh`
//!   entry with both timings and the session's cache and LP counters.
//! * **Degree-1 sweep** — the running example's fresh sweep again through
//!   the dense LP engine, whose verdicts must match the revised engine's,
//!   and the session's revised-simplex warm-start counters. The same
//!   sessioned sweep then runs again with the abstract-interpretation
//!   machinery disabled (`interval_fast_path: false`, the one flag for the
//!   fast path and the probe prune): the on/off verdict digests must match
//!   (absint is sound pruning only), the on-sweep must report a nonzero
//!   fast-path/prune count (the machinery actually engaged), and the
//!   fixpoint analysis itself is timed as `absint_analyze_secs`.
//! * **Degree-2 sweep** — the running example's 24 degree-2 cells of
//!   [`revterm::default_sweep`], in its order, through one session with no
//!   time limit. Their Handelman LPs are the largest the running example
//!   builds, and the only ones whose numbers leave the simplex kernel's
//!   `i64` words, so their LP counters and verdict digest pin the LP path
//!   of both word tiers.
//!
//! Every workload folds its results into an FNV-1a digest. The digests are
//! pure functions of the computed values, so two runs (or two engines, or
//! two builds) that print the same digest produced bitwise-identical LP
//! solutions and prover verdicts — this is how both the "optimisations must
//! not change any verdict" and the "both simplex engines are
//! indistinguishable" acceptance criteria are checked on every run. The
//! process exits 1 if any engine digest or fresh/sessioned outcome digest
//! diverges, if the flat poly kernels diverge from the BTreeMap reference,
//! if the packed hashing loop allocates, or if the sessioned sweep reports
//! a zero warm-start hit rate (the revised engine's whole point).
//!
//! ```text
//! cargo run --release -p revterm-bench --bin num_profile [lp_iters] [benchmark...]
//! ```
//!
//! `lp_iters` (default 120) sizes the two microloops. The benchmark names
//! (from `revterm --list`; default `nt_counter_up paper_fig2_small`) join
//! the running example in the fresh-vs-session comparison; an unknown name
//! exits 2.

use revterm::api::json::Json;
use revterm::{
    default_sweep, degree1_sweep, outcome_digest, prove, ProofResult, ProverConfig, ProverSession,
    TransitionSystem,
};
use revterm_num::{rat, Fnv64, Rat, SplitMix64};
use revterm_poly::{LinExpr, Monomial, Poly, Var};
use revterm_solver::{entails_with_witness, EntailmentOptions, LpEngine, LpProblem, Rel, VarKind};
use revterm_suite::Benchmark;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The benchmark whose degree-1 and degree-2 sweeps carry the pins.
const RUNNING_EXAMPLE: &str = "paper_fig1_running";

/// The benchmarks compared fresh against sessioned when none are named.
const DEFAULT_BENCHMARKS: [&str; 2] = ["nt_counter_up", "paper_fig2_small"];

/// A [`System`] allocator wrapper counting every `alloc`/`realloc` call, so
/// the poly-kernel microloop can *assert* (not just claim) that entailment
/// cache-key hashing performs zero heap allocations on the packed monomial
/// path.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every operation to `System`; the counter is a side effect.
// The workspace denies `unsafe_code`; `GlobalAlloc` is the one sanctioned
// exception (there is no safe way to install an allocator wrapper).
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// In `lo..hi` (the upper end excluded).
fn in_range(rng: &mut SplitMix64, lo: i64, hi: i64) -> i64 {
    lo + (rng.next_u64() as i64).rem_euclid(hi - lo)
}

/// Folds a rational's decimal rendering into an FNV-1a digest. Digesting the
/// *rendering* (rather than the `Hash` impl) keeps digests stable across
/// representation changes in the arithmetic tower — only value changes move
/// them.
fn write_rat(h: &mut Fnv64, r: &Rat) {
    h.write(r.to_string().as_bytes());
    h.write(b"/");
}

/// Builds one deterministic Farkas-style LP: a mix of equality rows tying
/// non-negative multiplier variables together (as `combination_witness`
/// produces) plus bound rows, with small rational coefficients.
fn build_lp(rng: &mut SplitMix64, n_vars: usize, n_rows: usize) -> LpProblem {
    let mut lp = LpProblem::new();
    for v in 0..n_vars {
        let kind = if v % 3 == 0 { VarKind::Free } else { VarKind::NonNegative };
        lp.set_var_kind(Var(v as u32), kind);
    }
    for i in 0..n_rows {
        let mut expr = LinExpr::constant(Rat::new(
            revterm_num::int(in_range(rng, -6, 7)),
            revterm_num::int(in_range(rng, 1, 4)),
        ));
        // 3–5 variables per row keeps the tableau moderately sparse, like the
        // monomial-matching rows of the entailment encoding.
        let terms = 3 + (in_range(rng, 0, 3) as usize);
        for _ in 0..terms {
            let v = in_range(rng, 0, n_vars as i64) as u32;
            let num = in_range(rng, -5, 6);
            if num != 0 {
                expr.add_coeff(Var(v), rat(num));
            }
        }
        let rel = match i % 4 {
            0 => Rel::Eq,
            1 => Rel::Ge,
            _ => Rel::Le,
        };
        lp.add_constraint(expr, rel);
    }
    // Half the problems also minimise a small objective so phase 2 runs.
    if in_range(rng, 0, 2) == 0 {
        let mut obj = LinExpr::zero();
        for v in 0..n_vars.min(4) {
            obj.add_coeff(Var(v as u32), rat(in_range(rng, 1, 4)));
        }
        lp.set_objective(obj);
    }
    lp
}

/// One Farkas entailment-chain query: premises
/// `x_{i+1} - x_i - c_i >= 0` for a chain of rational steps `c_i`, plus a few
/// redundant bound premises, and the conclusion `x_n - x_0 - (Σ c_i - slack)`.
/// With `slack >= 0` the entailment holds (the LP is feasible and must pivot
/// through the whole chain to find the multipliers); with `slack < 0` it
/// fails, exercising the infeasible exit too.
fn build_chain_query(rng: &mut SplitMix64, n: usize, slack: i64) -> (Vec<Poly>, Poly) {
    let x = |i: usize| Poly::var(Var(i as u32));
    let mut premises = Vec::with_capacity(n + 2);
    let mut total = Rat::zero();
    for i in 0..n {
        let step =
            Rat::new(revterm_num::int(in_range(rng, 1, 9)), revterm_num::int(in_range(rng, 1, 5)));
        premises.push(&x(i + 1) - &x(i) - Poly::constant(step.clone()));
        total = &total + &step;
    }
    // Redundant premises enlarge the multiplier space without changing the
    // verdict, mirroring the over-complete premise sets Houdini produces.
    premises.push(&x(n) - &x(0));
    premises.push(&x(n / 2) - &x(0));
    let bound = &total + &rat(slack);
    let conclusion = &x(n) - &x(0) - Poly::constant(bound);
    (premises, conclusion)
}

/// Runs the whole microloop workload through one LP engine and returns
/// `(feasible_count, seconds, digest)`.
fn run_microloop(
    problems: &[LpProblem],
    queries: &[(Vec<Poly>, Poly)],
    opts: &EntailmentOptions,
) -> (usize, f64, u64) {
    let mut digest = Fnv64::new();
    let mut feasible = 0usize;
    let start = Instant::now();
    for lp in problems {
        let result = match opts.lp_engine {
            LpEngine::Revised => lp.solve(),
            LpEngine::Dense => lp.solve_dense(),
        };
        match result.solution() {
            Some(sol) => {
                feasible += 1;
                digest.write(b"opt:");
                write_rat(&mut digest, sol.objective());
                for (v, val) in sol.iter() {
                    digest.write(&v.0.to_le_bytes());
                    write_rat(&mut digest, val);
                }
            }
            None => digest.write(b"none;"),
        }
    }
    for (premises, conclusion) in queries {
        match entails_with_witness(premises, conclusion, opts) {
            Some(witness) => {
                feasible += 1;
                digest.write(b"yes:");
                // The digest folds one multiplier per column of the linear
                // product list `[1, g_0, g_1, …]` (the chain premises are
                // distinct and nonzero), zeros included.
                let mut dense = vec![Rat::zero(); premises.len() + 1];
                for (factors, lambda) in witness.terms() {
                    dense[factors.first().map_or(0, |&i| i as usize + 1)] = lambda.clone();
                }
                for lambda in &dense {
                    write_rat(&mut digest, lambda);
                }
            }
            None => digest.write(b"no;"),
        }
    }
    (feasible, start.elapsed().as_secs_f64(), digest.finish())
}

/// One benchmark's configuration grid, proved fresh per cell and then
/// through one session.
struct GridRun {
    name: &'static str,
    ts: TransitionSystem,
    fresh: Vec<ProofResult>,
    fresh_secs: f64,
    session: ProverSession,
    sessioned: Vec<ProofResult>,
    session_secs: f64,
    /// Every cell's fresh and sessioned outcome digests agree.
    outcomes_match: bool,
}

impl GridRun {
    fn new(bench: &Benchmark, configs: &[ProverConfig]) -> GridRun {
        let ts = bench.transition_system();
        let start = Instant::now();
        let fresh: Vec<_> = configs.iter().map(|c| prove(&ts, c)).collect();
        let fresh_secs = start.elapsed().as_secs_f64();
        // What `ProverSession::sweep` runs with no early stop, keeping each
        // cell's whole result.
        let mut session = ProverSession::new(ts.clone());
        let start = Instant::now();
        let sessioned: Vec<_> = configs.iter().map(|c| session.prove(c)).collect();
        let session_secs = start.elapsed().as_secs_f64();
        let digests = |results: &[ProofResult]| -> Vec<u64> {
            results.iter().map(|r| outcome_digest(r, &ts)).collect()
        };
        let outcomes_match = digests(&fresh) == digests(&sessioned);
        GridRun {
            name: bench.name,
            ts,
            fresh,
            fresh_secs,
            session,
            sessioned,
            session_secs,
            outcomes_match,
        }
    }

    /// This run's `session_vs_fresh` entry.
    fn json(&self) -> Json {
        let agg = &self.session.stats().aggregate;
        let speedup = self.fresh_secs / self.session_secs;
        let proved_cells = self.sessioned.iter().filter(|r| r.is_non_terminating()).count();
        let fresh_synthesis_calls = self.fresh.iter().map(|r| r.stats.synthesis_calls).sum();
        Json::obj(vec![
            ("benchmark", Json::from(self.name)),
            ("configs", count(self.fresh.len())),
            ("proved_cells", count(proved_cells)),
            ("fresh_secs", fixed(self.fresh_secs, 3)),
            ("session_secs", fixed(self.session_secs, 3)),
            ("speedup", fixed(speedup, 2)),
            ("verdicts_match", Json::from(self.outcomes_match)),
            ("fresh_synthesis_calls", count(fresh_synthesis_calls)),
            ("synthesis_calls", count(agg.synthesis_calls)),
            ("entailment_calls", Json::from(agg.entailment_calls)),
            ("entailment_cache_hits", Json::from(agg.entailment_cache_hits)),
            ("probe_cache_hits", Json::from(agg.probe_cache_hits)),
            ("artifact_cache_hits", Json::from(agg.artifact_cache_hits)),
            ("lp_solves", Json::from(agg.lp.solves)),
            ("lp_pivots", Json::from(agg.lp.pivots)),
            ("lp_refactorizations", Json::from(agg.lp.refactorizations)),
            ("lp_warm_lookups", Json::from(agg.lp.warm_lookups)),
            ("lp_warm_hits", Json::from(agg.lp.warm_hits)),
        ])
    }
}

/// `configs`, each with `tweak` applied.
fn with_each(configs: &[ProverConfig], tweak: impl Fn(&mut ProverConfig)) -> Vec<ProverConfig> {
    configs
        .iter()
        .map(|c| {
            let mut c = c.clone();
            tweak(&mut c);
            c
        })
        .collect()
}

fn count(n: usize) -> Json {
    Json::from(n as u64)
}

/// `x` rounded to `places` decimals (a non-finite `x` prints as `null`).
fn fixed(x: f64, places: i32) -> Json {
    let scale = 10f64.powi(places);
    Json::from((x * scale).round() / scale)
}

fn hex(digest: u64) -> Json {
    Json::from(format!("{digest:016x}"))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let lp_iters: usize =
        args.next().map_or(120, |s| s.parse().expect("lp_iters must be a non-negative integer"));
    let mut names: Vec<String> = args.collect();
    if names.is_empty() {
        names = DEFAULT_BENCHMARKS.map(String::from).to_vec();
    }
    // The running example comes first, whether named or not.
    let suite = revterm_suite::full_suite();
    let benches: Vec<&Benchmark> = std::iter::once(RUNNING_EXAMPLE)
        .chain(names.iter().map(String::as_str).filter(|&n| n != RUNNING_EXAMPLE))
        .map(|name| {
            suite.iter().find(|b| b.name == name).unwrap_or_else(|| {
                eprintln!("unknown benchmark {name:?} (see `revterm --list`)");
                std::process::exit(2);
            })
        })
        .collect();

    // --- LP-heavy microloop -------------------------------------------------
    // Two deterministic problem families, fixed up front so only the solving
    // is timed: raw simplex instances, and Farkas entailment chains (the
    // shape the prover's consecution checks produce). Both run through both
    // LP engines.
    let with_engine = |engine: LpEngine| {
        let mut o = EntailmentOptions::linear();
        o.lp_engine = engine;
        o
    };
    let opts = with_engine(LpEngine::Revised);
    let dense_opts = with_engine(LpEngine::Dense);
    let mut problems = Vec::new();
    let mut queries = Vec::new();
    {
        let mut rng = SplitMix64::new(0x5EED_0001);
        for round in 0..lp_iters {
            for size in 0..6 {
                let n_vars = 4 + size;
                let n_rows = 6 + size + (round % 3);
                problems.push(build_lp(&mut rng, n_vars, n_rows));
            }
            for size in [6, 10, 14] {
                // Alternate entailed (slack 1) and non-entailed (slack -1).
                let slack = if round % 2 == 0 { 1 } else { -1 };
                queries.push(build_chain_query(&mut rng, size, slack));
            }
        }
    }
    let (feasible, lp_secs, lp_digest) = run_microloop(&problems, &queries, &opts);
    let (dense_feasible, lp_dense_secs, lp_dense_digest) =
        run_microloop(&problems, &queries, &dense_opts);
    let lp_digests_match = lp_digest == lp_dense_digest && feasible == dense_feasible;

    // --- Poly-kernel microloop ----------------------------------------------
    // A deterministic polynomial family: mostly packed-tier monomials
    // (≤ 2 factors, small exponents) with a sprinkle of interned-tier ones
    // (3 factors, or an exponent past the packed limit) so both monomial
    // representations are exercised. The flat merge/multiply kernels are
    // timed and their results differentially digested against a BTreeMap
    // reference implementation of the old `Poly` semantics.
    let poly_family: Vec<Poly> = {
        let mut rng = SplitMix64::new(0x0501_F00D);
        (0..48)
            .map(|i| {
                let mut p = Poly::zero();
                let n_terms = 3 + (in_range(&mut rng, 0, 4) as usize);
                for _ in 0..n_terms {
                    let n_factors = 1 + (in_range(&mut rng, 0, 2) as usize);
                    let m = Monomial::from_pairs((0..n_factors).map(|_| {
                        (Var(in_range(&mut rng, 0, 6) as u32), in_range(&mut rng, 1, 3) as u32)
                    }));
                    p.add_term(m, rat(in_range(&mut rng, -5, 6)));
                }
                if i % 7 == 0 {
                    // Interned tier: three distinct variables in one monomial
                    // (too many factors to pack) and an exponent of 17
                    // (past MAX_PACKED_EXP).
                    p.add_term(
                        Monomial::from_pairs([(Var(0), 1), (Var(1), 1), (Var(2), 1)]),
                        rat(1),
                    );
                    p.add_term(Monomial::from_pairs([(Var(3), 17)]), rat(-2));
                }
                p
            })
            .collect()
    };

    let ref_mul = |a: &Poly, b: &Poly| -> Vec<(Monomial, Rat)> {
        let mut map: std::collections::BTreeMap<Monomial, Rat> = std::collections::BTreeMap::new();
        for (m1, c1) in a.flat_terms() {
            for (m2, c2) in b.flat_terms() {
                *map.entry(m1.mul(m2)).or_insert_with(Rat::zero) += &(c1 * c2);
            }
        }
        map.into_iter().filter(|(_, c)| !c.is_zero()).collect()
    };
    let digest_terms = |d: &mut Fnv64, terms: &[(Monomial, Rat)]| {
        for (m, c) in terms {
            d.write(m.to_string().as_bytes());
            d.write(b"=");
            write_rat(d, c);
        }
        d.write(b";");
    };
    let mut flat_digest = Fnv64::new();
    let mut ref_digest = Fnv64::new();
    for pair in poly_family.windows(2) {
        digest_terms(&mut flat_digest, (&pair[0] * &pair[1]).flat_terms());
        digest_terms(&mut ref_digest, &ref_mul(&pair[0], &pair[1]));
    }
    let poly_mul_digest = flat_digest.finish();
    let poly_digests_match = poly_mul_digest == ref_digest.finish();

    let mul_rounds = 8 + lp_iters / 4;
    let mul_start = Instant::now();
    let mut mul_sink = 0u64;
    for _ in 0..mul_rounds {
        for pair in poly_family.windows(2) {
            let prod = &pair[0] * &pair[1];
            mul_sink = mul_sink.wrapping_add(prod.flat_terms().len() as u64);
        }
    }
    let poly_mul_secs = mul_start.elapsed().as_secs_f64();
    std::hint::black_box(mul_sink);

    // Entailment cache keys hash the premise/conclusion polynomials as flat
    // word streams. Every monomial in the chain queries is packed, so this
    // loop must not touch the heap at all — the counting allocator turns
    // that claim into a hard assertion.
    let hash_rounds = 64usize;
    let allocs_before = ALLOC_CALLS.load(Ordering::Relaxed);
    let hash_start = Instant::now();
    let mut key_checksum = 0u64;
    for _ in 0..hash_rounds {
        for (premises, conclusion) in &queries {
            let mut h = Fnv64::new();
            premises.hash(&mut h);
            conclusion.hash(&mut h);
            key_checksum = key_checksum.wrapping_add(h.finish());
        }
    }
    let poly_hash_secs = hash_start.elapsed().as_secs_f64();
    let poly_hash_allocs = ALLOC_CALLS.load(Ordering::Relaxed) - allocs_before;
    std::hint::black_box(key_checksum);
    let interned_monomials = revterm_poly::mono_pool_stats().interned;

    // --- Fresh vs session on the degree-1 grid ------------------------------
    let configs = degree1_sweep();
    let runs: Vec<GridRun> = benches.iter().map(|b| GridRun::new(b, &configs)).collect();
    let verdicts_match = runs.iter().all(|r| r.outcomes_match);

    // --- Degree-1 sweep on the running example ------------------------------
    let running = &runs[0];
    let ts = &running.ts;
    let fresh: Vec<bool> = running.fresh.iter().map(ProofResult::is_non_terminating).collect();
    let dense_configs = with_each(&configs, |c| c.entailment.lp_engine = LpEngine::Dense);
    let dense_start = Instant::now();
    let dense: Vec<bool> =
        dense_configs.iter().map(|c| prove(ts, c).is_non_terminating()).collect();
    let sweep_dense_secs = dense_start.elapsed().as_secs_f64();

    let lp_stats = running.session.stats().aggregate.lp;
    let warm_hit_rate = if lp_stats.warm_lookups == 0 {
        0.0
    } else {
        lp_stats.warm_hits as f64 / lp_stats.warm_lookups as f64
    };

    // The abstract-interpretation pre-analysis: time the fixpoint itself,
    // then run the same sessioned sweep with the whole absint machinery off
    // (pre-analysis prunes and interval entailment fast paths).  The absint
    // contract is sound-pruning-only, so the on/off verdicts must be
    // identical; the counters below are how `ci.sh` checks the machinery
    // actually engaged on the running example.
    let absint_start = Instant::now();
    let absint_state = revterm_absint::analyze(ts);
    let absint_analyze_secs = absint_start.elapsed().as_secs_f64();
    std::hint::black_box(absint_state.is_reachable(ts.init_loc()));
    let absint_fast_paths = lp_stats.absint_fast_paths;
    let absint_prunes = running.session.stats().aggregate.absint_prunes;
    let off_configs = with_each(&configs, |c| c.entailment.interval_fast_path = false);
    let mut off_session = ProverSession::new(ts.clone());
    let off_start = Instant::now();
    let off_report = off_session.sweep(&off_configs, usize::MAX);
    let sweep_absint_off_secs = off_start.elapsed().as_secs_f64();
    let absint_off: Vec<bool> = off_report.outcomes.iter().map(|o| o.proved).collect();
    let off_lp_stats = off_session.stats().aggregate.lp;
    let absint_off_clean =
        off_lp_stats.absint_fast_paths == 0 && off_session.stats().aggregate.absint_prunes == 0;

    let digest_of = |verdicts: &[bool]| {
        let mut d = Fnv64::new();
        for &p in verdicts {
            d.write(if p { b"1" } else { b"0" });
        }
        d.finish()
    };
    let verdict_digest = digest_of(&fresh);
    let verdict_dense_digest = digest_of(&dense);
    let verdict_digests_match = verdict_digest == verdict_dense_digest;
    let verdict_absint_off_digest = digest_of(&absint_off);
    let absint_verdicts_match = verdict_absint_off_digest == verdict_digest;

    // --- Degree-2 cells of the running example, one session -------------
    // Every LP above is a degree-1 LP, small enough for the simplex
    // kernel's `i64` words. The degree-2 cells' Handelman LPs have up to 71
    // rows, and some of them leave the words and are solved again over
    // `Int`, so this sweep pins the LP path of both word tiers.
    let degree2: Vec<_> = default_sweep().into_iter().filter(|c| c.params.degree == 2).collect();
    let mut degree2_session = ProverSession::new(ts.clone());
    let degree2_start = Instant::now();
    let degree2_report = degree2_session.sweep(&degree2, usize::MAX);
    let degree2_secs = degree2_start.elapsed().as_secs_f64();
    let degree2_lp = degree2_session.stats().aggregate.lp;
    let degree2_verdicts: Vec<bool> = degree2_report.outcomes.iter().map(|o| o.proved).collect();
    let degree2_verdict_digest = digest_of(&degree2_verdicts);

    let json = Json::obj(vec![
        ("lp_problems", count(problems.len() + queries.len())),
        ("lp_feasible", count(feasible)),
        ("lp_secs", fixed(lp_secs, 3)),
        ("lp_digest", hex(lp_digest)),
        ("lp_dense_secs", fixed(lp_dense_secs, 3)),
        ("lp_dense_digest", hex(lp_dense_digest)),
        ("lp_digests_match", Json::from(lp_digests_match)),
        ("poly_mul_secs", fixed(poly_mul_secs, 3)),
        ("poly_mul_digest", hex(poly_mul_digest)),
        ("poly_digests_match", Json::from(poly_digests_match)),
        ("poly_hash_secs", fixed(poly_hash_secs, 3)),
        ("poly_hash_allocs", Json::from(poly_hash_allocs)),
        ("interned_monomials", count(interned_monomials)),
        ("sweep_benchmark", Json::from(running.name)),
        ("sweep_configs", count(configs.len())),
        ("sweep_fresh_secs", fixed(running.fresh_secs, 3)),
        ("sweep_dense_secs", fixed(sweep_dense_secs, 3)),
        ("sweep_session_secs", fixed(running.session_secs, 3)),
        ("session_lp_solves", Json::from(lp_stats.solves)),
        ("session_lp_pivots", Json::from(lp_stats.pivots)),
        ("session_lp_refactorizations", Json::from(lp_stats.refactorizations)),
        ("session_warm_lookups", Json::from(lp_stats.warm_lookups)),
        ("session_warm_hits", Json::from(lp_stats.warm_hits)),
        ("session_warm_hit_rate", fixed(warm_hit_rate, 3)),
        ("absint_analyze_secs", fixed(absint_analyze_secs, 6)),
        ("absint_fast_paths", Json::from(absint_fast_paths)),
        ("absint_prunes", Json::from(absint_prunes)),
        ("sweep_absint_off_secs", fixed(sweep_absint_off_secs, 3)),
        ("verdict_digest", hex(verdict_digest)),
        ("verdict_dense_digest", hex(verdict_dense_digest)),
        ("verdict_absint_off_digest", hex(verdict_absint_off_digest)),
        ("verdict_digests_match", Json::from(verdict_digests_match)),
        ("verdicts_match", Json::from(verdicts_match)),
        ("absint_verdicts_match", Json::from(absint_verdicts_match)),
        ("degree2_configs", count(degree2.len())),
        ("degree2_secs", fixed(degree2_secs, 3)),
        ("degree2_lp_solves", Json::from(degree2_lp.solves)),
        ("degree2_lp_pivots", Json::from(degree2_lp.pivots)),
        ("degree2_warm_hits", Json::from(degree2_lp.warm_hits)),
        ("degree2_bignum_solves", Json::from(degree2_lp.bignum_solves)),
        ("degree2_verdict_digest", hex(degree2_verdict_digest)),
        ("session_vs_fresh", Json::Arr(runs.iter().map(GridRun::json).collect())),
    ]);
    println!("{json}");

    let mut failed = false;
    if !lp_digests_match {
        eprintln!("FAIL: the two LP engines produced diverging solutions");
        failed = true;
    }
    if !poly_digests_match {
        eprintln!("FAIL: flat poly kernels diverged from the BTreeMap reference");
        failed = true;
    }
    if poly_hash_allocs != 0 {
        eprintln!(
            "FAIL: entailment-key hashing allocated ({poly_hash_allocs} calls) on the packed path"
        );
        failed = true;
    }
    if !verdict_digests_match {
        eprintln!("FAIL: sweep verdicts diverged across the two LP engines");
        failed = true;
    }
    for run in runs.iter().filter(|r| !r.outcomes_match) {
        eprintln!("FAIL: sessioned outcomes diverged from fresh outcomes on {}", run.name);
        failed = true;
    }
    if lp_stats.warm_hits == 0 {
        eprintln!("FAIL: the sessioned sweep never hit the warm-start basis cache");
        failed = true;
    }
    if !absint_verdicts_match {
        eprintln!("FAIL: absint-off sweep verdicts diverged from the default sweep");
        failed = true;
    }
    if absint_fast_paths + absint_prunes == 0 {
        eprintln!("FAIL: the absint machinery never engaged on the running-example sweep");
        failed = true;
    }
    if !absint_off_clean {
        eprintln!("FAIL: the absint-off sweep still took absint paths");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
