//! Shared infrastructure for the table-reproduction harness.
//!
//! Each table of the paper's evaluation (Section 6 and Appendix B) has a
//! dedicated binary in `src/bin/` that runs the relevant experiment on the
//! benchmark suite of `revterm-suite` and prints the table in the same format
//! as the paper.  This library holds the plumbing they share: running the
//! RevTerm configuration sweep and the baseline provers on every benchmark
//! and aggregating the NO / YES / MAYBE counts, unique NOs and timing
//! statistics.
//!
//! Scale note: the paper uses the 335-program TermComp'19 suite with a 60 s
//! timeout per configuration on a Xeon server; this reproduction uses the
//! substitute corpus of `revterm-suite` (see its crate docs and the crate
//! map in `ARCHITECTURE.md`) with per-program work bounded by the prover's
//! internal budgets, so absolute counts and times differ while the
//! comparison structure is preserved.
//!
//! # Harness JSON schemas
//!
//! Besides the table bins, three harness bins print machine-readable JSON so
//! that perf and correctness trajectories can be compared across commits
//! without reading the binaries. All exit non-zero on any equivalence
//! failure, so a CI-green run certifies every comparison below.
//!
//! ## `num_profile` (one JSON object per run)
//!
//! Profiles the exact-arithmetic/LP hot path and holds the prover session
//! to its contract. *Digest semantics*: digests
//! are FNV-1a hashes folded over the decimal renderings of every computed
//! value, so equal digests mean **bitwise-identical** results (same exact
//! rationals, not just same verdicts) — across runs, across commits, and
//! across both LP engines (revised simplex, dense reference tableau).
//!
//! | field | meaning |
//! |---|---|
//! | `lp_problems` | number of LP instances + entailment-chain queries in the microloop |
//! | `lp_feasible` | how many of those were feasible/entailed (workload shape check) |
//! | `lp_secs` | seconds for the whole microloop through the revised engine ([`revterm_solver::LpProblem::solve`], the default) |
//! | `lp_digest` | FNV-1a digest of every LP solution and Farkas witness from the revised run |
//! | `lp_dense_secs` | same workload through the dense reference engine ([`revterm_solver::LpProblem::solve_dense`]) |
//! | `lp_dense_digest` | digest of the dense run; must equal `lp_digest` |
//! | `lp_digests_match` | two-way digest agreement (process exits 1 when false) |
//! | `poly_mul_secs` | seconds for the poly-kernel microloop: flat merge-multiply over a two-tier monomial family |
//! | `poly_mul_digest` | digest of every product's term list from the flat kernels |
//! | `poly_digests_match` | flat kernels vs `BTreeMap` reference agreement (exit 1 when false) |
//! | `poly_hash_secs` | seconds to hash the entailment-chain cache keys as flat word streams |
//! | `poly_hash_allocs` | allocator calls during that hashing loop — must be 0 on the packed path (exit 1 otherwise) |
//! | `interned_monomials` | size of the process-global large-monomial intern pool ([`revterm_poly::mono_pool_stats`]) |
//! | `sweep_benchmark` | benchmark used for the sweep workload (the paper's running example) |
//! | `sweep_configs` | number of degree-1 grid cells swept (24) |
//! | `sweep_fresh_secs` | fresh per-configuration `prove` calls, revised engine |
//! | `sweep_dense_secs` | the same fresh sweep forced onto the dense tableau |
//! | `sweep_session_secs` | the same grid through one warm [`revterm::ProverSession`] (`prove` per cell) |
//! | `session_lp_solves` | LP solves issued by the sessioned sweep ([`revterm::ProveStats::lp`] totals) |
//! | `session_lp_pivots` | simplex pivots across those solves |
//! | `session_lp_refactorizations` | warm-start basis refactorizations |
//! | `session_warm_lookups` | solves that consulted the bases stored in the session's [`revterm_solver::EntailmentCache`] |
//! | `session_warm_hits` | of those, resumed from a stored basis (exit 1 when zero) |
//! | `session_warm_hit_rate` | `session_warm_hits / session_warm_lookups` |
//! | `absint_analyze_secs` | seconds for the running example's interval fixpoint ([`revterm_absint::analyze`]) |
//! | `absint_fast_paths` | entailment queries the sessioned sweep answered from the interval closure |
//! | `absint_prunes` | probe batches the sessioned sweep skipped on the pre-analysis (exit 1 when both are zero) |
//! | `sweep_absint_off_secs` | the sessioned sweep again with the pre-analysis off (exit 1 if it takes an absint path) |
//! | `verdict_digest` | digest of the per-cell fresh verdicts (revised engine) |
//! | `verdict_dense_digest` | digest of the dense-tableau sweep verdicts; must equal `verdict_digest` |
//! | `verdict_absint_off_digest` | digest of the absint-off sweep verdicts |
//! | `verdict_digests_match` | two-way sweep agreement (exit 1 when false) |
//! | `verdicts_match` | every `session_vs_fresh` entry's `verdicts_match` holds (exit 1 when false) |
//! | `absint_verdicts_match` | `verdict_absint_off_digest == verdict_digest` (exit 1 when false) |
//! | `degree2_configs` | degree-2 cells of [`revterm::default_sweep`] swept on the running example (24), one session, no time limit |
//! | `degree2_secs` | seconds for that sweep |
//! | `degree2_lp_solves` | LP solves issued by the degree-2 sweep |
//! | `degree2_lp_pivots` | simplex pivots across those solves |
//! | `degree2_warm_hits` | of those solves, resumed from a stored basis |
//! | `degree2_bignum_solves` | of those solves, re-solved over [`revterm_num::Int`] after their numbers left `i64` ([`revterm_solver::LpStats::bignum_solves`]) |
//! | `degree2_verdict_digest` | digest of the degree-2 cells' verdicts |
//! | `session_vs_fresh` | one entry per benchmark swept fresh and sessioned: the running example, then the names given after `lp_iters` (default `nt_counter_up paper_fig2_small`) |
//!
//! ### `session_vs_fresh` entries
//!
//! Each entry measures the session-API speedup on one benchmark's degree-1
//! grid and checks that the session's outcomes are the fresh ones.
//!
//! | field | meaning |
//! |---|---|
//! | `benchmark` | benchmark name (from `revterm --list`) |
//! | `configs` | grid cells swept (24) |
//! | `proved_cells` | cells that proved non-termination |
//! | `fresh_secs` | cold per-configuration `prove` calls |
//! | `session_secs` | the same grid through one warm session |
//! | `speedup` | `fresh_secs / session_secs` |
//! | `verdicts_match` | per-cell agreement of fresh and sessioned [`revterm::api::outcome_digest`]s — label, verdict and certificate, Check 2's witness path included (exit 1 when false) |
//! | `fresh_synthesis_calls` | Houdini syntheses the fresh per-configuration `prove` calls ran, summed over the grid |
//! | `synthesis_calls` | Houdini syntheses the sessioned sweep ran. The session memoizes each one under the pool key `(c, degree)` and the entailment options, so a cell that repeats another cell's synthesis inputs runs none of its own: every `d = 2` cell repeats its `d = 1` twin's |
//! | `entailment_calls` | entailment queries issued by the sessioned sweep |
//! | `entailment_cache_hits` | of those, answered from [`revterm_solver::EntailmentCache`] |
//! | `probe_cache_hits` | divergence-probe results reused across cells |
//! | `artifact_cache_hits` | resolutions/initials/pools/systems reused across cells |
//! | `lp_solves` | LP solves issued by the sessioned sweep |
//! | `lp_pivots` | simplex pivots across those solves |
//! | `lp_refactorizations` | warm-start basis refactorizations |
//! | `lp_warm_lookups` | solves that consulted the bases stored in the session's [`revterm_solver::EntailmentCache`] |
//! | `lp_warm_hits` | of those, resumed from a stored optimal basis |
//!
//! ## `serve_smoke` (one JSON object per run)
//!
//! Boots an in-process `revterm-serve` daemon on an ephemeral port and
//! holds it to the service contract (see `PROTOCOL.md`): digest-identical
//! verdicts vs in-process runs, pooled warm sessions on repeat requests,
//! and structured timeouts that leave the daemon healthy.
//!
//! | field | meaning |
//! |---|---|
//! | `digest` | the verdict digest both the daemon and the in-process run produced |
//! | `prove_cold_us` | wall-clock of the first (pool-miss) daemon prove |
//! | `prove_warm_us` | wall-clock of the repeated (pool-hit) daemon prove |
//! | `pool_hits` | session-pool hits reported by the daemon's metrics (exit 1 when 0) |
//! | `timeout_structured` | a zero deadline produced a `timeout` verdict, not an error |
//! | `verdicts_match` | daemon vs in-process digest agreement (exit 1 when false) |
//!
//! ## `fuzz_drive` (one JSON object per run)
//!
//! Differential fuzzing: a seeded batch of labelled random programs
//! ([`revterm_fuzzgen::generate_batch`]) each run through the four-oracle
//! harness ([`revterm_fuzzgen::differential`]) — baseline claim table,
//! independent certificate validation, absint on/off digests, and the
//! revised LP engine against the dense reference. Any failing program is
//! minimized in-process by the fuzzgen shrinker and embedded in the JSON
//! (and written to `--harvest DIR` as a repro file for
//! `tests/fuzz_regressions/`). Exits non-zero on any oracle failure or
//! missing known-label coverage.
//!
//! | field | meaning |
//! |---|---|
//! | `count` | programs generated and driven through the harness |
//! | `seed` | master seed of the batch (full provenance with the default [`revterm_fuzzgen::GenConfig`]) |
//! | `inject_flip` | whether the verdict-flip fault injection was on (harness self-test; CI runs with it off) |
//! | `passed` | no oracle failures and coverage held (the process exit status) |
//! | `coverage_ok` | both known labels generated and at least one labelled-NT program proved |
//! | `labels` | programs per known-by-construction label |
//! | `families` | programs per generator family |
//! | `proved_nontermination` | programs the portfolio proved non-terminating |
//! | `label_nt_proved` | of those, programs whose label was already `non-terminating` |
//! | `timeouts` | primary runs cut short by the portfolio budget (digest axes skipped there) |
//! | `failure_counts` | oracle failures by kind (`verdict-mismatch` / `invalid-certificate` / `digest-divergence`) |
//! | `failing` | per-failure records: seed, family, label, failure details, shrunk repro source |
//! | `elapsed_ms` | wall-clock for the whole batch |
//! | `validate_ms` | wall-clock the certificate-validation oracle spent (`validate_certificate` on each primary certificate), part of `elapsed_ms`; the shrinker's re-runs are not counted |

use revterm::{ProverConfig, SweepReport};
use revterm_baselines::{BaselineProver, BaselineVerdict, RankingProver};
use revterm_suite::{Benchmark, Expected};
use std::time::Duration;

/// Result of running RevTerm (a configuration sweep) on one benchmark.
#[derive(Debug, Clone)]
pub struct RevTermRun {
    /// The benchmark name.
    pub name: String,
    /// Ground truth.
    pub expected: Expected,
    /// The sweep report.
    pub report: SweepReport,
}

/// Result of running one baseline on one benchmark.
#[derive(Debug, Clone)]
pub struct BaselineRun {
    /// The benchmark name.
    pub name: String,
    /// Ground truth.
    pub expected: Expected,
    /// The verdict.
    pub verdict: BaselineVerdict,
    /// Wall-clock time.
    pub elapsed: Duration,
}

/// Runs the RevTerm sweep on every benchmark, one prover session per
/// benchmark so that the whole configuration grid shares derived artifacts.
pub fn run_revterm(
    suite: &[Benchmark],
    configs: &[ProverConfig],
    stop_after: usize,
) -> Vec<RevTermRun> {
    suite
        .iter()
        .map(|b| {
            let mut session = b.session();
            let report = session.sweep(configs, stop_after);
            // Soundness cross-check against the ground truth.
            if report.proved() {
                assert_ne!(
                    b.expected,
                    Expected::Terminating,
                    "soundness violation: {} proved non-terminating but labelled terminating",
                    b.name
                );
            }
            RevTermRun { name: b.name.to_string(), expected: b.expected, report }
        })
        .collect()
}

/// Runs a baseline prover (for NO answers) together with the ranking prover
/// (for YES answers) on every benchmark, mimicking a combined
/// termination/non-termination tool.
pub fn run_baseline(suite: &[Benchmark], prover: &dyn BaselineProver) -> Vec<BaselineRun> {
    let ranking = RankingProver;
    suite
        .iter()
        .map(|b| {
            let ts = b.transition_system();
            let nt = prover.analyze(&ts);
            let (verdict, elapsed) = match nt.verdict {
                BaselineVerdict::NonTerminating => (BaselineVerdict::NonTerminating, nt.elapsed),
                _ => {
                    let term = ranking.analyze(&ts);
                    match term.verdict {
                        BaselineVerdict::Terminating => {
                            (BaselineVerdict::Terminating, nt.elapsed + term.elapsed)
                        }
                        _ => (BaselineVerdict::Unknown, nt.elapsed + term.elapsed),
                    }
                }
            };
            if verdict == BaselineVerdict::NonTerminating {
                assert_ne!(
                    b.expected,
                    Expected::Terminating,
                    "baseline soundness violation on {}",
                    b.name
                );
            }
            if verdict == BaselineVerdict::Terminating {
                assert_ne!(
                    b.expected,
                    Expected::NonTerminating,
                    "baseline soundness violation on {}",
                    b.name
                );
            }
            BaselineRun { name: b.name.to_string(), expected: b.expected, verdict, elapsed }
        })
        .collect()
}

/// Aggregate statistics in the shape of the paper's Tables 1 and 2 rows.
#[derive(Debug, Clone, Default)]
pub struct ToolColumn {
    /// Tool name.
    pub tool: String,
    /// Benchmarks proved non-terminating.
    pub no: usize,
    /// Benchmarks proved terminating.
    pub yes: usize,
    /// Benchmarks with no verdict.
    pub maybe: usize,
    /// Benchmarks proved non-terminating by this tool only.
    pub unique_no: usize,
    /// Average time over all solved benchmarks (seconds).
    pub avg_time: f64,
    /// Standard deviation of the time over all solved benchmarks (seconds).
    pub std_time: f64,
    /// Average time over NO-answers only (seconds).
    pub avg_time_no: f64,
    /// Standard deviation over NO-answers only (seconds).
    pub std_time_no: f64,
}

fn mean_std(times: &[f64]) -> (f64, f64) {
    if times.is_empty() {
        return (0.0, 0.0);
    }
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    let var = times.iter().map(|t| (t - mean) * (t - mean)).sum::<f64>() / times.len() as f64;
    (mean, var.sqrt())
}

/// Builds a [`ToolColumn`] for RevTerm from sweep results.  As in the paper,
/// the per-benchmark time is the time of the fastest successful configuration
/// (RevTerm's configurations are independent and would be run in parallel).
pub fn revterm_column(runs: &[RevTermRun], no_sets: &[Vec<String>]) -> ToolColumn {
    let proved: Vec<&RevTermRun> = runs.iter().filter(|r| r.report.proved()).collect();
    let times: Vec<f64> = proved
        .iter()
        .map(|r| r.report.fastest_success().map_or(0.0, |o| o.elapsed.as_secs_f64()))
        .collect();
    let (avg, std) = mean_std(&times);
    let mine: Vec<String> = proved.iter().map(|r| r.name.clone()).collect();
    let unique = mine.iter().filter(|n| !no_sets.iter().any(|other| other.contains(n))).count();
    ToolColumn {
        tool: "RevTerm".to_string(),
        no: proved.len(),
        yes: 0,
        maybe: runs.len() - proved.len(),
        unique_no: unique,
        avg_time: avg,
        std_time: std,
        avg_time_no: avg,
        std_time_no: std,
    }
}

/// Builds a [`ToolColumn`] for a baseline tool.
pub fn baseline_column(tool: &str, runs: &[BaselineRun], no_sets: &[Vec<String>]) -> ToolColumn {
    let no: Vec<&BaselineRun> =
        runs.iter().filter(|r| r.verdict == BaselineVerdict::NonTerminating).collect();
    let yes = runs.iter().filter(|r| r.verdict == BaselineVerdict::Terminating).count();
    let solved_times: Vec<f64> = runs
        .iter()
        .filter(|r| r.verdict != BaselineVerdict::Unknown)
        .map(|r| r.elapsed.as_secs_f64())
        .collect();
    let no_times: Vec<f64> = no.iter().map(|r| r.elapsed.as_secs_f64()).collect();
    let (avg, std) = mean_std(&solved_times);
    let (avg_no, std_no) = mean_std(&no_times);
    let mine: Vec<String> = no.iter().map(|r| r.name.clone()).collect();
    let unique = mine.iter().filter(|n| !no_sets.iter().any(|other| other.contains(n))).count();
    ToolColumn {
        tool: tool.to_string(),
        no: no.len(),
        yes,
        maybe: runs.len() - no.len() - yes,
        unique_no: unique,
        avg_time: avg,
        std_time: std,
        avg_time_no: avg_no,
        std_time_no: std_no,
    }
}

/// The names of benchmarks a RevTerm sweep proved non-terminating.
pub fn revterm_no_set(runs: &[RevTermRun]) -> Vec<String> {
    runs.iter().filter(|r| r.report.proved()).map(|r| r.name.clone()).collect()
}

/// The names of benchmarks a baseline proved non-terminating.
pub fn baseline_no_set(runs: &[BaselineRun]) -> Vec<String> {
    runs.iter()
        .filter(|r| r.verdict == BaselineVerdict::NonTerminating)
        .map(|r| r.name.clone())
        .collect()
}

/// Prints a table of tool columns in the layout of the paper's Tables 1/2.
pub fn print_tool_table(title: &str, columns: &[ToolColumn]) {
    println!("\n=== {title} ===");
    print!("{:<18}", "");
    for c in columns {
        print!("{:>14}", c.tool);
    }
    println!();
    let row = |label: &str, f: &dyn Fn(&ToolColumn) -> String| {
        print!("{:<18}", label);
        for c in columns {
            print!("{:>14}", f(c));
        }
        println!();
    };
    row("NO", &|c| c.no.to_string());
    row("YES", &|c| c.yes.to_string());
    row("MAYBE", &|c| c.maybe.to_string());
    row("Unique NO", &|c| c.unique_no.to_string());
    row("Avg. time", &|c| format!("{:.2}s", c.avg_time));
    row("Std. dev.", &|c| format!("{:.2}s", c.std_time));
    row("Avg. time NO", &|c| format!("{:.2}s", c.avg_time_no));
    row("Std. dev. NO", &|c| format!("{:.2}s", c.std_time_no));
}

/// A reduced configuration grid for the per-configuration tables (Tables 3
/// and 4): sweeping the full paper grid with exact arithmetic on every
/// benchmark would take hours; the reduced grid keeps the axes (check,
/// strategy, template size) while bounding the cell count.
pub fn table_sweep_configs() -> Vec<ProverConfig> {
    use revterm::{CheckKind, Strategy};
    use revterm_invgen::TemplateParams;
    let mut configs = Vec::new();
    for &check in &[CheckKind::Check1, CheckKind::Check2] {
        for &strategy in &[Strategy::Houdini, Strategy::GuardPropagation] {
            for &(c, d, deg) in &[(1usize, 1usize, 1u32), (2, 1, 1), (3, 2, 2)] {
                configs.push(
                    ProverConfig::builder()
                        .check(check)
                        .strategy(strategy)
                        .params(TemplateParams::new(c, d, deg))
                        .build(),
                );
            }
        }
    }
    configs
}

/// Returns the benchmark suite used by the tables.  Setting the environment
/// variable `REVTERM_BENCH_FAST=1` restricts it to the curated corpus (no
/// generated instances) to keep CI runs short.
pub fn table_suite() -> Vec<Benchmark> {
    if std::env::var("REVTERM_BENCH_FAST").ok().as_deref() == Some("1") {
        revterm_suite::curated_benchmarks()
    } else {
        revterm_suite::full_suite()
    }
}
