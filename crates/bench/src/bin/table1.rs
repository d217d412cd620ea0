//! Reproduces **Table 1** of the paper: RevTerm vs. Ultimate vs. VeryMax on
//! the benchmark suite (NO / YES / MAYBE counts, unique NOs, timing).
//!
//! The competitor columns are produced by the algorithmic stand-ins of
//! `revterm-baselines` (marked with `*`), and the suite is the substitute
//! corpus of `revterm-suite`; the `revterm_bench` crate docs note how its
//! scale differs from the paper's.

use revterm_baselines::{LassoProver, QuasiInvariantProver};
use revterm_bench::*;

fn main() {
    let suite = table_suite();
    println!(
        "Table 1 reproduction on {} benchmarks ({} expected NO)",
        suite.len(),
        suite.iter().filter(|b| b.expected == revterm_suite::Expected::NonTerminating).count()
    );

    // RevTerm: full sweep, stop at the first successful configuration per
    // benchmark (the paper counts a benchmark as solved if any configuration
    // solves it; times are those of the fastest successful configuration).
    let revterm_runs = run_revterm(&suite, &revterm::quick_sweep(), 1);
    let ultimate_runs = run_baseline(&suite, &LassoProver::default());
    let verymax_runs = run_baseline(&suite, &QuasiInvariantProver::default());

    let revterm_nos = revterm_no_set(&revterm_runs);
    let ultimate_nos = baseline_no_set(&ultimate_runs);
    let verymax_nos = baseline_no_set(&verymax_runs);

    let columns = vec![
        revterm_column(&revterm_runs, &[ultimate_nos.clone(), verymax_nos.clone()]),
        baseline_column("Ultimate*", &ultimate_runs, &[revterm_nos.clone(), verymax_nos]),
        baseline_column("VeryMax*", &verymax_runs, &[revterm_nos, ultimate_nos]),
    ];
    print_tool_table("Table 1: RevTerm vs Ultimate* vs VeryMax*", &columns);
}
