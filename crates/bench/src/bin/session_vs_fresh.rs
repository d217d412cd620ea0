//! Measures the speedup of the session-centric prover API: for each selected
//! benchmark, runs the **degree-1** configuration grid (24 cells) once with
//! fresh per-configuration `prove` calls and once through a shared
//! [`revterm::ProverSession`], checks that every cell's outcome digest —
//! label, verdict and certificate, Check 2's witness path included — is
//! identical, and prints one JSON object per benchmark so the speedup can be
//! tracked across commits.
//!
//! Only the degree-1 grid is swept: degree-2 cells pay for Handelman
//! products in every entailment query and are minutes-expensive per
//! benchmark, which would make this harness useless for routine runs.
//!
//! ```text
//! cargo run --release -p revterm-bench --bin session_vs_fresh [benchmark...]
//! ```
//!
//! With no arguments a small default set is measured (the paper's running
//! example and a cheap simple loop); pass benchmark names from
//! `revterm --list` to measure others.

use revterm::api::outcome_digest;
use revterm::{degree1_sweep, prove, ProverSession};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<String> = if args.is_empty() {
        vec!["nt_counter_up".to_string(), "paper_fig1_running".to_string()]
    } else {
        args
    };
    let suite = revterm_suite::full_suite();
    let configs = degree1_sweep();
    let mut all_matched = true;

    for name in &names {
        let Some(bench) = suite.iter().find(|b| b.name == *name) else {
            eprintln!("unknown benchmark {name:?} (see `revterm --list`)");
            std::process::exit(2);
        };
        let ts = bench.transition_system();

        // Fresh: one cold prover per configuration (the pre-session protocol).
        let fresh_start = Instant::now();
        let fresh: Vec<_> = configs.iter().map(|c| prove(&ts, c)).collect();
        let fresh_secs = fresh_start.elapsed().as_secs_f64();

        // Sessioned: the same grid through one warm session, no early stop
        // (what `ProverSession::sweep` runs, keeping each cell's result).
        let mut session = ProverSession::new(ts.clone());
        let session_start = Instant::now();
        let sessioned: Vec<_> = configs.iter().map(|c| session.prove(c)).collect();
        let session_secs = session_start.elapsed().as_secs_f64();

        let digests = |results: &[revterm::ProofResult]| -> Vec<u64> {
            results.iter().map(|r| outcome_digest(r, &ts)).collect()
        };
        let verdicts_match = digests(&fresh) == digests(&sessioned);
        all_matched &= verdicts_match;
        let agg = session.stats().aggregate;
        println!(
            "{{\"benchmark\":\"{}\",\"configs\":{},\"proved_cells\":{},\"fresh_secs\":{:.3},\"session_secs\":{:.3},\"speedup\":{:.2},\"verdicts_match\":{},\"entailment_calls\":{},\"entailment_cache_hits\":{},\"probe_cache_hits\":{},\"artifact_cache_hits\":{},\"lp_solves\":{},\"lp_pivots\":{},\"lp_refactorizations\":{},\"lp_warm_lookups\":{},\"lp_warm_hits\":{}}}",
            bench.name,
            configs.len(),
            sessioned.iter().filter(|r| r.is_non_terminating()).count(),
            fresh_secs,
            session_secs,
            if session_secs > 0.0 { fresh_secs / session_secs } else { f64::INFINITY },
            verdicts_match,
            agg.entailment_calls,
            agg.entailment_cache_hits,
            agg.probe_cache_hits,
            agg.artifact_cache_hits,
            agg.lp.solves,
            agg.lp.pivots,
            agg.lp.refactorizations,
            agg.lp.warm_lookups,
            agg.lp.warm_hits,
        );
    }

    if !all_matched {
        eprintln!("FAIL: sessioned outcomes diverged from fresh outcomes");
        std::process::exit(1);
    }
}
