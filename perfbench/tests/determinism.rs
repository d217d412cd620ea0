//! The benchmark's determinism contract: a traced run's per-layer counts
//! depend on the workload and seed only, never on timing.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use perfbench::trace::Tracer;
use perfbench::workloads::{fuzz_batch, fuzz_cold, serve_warm, suite_deg1, suite_programs};
use perfbench::{Pass, Setup, Workload};
use revterm_suite::Benchmark;
use std::time::Instant;

fn traced() -> Tracer {
    Tracer::on(Instant::now())
}

fn programs(names: &[&str]) -> Vec<Benchmark> {
    let picked: Vec<Benchmark> =
        suite_programs().into_iter().filter(|b| names.contains(&b.name)).collect();
    assert_eq!(picked.len(), names.len(), "unknown suite program in {names:?}");
    picked
}

fn assert_clean(pass: &Pass) {
    assert!(pass.violations.is_empty(), "output checks failed: {:?}", pass.violations);
    assert_eq!(pass.errors, 0);
    assert!(!pass.tracer.spans().is_empty(), "a traced pass records spans");
}

#[test]
fn suite_deg1_counts_repeat_and_ignore_the_seed() {
    let first = Workload::SuiteDeg1.run(1, Setup::ONCE, traced());
    let second = Workload::SuiteDeg1.run(2, Setup::ONCE, traced());
    assert_clean(&first);
    assert_clean(&second);
    assert_eq!(first.ops, 37 * 24);
    assert_eq!(first.counts, second.counts);
}

#[test]
fn running_example_reproduces_the_roadmap_lp_figures() {
    let pass = suite_deg1(&programs(&["paper_fig1_running"]), Setup::ONCE, traced());
    assert_clean(&pass);
    assert_eq!(pass.counts.prove.lp.solves, 887);
    assert_eq!(pass.counts.prove.lp.warm_hits, 2);
}

#[test]
fn fuzz_cold_counts_repeat_and_the_seed_changes_the_batch() {
    let first = fuzz_cold(7, 12, Setup::ONCE, traced());
    let again = fuzz_cold(7, 12, Setup::ONCE, traced());
    assert_clean(&first);
    assert_eq!(first.counts, again.counts);

    let sources = |seed| fuzz_batch(seed, 12).into_iter().map(|g| g.source).collect::<Vec<_>>();
    assert_eq!(sources(7), sources(7));
    assert_ne!(sources(7), sources(8));
    // The seed only reorders the batch, which leaves the prover's work
    // unchanged: that keeps the workload's figures steady across seeds.
    assert_eq!(fuzz_cold(8, 12, Setup::ONCE, traced()).counts, first.counts);
}

#[test]
fn serve_warm_counts_repeat() {
    let held = programs(&["paper_fig1_running", "paper_fig3_aperiodic", "nt_counter_up"]);
    let first = serve_warm(&held, 3, 12, traced());
    let again = serve_warm(&held, 3, 12, traced());
    assert_clean(&first);
    assert_eq!(first.ops, 12);
    assert_eq!((first.counts.pool_hits, first.counts.pool_misses), (12, 0));
    assert_eq!(first.counts, again.counts);
}
