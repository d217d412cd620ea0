//! Session/fresh equivalence: a warm [`ProverSession`] must return exactly
//! the outcomes of the free-function entry point, down to the certificate,
//! because every session cache is a pure memo table.

use revterm::{outcome_digest, prove, quick_sweep, ProverSession};
use revterm_suite::curated_benchmarks;

/// Three cheap benchmarks spanning the interesting outcomes: a simple
/// non-terminating loop (Check 1 at the first config), the paper's running
/// example (needs a resolution of non-determinism), and a terminating
/// program (every configuration must stay `Unknown`).
const BENCHMARKS: &[&str] = &["nt_counter_up", "paper_fig1_running", "t_counter_down"];

#[test]
fn session_verdicts_match_fresh_verdicts_on_quick_sweep() {
    let suite = curated_benchmarks();
    for name in BENCHMARKS {
        let bench = suite.iter().find(|b| b.name == *name).expect("benchmark exists");
        let ts = bench.transition_system();
        let mut session = ProverSession::new(ts.clone());
        for config in quick_sweep() {
            // The outcome digest folds in the label, the verdict and the
            // whole certificate, so a session that served a different (if
            // valid) invariant fails here.
            let fresh = prove(&ts, &config);
            let sessioned = session.prove(&config);
            assert_eq!(
                outcome_digest(&fresh, &ts),
                outcome_digest(&sessioned, &ts),
                "outcome mismatch on {name} with {}",
                config.label()
            );
        }
        assert_eq!(session.stats().proves, quick_sweep().len());
    }
}

#[test]
fn cache_hit_counters_increment_on_the_second_config() {
    let suite = curated_benchmarks();
    let bench = suite.iter().find(|b| b.name == "paper_fig1_running").expect("benchmark exists");
    let mut session = bench.session();
    let configs = quick_sweep();
    let cold = session.prove(&configs[0]);
    assert_eq!(cold.stats.artifact_cache_hits, 0, "cold run cannot hit session caches");
    let warm = session.prove(&configs[1]);
    assert!(
        warm.stats.artifact_cache_hits > 0,
        "second config should reuse session artifacts: {:?}",
        warm.stats
    );
    assert!(
        warm.stats.entailment_cache_hits > 0,
        "second config should reuse entailment answers: {:?}",
        warm.stats
    );
    let totals = session.stats();
    assert_eq!(totals.proves, 2);
    assert!(totals.aggregate.total_cache_hits() >= warm.stats.total_cache_hits());
}
