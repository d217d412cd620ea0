//! The always-on fuzzing gates: corpus replay, printer/parser round trip,
//! deadline and entailment-cap behaviour on generated and curated programs,
//! and the injected-flip demo that proves the differential harness catches a
//! lying prover end to end.

use revterm::{outcome_digest, prove, Budget, CheckKind, ProverConfig, ProverSession, Verdict};
use revterm_fuzzgen::{
    default_portfolio, differential, generate_batch, load_dir, shrink, DiffOptions, FailureKind,
    GenConfig,
};
use revterm_lang::{parse_program, pretty_print};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../fuzz_regressions")
}

/// The fuzzing portfolio with `deadline` written into every configuration's
/// budget, the way the daemon and the CLI apply a request deadline.
fn portfolio_until(deadline: Instant) -> Vec<ProverConfig> {
    let mut portfolio = default_portfolio();
    for config in &mut portfolio {
        config.budget.deadline = Some(deadline);
    }
    portfolio
}

/// Every checked-in repro file must load, and replaying it through the full
/// four-oracle differential harness must pass — a corpus entry that fails
/// again means a regression of the bug (or slowdown) it pins.
#[test]
fn regression_corpus_replays_clean() {
    let cases = load_dir(&corpus_dir())
        .unwrap_or_else(|(file, e)| panic!("corpus file {file} failed to load: {e}"));
    assert!(cases.len() >= 8, "corpus unexpectedly small: {} files", cases.len());
    let opts = DiffOptions::default();
    for case in cases {
        let report = differential(&case.program, case.label, &opts)
            .unwrap_or_else(|e| panic!("{}: program rejected: {e}", case.name));
        assert!(report.passed(), "{}: corpus replay failed: {:?}", case.name, report.failures);
    }
}

/// Generated programs are canonical by construction, so the printer and the
/// parser must be exact inverses on them: `parse(pretty_print(p)) == p`.
#[test]
fn pretty_print_reparse_round_trip_on_generated_programs() {
    let batch = generate_batch(0x0c0f_fee5, 200, &GenConfig::default());
    for g in &batch {
        let printed = pretty_print(&g.program);
        let reparsed = parse_program(&printed)
            .unwrap_or_else(|e| panic!("seed {:016x}: reprint did not parse: {e}", g.seed));
        assert_eq!(reparsed, g.program, "seed {:016x}: round trip changed the program", g.seed);
    }
}

/// An already-expired deadline must surface as a structured `Timeout` —
/// never a panic, never a bogus verdict — and must not poison the session:
/// the same session must afterwards produce the verdict a fresh one does.
#[test]
fn expired_deadline_is_structured_timeout_and_does_not_poison_session() {
    let portfolio = default_portfolio();
    for g in generate_batch(0xdead_11fe, 10, &GenConfig::default()) {
        let ts = revterm_ts::lower(&g.program).expect("generated programs lower");
        let mut session = ProverSession::new(ts.clone());
        let cut = session.prove_first(&portfolio_until(Instant::now()));
        assert!(cut.timed_out(), "seed {:016x}: 0-ms deadline must time out", g.seed);
        assert!(cut.certificate().is_none());

        let warm = session.prove_first(&portfolio);
        let fresh = ProverSession::new(ts.clone()).prove_first(&portfolio);
        assert_eq!(
            outcome_digest(&warm, &ts),
            outcome_digest(&fresh, &ts),
            "seed {:016x}: session poisoned by the timed-out run",
            g.seed
        );
    }
}

/// A deadline that expires *mid-run* (the prover takes well over a
/// millisecond on this nested program) is also a structured `Timeout`, and
/// the budget cut must not leak a truncated synthesis into the caches.
#[test]
fn midrun_deadline_is_structured_timeout_and_does_not_poison_session() {
    let case = load_dir(&corpus_dir())
        .expect("corpus loads")
        .into_iter()
        .find(|c| c.name == "pump-equality-nested-sink")
        .expect("pinned heavy program present");
    let ts = revterm_ts::lower(&case.program).expect("corpus programs lower");
    let portfolio = default_portfolio();
    let mut session = ProverSession::new(ts.clone());
    let cut = session.prove_first(&portfolio_until(Instant::now() + Duration::from_millis(1)));
    assert!(cut.timed_out(), "1-ms deadline must cut this program mid-run");

    let warm = session.prove_first(&portfolio);
    let fresh = ProverSession::new(ts.clone()).prove_first(&portfolio);
    assert!(warm.is_non_terminating(), "prover should still prove the pinned program");
    assert_eq!(
        outcome_digest(&warm, &ts),
        outcome_digest(&fresh, &ts),
        "session poisoned by the mid-run timeout"
    );
}

/// The entailment cap is a hard bound that cuts nothing that fits: on the
/// curated suite and a generated family, under both fuzzing configurations
/// with no time limit, a prove capped at `c` makes at most `c` lookups, and
/// a prove that finished after `L` lookups reaches the same outcome under a
/// cap of `L + 1`.
#[test]
fn the_entailment_cap_bounds_every_prove_and_cuts_nothing_that_fits() {
    let programs = revterm_suite::curated_benchmarks()
        .into_iter()
        .filter(|b| b.name != "nt_square_growth")
        .chain(revterm_suite::fuzz_family(0x5eed_f22d, 40));
    let mut portfolio = default_portfolio();
    for config in &mut portfolio {
        config.budget.time_limit = None;
    }
    let capped = |config: &ProverConfig, cap: u64| {
        let mut config = config.clone();
        config.budget.max_entailment_calls = Some(cap);
        config
    };
    let (mut finished, mut cut) = (0, 0);
    for benchmark in programs {
        let ts = benchmark.transition_system();
        for config in &portfolio {
            for cap in [0, 1, 25, 200] {
                let result = prove(&ts, &capped(config, cap));
                let case = format!("{} under {} capped at {cap}", benchmark.name, config.label());
                assert!(result.stats.entailment_calls <= cap, "{case}: {:?}", result.stats);
                if cap < 200 {
                    continue;
                }
                if result.timed_out() {
                    cut += 1;
                    continue;
                }
                finished += 1;
                let lookups = result.stats.entailment_calls;
                let tight = prove(&ts, &capped(config, lookups + 1));
                assert_eq!(
                    outcome_digest(&tight, &ts),
                    outcome_digest(&result, &ts),
                    "{case}: the same prove capped at {} lookups",
                    lookups + 1
                );
            }
        }
    }
    assert!(finished > 0 && cut > 0, "{finished} finished and {cut} cut under the cap of 200");
}

/// A deadline binds inside a synthesis, not only between them: unbounded,
/// Check 2 on these fourteen variables runs for about half a minute, nearly
/// all of it inside its one `BI` synthesis. A deadline 500 ms ahead falls
/// inside `Ĩ`, whose transition batches are short; one 2 s ahead falls
/// inside `BI` on a 2-vCPU VM, where one batch runs for over 20 s, so only
/// a poll inside the batch ends the prove soon after the deadline.
#[test]
fn a_deadline_binds_mid_synthesis() {
    const FOURTEEN_VARS: &str = "a := -40; b := -30; c := -20; d := -10; \
        while a >= 3 do a := a + 1; b := b + 1; c := c + 1; d := d + 1; e := e + 5; \
        f := f + 7; g := g + 1; h := h + 1; i := i + 1; j := j + 1; k := k + 1; \
        l := l + 1; m := m + 1; n := n + 1; od";
    let ts = revterm::lower_source(FOURTEEN_VARS).expect("the program lowers");
    for ahead in [500, 2_000].map(Duration::from_millis) {
        let budget = Budget { deadline: Some(Instant::now() + ahead), ..Budget::unlimited() };
        let config = ProverConfig::builder().check(CheckKind::Check2).budget(budget).build();
        let result = prove(&ts, &config);
        assert!(matches!(result.verdict, Verdict::Timeout), "{ahead:?}: {:?}", result.verdict);
        assert!(result.elapsed < Duration::from_secs(5), "{ahead:?}: {:?}", result.elapsed);
    }
}

/// The harness demo required by the issue: inject a verdict flip, watch the
/// oracles catch it, and shrink the failure to a trivial repro (≤ 5
/// transitions) with the built-in shrinker.
#[test]
fn injected_verdict_flip_is_caught_and_shrinks_to_tiny_repro() {
    let program = parse_program("n := 3; while n >= 0 do n := n - 1; od").unwrap();
    let opts = DiffOptions { inject_flip: true };
    let label = revterm_fuzzgen::KnownLabel::Terminating;

    let report = differential(&program, label, &opts).unwrap();
    assert!(
        report.failures.iter().any(|f| f.kind == FailureKind::VerdictMismatch),
        "flip must surface as a verdict mismatch: {:?}",
        report.failures
    );

    let small = shrink(&program, 200, |p| {
        differential(p, label, &opts)
            .is_ok_and(|r| r.failures.iter().any(|f| f.kind == FailureKind::VerdictMismatch))
    });
    let small_ts = revterm_ts::lower(&small).expect("shrunk program lowers");
    assert!(
        small_ts.transitions().len() <= 5,
        "shrinker should minimize the flip repro to <= 5 transitions, got {}:\n{}",
        small_ts.transitions().len(),
        pretty_print(&small)
    );
    // The shrunk program still reproduces, so it would land in the corpus.
    let re = differential(&small, label, &opts).unwrap();
    assert!(re.failures.iter().any(|f| f.kind == FailureKind::VerdictMismatch));
}
