//! Integration tests comparing RevTerm with the baseline provers — the
//! qualitative claims behind the paper's Tables 1 and 2.

use revterm::{quick_sweep, ProverConfig, ProverSession};
use revterm_baselines::{
    AccelerationProver, BaselineProver, BaselineVerdict, LassoProver, QuasiInvariantProver,
    RankingProver,
};
use revterm_integration::build;
use revterm_suite::{curated_benchmarks, Expected, APERIODIC, RUNNING_EXAMPLE};

#[test]
fn revterm_beats_lasso_on_aperiodic_divergence() {
    // Fig. 3: the lasso baseline (periodic counterexamples only) fails, the
    // set-based Check 1 succeeds — feature (b) of the introduction.
    let ts = build(APERIODIC);
    assert_eq!(LassoProver::default().analyze(&ts).verdict, BaselineVerdict::Unknown);
    assert!(ProverSession::new(ts).prove(&ProverConfig::default()).is_non_terminating());
}

#[test]
fn revterm_beats_quasi_invariants_on_nondeterminism() {
    // The running example needs a resolution of the non-deterministic
    // assignment; the quasi-invariant baseline (which must block every exit
    // for every non-deterministic choice) fails, RevTerm succeeds — feature
    // (a) of the introduction.
    let ts = build(RUNNING_EXAMPLE);
    assert_eq!(QuasiInvariantProver::default().analyze(&ts).verdict, BaselineVerdict::Unknown);
    assert!(ProverSession::new(ts).prove(&ProverConfig::default()).is_non_terminating());
}

/// A cheap always-on slice of the two corpus-wide (`#[ignore]`d) tests
/// below: baseline soundness and RevTerm dominance checked on a handful of
/// benchmarks spanning both ground-truth labels, so the default `cargo test`
/// run keeps a signal for the Table 1/2 claims at seconds instead of
/// CPU-hours of cost.
#[test]
fn baselines_and_dominance_on_a_cheap_slice() {
    let slice = ["paper_fig1_running", "nt_counter_up", "t_counter_down", "t_straightline"];
    let suite = curated_benchmarks();
    let baselines: Vec<Box<dyn BaselineProver>> = vec![
        Box::new(LassoProver::default()),
        Box::new(QuasiInvariantProver::default()),
        Box::new(AccelerationProver),
    ];
    let ranking = RankingProver;
    for name in slice {
        let bench = suite.iter().find(|b| b.name == name).expect("benchmark exists");
        let ts = bench.transition_system();
        let mut baseline_nos = 0usize;
        for prover in &baselines {
            if prover.analyze(&ts).verdict == BaselineVerdict::NonTerminating {
                assert_ne!(
                    bench.expected,
                    Expected::Terminating,
                    "{} wrongly claims non-termination of {}",
                    prover.name(),
                    bench.name
                );
                baseline_nos += 1;
            }
        }
        if ranking.analyze(&ts).verdict == BaselineVerdict::Terminating {
            assert_ne!(
                bench.expected,
                Expected::NonTerminating,
                "ranking prover wrongly claims termination of {}",
                bench.name
            );
        }
        // Dominance on the slice: whenever any baseline proves the benchmark,
        // so does the RevTerm sweep — and RevTerm proves every NO benchmark
        // of the slice regardless.
        let revterm_proved = bench.session().prove_first(&quick_sweep()).is_non_terminating();
        if bench.expected == Expected::NonTerminating {
            assert!(revterm_proved, "RevTerm should prove {} on the slice", bench.name);
        }
        assert!(
            revterm_proved || baseline_nos == 0,
            "a baseline proves {} but RevTerm does not",
            bench.name
        );
    }
}

#[test]
#[ignore = "corpus-wide exact-arithmetic sweep (4 provers × 28 benchmarks), CPU-hours on a 1-core box; run explicitly with --ignored; a cheap slice runs by default above"]
fn baselines_never_contradict_the_ground_truth() {
    let ranking = RankingProver;
    let baselines: Vec<Box<dyn BaselineProver>> = vec![
        Box::new(LassoProver::default()),
        Box::new(QuasiInvariantProver::default()),
        Box::new(AccelerationProver),
    ];
    for bench in curated_benchmarks() {
        let ts = bench.transition_system();
        for prover in &baselines {
            let verdict = prover.analyze(&ts).verdict;
            if verdict == BaselineVerdict::NonTerminating {
                assert_ne!(
                    bench.expected,
                    Expected::Terminating,
                    "{} wrongly claims non-termination of {}",
                    prover.name(),
                    bench.name
                );
            }
        }
        if ranking.analyze(&ts).verdict == BaselineVerdict::Terminating {
            assert_ne!(
                bench.expected,
                Expected::NonTerminating,
                "ranking prover wrongly claims termination of {}",
                bench.name
            );
        }
    }
}

#[test]
#[ignore = "corpus-wide exact-arithmetic sweep (RevTerm + 3 baselines over every NO benchmark), CPU-hours on a 1-core box; run explicitly with --ignored; a cheap slice runs by default above"]
fn revterm_no_set_dominates_each_baseline_on_the_curated_corpus() {
    // The headline claim of Tables 1 and 2: over the configuration sweep,
    // RevTerm proves at least as many NOs as each individual baseline, and at
    // least one benchmark that a given baseline misses.
    let no_benchmarks: Vec<_> = curated_benchmarks()
        .into_iter()
        .filter(|b| b.expected == Expected::NonTerminating)
        .collect();
    let baselines: Vec<Box<dyn BaselineProver>> = vec![
        Box::new(LassoProver::default()),
        Box::new(QuasiInvariantProver::default()),
        Box::new(AccelerationProver),
    ];
    let mut revterm_wins = 0usize;
    let mut baseline_wins = vec![0usize; baselines.len()];
    let mut revterm_unique = false;
    for bench in &no_benchmarks {
        let ts = bench.transition_system();
        let revterm_proved = bench.session().prove_first(&quick_sweep()).is_non_terminating();
        if revterm_proved {
            revterm_wins += 1;
        }
        let mut any_baseline = false;
        for (i, prover) in baselines.iter().enumerate() {
            if prover.analyze(&ts).verdict == BaselineVerdict::NonTerminating {
                baseline_wins[i] += 1;
                any_baseline = true;
            }
        }
        if revterm_proved && !any_baseline {
            revterm_unique = true;
        }
    }
    for (i, prover) in baselines.iter().enumerate() {
        assert!(
            revterm_wins >= baseline_wins[i],
            "{} proves more NOs ({}) than RevTerm ({})",
            prover.name(),
            baseline_wins[i],
            revterm_wins
        );
    }
    assert!(revterm_unique, "RevTerm should prove at least one benchmark no baseline proves");
    assert!(
        revterm_wins * 2 >= no_benchmarks.len(),
        "RevTerm should prove at least half of the NO corpus"
    );
}
