//! Batch driver for the differential fuzzer, run by `scripts/ci.sh`.
//!
//! Generates a seeded batch of labelled random programs with
//! `revterm-fuzzgen`, runs every one through the four-oracle differential
//! harness ([`revterm_fuzzgen::differential`]), and prints one JSON object
//! of aggregate statistics (schema documented in the `revterm_bench` crate
//! docs). Exits non-zero if any program fails an oracle or if either
//! known-label family is missing from the batch, so a green run certifies
//! zero mismatches, all certificates validating and both label families
//! covered.
//!
//! Any failing program is minimized in-process by the fuzzgen shrinker
//! (predicate: the same failure kind reproduces) and the shrunk source is
//! embedded in the JSON; with `--harvest DIR` the failure is additionally
//! written as a self-describing `.rt` repro file ready for
//! `tests/fuzz_regressions/`.
//!
//! ```text
//! cargo run --release -p revterm-bench --bin fuzz_drive -- [count] [seed]
//!     [--harvest DIR] [--inject-flip]
//! ```
//!
//! `--inject-flip` flips every prover verdict before cross-checking — a
//! self-test of the harness (the run must then *fail* on every program the
//! portfolio decides; used manually, never in CI).

use revterm::api::json::Json;
use revterm_fuzzgen::{
    differential, generate_batch, render_repro, shrink, DiffOptions, FailureKind, GenConfig,
    KnownLabel, ReproCase,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const DEFAULT_COUNT: usize = 500;
const DEFAULT_SEED: u64 = 0x5eed_f22d;
const SHRINK_STEPS: usize = 400;

fn fail(msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    std::process::exit(1);
}

struct Args {
    count: usize,
    seed: u64,
    harvest: Option<String>,
    inject_flip: bool,
    verbose: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        count: DEFAULT_COUNT,
        seed: DEFAULT_SEED,
        harvest: None,
        inject_flip: false,
        verbose: false,
    };
    let mut positional = 0;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--harvest" => {
                let dir = iter.next().unwrap_or_else(|| fail("--harvest needs a directory"));
                args.harvest = Some(dir);
            }
            "--inject-flip" => args.inject_flip = true,
            "--verbose" => args.verbose = true,
            other => {
                let value: u64 =
                    other.parse().unwrap_or_else(|_| fail(&format!("bad argument: {other}")));
                match positional {
                    0 => args.count = value as usize,
                    1 => args.seed = value,
                    _ => fail("at most two positional arguments (count, seed)"),
                }
                positional += 1;
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let cfg = GenConfig::default();
    let opts = DiffOptions { inject_flip: args.inject_flip };
    let start = Instant::now();
    let batch = generate_batch(args.seed, args.count, &cfg);

    let mut label_counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut family_counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut failure_counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut proved_nt = 0u64;
    let mut label_nt_proved = 0u64;
    let mut timeouts = 0u64;
    let mut validate_time = Duration::ZERO;
    let mut failing = Vec::new();

    for g in &batch {
        *family_counts.entry(g.family).or_insert(0) += 1;
        *label_counts
            .entry(match g.label {
                KnownLabel::Terminating => "terminating",
                KnownLabel::NonTerminating => "non-terminating",
                KnownLabel::Unknown => "unknown",
            })
            .or_insert(0) += 1;
        if args.verbose {
            eprintln!("fuzz_drive: seed {:016x} family {} label {}", g.seed, g.family, g.label);
        }
        let report = differential(&g.program, g.label, &opts)
            .unwrap_or_else(|e| fail(&format!("seed {}: generated program rejected: {e}", g.seed)));
        if report.proved_nontermination {
            proved_nt += 1;
            if g.label == KnownLabel::NonTerminating {
                label_nt_proved += 1;
            }
        }
        if report.timed_out {
            timeouts += 1;
        }
        validate_time += report.validate_time;
        if report.passed() {
            continue;
        }
        for f in &report.failures {
            *failure_counts
                .entry(match f.kind {
                    FailureKind::VerdictMismatch => "verdict-mismatch",
                    FailureKind::InvalidCertificate => "invalid-certificate",
                    FailureKind::DigestDivergence => "digest-divergence",
                })
                .or_insert(0) += 1;
        }
        let kind = report.failures[0].kind;
        // Shrink on "the same failure kind reproduces". The shrunk program's
        // label is only as trustworthy as the generated one it came from, so
        // the repro note records the provenance.
        let small = shrink(&g.program, SHRINK_STEPS, |p| {
            differential(p, g.label, &opts).is_ok_and(|r| r.failures.iter().any(|f| f.kind == kind))
        });
        let case = ReproCase {
            name: format!("fuzz-{:016x}", g.seed),
            seed: g.seed,
            label: g.label,
            failure: Some(kind),
            note: format!("shrunk from generated family {} by fuzz_drive", g.family),
            program: small,
        };
        if let Some(dir) = &args.harvest {
            let path = format!("{dir}/{}.rt", case.name);
            std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, render_repro(&case)))
                .unwrap_or_else(|e| fail(&format!("writing {path}: {e}")));
        }
        failing.push((g, case, report));
    }

    let elapsed_ms = start.elapsed().as_millis() as u64;
    let term_count = label_counts.get("terminating").copied().unwrap_or(0);
    let nt_count = label_counts.get("non-terminating").copied().unwrap_or(0);
    let coverage_ok = term_count > 0 && nt_count > 0 && label_nt_proved > 0;
    let passed = failing.is_empty() && coverage_ok;

    let count_obj = |counts: &BTreeMap<&'static str, u64>| {
        Json::Obj(counts.iter().map(|(k, v)| ((*k).to_string(), Json::from(*v))).collect())
    };
    let json = Json::obj(vec![
        ("count", Json::from(batch.len() as u64)),
        ("seed", Json::from(args.seed)),
        ("inject_flip", Json::from(args.inject_flip)),
        ("passed", Json::from(passed)),
        ("coverage_ok", Json::from(coverage_ok)),
        ("labels", count_obj(&label_counts)),
        ("families", count_obj(&family_counts)),
        ("proved_nontermination", Json::from(proved_nt)),
        ("label_nt_proved", Json::from(label_nt_proved)),
        ("timeouts", Json::from(timeouts)),
        ("failure_counts", count_obj(&failure_counts)),
        (
            "failing",
            Json::Arr(
                failing
                    .iter()
                    .map(|(g, case, report)| {
                        Json::obj(vec![
                            ("seed", Json::from(g.seed)),
                            ("family", Json::from(g.family)),
                            ("label", Json::from(g.label.to_string())),
                            (
                                "failures",
                                Json::Arr(
                                    report
                                        .failures
                                        .iter()
                                        .map(|f| {
                                            Json::obj(vec![
                                                ("kind", Json::from(f.kind.to_string())),
                                                ("detail", Json::from(f.detail.clone())),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                            (
                                "shrunk_source",
                                Json::from(revterm_lang::pretty_print(&case.program)),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("elapsed_ms", Json::from(elapsed_ms)),
        ("validate_ms", Json::from(validate_time.as_millis() as u64)),
    ]);
    println!("{json}");

    if !coverage_ok {
        eprintln!(
            "FAIL: known-label coverage missing (terminating={term_count}, \
             non-terminating={nt_count}, label_nt_proved={label_nt_proved})"
        );
    }
    for (g, _, report) in &failing {
        for f in &report.failures {
            eprintln!("FAIL: seed {} ({}): {}: {}", g.seed, g.family, f.kind, f.detail);
        }
    }
    std::process::exit(i32::from(!passed));
}
