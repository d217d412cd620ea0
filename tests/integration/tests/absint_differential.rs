//! Differential testing of the abstract-interpretation pre-analysis.
//!
//! The `absint` machinery (interval pre-analysis plus the interval
//! entailment fast path) is contractually *sound pruning only*: with the
//! machinery on or off, every verdict and every certificate must be
//! identical.  This suite drives a SplitMix64-seeded family of random
//! programs through both modes and asserts exactly that, validating each
//! certificate with the independent checker on both sides.

use revterm::{quick_sweep, validate_certificate, ProverConfig, ProverSession};
use revterm_lang::parse_program;
use revterm_ts::lower;

/// SplitMix64 — the workspace-standard deterministic generator.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn in_range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() as i64).rem_euclid(hi - lo)
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.in_range(0, items.len() as i64) as usize]
    }
}

const VARS: &[&str] = &["x", "y", "z"];

fn expr(rng: &mut Rng) -> String {
    let v = rng.pick(VARS);
    match rng.in_range(0, 6) {
        0 => format!("{}", rng.in_range(-3, 11)),
        1 => v.to_string(),
        2 => format!("{v} + {}", rng.in_range(1, 4)),
        3 => format!("{v} - {}", rng.in_range(1, 4)),
        4 => format!("{} * {v}", rng.in_range(2, 11)),
        _ => "ndet()".to_string(),
    }
}

fn guard(rng: &mut Rng) -> String {
    let v = rng.pick(VARS);
    match rng.in_range(0, 4) {
        0 => format!("{v} >= {}", rng.in_range(-2, 10)),
        1 => format!("{v} <= {}", rng.in_range(-2, 10)),
        2 => format!("{v} >= {}", rng.pick(VARS)),
        _ => "true".to_string(),
    }
}

fn stmt(rng: &mut Rng, depth: u32) -> String {
    let whiles_allowed = depth < 2;
    match rng.in_range(0, if whiles_allowed { 4 } else { 3 }) {
        0 | 1 => format!("{} := {};", rng.pick(VARS), expr(rng)),
        2 => "skip;".to_string(),
        _ => {
            let body: String =
                (0..rng.in_range(1, 3)).map(|_| stmt(rng, depth + 1)).collect::<Vec<_>>().join(" ");
            format!("while {} do {body} od", guard(rng))
        }
    }
}

/// A random program: a couple of leading statements and always at least one
/// loop, so the non-trivial paths of both checks are exercised.
fn program(rng: &mut Rng) -> String {
    let mut stmts: Vec<String> = (0..rng.in_range(1, 3)).map(|_| stmt(rng, 1)).collect();
    let body: String = (0..rng.in_range(1, 3)).map(|_| stmt(rng, 1)).collect::<Vec<_>>().join(" ");
    stmts.push(format!("while {} do {body} od", guard(rng)));
    stmts.join(" ")
}

/// The same configuration with both halves of the absint machinery off.
fn absint_off(config: &ProverConfig) -> ProverConfig {
    let mut off = config.clone();
    off.entailment.interval_fast_path = false;
    off
}

#[test]
fn random_programs_prove_identically_with_absint_on_and_off() {
    let mut rng = Rng(0xAB51_2024);
    let mut fast_paths_on = 0u64;
    let mut prunes_on = 0u64;
    let mut round = 0usize;
    let mut attempts = 0usize;
    while round < 20 {
        attempts += 1;
        assert!(attempts < 400, "generator keeps producing unlowerable programs");
        let source = program(&mut rng);
        // Some generated programs are rejected by the lowering (a preamble
        // assignment may read a variable that has no value yet); skip those —
        // the differential contract only concerns programs the prover accepts.
        let Ok(ts) = parse_program(&source).and_then(|p| lower(&p).map_err(|e| format!("{e:?}")))
        else {
            continue;
        };
        round += 1;
        let mut on = ProverSession::new(ts.clone());
        let mut off = ProverSession::new(ts.clone());
        for config in quick_sweep() {
            let with_absint = on.prove(&config);
            let without = off.prove(&absint_off(&config));
            assert_eq!(
                with_absint.is_non_terminating(),
                without.is_non_terminating(),
                "verdict diverged on round {round} ({}) for: {source}",
                config.label()
            );
            match (with_absint.certificate(), without.certificate()) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.check_kind(), b.check_kind(), "check kind diverged: {source}");
                    assert_eq!(a.resolution(), b.resolution(), "resolution diverged: {source}");
                    validate_certificate(&ts, a, &config.entailment)
                        .expect("absint-on certificate must validate");
                    validate_certificate(&ts, b, &config.entailment)
                        .expect("absint-off certificate must validate");
                }
                (None, None) => {}
                _ => panic!("certificate presence diverged on round {round}: {source}"),
            }
        }
        fast_paths_on += on.stats().aggregate.lp.absint_fast_paths;
        prunes_on += on.stats().aggregate.absint_prunes;
        assert_eq!(
            off.stats().aggregate.lp.absint_fast_paths + off.stats().aggregate.absint_prunes,
            0,
            "absint-off sessions must never take an absint path: {source}"
        );
    }
    // The differential loop only means something if the machinery under test
    // actually engaged somewhere across the family.
    assert!(fast_paths_on > 0, "no fast path ever fired across 20 random programs");
    // Probe prunes are rarer (they need a provably unreachable terminal from
    // foreign seeds); we only record them, their digest-neutrality is covered
    // by the verdict assertions above either way.
    let _ = prunes_on;
}
