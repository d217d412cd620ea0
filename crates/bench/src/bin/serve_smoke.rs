//! Smoke test of the `revterm-serve` daemon, run by `scripts/ci.sh`.
//!
//! Starts an in-process daemon on an ephemeral port and holds it to the
//! service contract end to end:
//!
//! 1. a daemon `prove` verdict is **digest-identical** to the in-process
//!    verdict for the same request (the determinism contract);
//! 2. a repeated request is served by a pooled warm session (`pool_hit`
//!    must be set) from its search memo: the repeat tries no candidate and
//!    makes no synthesis call and no entailment call, so all that runs is
//!    the lookup and the exact check of the certificate;
//! 3. a zero deadline degrades to a structured `timeout` verdict, a one-second
//!    deadline cuts a search that would run for half a minute and answers
//!    `timeout` within five seconds, and the daemon keeps answering
//!    correctly afterwards;
//! 4. `sweep`, `analyze`, `metrics` and `shutdown` all flow through the
//!    wire protocol.
//!
//! Prints one JSON line with the observed latencies so CI archives an
//! artifact; exits non-zero on any divergence.
//!
//! ```text
//! cargo run --release -p revterm-bench --bin serve_smoke
//! ```

use revterm::api::json::Json;
use revterm::api::{hex_digest, outcome_digest};
use revterm::{quick_sweep, ProverSession};
use revterm_serve::{serve, Client, ServeConfig};
use std::time::Instant;

const RUNNING: &str = "while x >= 9 do x := ndet(); y := 10 * x; while x <= y do x := x + 1; od od";
const DIVERGING: &str = "while x >= 0 do x := x + 1; od";
/// Check 2 on these fourteen variables runs for about half a minute, nearly
/// all of it inside one invariant synthesis, so only a poll inside the
/// synthesis can answer a deadline on time.
const FOURTEEN_VARS: &str = "a := -40; b := -30; c := -20; d := -10; \
    while a >= 3 do a := a + 1; b := b + 1; c := c + 1; d := d + 1; e := e + 5; \
    f := f + 7; g := g + 1; h := h + 1; i := i + 1; j := j + 1; k := k + 1; \
    l := l + 1; m := m + 1; n := n + 1; od";

fn fail(msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    std::process::exit(1);
}

fn main() {
    let handle = serve(&ServeConfig::default()).unwrap_or_else(|e| fail(&format!("serve: {e}")));
    eprintln!("serve_smoke: daemon on {}", handle.addr());
    let mut client =
        Client::connect(handle.addr()).unwrap_or_else(|e| fail(&format!("connect: {e}")));

    // In-process ground truth for the determinism contract.
    let configs = quick_sweep();
    let mut session = ProverSession::from_source(RUNNING)
        .unwrap_or_else(|e| fail(&format!("in-process parse: {e}")));
    let expected = session.prove_first(&configs);
    let expected_digest = outcome_digest(&expected, session.ts());

    // 1. Cold prove through the daemon: digest must match in-process.
    let cold_start = Instant::now();
    let (cold, cold_hit) = client
        .prove(RUNNING, configs.clone(), None)
        .unwrap_or_else(|e| fail(&format!("cold prove: {e}")));
    let cold_us = cold_start.elapsed().as_micros() as u64;
    if cold.digest != expected_digest {
        fail(&format!(
            "digest divergence: daemon {:016x} vs in-process {expected_digest:016x}",
            cold.digest
        ));
    }
    if cold_hit {
        fail("first request cannot be a pool hit");
    }

    // 2. Warm prove: pooled session, warm caches, identical digest.
    let warm_start = Instant::now();
    let (warm, warm_hit) = client
        .prove(RUNNING, configs.clone(), None)
        .unwrap_or_else(|e| fail(&format!("warm prove: {e}")));
    let warm_us = warm_start.elapsed().as_micros() as u64;
    if !warm_hit {
        fail("second identical request must hit the session pool");
    }
    if warm.digest != expected_digest {
        fail("pooled session produced a different digest");
    }
    let stats = warm.stats;
    if (stats.candidates_tried, stats.synthesis_calls, stats.entailment_calls) != (0, 0, 0) {
        fail(&format!("pooled session searched again instead of using its memo: {stats:?}"));
    }

    // 3. A zero deadline, and a deadline that falls inside a synthesis, each
    // time out structurally and poison nothing.
    let (cut, _) = client
        .prove(RUNNING, configs.clone(), Some(0))
        .unwrap_or_else(|e| fail(&format!("deadline prove: {e}")));
    if !cut.is_timeout() {
        fail(&format!("zero deadline should time out, got {}", cut.verdict));
    }
    let long_start = Instant::now();
    let (long, _) = client
        .prove(FOURTEEN_VARS, configs.clone(), Some(1000))
        .unwrap_or_else(|e| fail(&format!("mid-search deadline prove: {e}")));
    let deadline_cut_us = long_start.elapsed().as_micros() as u64;
    if !long.is_timeout() {
        fail(&format!("a 1 s deadline should cut the long search, got {}", long.verdict));
    }
    if deadline_cut_us > 5_000_000 {
        fail(&format!("a 1 s deadline was answered after {deadline_cut_us} us"));
    }
    let (after, after_hit) = client
        .prove(RUNNING, configs, None)
        .unwrap_or_else(|e| fail(&format!("post-timeout prove: {e}")));
    if !after_hit || after.digest != expected_digest {
        fail("daemon unhealthy after a timed-out request");
    }

    // 4. Sweep and analyze flow through the wire.
    let (outcomes, _) = client
        .sweep(DIVERGING, quick_sweep(), 1, None)
        .unwrap_or_else(|e| fail(&format!("sweep: {e}")));
    if !outcomes.iter().any(revterm::api::WireOutcome::is_non_terminating) {
        fail("sweep found no proof for the diverging loop");
    }
    let diverging = ProverSession::from_source(DIVERGING)
        .unwrap_or_else(|e| fail(&format!("in-process parse: {e}")));
    let report = client.analyze(DIVERGING).unwrap_or_else(|e| fail(&format!("analyze: {e}")));
    if report != revterm::analysis_report(diverging.ts()) {
        fail("daemon analyze report differs from the in-process renderer");
    }

    // Metrics must show the pool hits this run produced.
    let metrics = client.metrics().unwrap_or_else(|e| fail(&format!("metrics: {e}")));
    let obj = metrics.as_obj_or("metrics").unwrap_or_else(|e| fail(&format!("metrics: {e}")));
    let pool = obj.obj_field("pool").unwrap_or_else(|e| fail(&format!("metrics: {e}")));
    let pool_hits = pool.u64_field("hits").unwrap_or_else(|e| fail(&format!("metrics: {e}")));
    if pool_hits == 0 {
        fail("metrics report zero pool hits");
    }

    client.shutdown().unwrap_or_else(|e| fail(&format!("shutdown: {e}")));
    handle.join();

    let artifact = Json::obj(vec![
        ("digest", Json::from(hex_digest(expected_digest))),
        ("prove_cold_us", Json::from(cold_us)),
        ("prove_warm_us", Json::from(warm_us)),
        ("pool_hits", Json::from(pool_hits)),
        ("deadline_cut_us", Json::from(deadline_cut_us)),
        ("timeout_structured", Json::Bool(true)),
        ("verdicts_match", Json::Bool(true)),
    ]);
    println!("{artifact}");
}
