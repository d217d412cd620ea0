#!/usr/bin/env bash
# The single CI gate for the RevTerm workspace. The GitHub workflow runs
# exactly this script, so a green local run means a green CI run.
#
# Usage:
#   scripts/ci.sh            # full gate: fmt + clippy + build + test + smokes
#   scripts/ci.sh --no-bench # skip the smokes (e.g. on very slow machines)
#
# The workspace has zero external crates by design; CARGO_NET_OFFLINE makes
# any accidental dependency addition fail loudly instead of hitting the
# network. Every cargo step that resolves dependencies runs with --locked,
# in both workspaces, so a change that would rewrite Cargo.lock or
# perfbench/Cargo.lock fails the gate instead of silently editing it.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

run_bench_smoke=true
for arg in "$@"; do
    case "$arg" in
        --no-bench) run_bench_smoke=false ;;
        *)
            echo "unknown argument: $arg" >&2
            exit 2
            ;;
    esac
done

echo "==> cargo fmt --check"
cargo fmt --all -- --check

# One SplitMix64: `revterm_num::SplitMix64` (crates/num/src/rng.rs) is the
# generator the fuzz batches and every randomized test draw from, so a
# private copy elsewhere could drift from it unseen. Its increment,
# 0x9E37_79B9_7F4A_7C15 in any case and with underscores anywhere, may
# appear in the workspace's Rust only under crates/num/src/.
echo "==> one SplitMix64 (crates/num/src/ only)"
increment='0x_*9_*e_*3_*7_*7_*9_*b_*9_*7_*f_*4_*a_*7_*c_*1_*5'
if copies=$(grep -rniE --include='*.rs' "$increment" crates tests | grep -v '^crates/num/src/'); then
    echo "FAIL: a SplitMix64 outside crates/num/src/; use revterm_num::SplitMix64:" >&2
    echo "$copies" >&2
    exit 1
fi

echo "==> cargo clippy --locked --workspace --all-targets -- -D warnings"
cargo clippy --locked --workspace --all-targets -- -D warnings

# The benchmark in perfbench/ is a cargo workspace of its own, so the two
# steps above never look at it; format-check and lint it separately.
echo "==> cargo fmt --check (perfbench)"
cargo fmt --manifest-path perfbench/Cargo.toml -- --check

echo "==> cargo clippy --locked --all-targets -- -D warnings (perfbench)"
cargo clippy --locked --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

# Docs gate: rustdoc must be warning-free (this catches broken intra-doc
# links workspace-wide, which plain builds do not).
echo "==> cargo doc --locked --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --locked --no-deps --quiet

echo "==> cargo build --locked --release"
cargo build --locked --release

# The benchmark in perfbench/ is a cargo workspace of its own, so the
# workspace build above does not compile it; it links the prover's public
# API (validate_certificate, ProveStats, LpStats), so build it here to catch
# breaking changes to that API.
echo "==> cargo build --locked --release (perfbench)"
cargo build --locked --release --offline --manifest-path perfbench/Cargo.toml

# The dev profile keeps debug-assertions on (opt-level is raised but
# debug_assert! stays live), so this run exercises the canonical-form
# invariant checks in Poly/LinExpr and the simplex kernel's assertions that
# every fraction-free division is exact and no pivot element is zero —
# release builds compile them out.
echo "==> cargo test --locked -q"
cargo test --locked -q

# The benchmark's own tests pin its determinism contract: the running
# example's degree-1 sweep costs 887 LP solves with 2 warm hits, and every
# traced count repeats run to run. A prover change that keeps the work the
# same keeps them green.
echo "==> cargo test --locked --release (perfbench)"
cargo test --locked --release --offline --manifest-path perfbench/Cargo.toml

if $run_bench_smoke; then
    # Profile smoke: num_profile with a small microloop runs the revised
    # simplex and the dense reference tableau over the same problems, the
    # flat polynomial kernels against a BTreeMap reference and the
    # packed-monomial cache-key hashing loop under a counting allocator.
    # It sweeps the degree-1 grid of the running example, nt_counter_up and
    # paper_fig2_small fresh and through one session each, then the
    # running example's degree-1 grid with the absint pre-analysis off and
    # its degree-2 cells (about half of its run). It exits non-zero on any
    # digest divergence, on any cell whose fresh and sessioned outcome
    # digests (label, verdict, certificate) differ, on any heap allocation
    # on the packed hashing path, on a zero warm-start hit rate, on zero
    # absint engagement (no fast paths and no prunes taken) or on any
    # absint path taken while the pre-analysis is off. paper_fig2_small's
    # grid has 12 Check 2 proofs, 9 of them served whole by the session's
    # search memo, so memoized witness paths are compared with fresh
    # searches on every run.
    echo "==> profile smoke (num_profile 30)"
    mkdir -p target/ci-artifacts
    cargo run --locked --release -q -p revterm-bench --bin num_profile 30 \
        | tee target/ci-artifacts/num-profile.json

    # The pinned digests. num_profile only checks that its two engines
    # agree with each other, so a change that moved both engines' answers
    # the same way would pass it; these pin the microloop's LP solutions and
    # the running example's degree-1 verdicts themselves. The three session
    # counters pin the LP work of that sweep: an LP built with its rows or
    # columns in another order keeps every verdict but takes other Bland
    # pivots, and only the pivot count shows it. The degree-2 pins do the
    # same for the running example's degree-2 cells, whose larger Handelman
    # LPs are the ones that leave the simplex kernel's i64 words for Int.
    # The probe-step pin counts the interpreter steps of the degree-1
    # sweep's probes: 322 for Check 1's divergence probes and 2 940 for
    # Check 2's four backward batches, which step each configuration once
    # (one run per start would take 73 200 steps there).
    echo "==> pinned digests, LP work and probe steps (num_profile 30)"
    for pin in '"lp_digest":"d26722705ffbc1e8"' '"verdict_digest":"46d3736ca3d67731"' \
        '"session_lp_solves":887' '"session_lp_pivots":1745' '"session_warm_hits":2' \
        '"degree2_lp_solves":3059' '"degree2_lp_pivots":55087' '"degree2_warm_hits":352' \
        '"degree2_verdict_digest":"46d3736ca3d67731"' '"session_probe_steps":3262'; do
        # A pin must end where its JSON value ends: 887 must not pass as 8870.
        if ! grep -qE "$pin[,}]" target/ci-artifacts/num-profile.json; then
            echo "FAIL: num_profile 30 did not print the pinned $pin" >&2
            exit 1
        fi
    done

    # Serve smoke: an in-process revterm-serve daemon on an ephemeral port,
    # driven through the wire client. Proves the service contract on every
    # CI run: daemon verdicts digest-identical to in-process runs, repeated
    # requests served by pooled warm sessions (fails on zero pool hits), a
    # zero deadline degrading to a structured timeout, a 1 s deadline cutting
    # a half-minute Check 2 search inside its synthesis and answering
    # timeout within 5 s (deadline_cut_us), the daemon still healthy after
    # both, and sweep/analyze/metrics/shutdown flowing over the protocol.
    # Leaves a JSON latency artifact next to the other smoke outputs.
    echo "==> serve smoke (serve_smoke)"
    cargo run --locked --release -q -p revterm-bench --bin serve_smoke \
        | tee target/ci-artifacts/serve-smoke.json

    # The smoke only checks that daemon and in-process digests agree, so a
    # rendering change that moved both alike would pass it; this pins the
    # running example's outcome digest itself, up to the end of its value.
    echo "==> pinned outcome digest (serve_smoke)"
    pin='"digest":"c4f06b19930169a9"'
    if ! grep -qE "$pin[,}]" target/ci-artifacts/serve-smoke.json; then
        echo "FAIL: serve_smoke did not print the pinned $pin" >&2
        exit 1
    fi

    # Fuzz smoke: a fixed-seed batch of 500 generated labelled programs,
    # each cross-checked by the four-oracle differential harness (baseline
    # claim table, certificate re-validation, absint on/off digests, the
    # revised LP engine against the dense reference). Exits non-zero on any
    # verdict mismatch, validation failure or digest divergence, or if
    # either known-label family is missing from the batch — failing
    # programs are auto-minimized by the shrinker and embedded in the JSON
    # artifact.
    echo "==> fuzz smoke (fuzz_drive 500)"
    cargo run --locked --release -q -p revterm-bench --bin fuzz_drive 500 \
        | tee target/ci-artifacts/fuzz-smoke.json
fi

echo "==> CI gate passed"
