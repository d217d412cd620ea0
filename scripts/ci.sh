#!/usr/bin/env bash
# The single CI gate for the RevTerm workspace. The GitHub workflow runs
# exactly this script, so a green local run means a green CI run.
#
# Usage:
#   scripts/ci.sh            # full gate: fmt + clippy + build + test + bench smoke
#   scripts/ci.sh --no-bench # skip the bench smoke (e.g. on very slow machines)
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
# invariant checks in Poly/LinExpr and the eta-file pivot assertions —
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
    # Bench smoke: two cheap benchmarks through the session-vs-fresh harness
    # (~3 s) so every CI run leaves a comparable speedup/verdict JSON
    # artifact. The harness exits non-zero if any cell's outcome digest
    # (label, verdict, certificate) differs between a fresh prove and the
    # session. paper_fig2_small's degree-1 grid has 12 Check 2 proofs, so
    # the session's memoized safety-query answers (witness paths) are
    # compared with fresh searches on every run.
    echo "==> bench smoke (session_vs_fresh nt_counter_up paper_fig2_small)"
    mkdir -p target/ci-artifacts
    cargo run --locked --release -q -p revterm-bench --bin session_vs_fresh nt_counter_up paper_fig2_small \
        | tee target/ci-artifacts/bench-smoke.json

    # LP-engine + poly-kernel smoke: num_profile with a small microloop runs
    # the revised simplex and the dense reference tableau over the same
    # problems, the flat polynomial kernels against a BTreeMap reference,
    # the packed-monomial cache-key hashing loop under a counting
    # allocator, and the degree-1 sweep. It
    # exits non-zero on any digest divergence, any heap allocation on the
    # packed hashing path, or a zero warm-start hit rate — the revised-simplex
    # and packed-monomial acceptance criteria, re-proved on every CI run.
    # It also runs the degree-1 sweep with the absint pre-analysis ON and
    # OFF and fails on verdict-digest divergence, on zero absint engagement
    # (no fast paths and no prunes taken), or on any absint path taken while
    # the pre-analysis is disabled.
    echo "==> bench smoke (num_profile 30)"
    cargo run --locked --release -q -p revterm-bench --bin num_profile 30 \
        | tee target/ci-artifacts/num-profile.json

    # The pinned digests. num_profile only checks that its two engines
    # agree with each other, so a change that moved both engines' answers
    # the same way would pass it; these pin the microloop's LP solutions and
    # the running example's degree-1 verdicts themselves.
    echo "==> pinned digests (num_profile 30)"
    for pin in '"lp_digest":"d26722705ffbc1e8"' '"verdict_digest":"46d3736ca3d67731"'; do
        if ! grep -qF "$pin" target/ci-artifacts/num-profile.json; then
            echo "FAIL: num_profile 30 did not print the pinned $pin" >&2
            exit 1
        fi
    done

    # Serve smoke: an in-process revterm-serve daemon on an ephemeral port,
    # driven through the wire client. Proves the service contract on every
    # CI run: daemon verdicts digest-identical to in-process runs, repeated
    # requests served by pooled warm sessions (fails on zero pool hits), a
    # zero deadline degrading to a structured timeout with the daemon still
    # healthy, and sweep/analyze/metrics/shutdown flowing over the protocol.
    # Leaves a JSON latency artifact next to the other smoke outputs.
    echo "==> serve smoke (serve_smoke)"
    cargo run --locked --release -q -p revterm-bench --bin serve_smoke \
        | tee target/ci-artifacts/serve-smoke.json

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
