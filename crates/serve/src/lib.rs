//! Prover-as-a-service: the `revterm-serve` daemon and its client.
//!
//! Everything upstream of this crate answers one question per process:
//! parse a program, run the prover, print the verdict.  That shape is wrong
//! for two real workloads — interactive callers (editors, CI bots) that ask
//! about the *same* program repeatedly with different configurations, and
//! batch drivers that stream many programs through one resident prover.
//! Both want the [`revterm::ProverSession`] memo tables to stay warm across
//! requests, which a process-per-request CLI throws away.
//!
//! This crate keeps the prover resident:
//!
//! * [`server`] — a std-only daemon (no external crates; `std::net` TCP on
//!   `127.0.0.1` and, on Unix, `std::os::unix::net` sockets) that holds an
//!   LRU pool of sessions keyed by [`revterm::program_hash`] and serves
//!   concurrent clients on plain [`std::thread`] workers;
//! * [`wire`] — the line-delimited JSON framing (one request/response per
//!   line) with hard size caps, so oversized or garbage input produces a
//!   structured protocol error rather than a hang or a crash;
//! * [`pool`] — the session pool with checkout/checkin semantics (the pool
//!   lock is never held while a prove runs);
//! * [`metrics`] — per-operation counters, a latency histogram and the
//!   aggregated per-stage prover statistics (LP pivots, warm-start hit
//!   rates, abstract-interpretation fast paths, cache hits) exposed by the
//!   `metrics` wire operation;
//! * [`client`] — a small blocking client used by the CLI's `client`
//!   subcommand, the benches and the tests.
//!
//! The request/response *types* and their JSON encoding live in
//! [`revterm::api`] (see `PROTOCOL.md` at the repository root for the wire
//! grammar); this crate is only the transport and the resident state.
//!
//! # Determinism contract
//!
//! A verdict served by the daemon is bitwise-identical to the in-process
//! verdict for the same request: prove requests route through
//! [`revterm::ProverSession::prove_first`] and sweep requests through
//! [`revterm::ProverSession::sweep`], the in-process entry points
//! themselves, and session caches are pure memo tables.  The `serve_smoke` bench and the integration tests
//! check the [`revterm::outcome_digest`] fingerprints across the boundary.
//!
//! # Deadlines
//!
//! Per-request deadlines are cooperative: a request's `deadline_ms` is
//! written into each configuration's [`revterm::Budget`] as
//! [`revterm::Budget::deadline`], the one limit the prover polls (before a
//! run starts, at candidate boundaries and before every entailment lookup),
//! so a timed-out request reports a structured `timeout` verdict and leaves
//! the pooled session fully consistent — never a poisoned session, never a
//! killed worker.

#![warn(missing_docs)]

pub mod client;
pub mod metrics;
pub mod pool;
pub mod server;
pub mod wire;

pub use client::Client;
pub use metrics::Metrics;
pub use pool::{PoolStats, SessionPool};
pub use server::{serve, ServeConfig, ServerHandle};
