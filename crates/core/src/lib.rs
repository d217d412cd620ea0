//! RevTerm: proving non-termination by program reversal.
//!
//! This crate implements the paper's contribution — Algorithm 1 and the
//! BI-certificate machinery of Sections 4 and 5 — on top of the substrates
//! built in the sibling crates:
//!
//! * [`revterm_lang`] — the input language,
//! * [`revterm_ts`] — transition systems, reversal, resolutions of
//!   non-determinism,
//! * [`revterm_absint`] — the interval abstract-interpretation
//!   pre-analysis (sound pruning and the `revterm analyze` facts),
//! * [`revterm_invgen`] — template-based inductive invariant generation,
//! * [`revterm_solver`] — the exact Farkas/Handelman entailment oracle,
//! * [`revterm_safety`] — the bounded safety (reachability) prover.
//!
//! # Quick start: sessions
//!
//! The primary entry point is a [`ProverSession`]: it owns one transition
//! system together with memoized derived artifacts (restricted and reversed
//! systems, candidate atom pools, interpreter probe traces, entailment memo
//! tables), so running many configurations — the paper's Section 6 protocol
//! sweeps the whole check × strategy × template grid per benchmark — pays
//! for shared work once.  Configurations are assembled with
//! [`ProverConfig::builder`].
//!
//! ```
//! use revterm::{CheckKind, ProverConfig, ProverSession};
//! use revterm_lang::parse_program;
//!
//! // The paper's running example (Fig. 1).
//! let program = parse_program(
//!     "while x >= 9 do x := ndet(); y := 10 * x; while x <= y do x := x + 1; od od",
//! ).unwrap();
//! let mut session = ProverSession::from_program(&program).unwrap();
//!
//! // A single configuration...
//! let result = session.prove(&ProverConfig::default());
//! assert!(result.is_non_terminating());
//!
//! // ...and a second one on the warm session: identical verdicts to a fresh
//! // run, but shared artifacts (probes, pools, entailment queries) are
//! // served from the session caches, as the statistics show.
//! let config = ProverConfig::builder().check(CheckKind::Check1).template(3, 1, 1).build();
//! let warm = session.prove(&config);
//! assert!(warm.is_non_terminating());
//! assert!(warm.stats.total_cache_hits() > 0);
//! ```
//!
//! Sweeps run through the same session ([`ProverSession::sweep`]), and
//! [`ProofResult`] / [`ConfigOutcome`] carry structured per-stage statistics
//! ([`ProveStats`]): candidates tried, synthesis and entailment calls, cache
//! hits.
//!
//! A configuration's [`Budget`] is armed once per prove as invgen's
//! `SynthesisBudget`, the one budget value of the run: both checks poll it
//! at candidate boundaries and before every entailment lookup, and hand it
//! to every synthesis, which does the same. A synthesis it cuts short is
//! never memoized, so a [`Verdict::Timeout`] leaves the session exactly as
//! usable as before.
//!
//! # Migration from the free-function entry points
//!
//! Of the pre-session free functions only [`prove`] remains: it is exactly
//! one cold [`ProverSession::prove`] call, the "fresh" run that harnesses
//! compare sessions against. The others are gone; their session
//! equivalents return identical verdicts:
//!
//! * `prove_with_configs(&ts, &configs)` →
//!   [`ProverSession::new`]`(ts).`[`prove_first`](ProverSession::prove_first)`(&configs)`
//!   (an **empty** config slice reports the documented [`NO_CONFIGS_LABEL`]);
//! * `prove_program(&program, &config)` →
//!   [`ProverSession::from_program`]`(&program)?.`[`prove`](ProverSession::prove)`(&config)`;
//! * `sweep(&ts, &configs, stop)` → [`ProverSession::sweep`];
//! * `check1(&ts, &config)` / `check2(&ts, &config)` →
//!   [`ProverSession::prove`] with [`CheckKind::Check1`] or
//!   [`CheckKind::Check2`] in the configuration, whose verdict carries the
//!   already validated certificate ([`ProofResult::certificate`]);
//! * `ProverConfig { check, .. }` struct literals → [`ProverConfig::builder`].
//!
//! New code should hold a session: on the degree-1 configuration grid the
//! sessioned sweep has measured several-fold faster than fresh
//! per-configuration calls (see the `session_vs_fresh` entries that the
//! `num_profile` harness in `revterm-bench` prints).
//!
//! Every `NonTerminating` verdict carries a [`NonTerminationCertificate`]
//! that has already been validated ([`validate_certificate`]); the prover
//! never reports non-termination on the basis of an unchecked synthesis
//! result.  Validation is evidence generation — the Farkas/Handelman
//! multipliers of every obligation, read off the interval closure first and
//! found with a cold LP for the rest — followed by an exact check of that
//! evidence with `Poly`/`Rat` arithmetic alone.  The
//! multipliers may come from the session, which memoizes them per
//! certificate; the exact check never does, and it runs on every verdict.

#![warn(missing_docs)]

pub mod api;
mod certificate;
mod check1;
mod check2;
mod config;
mod error;
mod prover;
mod session;
mod sweep;

pub use api::{analysis_report, certificate_digest, lower_source, outcome_digest, program_hash};
pub use certificate::{
    validate_certificate, CertificateError, Check1Certificate, Check2Certificate,
    NonTerminationCertificate,
};
pub use config::{Budget, CheckKind, ProverConfig, ProverConfigBuilder, Strategy};
pub use error::Error;
pub use prover::{prove, ProofResult, Verdict};
pub use revterm_absint::{AbstractState, Diagnostics};
pub use revterm_ts::TransitionSystem;
pub use session::{ProveStats, ProverSession, SessionStats, NO_CONFIGS_LABEL};
pub use sweep::{default_sweep, degree1_sweep, quick_sweep, ConfigOutcome, SweepReport};
