//! The versioned prover-as-a-service wire API.
//!
//! This module defines the *content* of the `revterm-serve` protocol — the
//! serializable [`ProveRequest`] / [`ProveResponse`] types and the JSON
//! encoding they round-trip through — while the `revterm-serve` crate owns
//! the *transport* (sockets, line framing, the session pool and metrics).
//! Keeping the types here means every consumer (daemon, CLI client, bench
//! harnesses, tests) shares one definition, and the determinism contract can
//! be stated once:
//!
//! > **A verdict served by the daemon is bitwise-identical to the in-process
//! > verdict for the same request.**  The wire encodes verdicts together
//! > with [`certificate_digest`] / [`outcome_digest`] fingerprints computed
//! > from canonical textual renderings, so "bitwise-identical" is checkable
//! > across process boundaries without shipping whole certificates.
//!
//! # Framing and versioning
//!
//! The protocol is line-delimited JSON: one request object per line, one
//! response object per line, UTF-8, no pipelining requirements.  Every
//! object carries `"v": 1` ([`PROTOCOL_VERSION`]); servers reject other
//! versions with a structured error instead of guessing.  See `PROTOCOL.md`
//! at the repository root for the full grammar with examples.
//!
//! # JSON without dependencies
//!
//! The workspace has a zero-external-crate rule, so [`json`] is a minimal
//! hand-rolled JSON value type, parser and printer — enough for this
//! protocol (objects, arrays, strings, IEEE numbers, booleans, null), with
//! a recursion-depth cap so adversarial input cannot overflow the stack.

use crate::config::{Budget, ProverConfig};
use crate::error::Error;
use crate::prover::{ProofResult, Verdict};
use crate::session::ProveStats;
use crate::sweep::SweepReport;
use crate::CheckKind;
use revterm_safety::SearchBounds;
use revterm_solver::{LpEngine, LpStats};
use revterm_ts::TransitionSystem;
use std::hash::{Hash, Hasher};
use std::time::Duration;

pub mod json;

use json::{Json, ObjRef};

/// The wire-protocol version this build speaks.
pub const PROTOCOL_VERSION: u64 = 1;

/// Parses and lowers program text with the same error split as
/// [`crate::ProverSession::from_source`]: [`Error::Parse`] for bad text,
/// [`Error::Analysis`] for lowering failures.  The wire `parse` operation
/// and the daemon's session pool (which must hash the system *before*
/// deciding whether a pooled session exists) both go through here.
///
/// # Errors
///
/// [`Error::Parse`] or [`Error::Analysis`] as described above.
pub fn lower_source(source: &str) -> Result<TransitionSystem, Error> {
    let program = revterm_lang::parse_program(source).map_err(Error::Parse)?;
    revterm_ts::lower(&program).map_err(|e| Error::Analysis(e.to_string()))
}

/// The workspace-standard fingerprint of a parsed program: FNV-1a over the
/// structure of its [`TransitionSystem`] (locations, variables, transition
/// relations).  The `revterm-serve` session pool keys sessions by this hash,
/// so textually different sources that lower to the same system share a
/// session.
pub fn program_hash(ts: &TransitionSystem) -> u64 {
    let mut hasher = revterm_num::Fnv64::new();
    ts.hash(&mut hasher);
    hasher.finish()
}

/// A cross-process-stable fingerprint of a certificate: FNV-1a folded over
/// canonical textual renderings (resolution, invariants, witnesses with
/// variable names).  Two equal digests mean the certificates render
/// identically component by component — the "bitwise-identical verdict"
/// check of the serve acceptance gate.
pub fn certificate_digest(cert: &crate::NonTerminationCertificate, ts: &TransitionSystem) -> u64 {
    let mut hasher = revterm_num::Fnv64::new();
    let vars = ts.vars();
    let loc_names = |l| ts.loc_name(l).to_string();
    match cert {
        crate::NonTerminationCertificate::Check1(c) => {
            "check1".hash(&mut hasher);
            c.resolution.display_with(ts).hash(&mut hasher);
            c.invariant.display_with(vars, &loc_names).hash(&mut hasher);
            c.initial.to_string().hash(&mut hasher);
        }
        crate::NonTerminationCertificate::Check2(c) => {
            "check2".hash(&mut hasher);
            c.resolution.display_with(ts).hash(&mut hasher);
            c.tilde_invariant.display_with(vars, &loc_names).hash(&mut hasher);
            c.theta.display_with(vars).hash(&mut hasher);
            c.backward_invariant.display_with(vars, &loc_names).hash(&mut hasher);
            for config in &c.witness_path {
                config.to_string().hash(&mut hasher);
            }
        }
    }
    hasher.finish()
}

/// The fingerprint of a whole [`ProofResult`]: the verdict kind, the
/// configuration label and (for proofs) the [`certificate_digest`].
pub fn outcome_digest(result: &ProofResult, ts: &TransitionSystem) -> u64 {
    let mut hasher = revterm_num::Fnv64::new();
    result.config_label.hash(&mut hasher);
    match &result.verdict {
        Verdict::NonTerminating(cert) => {
            "non-terminating".hash(&mut hasher);
            certificate_digest(cert, ts).hash(&mut hasher);
        }
        Verdict::Unknown => "unknown".hash(&mut hasher),
        Verdict::Timeout => "timeout".hash(&mut hasher),
    }
    hasher.finish()
}

/// Renders a `u64` fingerprint in the fixed-width hex form used on the wire.
pub fn hex_digest(digest: u64) -> String {
    format!("{digest:016x}")
}

fn parse_hex_digest(s: &str) -> Result<u64, Error> {
    u64::from_str_radix(s, 16).map_err(|_| Error::Protocol(format!("bad digest {s:?}")))
}

// ---------------------------------------------------------------------------
// ProverConfig <-> JSON
// ---------------------------------------------------------------------------

fn lp_engine_name(engine: LpEngine) -> &'static str {
    match engine {
        LpEngine::Revised => "revised",
        LpEngine::Dense => "dense",
    }
}

fn lp_engine_from_name(name: &str) -> Result<LpEngine, Error> {
    match name {
        "revised" => Ok(LpEngine::Revised),
        "dense" => Ok(LpEngine::Dense),
        other => Err(Error::Protocol(format!("unknown lp engine {other:?}"))),
    }
}

/// Serializes a full configuration.  The labelled axes travel as the
/// [`ProverConfig::label`] string; every non-labelled field is explicit, so
/// the encoding round-trips configurations that stray from the defaults.
/// The one exception is [`Budget::deadline`], a point in this process's
/// clock: a request carries its deadline as `deadline_ms` instead.
pub fn config_to_json(config: &ProverConfig) -> Json {
    Json::obj(vec![
        ("label", Json::from(config.label())),
        ("resolution_degree", Json::from(config.resolution_degree as u64)),
        (
            "entailment",
            Json::obj(vec![
                ("max_product_size", Json::from(config.entailment.max_product_size as u64)),
                ("max_product_degree", Json::from(config.entailment.max_product_degree as u64)),
                ("lp_engine", Json::from(lp_engine_name(config.entailment.lp_engine))),
                ("interval_fast_path", Json::Bool(config.entailment.interval_fast_path)),
            ]),
        ),
        ("max_resolutions", Json::from(config.max_resolutions as u64)),
        ("max_initial_configs", Json::from(config.max_initial_configs as u64)),
        ("divergence_probe_steps", Json::from(config.divergence_probe_steps as u64)),
        (
            "budget",
            Json::obj(vec![
                (
                    "time_limit_ms",
                    match config.budget.time_limit {
                        Some(limit) => Json::from(limit.as_millis() as u64),
                        None => Json::Null,
                    },
                ),
                (
                    "max_entailment_calls",
                    match config.budget.max_entailment_calls {
                        Some(cap) => Json::from(cap),
                        None => Json::Null,
                    },
                ),
            ]),
        ),
    ])
}

/// Deserializes a configuration: either a bare label string (non-labelled
/// fields take defaults) or the full object form of [`config_to_json`].
///
/// An older client's object also carries the search bounds (`search`) and
/// `entailment.use_unsat_fallback`, which are no longer settable: each is
/// accepted when it holds the value the prover uses and refused with an
/// [`Error::Protocol`] naming the field otherwise.
pub fn config_from_json(value: &Json) -> Result<ProverConfig, Error> {
    if let Some(label) = value.as_str() {
        return ProverConfig::parse_label(label);
    }
    let obj = value.as_obj_or("config")?;
    let label = obj.str_field("label")?;
    let mut config = ProverConfig::parse_label(label)?;
    config.resolution_degree = u32_field(&obj, "resolution_degree")?;
    if obj.get("search").is_some() {
        let search = obj.obj_field("search")?;
        let bounds = SearchBounds::default();
        for (key, fixed) in [
            ("max_steps", Json::from(bounds.max_steps as u64)),
            ("max_configs", Json::from(bounds.max_configs as u64)),
            ("max_initial", Json::from(bounds.max_initial as u64)),
            ("grid", Json::from(bounds.grid)),
        ] {
            fixed_field(&format!("search.{key}"), search.get(key), &fixed)?;
        }
    }
    let entail = obj.obj_field("entailment")?;
    let unsat_fallback = entail.get("use_unsat_fallback");
    fixed_field("entailment.use_unsat_fallback", unsat_fallback, &Json::Bool(true))?;
    config.entailment.max_product_size = entail.u64_field("max_product_size")? as usize;
    config.entailment.max_product_degree = u32_field(&entail, "max_product_degree")?;
    config.entailment.lp_engine = lp_engine_from_name(entail.str_field("lp_engine")?)?;
    config.entailment.interval_fast_path = entail.bool_field("interval_fast_path")?;
    config.max_resolutions = obj.u64_field("max_resolutions")? as usize;
    config.max_initial_configs = obj.u64_field("max_initial_configs")? as usize;
    config.divergence_probe_steps = obj.u64_field("divergence_probe_steps")? as usize;
    // An older client's `absint` field, now `interval_fast_path`'s job, is
    // ignored like any field not read here.
    let budget = obj.obj_field("budget")?;
    config.budget = Budget {
        time_limit: budget.opt_u64_field("time_limit_ms")?.map(Duration::from_millis),
        max_entailment_calls: budget.opt_u64_field("max_entailment_calls")?,
        ..Budget::default()
    };
    Ok(config)
}

/// Refuses a retired setting an older client sent (`value`) unless it holds
/// the `fixed` value the prover now always uses; absent is fine.
fn fixed_field(name: &str, value: Option<&Json>, fixed: &Json) -> Result<(), Error> {
    match value {
        Some(value) if value != fixed => Err(Error::Protocol(format!(
            "config field {name:?} is no longer settable: it is fixed at {fixed}, got {value}"
        ))),
        _ => Ok(()),
    }
}

/// A required non-negative integer field that must fit in a `u32`: a wider
/// value is a protocol error, not a silent truncation.
fn u32_field(obj: &ObjRef<'_>, key: &str) -> Result<u32, Error> {
    let value = obj.u64_field(key)?;
    u32::try_from(value).map_err(|_| {
        Error::Protocol(format!("config field {key:?} must fit in 32 bits, got {value}"))
    })
}

// ---------------------------------------------------------------------------
// ProveStats <-> JSON
// ---------------------------------------------------------------------------

/// Serializes per-stage statistics (every counter, including the LP block).
pub fn stats_to_json(stats: &ProveStats) -> Json {
    Json::obj(vec![
        ("candidates_tried", Json::from(stats.candidates_tried as u64)),
        ("synthesis_calls", Json::from(stats.synthesis_calls as u64)),
        ("entailment_calls", Json::from(stats.entailment_calls)),
        ("entailment_cache_hits", Json::from(stats.entailment_cache_hits)),
        ("probe_cache_hits", Json::from(stats.probe_cache_hits)),
        ("probe_cache_misses", Json::from(stats.probe_cache_misses)),
        ("artifact_cache_hits", Json::from(stats.artifact_cache_hits)),
        ("artifact_cache_misses", Json::from(stats.artifact_cache_misses)),
        ("absint_prunes", Json::from(stats.absint_prunes)),
        (
            "lp",
            Json::obj(vec![
                ("solves", Json::from(stats.lp.solves)),
                ("pivots", Json::from(stats.lp.pivots)),
                ("refactorizations", Json::from(stats.lp.refactorizations)),
                ("warm_lookups", Json::from(stats.lp.warm_lookups)),
                ("warm_hits", Json::from(stats.lp.warm_hits)),
                ("absint_fast_paths", Json::from(stats.lp.absint_fast_paths)),
            ]),
        ),
    ])
}

/// Deserializes [`stats_to_json`].
pub fn stats_from_json(value: &Json) -> Result<ProveStats, Error> {
    let obj = value.as_obj_or("stats")?;
    let lp = obj.obj_field("lp")?;
    Ok(ProveStats {
        candidates_tried: obj.u64_field("candidates_tried")? as usize,
        synthesis_calls: obj.u64_field("synthesis_calls")? as usize,
        entailment_calls: obj.u64_field("entailment_calls")?,
        entailment_cache_hits: obj.u64_field("entailment_cache_hits")?,
        probe_cache_hits: obj.u64_field("probe_cache_hits")?,
        probe_cache_misses: obj.u64_field("probe_cache_misses")?,
        artifact_cache_hits: obj.u64_field("artifact_cache_hits")?,
        artifact_cache_misses: obj.u64_field("artifact_cache_misses")?,
        absint_prunes: obj.u64_field("absint_prunes")?,
        lp: LpStats {
            solves: lp.u64_field("solves")?,
            pivots: lp.u64_field("pivots")?,
            refactorizations: lp.u64_field("refactorizations")?,
            warm_lookups: lp.u64_field("warm_lookups")?,
            warm_hits: lp.u64_field("warm_hits")?,
            absint_fast_paths: lp.u64_field("absint_fast_paths")?,
        },
    })
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// The body of a request: one of the protocol's operations.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// Parse + lower a program; respond with its fingerprint and shape.
    Parse {
        /// Program text.
        source: String,
    },
    /// Prove non-termination, trying the configurations in order
    /// (first success wins — [`crate::ProverSession::prove_first`]).
    Prove {
        /// Program text.
        source: String,
        /// Configurations to try; empty means the server default
        /// ([`crate::quick_sweep`]).
        configs: Vec<ProverConfig>,
        /// Whole-request wall-clock deadline in milliseconds, counted from
        /// when the server starts the request and written into every
        /// configuration's [`Budget::deadline`] (each configuration's own
        /// time limit and work cap still apply beside it).
        deadline_ms: Option<u64>,
    },
    /// Run a configuration sweep and report every outcome
    /// ([`crate::ProverSession::sweep`]).
    Sweep {
        /// Program text.
        source: String,
        /// Configurations to sweep; empty means the server default
        /// ([`crate::degree1_sweep`]).
        configs: Vec<ProverConfig>,
        /// Stop after this many successes (0 is normalized to "run all").
        stop_after: usize,
        /// Whole-request wall-clock deadline in milliseconds, written into
        /// every configuration's [`Budget::deadline`] like a prove's.
        deadline_ms: Option<u64>,
    },
    /// Run the abstract-interpretation pre-analysis and respond with the
    /// same textual report `revterm analyze` prints.
    Analyze {
        /// Program text.
        source: String,
    },
    /// Session-pool statistics (occupancy, hits, evictions).
    Stats,
    /// Full server metrics (per-operation counters, latency histogram,
    /// aggregated prover statistics).
    Metrics,
    /// Stop accepting connections and shut the daemon down.
    Shutdown,
}

impl RequestBody {
    /// The operation name on the wire.
    pub fn op(&self) -> &'static str {
        match self {
            RequestBody::Parse { .. } => "parse",
            RequestBody::Prove { .. } => "prove",
            RequestBody::Sweep { .. } => "sweep",
            RequestBody::Analyze { .. } => "analyze",
            RequestBody::Stats => "stats",
            RequestBody::Metrics => "metrics",
            RequestBody::Shutdown => "shutdown",
        }
    }
}

/// One request of the versioned wire API.
#[derive(Debug, Clone, PartialEq)]
pub struct ProveRequest {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: u64,
    /// The operation.
    pub body: RequestBody,
}

impl ProveRequest {
    /// Serializes the request (always stamps [`PROTOCOL_VERSION`]).
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(&str, Json)> = vec![
            ("v", Json::from(PROTOCOL_VERSION)),
            ("id", Json::from(self.id)),
            ("op", Json::from(self.body.op())),
        ];
        match &self.body {
            RequestBody::Parse { source } | RequestBody::Analyze { source } => {
                fields.push(("source", Json::from(source.clone())));
            }
            RequestBody::Prove { source, configs, deadline_ms } => {
                fields.push(("source", Json::from(source.clone())));
                fields.push(("configs", Json::Arr(configs.iter().map(config_to_json).collect())));
                if let Some(ms) = deadline_ms {
                    fields.push(("deadline_ms", Json::from(*ms)));
                }
            }
            RequestBody::Sweep { source, configs, stop_after, deadline_ms } => {
                fields.push(("source", Json::from(source.clone())));
                fields.push(("configs", Json::Arr(configs.iter().map(config_to_json).collect())));
                fields.push(("stop_after", Json::from(*stop_after as u64)));
                if let Some(ms) = deadline_ms {
                    fields.push(("deadline_ms", Json::from(*ms)));
                }
            }
            RequestBody::Stats | RequestBody::Metrics | RequestBody::Shutdown => {}
        }
        Json::obj(fields)
    }

    /// Deserializes and version-checks a request.
    ///
    /// # Errors
    ///
    /// [`Error::Protocol`] on a version mismatch, an unknown operation or a
    /// missing/mistyped field — the structured errors the daemon reports
    /// instead of dying.
    pub fn from_json(value: &Json) -> Result<ProveRequest, Error> {
        let obj = value.as_obj_or("request")?;
        let version = obj.u64_field("v")?;
        if version != PROTOCOL_VERSION {
            return Err(Error::Protocol(format!(
                "unsupported protocol version {version} (this build speaks {PROTOCOL_VERSION})"
            )));
        }
        let id = obj.opt_u64_field("id")?.unwrap_or(0);
        let op = obj.str_field("op")?;
        let source = || obj.str_field("source").map(str::to_string);
        let configs = || -> Result<Vec<ProverConfig>, Error> {
            match obj.get("configs") {
                None | Some(Json::Null) => Ok(Vec::new()),
                Some(Json::Arr(items)) => items.iter().map(config_from_json).collect(),
                Some(other) => {
                    Err(Error::Protocol(format!("configs must be an array, got {other}")))
                }
            }
        };
        let body = match op {
            "parse" => RequestBody::Parse { source: source()? },
            "analyze" => RequestBody::Analyze { source: source()? },
            "prove" => RequestBody::Prove {
                source: source()?,
                configs: configs()?,
                deadline_ms: obj.opt_u64_field("deadline_ms")?,
            },
            "sweep" => RequestBody::Sweep {
                source: source()?,
                configs: configs()?,
                stop_after: obj.opt_u64_field("stop_after")?.unwrap_or(0) as usize,
                deadline_ms: obj.opt_u64_field("deadline_ms")?,
            },
            "stats" => RequestBody::Stats,
            "metrics" => RequestBody::Metrics,
            "shutdown" => RequestBody::Shutdown,
            other => return Err(Error::Protocol(format!("unknown op {other:?}"))),
        };
        Ok(ProveRequest { id, body })
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// The wire form of a certificate: its producing check, the
/// [`certificate_digest`] fingerprint and human-readable renderings.  Full
/// structural certificates stay in-process; the digest is the cross-process
/// identity the acceptance gate compares.
#[derive(Debug, Clone, PartialEq)]
pub struct WireCertificate {
    /// Which check produced the certificate.
    pub check: CheckKind,
    /// The [`certificate_digest`] fingerprint.
    pub digest: u64,
    /// `NonTerminationCertificate::summary` of the certificate.
    pub summary: String,
}

/// The outcome of one configuration (or of a `prove` request as a whole) on
/// the wire: everything a [`ProofResult`] carries, in serializable form.
#[derive(Debug, Clone, PartialEq)]
pub struct WireOutcome {
    /// The configuration label that produced the verdict.
    pub label: String,
    /// `"non-terminating"`, `"unknown"` or `"timeout"`.
    pub verdict: String,
    /// The [`outcome_digest`] fingerprint of the whole result.
    pub digest: u64,
    /// Wall-clock microseconds spent.
    pub elapsed_us: u64,
    /// Per-stage statistics.
    pub stats: ProveStats,
    /// Present iff the verdict is `"non-terminating"`.
    pub certificate: Option<WireCertificate>,
}

impl WireOutcome {
    /// Builds the wire outcome of an in-process [`ProofResult`].
    pub fn from_result(result: &ProofResult, ts: &TransitionSystem) -> WireOutcome {
        let verdict = match &result.verdict {
            Verdict::NonTerminating(_) => "non-terminating",
            Verdict::Unknown => "unknown",
            Verdict::Timeout => "timeout",
        };
        WireOutcome {
            label: result.config_label.clone(),
            verdict: verdict.to_string(),
            digest: outcome_digest(result, ts),
            elapsed_us: result.elapsed.as_micros() as u64,
            stats: result.stats,
            certificate: result.certificate().map(|cert| WireCertificate {
                check: cert.check_kind(),
                digest: certificate_digest(cert, ts),
                summary: cert.summary(ts),
            }),
        }
    }

    /// Serializes the outcome.
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(&str, Json)> = vec![
            ("label", Json::from(self.label.clone())),
            ("verdict", Json::from(self.verdict.clone())),
            ("digest", Json::from(hex_digest(self.digest))),
            ("elapsed_us", Json::from(self.elapsed_us)),
            ("stats", stats_to_json(&self.stats)),
        ];
        if let Some(cert) = &self.certificate {
            fields.push((
                "certificate",
                Json::obj(vec![
                    (
                        "check",
                        Json::from(match cert.check {
                            CheckKind::Check1 => "check1",
                            CheckKind::Check2 => "check2",
                        }),
                    ),
                    ("digest", Json::from(hex_digest(cert.digest))),
                    ("summary", Json::from(cert.summary.clone())),
                ]),
            ));
        }
        Json::obj(fields)
    }

    /// Deserializes [`WireOutcome::to_json`].
    pub fn from_json(value: &Json) -> Result<WireOutcome, Error> {
        let obj = value.as_obj_or("outcome")?;
        let certificate = match obj.get("certificate") {
            None | Some(Json::Null) => None,
            Some(cert) => {
                let cert = cert.as_obj_or("certificate")?;
                Some(WireCertificate {
                    check: match cert.str_field("check")? {
                        "check1" => CheckKind::Check1,
                        "check2" => CheckKind::Check2,
                        other => return Err(Error::Protocol(format!("unknown check {other:?}"))),
                    },
                    digest: parse_hex_digest(cert.str_field("digest")?)?,
                    summary: cert.str_field("summary")?.to_string(),
                })
            }
        };
        Ok(WireOutcome {
            label: obj.str_field("label")?.to_string(),
            verdict: obj.str_field("verdict")?.to_string(),
            digest: parse_hex_digest(obj.str_field("digest")?)?,
            elapsed_us: obj.u64_field("elapsed_us")?,
            stats: stats_from_json(obj.field("stats")?)?,
            certificate,
        })
    }

    /// Returns `true` iff the wire verdict is `"non-terminating"`.
    pub fn is_non_terminating(&self) -> bool {
        self.verdict == "non-terminating"
    }

    /// Returns `true` iff the wire verdict is `"timeout"`.
    pub fn is_timeout(&self) -> bool {
        self.verdict == "timeout"
    }
}

/// The body of a response.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// Answer to `parse`.
    Parsed {
        /// [`program_hash`] of the lowered system (the session-pool key).
        program_hash: u64,
        /// Number of locations.
        num_locs: usize,
        /// Number of program variables.
        num_vars: usize,
        /// Number of transitions.
        num_transitions: usize,
    },
    /// Answer to `prove`.
    Proved {
        /// The outcome.
        outcome: WireOutcome,
        /// Whether the request was served from a pooled (warm) session.
        pool_hit: bool,
        /// [`program_hash`] of the proved system.
        program_hash: u64,
    },
    /// Answer to `sweep`.
    Swept {
        /// Per-configuration outcomes in sweep order.
        outcomes: Vec<WireOutcome>,
        /// Whether the request was served from a pooled (warm) session.
        pool_hit: bool,
        /// [`program_hash`] of the swept system.
        program_hash: u64,
    },
    /// Answer to `analyze`: the textual pre-analysis report.
    Analyzed {
        /// The report (same text as `revterm analyze`).
        report: String,
    },
    /// Answer to `stats` / `metrics`: a server-defined JSON object (the
    /// daemon documents its shape; core treats it as opaque).
    Opaque(Json),
    /// Answer to `shutdown`.
    ShutdownAck,
    /// Any failure, as a structured error (`code` from [`Error::code`]).
    Failed(Error),
}

/// One response of the versioned wire API.
#[derive(Debug, Clone, PartialEq)]
pub struct ProveResponse {
    /// The correlation id echoed from the request (0 when the request was
    /// too malformed to carry one).
    pub id: u64,
    /// The body.
    pub body: ResponseBody,
}

impl ProveResponse {
    /// Shorthand for an error response.
    pub fn fail(id: u64, error: Error) -> ProveResponse {
        ProveResponse { id, body: ResponseBody::Failed(error) }
    }

    /// Serializes the response (always stamps [`PROTOCOL_VERSION`]).
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(&str, Json)> = vec![
            ("v", Json::from(PROTOCOL_VERSION)),
            ("id", Json::from(self.id)),
            ("ok", Json::Bool(!matches!(self.body, ResponseBody::Failed(_)))),
        ];
        match &self.body {
            ResponseBody::Parsed { program_hash, num_locs, num_vars, num_transitions } => {
                fields.push(("op", Json::from("parse")));
                fields.push(("program_hash", Json::from(hex_digest(*program_hash))));
                fields.push(("num_locs", Json::from(*num_locs as u64)));
                fields.push(("num_vars", Json::from(*num_vars as u64)));
                fields.push(("num_transitions", Json::from(*num_transitions as u64)));
            }
            ResponseBody::Proved { outcome, pool_hit, program_hash } => {
                fields.push(("op", Json::from("prove")));
                fields.push(("outcome", outcome.to_json()));
                fields.push(("pool_hit", Json::Bool(*pool_hit)));
                fields.push(("program_hash", Json::from(hex_digest(*program_hash))));
            }
            ResponseBody::Swept { outcomes, pool_hit, program_hash } => {
                fields.push(("op", Json::from("sweep")));
                fields.push((
                    "outcomes",
                    Json::Arr(outcomes.iter().map(WireOutcome::to_json).collect()),
                ));
                fields.push(("pool_hit", Json::Bool(*pool_hit)));
                fields.push(("program_hash", Json::from(hex_digest(*program_hash))));
            }
            ResponseBody::Analyzed { report } => {
                fields.push(("op", Json::from("analyze")));
                fields.push(("report", Json::from(report.clone())));
            }
            ResponseBody::Opaque(value) => {
                fields.push(("op", Json::from("stats")));
                fields.push(("data", value.clone()));
            }
            ResponseBody::ShutdownAck => {
                fields.push(("op", Json::from("shutdown")));
            }
            ResponseBody::Failed(error) => {
                fields.push((
                    "error",
                    Json::obj(vec![
                        ("code", Json::from(error.code())),
                        ("message", Json::from(error.message())),
                    ]),
                ));
            }
        }
        Json::obj(fields)
    }

    /// Deserializes and version-checks a response.
    ///
    /// # Errors
    ///
    /// [`Error::Protocol`] on malformed input or a version mismatch.
    pub fn from_json(value: &Json) -> Result<ProveResponse, Error> {
        let obj = value.as_obj_or("response")?;
        let version = obj.u64_field("v")?;
        if version != PROTOCOL_VERSION {
            return Err(Error::Protocol(format!("unsupported protocol version {version}")));
        }
        let id = obj.opt_u64_field("id")?.unwrap_or(0);
        if !obj.bool_field("ok")? {
            let error = obj.obj_field("error")?;
            let code = error.str_field("code")?;
            let message = error.str_field("message")?;
            return Ok(ProveResponse {
                id,
                body: ResponseBody::Failed(Error::from_code(code, message)),
            });
        }
        let body = match obj.str_field("op")? {
            "parse" => ResponseBody::Parsed {
                program_hash: parse_hex_digest(obj.str_field("program_hash")?)?,
                num_locs: obj.u64_field("num_locs")? as usize,
                num_vars: obj.u64_field("num_vars")? as usize,
                num_transitions: obj.u64_field("num_transitions")? as usize,
            },
            "prove" => ResponseBody::Proved {
                outcome: WireOutcome::from_json(obj.field("outcome")?)?,
                pool_hit: obj.bool_field("pool_hit")?,
                program_hash: parse_hex_digest(obj.str_field("program_hash")?)?,
            },
            "sweep" => {
                let outcomes = match obj.field("outcomes")? {
                    Json::Arr(items) => {
                        items.iter().map(WireOutcome::from_json).collect::<Result<_, _>>()?
                    }
                    other => {
                        return Err(Error::Protocol(format!(
                            "outcomes must be an array, got {other}"
                        )))
                    }
                };
                ResponseBody::Swept {
                    outcomes,
                    pool_hit: obj.bool_field("pool_hit")?,
                    program_hash: parse_hex_digest(obj.str_field("program_hash")?)?,
                }
            }
            "analyze" => ResponseBody::Analyzed { report: obj.str_field("report")?.to_string() },
            "stats" => ResponseBody::Opaque(obj.field("data")?.clone()),
            "shutdown" => ResponseBody::ShutdownAck,
            other => return Err(Error::Protocol(format!("unknown response op {other:?}"))),
        };
        Ok(ProveResponse { id, body })
    }
}

/// Builds the wire outcomes of a [`SweepReport`].
///
/// Sweep outcomes do not carry certificates (the report drops them), so the
/// digest covers the label/verdict pair only; `prove` responses carry the
/// full certificate digest.
pub fn sweep_to_outcomes(report: &SweepReport) -> Vec<WireOutcome> {
    report
        .outcomes
        .iter()
        .map(|o| {
            let verdict = if o.proved {
                "non-terminating"
            } else if o.timed_out {
                "timeout"
            } else {
                "unknown"
            };
            let mut hasher = revterm_num::Fnv64::new();
            o.label.hash(&mut hasher);
            verdict.hash(&mut hasher);
            WireOutcome {
                label: o.label.clone(),
                verdict: verdict.to_string(),
                digest: hasher.finish(),
                elapsed_us: o.elapsed.as_micros() as u64,
                stats: o.stats,
                certificate: None,
            }
        })
        .collect()
}

/// Renders the interval/sign pre-analysis report of a system — the exact
/// text the `revterm analyze` subcommand prints and the `analyze` wire
/// operation returns (one shared renderer keeps the two bitwise-identical).
pub fn analysis_report(ts: &TransitionSystem) -> String {
    use std::fmt::Write as _;
    let state = revterm_absint::analyze(ts);
    let names = ts.vars().names();
    let mut out = String::new();
    let _ = writeln!(out, "pre-analysis: {} locations, {} variables", ts.num_locs(), names.len());
    for loc in ts.locations() {
        match state.env(loc) {
            None => {
                let _ = writeln!(out, "  {:<8} unreachable", ts.loc_name(loc));
            }
            Some(env) => {
                let bounds: Vec<String> =
                    env.iter().enumerate().map(|(i, iv)| format!("{} in {iv}", names[i])).collect();
                let _ = writeln!(out, "  {:<8} {}", ts.loc_name(loc), bounds.join(", "));
            }
        }
    }
    let diag = revterm_absint::diagnostics(ts, &state);
    if !diag.unreachable_locs.is_empty() {
        let locs: Vec<&str> = diag.unreachable_locs.iter().map(|&l| ts.loc_name(l)).collect();
        let _ = writeln!(out, "unreachable locations: {}", locs.join(", "));
    }
    if !diag.unused_vars.is_empty() {
        let vars: Vec<&str> = diag.unused_vars.iter().map(|&i| names[i].as_str()).collect();
        let _ = writeln!(out, "unused variables: {}", vars.join(", "));
    }
    if !diag.constant_vars.is_empty() {
        let consts: Vec<String> =
            diag.constant_vars.iter().map(|(i, v)| format!("{} = {v}", names[*i])).collect();
        let _ = writeln!(out, "constant variables: {}", consts.join(", "));
    }
    if !diag.constant_guards.is_empty() {
        let guards: Vec<String> = diag
            .constant_guards
            .iter()
            .map(|(id, fires)| {
                format!("t{id} {}", if *fires { "always fires" } else { "never fires" })
            })
            .collect();
        let _ = writeln!(out, "decided guards: {}", guards.join(", "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ProverConfig, ProverSession};

    const RUNNING: &str =
        "while x >= 9 do x := ndet(); y := 10 * x; while x <= y do x := x + 1; od od";

    #[test]
    fn config_round_trips_through_json_including_non_default_fields() {
        for config in crate::degree1_sweep() {
            let json = config_to_json(&config);
            assert_eq!(config_from_json(&json).unwrap(), config);
            // The compact label form round-trips grid cells too.
            let label = Json::from(config.label());
            assert_eq!(config_from_json(&label).unwrap(), config);
        }
        // Non-default fields survive the object form (and would be lost by
        // the label form, which is why the full encoding exists).
        let mut config = ProverConfig::builder()
            .resolution_degree(2)
            .max_resolutions(7)
            .absint(false)
            .time_limit(Duration::from_millis(250))
            .build();
        config.entailment.lp_engine = LpEngine::Dense;
        config.budget.max_entailment_calls = Some(12345);
        let roundtripped = config_from_json(&config_to_json(&config)).unwrap();
        assert_eq!(roundtripped, config);
    }

    #[test]
    fn config_from_json_ignores_the_absint_field_of_older_clients() {
        // Older clients send `absint` beside `interval_fast_path`, now the
        // one flag for both halves of the machinery: either value is ignored.
        let config = ProverConfig::builder().absint(false).build();
        let text = config_to_json(&config).to_string();
        assert!(!text.contains("absint"), "{text}");
        for absint in [true, false] {
            let old = text.replace(r#","budget""#, &format!(r#","absint":{absint},"budget""#));
            assert_ne!(old, text);
            assert_eq!(config_from_json(&json::parse_json(&old).unwrap()).unwrap(), config);
        }
    }

    #[test]
    fn config_from_json_accepts_retired_fields_only_at_their_fixed_values() {
        // An older client's object carries the search bounds and the unsat
        // fallback flag, now fixed; at those values it decodes to the same
        // configuration.
        let config = ProverConfig::builder().template(3, 1, 1).max_resolutions(7).build();
        let text = config_to_json(&config).to_string();
        let entailment = r#""entailment":{"#;
        assert!(text.contains(entailment) && !text.contains("search"), "{text}");
        let old = |grid: &str, unsat_fallback: &str| {
            let retired = format!(
                r#""search":{{"max_steps":60,"max_configs":4000,"max_initial":64,"grid":{grid}}},{entailment}"use_unsat_fallback":{unsat_fallback},"#
            );
            config_from_json(&json::parse_json(&text.replace(entailment, &retired)).unwrap())
        };
        assert_eq!(old("2", "true").unwrap(), config);
        // Any other value is refused, naming the field.
        for (grid, unsat_fallback, field) in [
            ("5", "true", "search.grid"),
            ("\"2\"", "true", "search.grid"),
            ("2", "false", "entailment.use_unsat_fallback"),
        ] {
            match old(grid, unsat_fallback) {
                Err(Error::Protocol(message)) => {
                    assert!(message.contains(&format!("{field:?}")), "{message}")
                }
                other => panic!("grid {grid}, fallback {unsat_fallback}: {other:?}"),
            }
        }
    }

    #[test]
    fn lp_engine_names_are_revised_or_dense_and_nothing_else() {
        // The default object form with the `lp_engine` value replaced by
        // `name`.
        let base = config_to_json(&ProverConfig::default()).to_string();
        let field = r#""lp_engine":"revised""#;
        assert!(base.contains(field), "{base}");
        let with = |name: &str| {
            let text = base.replace(field, &format!(r#""lp_engine":"{name}""#));
            config_from_json(&json::parse_json(&text).unwrap())
        };
        for (name, engine) in [("revised", LpEngine::Revised), ("dense", LpEngine::Dense)] {
            let mut config = ProverConfig::default();
            config.entailment.lp_engine = engine;
            let encoded = config_to_json(&config).to_string();
            assert!(encoded.contains(&format!(r#""lp_engine":"{name}""#)), "{encoded}");
            assert_eq!(with(name).unwrap(), config);
        }
        // Any other name, the retired "sparse" included, is a protocol
        // error that names it.
        for name in ["sparse", "Dense", ""] {
            let err = with(name).unwrap_err();
            assert!(matches!(err, Error::Protocol(_)), "{err}");
            assert!(err.to_string().contains(&format!("{name:?}")), "{err}");
        }
    }

    #[test]
    fn config_degrees_past_u32_are_protocol_errors_not_truncations() {
        let base = config_to_json(&ProverConfig::default()).to_string();
        // `base` with the integer after `"key":` replaced by `value`.
        let with = |key: &str, value: u64| {
            let label = format!("\"{key}\":");
            let at = base.find(&label).expect("field present") + label.len();
            let digits = base[at..].find(|ch: char| !ch.is_ascii_digit()).unwrap();
            let text = format!("{}{value}{}", &base[..at], &base[at + digits..]);
            config_from_json(&json::parse_json(&text).unwrap())
        };
        for key in ["resolution_degree", "max_product_degree"] {
            // 2^32 + 1, which an `as u32` cast truncates to 1.
            let err = with(key, (1 << 32) + 1).unwrap_err();
            assert!(matches!(err, Error::Protocol(_)), "{err}");
            assert!(err.to_string().contains(key) && err.to_string().contains("4294967297"));
            let widest = with(key, u64::from(u32::MAX)).unwrap();
            let degree = match key {
                "resolution_degree" => widest.resolution_degree,
                _ => widest.entailment.max_product_degree,
            };
            assert_eq!(degree, u32::MAX);
        }
    }

    #[test]
    fn stats_round_trip_through_json() {
        let mut stats = ProveStats {
            candidates_tried: 3,
            synthesis_calls: 2,
            entailment_calls: 101,
            entailment_cache_hits: 57,
            probe_cache_hits: 9,
            probe_cache_misses: 4,
            artifact_cache_hits: 8,
            artifact_cache_misses: 6,
            absint_prunes: 1,
            ..Default::default()
        };
        stats.lp.solves = 44;
        stats.lp.pivots = 1234;
        stats.lp.warm_lookups = 44;
        stats.lp.warm_hits = 11;
        assert_eq!(stats_from_json(&stats_to_json(&stats)).unwrap(), stats);
    }

    #[test]
    fn requests_round_trip_through_json() {
        let requests = vec![
            ProveRequest { id: 1, body: RequestBody::Parse { source: RUNNING.into() } },
            ProveRequest {
                id: 2,
                body: RequestBody::Prove {
                    source: RUNNING.into(),
                    configs: crate::quick_sweep(),
                    deadline_ms: Some(5000),
                },
            },
            ProveRequest {
                id: 3,
                body: RequestBody::Sweep {
                    source: "while true do skip; od".into(),
                    configs: Vec::new(),
                    stop_after: 1,
                    deadline_ms: None,
                },
            },
            ProveRequest { id: 4, body: RequestBody::Analyze { source: "x := 1;".into() } },
            ProveRequest { id: 5, body: RequestBody::Stats },
            ProveRequest { id: 6, body: RequestBody::Metrics },
            ProveRequest { id: 7, body: RequestBody::Shutdown },
        ];
        for request in requests {
            let line = request.to_json().to_string();
            let parsed = ProveRequest::from_json(&json::parse_json(&line).unwrap()).unwrap();
            assert_eq!(parsed, request, "round-trip failed for {line}");
        }
    }

    #[test]
    fn version_mismatch_is_a_structured_protocol_error() {
        let wrong = r#"{"v": 99, "op": "stats", "id": 1}"#;
        let err = ProveRequest::from_json(&json::parse_json(wrong).unwrap()).unwrap_err();
        assert!(matches!(err, Error::Protocol(_)), "{err}");
        assert!(err.to_string().contains("99"));
        let unknown_op = r#"{"v": 1, "op": "frobnicate"}"#;
        let err = ProveRequest::from_json(&json::parse_json(unknown_op).unwrap()).unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn responses_round_trip_through_json() {
        let mut session = ProverSession::from_source(RUNNING).unwrap();
        let result = session.prove(&ProverConfig::default());
        assert!(result.is_non_terminating());
        let outcome = WireOutcome::from_result(&result, session.ts());
        let hash = program_hash(session.ts());
        let responses = vec![
            ProveResponse {
                id: 1,
                body: ResponseBody::Parsed {
                    program_hash: hash,
                    num_locs: 4,
                    num_vars: 2,
                    num_transitions: 7,
                },
            },
            ProveResponse {
                id: 2,
                body: ResponseBody::Proved {
                    outcome: outcome.clone(),
                    pool_hit: true,
                    program_hash: hash,
                },
            },
            ProveResponse {
                id: 3,
                body: ResponseBody::Swept {
                    outcomes: vec![outcome],
                    pool_hit: false,
                    program_hash: hash,
                },
            },
            ProveResponse { id: 4, body: ResponseBody::Analyzed { report: "r\n".into() } },
            ProveResponse {
                id: 5,
                body: ResponseBody::Opaque(Json::obj(vec![("x", Json::from(1u64))])),
            },
            ProveResponse { id: 6, body: ResponseBody::ShutdownAck },
            ProveResponse::fail(7, Error::Timeout),
            ProveResponse::fail(8, Error::Parse("bad token".into())),
        ];
        for response in responses {
            let line = response.to_json().to_string();
            let parsed = ProveResponse::from_json(&json::parse_json(&line).unwrap()).unwrap();
            assert_eq!(parsed, response, "round-trip failed for {line}");
        }
    }

    #[test]
    fn certificate_digest_is_stable_across_sessions_and_verdict_kinds_differ() {
        let mut a = ProverSession::from_source(RUNNING).unwrap();
        let mut b = ProverSession::from_source(RUNNING).unwrap();
        let ra = a.prove(&ProverConfig::default());
        let rb = b.prove(&ProverConfig::default());
        assert_eq!(outcome_digest(&ra, a.ts()), outcome_digest(&rb, b.ts()));
        assert_eq!(
            certificate_digest(ra.certificate().unwrap(), a.ts()),
            certificate_digest(rb.certificate().unwrap(), b.ts()),
        );
        // An unknown outcome digests differently from a proof.
        let unknown = ProofResult {
            verdict: Verdict::Unknown,
            elapsed: Duration::ZERO,
            config_label: ra.config_label.clone(),
            stats: ProveStats::default(),
        };
        assert_ne!(outcome_digest(&unknown, a.ts()), outcome_digest(&ra, a.ts()));
        assert_eq!(hex_digest(0xabc), "0000000000000abc");
        assert_eq!(parse_hex_digest("0000000000000abc").unwrap(), 0xabc);
        assert!(parse_hex_digest("zz").is_err());
    }

    #[test]
    fn analysis_report_matches_system_shape() {
        let session = ProverSession::from_source("x := 5; while x >= 0 do x := x + 1; od").unwrap();
        let report = analysis_report(session.ts());
        assert!(report.contains("pre-analysis:"));
        assert!(report.contains("x in [5, +inf)"));
        assert!(report.contains("unreachable locations: out"));
    }
}
