//! Prover configurations (the paper's Section 6 "configurations").

use crate::error::Error;
use revterm_invgen::TemplateParams;
use revterm_solver::EntailmentOptions;
use std::fmt;
use std::time::{Duration, Instant};

/// A cooperative per-run budget: an optional wall-clock limit, an optional
/// whole-request deadline and an optional cap on entailment-oracle calls.
///
/// This is the one limit of a run.  A prove arms it when it starts — the
/// earlier of `start + time_limit` and `deadline` is the cutoff — and polls
/// it before any work, at *candidate boundaries* (between candidate
/// `(resolution, initial)` pairs and before each invariant synthesis) and
/// before every entailment lookup, so a run makes at most
/// `max_entailment_calls` of them.  A search it cuts short is never
/// memoized, and no synthesis is memoized on its own, so an interrupted run
/// leaves every session cache entry fully computed (an interrupted session
/// is never poisoned; the next call on it behaves exactly like a call on a
/// fresh session with the same warm caches).  When the budget expires the verdict is the structured
/// [`crate::Verdict::Timeout`], which the wire layer maps to
/// [`Error::Timeout`].
///
/// The default budget is unlimited, so existing callers are unaffected; the
/// budget is deliberately **not** part of [`ProverConfig::label`] or of any
/// cache key (two runs that differ only in budget are the same
/// configuration, one of them merely cut short).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Budget {
    /// Wall-clock limit for one `prove` call (`None` = unlimited).  It is
    /// armed when the call starts, so the same configuration value can be
    /// reused across requests.
    pub time_limit: Option<Duration>,
    /// A point in time shared by every run of one request (`None` = none):
    /// the daemon and the CLI write their `deadline_ms` here, into each
    /// configuration of the request.  A run that starts at or after it times
    /// out before doing any work.
    pub deadline: Option<Instant>,
    /// Maximal number of entailment-oracle lookups one `prove` call may
    /// issue (`None` = unlimited).  Unlike the wall clock this cap is
    /// deterministic: the same request with the same cap times out at the
    /// same point on every machine.
    pub max_entailment_calls: Option<u64>,
}

impl Budget {
    /// The unlimited budget (the default).
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// A wall-clock-only budget.
    pub fn with_time_limit(limit: Duration) -> Budget {
        Budget { time_limit: Some(limit), ..Budget::default() }
    }
}

/// Which of the two checks of Algorithm 1 to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CheckKind {
    /// Check 1: find a resolution of non-determinism, an initial
    /// configuration and an inductive invariant of the restricted system
    /// that avoids `ℓ_out` (no safety prover needed).
    Check1,
    /// Check 2: find a resolution, an invariant `Ĩ` of the full system, and a
    /// backward invariant `BI` of the reversed restricted system whose
    /// complement is reachable (confirmed by the safety prover).
    Check2,
}

impl fmt::Display for CheckKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckKind::Check1 => write!(f, "Check 1"),
            CheckKind::Check2 => write!(f, "Check 2"),
        }
    }
}

impl CheckKind {
    /// The check's name in configuration labels, certificate digests and on
    /// the wire: `check1` or `check2`.
    pub(crate) fn name(self) -> &'static str {
        match self {
            CheckKind::Check1 => "check1",
            CheckKind::Check2 => "check2",
        }
    }

    /// The check whose [`CheckKind::name`] is `name`, if any.
    pub(crate) fn from_name(name: &str) -> Option<CheckKind> {
        [CheckKind::Check1, CheckKind::Check2].into_iter().find(|check| check.name() == name)
    }
}

/// The synthesis strategy — this reproduction's stand-in for the paper's
/// choice of SMT solver (Z3 / MathSAT5 / Barcelogic).
///
/// Both strategies run the same guess-and-check synthesis and differ only in
/// the template parameters they hand it: `GuardPropagation` synthesizes with
/// `TemplateParams::new(min(c, 3), 1, 1)`. At degree 1 with `c ≤ 3` — every
/// cell of the default grid, and the fuzz portfolio's `(2, 1, 1)` cell — its
/// search therefore has the search-memo key of the `Houdini` cell with the
/// same check and `c`, and at degree 2 that of the `Houdini` degree-1 cell.
/// On those grids the axis changes labels, not work: a session serves each
/// such cell from its twin's search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Synthesis over the atom pool of the configuration's own template
    /// parameters (see [`TemplateParams`]).
    Houdini,
    /// Synthesis over the degree-1 pool of `min(c, 3)`, whatever the
    /// configuration's degree.
    GuardPropagation,
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Strategy::Houdini => write!(f, "houdini"),
            Strategy::GuardPropagation => write!(f, "guard-prop"),
        }
    }
}

/// A full prover configuration: which check, which synthesis strategy, the
/// template parameters `(c, d, D)`, entailment options, candidate caps and
/// budget.
///
/// The bounds of the explicit-state searches (initial valuations, sampling,
/// safety queries) are not settable: both checks use
/// [`revterm_safety::SearchBounds::default`].  Nor is the degree of the
/// polynomials that resolve non-determinism: it is 1 (constants, variables
/// and their `±1` offsets and negations).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProverConfig {
    /// Which check to run.
    pub check: CheckKind,
    /// Synthesis strategy (the "SMT solver" axis).
    pub strategy: Strategy,
    /// Template parameters for predicate maps.
    pub params: TemplateParams,
    /// Entailment budget.
    pub entailment: EntailmentOptions,
    /// Maximal number of candidate resolutions of non-determinism tried.
    pub max_resolutions: usize,
    /// Maximal number of candidate initial configurations tried per
    /// resolution (Check 1).
    pub max_initial_configs: usize,
    /// Number of interpreter steps used to classify a run as "apparently
    /// diverging" before attempting invariant synthesis.
    pub divergence_probe_steps: usize,
    /// Cooperative per-call budget (deadline and work cap); unlimited by
    /// default.  Deliberately not part of [`ProverConfig::label`]: a budget
    /// never changes *what* is computed, only how far the computation is
    /// allowed to run.
    pub budget: Budget,
}

impl Default for ProverConfig {
    fn default() -> Self {
        ProverConfig {
            check: CheckKind::Check1,
            strategy: Strategy::Houdini,
            params: TemplateParams::new(2, 1, 1),
            entailment: EntailmentOptions::default(),
            max_resolutions: 24,
            max_initial_configs: 6,
            divergence_probe_steps: 120,
            budget: Budget::default(),
        }
    }
}

impl ProverConfig {
    /// A configuration running the given check with default settings.
    pub fn with_check(check: CheckKind) -> ProverConfig {
        ProverConfig { check, ..ProverConfig::default() }
    }

    /// Starts building a configuration from the defaults.
    ///
    /// Preferred over struct-literal construction (`ProverConfig { .. }`):
    /// the builder keeps call sites stable as configuration fields are added.
    ///
    /// ```
    /// use revterm::{CheckKind, ProverConfig, Strategy};
    ///
    /// let config = ProverConfig::builder()
    ///     .check(CheckKind::Check2)
    ///     .strategy(Strategy::GuardPropagation)
    ///     .template(3, 1, 1)
    ///     .build();
    /// assert_eq!(config.label(), "check2/guard-prop/(c=3,d=1,D=1)");
    /// ```
    pub fn builder() -> ProverConfigBuilder {
        ProverConfigBuilder::new()
    }

    /// Human-readable label, e.g. `check1/houdini/(c=2,d=1,D=1)`.
    ///
    /// The label is a stable, parseable round-trip: for any configuration
    /// whose non-labelled fields (entailment options, caps, [`Budget`]) are
    /// at their defaults — which is true of every grid cell produced by
    /// [`crate::default_sweep`] —
    /// `ProverConfig::parse_label(&config.label())` reconstructs the
    /// configuration exactly.  This is how wire requests and sweep reports
    /// name configurations textually.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/(c={},d={},D={})",
            self.check.name(),
            self.strategy,
            self.params.c,
            self.params.d,
            self.params.degree
        )
    }

    /// Parses a configuration label produced by [`ProverConfig::label`] back
    /// into a configuration.
    ///
    /// The label encodes the check, strategy and template parameters; every
    /// other field takes its default value.  The grammar is exactly
    /// `<check>/<strategy>/(c=<n>,d=<n>,D=<n>)` with `<check>` one of
    /// `check1` / `check2` and `<strategy>` one of `houdini` / `guard-prop`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadLabel`] naming the offending component when the
    /// label does not match the grammar.
    pub fn parse_label(label: &str) -> Result<ProverConfig, Error> {
        let bad = |what: &str| Error::BadLabel(format!("{what} in {label:?}"));
        let mut parts = label.splitn(3, '/');
        let check = parts
            .next()
            .and_then(CheckKind::from_name)
            .ok_or_else(|| bad("unknown check (want check1 or check2)"))?;
        let strategy = match parts.next() {
            Some("houdini") => Strategy::Houdini,
            Some("guard-prop") => Strategy::GuardPropagation,
            _ => return Err(bad("unknown strategy (want houdini or guard-prop)")),
        };
        let params = parts.next().ok_or_else(|| bad("missing template parameters"))?;
        let inner = params
            .strip_prefix("(c=")
            .and_then(|rest| rest.strip_suffix(')'))
            .ok_or_else(|| bad("template parameters must look like (c=N,d=N,D=N)"))?;
        let mut fields = inner.splitn(3, ',');
        let c: usize =
            fields.next().and_then(|v| v.parse().ok()).ok_or_else(|| bad("bad c parameter"))?;
        let d: usize = fields
            .next()
            .and_then(|v| v.strip_prefix("d="))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("bad d parameter"))?;
        let degree: u32 = fields
            .next()
            .and_then(|v| v.strip_prefix("D="))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("bad D parameter"))?;
        Ok(ProverConfig::builder()
            .check(check)
            .strategy(strategy)
            .params(TemplateParams::new(c, d, degree))
            .build())
    }
}

/// Builder for [`ProverConfig`], replacing struct-literal construction as the
/// public way to assemble configurations (see [`ProverConfig::builder`]).
#[derive(Debug, Clone, Default)]
pub struct ProverConfigBuilder {
    config: ProverConfig,
}

impl ProverConfigBuilder {
    /// Starts from [`ProverConfig::default`].
    pub fn new() -> ProverConfigBuilder {
        ProverConfigBuilder { config: ProverConfig::default() }
    }

    /// Which check to run.
    pub fn check(mut self, check: CheckKind) -> Self {
        self.config.check = check;
        self
    }

    /// Synthesis strategy (the "SMT solver" axis).
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.config.strategy = strategy;
        self
    }

    /// Template parameters for predicate maps.
    pub fn params(mut self, params: TemplateParams) -> Self {
        self.config.params = params;
        self
    }

    /// Template parameters given directly as `(c, d, D)`.
    pub fn template(self, c: usize, d: usize, degree: u32) -> Self {
        self.params(TemplateParams::new(c, d, degree))
    }

    /// Entailment budget.
    pub fn entailment(mut self, entailment: EntailmentOptions) -> Self {
        self.config.entailment = entailment;
        self
    }

    /// Maximal number of candidate resolutions of non-determinism tried.
    pub fn max_resolutions(mut self, max: usize) -> Self {
        self.config.max_resolutions = max;
        self
    }

    /// Maximal number of candidate initial configurations tried per
    /// resolution (Check 1).
    pub fn max_initial_configs(mut self, max: usize) -> Self {
        self.config.max_initial_configs = max;
        self
    }

    /// Number of interpreter steps used to classify a run as "apparently
    /// diverging".
    pub fn divergence_probe_steps(mut self, steps: usize) -> Self {
        self.config.divergence_probe_steps = steps;
        self
    }

    /// Toggles the `absint` machinery: the interval entailment fast path and
    /// the pre-analysis that skips Check 2 probe batches whose outcome it
    /// proves.  Both read the one flag
    /// `EntailmentOptions::interval_fast_path`, which is deliberately not
    /// part of [`ProverConfig::label`].  Results are bitwise identical
    /// either way — `false` is for differential testing and benchmarking
    /// (`--no-absint` in the CLI).
    pub fn absint(mut self, on: bool) -> Self {
        self.config.entailment.interval_fast_path = on;
        self
    }

    /// Cooperative per-call budget (deadline and work cap); see [`Budget`].
    pub fn budget(mut self, budget: Budget) -> Self {
        self.config.budget = budget;
        self
    }

    /// Wall-clock limit shorthand for [`ProverConfigBuilder::budget`].
    pub fn time_limit(mut self, limit: Duration) -> Self {
        self.config.budget.time_limit = Some(limit);
        self
    }

    /// Finishes the build.
    pub fn build(self) -> ProverConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_mirrors_struct_literal_construction() {
        let built = ProverConfig::builder()
            .check(CheckKind::Check2)
            .strategy(Strategy::GuardPropagation)
            .template(3, 2, 2)
            .max_resolutions(10)
            .max_initial_configs(4)
            .divergence_probe_steps(80)
            .build();
        assert_eq!(built.check, CheckKind::Check2);
        assert_eq!(built.strategy, Strategy::GuardPropagation);
        assert_eq!(built.params, TemplateParams::new(3, 2, 2));
        assert_eq!(built.max_resolutions, 10);
        assert_eq!(built.max_initial_configs, 4);
        assert_eq!(built.divergence_probe_steps, 80);
        // Untouched fields keep their defaults.
        let default = ProverConfig::default();
        assert_eq!(built.entailment, default.entailment);
        assert_eq!(ProverConfigBuilder::new().build().label(), default.label());
    }

    #[test]
    fn absint_toggle_flips_both_knobs() {
        // The fast path and the probe prune both read this one flag.
        let on = ProverConfig::default();
        assert!(on.entailment.interval_fast_path);
        let off = ProverConfig::builder().absint(false).build();
        assert!(!off.entailment.interval_fast_path);
        assert_eq!(off, ProverConfig { entailment: off.entailment.clone(), ..on });
        // Deliberately not part of the label: results are identical either
        // way, so the knob must not split sweep reports into new cells.
        assert_eq!(off.label(), on.label());
    }

    #[test]
    fn parse_label_round_trips_the_degree1_grid() {
        // Every grid cell uses default non-labelled fields, so the label is
        // a faithful round-trip of the whole configuration.
        for config in crate::sweep::default_sweep() {
            let parsed = ProverConfig::parse_label(&config.label())
                .unwrap_or_else(|e| panic!("label {:?} failed to parse: {e}", config.label()));
            assert_eq!(parsed, config, "round-trip mismatch for {:?}", config.label());
            assert_eq!(parsed.label(), config.label());
        }
    }

    #[test]
    fn parse_label_rejects_malformed_labels() {
        for bad in [
            "",
            "check3/houdini/(c=1,d=1,D=1)",
            "check1/z3/(c=1,d=1,D=1)",
            "check1/houdini",
            "check1/houdini/(c=1,d=1)",
            "check1/houdini/(c=x,d=1,D=1)",
            "check1/houdini/(c=1,d=1,D=1",
            "check1/houdini/c=1,d=1,D=1",
        ] {
            let err = ProverConfig::parse_label(bad).expect_err(bad);
            assert!(matches!(err, crate::Error::BadLabel(_)), "{bad}: {err}");
            // The message names the offending label for diagnosability.
            assert!(err.to_string().contains(bad) || !bad.is_empty());
        }
    }

    #[test]
    fn budget_defaults_to_unlimited_and_stays_out_of_the_label() {
        let config = ProverConfig::default();
        assert_eq!(config.budget, Budget::unlimited());
        let limited =
            ProverConfig::builder().time_limit(std::time::Duration::from_millis(5)).build();
        assert_ne!(limited.budget, Budget::unlimited());
        assert_eq!(limited.label(), config.label());
        let capped = ProverConfig::builder()
            .budget(Budget { max_entailment_calls: Some(100), ..Budget::unlimited() })
            .build();
        assert_eq!(capped.budget.max_entailment_calls, Some(100));
        let until = Budget { deadline: Some(Instant::now()), ..Budget::unlimited() };
        assert_ne!(until, Budget::unlimited());
        assert_eq!(
            Budget::with_time_limit(std::time::Duration::from_secs(1)).time_limit,
            Some(std::time::Duration::from_secs(1))
        );
    }

    #[test]
    fn labels_and_defaults() {
        let c = ProverConfig::default();
        assert_eq!(c.check, CheckKind::Check1);
        assert_eq!(c.label(), "check1/houdini/(c=2,d=1,D=1)");
        let c2 = ProverConfig::with_check(CheckKind::Check2);
        assert!(c2.label().starts_with("check2/"));
        assert_eq!(CheckKind::Check1.to_string(), "Check 1");
        assert_eq!(Strategy::GuardPropagation.to_string(), "guard-prop");
    }
}
