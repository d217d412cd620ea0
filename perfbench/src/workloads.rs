//! The three workloads and what one pass of each measures.

use crate::host;
use crate::trace::{SpanId, Tracer};
use revterm::api::outcome_digest;
use revterm::{
    degree1_sweep, quick_sweep, validate_certificate, ProofResult, ProveStats, ProverConfig,
    ProverSession,
};
use revterm_fuzzgen::{default_portfolio, generate_batch, GenConfig, GeneratedProgram, KnownLabel};
use revterm_serve::{serve, Client, ServeConfig, ServerHandle};
use revterm_solver::SplitMix64;
use revterm_suite::{curated_benchmarks, Benchmark, Expected};
use revterm_ts::TransitionSystem;
use std::thread;
use std::time::Instant;

/// Programs per `fuzz_cold` run: enough that ten lie beyond the 90th
/// latency percentile.
const FUZZ_PROGRAMS: usize = 100;

/// Master seed of the `fuzz_cold` batch: the CI fuzz smoke's seed.  The
/// run's own seed only orders the batch and does not pick its programs:
/// freshly drawn batches of 100 differ in cost so much (a few programs that
/// exhaust the budget take seconds each) that their throughput spreads by
/// about 30 % between seeds.
const FUZZ_MASTER_SEED: u64 = 0x5eed_f22d;

/// Entailment-call cap of each `fuzz_cold` portfolio configuration.  It
/// replaces the portfolio's wall-clock limit, so a budget cut happens at
/// the same point on every machine.
const FUZZ_ENTAIL_CAP: u64 = 200;

/// Warm requests per `serve_warm` run (rounded up to whole rounds over the
/// suite): enough that ten lie beyond the 99th latency percentile.
const SERVE_MIN_REQUESTS: usize = 1000;

/// Client connections of `serve_warm`, one thread each.
pub const SERVE_CONNECTIONS: usize = 2;

/// Seconds between host-speed probes inside a single-threaded timed phase.
const PROBE_EVERY_S: f64 = 1.0;

/// Rounds between host-speed probes in `serve_warm`'s timed phase.  Both
/// connections finish their rounds, the probe runs on an idle host, and the
/// next rounds start: a probe beside the two busy connections would both
/// slow them and measure a shared CPU.
const SERVE_ROUNDS_PER_PROBE: usize = 4;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every curated program on one session, swept over the degree-1 grid.
    SuiteDeg1,
    /// A seeded batch of generated programs, each on a fresh session.
    FuzzCold,
    /// Warm requests to a resident daemon that already holds every program.
    ServeWarm,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::SuiteDeg1, Workload::FuzzCold, Workload::ServeWarm];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteDeg1 => "suite_deg1",
            Workload::FuzzCold => "fuzz_cold",
            Workload::ServeWarm => "serve_warm",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How an untraced pass times its set-up.  One `suite_deg1` or
    /// `fuzz_cold` set-up takes about a millisecond, too short to time
    /// steadily, so each interval covers 100 of them.  `serve_warm` boots
    /// one daemon per pass, which takes seconds.
    pub fn setup(self) -> Setup {
        match self {
            Workload::SuiteDeg1 => Setup { blocks: 2, reps: 100 },
            Workload::FuzzCold => Setup { blocks: 5, reps: 100 },
            Workload::ServeWarm => Setup::ONCE,
        }
    }

    /// Passes per untraced run; the run reports their median timings and
    /// pools their latency samples.  `suite_deg1` takes three, so that its
    /// 90th latency percentile has ten program sweeps beyond it.
    /// `serve_warm` takes three, each on a freshly booted daemon: its timed
    /// phase varies by about 10 % between daemons of one process, several
    /// times more than the single-threaded workloads do.
    pub fn passes(self) -> usize {
        match self {
            Workload::SuiteDeg1 | Workload::ServeWarm => 3,
            Workload::FuzzCold => 1,
        }
    }

    /// Runs one pass of the workload at full size.
    pub fn run(self, seed: u64, setup: Setup, tracer: Tracer) -> Pass {
        match self {
            Workload::SuiteDeg1 => suite_deg1(&suite_programs(), setup, tracer),
            Workload::FuzzCold => fuzz_cold(seed, FUZZ_PROGRAMS, setup, tracer),
            Workload::ServeWarm => serve_warm(&suite_programs(), seed, SERVE_MIN_REQUESTS, tracer),
        }
    }
}

/// How a pass times its set-up: `blocks` intervals, each covering `reps`
/// consecutive set-ups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Setup {
    /// Timed intervals per pass.
    pub blocks: usize,
    /// Set-ups per interval.
    pub reps: usize,
}

impl Setup {
    /// A single set-up, as the traced run and the tests do it.
    pub const ONCE: Setup = Setup { blocks: 1, reps: 1 };
}

/// Machine-independent counters of one pass, read at layer boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// [`ProveStats`] summed over every result of the timed phase.
    pub prove: ProveStats,
    /// Results ending `NonTerminating`, each with a validated certificate.
    pub certificates: u64,
    /// Results cut by the entailment-call budget.
    pub timeouts: u64,
    /// Daemon session-pool hits over the timed phase.
    pub pool_hits: u64,
    /// Daemon session-pool misses over the timed phase.
    pub pool_misses: u64,
    /// Daemon session-pool evictions over the timed phase.
    pub pool_evictions: u64,
}

impl Counts {
    fn record(&mut self, stats: &ProveStats, proved: bool, timed_out: bool) {
        self.prove.accumulate(stats);
        self.certificates += u64::from(proved);
        self.timeouts += u64::from(timed_out);
    }

    fn absorb(&mut self, other: &Counts) {
        self.prove.accumulate(&other.prove);
        self.certificates += other.certificates;
        self.timeouts += other.timeouts;
    }
}

/// What one pass of a workload measured.
pub struct Pass {
    /// Seconds of each timed set-up interval (see [`Setup`]), each divided
    /// by the host slowdown that a probe on either side of it measured.
    pub setup_s: Vec<f64>,
    /// Wall seconds of the timed phase.
    pub wall_s: f64,
    /// Process CPU seconds (user plus system, all threads) of the timed phase.
    pub cpu_s: f64,
    /// Host steal seconds (all CPUs) during the timed phase.
    pub steal_s: f64,
    /// Latency samples of the timed phase, in milliseconds: one per op, or
    /// in `suite_deg1` one per program sweep.
    pub latencies_ms: Vec<f64>,
    /// Ops attempted in the timed phase.
    pub ops: u64,
    /// Ops that ended in an error instead of a verdict.
    pub errors: u64,
    /// Output-check failures, one line each.
    pub violations: Vec<String>,
    /// Counters of the timed phase.
    pub counts: Counts,
    /// Peak resident set size (`VmHWM`) when the timed phase ended, in MiB.
    pub peak_rss_mib: f64,
    /// Sum of the prover time each daemon response reports (`serve_warm`).
    pub serve_prover_s: f64,
    /// Seconds of each host-speed probe of the timed phase.
    probes_s: Vec<f64>,
    /// Wall seconds spent probing so far, which no timing counts.
    probing_s: f64,
    /// When the last probe ended.
    last_probe: Instant,
    /// Spans of the pass (empty unless traced).
    pub tracer: Tracer,
}

impl Pass {
    fn new(tracer: Tracer) -> Pass {
        Pass {
            setup_s: Vec::new(),
            wall_s: 0.0,
            cpu_s: 0.0,
            steal_s: 0.0,
            latencies_ms: Vec::new(),
            ops: 0,
            errors: 0,
            violations: Vec::new(),
            counts: Counts::default(),
            peak_rss_mib: 0.0,
            serve_prover_s: 0.0,
            probes_s: Vec::new(),
            probing_s: 0.0,
            last_probe: Instant::now(),
            tracer,
        }
    }

    /// How many times slower than the reference host this host ran during
    /// the timed phase: the median probe ÷ [`host::REFERENCE_PROBE_S`].
    pub fn slowdown(&self) -> f64 {
        crate::quantile(&self.probes_s, 0.5) / host::REFERENCE_PROBE_S
    }

    /// Probes the host's speed if `force` is set or `PROBE_EVERY_S` has
    /// passed since the last probe.  Call it between ops only, so that no
    /// latency sample contains a probe.
    fn probe(&mut self, force: bool) {
        if !force && self.last_probe.elapsed().as_secs_f64() < PROBE_EVERY_S {
            return;
        }
        let start = Instant::now();
        self.probes_s.push(host::probe_s());
        self.last_probe = Instant::now();
        self.probing_s += self.last_probe.duration_since(start).as_secs_f64();
    }

    /// Folds in the pass of one `serve_warm` connection thread.
    fn absorb(&mut self, conn: Pass) {
        self.latencies_ms.extend(conn.latencies_ms);
        self.ops += conn.ops;
        self.errors += conn.errors;
        self.violations.extend(conn.violations);
        self.counts.absorb(&conn.counts);
        self.serve_prover_s += conn.serve_prover_s;
        self.tracer.absorb(conn.tracer);
    }

    /// The check every workload makes: a program known to terminate must
    /// never be proved non-terminating.
    fn check_label(&mut self, name: impl std::fmt::Display, terminating: bool, proved: bool) {
        if terminating && proved {
            self.violations
                .push(format!("{name} terminates by its label but was proved non-terminating"));
        }
    }

    /// Runs `prepare` `setup.blocks × setup.reps` times, timing each block
    /// of `setup.reps` runs as one interval, and returns the last result.
    fn set_up<T>(&mut self, setup: Setup, mut prepare: impl FnMut(&mut Pass) -> T) -> T {
        let mut prepared = None;
        for _ in 0..setup.blocks {
            let probe_s = host::probe_s();
            let start = Instant::now();
            for _ in 0..setup.reps {
                prepared = Some(prepare(self));
            }
            self.push_setup(start.elapsed().as_secs_f64(), probe_s);
        }
        prepared.expect("a set-up runs at least once")
    }

    /// Records a set-up interval of `raw_s` seconds, divided by the slowdown
    /// that the probe of `probe_s` seconds before it and one taken now measure.
    /// The host's speed drifts within a second, so a set-up of a tenth of a
    /// second is held to the probes beside it, not to the timed phase's.
    fn push_setup(&mut self, raw_s: f64, probe_s: f64) {
        let slowdown = (probe_s + host::probe_s()) / 2.0 / host::REFERENCE_PROBE_S;
        self.setup_s.push(raw_s / slowdown);
    }

    /// Times `timed` as the pass's measured phase, with a host-speed probe
    /// on each side.  The probes `timed` runs between ops count neither as
    /// wall nor as CPU time.
    fn measure<T>(&mut self, timed: impl FnOnce(&mut Pass) -> T) -> T {
        self.probe(true);
        let (cpu, steal, probing) = (host::process_cpu_s(), host::host_steal_s(), self.probing_s);
        let start = Instant::now();
        let out = timed(self);
        let probed_s = self.probing_s - probing;
        self.wall_s = start.elapsed().as_secs_f64() - probed_s;
        self.cpu_s = host::process_cpu_s() - cpu - probed_s;
        self.steal_s = host::host_steal_s() - steal;
        self.peak_rss_mib = host::peak_rss_mib();
        self.probe(true);
        out
    }
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// The curated suite without `nt_square_growth`, whose divergence probe
/// squares a bignum on every step and exhausts memory.
pub fn suite_programs() -> Vec<Benchmark> {
    curated_benchmarks().into_iter().filter(|b| b.name != "nt_square_growth").collect()
}

/// Parses and lowers `source` inside `lang.parse` and `ts.lower` spans.
fn lower_traced(
    source: &str,
    tracer: &mut Tracer,
    op: u64,
    parent: Option<SpanId>,
) -> Result<TransitionSystem, String> {
    let program = tracer.span("lang.parse", op, parent, || revterm_lang::parse_program(source))?;
    tracer.span("ts.lower", op, parent, || revterm_ts::lower(&program)).map_err(|e| e.to_string())
}

/// Re-runs the certificate validation the prover did inside `result`, in a
/// `core.validate` span.  Validation is uncached and deterministic, so the
/// re-run costs what the prover's own check cost.
fn revalidate(
    pass: &mut Pass,
    op: u64,
    parent: Option<SpanId>,
    ts: &TransitionSystem,
    result: &ProofResult,
    configs: &[ProverConfig],
) {
    let Some(cert) = result.certificate() else { return };
    let config = configs
        .iter()
        .find(|c| c.label() == result.config_label)
        .expect("a certificate names a configuration that ran");
    let checked = pass
        .tracer
        .span("core.validate", op, parent, || validate_certificate(ts, cert, &config.entailment));
    if let Err(e) = checked {
        pass.violations.push(format!("op {op}: certificate rejected on re-validation: {e}"));
    }
}

/// `suite_deg1`: one session per program, every degree-1 cell, no early
/// stop and no budget.  One op is one cell.  One latency sample is one
/// program's sweep over all cells, because a single cell's median is under
/// a millisecond.
pub fn suite_deg1(programs: &[Benchmark], setup: Setup, tracer: Tracer) -> Pass {
    let mut pass = Pass::new(tracer);
    let cells = degree1_sweep();
    let mut sessions: Vec<ProverSession> = pass.set_up(setup, |pass| {
        programs
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let ts = lower_traced(&b.source, &mut pass.tracer, i as u64, None)
                    .unwrap_or_else(|e| panic!("suite program {} does not lower: {e}", b.name));
                ProverSession::new(ts)
            })
            .collect()
    });
    pass.measure(|pass| {
        for (i, (bench, session)) in programs.iter().zip(&mut sessions).enumerate() {
            pass.probe(false);
            let start = Instant::now();
            for (j, config) in cells.iter().enumerate() {
                let op = (i * cells.len() + j) as u64;
                let root = pass.tracer.open("op.cell", op, None);
                let result = pass.tracer.span("core.prove", op, root, || session.prove(config));
                pass.ops += 1;
                let proved = result.is_non_terminating();
                pass.counts.record(&result.stats, proved, result.timed_out());
                pass.check_label(bench.name, bench.expected == Expected::Terminating, proved);
                if pass.tracer.enabled() {
                    revalidate(pass, op, root, session.ts(), &result, std::slice::from_ref(config));
                }
                pass.tracer.close(root);
            }
            pass.latencies_ms.push(ms_since(start));
        }
    });
    pass
}

/// The fuzz portfolio with its wall-clock limit removed and its
/// entailment-call cap set to `FUZZ_ENTAIL_CAP`.
fn fuzz_portfolio() -> Vec<ProverConfig> {
    default_portfolio()
        .into_iter()
        .map(|mut config| {
            config.budget.time_limit = None;
            config.budget.max_entailment_calls = Some(FUZZ_ENTAIL_CAP);
            config
        })
        .collect()
}

/// The `fuzz_cold` batch for `seed`: the `FUZZ_MASTER_SEED` programs in a
/// seed-shuffled order.
pub fn fuzz_batch(seed: u64, count: usize) -> Vec<GeneratedProgram> {
    let mut batch = generate_batch(FUZZ_MASTER_SEED, count, &GenConfig::default());
    let mut rng = SplitMix64::new(seed);
    for k in (1..batch.len()).rev() {
        batch.swap(k, rng.next_below(k as u64 + 1) as usize);
    }
    batch
}

/// `fuzz_cold`: `count` generated programs, each parsed, lowered and proved
/// on its own fresh session.  One op is one program.
pub fn fuzz_cold(seed: u64, count: usize, setup: Setup, tracer: Tracer) -> Pass {
    let mut pass = Pass::new(tracer);
    let portfolio = fuzz_portfolio();
    let batch = pass.set_up(setup, |pass| {
        pass.tracer.span("fuzzgen.generate", 0, None, || fuzz_batch(seed, count))
    });
    pass.measure(|pass| {
        for (i, generated) in batch.iter().enumerate() {
            pass.probe(false);
            let op = i as u64;
            let root = pass.tracer.open("op.program", op, None);
            let start = Instant::now();
            pass.ops += 1;
            match lower_traced(&generated.source, &mut pass.tracer, op, root) {
                Ok(ts) => {
                    let mut session = ProverSession::new(ts);
                    let result = pass
                        .tracer
                        .span("core.prove", op, root, || session.prove_first(&portfolio));
                    pass.latencies_ms.push(ms_since(start));
                    let proved = result.is_non_terminating();
                    pass.counts.record(&result.stats, proved, result.timed_out());
                    pass.check_label(
                        format_args!("generated program {:016x}", generated.seed),
                        generated.label == KnownLabel::Terminating,
                        proved,
                    );
                    if pass.tracer.enabled() {
                        revalidate(pass, op, root, session.ts(), &result, &portfolio);
                    }
                }
                Err(e) => {
                    pass.errors += 1;
                    pass.violations.push(format!(
                        "generated program {:016x} does not lower: {e}",
                        generated.seed
                    ));
                }
            }
            pass.tracer.close(root);
        }
    });
    pass
}

/// A booted daemon with one open connection per client thread.
struct Daemon {
    handle: ServerHandle,
    clients: Vec<Client>,
    /// Outcome digest of each program's cold response.
    cold_digests: Vec<u64>,
}

impl Daemon {
    fn stop(self) {
        // Closing the connections ends their worker threads; the shutdown
        // then ends the accept loop, which `join` waits for.
        drop(self.clients);
        self.handle.shutdown();
        self.handle.join();
    }
}

/// The programs connection `conn` owns: a fixed half (alternate indices),
/// so every pool hit is independent of thread scheduling.
fn owned(conn: usize, n: usize) -> impl Iterator<Item = usize> {
    (conn..n).step_by(SERVE_CONNECTIONS)
}

/// Boots a daemon whose pool holds every program, connects the clients and
/// sends one cold `prove` (default quick grid) per program.
fn boot(programs: &[Benchmark], pass: &mut Pass) -> Daemon {
    let config = ServeConfig { pool_capacity: programs.len(), ..ServeConfig::default() };
    let handle = serve(&config).unwrap_or_else(|e| panic!("daemon does not start: {e}"));
    let mut clients: Vec<Client> = (0..SERVE_CONNECTIONS)
        .map(|_| Client::connect(handle.addr()).unwrap_or_else(|e| panic!("cannot connect: {e}")))
        .collect();
    let answers: Vec<_> = thread::scope(|s| {
        let threads: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                s.spawn(move || {
                    owned(conn, programs.len())
                        .map(|i| (i, client.prove(&programs[i].source, Vec::new(), None)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        threads.into_iter().flat_map(|t| t.join().expect("client thread panicked")).collect()
    });
    let mut cold_digests = vec![0; programs.len()];
    for (i, answer) in answers {
        match answer {
            Ok((outcome, pool_hit)) => {
                if pool_hit {
                    pass.violations
                        .push(format!("cold request for {} hit the pool", programs[i].name));
                }
                let terminating = programs[i].expected == Expected::Terminating;
                pass.check_label(programs[i].name, terminating, outcome.is_non_terminating());
                cold_digests[i] = outcome.digest;
            }
            Err(e) => {
                pass.errors += 1;
                pass.violations.push(format!("cold request for {} failed: {e}", programs[i].name));
            }
        }
    }
    Daemon { handle, clients, cold_digests }
}

/// The daemon's pool counters `(hits, misses, evictions)` from its
/// `metrics` operation.
fn pool_counters(client: &mut Client) -> (u64, u64, u64) {
    let read = |client: &mut Client| -> Result<(u64, u64, u64), revterm::Error> {
        let metrics = client.metrics()?;
        let pool = metrics.as_obj_or("metrics")?.obj_field("pool")?;
        Ok((pool.u64_field("hits")?, pool.u64_field("misses")?, pool.u64_field("evictions")?))
    };
    read(client).unwrap_or_else(|e| panic!("metrics request failed: {e}"))
}

/// In-process twin of a program's cold daemon request: the same quick-grid
/// `prove_first`, so the traced run can re-validate its certificate next to
/// every warm request.
struct Twin {
    ts: TransitionSystem,
    result: ProofResult,
}

/// `serve_warm`: an in-process daemon holding every program, then a closed
/// loop in which each of the two connections cycles through its own half of
/// the programs in a seed-shuffled order per round.  Every
/// `SERVE_ROUNDS_PER_PROBE` rounds both connections stop for a host-speed
/// probe.  One op is one request.
pub fn serve_warm(programs: &[Benchmark], seed: u64, min_requests: usize, tracer: Tracer) -> Pass {
    let mut pass = Pass::new(tracer);
    let probe_s = host::probe_s();
    let start = Instant::now();
    let mut daemon = boot(programs, &mut pass);
    pass.push_setup(start.elapsed().as_secs_f64(), probe_s);
    let quick = quick_sweep();
    let twins: Vec<Twin> = if pass.tracer.enabled() {
        programs
            .iter()
            .zip(&daemon.cold_digests)
            .map(|(bench, &cold)| {
                let mut session = ProverSession::new(bench.transition_system());
                let result = session.prove_first(&quick);
                if outcome_digest(&result, session.ts()) != cold {
                    pass.violations.push(format!(
                        "in-process outcome of {} differs from the daemon's",
                        bench.name
                    ));
                }
                Twin { ts: session.ts().clone(), result }
            })
            .collect()
    } else {
        Vec::new()
    };
    let rounds = min_requests.div_ceil(programs.len());
    let before = pool_counters(&mut daemon.clients[0]);
    let cold_digests = &daemon.cold_digests;
    let (twins, quick) = (&twins, &quick);
    let mut conns: Vec<Conn> = daemon
        .clients
        .iter_mut()
        .enumerate()
        .map(|(conn, client)| Conn {
            client,
            mine: owned(conn, programs.len()).collect(),
            rng: SplitMix64::new(seed ^ (conn as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            out: Pass::new(pass.tracer.sibling()),
        })
        .collect();
    pass.measure(|pass| {
        for first in (0..rounds).step_by(SERVE_ROUNDS_PER_PROBE) {
            if first > 0 {
                pass.probe(true);
            }
            let segment = first..rounds.min(first + SERVE_ROUNDS_PER_PROBE);
            thread::scope(|s| {
                for conn in &mut conns {
                    let segment = segment.clone();
                    s.spawn(move || {
                        for round in segment {
                            conn.round(round, programs, cold_digests, twins, quick);
                        }
                    });
                }
            });
        }
    });
    for conn in conns {
        pass.absorb(conn.out);
    }
    let after = pool_counters(&mut daemon.clients[0]);
    pass.counts.pool_hits = after.0 - before.0;
    pass.counts.pool_misses = after.1 - before.1;
    pass.counts.pool_evictions = after.2 - before.2;
    daemon.stop();
    pass
}

/// One `serve_warm` client connection, driven by one thread at a time.
struct Conn<'a> {
    client: &'a mut Client,
    /// The programs this connection owns, in this round's order.
    mine: Vec<usize>,
    rng: SplitMix64,
    /// What this connection's requests measured.
    out: Pass,
}

impl Conn<'_> {
    /// Sends one warm request for each owned program, in a freshly
    /// shuffled order.
    fn round(
        &mut self,
        round: usize,
        programs: &[Benchmark],
        cold_digests: &[u64],
        twins: &[Twin],
        quick: &[ProverConfig],
    ) {
        for k in (1..self.mine.len()).rev() {
            self.mine.swap(k, self.rng.next_below(k as u64 + 1) as usize);
        }
        for &i in &self.mine {
            warm_request(
                &mut self.out,
                self.client,
                &programs[i],
                cold_digests[i],
                (round * programs.len() + i) as u64,
                twins.get(i),
                quick,
            );
        }
    }
}

/// One warm request of the timed loop, with its output checks.  Traced, the
/// request is flanked by the parse and lower the daemon repeats at pool
/// checkout, and by a re-validation of the program's certificate.
fn warm_request(
    out: &mut Pass,
    client: &mut Client,
    bench: &Benchmark,
    cold_digest: u64,
    op: u64,
    twin: Option<&Twin>,
    quick: &[ProverConfig],
) {
    let tracer = &mut out.tracer;
    let root = tracer.open("op.request", op, None);
    if tracer.enabled() {
        let _ = lower_traced(&bench.source, tracer, op, root);
    }
    let start = Instant::now();
    let answer =
        tracer.span("serve.request", op, root, || client.prove(&bench.source, Vec::new(), None));
    out.latencies_ms.push(ms_since(start));
    out.ops += 1;
    match answer {
        Ok((outcome, pool_hit)) => {
            let proved = outcome.is_non_terminating();
            out.counts.record(&outcome.stats, proved, outcome.is_timeout());
            out.serve_prover_s += outcome.elapsed_us as f64 / 1e6;
            if !pool_hit {
                out.violations
                    .push(format!("warm request {op} for {} missed the pool", bench.name));
            }
            if outcome.digest != cold_digest {
                out.violations.push(format!(
                    "warm request {op} for {}: digest {:016x} differs from the cold {cold_digest:016x}",
                    bench.name, outcome.digest
                ));
            }
            out.check_label(bench.name, bench.expected == Expected::Terminating, proved);
        }
        Err(e) => {
            out.errors += 1;
            out.violations.push(format!("warm request {op} for {} failed: {e}", bench.name));
        }
    }
    if let Some(twin) = twin {
        revalidate(out, op, root, &twin.ts, &twin.result, quick);
    }
    out.tracer.close(root);
}
