//! The benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite_deg1 --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Prints a diagnostics line, then, as the last line of standard output,
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`.  The
//! untraced run (`--trace 0`) reports the end-to-end metrics; the traced run
//! (`--trace 1`) reports the per-layer ones and writes its spans to
//! `perfbench/out/`.  Exits 1 if an output check failed and 2 on a usage
//! error.

use perfbench::trace::Tracer;
use perfbench::{quantile, Pass, Setup, Workload};
use std::fmt::Write as _;
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload <suite_deg1|fuzz_cold|serve_warm> --seed <n> \
                     --seconds <n> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.filter(|&s| s > 0).ok_or("--seconds must be a positive number")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Metrics in output order: `(name, value, unit)`.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// The median over `passes` of a per-pass figure.
fn median_of(passes: &[Pass], figure: impl Fn(&Pass) -> f64) -> f64 {
    quantile(&passes.iter().map(figure).collect::<Vec<_>>(), 0.5)
}

/// Every pass's `samples`, pooled, each divided by its pass's slowdown.
fn normalised(passes: &[Pass], samples: fn(&Pass) -> &[f64]) -> Vec<f64> {
    passes.iter().flat_map(|p| samples(p).iter().map(move |v| v / p.slowdown())).collect()
}

/// End-to-end metrics of an untraced run.  Every timing is normalised to
/// the reference host: set-up intervals by the probes beside them, the
/// timed phase by its pass's slowdown.  `setup_s` is the median set-up
/// interval, the other timings are medians over the passes, and the
/// latency percentiles are taken over the pooled samples.  Peak memory is
/// read after the first pass, because a stopped daemon frees its sessions
/// late and would inflate later readings.
fn end_to_end(passes: &[Pass]) -> Metrics {
    let setups: Vec<f64> = passes.iter().flat_map(|p| p.setup_s.iter().copied()).collect();
    let latencies = normalised(passes, |p| &p.latencies_ms);
    let first = &passes[0];
    vec![
        ("setup_s", quantile(&setups, 0.5), "s"),
        ("ops_per_s", median_of(passes, |p| p.ops as f64 / p.wall_s * p.slowdown()), "op/s"),
        ("cpu_s", median_of(passes, |p| p.cpu_s / p.slowdown()), "s"),
        ("peak_rss_mb", first.peak_rss_mib, "MiB"),
        ("latency_p50_ms", quantile(&latencies, 0.5), "ms"),
        ("latency_p90_ms", quantile(&latencies, 0.9), "ms"),
        ("proved_share", first.counts.certificates as f64 / first.ops as f64, "share"),
    ]
}

/// Seconds the traced pass spent re-running layer calls only to time them:
/// every certificate validation, and in `serve_warm` the parse and lower
/// beside each request.  The two `serve_warm` connections run concurrently,
/// so their re-runs overlap in wall time.
fn rerun_wall_s(workload: Workload, traced: &Pass) -> f64 {
    let t = &traced.tracer;
    match workload {
        Workload::ServeWarm => {
            (t.total_s("core.validate") + t.total_s("lang.parse") + t.total_s("ts.lower"))
                / perfbench::workloads::SERVE_CONNECTIONS as f64
        }
        Workload::SuiteDeg1 | Workload::FuzzCold => t.total_s("core.validate"),
    }
}

fn per_layer(workload: Workload, traced: &Pass, untraced_wall_s: f64) -> Metrics {
    let t = &traced.tracer;
    let c = &traced.counts;
    let p = &c.prove;
    let count = |v: u64| v as f64;
    let serving = workload == Workload::ServeWarm;
    let prove_s = if serving { traced.serve_prover_s } else { t.total_s("core.prove") };
    let validate_s = t.total_s("core.validate");
    let roundtrip_s = t.total_s("serve.request");
    let probe_lookups = p.probe_cache_hits + p.probe_cache_misses;
    let artifact_lookups = p.artifact_cache_hits + p.artifact_cache_misses;
    // Setup spans are per-program in suite_deg1 and fuzz_cold; serve_warm
    // re-runs them beside each request, so those are the request-path cost.
    vec![
        ("lang.parse_s", t.total_s("lang.parse"), "s"),
        ("ts.lower_s", t.total_s("ts.lower"), "s"),
        ("fuzzgen.generate_s", t.total_s("fuzzgen.generate"), "s"),
        ("core.prove_s", prove_s, "s"),
        ("core.validate_s", validate_s, "s"),
        ("core.validate_share", ratio(validate_s, prove_s), "ratio"),
        ("core.search_s", prove_s - validate_s, "s"),
        ("core.certificates", count(c.certificates), "count"),
        ("core.candidates", p.candidates_tried as f64, "count"),
        ("core.synthesis_calls", p.synthesis_calls as f64, "count"),
        ("core.timeouts", count(c.timeouts), "count"),
        ("core.probe_lookups", count(probe_lookups), "count"),
        ("core.probe_hit_ratio", ratio(count(p.probe_cache_hits), count(probe_lookups)), "ratio"),
        ("core.artifact_lookups", count(artifact_lookups), "count"),
        (
            "core.artifact_hit_ratio",
            ratio(count(p.artifact_cache_hits), count(artifact_lookups)),
            "ratio",
        ),
        ("solver.entail_calls", count(p.entailment_calls), "count"),
        (
            "solver.entail_hit_ratio",
            ratio(count(p.entailment_cache_hits), count(p.entailment_calls)),
            "ratio",
        ),
        ("solver.lp_solves", count(p.lp.solves), "count"),
        ("solver.lp_pivots", count(p.lp.pivots), "count"),
        ("solver.pivots_per_solve", ratio(count(p.lp.pivots), count(p.lp.solves)), "pivot/solve"),
        ("solver.lp_warm_lookups", count(p.lp.warm_lookups), "count"),
        (
            "solver.lp_warm_hit_ratio",
            ratio(count(p.lp.warm_hits), count(p.lp.warm_lookups)),
            "ratio",
        ),
        ("absint.fast_paths", count(p.lp.absint_fast_paths), "count"),
        ("absint.prunes", count(p.absint_prunes), "count"),
        ("poly.interned_monomials", revterm_poly::mono_pool_stats().interned as f64, "count"),
        ("serve.roundtrip_s", roundtrip_s, "s"),
        ("serve.prover_s", traced.serve_prover_s, "s"),
        ("serve.overhead_share", ratio(roundtrip_s - traced.serve_prover_s, roundtrip_s), "ratio"),
        ("serve.pool_hits", count(c.pool_hits), "count"),
        ("serve.pool_misses", count(c.pool_misses), "count"),
        ("serve.pool_evictions", count(c.pool_evictions), "count"),
        ("trace.overhead_s", traced.wall_s - untraced_wall_s - rerun_wall_s(workload, traced), "s"),
    ]
}

fn metrics_json(metrics: &Metrics) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Writes the traced pass's spans to `perfbench/out/`, returning the path.
fn write_trace(args: &Args, traced: &Pass) -> String {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}-seed{}.jsonl", args.workload.name(), args.seed));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, traced.tracer.to_json_lines()))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    path.display().to_string()
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let workload = args.workload;
    let (passes, metrics, trace_path) = if args.trace {
        // A traced run first repeats the untraced timed phase, so that the
        // tracing overhead can be told apart from the layer times.
        let untraced = workload.run(args.seed, Setup::ONCE, Tracer::off());
        let traced = workload.run(args.seed, Setup::ONCE, Tracer::on(Instant::now()));
        let metrics = per_layer(workload, &traced, untraced.wall_s);
        let path = write_trace(&args, &traced);
        (vec![untraced, traced], metrics, Some(path))
    } else {
        let passes: Vec<Pass> = (0..workload.passes())
            .map(|_| workload.run(args.seed, workload.setup(), Tracer::off()))
            .collect();
        let metrics = end_to_end(&passes);
        (passes, metrics, None)
    };

    let violations: Vec<&String> = passes.iter().flat_map(|p| &p.violations).collect();
    for violation in &violations {
        eprintln!("perfbench: output check failed: {violation}");
    }
    let sum = |figure: fn(&Pass) -> u64| passes.iter().map(figure).sum::<u64>();
    let ops = sum(|p| p.ops);
    let list = |figure: fn(&Pass) -> f64| {
        passes.iter().map(|p| figure(p).to_string()).collect::<Vec<_>>().join(",")
    };
    // The traced pass's latencies include its re-runs, so only the untraced
    // passes give the latency diagnostics.
    let samples = normalised(if args.trace { &passes[..1] } else { &passes }, |p| &p.latencies_ms);
    let mut diagnostics = format!(
        "{{\"diagnostics\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"timed_wall_s\":[{}],\"slowdown\":[{}],\"host_steal_s\":{},\"failed_share\":{},\
         \"latency_samples\":{},\"setups\":{}",
        workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        list(|p| p.wall_s),
        list(Pass::slowdown),
        passes.iter().map(|p| p.steal_s).sum::<f64>(),
        ratio((sum(|p| p.errors) + sum(|p| p.counts.timeouts)) as f64, ops as f64),
        samples.len(),
        passes.iter().map(|p| p.setup_s.len()).sum::<usize>(),
    );
    // The 99th percentile is meaningful only with ten samples beyond it.
    if samples.len() >= 1000 {
        let _ = write!(diagnostics, ",\"latency_p99_ms\":{}", quantile(&samples, 0.99));
    }
    if let Some(path) = &trace_path {
        let _ = write!(diagnostics, ",\"trace_file\":\"{path}\"");
    }
    println!("{diagnostics}}}}}");
    println!(
        "{{\"correct\":{},\"attempted\":{ops},\"failed\":{},\"metrics\":{}}}",
        violations.is_empty(),
        violations.len().min(ops as usize),
        metrics_json(&metrics)
    );
    if !violations.is_empty() {
        std::process::exit(1);
    }
}
