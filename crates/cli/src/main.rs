//! The `revterm` command-line tool.
//!
//! ```text
//! revterm <program.rt>            prove non-termination of a program file
//! revterm --source '<program>'    prove non-termination of an inline program
//! revterm --suite                 run the prover on the embedded benchmark suite
//! revterm --list                  list the embedded benchmarks
//! revterm analyze <program.rt>    print the interval pre-analysis
//! revterm serve [--port N]        run the resident prover daemon
//! revterm client <addr> ...       talk to a running daemon
//! ```
//!
//! The default mode (also reachable as the explicit `prove` subcommand)
//! proves non-termination.  Options: `--check1` / `--check2` (default: try
//! both), `--show-ts` prints the transition system and its reversal before
//! proving, `--stats` prints the per-run statistics of the prover session,
//! `--deadline-ms N` bounds the whole prove wall-clock (a cut-short search
//! reports `TIMEOUT`), and `--no-absint` disables the
//! abstract-interpretation pre-analysis plus the interval entailment fast
//! path (results are bitwise identical; the flag exists for benchmarking
//! and differential testing).
//!
//! The `analyze` subcommand runs only the pre-analysis and prints its facts:
//! per-location variable intervals, unreachable locations, unused variables,
//! constant variables, and guards the analysis decides statically.
//!
//! The `serve` subcommand starts the `revterm-serve` daemon (see
//! `PROTOCOL.md`); `client` drives one over TCP or a Unix socket.
//!
//! # Exit codes
//!
//! Distinct failure classes get distinct codes, so scripts can tell a typo
//! from an unprovable program from a dead daemon:
//!
//! | code | meaning                                                |
//! |------|--------------------------------------------------------|
//! | 0    | success (non-termination proved, or command completed) |
//! | 1    | `MAYBE` — no proof found, search exhausted             |
//! | 2    | usage error (bad flags, unknown subcommand)            |
//! | 3    | the program failed to parse or lower                   |
//! | 4    | a deadline/budget cut the search short (`TIMEOUT`)     |
//! | 5    | protocol or I/O failure talking to a daemon            |

use revterm::{CheckKind, Error, ProofResult, ProverConfig, ProverSession};
use revterm_ts::{Assertion, TransitionSystem};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: revterm [--check1|--check2] [--show-ts] [--stats] [--no-absint] \
     [--deadline-ms N] (<file> | --source <program> | --suite | --list)\n       \
     revterm analyze (<file> | --source <program>)\n       \
     revterm serve [--port N] [--unix <path>] [--pool N]\n       \
     revterm client <addr> [--unix <path>] [--op <op>] [--deadline-ms N] \
     (<file> | --source <program>)";

/// All subcommands, with one-line descriptions (the first is the default).
const SUBCOMMANDS: &[(&str, &str)] = &[
    ("prove", "prove non-termination (the default when no subcommand is given)"),
    ("analyze", "print the interval pre-analysis of a program"),
    ("serve", "run the resident prover daemon (line-delimited JSON, see PROTOCOL.md)"),
    ("client", "send one request to a running daemon"),
];

fn subcommand_names() -> String {
    SUBCOMMANDS.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(", ")
}

fn long_help() -> String {
    let mut help = format!("{USAGE}\n\nsubcommands:\n");
    for (name, desc) in SUBCOMMANDS {
        help.push_str(&format!("  {name:<10} {desc}\n"));
    }
    help.push_str("\noptions:\n");
    help.push_str("  --check1 | --check2   run only the given check (default: try both)\n");
    help.push_str("  --show-ts             print the transition system and its reversal\n");
    help.push_str("  --stats               print per-run prover statistics\n");
    help.push_str("  --deadline-ms N       bound the whole prove wall-clock; exceeding it\n");
    help.push_str("                        reports TIMEOUT (exit code 4)\n");
    help.push_str("  --no-absint           disable the abstract-interpretation pre-analysis and\n");
    help.push_str("                        the interval entailment fast path (results are\n");
    help.push_str(
        "                        identical; for benchmarking and differential testing)\n",
    );
    help.push_str("\nclient operations (--op): prove (default), sweep, analyze, parse,\n");
    help.push_str("stats, metrics, shutdown\n");
    help.push_str("\nexit codes: 0 proved/ok, 1 MAYBE, 2 usage, 3 parse/analysis,\n");
    help.push_str("4 timeout, 5 protocol/io");
    help
}

/// Bad invocation: usage goes to stderr and the exit code signals an error.
fn usage_error() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// The exit code for a typed prover/daemon error (see the module docs).
fn exit_for(error: &Error) -> ExitCode {
    eprintln!("error: {error}");
    match error {
        Error::Parse(_) | Error::Analysis(_) | Error::BadLabel(_) => ExitCode::from(3),
        Error::Timeout => ExitCode::from(4),
        Error::Protocol(_) | Error::Io(_) => ExitCode::from(5),
        Error::NoConfigs => ExitCode::from(2),
    }
}

fn print_stats(result: &ProofResult) {
    let s = &result.stats;
    println!(
        "stats: {} candidates, {} synthesis calls, {} entailment calls ({} cached), {} artifact / {} probe cache hits, {} probe steps, {} absint fast paths, {} absint prunes, {} LP solves ({} re-solved over bignums), {} pivots, {} of {} warm lookups hit",
        s.candidates_tried,
        s.synthesis_calls,
        s.entailment_calls,
        s.entailment_cache_hits,
        s.artifact_cache_hits,
        s.probe_cache_hits,
        s.probe_steps,
        s.lp.absint_fast_paths,
        s.absint_prunes,
        s.lp.solves,
        s.lp.bignum_solves,
        s.lp.pivots,
        s.lp.warm_hits,
        s.lp.warm_lookups,
    );
}

/// Parses and lowers a program given as inline source.
fn load_system(src: &str) -> Result<TransitionSystem, Error> {
    revterm::lower_source(src)
}

/// Reports the result of a local or remote prove in the shared format and
/// maps the verdict to the exit code (`0` proved / `1` maybe / `4` timeout).
fn report_verdict(
    verdict_label: &str,
    proved: bool,
    timed_out: bool,
    summary: Option<&str>,
    elapsed: Duration,
) -> ExitCode {
    if proved {
        println!("NO (non-terminating), proved by {verdict_label} in {elapsed:.2?}");
        if let Some(summary) = summary {
            println!("{summary}");
        }
        ExitCode::SUCCESS
    } else if timed_out {
        println!("TIMEOUT (search cut short by the deadline) in {elapsed:.2?}");
        ExitCode::from(4)
    } else {
        println!("MAYBE (no non-termination proof found) in {elapsed:.2?}");
        ExitCode::from(1)
    }
}

/// The `analyze` subcommand: run the interval pre-analysis and print
/// the per-location envelopes plus the derived diagnostics (the renderer is
/// shared with the wire `analyze` operation: [`revterm::analysis_report`]).
fn run_analyze(args: &[String]) -> ExitCode {
    let mut source: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--source" => match iter.next() {
                Some(src) => source = Some(src.clone()),
                None => return usage_error(),
            },
            "--help" | "-h" => {
                println!("{}", long_help());
                return ExitCode::SUCCESS;
            }
            path => match std::fs::read_to_string(path) {
                Ok(text) => source = Some(text),
                Err(e) => {
                    eprintln!("error: cannot read {path}: {e}");
                    return ExitCode::from(2);
                }
            },
        }
    }
    let Some(src) = source else { return usage_error() };
    let ts = match load_system(&src) {
        Ok(ts) => ts,
        Err(error) => return exit_for(&error),
    };
    print!("{}", revterm::analysis_report(&ts));
    ExitCode::SUCCESS
}

/// The default `prove` mode (everything the tool did before subcommands).
fn run_prove(args: Vec<String>) -> ExitCode {
    if args.is_empty() {
        return usage_error();
    }
    let mut check: Option<CheckKind> = None;
    let mut show_ts = false;
    let mut show_stats = false;
    let mut no_absint = false;
    let mut deadline_ms: Option<u64> = None;
    let mut source: Option<String> = None;
    let mut run_suite = false;
    let mut list = false;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--check1" => check = Some(CheckKind::Check1),
            "--check2" => check = Some(CheckKind::Check2),
            "--show-ts" => show_ts = true,
            "--stats" => show_stats = true,
            "--no-absint" => no_absint = true,
            "--suite" => run_suite = true,
            "--list" => list = true,
            "--deadline-ms" => match iter.next().and_then(|ms| ms.parse().ok()) {
                Some(ms) => deadline_ms = Some(ms),
                None => return usage_error(),
            },
            "--source" => match iter.next() {
                Some(src) => source = Some(src),
                None => return usage_error(),
            },
            // Asking for help is not an error: print usage to stdout, exit 0.
            "--help" | "-h" => {
                println!("{}", long_help());
                return ExitCode::SUCCESS;
            }
            path => match std::fs::read_to_string(path) {
                Ok(text) => source = Some(text),
                Err(e) => {
                    eprintln!("error: cannot read {path}: {e}");
                    eprintln!(
                        "('{path}' is not a subcommand either; subcommands: {})",
                        subcommand_names()
                    );
                    eprintln!("{USAGE}");
                    return ExitCode::from(2);
                }
            },
        }
    }

    if list {
        for b in revterm_suite::full_suite() {
            println!("{:<28} {:<20} {:?}", b.name, b.family, b.expected);
        }
        return ExitCode::SUCCESS;
    }

    let mut configs: Vec<ProverConfig> = match check {
        Some(kind) => vec![ProverConfig::builder().check(kind).build()],
        None => revterm::quick_sweep(),
    };
    // One deadline for the whole invocation, in every configuration's budget.
    let deadline = deadline_ms.map(|ms| std::time::Instant::now() + Duration::from_millis(ms));
    for config in &mut configs {
        config.entailment.interval_fast_path = !no_absint;
        config.budget.deadline = deadline;
    }

    if run_suite {
        let mut proved = 0;
        let suite = revterm_suite::full_suite();
        for b in &suite {
            let mut session = b.session();
            let result = session.prove_first(&configs);
            let verdict = if result.is_non_terminating() {
                "NO (non-terminating)"
            } else if result.timed_out() {
                "TIMEOUT"
            } else {
                "MAYBE"
            };
            println!(
                "{:<28} {:<22} [{:?} expected] in {:.2?}",
                b.name, verdict, b.expected, result.elapsed
            );
            if show_stats {
                print_stats(&result);
            }
            if result.is_non_terminating() {
                proved += 1;
            }
        }
        println!("\nproved non-termination of {proved}/{} benchmarks", suite.len());
        return ExitCode::SUCCESS;
    }

    let Some(src) = source else { return usage_error() };
    let ts = match load_system(&src) {
        Ok(ts) => ts,
        Err(error) => return exit_for(&error),
    };
    if show_ts {
        println!("--- transition system ---\n{}", ts.display());
        println!(
            "--- reversed transition system ---\n{}",
            ts.reverse(Assertion::tautology()).display()
        );
    }
    let mut session = ProverSession::new(ts);
    let result = session.prove_first(&configs);
    if show_stats {
        print_stats(&result);
    }
    let summary = result.certificate().map(|c| c.summary(session.ts()));
    report_verdict(
        &result.config_label,
        result.is_non_terminating(),
        result.timed_out(),
        summary.as_deref(),
        result.elapsed,
    )
}

/// The `serve` subcommand: run the daemon until a `shutdown` request.
fn run_serve(args: &[String]) -> ExitCode {
    let mut config = revterm_serve::ServeConfig::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--port" => match iter.next().and_then(|p| p.parse().ok()) {
                Some(port) => config.port = port,
                None => return usage_error(),
            },
            "--unix" => match iter.next() {
                Some(path) => config.unix_path = Some(path.into()),
                None => return usage_error(),
            },
            "--pool" => match iter.next().and_then(|n| n.parse().ok()) {
                Some(n) => config.pool_capacity = n,
                None => return usage_error(),
            },
            "--help" | "-h" => {
                println!("{}", long_help());
                return ExitCode::SUCCESS;
            }
            _ => return usage_error(),
        }
    }
    match revterm_serve::serve(&config) {
        Ok(handle) => {
            // The address line is machine-read by scripts (and the CI smoke
            // test) to discover the ephemeral port; keep its shape stable.
            println!("revterm-serve listening on {}", handle.addr());
            if let Some(path) = &config.unix_path {
                println!("revterm-serve listening on unix:{}", path.display());
            }
            handle.join();
            println!("revterm-serve stopped");
            ExitCode::SUCCESS
        }
        Err(error) => exit_for(&error),
    }
}

/// The `client` subcommand: one request against a running daemon.
fn run_client(args: &[String]) -> ExitCode {
    let mut addr: Option<String> = None;
    let mut unix: Option<String> = None;
    let mut op = "prove".to_string();
    let mut source: Option<String> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut stop_after = 0usize;
    let mut check: Option<CheckKind> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--unix" => match iter.next() {
                Some(path) => unix = Some(path.clone()),
                None => return usage_error(),
            },
            "--op" => match iter.next() {
                Some(name) => op = name.clone(),
                None => return usage_error(),
            },
            "--source" => match iter.next() {
                Some(src) => source = Some(src.clone()),
                None => return usage_error(),
            },
            "--deadline-ms" => match iter.next().and_then(|ms| ms.parse().ok()) {
                Some(ms) => deadline_ms = Some(ms),
                None => return usage_error(),
            },
            "--stop-after" => match iter.next().and_then(|n| n.parse().ok()) {
                Some(n) => stop_after = n,
                None => return usage_error(),
            },
            "--check1" => check = Some(CheckKind::Check1),
            "--check2" => check = Some(CheckKind::Check2),
            "--help" | "-h" => {
                println!("{}", long_help());
                return ExitCode::SUCCESS;
            }
            other if addr.is_none() && !other.starts_with('-') => addr = Some(other.to_string()),
            path if source.is_none() && !path.starts_with('-') => {
                match std::fs::read_to_string(path) {
                    Ok(text) => source = Some(text),
                    Err(e) => {
                        eprintln!("error: cannot read {path}: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            _ => return usage_error(),
        }
    }

    let mut client = match (&addr, &unix) {
        (_, Some(path)) => {
            #[cfg(unix)]
            match revterm_serve::Client::connect_unix(path) {
                Ok(client) => client,
                Err(error) => return exit_for(&error),
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                return exit_for(&Error::Io("unix sockets are unsupported here".into()));
            }
        }
        (Some(addr), None) => match revterm_serve::Client::connect(addr.as_str()) {
            Ok(client) => client,
            Err(error) => return exit_for(&error),
        },
        (None, None) => return usage_error(),
    };

    let configs = match check {
        Some(kind) => vec![ProverConfig::builder().check(kind).build()],
        None => Vec::new(), // empty = server default
    };
    let need_source = || source.clone().ok_or(()).map_err(|()| usage_error());
    match op.as_str() {
        "prove" => {
            let src = match need_source() {
                Ok(src) => src,
                Err(code) => return code,
            };
            match client.prove(&src, configs, deadline_ms) {
                Ok((outcome, pool_hit)) => {
                    if pool_hit {
                        println!("(served from pooled session)");
                    }
                    report_verdict(
                        &outcome.label,
                        outcome.is_non_terminating(),
                        outcome.is_timeout(),
                        outcome.certificate.as_ref().map(|c| c.summary.as_str()),
                        Duration::from_micros(outcome.elapsed_us),
                    )
                }
                Err(error) => exit_for(&error),
            }
        }
        "sweep" => {
            let src = match need_source() {
                Ok(src) => src,
                Err(code) => return code,
            };
            match client.sweep(&src, configs, stop_after, deadline_ms) {
                Ok((outcomes, _)) => {
                    let mut proved = false;
                    let mut timed_out = false;
                    for o in &outcomes {
                        println!(
                            "{:<28} {:<16} in {:.2?}",
                            o.label,
                            o.verdict,
                            Duration::from_micros(o.elapsed_us)
                        );
                        proved |= o.is_non_terminating();
                        timed_out |= o.is_timeout();
                    }
                    if proved {
                        ExitCode::SUCCESS
                    } else if timed_out {
                        ExitCode::from(4)
                    } else {
                        ExitCode::from(1)
                    }
                }
                Err(error) => exit_for(&error),
            }
        }
        "analyze" => {
            let src = match need_source() {
                Ok(src) => src,
                Err(code) => return code,
            };
            match client.analyze(&src) {
                Ok(report) => {
                    print!("{report}");
                    ExitCode::SUCCESS
                }
                Err(error) => exit_for(&error),
            }
        }
        "parse" => {
            let src = match need_source() {
                Ok(src) => src,
                Err(code) => return code,
            };
            let body = revterm::api::RequestBody::Parse { source: src };
            match client.request(body) {
                Ok(response) => {
                    println!("{}", response.to_json());
                    if let revterm::api::ResponseBody::Failed(error) = &response.body {
                        return exit_for(error);
                    }
                    ExitCode::SUCCESS
                }
                Err(error) => exit_for(&error),
            }
        }
        "stats" => match client.stats() {
            Ok(json) => {
                println!("{json}");
                ExitCode::SUCCESS
            }
            Err(error) => exit_for(&error),
        },
        "metrics" => match client.metrics() {
            Ok(json) => {
                println!("{json}");
                ExitCode::SUCCESS
            }
            Err(error) => exit_for(&error),
        },
        "shutdown" => match client.shutdown() {
            Ok(()) => {
                println!("shutdown acknowledged");
                ExitCode::SUCCESS
            }
            Err(error) => exit_for(&error),
        },
        _ => usage_error(),
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage_error();
    }
    match args[0].as_str() {
        "analyze" => run_analyze(&args[1..]),
        "serve" => run_serve(&args[1..]),
        "client" => run_client(&args[1..]),
        "prove" => {
            args.remove(0);
            run_prove(args)
        }
        _ => run_prove(args),
    }
}
