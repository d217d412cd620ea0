//! The daemon: listeners, worker threads and request dispatch.
//!
//! One accept loop per listener (TCP on `127.0.0.1`, plus an optional Unix
//! socket), one worker thread per connection, shared state behind two small
//! mutexes (session pool, metrics).  Neither mutex is held while a prove
//! runs — the pool hands sessions out by value — so concurrent clients
//! proving different programs genuinely run in parallel.
//!
//! Shutdown is cooperative: a `shutdown` request (or
//! [`ServerHandle::shutdown`]) sets a flag and pokes each listener with a
//! throwaway connection so its blocking `accept` returns; workers finish
//! the request they are on, and [`ServerHandle::join`] reaps everything.

use crate::metrics::Metrics;
use crate::pool::{checkout_source, SessionPool};
use crate::wire;
use revterm::api::{
    analysis_report, lower_source, program_hash, sweep_to_outcomes, ProveRequest, ProveResponse,
    RequestBody, ResponseBody, WireOutcome,
};
use revterm::{Error, ProverConfig};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// How a [`serve`] daemon should be set up.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// TCP port on `127.0.0.1` (0 picks an ephemeral port; read it back
    /// from [`ServerHandle::addr`]).
    pub port: u16,
    /// Additionally listen on this Unix-domain socket path (Unix only; the
    /// file is created on bind and removed on [`ServerHandle::join`]).
    pub unix_path: Option<std::path::PathBuf>,
    /// Maximum idle sessions retained by the pool.
    pub pool_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig { port: 0, unix_path: None, pool_capacity: 8 }
    }
}

/// State shared by every worker.
struct Shared {
    pool: Mutex<SessionPool>,
    metrics: Mutex<Metrics>,
    stop: AtomicBool,
    /// The TCP address, kept so any worker can poke the accept loop awake
    /// after flagging shutdown.
    addr: SocketAddr,
    unix_path: Option<std::path::PathBuf>,
}

impl Shared {
    /// Flags shutdown and wakes every blocking accept with a throwaway
    /// connection.
    fn initiate_shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        #[cfg(unix)]
        if let Some(path) = &self.unix_path {
            let _ = std::os::unix::net::UnixStream::connect(path);
        }
    }
}

/// A running daemon: its address plus the handles needed to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_threads: Vec<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The TCP address the daemon is serving on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the daemon to stop (equivalent to a `shutdown` request).
    pub fn shutdown(&self) {
        self.shared.initiate_shutdown();
    }

    /// Waits until every accept loop has exited, then removes the Unix
    /// socket file if any.  Connections that are still open drain
    /// gracefully: their workers stop at the next request boundary (the
    /// shutdown flag is checked between requests) or when the client
    /// disconnects, and no new connections are accepted.
    pub fn join(self) {
        for handle in self.accept_threads {
            let _ = handle.join();
        }
        #[cfg(unix)]
        if let Some(path) = &self.shared.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Starts the daemon and returns immediately.
///
/// # Errors
///
/// [`Error::Io`] if a listener cannot be bound.
pub fn serve(config: &ServeConfig) -> Result<ServerHandle, Error> {
    let listener = TcpListener::bind(("127.0.0.1", config.port)).map_err(Error::from)?;
    let addr = listener.local_addr().map_err(Error::from)?;
    let shared = Arc::new(Shared {
        pool: Mutex::new(SessionPool::new(config.pool_capacity)),
        metrics: Mutex::new(Metrics::default()),
        stop: AtomicBool::new(false),
        addr,
        unix_path: config.unix_path.clone(),
    });

    let mut accept_threads = Vec::new();
    {
        let shared = Arc::clone(&shared);
        accept_threads.push(thread::spawn(move || accept_tcp(&listener, &shared)));
    }
    #[cfg(unix)]
    if let Some(path) = &config.unix_path {
        // A stale socket file from a crashed daemon would make bind fail.
        let _ = std::fs::remove_file(path);
        let listener = std::os::unix::net::UnixListener::bind(path).map_err(Error::from)?;
        let shared = Arc::clone(&shared);
        accept_threads.push(thread::spawn(move || accept_unix(&listener, &shared)));
    }
    #[cfg(not(unix))]
    if config.unix_path.is_some() {
        return Err(Error::Io("unix sockets are not supported on this platform".into()));
    }

    Ok(ServerHandle { addr, shared, accept_threads })
}

fn accept_tcp(listener: &TcpListener, shared: &Arc<Shared>) {
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                let shared = Arc::clone(shared);
                // Workers are detached: shutdown drains — the accept loop
                // closes, open connections finish at their own pace (they
                // stop at the next request boundary once the flag is set),
                // and nothing can block a blocked read from keeping join()
                // hostage.
                thread::spawn(move || {
                    let reader = match stream.try_clone() {
                        Ok(clone) => clone,
                        Err(_) => return,
                    };
                    serve_connection(&mut BufReader::new(reader), &mut &stream, &shared);
                });
            }
            Err(_) => break,
        }
    }
}

#[cfg(unix)]
fn accept_unix(listener: &std::os::unix::net::UnixListener, shared: &Arc<Shared>) {
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                let shared = Arc::clone(shared);
                thread::spawn(move || {
                    let reader = match stream.try_clone() {
                        Ok(clone) => clone,
                        Err(_) => return,
                    };
                    serve_connection(&mut BufReader::new(reader), &mut &stream, &shared);
                });
            }
            Err(_) => break,
        }
    }
}

/// Serves one connection until EOF, a fatal transport error or shutdown.
///
/// Framing/protocol errors are answered with a structured error response
/// and the connection stays up; only I/O failures tear it down.
fn serve_connection<R, W>(reader: &mut BufReader<R>, writer: &mut W, shared: &Arc<Shared>)
where
    R: Read,
    W: Write,
{
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let started = Instant::now();
        let frame = match wire::read_frame(reader) {
            Ok(None) => return,
            Ok(Some(frame)) => frame,
            Err(Error::Io(_)) => return,
            Err(error) => {
                // Unreadable frame (oversized, truncated, bad UTF-8):
                // structured error, connection survives.
                record(shared, "<malformed>", started.elapsed(), true, false);
                let response = ProveResponse::fail(0, error);
                if wire::write_frame(writer, &response.to_json()).is_err() {
                    return;
                }
                continue;
            }
        };
        // Decode.  A malformed request object still echoes the correlation
        // id whenever the envelope is readable, so the client can match the
        // error to its request; unparseable JSON gets id 0.
        let decoded = match revterm::api::json::parse_json(&frame) {
            Ok(json) => {
                let id = salvage_id(&json);
                ProveRequest::from_json(&json).map_err(|error| (id, error))
            }
            Err(error) => Err((0, error)),
        };
        let request = match decoded {
            Ok(request) => request,
            Err((id, error)) => {
                record(shared, "<malformed>", started.elapsed(), true, false);
                let response = ProveResponse::fail(id, error);
                if wire::write_frame(writer, &response.to_json()).is_err() {
                    return;
                }
                continue;
            }
        };
        let op = request.body.op();
        let wants_shutdown = matches!(request.body, RequestBody::Shutdown);
        let response = dispatch(request, shared);
        let failed = matches!(response.body, ResponseBody::Failed(_));
        let timed_out = response_reports_timeout(&response);
        record(shared, op, started.elapsed(), failed, timed_out);
        if wire::write_frame(writer, &response.to_json()).is_err() {
            return;
        }
        if wants_shutdown {
            shared.initiate_shutdown();
            return;
        }
    }
}

/// Best-effort extraction of the correlation id from a request envelope
/// that failed to decode fully.
fn salvage_id(json: &revterm::api::json::Json) -> u64 {
    json.as_obj_or("request")
        .ok()
        .and_then(|obj| obj.opt_u64_field("id").ok().flatten())
        .unwrap_or(0)
}

fn record(shared: &Shared, op: &str, latency: Duration, error: bool, timeout: bool) {
    shared.metrics.lock().expect("metrics poisoned").record(op, latency, error, timeout);
}

fn response_reports_timeout(response: &ProveResponse) -> bool {
    match &response.body {
        ResponseBody::Proved { outcome, .. } => outcome.is_timeout(),
        ResponseBody::Swept { outcomes, .. } => outcomes.iter().any(WireOutcome::is_timeout),
        ResponseBody::Failed(Error::Timeout) => true,
        _ => false,
    }
}

/// Executes one request against the shared state.
fn dispatch(request: ProveRequest, shared: &Arc<Shared>) -> ProveResponse {
    let id = request.id;
    match execute(request.body, shared) {
        Ok(body) => ProveResponse { id, body },
        Err(error) => ProveResponse::fail(id, error),
    }
}

fn execute(body: RequestBody, shared: &Arc<Shared>) -> Result<ResponseBody, Error> {
    match body {
        RequestBody::Parse { source } => {
            let ts = lower_source(&source)?;
            Ok(ResponseBody::Parsed {
                program_hash: program_hash(&ts),
                num_locs: ts.num_locs(),
                num_vars: ts.vars().len(),
                num_transitions: ts.transitions().len(),
            })
        }
        RequestBody::Prove { source, configs, deadline_ms } => {
            let configs = request_configs(configs, revterm::quick_sweep, deadline_ms);
            let (key, mut session, pool_hit) = checkout_source(&shared.pool, &source)?;
            let result = session.prove_first(&configs);
            let outcome = WireOutcome::from_result(&result, session.ts());
            shared.metrics.lock().expect("metrics poisoned").record_prove_stats(&result.stats);
            shared.pool.lock().expect("pool poisoned").checkin(key, session);
            Ok(ResponseBody::Proved { outcome: Box::new(outcome), pool_hit, program_hash: key })
        }
        RequestBody::Sweep { source, configs, stop_after, deadline_ms } => {
            let configs = request_configs(configs, revterm::degree1_sweep, deadline_ms);
            let stop_after = if stop_after == 0 { usize::MAX } else { stop_after };
            let (key, mut session, pool_hit) = checkout_source(&shared.pool, &source)?;
            let report = session.sweep(&configs, stop_after);
            let outcomes = sweep_to_outcomes(&report);
            {
                let mut metrics = shared.metrics.lock().expect("metrics poisoned");
                for outcome in &report.outcomes {
                    metrics.record_prove_stats(&outcome.stats);
                }
            }
            shared.pool.lock().expect("pool poisoned").checkin(key, session);
            Ok(ResponseBody::Swept { outcomes, pool_hit, program_hash: key })
        }
        RequestBody::Analyze { source } => {
            let ts = lower_source(&source)?;
            Ok(ResponseBody::Analyzed { report: analysis_report(&ts) })
        }
        RequestBody::Stats => {
            let pool = shared.pool.lock().expect("pool poisoned");
            Ok(ResponseBody::Opaque(pool.stats().to_json(pool.occupancy())))
        }
        RequestBody::Metrics => {
            let (pool_stats, occupancy) = {
                let pool = shared.pool.lock().expect("pool poisoned");
                (pool.stats(), pool.occupancy())
            };
            let metrics = shared.metrics.lock().expect("metrics poisoned");
            Ok(ResponseBody::Opaque(metrics.to_json(&pool_stats, occupancy)))
        }
        RequestBody::Shutdown => Ok(ResponseBody::ShutdownAck),
    }
}

/// The configurations a request runs: its own, or `default()` when it sent
/// none, each with the request's `deadline_ms` written into its
/// [`revterm::Budget`] (so every configuration shares one deadline).
fn request_configs(
    configs: Vec<ProverConfig>,
    default: fn() -> Vec<ProverConfig>,
    deadline_ms: Option<u64>,
) -> Vec<ProverConfig> {
    let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    let mut configs = if configs.is_empty() { default() } else { configs };
    for config in &mut configs {
        config.budget.deadline = deadline;
    }
    configs
}
