//! A small blocking client for the daemon.
//!
//! One [`Client`] owns one connection and issues one request at a time
//! (the protocol has no pipelining).  The CLI's `client` subcommand, the
//! `serve_smoke` bench and the integration tests all drive the daemon
//! through this type, so the encode/decode path is exercised from both
//! sides by the same code the daemon itself links.

use crate::wire;
use revterm::api::json::Json;
use revterm::api::{ProveRequest, ProveResponse, RequestBody, ResponseBody, WireOutcome};
use revterm::{Error, ProverConfig};
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};

enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixStream),
}

impl std::io::Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

impl std::io::Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

/// A blocking connection to a `revterm-serve` daemon.
pub struct Client {
    reader: BufReader<Stream>,
    writer: Stream,
    next_id: u64,
}

impl Client {
    /// Connects over TCP.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] if the connection fails.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, Error> {
        let stream = TcpStream::connect(addr).map_err(Error::from)?;
        let reader = stream.try_clone().map_err(Error::from)?;
        Ok(Client {
            reader: BufReader::new(Stream::Tcp(reader)),
            writer: Stream::Tcp(stream),
            next_id: 1,
        })
    }

    /// Connects over a Unix-domain socket.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] if the connection fails.
    #[cfg(unix)]
    pub fn connect_unix<P: AsRef<std::path::Path>>(path: P) -> Result<Client, Error> {
        let stream = std::os::unix::net::UnixStream::connect(path).map_err(Error::from)?;
        let reader = stream.try_clone().map_err(Error::from)?;
        Ok(Client {
            reader: BufReader::new(Stream::Unix(reader)),
            writer: Stream::Unix(stream),
            next_id: 1,
        })
    }

    /// Sends one request and waits for its response.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on transport failure, [`Error::Protocol`] on a
    /// malformed response or a correlation-id mismatch.
    pub fn request(&mut self, body: RequestBody) -> Result<ProveResponse, Error> {
        let id = self.next_id;
        self.next_id += 1;
        let request = ProveRequest { id, body };
        wire::write_frame(&mut self.writer, &request.to_json())?;
        let response = wire::read_response(&mut self.reader)?;
        if response.id != id {
            return Err(Error::Protocol(format!(
                "response id {} does not match request id {id}",
                response.id
            )));
        }
        Ok(response)
    }

    /// `prove` convenience: returns the outcome together with the pool-hit
    /// flag.
    ///
    /// # Errors
    ///
    /// Transport/protocol errors as [`Client::request`]; a `Failed`
    /// response body is unwrapped into its carried [`enum@Error`].
    pub fn prove(
        &mut self,
        source: &str,
        configs: Vec<ProverConfig>,
        deadline_ms: Option<u64>,
    ) -> Result<(WireOutcome, bool), Error> {
        let body = RequestBody::Prove { source: source.to_string(), configs, deadline_ms };
        match self.request(body)?.body {
            ResponseBody::Proved { outcome, pool_hit, .. } => Ok((*outcome, pool_hit)),
            ResponseBody::Failed(error) => Err(error),
            other => Err(unexpected("prove", &other)),
        }
    }

    /// `sweep` convenience.
    ///
    /// # Errors
    ///
    /// As [`Client::prove`].
    pub fn sweep(
        &mut self,
        source: &str,
        configs: Vec<ProverConfig>,
        stop_after: usize,
        deadline_ms: Option<u64>,
    ) -> Result<(Vec<WireOutcome>, bool), Error> {
        let body =
            RequestBody::Sweep { source: source.to_string(), configs, stop_after, deadline_ms };
        match self.request(body)?.body {
            ResponseBody::Swept { outcomes, pool_hit, .. } => Ok((outcomes, pool_hit)),
            ResponseBody::Failed(error) => Err(error),
            other => Err(unexpected("sweep", &other)),
        }
    }

    /// `analyze` convenience: the textual pre-analysis report.
    ///
    /// # Errors
    ///
    /// As [`Client::prove`].
    pub fn analyze(&mut self, source: &str) -> Result<String, Error> {
        match self.request(RequestBody::Analyze { source: source.to_string() })?.body {
            ResponseBody::Analyzed { report } => Ok(report),
            ResponseBody::Failed(error) => Err(error),
            other => Err(unexpected("analyze", &other)),
        }
    }

    /// `metrics` convenience: the raw metrics object.
    ///
    /// # Errors
    ///
    /// As [`Client::prove`].
    pub fn metrics(&mut self) -> Result<Json, Error> {
        match self.request(RequestBody::Metrics)?.body {
            ResponseBody::Opaque(value) => Ok(value),
            ResponseBody::Failed(error) => Err(error),
            other => Err(unexpected("metrics", &other)),
        }
    }

    /// `stats` convenience: the session-pool counters object.
    ///
    /// # Errors
    ///
    /// As [`Client::prove`].
    pub fn stats(&mut self) -> Result<Json, Error> {
        match self.request(RequestBody::Stats)?.body {
            ResponseBody::Opaque(value) => Ok(value),
            ResponseBody::Failed(error) => Err(error),
            other => Err(unexpected("stats", &other)),
        }
    }

    /// Asks the daemon to shut down.
    ///
    /// # Errors
    ///
    /// As [`Client::prove`].
    pub fn shutdown(&mut self) -> Result<(), Error> {
        match self.request(RequestBody::Shutdown)?.body {
            ResponseBody::ShutdownAck => Ok(()),
            ResponseBody::Failed(error) => Err(error),
            other => Err(unexpected("shutdown", &other)),
        }
    }
}

fn unexpected(op: &str, body: &ResponseBody) -> Error {
    Error::Protocol(format!("unexpected response body for {op}: {body:?}"))
}
