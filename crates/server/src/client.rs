//! A blocking client for the hoplite wire protocol.
//!
//! One [`Client`] owns one TCP connection. The convenience methods
//! ([`Client::reach`], [`Client::reach_batch`], …) issue one request
//! at a time; the **pipelined** trio [`Client::send`] /
//! [`Client::flush`] / [`Client::recv`] puts N frames on the wire
//! before reading any reply. The server answers each connection's
//! frames in arrival order, so pipelined replies come back in send
//! order — and a reactor-mode server can coalesce the in-flight
//! frames of *many* pipelined clients into shared batch-kernel calls,
//! which is how the wire benchmarks reach kernel-level throughput.
//! Open more clients for concurrency across threads.

use std::fmt;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{
    read_frame, write_frame, ErrorCode, MetricsReport, NamespaceInfo, NamespaceStats, Request,
    Response, WireError, MAX_FRAME_LEN,
};

/// Connection-robustness knobs for [`Client`] (and `loadgen`): how
/// long one dial may take, how long a blocked read/write may stall,
/// and how many *re*-dials a connect or [`Client::reconnect`] gets
/// before giving up. Re-dials back off exponentially (50 ms doubling
/// to a 2 s ceiling) with ±half jitter, so a thousand clients dropped
/// by one server restart do not stampede back in lockstep.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// Ceiling on one TCP dial. Zero means the OS default (a plain
    /// blocking `connect`).
    pub connect_timeout: Duration,
    /// Read/write timeout on the established socket; `None` blocks
    /// forever (the pre-hardening behavior).
    pub io_timeout: Option<Duration>,
    /// Extra attempts after the first, with jittered exponential
    /// backoff between them. `0` fails on the first refusal. Governs
    /// both re-dials of a failed connect *and* in-place re-issues of a
    /// request the server refused with a retryable `FAIL`
    /// (`OVERLOADED`/`NOT_READY`) — those waits honor the
    /// server's retry-after hint when it exceeds the backoff.
    pub retries: u32,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            io_timeout: None,
            retries: 0,
        }
    }
}

impl ClientConfig {
    /// The restart-tolerant profile benchmarks and load generators
    /// use: bounded I/O stalls and enough backed-off re-dials to ride
    /// out a server restart (~6 s worst case) instead of dying on the
    /// first `ECONNRESET`.
    pub fn reconnecting() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            io_timeout: Some(Duration::from_secs(30)),
            retries: 5,
        }
    }
}

/// The backoff before re-dial `attempt` (1-based): `50ms · 2^(a-1)`
/// capped at 2 s, then jittered to `[half, full)` using `seed`
/// (xorshift64*, distinct per client).
pub(crate) fn backoff_delay(attempt: u32, seed: &mut u64) -> Duration {
    let full = Duration::from_millis(50 << (attempt - 1).min(5)).min(Duration::from_secs(2));
    *seed ^= *seed << 13;
    *seed ^= *seed >> 7;
    *seed ^= *seed << 17;
    let r = seed.wrapping_mul(0x2545_F491_4F6C_DD1D);
    let half = full / 2;
    half + Duration::from_nanos(r % half.as_nanos().max(1) as u64)
}

/// Dials `addrs` (each gets `config.connect_timeout`), retrying the
/// whole list up to `config.retries` more times with jittered backoff.
pub(crate) fn dial(addrs: &[SocketAddr], config: &ClientConfig) -> io::Result<TcpStream> {
    let mut seed = addrs
        .first()
        .map(|a| a.port() as u64 + 1)
        .unwrap_or(1)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ std::process::id() as u64;
    let mut last: Option<io::Error> = None;
    for attempt in 0..=config.retries {
        if attempt > 0 {
            std::thread::sleep(backoff_delay(attempt, &mut seed));
        }
        for addr in addrs {
            let dialed = if config.connect_timeout.is_zero() {
                TcpStream::connect(addr)
            } else {
                TcpStream::connect_timeout(addr, config.connect_timeout)
            };
            match dialed {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(config.io_timeout)?;
                    stream.set_write_timeout(config.io_timeout)?;
                    return Ok(stream);
                }
                Err(e) => last = Some(e),
            }
        }
    }
    Err(last.unwrap_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "no socket address to dial")
    }))
}

/// Anything that can go wrong on the client side of a request.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The reply did not parse (or the request did not encode).
    Wire(WireError),
    /// The server replied with an `ERROR` frame; the message is the
    /// server's human-readable reason.
    Server(String),
    /// The server refused the request with a typed `FAIL` reply: shed
    /// under overload, aged past its deadline, or sent to a server
    /// still starting up. [`ClientError::is_retryable`] splits these
    /// into retry-worthy and terminal.
    Refused {
        code: ErrorCode,
        /// The server's hint: wait at least this long before retrying.
        /// Zero means no hint.
        retry_after: Duration,
        message: String,
    },
    /// The server replied with the wrong response type for the request.
    Unexpected(&'static str),
}

impl ClientError {
    /// May a retry reasonably succeed? Transport failures and
    /// `OVERLOADED`/`NOT_READY` refusals are retryable; a
    /// `DEADLINE_EXCEEDED` refusal, protocol breakage, and
    /// wrong-shape replies are terminal.
    pub fn is_retryable(&self) -> bool {
        match self {
            ClientError::Io(_) => true,
            ClientError::Refused { code, .. } => code.retryable(),
            _ => false,
        }
    }

    /// The server's retry-after hint, when the refusal carried one
    /// worth honoring.
    pub fn retry_after(&self) -> Option<Duration> {
        match self {
            ClientError::Refused {
                code, retry_after, ..
            } if code.retryable() => Some(*retry_after),
            _ => None,
        }
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client i/o error: {e}"),
            ClientError::Wire(e) => write!(f, "client wire error: {e}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::Refused { code, message, .. } => {
                write!(f, "server refused request: {code}: {message}")
            }
            ClientError::Unexpected(what) => write!(f, "unexpected reply (wanted {what})"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(io) => ClientError::Io(io),
            other => ClientError::Wire(other),
        }
    }
}

/// A blocking connection to a hoplite server.
///
/// ```no_run
/// use hoplite_server::Client;
///
/// let mut client = Client::connect("127.0.0.1:7411")?;
/// client.ping()?;
/// if client.reach("web", 17, 4242)? {
///     println!("17 reaches 4242");
/// }
/// # Ok::<(), hoplite_server::ClientError>(())
/// ```
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// The resolved dial targets, kept for [`Client::reconnect`].
    addrs: Vec<SocketAddr>,
    config: ClientConfig,
    /// Jitter state for the backoff between refused-request retries.
    seed: u64,
}

impl Client {
    /// Connects to a hoplite server with the default (no-retry,
    /// no-io-timeout) [`ClientConfig`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit timeout/retry behavior.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
    ) -> Result<Client, ClientError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let stream = dial(&addrs, &config)?;
        Self::from_stream(stream, addrs, config)
    }

    fn from_stream(
        stream: TcpStream,
        addrs: Vec<SocketAddr>,
        config: ClientConfig,
    ) -> Result<Client, ClientError> {
        let reader = BufReader::new(stream.try_clone()?);
        let seed = addrs
            .first()
            .map(|a| a.port() as u64 + 1)
            .unwrap_or(1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ std::process::id() as u64;
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
            addrs,
            config,
            seed,
        })
    }

    /// Drops the broken socket and dials again under the same
    /// [`ClientConfig`] (its `retries` + jittered backoff apply). Any
    /// pipelined frames that were in flight are gone — the caller
    /// re-issues whatever it still cares about.
    pub fn reconnect(&mut self) -> Result<(), ClientError> {
        let stream = dial(&self.addrs, &self.config)?;
        self.reader = BufReader::new(stream.try_clone()?);
        self.writer = BufWriter::new(stream);
        Ok(())
    }

    /// One request → one reply, re-issuing the request (up to
    /// `config.retries` times) when the server sheds it with a
    /// retryable `FAIL`. Each wait is the larger of the jittered
    /// backoff and the server's retry-after hint — the hint is the
    /// server saying how long its overload is expected to last.
    fn roundtrip(&mut self, request: &Request) -> Result<Response, ClientError> {
        let mut attempt = 0u32;
        loop {
            match self.roundtrip_once(request) {
                Err(e @ ClientError::Refused { .. })
                    if e.is_retryable() && attempt < self.config.retries =>
                {
                    attempt += 1;
                    let backoff = backoff_delay(attempt, &mut self.seed);
                    let wait = e.retry_after().map_or(backoff, |hint| backoff.max(hint));
                    std::thread::sleep(wait);
                }
                other => return other,
            }
        }
    }

    fn roundtrip_once(&mut self, request: &Request) -> Result<Response, ClientError> {
        let payload = request.encode()?;
        write_frame(&mut self.writer, &payload)?;
        self.writer.flush()?;
        let reply = read_frame(&mut self.reader, MAX_FRAME_LEN)?;
        decode_reply(&reply)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Ping)? {
            Response::Pong => Ok(()),
            _ => Err(ClientError::Unexpected("PONG")),
        }
    }

    /// Does `u` reach `v` in namespace `ns`?
    pub fn reach(&mut self, ns: &str, u: u32, v: u32) -> Result<bool, ClientError> {
        let request = Request::Reach {
            ns: ns.to_owned(),
            u,
            v,
        };
        match self.roundtrip(&request)? {
            Response::Bool(b) => Ok(b),
            _ => Err(ClientError::Unexpected("BOOL")),
        }
    }

    /// Answers every pair in order; the server fans frozen-namespace
    /// batches out over its worker threads.
    pub fn reach_batch(
        &mut self,
        ns: &str,
        pairs: &[(u32, u32)],
    ) -> Result<Vec<bool>, ClientError> {
        let request = Request::Batch {
            ns: ns.to_owned(),
            pairs: pairs.to_vec(),
        };
        match self.roundtrip(&request)? {
            Response::Bools(bs) if bs.len() == pairs.len() => Ok(bs),
            Response::Bools(_) => Err(ClientError::Unexpected("BOOLS of matching length")),
            _ => Err(ClientError::Unexpected("BOOLS")),
        }
    }

    /// Inserts `u → v` into a dynamic namespace.
    pub fn add_edge(&mut self, ns: &str, u: u32, v: u32) -> Result<(), ClientError> {
        let request = Request::AddEdge {
            ns: ns.to_owned(),
            u,
            v,
        };
        match self.roundtrip(&request)? {
            Response::Bool(_) => Ok(()),
            _ => Err(ClientError::Unexpected("BOOL")),
        }
    }

    /// Removes `u → v` from a dynamic namespace; `Ok(false)` means the
    /// edge did not exist.
    pub fn remove_edge(&mut self, ns: &str, u: u32, v: u32) -> Result<bool, ClientError> {
        let request = Request::RemoveEdge {
            ns: ns.to_owned(),
            u,
            v,
        };
        match self.roundtrip(&request)? {
            Response::Bool(b) => Ok(b),
            _ => Err(ClientError::Unexpected("BOOL")),
        }
    }

    /// Per-namespace counters.
    pub fn stats(&mut self, ns: &str) -> Result<NamespaceStats, ClientError> {
        let request = Request::Stats { ns: ns.to_owned() };
        match self.roundtrip(&request)? {
            Response::Stats(s) => Ok(s),
            _ => Err(ClientError::Unexpected("STATS")),
        }
    }

    /// The server's metrics report: server-wide counters,
    /// serving-loop latency summaries, and per-namespace query-path
    /// series. Pass `""` for every namespace, or a name to restrict
    /// the per-namespace section.
    pub fn metrics(&mut self, ns: &str) -> Result<MetricsReport, ClientError> {
        let request = Request::Metrics { ns: ns.to_owned() };
        match self.roundtrip(&request)? {
            Response::Metrics(report) => Ok(report),
            _ => Err(ClientError::Unexpected("METRICS")),
        }
    }

    /// Every namespace the server exposes, sorted by name.
    pub fn list(&mut self) -> Result<Vec<NamespaceInfo>, ClientError> {
        match self.roundtrip(&Request::List)? {
            Response::List(infos) => Ok(infos),
            _ => Err(ClientError::Unexpected("LIST")),
        }
    }

    // ------------------------------------------------------------------
    // Pipelined mode
    // ------------------------------------------------------------------

    /// Queues one request frame into the write buffer without waiting
    /// for its reply. Call [`Client::flush`] to put the batch on the
    /// wire, then [`Client::recv`] exactly once per `send` — replies
    /// arrive in send order. Keep the pipeline depth bounded (dozens,
    /// not millions): replies you have not `recv`ed occupy socket and
    /// server buffers, and a reactor-mode server will stop reading
    /// from a connection whose unread replies exceed its backpressure
    /// budget.
    pub fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        let payload = request.encode()?;
        write_frame(&mut self.writer, &payload)?;
        Ok(())
    }

    /// Flushes every queued frame to the wire.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        self.writer.flush()?;
        Ok(())
    }

    /// Reads the next in-order reply for a pipelined [`Client::send`].
    /// An `ERROR` reply surfaces as [`ClientError::Server`], a `FAIL`
    /// as [`ClientError::Refused`]; both consume the reply slot — keep
    /// `recv`ing for the rest of the pipeline. Refused pipelined
    /// frames are *not* re-issued automatically (the pipeline's
    /// ordering contract belongs to the caller); check
    /// [`ClientError::is_retryable`] and re-send if worthwhile.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        let reply = read_frame(&mut self.reader, MAX_FRAME_LEN)?;
        decode_reply(&reply)
    }

    /// Pipelined convenience: sends every pair as its own `REACH`
    /// frame, flushes once, then collects the replies in order —
    /// exactly the many-small-frames shape the reactor's coalescer
    /// turns into one deep batch call.
    ///
    /// ```no_run
    /// # use hoplite_server::Client;
    /// let mut client = Client::connect("127.0.0.1:7411")?;
    /// let answers = client.pipeline_reach("web", &[(0, 1), (1, 2), (2, 0)])?;
    /// assert_eq!(answers.len(), 3);
    /// # Ok::<(), hoplite_server::ClientError>(())
    /// ```
    pub fn pipeline_reach(
        &mut self,
        ns: &str,
        pairs: &[(u32, u32)],
    ) -> Result<Vec<bool>, ClientError> {
        for &(u, v) in pairs {
            self.send(&Request::Reach {
                ns: ns.to_owned(),
                u,
                v,
            })?;
        }
        self.flush()?;
        let mut answers = Vec::with_capacity(pairs.len());
        for _ in pairs {
            match self.recv()? {
                Response::Bool(b) => answers.push(b),
                _ => return Err(ClientError::Unexpected("BOOL")),
            }
        }
        Ok(answers)
    }
}

/// Splits a decoded reply into the success surface and the two error
/// shapes: free-text `ERROR` and typed `FAIL`.
fn decode_reply(reply: &[u8]) -> Result<Response, ClientError> {
    match Response::decode(reply)? {
        Response::Error(message) => Err(ClientError::Server(message)),
        Response::Fail {
            code,
            retry_after_ms,
            message,
        } => Err(ClientError::Refused {
            code,
            retry_after: Duration::from_millis(retry_after_ms as u64),
            message,
        }),
        other => Ok(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_caps_and_jitters_within_bounds() {
        let mut seed = 0x5EED;
        for attempt in 1..=10u32 {
            let full =
                Duration::from_millis(50 << (attempt - 1).min(5)).min(Duration::from_secs(2));
            for _ in 0..100 {
                let d = backoff_delay(attempt, &mut seed);
                assert!(d >= full / 2, "attempt {attempt}: {d:?} under half");
                assert!(d < full, "attempt {attempt}: {d:?} at/over full");
            }
        }
        // Distinct seeds must not march in lockstep.
        let (mut a, mut b) = (1u64, 2u64);
        assert_ne!(backoff_delay(3, &mut a), backoff_delay(3, &mut b));
    }

    #[test]
    fn dial_gives_up_after_bounded_retries() {
        // A listener we immediately drop: the port is (almost
        // certainly) dead by the time we dial it.
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let config = ClientConfig {
            connect_timeout: Duration::from_millis(200),
            io_timeout: None,
            retries: 1,
        };
        let started = std::time::Instant::now();
        assert!(dial(&[dead], &config).is_err());
        // One retry = one backoff sleep (≤ 50 ms) + two fast refusals.
        assert!(started.elapsed() < Duration::from_secs(3));
        assert!(dial(&[], &config).is_err(), "empty address list");
    }

    /// A scripted one-connection server: answers each incoming frame
    /// with the next canned response, then holds the socket open.
    fn scripted_server(replies: Vec<Response>) -> SocketAddr {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            for response in replies {
                let _ = read_frame(&mut stream, MAX_FRAME_LEN).unwrap();
                let payload = response.encode().unwrap();
                write_frame(&mut stream, &payload).unwrap();
                stream.flush().unwrap();
            }
            // Hold the connection until the peer hangs up.
            let mut sink = [0u8; 64];
            while matches!(io::Read::read(&mut stream, &mut sink), Ok(n) if n > 0) {}
        });
        addr
    }

    #[test]
    fn fail_replies_surface_as_typed_errors() {
        let addr = scripted_server(vec![
            Response::overloaded(250, "shed"),
            Response::deadline_exceeded("too slow"),
            Response::not_ready(100, "loading"),
        ]);
        let mut client = Client::connect(addr).expect("connect");

        let overloaded = client.reach("g", 0, 1).unwrap_err();
        assert!(
            matches!(
                &overloaded,
                ClientError::Refused {
                    code: ErrorCode::Overloaded,
                    ..
                }
            ),
            "got {overloaded:?}"
        );
        assert!(overloaded.is_retryable());
        assert_eq!(
            overloaded.retry_after(),
            Some(Duration::from_millis(250)),
            "the hint must survive the trip"
        );

        let expired = client.reach("g", 0, 1).unwrap_err();
        assert!(matches!(
            &expired,
            ClientError::Refused {
                code: ErrorCode::DeadlineExceeded,
                ..
            }
        ));
        assert!(!expired.is_retryable(), "deadline exhaustion is terminal");
        assert_eq!(expired.retry_after(), None);

        let warming = client.reach("g", 0, 1).unwrap_err();
        assert!(warming.is_retryable());
        assert!(format!("{warming}").contains("NOT_READY"));
    }

    #[test]
    fn retryable_refusals_are_reissued_and_honor_the_hint() {
        let addr = scripted_server(vec![
            Response::overloaded(75, "shed, come back"),
            Response::Bool(true),
        ]);
        let mut client = Client::connect_with(
            addr,
            ClientConfig {
                connect_timeout: Duration::from_secs(2),
                io_timeout: Some(Duration::from_secs(5)),
                retries: 2,
            },
        )
        .expect("connect");
        let started = std::time::Instant::now();
        assert!(
            client.reach("g", 0, 1).expect("second attempt succeeds"),
            "the re-issued request's real answer comes through"
        );
        assert!(
            started.elapsed() >= Duration::from_millis(75),
            "the wait honors the server's 75ms retry-after hint"
        );
    }

    #[test]
    fn reconnect_survives_a_dropped_connection() {
        use crate::{Registry, Server, ServerConfig};
        use hoplite_core::Oracle;
        use hoplite_graph::DiGraph;
        use std::sync::Arc;

        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let registry = Arc::new(Registry::new());
        registry.insert_frozen("g", Oracle::new(&g)).unwrap();
        let handle = Server::bind(
            "127.0.0.1:0",
            Arc::clone(&registry),
            ServerConfig::default(),
        )
        .expect("bind");
        let addr = handle.local_addr();

        let mut client = Client::connect_with(
            addr,
            ClientConfig {
                connect_timeout: Duration::from_secs(2),
                io_timeout: Some(Duration::from_secs(5)),
                retries: 2,
            },
        )
        .expect("connect");
        assert!(client.reach("g", 0, 2).unwrap());
        // Sever the transport from our side; the next roundtrip on the
        // old socket cannot work, but a reconnect must.
        client
            .writer
            .get_ref()
            .shutdown(std::net::Shutdown::Both)
            .unwrap();
        assert!(client.ping().is_err(), "dead socket must error");
        client.reconnect().expect("reconnect");
        assert!(client.reach("g", 0, 2).unwrap());
        handle.shutdown();
    }
}
