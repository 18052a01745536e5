//! The TCP serving loop, in two flavors selected by
//! [`ServerConfig::mode`]:
//!
//! - [`ServeMode::ThreadPool`] (default): accept thread + connection
//!   thread pool, one blocking worker per connection. Connections
//!   beyond the worker count are refused with an explicit `ERROR`
//!   reply — never silently queued behind long-lived peers.
//! - [`ServeMode::Reactor`] (unix): a single epoll/kqueue event loop
//!   multiplexing every connection (the `reactor` module), with
//!   cross-connection batch coalescing. Connections are never refused
//!   below the fd limit; a slow reader gets backpressure instead.
//!
//! Both speak the length-prefixed protocol of [`crate::protocol`]:
//! read a frame, decode, dispatch against the [`Registry`], reply.
//! Malformed payloads get an `ERROR` reply and the connection stays
//! usable (the length prefix already delimited the bad bytes); an
//! oversized length prefix gets a final `ERROR` and the connection is
//! closed, because framing can no longer be trusted. Reads poll with a
//! short timeout (or `epoll_wait` timeout) so idle connections notice
//! shutdown promptly without racing partially read frames.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::obs::ServerObs;
use crate::pool::ThreadPool;
use crate::protocol::{
    encode_reply_frame, ErrorCode, FrameAccumulator, MetricsReport, Request, Response, WireError,
    MAX_FRAME_LEN,
};
use crate::registry::{Registry, ServeError};

/// Which serving loop [`Server::bind`] starts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ServeMode {
    /// One blocking worker thread per connection; concurrency capped
    /// at [`ServerConfig::workers`], over-capacity clients refused.
    #[default]
    ThreadPool,
    /// One event-loop thread multiplexing every connection via
    /// epoll/kqueue, coalescing in-flight frozen `REACH`/`BATCH`
    /// frames across connections into shared batch-kernel calls.
    /// Unix only; `bind` fails with `ErrorKind::Unsupported`
    /// elsewhere.
    Reactor,
}

/// Tunables for [`Server::bind`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Thread-pool vs reactor serving loop.
    pub mode: ServeMode,
    /// Connection-handler threads (thread-pool mode) — also the cap on
    /// concurrently *connected* clients: a connection occupies its
    /// worker for its whole lifetime, so connections beyond this are
    /// refused with an explicit `ERROR` reply rather than queued (a
    /// queued connection would hang silently behind long-lived peers).
    /// Size it for the expected number of persistent clients, not for
    /// CPU cores alone. Reactor mode ignores it: connections there
    /// cost fds, not threads.
    pub workers: usize,
    /// Fan-out width for `BATCH` on frozen namespaces
    /// ([`hoplite_core::parallel::par_query_batch_mapped`]) — in
    /// reactor mode, for each *coalesced* per-tick super-batch.
    pub batch_threads: usize,
    /// Reactor mode: once a connection's buffered unwritten replies
    /// exceed this many bytes, the reactor stops *reading* from it
    /// until the peer drains — bounding per-connection memory with
    /// backpressure instead of unbounded queueing.
    pub write_backpressure: usize,
    /// Maximum age of a frame between **accumulation** (its last byte
    /// arriving off the socket) and dispatch. A frame that sits queued
    /// past the deadline is answered with a `DEADLINE_EXCEEDED`
    /// refusal instead of consuming batch-kernel time — under overload
    /// the server does *useful* work first and tells stale work it was
    /// never done. `None` (the default) disables deadlines.
    pub request_deadline: Option<Duration>,
    /// Close connections that carried no traffic for this long.
    /// `None` (the default) keeps idle peers forever.
    pub idle_timeout: Option<Duration>,
    /// Slow-loris guard: close connections holding an incomplete frame
    /// (a length prefix or partial body with no follow-up bytes) for
    /// this long. `None` disables the guard.
    pub half_frame_deadline: Option<Duration>,
    /// Admission-control high-water mark on decoded frames awaiting
    /// dispatch — per reactor tick, or per connection in thread-pool
    /// mode. Past it, reads (`REACH`/`BATCH`) are shed with an
    /// `OVERLOADED` refusal carrying a retry-after hint; mutations
    /// are never shed (their ack is the WAL ack). `None` (the default)
    /// never sheds.
    pub shed_inflight_hwm: Option<usize>,
    /// Reactor mode: cap on query pairs admitted into one namespace's
    /// per-tick coalesced super-batch; frames past it are shed with
    /// `OVERLOADED`. `None` (the default) admits everything.
    pub shed_coalesced_pairs: Option<usize>,
    /// Thread-pool mode: bound on jobs queued waiting for a worker;
    /// connections arriving past it are refused with `OVERLOADED`.
    /// Zero means "use the worker count".
    pub pool_queue_limit: usize,
    /// Hard cap on bytes of replies buffered for one connection. A
    /// peer that stops reading long enough to cross it is disconnected
    /// (and counted as reaped) instead of buffered unboundedly —
    /// [`Self::write_backpressure`] throttles, this one evicts.
    pub max_conn_backlog: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        ServerConfig {
            mode: ServeMode::ThreadPool,
            workers: cores.clamp(2, 16),
            batch_threads: cores.clamp(1, 8),
            write_backpressure: 256 * 1024,
            request_deadline: None,
            idle_timeout: None,
            half_frame_deadline: Some(Duration::from_secs(30)),
            shed_inflight_hwm: None,
            shed_coalesced_pairs: None,
            pool_queue_limit: 0,
            max_conn_backlog: 16 * 256 * 1024,
        }
    }
}

/// How often a blocked read (thread-pool) or an idle `epoll_wait`
/// (reactor) re-checks the shutdown flag.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Advisory "come back in this many milliseconds" hint carried by
/// `OVERLOADED` and `NOT_READY` refusals.
pub(crate) const RETRY_AFTER_MS: u32 = 100;

/// Monotonic serving counters, shared by every serving thread.
#[derive(Default)]
pub(crate) struct ServerCounters {
    pub(crate) connections: AtomicU64,
    pub(crate) frames: AtomicU64,
    pub(crate) errors: AtomicU64,
    pub(crate) rejected: AtomicU64,
    /// Connections currently held open (a pool worker in thread-pool
    /// mode; a slab slot in reactor mode).
    pub(crate) active: AtomicUsize,
    /// Frames answered through a shared (≥ 2-frame) coalesced batch
    /// call, and how many such calls ran (reactor mode only).
    pub(crate) coalesced_frames: AtomicU64,
    pub(crate) coalesced_calls: AtomicU64,
    /// Frames shed by admission control (`OVERLOADED` replies).
    pub(crate) frames_shed: AtomicU64,
    /// Frames that aged out before dispatch (`DEADLINE_EXCEEDED`).
    pub(crate) deadline_exceeded: AtomicU64,
    /// Connections closed by hygiene: idle timeout, slow-loris
    /// half-frame deadline, or the hard reply-backlog cap.
    pub(crate) connections_reaped: AtomicU64,
}

/// Books one outgoing reply into the shared counters — every serving
/// path (thread-pool, reactor inline, reactor scatter) funnels through
/// this so the exposition reconciles with what peers observed.
pub(crate) fn count_reply(counters: &ServerCounters, response: &Response) {
    counters.frames.fetch_add(1, Ordering::Relaxed);
    match response {
        Response::Error(_) => {
            counters.errors.fetch_add(1, Ordering::Relaxed);
        }
        Response::Fail { code, .. } => match code {
            ErrorCode::Overloaded => {
                counters.frames_shed.fetch_add(1, Ordering::Relaxed);
            }
            ErrorCode::DeadlineExceeded => {
                counters.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            }
            ErrorCode::NotReady => {
                counters.errors.fetch_add(1, Ordering::Relaxed);
            }
        },
        _ => {}
    }
}

/// The server entry point; see [`Server::bind`].
pub struct Server;

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving `registry` in background threads. Returns immediately;
    /// the returned handle reports the bound address and shuts the
    /// server down when told to (or on drop).
    ///
    /// ```
    /// use std::sync::Arc;
    /// use hoplite_core::Oracle;
    /// use hoplite_graph::DiGraph;
    /// use hoplite_server::{Client, Registry, Server, ServerConfig};
    ///
    /// let registry = Arc::new(Registry::new());
    /// let g = DiGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
    /// registry.insert_frozen("g", Oracle::new(&g)).unwrap();
    ///
    /// let handle = Server::bind("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
    /// let mut client = Client::connect(handle.local_addr()).unwrap();
    /// assert!(client.reach("g", 0, 2).unwrap());
    /// handle.shutdown();
    /// ```
    pub fn bind(
        addr: impl ToSocketAddrs,
        registry: Arc<Registry>,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let mode = config.mode;
        let config = Arc::new(config);
        let counters = Arc::new(ServerCounters::default());
        let accept_counters = Arc::clone(&counters);
        let obs = Arc::new(ServerObs::new());
        let accept_obs = Arc::clone(&obs);
        let handle_registry = Arc::clone(&registry);
        let accept = match mode {
            ServeMode::ThreadPool => std::thread::Builder::new()
                .name("hoplited-accept".into())
                .spawn(move || {
                    accept_loop(
                        listener,
                        registry,
                        config,
                        accept_stop,
                        accept_counters,
                        accept_obs,
                    );
                })?,
            #[cfg(unix)]
            ServeMode::Reactor => std::thread::Builder::new()
                .name("hoplited-reactor".into())
                .spawn(move || {
                    crate::reactor::reactor_loop(
                        listener,
                        registry,
                        config,
                        accept_stop,
                        accept_counters,
                        accept_obs,
                    );
                })?,
            #[cfg(not(unix))]
            ServeMode::Reactor => {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "ServeMode::Reactor needs epoll/kqueue; use ServeMode::ThreadPool",
                ))
            }
        };
        Ok(ServerHandle {
            local_addr,
            stop,
            accept: Some(accept),
            counters,
            obs,
            registry: handle_registry,
            metrics_thread: None,
        })
    }
}

/// Owns a running server; dropping it shuts the server down.
pub struct ServerHandle {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    counters: Arc<ServerCounters>,
    obs: Arc<ServerObs>,
    registry: Arc<Registry>,
    metrics_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connections accepted so far.
    pub fn connections_accepted(&self) -> u64 {
        self.counters.connections.load(Ordering::Relaxed)
    }

    /// Frames answered so far (including error replies).
    pub fn frames_served(&self) -> u64 {
        self.counters.frames.load(Ordering::Relaxed)
    }

    /// Error replies sent so far.
    pub fn errors_replied(&self) -> u64 {
        self.counters.errors.load(Ordering::Relaxed)
    }

    /// Connections refused because every worker was occupied
    /// (thread-pool mode only; the reactor never refuses).
    pub fn connections_rejected(&self) -> u64 {
        self.counters.rejected.load(Ordering::Relaxed)
    }

    /// Connections currently held open.
    pub fn connections_active(&self) -> usize {
        self.counters.active.load(Ordering::SeqCst)
    }

    /// Frames shed by admission control (`OVERLOADED` replies sent).
    pub fn frames_shed(&self) -> u64 {
        self.counters.frames_shed.load(Ordering::Relaxed)
    }

    /// Frames that aged out past [`ServerConfig::request_deadline`]
    /// before dispatch (`DEADLINE_EXCEEDED` replies sent).
    pub fn deadlines_exceeded(&self) -> u64 {
        self.counters.deadline_exceeded.load(Ordering::Relaxed)
    }

    /// Connections closed by hygiene (idle timeout, slow-loris
    /// half-frame deadline, or the hard reply-backlog cap).
    pub fn connections_reaped(&self) -> u64 {
        self.counters.connections_reaped.load(Ordering::Relaxed)
    }

    /// Frames answered through a shared coalesced batch call — i.e. a
    /// per-tick kernel invocation that served ≥ 2 frames (reactor
    /// mode).
    pub fn frames_coalesced(&self) -> u64 {
        self.counters.coalesced_frames.load(Ordering::Relaxed)
    }

    /// Coalesced batch-kernel calls that served ≥ 2 frames (reactor
    /// mode). `frames_coalesced / coalesce_calls` is the mean
    /// cross-connection batch depth the kernel actually saw.
    pub fn coalesce_calls(&self) -> u64 {
        self.counters.coalesced_calls.load(Ordering::Relaxed)
    }

    /// The same report the `METRICS` wire op serves: server-wide
    /// counters and serving-loop histograms, plus every namespace's
    /// query-path series (or just `ns`'s when non-empty).
    pub fn metrics(&self, ns: &str) -> MetricsReport {
        crate::obs::collect_metrics(&self.registry, &self.counters, &self.obs, ns)
    }

    /// Prometheus-style text exposition of [`ServerHandle::metrics`],
    /// with the slow-query log appended as comment lines — exactly
    /// what the `--metrics-addr` HTTP endpoint returns.
    pub fn metrics_text(&self) -> String {
        crate::obs::render_prometheus(
            &self.metrics(""),
            &crate::obs::collect_slow(&self.registry, ""),
        )
    }

    /// Starts the `GET /metrics` HTTP/1.0 responder on `addr` (port 0
    /// for ephemeral) in a background thread that lives until
    /// shutdown; returns the bound address.
    pub fn serve_metrics(&mut self, addr: impl ToSocketAddrs) -> io::Result<SocketAddr> {
        let (local, thread) = crate::obs::spawn_metrics_http(
            addr,
            Arc::clone(&self.registry),
            Arc::clone(&self.counters),
            Arc::clone(&self.obs),
            Arc::clone(&self.stop),
        )?;
        self.metrics_thread = Some(thread);
        Ok(local)
    }

    /// Graceful shutdown: stop accepting, let in-flight requests
    /// finish, join every thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let serving = self.accept.is_some() || self.metrics_thread.is_some();
        if let Some(handle) = self.accept.take() {
            self.stop.store(true, Ordering::SeqCst);
            // Unblock the accept() call; any connection works.
            let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_millis(250));
            let _ = handle.join();
        }
        if let Some(handle) = self.metrics_thread.take() {
            self.stop.store(true, Ordering::SeqCst);
            let _ = handle.join();
        }
        if serving {
            // Connections are drained: force any unsynced WAL tail to
            // stable storage. The group-commit policy only evaluates
            // inside appends, so the last acknowledged records of a
            // burst would otherwise sit in the page cache until the
            // next mutation arrives — a graceful shutdown must not
            // leave them there.
            for (ns, e) in self.registry.sync_all() {
                crate::log_error!("shutdown", "final WAL sync failed for {ns:?}: {e}");
            }
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn accept_loop(
    listener: TcpListener,
    registry: Arc<Registry>,
    config: Arc<ServerConfig>,
    stop: Arc<AtomicBool>,
    counters: Arc<ServerCounters>,
    obs: Arc<ServerObs>,
) {
    // Dropping the pool at the end of this function joins the workers,
    // so `ServerHandle::shutdown` transitively waits for connections.
    let pool = ThreadPool::new(config.workers, "hoplited-conn");
    let queue_limit = if config.pool_queue_limit == 0 {
        pool.size()
    } else {
        config.pool_queue_limit
    };
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match stream {
            Ok(stream) => {
                // Every live connection pins a worker, so a saturated
                // pool must refuse loudly instead of queueing: a queued
                // connection would hang with no reply until some peer
                // disconnects. The bounded job queue is the second
                // gate: even below the connection cap, jobs stuck
                // waiting for a worker must not pile up unanswered.
                if counters.active.load(Ordering::SeqCst) >= pool.size() {
                    counters.rejected.fetch_add(1, Ordering::Relaxed);
                    refuse_connection(
                        stream,
                        format!(
                            "server at capacity ({} connections); retry later",
                            pool.size()
                        ),
                    );
                    continue;
                }
                if pool.depth() >= queue_limit {
                    counters.rejected.fetch_add(1, Ordering::Relaxed);
                    refuse_connection(
                        stream,
                        format!("connection queue full ({queue_limit} waiting); retry later"),
                    );
                    continue;
                }
                obs.pool_queue_depth.record(pool.depth() as u64);
                counters.connections.fetch_add(1, Ordering::Relaxed);
                counters.active.fetch_add(1, Ordering::SeqCst);
                let registry = Arc::clone(&registry);
                let config = Arc::clone(&config);
                let stop = Arc::clone(&stop);
                let counters = Arc::clone(&counters);
                let obs = Arc::clone(&obs);
                pool.execute(move || {
                    // Release the slot even if the handler panics (the
                    // pool contains the panic; the capacity gate must
                    // still see the worker as free again).
                    struct Slot<'a>(&'a AtomicUsize);
                    impl Drop for Slot<'_> {
                        fn drop(&mut self) {
                            self.0.fetch_sub(1, Ordering::SeqCst);
                        }
                    }
                    let _slot = Slot(&counters.active);
                    serve_connection(stream, &registry, &config, &stop, &counters, &obs)
                });
            }
            Err(_) => {
                // Transient accept failure (EMFILE…): back off briefly
                // instead of spinning.
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Tells a refused client why it is being turned away — an
/// `OVERLOADED` refusal with a retry-after hint, so client backoff
/// actually helps instead of hammering. Bounded by a short write
/// timeout so a slow peer cannot stall the accept thread.
fn refuse_connection(mut stream: TcpStream, why: String) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let _ = send_response(&mut stream, &Response::overloaded(RETRY_AFTER_MS, why));
}

/// Writes one reply frame with a single blocking `write_all`.
fn send_response(stream: &mut TcpStream, response: &Response) -> io::Result<()> {
    let mut frame = Vec::new();
    encode_reply_frame(&mut frame, response);
    stream.write_all(&frame)
}

/// May this request be shed by admission control? Reads are cheap to
/// refuse and cheap to retry; mutations are never shed (the client
/// treats the reply as the WAL ack), and control-plane ops
/// (`PING`/`STATS`/`LIST`/`METRICS`) are exactly what an operator
/// needs *during* overload.
pub(crate) fn sheddable(request: &Request) -> bool {
    matches!(request, Request::Reach { .. } | Request::Batch { .. })
}

/// How long a slow peer may stall a blocking reply write before the
/// connection is closed — the thread-pool twin of the reactor's hard
/// backlog cap (there is no userspace reply queue here to bound, only
/// a worker wedged in `write`).
const WRITE_STALL_TIMEOUT: Duration = Duration::from_secs(5);

fn serve_connection(
    mut stream: TcpStream,
    registry: &Registry,
    config: &ServerConfig,
    stop: &AtomicBool,
    counters: &ServerCounters,
    obs: &ServerObs,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_write_timeout(Some(WRITE_STALL_TIMEOUT));
    let mut acc = FrameAccumulator::new(MAX_FRAME_LEN);
    // Frames stamped at accumulation time (the read that completed
    // them) — the deadline clock starts here, and a pipelining client
    // can land many frames per read.
    let mut queue: VecDeque<(Vec<u8>, Instant)> = VecDeque::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut last_activity = Instant::now();
    let mut partial_since: Option<Instant> = None;
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        // A FrameTooLarge prefix poisons the stream (the oversized
        // body was never consumed): answer everything decoded before
        // it, send one final error, close.
        let mut poisoned: Option<WireError> = None;
        match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(k) => {
                let arrived = Instant::now();
                last_activity = arrived;
                acc.extend(&buf[..k]);
                loop {
                    match acc.next_frame() {
                        Ok(Some(payload)) => queue.push_back((payload, arrived)),
                        Ok(None) => break,
                        Err(e) => {
                            poisoned = Some(e);
                            break;
                        }
                    }
                }
                partial_since = if acc.pending_bytes() > 0 && poisoned.is_none() {
                    partial_since.or(Some(arrived))
                } else {
                    None
                };
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // Idle poll tick: connection hygiene runs here.
                if let Some(timeout) = config.idle_timeout {
                    if acc.pending_bytes() == 0 && last_activity.elapsed() >= timeout {
                        counters.connections_reaped.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                }
                if let (Some(deadline), Some(since)) = (config.half_frame_deadline, partial_since) {
                    if since.elapsed() >= deadline {
                        counters.connections_reaped.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                }
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
        if !queue.is_empty() {
            obs.inflight_frames.record(queue.len() as u64);
        }
        while let Some((payload, arrived)) = queue.pop_front() {
            let response = match Request::decode(&payload) {
                Ok(request) => {
                    let expired = config.request_deadline.is_some_and(|deadline| {
                        !matches!(request, Request::Ping) && arrived.elapsed() > deadline
                    });
                    let shed = config
                        .shed_inflight_hwm
                        .is_some_and(|hwm| queue.len() > hwm && sheddable(&request));
                    if expired {
                        Response::deadline_exceeded(format!(
                            "request aged out after {}ms queued",
                            arrived.elapsed().as_millis()
                        ))
                    } else if shed {
                        Response::overloaded(
                            RETRY_AFTER_MS,
                            format!("shed: {} frames queued on this connection", queue.len() + 1),
                        )
                    } else {
                        handle_request(request, registry, config, counters, obs)
                    }
                }
                Err(e) => Response::Error(format!("bad request: {e}")),
            };
            count_reply(counters, &response);
            obs.reply_latency_ns
                .record(arrived.elapsed().as_nanos() as u64);
            match send_response(&mut stream, &response) {
                Ok(()) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    // The peer stopped reading long enough to wedge a
                    // blocking write: abusive, evict it.
                    counters.connections_reaped.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                Err(_) => return,
            }
        }
        if let Some(err) = poisoned {
            counters.frames.fetch_add(1, Ordering::Relaxed);
            counters.errors.fetch_add(1, Ordering::Relaxed);
            let _ = send_response(&mut stream, &Response::Error(format!("bad request: {err}")));
            return; // cannot skip the oversized body safely
        }
    }
}

fn lookup(registry: &Registry, ns: &str) -> Result<crate::registry::NamespaceHandle, ServeError> {
    registry
        .get(ns)
        .ok_or_else(|| ServeError::UnknownNamespace(ns.to_owned()))
}

pub(crate) fn handle_request(
    request: Request,
    registry: &Registry,
    config: &ServerConfig,
    counters: &ServerCounters,
    obs: &ServerObs,
) -> Response {
    fn reply<T>(result: Result<T, ServeError>, ok: impl FnOnce(T) -> Response) -> Response {
        match result {
            Ok(v) => ok(v),
            Err(e) => Response::Error(e.to_string()),
        }
    }
    // Not ready (still loading / WAL replay in progress): refuse data-
    // plane work with a typed NOT_READY. PING stays answerable — it is
    // the liveness probe — and so does LIST (it reports what *has*
    // loaded so far).
    if !registry.is_ready() && !matches!(request, Request::Ping | Request::List) {
        return Response::not_ready(
            RETRY_AFTER_MS,
            "server is starting up (namespace load / WAL replay in progress)",
        );
    }
    match request {
        Request::Ping => Response::Pong,
        Request::List => Response::List(registry.list()),
        Request::Reach { ns, u, v } => reply(
            lookup(registry, &ns).and_then(|h| h.reach(u, v)),
            Response::Bool,
        ),
        Request::Batch { ns, pairs } => reply(
            lookup(registry, &ns).and_then(|h| h.reach_batch(&pairs, config.batch_threads)),
            Response::Bools,
        ),
        Request::AddEdge { ns, u, v } => reply(
            lookup(registry, &ns).and_then(|h| h.add_edge(&ns, u, v)),
            |()| Response::Bool(true),
        ),
        Request::RemoveEdge { ns, u, v } => reply(
            lookup(registry, &ns).and_then(|h| h.remove_edge(&ns, u, v)),
            Response::Bool,
        ),
        Request::Stats { ns } => reply(lookup(registry, &ns).map(|h| h.stats()), Response::Stats),
        Request::Metrics { ns } => {
            if !ns.is_empty() && registry.get(&ns).is_none() {
                Response::Error(ServeError::UnknownNamespace(ns).to_string())
            } else {
                Response::Metrics(crate::obs::collect_metrics(registry, counters, obs, &ns))
            }
        }
    }
}
