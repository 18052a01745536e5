//! `wire-frozen` and `wire-dynamic`: an in-process [`Server`] with the
//! default [`ServerConfig`], driven over TCP by blocking [`Client`]s in
//! closed loops.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hoplite_core::wal::{EdgeOp, WalDir};
use hoplite_core::{DynamicOracle, Oracle, WalConfig};
use hoplite_graph::gen::{self, Rng};
use hoplite_graph::{traversal, Dag, DiGraph};
use hoplite_server::{
    Client, ClientError, NamespaceHandle, Registry, Request, Response, Server, ServerConfig,
    ServerHandle,
};

use crate::common::{
    batch_slice, build_save_open, callers, closed_loop_reads, is_cycle_rejection, median_of,
    new_windows, put_setup_layers, rounds, window_stats, BatchRates, ReadRun, Reads, Streams,
    WriterStream, ROUND, WINDOW,
};
use crate::stats::median;
use crate::trace::{Recorder, Tracer};
use crate::{layers, Cfg, Outcome};

/// The namespace every wire workload serves.
pub const NS: &str = "bench";
/// `wire-frozen` graph: the `hoplited bench` power-law family and size.
pub const FROZEN_N: usize = 50_000;
pub const FROZEN_M: usize = 150_000;
/// `wire-dynamic` seed graph: `paper perf`'s dynamic-stage family.
pub const DYNAMIC_N: usize = 20_000;
pub const DYNAMIC_M: usize = 60_000;
/// Pairs per query stream (each with BFS ground truth).
pub const QUERIES: usize = 100_000;
/// Pairs per in-process batch: a whole stream, about 2 ms on 2 cores
/// over the `wire-frozen` oracle. Smaller batches of these cheap queries
/// are dominated by the spawn of the batch's threads.
pub const BATCH_PAIRS: usize = QUERIES;
/// The writer's think time between a reply and its next request. At
/// full speed the writer kept the rebuild worker and both cores busy,
/// and read p99 across 10 seeds spread by 43%, tracking hypervisor
/// steal; paced, it writes ≈ 440 ops/s and still arms several
/// background rebuilds a second.
pub const WRITE_THINK: Duration = Duration::from_millis(2);
/// Set-up rounds per run; `setup_s` is their median.
pub const SETUP_ROUNDS: usize = 3;
/// Pairs of the acknowledged graph checked against BFS after the run.
const BFS_SAMPLE: usize = 200;

/// A frozen namespace being served: oracle, registry, server, label
/// entries, arena bytes.
type Served = (Arc<Oracle>, Arc<Registry>, ServerHandle, u64, u64);

pub fn bind(registry: Arc<Registry>) -> ServerHandle {
    Server::bind("127.0.0.1:0", registry, ServerConfig::default()).expect("bind 127.0.0.1:0")
}

/// One blocking `REACH`. Traced, it is a `wire.reach` span with two
/// children: `client.send` (encode, write, flush) and `client.wait`
/// (until the reply is read and decoded).
pub fn wire_read(client: &mut Client, rec: &mut Recorder, u: u32, v: u32) -> Result<bool, String> {
    if !rec.on() {
        return client.reach(NS, u, v).map_err(|e| e.to_string());
    }
    let req = rec.request_id();
    let root = rec.begin("wire.reach", 0, req);
    let send = rec.begin("client.send", root.id(), req);
    let request = Request::Reach {
        ns: NS.to_owned(),
        u,
        v,
    };
    let sent = client.send(&request).and_then(|()| client.flush());
    rec.end(send);
    let wait = rec.begin("client.wait", root.id(), req);
    let reply = sent.and_then(|()| client.recv());
    rec.end(wait);
    rec.end(root);
    match reply {
        Ok(Response::Bool(b)) => Ok(b),
        Ok(other) => Err(format!("unexpected reply {other:?}")),
        Err(e) => Err(e.to_string()),
    }
}

fn connect(addr: std::net::SocketAddr) -> Client {
    Client::connect(addr).expect("connect to the in-process server")
}

/// Checks that the server booked exactly the frames the clients sent
/// (`server_frames_total`) and the error or refusal replies they saw
/// (`server_errors_total`, plus the shed and deadline counters that
/// typed refusals go to).
fn reconcile(server: &ServerHandle, frames: u64, errors: u64, out: &mut Outcome) {
    let m = server.metrics("");
    let sf = m.counter("server_frames_total");
    let se = [
        "server_errors_total",
        "server_frames_shed_total",
        "server_deadline_exceeded_total",
    ]
    .iter()
    .map(|c| m.counter(c))
    .sum::<Option<u64>>();
    out.check(sf == Some(frames), || {
        format!("server_frames_total {sf:?} != {frames} frames the clients sent")
    });
    out.check(se == Some(errors), || {
        format!("server error and refusal replies {se:?} != {errors} the clients saw")
    });
}

/// Scrapes the serving-loop histograms over the wire with
/// [`Client::metrics`], once the workload's connections have closed (the
/// default thread pool admits only as many connections as it has
/// workers).
pub fn scrape_server(server: &ServerHandle, out: &mut Outcome) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.connections_active() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let m = connect(server.local_addr())
        .metrics("")
        .expect("METRICS over the wire");
    if let Some(h) = m.histogram("server_reply_latency_ns") {
        out.put("server.reply_ns.p50", "ns", h.p50 as f64);
        out.put("server.reply_ns.p99", "ns", h.p99 as f64);
    }
    if let Some(h) = m.histogram("server_inflight_frames") {
        out.put("server.inflight_frames.p99", "count", h.p99 as f64);
    }
    if let Some(h) = m.histogram("server_queue_depth_bytes") {
        out.put("server.queue_depth_bytes.p99", "bytes", h.p99 as f64);
    }
    let frames = m.counter("server_frames_total").unwrap_or(0);
    let coalesced = m.counter("reactor_coalesced_frames_total").unwrap_or(0);
    out.put(
        "reactor.coalesce_ratio",
        "ratio",
        coalesced as f64 / frames.max(1) as f64,
    );
}

/// Client-side costs from the traced requests' spans.
pub fn put_client_spans(tracer: &Tracer, out: &mut Outcome) {
    let mean_us = |name: &str| {
        let d = tracer.durations(name);
        d.iter().sum::<u64>() as f64 / d.len().max(1) as f64 / 1e3
    };
    out.put("client.send_us", "us", mean_us("client.send"));
    out.put("client.wait_us", "us", mean_us("client.wait"));
    let roots = tracer.durations("wire.reach").len().max(1);
    out.put(
        "client.self_us",
        "us",
        tracer.self_ns("wire.reach") as f64 / roots as f64 / 1e3,
    );
}

/// `registry.reach_ns`: the in-process [`NamespaceHandle::reach`] on
/// the same pairs — the share of a wire read spent in the registry and
/// kernel.
pub fn registry_reach_ns(handle: &NamespaceHandle, pairs: &[(u32, u32)], out: &mut Outcome) {
    let mut per_pass = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        for &(u, v) in pairs {
            std::hint::black_box(handle.reach(u, v).expect("in-process reach"));
        }
        per_pass.push(t.elapsed().as_nanos() as f64 / pairs.len() as f64);
    }
    out.put("registry.reach_ns", "ns", median(&mut per_pass));
}

pub fn run_frozen(cfg: &Cfg, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut rec = tracer.recorder();
    let t = Instant::now();
    let dag = gen::power_law_dag(FROZEN_N, FROZEN_M, cfg.seed);
    let streams = Streams::generate(&dag, QUERIES, cfg.seed);
    eprintln!(
        "# wire-frozen: power_law_dag(n={FROZEN_N}, m={FROZEN_M}) and 2 x {QUERIES} pairs \
         with BFS truth in {:.2} s",
        t.elapsed().as_secs_f64()
    );

    let arena = cfg.tmp.join("frozen.hopl");
    let mut ready: Option<Served> = None;
    let setup_s = median_of(SETUP_ROUNDS, |_| {
        if let Some((.., server, _, _)) = ready.take() {
            server.shutdown();
        }
        let t = Instant::now();
        let root = rec.begin("setup", 0, 0);
        let (opened, label_entries, bytes) = build_save_open(&dag, &arena, &mut rec, root.id());
        let oracle = Arc::new(opened);
        let registry = Arc::new(Registry::new());
        rec.span("registry.insert_frozen", root.id(), || {
            registry
                .insert_frozen(NS, Arc::clone(&oracle))
                .expect("register the frozen namespace")
        });
        let server = rec.span("server.bind", root.id(), || bind(Arc::clone(&registry)));
        rec.end(root);
        ready = Some((oracle, registry, server, label_entries, bytes));
        t.elapsed().as_secs_f64()
    });
    let (oracle, registry, server, label_entries, arena_bytes) =
        ready.expect("at least one set-up round");
    out.put("setup_s", "s", setup_s);
    out.put("index_mb", "MiB", arena_bytes as f64 / (1 << 20) as f64);
    rec.flush();
    put_setup_layers(tracer, label_entries, arena_bytes, &mut out);

    // Wire answers must equal the in-process answers for the same
    // pairs, which must equal BFS.
    let threads = cfg.threads;
    let (pairs, truth) = streams.interleaved();
    let inproc = oracle.reaches_batch(&pairs, threads);
    out.check(inproc == truth, || {
        "in-process answers differ from BFS".into()
    });
    let expected: Vec<Option<bool>> = inproc.iter().map(|&b| Some(b)).collect();

    // Rounds of [in-process batches 20% | wire reads 80%]; every other
    // round traced. Connections stay open across rounds.
    let addr = server.local_addr();
    let mut clients = callers((0..threads).map(|_| connect(addr)).collect(), pairs.len());
    let (mut rates, mut reads) = (BatchRates::default(), Reads::default());
    let (mut frames, mut failed) = (0, 0);
    for round in 0..rounds(cfg.seconds) {
        batch_slice(
            &streams,
            ROUND.mul_f64(0.2),
            BATCH_PAIRS,
            &mut rates,
            &mut out,
            &mut rec,
            |p| oracle.reaches_batch(p, threads),
        );
        let traced = cfg.trace && round % 2 == 1;
        let run = closed_loop_reads(
            &pairs,
            &expected,
            &mut clients,
            ROUND.mul_f64(0.8),
            tracer,
            traced,
            &mut out,
            wire_read,
        );
        frames += run.done;
        failed += run.failed;
        reads.add(run, traced);
    }
    drop(clients);
    rates.put(&mut out);
    reads.put(&mut out);
    reconcile(&server, frames, failed, &mut out);
    drop(rec);

    if cfg.trace {
        put_client_spans(tracer, &mut out);
        scrape_server(&server, &mut out);
        let handle = registry.get(NS).expect("namespace registered");
        registry_reach_ns(&handle, &pairs, &mut out);
        layers::kernel(&oracle, &streams, threads, &mut out);
        layers::protocol(&pairs, &mut out);
        layers::write_replay(&dag, cfg, &mut out);
    }
    server.shutdown();
    out
}

/// The blocking writer connection of `wire-dynamic`: `ADD_EDGE` /
/// `REMOVE_EDGE` from the writer stream, one in flight, each sent
/// [`WRITE_THINK`] after the previous reply. `run` holds the
/// reply latencies by window, cycle rejections included (they are
/// answers too).
struct Writer {
    client: Client,
    stream: WriterStream,
    run: ReadRun,
    acked: u64,
    rejected: u64,
    wrong: Vec<String>,
}

impl Writer {
    fn new(addr: std::net::SocketAddr, dag: &Dag, seed: u64) -> Self {
        Writer {
            client: connect(addr),
            stream: WriterStream::new(dag, seed),
            run: ReadRun::default(),
            acked: 0,
            rejected: 0,
            wrong: Vec::new(),
        }
    }

    /// Writes until `budget` passes.
    fn run_for(&mut self, budget: Duration, tracer: &Tracer, traced: bool) {
        let mut rec = tracer.recorder_traced(traced);
        let mut windows = new_windows(budget);
        let mut run = ReadRun::default();
        let started = Instant::now();
        loop {
            std::thread::sleep(WRITE_THINK);
            let win = (started.elapsed().as_nanos() / WINDOW.as_nanos()) as usize;
            if win >= windows.len() {
                break;
            }
            let op = self.stream.next_op();
            let span = rec.begin("wire.write", 0, 0);
            let t = Instant::now();
            let result = match op {
                EdgeOp::Insert(u, v) => self.client.add_edge(NS, u, v).map(|()| true),
                EdgeOp::Remove(u, v) => self.client.remove_edge(NS, u, v),
            };
            let ns = t.elapsed().as_nanos() as u64;
            rec.end(span);
            run.done += 1;
            match result {
                Ok(existed) => {
                    windows[win].record(ns);
                    self.acked += 1;
                    if !existed {
                        self.wrong.push(format!(
                            "{op:?}: the edge was acknowledged earlier but gone"
                        ));
                    }
                    self.stream.acked(op);
                }
                Err(ClientError::Server(msg)) if is_cycle_rejection(&msg) => {
                    windows[win].record(ns);
                    self.rejected += 1;
                    self.stream.refused(op);
                }
                Err(e) => {
                    windows[win].record(u64::MAX);
                    run.failed += 1;
                    if self.run.failed + run.failed <= 3 {
                        eprintln!("# write {op:?} failed: {e}");
                    }
                    self.stream.refused(op);
                }
            }
        }
        run.windows = window_stats(windows, started.elapsed());
        self.run.merge(run);
    }
}

/// Checks `read` against BFS over `edges` on `count` seeded pairs.
fn bfs_sample(
    n: usize,
    edges: &BTreeSet<(u32, u32)>,
    count: usize,
    seed: u64,
    what: &str,
    out: &mut Outcome,
    read: impl Fn(u32, u32) -> Result<bool, String>,
) {
    let list: Vec<(u32, u32)> = edges.iter().copied().collect();
    let g = DiGraph::from_edges(n, &list).expect("acknowledged edges stay in range");
    let mut rng = Rng::new(seed);
    for _ in 0..count {
        let (u, v) = (rng.gen_index(n) as u32, rng.gen_index(n) as u32);
        let want = traversal::reaches(&g, u, v);
        let got = read(u, v);
        out.ops(1, got.is_err() as u64);
        out.check(got.as_ref().is_ok_and(|&b| b == want), || {
            format!("{what}: reach({u}, {v}) = {got:?}, BFS over acknowledged edges says {want}")
        });
    }
}

pub fn run_dynamic(cfg: &Cfg, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut rec = tracer.recorder();
    let t = Instant::now();
    let dag = gen::random_dag(DYNAMIC_N, DYNAMIC_M, cfg.seed);
    let streams = Streams::generate(&dag, QUERIES, cfg.seed);
    eprintln!(
        "# wire-dynamic: random_dag(n={DYNAMIC_N}, m={DYNAMIC_M}) and 2 x {QUERIES} pairs \
         with BFS truth in {:.2} s",
        t.elapsed().as_secs_f64()
    );

    let mut ready: Option<(Arc<Registry>, ServerHandle, std::path::PathBuf)> = None;
    let setup_s = median_of(SETUP_ROUNDS, |round| {
        if let Some((_, server, _)) = ready.take() {
            server.shutdown();
        }
        let dir = cfg.tmp.join(format!("wal-{round}"));
        let seed_dag = dag.clone();
        let t = Instant::now();
        let root = rec.begin("setup", 0, 0);
        let registry = Arc::new(Registry::new());
        rec.span("registry.open_durable", root.id(), || {
            registry
                .open_durable(NS, seed_dag, &dir, WalConfig::default(), None)
                .expect("open the durable namespace")
        });
        let server = rec.span("server.bind", root.id(), || bind(Arc::clone(&registry)));
        rec.end(root);
        let secs = t.elapsed().as_secs_f64();
        ready = Some((registry, server, dir));
        secs
    });
    let (registry, server, dir) = ready.expect("at least one set-up round");
    out.put("setup_s", "s", setup_s);
    let checkpoint = std::fs::metadata(dir.join("checkpoint.0")).map_or(0, |m| m.len());
    out.put("index_mb", "MiB", checkpoint as f64 / (1 << 20) as f64);
    let handle = registry.get(NS).expect("namespace registered");
    // The in-process batches go to a second dynamic namespace over the
    // same seed that takes no writes: a dynamic query's cost grows with
    // the overlay, whose size the writer leaves different in every
    // round, so batches on the served namespace measured the overlay.
    let quiet = Registry::new();
    quiet
        .insert_dynamic(NS, DynamicOracle::new(dag.clone()))
        .expect("register the write-free namespace");
    let quiet = quiet.get(NS).expect("namespace registered");

    // Rounds of [in-process batches 20% | wire 80%: one writer beside
    // one reader]; every other round traced. Each round starts after
    // `quiesce` (untimed), so batches never share the CPU with a
    // background rebuild. Writes only add edges or remove the writer's
    // own inserts, so a pair the seed reaches stays reachable: the
    // reader checks those.
    let threads = cfg.threads;
    let (pairs, truth) = streams.interleaved();
    let expected: Vec<Option<bool>> = truth.iter().map(|&b| b.then_some(true)).collect();
    let addr = server.local_addr();
    let mut readers = callers(vec![connect(addr)], pairs.len());
    let mut writer = Writer::new(addr, &dag, cfg.seed);
    let (mut rates, mut reads) = (BatchRates::default(), Reads::default());
    let (mut frames, mut read_failed) = (0, 0);
    for round in 0..rounds(cfg.seconds) {
        handle.quiesce(NS);
        batch_slice(
            &streams,
            ROUND.mul_f64(0.2),
            BATCH_PAIRS,
            &mut rates,
            &mut out,
            &mut rec,
            |p| quiet.reach_batch(p, threads).expect("in-process batch"),
        );
        let traced = cfg.trace && round % 2 == 1;
        let slice = ROUND.mul_f64(0.8);
        let run = std::thread::scope(|s| {
            let w = s.spawn(|| writer.run_for(slice, tracer, traced));
            let run = closed_loop_reads(
                &pairs,
                &expected,
                &mut readers,
                slice,
                tracer,
                traced,
                &mut out,
                wire_read,
            );
            w.join().expect("writer thread panicked");
            run
        });
        frames += run.done;
        read_failed += run.failed;
        reads.add(run, traced);
    }
    drop(readers);
    handle.quiesce(NS);
    let Writer {
        client,
        stream,
        run,
        acked,
        rejected,
        wrong,
    } = writer;
    drop(client);
    for w in wrong {
        out.check(false, || w);
    }
    out.ops(run.done, run.failed);
    reconcile(
        &server,
        frames + run.done,
        read_failed + rejected + run.failed,
        &mut out,
    );
    rates.put(&mut out);
    reads.put(&mut out);
    out.put("write_ops_s", "1/s", run.qps());
    out.put("write_p50_us", "us", run.p50_us());
    out.put("write_p99_us", "us", run.p99_us());
    out.put("writes_acked", "count", acked as f64);
    out.put("writes_cycle_rejected", "count", rejected as f64);
    out.put("wire.rebuilds", "count", handle.rebuilds_completed() as f64);
    let m = server.metrics(NS);
    if let Some(h) = m.histogram(&format!("ns_rebuild_duration_ns{{ns={NS:?}}}")) {
        out.put(
            "wire.rebuild_s",
            "s",
            h.sum as f64 / h.count.max(1) as f64 / 1e9,
        );
    }

    // Served answers over the acknowledged edge set must match BFS.
    let edges = stream.edges;
    let n = dag.num_vertices();
    bfs_sample(
        n,
        &edges,
        BFS_SAMPLE,
        cfg.seed ^ 1,
        "after quiesce",
        &mut out,
        |u, v| handle.reach(u, v).map_err(|e| e.to_string()),
    );

    if cfg.trace {
        put_client_spans(tracer, &mut out);
        scrape_server(&server, &mut out);
        registry_reach_ns(&handle, &pairs, &mut out);
    }
    drop(rec);
    server.shutdown();
    drop(handle);
    drop(registry);

    // Every acknowledged edge, and nothing else, is in the WAL dir.
    let recovered = WalDir::open(&dir)
        .and_then(|w| w.recover())
        .expect("recover the WAL dir")
        .expect("the WAL dir holds a checkpoint");
    let mut durable: BTreeSet<(u32, u32)> = recovered.base.graph().edges().collect();
    for op in &recovered.ops {
        match *op {
            EdgeOp::Insert(u, v) => durable.insert((u, v)),
            EdgeOp::Remove(u, v) => durable.remove(&(u, v)),
        };
    }
    let lost = edges.difference(&durable).count();
    let extra = durable.difference(&edges).count();
    out.check(lost == 0 && extra == 0, || {
        format!("recovered edge set: {lost} acknowledged edges lost, {extra} never acknowledged")
    });
    let reopened = Registry::new();
    reopened
        .open_durable(NS, dag.clone(), &dir, WalConfig::default(), None)
        .expect("reopen the WAL dir");
    let handle = reopened.get(NS).expect("namespace registered");
    bfs_sample(
        n,
        &edges,
        BFS_SAMPLE,
        cfg.seed ^ 2,
        "after reopen",
        &mut out,
        |u, v| handle.reach(u, v).map_err(|e| e.to_string()),
    );
    drop(handle);
    drop(reopened);

    if cfg.trace {
        let oracle = layers::build_probe(&dag, cfg, tracer, &mut out);
        layers::kernel(&oracle, &streams, threads, &mut out);
        layers::protocol(&pairs, &mut out);
        layers::write_replay(&dag, cfg, &mut out);
    }
    out
}
