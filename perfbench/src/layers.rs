//! Layer probes of the traced run. Each times the public calls of one
//! layer on the workload's own graph and pairs. The workloads take
//! the layers on their own request path from their spans; these
//! probes cover the rest, so every traced run reports every per-layer
//! metric.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hoplite_core::{Oracle, WalConfig};
use hoplite_graph::gen::Rng;
use hoplite_graph::Dag;
use hoplite_server::{Registry, Request, Response, ServeError};

use crate::common::{build_save_open, put_setup_layers, Streams, WriterStream};
use crate::stats::{median, Latencies};
use crate::trace::Tracer;
use crate::wire::{self, NS};
use crate::{Cfg, Outcome};

/// Repeats `pass` until `min` has passed (at least 3 passes) and
/// returns the median time per pass in nanoseconds.
fn median_pass_ns(min: Duration, mut pass: impl FnMut()) -> f64 {
    let mut per = Vec::new();
    let started = Instant::now();
    while started.elapsed() < min || per.len() < 3 {
        let t = Instant::now();
        pass();
        per.push(t.elapsed().as_nanos() as f64);
    }
    median(&mut per)
}

/// Build and persist layers for a workload whose set-up does not build
/// a frozen oracle itself; returns the oracle for the kernel probe.
pub fn build_probe(dag: &Dag, cfg: &Cfg, tracer: &Tracer, out: &mut Outcome) -> Oracle {
    let mut rec = tracer.recorder();
    let (oracle, label_entries, bytes) =
        build_save_open(dag, &cfg.tmp.join("probe.hopl"), &mut rec, 0);
    rec.flush();
    put_setup_layers(tracer, label_entries, bytes, out);
    oracle
}

/// Filter, label and parallel layers: where queries die
/// ([`hoplite_core::QueryTally`]), the cost of one filter check and of
/// one unfiltered label query, and the batch speed-up at `threads`.
pub fn kernel(oracle: &Oracle, streams: &Streams, threads: usize, out: &mut Outcome) {
    for (name, w) in streams.named() {
        let (answers, tally) = oracle.reaches_batch_tallied(&w.pairs, threads);
        out.ops(w.len() as u64, 0);
        out.check(answers == w.expected, || {
            format!("tallied {name} batch differs from BFS")
        });
        let total = tally.total().max(1) as f64;
        let decided = tally.filter_decided as f64 / total;
        let merged = tally.merged as f64 / total;
        let (d, m) = match name {
            "random" => ("filter.decided_ratio.random", "label.merge_ratio.random"),
            _ => ("filter.decided_ratio.equal", "label.merge_ratio.equal"),
        };
        out.put(d, "ratio", decided);
        out.put(m, "ratio", merged);
    }
    let (pairs, _) = streams.interleaved();
    let n = pairs.len() as f64;
    let filters = oracle.filters();
    let check = median_pass_ns(Duration::from_millis(200), || {
        for &(u, v) in &pairs {
            std::hint::black_box(filters.check(u, v));
        }
    });
    out.put("filter.check_ns", "ns", check / n);
    let unfiltered = median_pass_ns(Duration::from_millis(300), || {
        std::hint::black_box(oracle.reaches_batch_unfiltered(&pairs, 1));
    });
    out.put("label.unfiltered_ns", "ns", unfiltered / n);
    // Interleave the two widths so drift on a shared host hits both.
    let (mut one, mut many) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while started.elapsed() < Duration::from_millis(600) || one.len() < 3 {
        let t = Instant::now();
        std::hint::black_box(oracle.reaches_batch(&pairs, 1));
        one.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        std::hint::black_box(oracle.reaches_batch(&pairs, threads));
        many.push(t.elapsed().as_secs_f64());
    }
    out.put(
        "parallel.speedup",
        "ratio",
        median(&mut one) / median(&mut many),
    );
}

/// Protocol layer: encode and decode of the workload's `REACH` frames
/// and their `BOOL` replies, per request/reply pair.
pub fn protocol(pairs: &[(u32, u32)], out: &mut Outcome) {
    let requests: Vec<Request> = pairs
        .iter()
        .take(20_000)
        .map(|&(u, v)| Request::Reach {
            ns: NS.to_owned(),
            u,
            v,
        })
        .collect();
    let replies: Vec<Response> = (0..requests.len())
        .map(|i| Response::Bool(i % 3 == 0))
        .collect();
    let n = requests.len() as f64;
    let encode = median_pass_ns(Duration::from_millis(200), || {
        for (q, r) in requests.iter().zip(&replies) {
            std::hint::black_box(q.encode().expect("encode request"));
            std::hint::black_box(r.encode().expect("encode reply"));
        }
    });
    let req_bytes: Vec<Vec<u8>> = requests
        .iter()
        .map(|q| q.encode().expect("encode"))
        .collect();
    let rep_bytes: Vec<Vec<u8>> = replies
        .iter()
        .map(|r| r.encode().expect("encode"))
        .collect();
    let decode = median_pass_ns(Duration::from_millis(200), || {
        for (q, r) in req_bytes.iter().zip(&rep_bytes) {
            std::hint::black_box(Request::decode(q).expect("decode request"));
            std::hint::black_box(Response::decode(r).expect("decode reply"));
        }
    });
    let roundtrip_ok = req_bytes
        .iter()
        .zip(&requests)
        .all(|(b, q)| Request::decode(b).ok().as_ref() == Some(q));
    out.check(roundtrip_ok, || {
        "REACH frames do not decode to what was encoded".into()
    });
    out.put("protocol.encode_ns", "ns", encode / n);
    out.put("protocol.decode_ns", "ns", decode / n);
}

/// Client, server and registry layers for a workload with no socket
/// of its own: one blocking client sends traced `REACH`es for the
/// workload's pairs to a server holding the workload's oracle.
pub fn wire_probe(
    oracle: &Arc<Oracle>,
    pairs: &[(u32, u32)],
    truth: &[bool],
    tracer: &Tracer,
    out: &mut Outcome,
) {
    let registry = Arc::new(Registry::new());
    registry
        .insert_frozen(NS, Arc::clone(oracle))
        .expect("register the probe namespace");
    let server = wire::bind(Arc::clone(&registry));
    {
        let mut client = hoplite_server::Client::connect(server.local_addr())
            .expect("connect to the probe server");
        let mut rec = tracer.recorder();
        let count = pairs.len().min(5_000);
        let mut failed = 0;
        for i in 0..count {
            let (u, v) = pairs[i];
            match wire::wire_read(&mut client, &mut rec, u, v) {
                Ok(b) => out.check(b == truth[i], || format!("probe read of {:?}", pairs[i])),
                Err(_) => failed += 1,
            }
        }
        out.ops(count as u64, failed);
    }
    wire::put_client_spans(tracer, out);
    wire::scrape_server(&server, out);
    let handle = registry.get(NS).expect("namespace registered");
    wire::registry_reach_ns(&handle, pairs, out);
    server.shutdown();
}

/// Registry, WAL and rebuild layers: an in-process replay of the
/// writer stream on a durable namespace of its own (default WAL
/// config and rebuild threshold) over the workload's graph, with one
/// in-process reader beside it.
pub fn write_replay(dag: &Dag, cfg: &Cfg, out: &mut Outcome) {
    const BUDGET: Duration = Duration::from_secs(2);
    const MAX_OPS: u64 = 4_000;
    let dir = cfg.tmp.join("replay-wal");
    let registry = Arc::new(Registry::new());
    registry
        .open_durable("replay", dag.clone(), &dir, WalConfig::default(), None)
        .expect("open the replay namespace");
    // The server is only there to read the registry's rebuild metrics.
    let server = wire::bind(Arc::clone(&registry));
    let handle = registry.get("replay").expect("namespace registered");
    let n = dag.num_vertices();
    let stop = std::sync::atomic::AtomicBool::new(false);
    let (mut add, mut reads, acked, rejected, bytes_per_op) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut lat = Latencies::default();
            let mut rng = Rng::new(cfg.seed ^ 0x0EAD);
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let (u, v) = (rng.gen_index(n) as u32, rng.gen_index(n) as u32);
                let t = Instant::now();
                std::hint::black_box(handle.reach(u, v).expect("in-process read"));
                lat.record(t.elapsed().as_nanos() as u64);
            }
            lat
        });
        let mut stream = WriterStream::new(dag, cfg.seed ^ 0x4E91);
        let mut add = Latencies::default();
        let (mut acked, mut rejected, mut ops) = (0u64, 0u64, 0u64);
        let mut bytes_per_op = f64::NAN;
        let started = Instant::now();
        while started.elapsed() < BUDGET && ops < MAX_OPS {
            let op = stream.next_op();
            let t = Instant::now();
            let result = match op {
                hoplite_core::wal::EdgeOp::Insert(u, v) => handle.add_edge("replay", u, v),
                hoplite_core::wal::EdgeOp::Remove(u, v) => {
                    handle.remove_edge("replay", u, v).map(|_| ())
                }
            };
            add.record(t.elapsed().as_nanos() as u64);
            ops += 1;
            match result {
                Ok(()) => {
                    acked += 1;
                    stream.acked(op);
                }
                Err(ServeError::Graph(_)) => {
                    rejected += 1;
                    stream.refused(op);
                }
                Err(e) => panic!("replay {op:?} failed: {e}"),
            }
            if acked == 32 && bytes_per_op.is_nan() {
                // Before the first rebuild can rotate the log.
                let st = handle.stats();
                bytes_per_op = st.wal_bytes as f64 / st.wal_records.max(1) as f64;
            }
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let reads = reader.join().expect("replay reader panicked");
        (add, reads, acked, rejected, bytes_per_op)
    });
    handle.quiesce("replay");
    out.ops(acked + rejected, 0);
    out.put("registry.add_edge_us.p50", "us", add.quantile_us(0.50));
    out.put("registry.add_edge_us.p99", "us", add.quantile_us(0.99));
    out.put("wal.bytes_per_op", "bytes", bytes_per_op);
    out.put(
        "dynamic.reject_ratio",
        "ratio",
        rejected as f64 / (acked + rejected).max(1) as f64,
    );
    out.put(
        "registry.reach_under_writes_us.p99",
        "us",
        reads.quantile_us(0.99),
    );
    let m = server.metrics("replay");
    out.put(
        "dynamic.rebuilds",
        "count",
        handle.rebuilds_completed() as f64,
    );
    if let Some(h) = m.histogram("ns_rebuild_duration_ns{ns=\"replay\"}") {
        if h.count > 0 {
            out.put(
                "dynamic.rebuild_s",
                "s",
                h.sum as f64 / h.count as f64 / 1e9,
            );
        }
    }
    drop(handle);
    server.shutdown();
}
