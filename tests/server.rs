//! Integration suite for the `hoplite-server` serving tier: concurrent
//! clients over a real loopback socket cross-checked against BFS
//! ground truth, dynamic edge-mutation visibility, and a fuzz-style
//! pass feeding truncated / corrupt / oversized frames (the wire-level
//! sibling of `tests/persist_fuzz.rs`).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use hoplite::core::DynamicOracle;
use hoplite::graph::gen::Rng;
use hoplite::graph::traversal;
use hoplite::server::{
    Client, ClientError, ErrorCode, NamespaceKind, Registry, Request, Response, ServeMode, Server,
    ServerConfig, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use hoplite::{Dag, DiGraph, Oracle, VertexId};

fn random_cyclic_digraph(n: usize, m: usize, seed: u64) -> DiGraph {
    let mut rng = Rng::new(seed);
    let edges: Vec<(VertexId, VertexId)> = (0..m)
        .filter_map(|_| {
            let u = rng.gen_index(n) as VertexId;
            let v = rng.gen_index(n) as VertexId;
            (u != v).then_some((u, v))
        })
        .collect();
    DiGraph::from_edges(n, &edges).expect("edges are in range")
}

fn serve(registry: Registry) -> hoplite::server::ServerHandle {
    // Each live connection pins a worker; give the suites generous
    // headroom over their client counts regardless of host core count.
    let config = ServerConfig {
        workers: 16,
        ..ServerConfig::default()
    };
    Server::bind("127.0.0.1:0", Arc::new(registry), config).expect("bind ephemeral loopback port")
}

#[test]
fn concurrent_clients_agree_with_bfs_ground_truth() {
    let n = 60;
    let g = random_cyclic_digraph(n, 200, 0xFEED);
    let registry = Registry::new();
    registry.insert_frozen("web", Oracle::new(&g)).unwrap();
    let handle = serve(registry);
    let addr = handle.local_addr();

    // 6 concurrent clients; each takes a slice of the full n×n query
    // matrix, alternating single REACH and BATCH frames.
    let clients = 6u32;
    std::thread::scope(|scope| {
        for c in 0..clients {
            let g = &g;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mine: Vec<(u32, u32)> = (0..n as u32)
                    .flat_map(|u| (0..n as u32).map(move |v| (u, v)))
                    .filter(|&(u, v)| (u * n as u32 + v) % clients == c)
                    .collect();
                for chunk in mine.chunks(64) {
                    if chunk.len() % 2 == 1 {
                        // Odd chunks go one by one.
                        for &(u, v) in chunk {
                            assert_eq!(
                                client.reach("web", u, v).expect("REACH"),
                                traversal::reaches(g, u, v),
                                "client {c}: ({u},{v})"
                            );
                        }
                    } else {
                        let answers = client.reach_batch("web", chunk).expect("BATCH");
                        for (&(u, v), &got) in chunk.iter().zip(&answers) {
                            assert_eq!(got, traversal::reaches(g, u, v), "client {c}: ({u},{v})");
                        }
                    }
                }
            });
        }
    });

    let mut probe = Client::connect(addr).unwrap();
    let stats = probe.stats("web").unwrap();
    assert_eq!(stats.kind, NamespaceKind::Frozen);
    assert_eq!(stats.vertices, n as u64);
    assert_eq!(stats.queries, (n * n) as u64, "every pair queried once");
    assert!(handle.connections_accepted() >= clients as u64);
    handle.shutdown();
}

#[test]
fn dynamic_mutations_become_visible_to_subsequent_queries() {
    let dag = Dag::from_edges(8, &[(0, 1), (1, 2), (3, 4), (4, 5), (6, 7)]).unwrap();
    let registry = Registry::new();
    registry
        .insert_dynamic("live", DynamicOracle::new(dag))
        .unwrap();
    let handle = serve(registry);
    let addr = handle.local_addr();

    let mut writer = Client::connect(addr).unwrap();
    let mut reader = Client::connect(addr).unwrap();

    assert!(!reader.reach("live", 0, 5).unwrap());
    writer.add_edge("live", 2, 3).unwrap();
    assert!(
        reader.reach("live", 0, 5).unwrap(),
        "insert visible across connections"
    );

    writer.add_edge("live", 5, 6).unwrap();
    assert!(reader.reach("live", 0, 7).unwrap(), "chained delta edges");

    // Cycle-closing inserts are rejected with an error reply, and the
    // graph is unchanged.
    match writer.add_edge("live", 5, 0) {
        Err(ClientError::Server(message)) => {
            assert!(message.contains("cycle"), "got: {message}")
        }
        other => panic!("cycle insert returned {other:?}"),
    }
    assert!(reader.reach("live", 0, 5).unwrap());

    assert!(writer.remove_edge("live", 2, 3).unwrap());
    assert!(
        !reader.reach("live", 0, 5).unwrap(),
        "removal visible across connections"
    );
    assert!(!writer.remove_edge("live", 2, 3).unwrap(), "already gone");

    let stats = reader.stats("live").unwrap();
    assert_eq!(stats.kind, NamespaceKind::Dynamic);
    assert_eq!(stats.vertices, 8);
    handle.shutdown();
}

#[test]
fn batch_and_single_queries_agree_through_the_wire() {
    let g = random_cyclic_digraph(40, 130, 7);
    let registry = Registry::new();
    registry.insert_frozen("g", Oracle::new(&g)).unwrap();
    let handle = serve(registry);

    let mut client = Client::connect(handle.local_addr()).unwrap();
    let mut rng = Rng::new(99);
    let pairs: Vec<(u32, u32)> = (0..500)
        .map(|_| (rng.gen_index(40) as u32, rng.gen_index(40) as u32))
        .collect();
    let batch = client.reach_batch("g", &pairs).unwrap();
    for (&(u, v), &got) in pairs.iter().zip(&batch) {
        assert_eq!(got, client.reach("g", u, v).unwrap(), "({u},{v})");
    }
    assert!(client.reach_batch("g", &[]).unwrap().is_empty());
    handle.shutdown();
}

#[test]
fn semantic_errors_are_replies_not_disconnects() {
    let g = DiGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
    let registry = Registry::new();
    registry.insert_frozen("g", Oracle::new(&g)).unwrap();
    let handle = serve(registry);
    let mut client = Client::connect(handle.local_addr()).unwrap();

    for (err, needle) in [
        (
            client.reach("absent", 0, 1).unwrap_err(),
            "unknown namespace",
        ),
        (client.reach("g", 0, 99).unwrap_err(), "out of range"),
        (client.add_edge("g", 0, 2).unwrap_err(), "frozen"),
        (client.stats("absent").unwrap_err(), "unknown namespace"),
    ] {
        match err {
            ClientError::Server(message) => {
                assert!(message.contains(needle), "{message:?} lacks {needle:?}")
            }
            other => panic!("expected a server error reply, got {other:?}"),
        }
        // The connection survives every semantic error.
        client.ping().expect("connection still serviceable");
    }
    handle.shutdown();
}

/// Sends raw bytes as one frame on `stream` and returns the decoded
/// reply (if the server replied at all before closing).
fn send_raw_on(stream: &mut TcpStream, payload: &[u8]) -> Option<Response> {
    stream
        .write_all(&(payload.len() as u32).to_le_bytes())
        .ok()?;
    stream.write_all(payload).ok()?;
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).ok()?;
    let mut reply = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut reply).ok()?;
    Some(Response::decode(&reply).expect("server replies are well-formed"))
}

/// [`send_raw_on`] over a fresh connection.
fn send_raw(addr: std::net::SocketAddr, payload: &[u8]) -> Option<Response> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    send_raw_on(&mut stream, payload)
}

#[test]
fn malformed_frames_get_clean_error_replies_never_panics_or_wrong_answers() {
    let g = random_cyclic_digraph(20, 60, 3);
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("empty payload", vec![]),
        ("version only", vec![PROTOCOL_VERSION]),
        ("version 3", vec![3, 0x01]),
        ("version 5", vec![5, 0x01]),
        ("version 7", vec![7, 0x01]),
        ("version 99", vec![99, 0x01]),
        ("unknown opcode", vec![PROTOCOL_VERSION, 0x42]),
        ("reach with no body", vec![PROTOCOL_VERSION, 0x02]),
        (
            "reach with truncated vertex",
            vec![PROTOCOL_VERSION, 0x02, 1, b'g', 1, 0, 0],
        ),
        (
            "name length past end",
            vec![PROTOCOL_VERSION, 0x06, 200, b'g'],
        ),
        ("non-utf8 name", vec![PROTOCOL_VERSION, 0x06, 2, 0xFF, 0xFE]),
        ("trailing bytes", {
            let mut b = vec![PROTOCOL_VERSION, 0x01];
            b.push(0);
            b
        }),
        ("batch count mismatch", {
            let mut b = vec![PROTOCOL_VERSION, 0x03, 1, b'g'];
            b.extend_from_slice(&1000u32.to_le_bytes());
            b.extend_from_slice(&[1, 2, 3]);
            b
        }),
        ("batch count over limit", {
            let mut b = vec![PROTOCOL_VERSION, 0x03, 1, b'g'];
            b.extend_from_slice(&u32::MAX.to_le_bytes());
            b
        }),
    ];
    let ping = Request::Ping.encode().unwrap();
    let mut modes = vec![ServeMode::ThreadPool];
    if cfg!(unix) {
        modes.push(ServeMode::Reactor);
    }
    for mode in modes {
        let registry = Registry::new();
        registry.insert_frozen("g", Oracle::new(&g)).unwrap();
        let config = ServerConfig {
            mode,
            workers: 16,
            ..ServerConfig::default()
        };
        let handle = Server::bind("127.0.0.1:0", Arc::new(registry), config).unwrap();
        let addr = handle.local_addr();

        // Every malformed frame gets one `bad request` error reply, and
        // the connection keeps serving: a PING right after it on the
        // same socket gets its PONG.
        for (what, payload) in &cases {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(std::time::Duration::from_secs(5)))
                .unwrap();
            match send_raw_on(&mut stream, payload) {
                Some(Response::Error(message)) => {
                    assert!(
                        message.starts_with("bad request:"),
                        "{mode:?} {what}: unexpected message {message:?}"
                    );
                    if let Some(&version) = payload.first().filter(|&&v| v != PROTOCOL_VERSION) {
                        let expected =
                            format!("bad request: unsupported protocol version {version} ");
                        assert!(
                            message.starts_with(&expected),
                            "{mode:?} {what}: unexpected message {message:?}"
                        );
                    }
                }
                Some(other) => panic!("{mode:?} {what}: got non-error reply {other:?}"),
                None => panic!("{mode:?} {what}: connection closed without a reply"),
            }
            assert_eq!(
                send_raw_on(&mut stream, &ping),
                Some(Response::Pong),
                "{mode:?} {what}: connection must keep serving"
            );
        }

        // Oversized length prefix: error reply, then the connection
        // closes (framing can no longer be trusted).
        {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(std::time::Duration::from_secs(5)))
                .unwrap();
            stream
                .write_all(&(MAX_FRAME_LEN + 1).to_le_bytes())
                .unwrap();
            let mut len = [0u8; 4];
            stream.read_exact(&mut len).unwrap();
            let mut reply = vec![0u8; u32::from_le_bytes(len) as usize];
            stream.read_exact(&mut reply).unwrap();
            match Response::decode(&reply).unwrap() {
                Response::Error(message) => assert!(message.contains("exceeds"), "{message}"),
                other => panic!("{mode:?}: oversized frame got {other:?}"),
            }
            let mut probe = [0u8; 1];
            assert_eq!(stream.read(&mut probe).unwrap(), 0, "connection closed");
        }

        // Seeded garbage fuzz: random payloads must produce error
        // replies (or at worst a clean close), and the server must keep
        // serving correct answers afterwards.
        let mut rng = Rng::new(0xBAD5EED);
        for round in 0..64 {
            let len = rng.gen_index(48);
            let payload: Vec<u8> = (0..len).map(|_| rng.gen_range(256) as u8).collect();
            // Skip the rare case where garbage forms a valid request;
            // any reply (or clean close) is acceptable then.
            if let Some(Response::Error(message)) = send_raw(addr, &payload) {
                assert!(!message.is_empty(), "{mode:?} round {round}");
            }
        }

        let mut client = Client::connect(addr).unwrap();
        client.ping().expect("server alive after the fuzz barrage");
        for (u, v) in [(0u32, 5u32), (3, 3), (7, 19)] {
            assert_eq!(
                client.reach("g", u, v).unwrap(),
                traversal::reaches(&g, u, v),
                "{mode:?}: post-fuzz answers stay correct"
            );
        }
        assert!(handle.errors_replied() >= cases.len() as u64);
        handle.shutdown();
    }
}

#[test]
fn frozen_namespace_from_saved_index_serves_identically() {
    // The "build once, ship to replicas" path: save an Oracle, open it
    // as a replica would, serve the opened copy, and cross-check.
    let g = random_cyclic_digraph(32, 100, 21);
    let original = Oracle::new(&g);
    let mut blob = Vec::new();
    original.save_arena(&mut blob).unwrap();
    let replica = Oracle::open_arena_bytes(&blob).unwrap();

    let registry = Registry::new();
    registry.insert_frozen("replica", replica).unwrap();
    let handle = serve(registry);
    let mut client = Client::connect(handle.local_addr()).unwrap();
    for u in 0..32u32 {
        for v in 0..32u32 {
            assert_eq!(
                client.reach("replica", u, v).unwrap(),
                traversal::reaches(&g, u, v),
                "({u},{v})"
            );
        }
    }
    handle.shutdown();
}

#[test]
fn mapped_arena_index_serves_and_reports_its_backend() {
    // The zero-copy replica path: save a HOPL v3 arena, open it
    // mapped, register ONE Arc'd snapshot under several namespaces
    // (replica fan-out without cloning the index), serve over the
    // wire, and cross-check against BFS ground truth. STATS must
    // report the mapped backend and a mapped-byte footprint.
    let g = random_cyclic_digraph(40, 130, 23);
    let original = Oracle::new(&g);
    let path =
        std::env::temp_dir().join(format!("hoplite-server-arena-{}.hopl3", std::process::id()));
    let mut blob = Vec::new();
    original.save_arena(&mut blob).unwrap();
    std::fs::write(&path, &blob).unwrap();
    let snapshot = Arc::new(Oracle::open(&path).expect("mapped open"));
    std::fs::remove_file(&path).ok();

    let registry = Registry::new();
    registry
        .insert_frozen("web", Arc::clone(&snapshot))
        .unwrap();
    registry.insert_frozen("web-replica", snapshot).unwrap();
    let handle = serve(registry);
    let mut client = Client::connect(handle.local_addr()).unwrap();
    for ns in ["web", "web-replica"] {
        let pairs: Vec<(u32, u32)> = (0..40u32)
            .flat_map(|u| (0..40u32).map(move |v| (u, v)))
            .collect();
        let answers = client.reach_batch(ns, &pairs).unwrap();
        for (&(u, v), &got) in pairs.iter().zip(&answers) {
            assert_eq!(got, traversal::reaches(&g, u, v), "{ns} ({u},{v})");
        }
        let stats = client.stats(ns).unwrap();
        // Only a real mmap may report "mapped" (the split is an RSS
        // report); off unix, map_file falls back to a heap read and
        // honestly reports heap.
        #[cfg(unix)]
        {
            assert_eq!(stats.backend, hoplite::server::IndexBackend::Mapped);
            assert!(stats.mapped_bytes > 0, "{stats:?}");
            assert!(
                stats.mapped_bytes > stats.heap_bytes,
                "a mapped index keeps its bulk in the arena: {stats:?}"
            );
        }
        assert_eq!(
            stats.filter_hits + stats.signature_hits + stats.merge_runs,
            pairs.len() as u64,
            "every query dies in exactly one stage: {stats:?}"
        );
    }
    // A built-in-process namespace reports heap, for contrast.
    let registry = Registry::new();
    registry.insert_frozen("heap", Oracle::new(&g)).unwrap();
    let handle2 = serve(registry);
    let mut client2 = Client::connect(handle2.local_addr()).unwrap();
    let stats = client2.stats("heap").unwrap();
    assert_eq!(stats.backend, hoplite::server::IndexBackend::Heap);
    assert_eq!(stats.mapped_bytes, 0, "{stats:?}");
    assert!(stats.heap_bytes > 0, "{stats:?}");
    handle.shutdown();
    handle2.shutdown();
}

#[test]
fn over_capacity_connections_get_an_explicit_refusal_not_a_hang() {
    let g = DiGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
    let registry = Registry::new();
    registry.insert_frozen("g", Oracle::new(&g)).unwrap();
    let config = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", Arc::new(registry), config).unwrap();
    let addr = handle.local_addr();

    // Two persistent clients occupy both workers…
    let mut c1 = Client::connect(addr).unwrap();
    let mut c2 = Client::connect(addr).unwrap();
    c1.ping().unwrap();
    c2.ping().unwrap();

    // …so a third gets an immediate, *typed* refusal — OVERLOADED with
    // a retry-after hint — instead of hanging behind them.
    let mut c3 = Client::connect(addr).unwrap();
    match c3.ping() {
        Err(
            refusal @ ClientError::Refused {
                code: ErrorCode::Overloaded,
                ..
            },
        ) => {
            assert!(format!("{refusal}").contains("capacity"), "{refusal}");
            assert!(refusal.is_retryable());
            assert!(
                refusal.retry_after().unwrap() > std::time::Duration::ZERO,
                "refusal must carry a retry-after hint"
            );
        }
        other => panic!("over-capacity connection got {other:?}"),
    }
    assert_eq!(handle.connections_rejected(), 1);

    // Freeing a slot lets new connections in again (the worker notices
    // the disconnect within its poll interval).
    drop(c1);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let mut c4 = Client::connect(addr).unwrap();
        match c4.reach("g", 0, 2) {
            Ok(answer) => {
                assert!(answer);
                break;
            }
            Err(ClientError::Refused {
                code: ErrorCode::Overloaded,
                ..
            }) => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "slot never freed after client disconnect"
                );
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
    handle.shutdown();
}

/// Edge cases specific to the epoll/kqueue reactor serving mode:
/// partial frames, idle sockets, write backpressure, a 1k-connection
/// sweep against ground truth, and shutdown with a frame in flight.
#[cfg(unix)]
mod reactor {
    use super::*;
    use hoplite::server::{FrameAccumulator, Request, ServeMode, ServerHandle};
    use std::time::{Duration, Instant};

    fn serve_reactor(registry: Registry, config: ServerConfig) -> ServerHandle {
        let config = ServerConfig {
            mode: ServeMode::Reactor,
            ..config
        };
        Server::bind("127.0.0.1:0", Arc::new(registry), config).expect("bind reactor server")
    }

    /// One length-prefixed wire frame for `req`.
    fn frame(req: &Request) -> Vec<u8> {
        let payload = req.encode().expect("encode request");
        let mut bytes = (payload.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&payload);
        bytes
    }

    fn reach(u: u32, v: u32) -> Request {
        Request::Reach {
            ns: "g".into(),
            u,
            v,
        }
    }

    /// A single-fd raw connection (no `try_clone`, so a thousand of
    /// these cost a thousand fds, not two thousand).
    struct RawConn {
        stream: TcpStream,
        acc: FrameAccumulator,
    }

    impl RawConn {
        fn connect(addr: std::net::SocketAddr) -> RawConn {
            let stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            stream.set_nodelay(true).unwrap();
            RawConn {
                stream,
                acc: FrameAccumulator::new(MAX_FRAME_LEN),
            }
        }

        fn recv(&mut self) -> Response {
            let mut buf = [0u8; 4096];
            loop {
                if let Some(frame) = self.acc.next_frame().expect("well-formed reply") {
                    return Response::decode(&frame).expect("decodable reply");
                }
                let k = self.stream.read(&mut buf).expect("reply bytes");
                assert!(k > 0, "connection closed while a reply was pending");
                self.acc.extend(&buf[..k]);
            }
        }
    }

    #[test]
    fn byte_at_a_time_half_frames_are_reassembled() {
        let g = random_cyclic_digraph(30, 90, 0xD1CE);
        let registry = Registry::new();
        registry.insert_frozen("g", Oracle::new(&g)).unwrap();
        let handle = serve_reactor(registry, ServerConfig::default());

        let mut conn = RawConn::connect(handle.local_addr());
        for &(u, v) in &[(0u32, 17u32), (5, 5), (29, 3), (12, 28)] {
            // Dribble the frame one byte per write; the reactor must
            // accumulate across however many readiness events that
            // takes and answer exactly once.
            for &byte in &frame(&reach(u, v)) {
                conn.stream.write_all(&[byte]).unwrap();
            }
            match conn.recv() {
                Response::Bool(got) => {
                    assert_eq!(got, traversal::reaches(&g, u, v), "({u},{v})")
                }
                other => panic!("({u},{v}) got {other:?}"),
            }
        }
        handle.shutdown();
    }

    #[test]
    fn slow_loris_idle_sockets_do_not_starve_active_clients() {
        let g = random_cyclic_digraph(30, 90, 0x510);
        let registry = Registry::new();
        registry.insert_frozen("g", Oracle::new(&g)).unwrap();
        let handle = serve_reactor(registry, ServerConfig::default());
        let addr = handle.local_addr();

        // 64 connections that never complete a request: half send
        // nothing at all, half park a half-written frame and stall.
        let mut idle = Vec::new();
        for i in 0..64 {
            let mut conn = RawConn::connect(addr);
            if i % 2 == 1 {
                let bytes = frame(&reach(1, 2));
                conn.stream.write_all(&bytes[..bytes.len() / 2]).unwrap();
            }
            idle.push(conn);
        }

        // An active client arriving *after* the loris flood must still
        // get every answer — idle sockets cost the reactor nothing but
        // their fds.
        let mut client = Client::connect(addr).unwrap();
        for u in 0..30u32 {
            for v in 0..30u32 {
                assert_eq!(
                    client.reach("g", u, v).unwrap(),
                    traversal::reaches(&g, u, v),
                    "({u},{v})"
                );
            }
        }

        // The parked half-frames are still half a frame, not garbage:
        // completing one now gets its answer.
        let loris = &mut idle[1];
        let bytes = frame(&reach(1, 2));
        loris.stream.write_all(&bytes[bytes.len() / 2..]).unwrap();
        match loris.recv() {
            Response::Bool(got) => assert_eq!(got, traversal::reaches(&g, 1, 2)),
            other => panic!("completed loris frame got {other:?}"),
        }

        assert!(
            handle.connections_active() >= 65,
            "held {} active connections, expected the loris flood + client",
            handle.connections_active()
        );
        handle.shutdown();
    }

    #[test]
    fn write_backpressure_on_oversized_batch_replies_stalls_and_recovers() {
        let n = 50u32;
        let g = random_cyclic_digraph(n as usize, 170, 0xBACC);
        let registry = Registry::new();
        registry.insert_frozen("g", Oracle::new(&g)).unwrap();
        // A deliberately tiny write budget: a couple of BATCH replies
        // overflow it, so the reactor must stop reading this
        // connection mid-pipeline and resume once the client drains.
        let handle = serve_reactor(
            registry,
            ServerConfig {
                write_backpressure: 2 * 1024,
                ..ServerConfig::default()
            },
        );

        let frames = 32usize;
        let per_batch = 4096usize;
        let mut rng = Rng::new(0x5EED);
        let batches: Vec<Vec<(u32, u32)>> = (0..frames)
            .map(|_| {
                (0..per_batch)
                    .map(|_| {
                        (
                            rng.gen_index(n as usize) as u32,
                            rng.gen_index(n as usize) as u32,
                        )
                    })
                    .collect()
            })
            .collect();

        let mut writer = TcpStream::connect(handle.local_addr()).unwrap();
        writer.set_nodelay(true).unwrap();
        let reader_stream = writer.try_clone().unwrap();
        reader_stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let replies: Vec<Vec<bool>> = std::thread::scope(|scope| {
            // Reader on its own thread: with the server stalled on
            // backpressure, writer and reader must overlap or the test
            // itself would deadlock against the kernel buffers.
            let reader = scope.spawn(move || {
                let mut conn = RawConn {
                    stream: reader_stream,
                    acc: FrameAccumulator::new(MAX_FRAME_LEN),
                };
                (0..frames)
                    .map(|i| match conn.recv() {
                        Response::Bools(bs) => bs,
                        other => panic!("batch {i} got {other:?}"),
                    })
                    .collect::<Vec<_>>()
            });
            for pairs in &batches {
                writer
                    .write_all(&frame(&Request::Batch {
                        ns: "g".into(),
                        pairs: pairs.clone(),
                    }))
                    .unwrap();
            }
            reader.join().expect("reader thread")
        });

        for (i, (pairs, bools)) in batches.iter().zip(&replies).enumerate() {
            assert_eq!(bools.len(), pairs.len(), "batch {i}");
            for (&(u, v), &got) in pairs.iter().zip(bools) {
                assert_eq!(got, traversal::reaches(&g, u, v), "batch {i}: ({u},{v})");
            }
        }
        handle.shutdown();
    }

    #[test]
    fn a_thousand_concurrent_connections_agree_with_bfs_ground_truth() {
        let n = 40u32;
        let g = random_cyclic_digraph(n as usize, 130, 0x1000);
        let registry = Registry::new();
        registry.insert_frozen("g", Oracle::new(&g)).unwrap();
        let handle = serve_reactor(registry, ServerConfig::default());
        let addr = handle.local_addr();

        // 1000 single-fd connections, all open at once (2000 fds with
        // the server's ends — CI raises `ulimit -n` for this). Each
        // pipelines 2 REACH frames from a disjoint slice of the n×n
        // matrix before anything is read back, so the reactor sees
        // cross-connection bursts it can coalesce.
        let conns_total = 1000usize;
        let per_conn = 2usize;
        let pairs: Vec<(u32, u32)> = (0..conns_total * per_conn)
            .map(|i| {
                let i = i as u32;
                (i / per_conn as u32 % n, i % n)
            })
            .collect();
        let mut conns: Vec<RawConn> = (0..conns_total).map(|_| RawConn::connect(addr)).collect();
        for (c, conn) in conns.iter_mut().enumerate() {
            let mut burst = Vec::new();
            for k in 0..per_conn {
                let (u, v) = pairs[c * per_conn + k];
                burst.extend_from_slice(&frame(&reach(u, v)));
            }
            conn.stream.write_all(&burst).unwrap();
        }
        for (c, conn) in conns.iter_mut().enumerate() {
            for k in 0..per_conn {
                let (u, v) = pairs[c * per_conn + k];
                match conn.recv() {
                    Response::Bool(got) => {
                        assert_eq!(got, traversal::reaches(&g, u, v), "conn {c}: ({u},{v})")
                    }
                    other => panic!("conn {c}: ({u},{v}) got {other:?}"),
                }
            }
        }

        assert_eq!(
            handle.connections_active(),
            conns_total,
            "all connections stay registered until dropped"
        );
        assert!(
            handle.connections_accepted() >= conns_total as u64,
            "accepted {}",
            handle.connections_accepted()
        );
        drop(conns);
        handle.shutdown();
    }

    #[test]
    fn shutdown_with_a_half_frame_in_flight_is_prompt_and_clean() {
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let registry = Registry::new();
        registry.insert_frozen("g", Oracle::new(&g)).unwrap();
        let handle = serve_reactor(registry, ServerConfig::default());

        // A healthy connection first, so the half-frame below is
        // parked on a connection the reactor has fully registered.
        let mut conn = RawConn::connect(handle.local_addr());
        conn.stream.write_all(&frame(&Request::Ping)).unwrap();
        assert!(matches!(conn.recv(), Response::Pong));
        let bytes = frame(&reach(0, 2));
        conn.stream.write_all(&bytes[..bytes.len() - 3]).unwrap();
        // Give the reactor a tick to pull the partial bytes in.
        std::thread::sleep(Duration::from_millis(60));

        let started = Instant::now();
        handle.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "shutdown must not wait on the unfinished frame"
        );
        // The parked connection observes the close instead of hanging.
        let mut probe = [0u8; 16];
        match conn.stream.read(&mut probe) {
            Ok(0) => {}
            Ok(k) => panic!("server invented {k} bytes of reply to half a frame"),
            Err(e) => assert!(
                matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::BrokenPipe
                ),
                "unexpected error {e:?}"
            ),
        }
    }
}

#[test]
fn metrics_op_reports_query_outcomes_and_latency_summaries() {
    let n = 30u32;
    let g = random_cyclic_digraph(n as usize, 90, 0x0B5);
    let registry = Registry::new();
    registry.insert_frozen("g", Oracle::new(&g)).unwrap();
    registry
        .insert_dynamic(
            "live",
            DynamicOracle::new(Dag::from_edges(2, &[(0, 1)]).unwrap()),
        )
        .unwrap();
    let handle = serve(registry);
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let pairs: Vec<(u32, u32)> = (0..n).flat_map(|u| (0..n).map(move |v| (u, v))).collect();
    client.reach_batch("g", &pairs).unwrap();
    for (u, v) in [(0, 1), (5, 7), (9, 9)] {
        client.reach("g", u, v).unwrap();
    }
    client.reach("live", 0, 1).unwrap();

    let report = client.metrics("").unwrap();
    let total = (pairs.len() + 3) as u64;
    assert_eq!(
        report.counter("ns_queries_total{ns=\"g\"}"),
        Some(total),
        "{report:?}"
    );
    assert_eq!(report.counter("ns_queries_total{ns=\"live\"}"), Some(1));
    // Every query dies in exactly one stage, and the outcome split
    // must account for all of them — batch and single alike.
    let outcomes: u64 = ["filter", "signature", "merge"]
        .iter()
        .map(|o| {
            report
                .counter(&format!("ns_query_outcome_total{{ns=\"g\",outcome={o:?}}}"))
                .unwrap_or(0)
        })
        .sum();
    assert_eq!(outcomes, total);
    // The three single REACHes were timed into per-outcome latency
    // histograms; the batch frame into the batch histogram.
    let timed: u64 = ["filter", "signature", "merge"]
        .iter()
        .filter_map(|o| report.histogram(&format!("ns_query_latency_ns{{ns=\"g\",outcome={o:?}}}")))
        .map(|s| s.count)
        .sum();
    assert_eq!(timed, 3);
    let batch_hist = report
        .histogram("ns_batch_latency_ns{ns=\"g\"}")
        .expect("batch latency summary present");
    assert_eq!(batch_hist.count, 1);
    assert!(batch_hist.max >= batch_hist.p50);
    // Server-wide series ride along.
    assert!(report.counter("server_frames_total").unwrap_or(0) >= total / pairs.len() as u64);
    assert!(report.histogram("server_reply_latency_ns").is_some());

    // A namespace filter restricts the per-namespace section.
    let filtered = client.metrics("live").unwrap();
    assert!(filtered.counter("ns_queries_total{ns=\"live\"}").is_some());
    assert!(filtered.counter("ns_queries_total{ns=\"g\"}").is_none());

    // An unknown namespace is a clean error reply.
    match client.metrics("absent") {
        Err(ClientError::Server(message)) => {
            assert!(message.contains("unknown namespace"), "{message}")
        }
        other => panic!("METRICS on absent namespace got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn list_reflects_registry_contents() {
    let registry = Registry::new();
    let g = DiGraph::from_edges(2, &[(0, 1)]).unwrap();
    registry.insert_frozen("beta", Oracle::new(&g)).unwrap();
    registry
        .insert_dynamic(
            "alpha",
            DynamicOracle::new(Dag::from_edges(2, &[]).unwrap()),
        )
        .unwrap();
    let handle = serve(registry);
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let infos = client.list().unwrap();
    assert_eq!(infos.len(), 2);
    assert_eq!(infos[0].name, "alpha");
    assert_eq!(infos[0].kind, NamespaceKind::Dynamic);
    assert_eq!(infos[1].name, "beta");
    assert_eq!(infos[1].kind, NamespaceKind::Frozen);
    handle.shutdown();
}
