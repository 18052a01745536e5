//! # hoplite-server
//!
//! A dependency-free (std-only: `std::net` + `std::thread`) TCP query
//! service over hoplite's reachability oracles — the serving tier the
//! paper's introduction motivates: reachability as a high-QPS
//! primitive inside social-network, ontology, and web services.
//!
//! [`hoplite_core::persist`] frames the deployment story as "build
//! once, ship the index to query-serving replicas"; this crate *is*
//! that replica. A [`Registry`] holds many named graphs at once —
//! frozen [`hoplite_core::Oracle`] snapshots (opened from HOPL v3
//! arena files or built at startup) and mutable [`hoplite_core::DynamicOracle`]
//! namespaces — and a [`Server`] (per-connection thread pool, or an
//! epoll/kqueue reactor via [`ServeMode::Reactor`] that multiplexes
//! 10k+ sockets on one thread and coalesces queries across them)
//! answers the length-prefixed binary protocol of [`protocol`]:
//! `PING`, `REACH`, `BATCH`,
//! `ADD_EDGE`, `REMOVE_EDGE`, `STATS`, `LIST`. Frozen labels are
//! immutable, so the query fast path takes no lock; `REACH` and
//! `BATCH` run the [`hoplite_core::QueryFilters`] O(1) pre-filter
//! stack before any label intersection, and `BATCH` fans out through
//! [`hoplite_core::parallel::par_query_batch_mapped`] exactly like
//! the in-process [`hoplite_core::Oracle::reaches_batch`] API.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use hoplite_core::Oracle;
//! use hoplite_graph::DiGraph;
//! use hoplite_server::{Client, Registry, Server, ServerConfig};
//!
//! // Build (or `Oracle::open`) an index and register it.
//! let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap();
//! let registry = Arc::new(Registry::new());
//! registry.insert_frozen("web", Oracle::new(&g)).unwrap();
//!
//! // Serve it on an ephemeral loopback port.
//! let server = Server::bind("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
//!
//! // Query over the wire.
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! assert!(client.reach("web", 0, 3).unwrap());
//! assert_eq!(client.reach_batch("web", &[(3, 0), (1, 0)]).unwrap(), [false, true]);
//! server.shutdown();
//! ```
//!
//! The `hoplited` binary wraps all of this as a daemon: `hoplited
//! serve` loads graphs/indexes from files, `hoplited bench` measures
//! wire-level QPS, `hoplited smoke` is a self-contained CI check.

pub mod client;
pub mod loadgen;
pub mod obs;
pub mod pool;
pub mod protocol;
#[cfg(unix)]
mod reactor;
pub mod registry;
pub mod server;

pub use client::{Client, ClientConfig, ClientError};
pub use loadgen::{LoadReport, LoadSpec};
pub use obs::{LogLevel, QueryObs, ServerObs, SlowLog, SlowQuery};
pub use pool::ThreadPool;
pub use protocol::{
    ErrorCode, FrameAccumulator, IndexBackend, MetricsReport, MetricsSummary, NamespaceInfo,
    NamespaceKind, NamespaceStats, Request, Response, WireError, MAX_BATCH_PAIRS, MAX_FRAME_LEN,
    MAX_NAME_LEN, PROTOCOL_VERSION,
};
pub use registry::{NamespaceHandle, Registry, ServeError};
pub use server::{ServeMode, Server, ServerConfig, ServerHandle};
