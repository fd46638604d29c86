//! Compilation-as-a-service for the Q-Pilot FPQA compiler.
//!
//! Q-Pilot's routers are deterministic pure functions of
//! `(circuit, architecture, router options)` — exactly the shape that
//! rewards content-addressed caching and request-level parallelism. This
//! crate turns the batch library into a long-running server:
//!
//! * [`pool::CompileRequest::fingerprint`] — a canonical, platform-stable
//!   128-bit content hash of the request
//!   ([`qpilot_core::compile::fingerprint`], `qpilot.compile/v2`):
//!   router tag ⊕ workload ⊕ architecture ⊕ per-router options;
//! * [`Workload`] / [`RouterOptions`] — the per-router payload and
//!   options (the protocol's `"router"` tag), re-exported from
//!   [`qpilot_core::compile`](mod@qpilot_core::compile) where the whole dispatch pipeline lives
//!   since the unified-API redesign — a worker is just a
//!   [`Compiler`] now;
//! * [`cache::ScheduleCache`] — a sharded LRU keyed by that fingerprint,
//!   holding the *serialised* `qpilot.schedule/v1` JSON
//!   ([`qpilot_core::wire`]), so warm hits are a lookup plus a
//!   reference-count bump;
//! * [`store::ScheduleStore`] — the persistent mirror behind
//!   `qpilotd --store <dir>`: fingerprint-named blobs written
//!   atomically, with corruption-tolerant recovery, so a daemon restart
//!   keeps its working set;
//! * [`pool::Service`] — a bounded job queue feeding a worker pool
//!   (backpressure on queue-full, per-worker router reuse), with *exact*
//!   request coalescing: concurrent identical misses run one compile and
//!   all receive the same `Arc<str>`;
//! * [`protocol`] — the line-delimited JSON request/response protocol;
//! * [`server`] — stdio and TCP transports, one line framer for both;
//! * [`shard`] — the fleet: consistent-hash placement and the one
//!   dispatcher behind `qpilot-router` and `qpilot-cli --shards`.
//!
//! Three binaries ship with the crate: **`qpilotd`** (the daemon),
//! **`qpilot-router`** (a proxy in front of a sharded fleet) and
//! **`qpilot-cli`** (a client); [`flags`] holds the daemons' shared
//! command-line parser. `cargo run --release -p qpilot-bench
//! --bin service_report` measures the warm/cold ratio and burst
//! behaviour into `BENCH_service.json`.
//!
//! # Example
//!
//! ```
//! use qpilot_circuit::Circuit;
//! use qpilot_service::{CompileRequest, Service, ServiceConfig};
//!
//! let service = Service::new(ServiceConfig {
//!     workers: 2,
//!     ..ServiceConfig::default()
//! });
//! let mut c = Circuit::new(4);
//! c.cz(0, 1).cz(1, 2).cz(2, 3);
//! let cold = service.compile(CompileRequest::new(c.clone())).unwrap();
//! let warm = service.compile(CompileRequest::new(c)).unwrap();
//! assert!(!cold.cache_hit);
//! assert!(warm.cache_hit);
//! assert_eq!(cold.entry.schedule_json, warm.entry.schedule_json);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod events;
pub mod faults;
pub mod flags;
pub mod metrics;
pub mod pool;
pub mod protocol;
pub mod reactor;
pub mod server;
pub mod shard;
pub mod store;

pub use cache::{CacheCounters, CacheEntry, ScheduleCache};
pub use faults::{FaultSpec, Faults};
pub use pool::{
    CompileRequest, CompileResponse, Service, ServiceConfig, ServiceError, ServiceStats, StoreStats,
};
// The compilation types themselves live in `qpilot_core::compile` since
// the unified-pipeline redesign; re-exported here so serving code reads
// naturally.
pub use qpilot_core::compile::{
    CompileError, CompileOptions, Compiler, QaoaOptions, QaoaWorkload, RouterOptions, RouterTag,
    Workload,
};
pub use qpilot_core::CancelToken;
pub use reactor::{LineHandler, ReactorOptions, ReactorServer};
pub use server::{serve_lines, serve_stdio, serve_tcp, MAX_REQUEST_LINE_BYTES};
pub use shard::ShardRing;
pub use store::{RecoveryReport, ScheduleStore, StoreOptions};
