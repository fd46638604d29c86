//! The compilation service: request fingerprinting, a bounded job queue
//! feeding a worker pool, exact request coalescing, and latency
//! accounting.
//!
//! The compilation types themselves — [`Workload`], [`RouterTag`],
//! [`RouterOptions`], the dispatch pipeline — live in
//! [`qpilot_core::compile`](mod@qpilot_core::compile) and are re-exported here; this module adds
//! the serving concerns (caching, queuing, coalescing, persistence).
//!
//! Flow per [`CompileRequest`] (from any connection handler thread):
//!
//! 1. the request's content [`Fingerprint`] is computed
//!    ([`qpilot_core::compile::fingerprint`]: router tag ⊕ workload ⊕
//!    architecture ⊕ per-router options);
//! 2. the [`ScheduleCache`] is probed — a hit returns immediately with
//!    the cached serialised schedule (no queueing, no compilation);
//! 3. a miss consults the in-flight waiter map: if an identical compile
//!    is already queued or running, the request *coalesces* — it attaches
//!    a reply channel and waits for that compile's result instead of
//!    enqueueing a duplicate job. Exactly one compile runs per cold
//!    fingerprint no matter how many clients race it, and every waiter
//!    receives the same `Arc<str>` schedule;
//! 4. otherwise the request becomes the *leader*: it registers the
//!    fingerprint as in-flight and enqueues a job on the bounded
//!    `std::sync::mpsc` queue. The queue bound is the backpressure
//!    mechanism: [`Service::compile`] blocks the submitting connection
//!    until a slot frees (so a burst never drops requests), while
//!    [`Service::try_compile`] returns [`ServiceError::Overloaded`] for
//!    callers that prefer shedding;
//! 5. a worker pops the job, re-probes the cache, compiles with its
//!    per-worker [`Compiler`], serialises once, writes the blob to the
//!    persistent [`store`](crate::store) when one is configured, inserts
//!    (unlinking the blob of any entry the insert evicts), then answers
//!    the leader and drains every coalesced waiter.
//!
//! With `ServiceConfig::store_dir` set, the cache is mirrored to disk as
//! fingerprint-named blobs of the canonical schedule JSON, so the cache
//! capacity bounds the blob directory too; a restarted service recovers
//! its working set (oldest blob first, by modification time) before
//! serving.
//!
//! # Fault tolerance
//!
//! Serving survives slow and failing parts without hanging a client:
//!
//! * **Deadlines** — a request may carry `deadline_ms` (capped by
//!   [`ServiceConfig::max_compile_ms`]). The effective deadline arms the
//!   job's [`CancelToken`], checked at stage boundaries inside the
//!   routers, so an over-deadline compile aborts cleanly with
//!   [`ServiceError::Deadline`] instead of occupying a worker; the
//!   submitter stops waiting at the same instant. A coalesced waiter
//!   waits for its leader until its *own* effective deadline; if the
//!   leader's shorter deadline fails the compile first, the waiter
//!   re-submits and leads a compile under its own clock.
//! * **Degradation ladder** — under pressure the service sheds in
//!   order: cache hits are *always* served; queue-full misses are
//!   rejected with [`ServiceError::Overloaded`] carrying a
//!   `retry_after_ms` backoff hint; after [`Service::begin_drain`] all
//!   misses are rejected ([`ServiceError::ShuttingDown`]) while
//!   in-flight work finishes ([`Service::drain`]).
//! * **Fault injection** — [`crate::faults`] sites (worker stall,
//!   poisoned compile; the store has its own) are compiled in and armed
//!   via [`ServiceConfig::faults`], so the chaos suite exercises the
//!   same binary CI ships.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qpilot_circuit::{Circuit, Fingerprint, PauliString};
use qpilot_core::compile::{self, CompileOptions, Compiler};
use qpilot_core::obs;
use qpilot_core::wire::schedule_to_json;
use qpilot_core::{
    CancelToken, CompileError, FpqaConfig, RouteError, RouterOptions, RouterTag, Workload,
};

use crate::cache::{CacheCounters, CacheEntry, ScheduleCache};
use crate::faults::{FaultSpec, Faults};
use crate::store::{RecoveryReport, ScheduleStore, StoreOptions};

/// One compilation request: the workload (which selects the router),
/// optional per-router options, and the architecture shape. Equal
/// requests (by content) share a fingerprint and therefore a cache
/// entry; requests for different routers — or the same router with
/// different options — never collide.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileRequest {
    /// What to compile, and (via its family) with which router.
    pub workload: Workload,
    /// Per-router options (`None` = that router's defaults).
    pub options: Option<RouterOptions>,
    /// SLM array columns (`None` = smallest square holding the register,
    /// exactly [`FpqaConfig::square_for`]).
    pub cols: Option<usize>,
    /// Client deadline in milliseconds (`None` = no client deadline;
    /// [`ServiceConfig::max_compile_ms`] still caps the compile). **Not**
    /// part of the content fingerprint: the same workload with different
    /// deadlines shares one cache entry.
    pub deadline_ms: Option<u64>,
    /// Caller-chosen request id, echoed in every reply for this request
    /// (`None` = the protocol layer assigns one). **Not** part of the
    /// content fingerprint, and propagated unchanged through coalescing.
    pub request_id: Option<String>,
}

impl CompileRequest {
    /// A generic-router request with default architecture and options.
    pub fn new(circuit: Circuit) -> Self {
        CompileRequest::from_workload(Workload::circuit(circuit))
    }

    /// A request for any workload, with default architecture and options.
    pub fn from_workload(workload: Workload) -> Self {
        CompileRequest {
            workload,
            options: None,
            cols: None,
            deadline_ms: None,
            request_id: None,
        }
    }

    /// A qsim request with a uniform rotation angle.
    pub fn qsim(strings: Vec<PauliString>, theta: f64) -> Self {
        CompileRequest::from_workload(Workload::pauli_strings(strings, theta))
    }

    /// A depth-1 QAOA round request.
    pub fn qaoa_round(num_qubits: u32, edges: Vec<(u32, u32)>, gamma: f64, beta: f64) -> Self {
        CompileRequest::from_workload(Workload::qaoa_round(num_qubits, edges, gamma, beta))
    }

    /// Attaches per-router options (builder style).
    #[must_use]
    pub fn with_options(mut self, options: impl Into<RouterOptions>) -> Self {
        self.options = Some(options.into());
        self
    }

    /// Attaches a client deadline in milliseconds (builder style).
    #[must_use]
    pub fn with_deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }

    /// Attaches a caller-chosen request id (builder style).
    #[must_use]
    pub fn with_request_id(mut self, request_id: impl Into<String>) -> Self {
        self.request_id = Some(request_id.into());
        self
    }

    /// The router this request dispatches to.
    pub fn router(&self) -> RouterTag {
        self.workload.router()
    }

    /// The FPQA configuration this request resolves to.
    pub fn config(&self) -> FpqaConfig {
        self.workload.config(self.cols)
    }

    /// The per-request pipeline options handed to a worker's
    /// [`Compiler`], carrying the job's deadline token into the router's
    /// stage loop.
    fn compile_options(&self, cancel: CancelToken) -> CompileOptions {
        CompileOptions {
            router_options: self.options,
            ..CompileOptions::new()
        }
        .cancel(cancel)
    }

    /// The canonical content fingerprint
    /// ([`qpilot_core::compile::fingerprint`], `qpilot.compile/v2`
    /// domain): router tag, workload, derived architecture and
    /// per-router options. Platform- and build-stable.
    pub fn fingerprint(&self) -> Fingerprint {
        compile::fingerprint(&self.workload, self.options.as_ref(), &self.config())
    }
}

/// The message a caught panic carried (`panic!` payloads are a `&str`
/// or a `String`).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".to_string())
}

/// Tuning knobs for [`Service::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Compilation worker threads (floored at 1).
    pub workers: usize,
    /// Bounded job-queue depth; the backpressure threshold.
    pub queue_capacity: usize,
    /// Maximum cached schedules.
    pub cache_capacity: usize,
    /// Cache shard count.
    pub cache_shards: usize,
    /// Persistent schedule-store directory (`None` = in-memory only).
    pub store_dir: Option<PathBuf>,
    /// Hard server-side compile deadline in milliseconds, applied to
    /// every request and capping any client `deadline_ms` (`None` = no
    /// server-side deadline).
    pub max_compile_ms: Option<u64>,
    /// Armed fault-injection sites (empty = all disarmed); see
    /// [`crate::faults`].
    pub faults: FaultSpec,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            queue_capacity: 64,
            cache_capacity: 256,
            cache_shards: 16,
            store_dir: None,
            max_compile_ms: None,
            faults: FaultSpec::default(),
        }
    }
}

/// Why a request failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The compile pipeline rejected the request (malformed workload,
    /// router/options mismatch, or routing failure) — the unified
    /// [`CompileError`] from `qpilot_core::compile`.
    Compile(CompileError),
    /// The job queue is full ([`Service::try_compile`] only); the hint
    /// estimates when a retry is likely to be accepted.
    Overloaded {
        /// Suggested client backoff in milliseconds before retrying.
        retry_after_ms: u64,
    },
    /// The request's effective deadline passed before a schedule was
    /// produced; the compile was cancelled at a stage boundary.
    Deadline {
        /// The effective deadline that was missed, in milliseconds.
        deadline_ms: u64,
    },
    /// The service is shutting down and the job was abandoned.
    ShuttingDown,
    /// The compilation panicked; the worker survived and reported it.
    Internal(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // `CompileError` renders wire-stable messages (e.g.
            // `invalid request: …` for malformed workloads).
            ServiceError::Compile(e) => write!(f, "{e}"),
            // Wire-stable prefix; the backoff hint travels as its own
            // protocol field, not inside the message.
            ServiceError::Overloaded { .. } => {
                write!(f, "service overloaded: compile queue is full, retry later")
            }
            ServiceError::Deadline { deadline_ms } => {
                write!(
                    f,
                    "deadline exceeded: compile missed its {deadline_ms} ms deadline"
                )
            }
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::Internal(m) => write!(f, "internal compiler error: {m}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<CompileError> for ServiceError {
    fn from(e: CompileError) -> Self {
        ServiceError::Compile(e)
    }
}

/// A successful compile response.
#[derive(Debug, Clone)]
pub struct CompileResponse {
    /// The request fingerprint (the cache key).
    pub fingerprint: Fingerprint,
    /// The router that served (or would have served) the request.
    pub router: RouterTag,
    /// `true` if served from cache without compiling.
    pub cache_hit: bool,
    /// `true` if this request attached to a concurrent identical
    /// compile instead of running its own.
    pub coalesced: bool,
    /// The cached entry (serialised schedule + stats).
    pub entry: Arc<CacheEntry>,
}

impl CompileResponse {
    /// The serving path echoed in replies and used as the
    /// request-latency metric label: `hit` > `coalesced` > `miss` (the
    /// degradation-ladder failure paths `shed`/`error` come from
    /// [`ServiceError`], not from a response).
    pub fn path(&self) -> &'static str {
        if self.cache_hit {
            "hit"
        } else if self.coalesced {
            "coalesced"
        } else {
            "miss"
        }
    }
}

/// Aggregate service statistics for the `stats` protocol request.
#[derive(Debug, Clone, Copy)]
pub struct ServiceStats {
    /// Total compile requests handled (hits + misses).
    pub requests: u64,
    /// Cache counters.
    pub cache: CacheCounters,
    /// Currently cached entries.
    pub cache_entries: usize,
    /// Resident bytes of cached schedule JSON.
    pub cache_bytes: u64,
    /// Compilations executed by the worker pool.
    pub compiles: u64,
    /// Requests that attached to an in-flight identical compile.
    pub coalesced: u64,
    /// Requests shed with `Overloaded` by the degradation ladder.
    pub shed: u64,
    /// Requests that missed their effective deadline.
    pub deadline_misses: u64,
    /// `true` once [`Service::begin_drain`] was called.
    pub draining: bool,
    /// Schedules spilled to the persistent store (0 without `--store`).
    pub store_persisted: u64,
    /// Schedules recovered from the persistent store at startup.
    pub store_loaded: u64,
    /// Wall time of the startup store recovery pass, in seconds (0
    /// without `--store`).
    pub store_recover_s: f64,
    /// Median compile wall-clock (seconds), from the compile-latency
    /// histogram.
    pub p50_compile_s: f64,
    /// 90th-percentile compile wall-clock (seconds).
    pub p90_compile_s: f64,
    /// 99th-percentile compile wall-clock (seconds).
    pub p99_compile_s: f64,
    /// Worker threads.
    pub workers: usize,
}

/// Persistent-store statistics for the `store-stats` protocol request:
/// the startup [`RecoveryReport`], lifetime counters, and what the
/// store directory holds now.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// `true` when the service runs with a persistent store.
    pub configured: bool,
    /// The startup recovery report (blobs loaded / discarded).
    pub recovery: RecoveryReport,
    /// Schedules spilled to disk since startup.
    pub persisted: u64,
    /// Blobs unlinked by cache evictions since startup.
    pub removed: u64,
    /// Blobs in the store directory now (a failed write leaves none, so
    /// this can trail the in-memory cache).
    pub entries: u64,
    /// Bytes of the blobs in the store directory now.
    pub bytes: u64,
}

type Reply = mpsc::Sender<Result<CompileResponse, ServiceError>>;

struct Job {
    request: CompileRequest,
    fingerprint: Fingerprint,
    /// The leader's reply channel.
    reply: Reply,
    /// The effective deadline, armed at enqueue; the routers check it at
    /// stage boundaries.
    cancel: CancelToken,
    /// The effective deadline, for rendering [`ServiceError::Deadline`].
    deadline_ms: Option<u64>,
    /// When the job was made for the queue, while instrumentation is
    /// on; a worker taking it records the wait as `queue_wait`.
    enqueued: Option<Instant>,
}

/// State shared with worker threads.
struct WorkerCtx {
    cache: ScheduleCache,
    /// Compile wall-clock per executed compilation (log-linear obs
    /// histogram; feeds `stats`, the metrics exposition and the
    /// backpressure hint).
    latencies: obs::Histogram,
    compiles: AtomicU64,
    coalesced: AtomicU64,
    shed: AtomicU64,
    deadline_misses: AtomicU64,
    /// Fingerprints with a compile queued or running, mapping to the
    /// reply channels of every coalesced waiter. Presence of a key —
    /// even with no waiters yet — marks the fingerprint as in-flight;
    /// each key has exactly one job.
    inflight: Mutex<HashMap<Fingerprint, Vec<Reply>>>,
    store: Option<Arc<ScheduleStore>>,
    faults: Arc<Faults>,
}

impl WorkerCtx {
    /// Ends the in-flight record for a fingerprint, returning its
    /// coalesced waiters.
    fn take_waiters(&self, fingerprint: &Fingerprint) -> Vec<Reply> {
        self.inflight
            .lock()
            .expect("inflight lock")
            .remove(fingerprint)
            .unwrap_or_default()
    }

    /// Compile-and-cache on a miss; double-checks the cache first so a
    /// request that raced past the waiter map (enqueued just after the
    /// previous leader finished) never compiles twice. The re-probe is
    /// untracked: the request already counted its miss.
    fn run(&self, compiler: &mut Compiler, job: &Job) -> Result<CompileResponse, ServiceError> {
        // Chaos site: wedge this worker before it looks at the job.
        self.faults.worker_stall();
        if let Some(entry) = self.cache.get_untracked(&job.fingerprint) {
            return Ok(CompileResponse {
                fingerprint: job.fingerprint,
                router: job.request.router(),
                cache_hit: true,
                coalesced: false,
                entry,
            });
        }
        let missed = ServiceError::Deadline {
            deadline_ms: job.deadline_ms.unwrap_or(0),
        };
        // A job already over its deadline aborts before costing any
        // routing work.
        if job.cancel.check().is_err() {
            return Err(missed);
        }
        if self.faults.poison_compile() {
            panic!("injected fault: poisoned compile");
        }
        let config = job.request.config();
        let started = Instant::now();
        compiler.set_options(job.request.compile_options(job.cancel));
        let program = match compiler.compile(&job.request.workload, &config) {
            Ok(routed) => routed.into_program(),
            Err(CompileError::Route(RouteError::Cancelled)) => return Err(missed),
            Err(e) => return Err(ServiceError::Compile(e)),
        };
        let stats = *program.stats();
        let schedule_json: Arc<str> = {
            let _span = obs::Span::start(&crate::metrics::STAGE_SERIALISE);
            schedule_to_json(program.schedule()).into()
        };
        let elapsed = started.elapsed();
        let compile_s = elapsed.as_secs_f64();
        let entry = Arc::new(CacheEntry {
            schedule_json,
            stats,
            compile_s,
        });
        // The blob goes to disk before the entry is cached: an insert
        // that evicts this entry then always finds its blob to unlink.
        if let Some(store) = &self.store {
            let _span = obs::Span::start(&crate::metrics::STAGE_STORE_WRITE);
            store.persist(job.fingerprint, &entry);
        }
        let evicted = self.cache.insert(job.fingerprint, Arc::clone(&entry));
        if let (Some(store), Some(evicted)) = (&self.store, evicted) {
            store.remove(&evicted);
        }
        self.compiles.fetch_add(1, Ordering::Relaxed);
        self.latencies.observe(elapsed);
        Ok(CompileResponse {
            fingerprint: job.fingerprint,
            router: job.request.router(),
            cache_hit: false,
            coalesced: false,
            entry,
        })
    }
}

/// The compilation service handle. Cloning is cheap (shared state); the
/// worker pool shuts down when the last clone is dropped.
#[derive(Clone)]
pub struct Service {
    shared: Arc<Shared>,
}

struct Shared {
    ctx: Arc<WorkerCtx>,
    queue: Mutex<Option<mpsc::SyncSender<Job>>>,
    requests: AtomicU64,
    workers: usize,
    queue_capacity: usize,
    max_compile_ms: Option<u64>,
    /// Set by [`Service::begin_drain`]: reject new misses, keep serving
    /// hits and finishing in-flight work.
    draining: AtomicBool,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Drop for Shared {
    fn drop(&mut self) {
        // Close the queue so workers drain and exit, then join them.
        self.queue.lock().expect("queue lock").take();
        for handle in self.handles.lock().expect("handle lock").drain(..) {
            let _ = handle.join();
        }
    }
}

impl Service {
    /// Starts the worker pool.
    ///
    /// # Panics
    ///
    /// Panics if `config.store_dir` is set but cannot be opened; use
    /// [`Service::try_new`] to handle that gracefully.
    pub fn new(config: ServiceConfig) -> Self {
        Service::try_new(config).expect("cannot open schedule store")
    }

    /// Starts the worker pool, recovering the persistent store's working
    /// set first when `config.store_dir` is set.
    ///
    /// # Errors
    ///
    /// Store-directory creation/listing failures.
    pub fn try_new(config: ServiceConfig) -> std::io::Result<Self> {
        let workers = config.workers.max(1);
        let faults = Arc::new(Faults::from_spec(&config.faults));
        let cache = ScheduleCache::new(config.cache_capacity, config.cache_shards);
        let store = match &config.store_dir {
            None => None,
            Some(dir) => {
                let options = StoreOptions {
                    faults: Arc::clone(&faults),
                };
                let (store, recovered) = ScheduleStore::open_with(dir, options)?;
                // Replay oldest-first so in-memory recency matches the
                // blobs' write order; capacity overflow evicts (and
                // unlinks) the oldest blobs.
                for rec in recovered {
                    if let Some(evicted) = cache.insert(rec.fingerprint, rec.entry) {
                        store.remove(&evicted);
                    }
                }
                Some(Arc::new(store))
            }
        };
        let ctx = Arc::new(WorkerCtx {
            cache,
            latencies: obs::Histogram::new(),
            compiles: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            deadline_misses: AtomicU64::new(0),
            inflight: Mutex::new(HashMap::new()),
            store,
            faults,
        });
        let (tx, rx) = mpsc::sync_channel::<Job>(config.queue_capacity.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..workers)
            .map(|_| {
                let rx = Arc::clone(&rx);
                let ctx = Arc::clone(&ctx);
                std::thread::spawn(move || {
                    let mut compiler = Compiler::new();
                    loop {
                        let job = match rx.lock().expect("job queue lock").recv() {
                            Ok(job) => job,
                            Err(_) => break, // queue closed: shut down
                        };
                        if let Some(enqueued) = job.enqueued {
                            crate::metrics::STAGE_QUEUE_WAIT.observe(enqueued.elapsed());
                        }
                        // Contain panics: the wire layer validates inputs,
                        // but a panicking job must cost one response, not
                        // a worker thread (a shrinking pool would end in
                        // every client blocking on a queue nobody drains).
                        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            ctx.run(&mut compiler, &job)
                        }))
                        .unwrap_or_else(|payload| {
                            Err(ServiceError::Internal(panic_message(&*payload)))
                        });
                        // Answer the coalesced waiters *after* the cache
                        // insert (inside `run`), so any submitter arriving
                        // later either hits the cache or starts a fresh
                        // in-flight entry.
                        for waiter in ctx.take_waiters(&job.fingerprint) {
                            let _ = waiter.send(result.clone().map(|r| CompileResponse {
                                coalesced: true,
                                ..r
                            }));
                        }
                        let _ = job.reply.send(result);
                    }
                })
            })
            .collect();
        Ok(Service {
            shared: Arc::new(Shared {
                ctx,
                queue: Mutex::new(Some(tx)),
                requests: AtomicU64::new(0),
                workers,
                queue_capacity: config.queue_capacity.max(1),
                max_compile_ms: config.max_compile_ms,
                draining: AtomicBool::new(false),
                handles: Mutex::new(handles),
            }),
        })
    }

    /// Handles one request, blocking while the job queue is full
    /// (backpressure; no request is ever dropped).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Compile`] for malformed workloads or rejected
    /// routing (the unified [`CompileError`]),
    /// [`ServiceError::ShuttingDown`] if the pool stops mid-request.
    pub fn compile(&self, request: CompileRequest) -> Result<CompileResponse, ServiceError> {
        self.submit(request, false)
    }

    /// Like [`Service::compile`] but fails fast with
    /// [`ServiceError::Overloaded`] instead of blocking when the queue is
    /// full. Coalescing onto an already-running identical compile is not
    /// shedding: such requests wait for the in-flight result.
    ///
    /// # Errors
    ///
    /// See [`Service::compile`], plus [`ServiceError::Overloaded`].
    pub fn try_compile(&self, request: CompileRequest) -> Result<CompileResponse, ServiceError> {
        self.submit(request, true)
    }

    /// [`Service::submit_inner`] wrapped in end-to-end latency
    /// recording: one sample per request into the histogram matching
    /// its serving path ([`CompileResponse::path`], or `shed`/`error`
    /// for failures).
    fn submit(
        &self,
        request: CompileRequest,
        fail_fast: bool,
    ) -> Result<CompileResponse, ServiceError> {
        let started = obs::enabled().then(Instant::now);
        let result = self.submit_inner(request, fail_fast);
        if let Some(started) = started {
            let histogram = match &result {
                Ok(response) => crate::metrics::request_histogram(response.path()),
                Err(ServiceError::Overloaded { .. }) => &crate::metrics::REQUEST_SHED,
                Err(_) => &crate::metrics::REQUEST_ERROR,
            };
            histogram.observe(started.elapsed());
        }
        result
    }

    fn submit_inner(
        &self,
        request: CompileRequest,
        fail_fast: bool,
    ) -> Result<CompileResponse, ServiceError> {
        self.shared.requests.fetch_add(1, Ordering::Relaxed);
        // The compiler's own request checks, run before any queueing.
        compile::check_request(&request.workload, request.options.as_ref())?;
        let fingerprint = {
            let _span = obs::Span::start(&crate::metrics::STAGE_FINGERPRINT);
            request.fingerprint()
        };
        let router = request.router();
        let ctx = &self.shared.ctx;
        // Rung 0 of the degradation ladder: hits are served from the
        // caller thread, always — even while overloaded or draining. The
        // worker pool only ever sees misses.
        let probed = {
            let _span = obs::Span::start(&crate::metrics::STAGE_CACHE_PROBE);
            ctx.cache.get(&fingerprint)
        };
        if let Some(entry) = probed {
            return Ok(CompileResponse {
                fingerprint,
                router,
                cache_hit: true,
                coalesced: false,
                entry,
            });
        }
        // Final rung: a draining service accepts no new compile work.
        if self.shared.draining.load(Ordering::Relaxed) {
            return Err(ServiceError::ShuttingDown);
        }
        // The effective deadline: the client's, capped by the server's
        // `--max-compile-ms` hard limit.
        let deadline_ms = match (request.deadline_ms, self.shared.max_compile_ms) {
            (Some(client), Some(cap)) => Some(client.min(cap)),
            (client, cap) => client.or(cap),
        };
        let deadline_at = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
        let mut request = Some(request);
        loop {
            let (reply_tx, reply_rx) = mpsc::channel();
            // Exact coalescing: the first miss for a fingerprint becomes
            // the leader (registers the in-flight entry, enqueues the one
            // job); every concurrent miss attaches its reply channel
            // instead.
            let leader_reply = {
                let mut inflight = ctx.inflight.lock().expect("inflight lock");
                match inflight.entry(fingerprint) {
                    Entry::Occupied(mut slot) => {
                        slot.get_mut().push(reply_tx);
                        None
                    }
                    Entry::Vacant(slot) => {
                        slot.insert(Vec::new());
                        Some(reply_tx)
                    }
                }
            };
            let Some(reply) = leader_reply else {
                ctx.coalesced.fetch_add(1, Ordering::Relaxed);
                let result = self.await_result(&reply_rx, deadline_at, deadline_ms);
                // A blocking caller coalesced under a fail-fast leader
                // can see that leader's `Overloaded`; its own contract is
                // to block, so it re-submits (re-probing the cache and,
                // if still cold, leading with a *blocking* enqueue).
                let leaders_overload =
                    !fail_fast && matches!(result, Err(ServiceError::Overloaded { .. }));
                // Likewise a waiter can inherit the *leader's* deadline
                // error from the broadcast; if its own deadline is
                // longer (or absent) it re-submits and leads a compile
                // under its own clock.
                let leaders_deadline = matches!(result, Err(ServiceError::Deadline { .. }))
                    && deadline_at.is_none_or(|d| Instant::now() < d);
                if !(leaders_overload || leaders_deadline) {
                    return result;
                }
                if let Some(entry) = ctx.cache.get_untracked(&fingerprint) {
                    return Ok(CompileResponse {
                        fingerprint,
                        router,
                        cache_hit: true,
                        coalesced: false,
                        entry,
                    });
                }
                continue;
            };
            let job = Job {
                request: request.take().expect("leader submits once"),
                fingerprint,
                reply,
                cancel: deadline_at.map_or_else(CancelToken::default, CancelToken::with_deadline),
                deadline_ms,
                enqueued: obs::enabled().then(Instant::now),
            };
            if let Err(e) = self.enqueue(job, fail_fast) {
                // Leadership failed before a worker could take over: the
                // waiters that attached in the window get the same error
                // (blocking waiters retry above), or nobody would ever
                // answer them.
                for waiter in ctx.take_waiters(&fingerprint) {
                    let _ = waiter.send(Err(e.clone()));
                }
                return Err(e);
            }
            return self.await_result(&reply_rx, deadline_at, deadline_ms);
        }
    }

    /// Waits on a reply channel until the request's effective deadline,
    /// returning [`ServiceError::Deadline`] the moment it passes (the
    /// armed token aborts the worker independently), or
    /// [`ServiceError::ShuttingDown`] if the pool dropped the request.
    fn await_result(
        &self,
        reply_rx: &mpsc::Receiver<Result<CompileResponse, ServiceError>>,
        deadline_at: Option<Instant>,
        deadline_ms: Option<u64>,
    ) -> Result<CompileResponse, ServiceError> {
        let result = match deadline_at {
            None => reply_rx.recv().unwrap_or(Err(ServiceError::ShuttingDown)),
            Some(at) => match reply_rx.recv_timeout(at.saturating_duration_since(Instant::now())) {
                Ok(result) => result,
                Err(mpsc::RecvTimeoutError::Timeout) => Err(ServiceError::Deadline {
                    deadline_ms: deadline_ms.unwrap_or(0),
                }),
                Err(mpsc::RecvTimeoutError::Disconnected) => Err(ServiceError::ShuttingDown),
            },
        };
        // Count only this request's own expiry; an inherited deadline
        // error is retried upstream.
        if matches!(result, Err(ServiceError::Deadline { .. }))
            && deadline_at.is_some_and(|d| Instant::now() >= d)
        {
            self.shared
                .ctx
                .deadline_misses
                .fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    fn enqueue(&self, job: Job, fail_fast: bool) -> Result<(), ServiceError> {
        let guard = self.shared.queue.lock().expect("queue lock");
        let tx = guard.as_ref().ok_or(ServiceError::ShuttingDown)?;
        if fail_fast {
            match tx.try_send(job) {
                Ok(()) => Ok(()),
                Err(mpsc::TrySendError::Full(_)) => {
                    self.shared.ctx.shed.fetch_add(1, Ordering::Relaxed);
                    Err(ServiceError::Overloaded {
                        retry_after_ms: self.retry_after_ms(),
                    })
                }
                Err(mpsc::TrySendError::Disconnected(_)) => Err(ServiceError::ShuttingDown),
            }
        } else {
            // Blocking send while holding the queue lock would serialise
            // all submitters; clone the sender out instead.
            let tx = tx.clone();
            drop(guard);
            tx.send(job).map_err(|_| ServiceError::ShuttingDown)
        }
    }

    /// The `Overloaded` backoff hint: roughly how long the full queue
    /// needs to drain (median compile × depth ÷ workers), clamped to
    /// [25 ms, 2000 ms] so cold services and pathological medians still
    /// hint something sane.
    fn retry_after_ms(&self) -> u64 {
        let p50 = self.shared.ctx.latencies.snapshot().percentile(0.50) as f64 * 1e-9;
        let estimate =
            p50 * 1000.0 * self.shared.queue_capacity as f64 / self.shared.workers.max(1) as f64;
        (estimate as u64).clamp(25, 2000)
    }

    /// Enters drain mode: new compile misses are rejected with
    /// [`ServiceError::ShuttingDown`] while cache hits and already
    /// accepted work keep being served. Idempotent.
    pub fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::Relaxed);
    }

    /// `true` once [`Service::begin_drain`] was called.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::Relaxed)
    }

    /// Waits until every accepted compile has been answered (the
    /// in-flight map is empty), up to `timeout`. Returns `true` on a
    /// clean drain, `false` if work was still pending at the deadline.
    /// Call [`Service::begin_drain`] first or new work can starve this.
    pub fn drain(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self
                .shared
                .ctx
                .inflight
                .lock()
                .expect("inflight lock")
                .is_empty()
            {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// A persistent-store snapshot for the `store-stats` protocol op:
    /// the startup recovery report, lifetime persist/unlink counters,
    /// and the blobs in the store directory now. `configured` is `false`
    /// (all counters zero) when the service runs without `--store`.
    pub fn store_stats(&self) -> StoreStats {
        let ctx = &self.shared.ctx;
        match &ctx.store {
            None => StoreStats::default(),
            Some(store) => {
                let (entries, bytes) = store.usage();
                StoreStats {
                    configured: true,
                    recovery: store.recovery(),
                    persisted: store.persisted(),
                    removed: store.removed(),
                    entries,
                    bytes,
                }
            }
        }
    }

    /// A snapshot of the compile-latency histogram (one sample per
    /// executed compilation), mergeable across services and rendered
    /// into the metrics exposition.
    pub fn compile_latency_snapshot(&self) -> obs::HistogramSnapshot {
        self.shared.ctx.latencies.snapshot()
    }

    /// A statistics snapshot.
    pub fn stats(&self) -> ServiceStats {
        let ctx = &self.shared.ctx;
        let latencies = ctx.latencies.snapshot();
        let secs = |q: f64| latencies.percentile(q) as f64 * 1e-9;
        ServiceStats {
            requests: self.shared.requests.load(Ordering::Relaxed),
            cache: ctx.cache.counters(),
            cache_entries: ctx.cache.len(),
            cache_bytes: ctx.cache.bytes(),
            compiles: ctx.compiles.load(Ordering::Relaxed),
            coalesced: ctx.coalesced.load(Ordering::Relaxed),
            shed: ctx.shed.load(Ordering::Relaxed),
            deadline_misses: ctx.deadline_misses.load(Ordering::Relaxed),
            draining: self.shared.draining.load(Ordering::Relaxed),
            store_persisted: ctx.store.as_ref().map_or(0, |s| s.persisted()),
            store_loaded: ctx.store.as_ref().map_or(0, |s| s.recovery().loaded),
            store_recover_s: ctx
                .store
                .as_ref()
                .map_or(0.0, |s| s.recovery().elapsed.as_secs_f64()),
            p50_compile_s: secs(0.50),
            p90_compile_s: secs(0.90),
            p99_compile_s: secs(0.99),
            workers: self.shared.workers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpilot_core::generic::GenericRouterOptions;
    use qpilot_core::qsim::QsimRouterOptions;
    use qpilot_core::wire::schedule_from_json;
    use qpilot_core::QaoaOptions;
    use std::sync::Barrier;

    fn small_circuit(seed: u32) -> Circuit {
        let mut c = Circuit::new(4);
        c.h(seed % 4);
        c.cz(0, 1).cz(2, 3).cz(1, 2);
        c
    }

    fn config() -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            queue_capacity: 4,
            cache_capacity: 32,
            cache_shards: 4,
            ..ServiceConfig::default()
        }
    }

    fn service() -> Service {
        Service::new(config())
    }

    #[test]
    fn identical_requests_hit_cache_with_identical_bytes() {
        let svc = service();
        let first = svc
            .compile(CompileRequest::new(small_circuit(0)))
            .expect("cold compile");
        assert!(!first.cache_hit);
        let second = svc
            .compile(CompileRequest::new(small_circuit(0)))
            .expect("warm compile");
        assert!(second.cache_hit);
        assert_eq!(first.fingerprint, second.fingerprint);
        assert_eq!(first.router, RouterTag::Generic);
        // Byte identity, and in fact pointer identity.
        assert_eq!(first.entry.schedule_json, second.entry.schedule_json);
        assert!(Arc::ptr_eq(&first.entry, &second.entry));
    }

    /// A miss times its serialise step into the `serialise` stage. The
    /// histogram is process-global and other tests record into it too,
    /// so only growth is asserted.
    #[test]
    fn a_miss_records_its_serialise_span() {
        obs::set_enabled(true);
        let before = crate::metrics::STAGE_SERIALISE.count();
        let response = service()
            .compile(CompileRequest::new(small_circuit(3)))
            .expect("cold compile");
        assert!(!response.cache_hit);
        assert!(crate::metrics::STAGE_SERIALISE.count() > before);
    }

    /// Each miss records how long its job waited for a worker into the
    /// `queue_wait` stage. With one worker stalled on a first job, a
    /// second job queued behind it waits about the stall. The histogram
    /// is process-global, so only growth and the maximum are asserted.
    #[test]
    fn a_miss_records_its_queue_wait() {
        const STALL_MS: u64 = 400;
        obs::set_enabled(true);
        let queue_wait = &crate::metrics::STAGE_QUEUE_WAIT;
        let before = queue_wait.count();
        let svc = Service::new(ServiceConfig {
            workers: 1,
            faults: crate::faults::FaultSpec::parse(&format!("worker-stall={STALL_MS}:1")).unwrap(),
            ..config()
        });
        let first = {
            let svc = svc.clone();
            std::thread::spawn(move || svc.compile(CompileRequest::new(small_circuit(5))))
        };
        // The second job is queued once the stalled worker holds the first.
        while queue_wait.count() == before {
            std::thread::sleep(Duration::from_millis(1));
        }
        let second = svc
            .compile(CompileRequest::new(small_circuit(6)))
            .expect("queued compile");
        assert!(!second.cache_hit);
        assert!(!first.join().unwrap().expect("stalled compile").cache_hit);
        assert!(queue_wait.count() >= before + 2);
        let waited = queue_wait.snapshot().max_ns();
        assert!(
            waited >= (STALL_MS / 4) * 1_000_000,
            "the longest queue wait was {waited} ns"
        );
    }

    #[test]
    fn cached_schedule_matches_core_pipeline() {
        let svc = service();
        let req = CompileRequest::new(small_circuit(1));
        let config = req.config();
        let response = svc.compile(req.clone()).unwrap();
        let direct = compile::compile(&req.workload, &config).unwrap();
        let parsed = schedule_from_json(&response.entry.schedule_json).unwrap();
        assert_eq!(&parsed, direct.schedule());
        assert_eq!(response.entry.stats, *direct.stats());
    }

    #[test]
    fn different_options_miss_each_other() {
        let svc = service();
        let base = CompileRequest::new(small_circuit(2));
        let capped = CompileRequest::new(small_circuit(2))
            .with_options(GenericRouterOptions { stage_cap: Some(1) });
        let wide = CompileRequest {
            cols: Some(4),
            ..base.clone()
        };
        let fps: Vec<Fingerprint> = [&base, &capped, &wide]
            .iter()
            .map(|r| r.fingerprint())
            .collect();
        assert_ne!(fps[0], fps[1]);
        assert_ne!(fps[0], fps[2]);
        assert!(!svc.compile(base).unwrap().cache_hit);
        assert!(!svc.compile(capped).unwrap().cache_hit);
        assert!(!svc.compile(wide).unwrap().cache_hit);
        assert_eq!(svc.stats().compiles, 3);
    }

    #[test]
    fn router_tags_never_share_fingerprints() {
        // A qsim ZZ evolution, a QAOA edge, and the equivalent generic
        // circuit all describe "entangle qubits 0 and 1" — the tag byte
        // must still keep their cache keys apart.
        let mut c = Circuit::new(2);
        c.zz(0, 1, 0.5);
        let generic = CompileRequest::new(c);
        let qsim = CompileRequest::qsim(vec!["ZZ".parse().unwrap()], 0.5);
        let qaoa = CompileRequest::from_workload(Workload::qaoa_cost_layer(2, vec![(0, 1)], 0.5));
        let fps = [
            generic.fingerprint(),
            qsim.fingerprint(),
            qaoa.fingerprint(),
        ];
        assert_ne!(fps[0], fps[1]);
        assert_ne!(fps[0], fps[2]);
        assert_ne!(fps[1], fps[2]);
    }

    #[test]
    fn per_router_options_split_fingerprints() {
        let qsim = CompileRequest::qsim(vec!["ZZZ".parse().unwrap()], 0.25);
        let qsim_capped = qsim.clone().with_options(QsimRouterOptions {
            max_copies: Some(1),
        });
        assert_ne!(qsim.fingerprint(), qsim_capped.fingerprint());

        let qaoa = CompileRequest::qaoa_round(4, vec![(0, 1), (2, 3)], 0.7, 0.3);
        let qaoa_narrow = qaoa.clone().with_options(QaoaOptions {
            anchor_candidates: Some(1),
            column_extension: None,
        });
        let qaoa_nocol = qaoa.clone().with_options(QaoaOptions {
            anchor_candidates: None,
            column_extension: Some(false),
        });
        assert_ne!(qaoa.fingerprint(), qaoa_narrow.fingerprint());
        assert_ne!(qaoa.fingerprint(), qaoa_nocol.fingerprint());
        assert_ne!(qaoa_narrow.fingerprint(), qaoa_nocol.fingerprint());
    }

    #[test]
    fn qsim_and_qaoa_requests_compile_and_hit() {
        let svc = service();
        let qsim =
            CompileRequest::qsim(vec!["ZZIZ".parse().unwrap(), "XXII".parse().unwrap()], 0.4);
        let cold = svc.compile(qsim.clone()).expect("qsim compile");
        assert!(!cold.cache_hit);
        assert_eq!(cold.router, RouterTag::Qsim);
        let warm = svc.compile(qsim).expect("qsim repeat");
        assert!(warm.cache_hit);
        assert_eq!(warm.entry.schedule_json, cold.entry.schedule_json);

        let qaoa = CompileRequest::qaoa_round(4, vec![(0, 1), (1, 2), (2, 3)], 0.7, 0.3);
        let cold = svc.compile(qaoa.clone()).expect("qaoa compile");
        assert!(!cold.cache_hit);
        assert_eq!(cold.router, RouterTag::Qaoa);
        assert!(svc.compile(qaoa).unwrap().cache_hit);
        assert_eq!(svc.stats().compiles, 2);
    }

    #[test]
    fn invalid_workloads_are_rejected_before_the_queue() {
        let svc = service();
        let empty_qsim = CompileRequest::qsim(vec![], 0.5);
        assert!(matches!(
            svc.compile(empty_qsim),
            Err(ServiceError::Compile(CompileError::InvalidWorkload(_)))
        ));
        let mismatched = CompileRequest::from_workload(Workload::qaoa_rounds(
            3,
            vec![(0, 1)],
            vec![0.1, 0.2],
            vec![0.3],
        ));
        assert!(matches!(
            svc.compile(mismatched),
            Err(ServiceError::Compile(CompileError::InvalidWorkload(_)))
        ));
        // Options of a foreign family are caught before the queue too.
        let foreign = CompileRequest::new(small_circuit(8)).with_options(QsimRouterOptions {
            max_copies: Some(1),
        });
        assert!(matches!(
            svc.compile(foreign),
            Err(ServiceError::Compile(CompileError::OptionsMismatch { .. }))
        ));
        // The pool is still healthy.
        assert!(svc.compile(CompileRequest::new(small_circuit(9))).is_ok());
    }

    #[test]
    fn route_errors_propagate_to_coalesced_waiters_too() {
        let svc = service();
        // A self-loop edge is rejected by the QAOA router (not at parse
        // level — the workload shape is fine).
        let bad = CompileRequest::qaoa_round(3, vec![(1, 1)], 0.7, 0.3);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let svc = svc.clone();
                let bad = bad.clone();
                std::thread::spawn(move || svc.compile(bad))
            })
            .collect();
        for h in handles {
            assert!(matches!(
                h.join().unwrap(),
                Err(ServiceError::Compile(CompileError::Route(_)))
            ));
        }
    }

    #[test]
    fn store_stats_reflect_recovery_and_persistence() {
        let dir = std::env::temp_dir().join(format!(
            "qpilot_pool_store_stats_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let svc = service();
        assert_eq!(svc.store_stats(), StoreStats::default());
        drop(svc);

        let stored_config = ServiceConfig {
            store_dir: Some(dir.clone()),
            ..config()
        };
        let svc = Service::new(stored_config.clone());
        svc.compile(CompileRequest::new(small_circuit(7))).unwrap();
        let stats = svc.store_stats();
        assert!(stats.configured);
        assert_eq!(stats.persisted, 1);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.recovery.loaded, 0);
        drop(svc);

        let svc = Service::new(stored_config);
        let stats = svc.store_stats();
        assert_eq!(stats.recovery.loaded, 1);
        assert_eq!(stats.persisted, 0, "nothing new persisted yet");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn racing_cold_requests_compile_exactly_once() {
        // The coalescing exactness contract: N threads race one cold
        // fingerprint; exactly one compile runs, all N answers share the
        // same bytes, and the coalesced counter accounts for the rest.
        const RACERS: usize = 8;
        let svc = Service::new(ServiceConfig {
            workers: 4,
            ..config()
        });
        let barrier = Arc::new(Barrier::new(RACERS));
        let handles: Vec<_> = (0..RACERS)
            .map(|_| {
                let svc = svc.clone();
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    svc.compile(CompileRequest::new(small_circuit(3)))
                        .expect("racing compile")
                })
            })
            .collect();
        let responses: Vec<CompileResponse> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        let first_json = &responses[0].entry.schedule_json;
        for r in &responses {
            assert_eq!(&r.entry.schedule_json, first_json);
            assert!(Arc::ptr_eq(&r.entry, &responses[0].entry));
        }
        let stats = svc.stats();
        assert_eq!(stats.requests, RACERS as u64);
        assert_eq!(stats.compiles, 1, "coalescing must be exact");
        let compiled = responses
            .iter()
            .filter(|r| !r.cache_hit && !r.coalesced)
            .count();
        let coalesced = responses.iter().filter(|r| r.coalesced).count();
        assert_eq!(compiled, 1, "exactly one leader");
        assert_eq!(stats.coalesced as usize, coalesced);
        // Everyone else either coalesced or arrived after the insert.
        assert_eq!(
            compiled + coalesced + responses.iter().filter(|r| r.cache_hit).count(),
            RACERS
        );
    }

    #[test]
    fn stats_track_requests_and_latency() {
        let svc = service();
        svc.compile(CompileRequest::new(small_circuit(4))).unwrap();
        svc.compile(CompileRequest::new(small_circuit(4))).unwrap();
        let stats = svc.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.cache.hits, 1);
        // Request-level accounting: the worker's internal re-probe does
        // not double-count, so hits + misses == requests.
        assert_eq!(stats.cache.hits + stats.cache.misses, stats.requests);
        assert_eq!(stats.compiles, 1);
        assert_eq!(stats.coalesced, 0);
        assert!(stats.p50_compile_s > 0.0);
        assert!(stats.p99_compile_s >= stats.p50_compile_s);
        assert_eq!(stats.cache_entries, 1);
    }

    #[test]
    fn persistent_store_round_trips_across_service_restarts() {
        let dir = std::env::temp_dir().join(format!(
            "qpilot_pool_store_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let stored_config = ServiceConfig {
            store_dir: Some(dir.clone()),
            ..config()
        };
        let svc = Service::new(stored_config.clone());
        let cold = svc
            .compile(CompileRequest::new(small_circuit(6)))
            .expect("cold compile");
        assert!(!cold.cache_hit);
        assert_eq!(svc.stats().store_persisted, 1);
        drop(svc);

        let svc = Service::new(stored_config);
        assert_eq!(svc.stats().store_loaded, 1);
        let warm = svc
            .compile(CompileRequest::new(small_circuit(6)))
            .expect("restart-warm compile");
        assert!(warm.cache_hit, "restart must keep the working set");
        assert_eq!(warm.entry.schedule_json, cold.entry.schedule_json);
        assert_eq!(warm.entry.stats, cold.entry.stats);
        assert_eq!(svc.stats().compiles, 0, "no recompilation after restart");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Schedule blobs in a store directory.
    fn blobs_in(dir: &std::path::Path) -> usize {
        std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".schedule.json"))
            .count()
    }

    #[test]
    fn store_eviction_unlinks_blobs() {
        let dir = std::env::temp_dir().join(format!(
            "qpilot_pool_evict_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let stored_config = ServiceConfig {
            workers: 1,
            queue_capacity: 4,
            cache_capacity: 2,
            cache_shards: 1,
            store_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        };
        let svc = Service::new(stored_config.clone());
        for seed in 0..4 {
            svc.compile(CompileRequest::new(small_circuit(seed)))
                .unwrap();
        }
        let store = svc.store_stats();
        assert_eq!(store.persisted, 4);
        assert_eq!(store.removed, 2);
        assert_eq!(store.entries, 2);
        assert_eq!(store.bytes, svc.stats().cache_bytes);
        drop(svc);
        assert_eq!(
            blobs_in(&dir),
            2,
            "store mirrors the capacity-bounded cache"
        );

        // A smaller cache on restart: the replay evicts, and unlinks, the
        // older blob.
        let svc = Service::new(ServiceConfig {
            cache_capacity: 1,
            ..stored_config
        });
        let store = svc.store_stats();
        assert_eq!(store.recovery.loaded, 2);
        assert_eq!(store.removed, 1);
        assert_eq!(store.entries, 1);
        drop(svc);
        assert_eq!(blobs_in(&dir), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_blob_written_after_its_eviction_is_not_left_behind() {
        // X's blob write is held 300 ms. Y compiles on the other worker
        // meanwhile and takes the cache's one slot; whichever insert
        // comes second evicts the other entry, whose blob must go too.
        // The sleep only lines Y up inside X's write, where an insert
        // made before the write lost the blob; the mirror must hold in
        // any order.
        let dir = std::env::temp_dir().join(format!(
            "qpilot_pool_late_blob_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let svc = Service::new(ServiceConfig {
            workers: 2,
            queue_capacity: 4,
            cache_capacity: 1,
            cache_shards: 1,
            store_dir: Some(dir.clone()),
            faults: FaultSpec::parse("store-write-delay=300:1").unwrap(),
            ..ServiceConfig::default()
        });
        let x = {
            let svc = svc.clone();
            std::thread::spawn(move || svc.compile(CompileRequest::new(small_circuit(0))))
        };
        std::thread::sleep(Duration::from_millis(100));
        svc.compile(CompileRequest::new(small_circuit(1))).unwrap();
        x.join().unwrap().unwrap();
        let cached = svc.stats().cache_entries;
        assert_eq!(cached, 1);
        assert_eq!(
            blobs_in(&dir),
            cached,
            "the store holds what the cache does"
        );
        assert_eq!(svc.store_stats().removed, 1);
        drop(svc);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deadline_misses_are_reported_and_do_not_wedge_the_pool() {
        // One worker, wedged 300 ms by an injected stall; a 50 ms
        // deadline must come back as `Deadline` long before the stall
        // clears, and the pool must stay healthy afterwards.
        let svc = Service::new(ServiceConfig {
            workers: 1,
            faults: FaultSpec::parse("worker-stall=300:1").unwrap(),
            ..config()
        });
        let started = Instant::now();
        let err = svc
            .compile(CompileRequest::new(small_circuit(0)).with_deadline_ms(50))
            .unwrap_err();
        assert_eq!(err, ServiceError::Deadline { deadline_ms: 50 });
        assert!(
            started.elapsed() < Duration::from_millis(250),
            "the submitter must not wait out the stall"
        );
        assert!(svc.stats().deadline_misses >= 1);
        // The stalled worker recovers; fresh work compiles fine.
        assert!(svc.compile(CompileRequest::new(small_circuit(1))).is_ok());
    }

    #[test]
    fn server_side_cap_bounds_every_request() {
        let svc = Service::new(ServiceConfig {
            workers: 1,
            max_compile_ms: Some(40),
            faults: FaultSpec::parse("worker-stall=300:1").unwrap(),
            ..config()
        });
        // No client deadline: the server cap still applies.
        let err = svc
            .compile(CompileRequest::new(small_circuit(2)))
            .unwrap_err();
        assert_eq!(err, ServiceError::Deadline { deadline_ms: 40 });
    }

    #[test]
    fn an_expired_deadline_fails_immediately() {
        let svc = service();
        let err = svc
            .compile(CompileRequest::new(small_circuit(3)).with_deadline_ms(0))
            .unwrap_err();
        assert_eq!(err, ServiceError::Deadline { deadline_ms: 0 });
    }

    /// Returns once a compile is in flight: `drain(Duration::ZERO)` is
    /// `false` exactly while the in-flight map holds an entry.
    fn wait_until_in_flight(svc: &Service) {
        let give_up = Instant::now() + Duration::from_secs(10);
        while svc.drain(Duration::ZERO) {
            assert!(Instant::now() < give_up, "no compile went in flight");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_waiter_behind_a_stalled_leader_shares_its_compile() {
        // The leader's worker stalls 200 ms (once). The second worker is
        // idle, yet the waiter attaches to the leader's compile: routing
        // is deterministic, so a second compile could only redo it.
        let svc = Service::new(ServiceConfig {
            workers: 2,
            faults: FaultSpec::parse("worker-stall=200:1").unwrap(),
            ..config()
        });
        let request = CompileRequest::new(small_circuit(4));
        let leader = {
            let svc = svc.clone();
            let request = request.clone();
            std::thread::spawn(move || svc.compile(request))
        };
        wait_until_in_flight(&svc);
        let waiter = svc.compile(request).expect("coalesced waiter");
        let leader = leader.join().unwrap().expect("stalled leader");
        assert_eq!(leader.path(), "miss");
        assert_eq!(waiter.path(), "coalesced");
        assert_eq!(leader.entry.schedule_json, waiter.entry.schedule_json);
        let stats = svc.stats();
        assert_eq!(stats.compiles, 1, "one compile per fingerprint");
        assert_eq!(stats.coalesced, 1);
    }

    #[test]
    fn a_waiter_that_outlives_its_leaders_deadline_leads_a_new_compile() {
        // The leader's 50 ms deadline lapses during a 200 ms stall. Its
        // waiter has no deadline: it inherits the leader's deadline error
        // from the broadcast, re-submits, and compiles as a leader.
        let svc = Service::new(ServiceConfig {
            workers: 2,
            faults: FaultSpec::parse("worker-stall=200:1").unwrap(),
            ..config()
        });
        let request = CompileRequest::new(small_circuit(5));
        let leader = {
            let svc = svc.clone();
            let request = request.clone().with_deadline_ms(50);
            std::thread::spawn(move || svc.compile(request))
        };
        wait_until_in_flight(&svc);
        let waiter = svc.compile(request).expect("re-led waiter");
        let leader = leader.join().unwrap().unwrap_err();
        assert_eq!(leader, ServiceError::Deadline { deadline_ms: 50 });
        assert_eq!(waiter.path(), "miss");
        let stats = svc.stats();
        assert_eq!(stats.compiles, 1, "the expired job never routed");
        assert_eq!(stats.coalesced, 1);
        assert_eq!(stats.deadline_misses, 1, "only the leader's own miss");
    }

    #[test]
    fn overload_shedding_carries_a_backoff_hint() {
        // One worker wedged long enough to fill the depth-1 queue: the
        // third cold request must shed with a clamped retry hint.
        let svc = Service::new(ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            faults: FaultSpec::parse("worker-stall=250:2").unwrap(),
            ..config()
        });
        let background: Vec<_> = (0..2)
            .map(|seed| {
                let svc = svc.clone();
                std::thread::spawn(move || svc.compile(CompileRequest::new(small_circuit(seed))))
            })
            .collect();
        // Wait for the worker to hold one job and the queue the other.
        std::thread::sleep(Duration::from_millis(100));
        match svc.try_compile(CompileRequest::new(small_circuit(7))) {
            Err(ServiceError::Overloaded { retry_after_ms }) => {
                assert!((25..=2000).contains(&retry_after_ms));
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert!(svc.stats().shed >= 1);
        for h in background {
            h.join().unwrap().expect("queued work still completes");
        }
    }

    #[test]
    fn draining_serves_hits_and_rejects_misses() {
        let svc = service();
        let warm = CompileRequest::new(small_circuit(5));
        svc.compile(warm.clone()).unwrap();
        assert!(!svc.stats().draining);
        svc.begin_drain();
        assert!(svc.is_draining());
        // Rung 0 survives the drain; new work does not.
        assert!(svc.compile(warm).unwrap().cache_hit);
        assert!(matches!(
            svc.compile(CompileRequest::new(small_circuit(6))),
            Err(ServiceError::ShuttingDown)
        ));
        assert!(svc.stats().draining);
        assert!(svc.drain(Duration::from_secs(1)), "nothing in flight");
    }

    #[test]
    fn drain_waits_for_accepted_work() {
        let svc = Service::new(ServiceConfig {
            workers: 1,
            faults: FaultSpec::parse("worker-stall=150:1").unwrap(),
            ..config()
        });
        let inflight = {
            let svc = svc.clone();
            std::thread::spawn(move || svc.compile(CompileRequest::new(small_circuit(8))))
        };
        std::thread::sleep(Duration::from_millis(50));
        svc.begin_drain();
        assert!(
            !svc.drain(Duration::from_millis(10)),
            "stalled work is still in flight"
        );
        assert!(svc.drain(Duration::from_secs(2)), "then it drains clean");
        inflight.join().unwrap().expect("accepted work is answered");
    }

    #[test]
    fn poisoned_compile_is_contained_and_retry_succeeds() {
        let svc = Service::new(ServiceConfig {
            workers: 1,
            faults: FaultSpec::parse("poison-compile:1").unwrap(),
            ..config()
        });
        let request = CompileRequest::new(small_circuit(9));
        match svc.compile(request.clone()) {
            Err(ServiceError::Internal(m)) => assert!(m.contains("injected fault")),
            other => panic!("expected Internal, got {other:?}"),
        }
        let retry = svc.compile(request).expect("retry after poison");
        assert!(!retry.cache_hit);
        assert_eq!(svc.stats().compiles, 1);
    }

    #[test]
    fn deadline_is_not_part_of_the_fingerprint() {
        let plain = CompileRequest::new(small_circuit(1));
        let tight = plain.clone().with_deadline_ms(5);
        assert_eq!(plain.fingerprint(), tight.fingerprint());
    }

    #[test]
    fn request_id_is_not_part_of_the_fingerprint() {
        let plain = CompileRequest::new(small_circuit(1));
        let tagged = plain.clone().with_request_id("r-test");
        assert_eq!(plain.fingerprint(), tagged.fingerprint());
        assert_eq!(tagged.request_id.as_deref(), Some("r-test"));
    }

    #[test]
    fn response_paths_follow_the_precedence_order() {
        let svc = service();
        let cold = svc.compile(CompileRequest::new(small_circuit(9))).unwrap();
        assert_eq!(cold.path(), "miss");
        let warm = svc.compile(CompileRequest::new(small_circuit(9))).unwrap();
        assert_eq!(warm.path(), "hit");
        let mut synthetic = warm.clone();
        synthetic.coalesced = true;
        synthetic.cache_hit = false;
        assert_eq!(synthetic.path(), "coalesced");
    }

    #[test]
    fn shutdown_joins_workers() {
        let svc = service();
        svc.compile(CompileRequest::new(small_circuit(5))).unwrap();
        drop(svc); // must not hang
    }
}
