//! The traced run: the same seeded inputs replayed in-process, with a
//! span around each of the benchmark's own calls into a layer's public
//! functions. No library code is instrumented.
//!
//! * **Request path.** A [`ReactorServer`] whose [`LineHandler`] is the
//!   chain `protocol::parse_request` → `Service::try_compile` →
//!   `protocol::render_compile_response` (the calls `handle_line`
//!   makes), with a span around each, driven by the same closed loop.
//! * **Split.** The first [`SPLIT`] requests are re-run serially through
//!   `json::parse`, `CompileRequest::fingerprint`, `ScheduleCache::get`
//!   and, for misses, `decompose::to_cz_basis_cow`, `Compiler::compile`,
//!   `wire::schedule_to_json` and `ScheduleStore::persist` on a scratch
//!   store, splitting the pool's span into layers.
//! * **Recovery.** `ScheduleStore::open_with` on the warm store, and
//!   `wire::schedule_from_json` on each recovered blob.
//!
//! Spans are kept in memory and written out when the run ends. A layer's
//! self time is its span minus the time its child spans cover.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use qpilot_circuit::decompose::to_cz_basis_cow;
use qpilot_core::compile::{CompileOptions, Compiler, Workload};
use qpilot_core::json;
use qpilot_core::wire::{schedule_from_json, schedule_to_json};
use qpilot_service::protocol::{
    handle_line, parse_request, render_compile_response, render_service_error, Handled, Request,
};
use qpilot_service::{
    CacheEntry, LineHandler, ReactorOptions, ReactorServer, ScheduleCache, ScheduleStore, Service,
    ServiceConfig, StoreOptions,
};

use crate::gen::{index_of, Kind, Lines};
use crate::net::{closed_loop, compile_reply, Phase, PARTS};
use crate::stats::{mean, percentile};
use crate::Metric;

/// Requests re-run serially to split the pool's span into layers.
const SPLIT: usize = 300;

/// Span ids of the recovery pass (request ids are request indices).
const RECOVERY: u64 = u64::MAX;

/// One timed call.
#[derive(Debug, Clone, Copy)]
struct Span {
    request: u64,
    name: &'static str,
    parent: Option<&'static str>,
    start_ns: u64,
    dur_ns: u64,
}

/// Spans in memory until the run ends.
struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    fn push(
        &self,
        request: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start: Instant,
        dur: Duration,
    ) {
        let span = Span {
            request,
            name,
            parent,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
        };
        self.spans.lock().expect("span lock").push(span);
    }

    /// Times `f` as span `name` of `request`.
    fn time<T>(
        &self,
        request: u64,
        name: &'static str,
        parent: Option<&'static str>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let value = f();
        self.push(request, name, parent, start, start.elapsed());
        value
    }
}

/// What the traced run needs from the untraced one.
pub struct Context<'a> {
    /// The workload.
    pub kind: Kind,
    /// Its seed.
    pub seed: u64,
    /// The closed loop's window.
    pub window: Duration,
    /// The request lines the untraced run sent.
    pub lines: &'a Lines,
    /// Scratch directory of this run.
    pub run_dir: &'a Path,
    /// The warm store and the schedule bytes that filled it.
    pub warm: Option<(&'a Path, &'a [Vec<u8>])>,
    /// The untraced run's client p50.
    pub untraced_p50_ms: f64,
    /// The untraced run's `setup_s`.
    pub setup_s: f64,
    /// Where spans are written at the end.
    pub spans_out: &'a Path,
}

/// The traced run's results.
pub struct Traced {
    /// Every per-layer metric that comes from spans.
    pub metrics: Vec<Metric>,
    /// Requests attempted and failed in the traced closed loop.
    pub attempted: usize,
    /// Failure reasons in the traced closed loop.
    pub failures: Vec<String>,
}

fn ms(ns: u64) -> f64 {
    ns as f64 * 1e-6
}

/// Runs the traced replay and returns its metrics.
pub fn run(cx: &Context<'_>) -> Result<Traced, String> {
    let recorder = Arc::new(Recorder {
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
    });
    let store_dir = cx.run_dir.join("traced-store");
    if let Some((warm_store, _)) = cx.warm {
        copy_dir(warm_store, &store_dir)?;
    }
    // The daemon's default configuration on its own store.
    let service = Service::try_new(ServiceConfig {
        store_dir: Some(store_dir),
        ..ServiceConfig::default()
    })
    .map_err(|e| format!("cannot open the traced store: {e}"))?;
    let paths: Arc<Mutex<HashMap<u64, &'static str>>> = Arc::default();
    let handler: LineHandler = {
        let recorder = Arc::clone(&recorder);
        let paths = Arc::clone(&paths);
        let service = service.clone();
        Arc::new(move |line: &str| traced_line(&service, &recorder, &paths, line.trim()))
    };
    let server = ReactorServer::spawn("127.0.0.1:0", ReactorOptions::default(), handler)
        .map_err(|e| format!("cannot start the traced server: {e}"))?;
    let (kind, seed) = (cx.kind, cx.seed);
    let check = |i: u64, reply: &[u8]| {
        let reply = compile_reply(reply, &kind.request_id(i))?;
        if let Some((_, expected)) = cx.warm {
            if reply.path != "hit"
                || reply.schedule != expected[(i % expected.len() as u64) as usize]
            {
                return Err("warm request was not a byte-identical hit".to_string());
            }
        }
        Ok(())
    };
    let phase = Phase {
        window: cx.window,
        parts: PARTS,
        first: 0,
    };
    let run = closed_loop(
        server.local_addr(),
        crate::CONNECTIONS,
        phase,
        cx.lines,
        &check,
    );
    server.shutdown();
    let failures: Vec<String> = run
        .warmup
        .iter()
        .chain(&run.samples)
        .filter_map(|s| s.failure.clone())
        .collect();
    let client: BTreeMap<u64, (u64, usize)> = run
        .samples
        .iter()
        .filter(|s| s.failure.is_none())
        .map(|s| (s.index, (s.latency_ns, s.reply_bytes)))
        .collect();
    let paths = paths.lock().expect("path lock").clone();

    // The split: the first SPLIT answered requests, serially.
    let split: Vec<u64> = client.keys().copied().take(SPLIT).collect();
    let cache = ScheduleCache::new(
        ServiceConfig::default().cache_capacity,
        ServiceConfig::default().cache_shards,
    );
    let mut recovered_kb = Vec::new();
    let mut recover_s = 0.0;
    if let Some((warm_store, _)) = cx.warm {
        let started = Instant::now();
        let opened = ScheduleStore::open_with(warm_store, StoreOptions::default());
        let elapsed = started.elapsed();
        recorder.push(RECOVERY, "store.recover", None, started, elapsed);
        recover_s = elapsed.as_secs_f64();
        let (_store, entries) = opened.map_err(|e| format!("cannot reopen the warm store: {e}"))?;
        for entry in entries {
            let parsed = recorder.time(RECOVERY, "wire.deserialise", Some("store.recover"), || {
                schedule_from_json(&entry.entry.schedule_json)
            });
            parsed.map_err(|e| format!("recovered blob does not parse: {e}"))?;
            recovered_kb.push(entry.entry.schedule_json.len() as f64 / 1024.0);
            cache.insert(entry.fingerprint, entry.entry);
        }
    }
    let scratch = cx.run_dir.join("split-store");
    let (scratch, _) = ScheduleStore::open(&scratch).map_err(|e| format!("scratch store: {e}"))?;
    let mut compiler = Compiler::new();
    let mut stages = Vec::new();
    let mut schedule_kb = Vec::new();
    for &i in &split {
        let pool = paths.get(&i).copied().unwrap_or("pool.error");
        let line = kind.input(seed, i).line(&kind.request_id(i));
        let doc = recorder.time(i, "json.parse", Some("protocol.parse"), || {
            json::parse(&line)
        });
        doc.map_err(|e| format!("request {i} does not parse: {e}"))?;
        let Ok(Request::Compile { request, .. }) = parse_request(&line) else {
            return Err(format!("request {i} is not a compile request"));
        };
        let fp = recorder.time(i, "fingerprint", Some(pool), || request.fingerprint());
        let probed = recorder.time(i, "cache.probe", Some(pool), || cache.get(&fp));
        if pool != "pool.miss" || probed.is_some() {
            continue;
        }
        let compile_span = compile_span(&request.workload);
        if let Workload::Generic(circuit) = &request.workload {
            recorder.time(i, "decompose", Some(compile_span), || {
                to_cz_basis_cow(circuit).len()
            });
        }
        let config = request.config();
        compiler.set_options(CompileOptions {
            router_options: request.options,
            ..CompileOptions::new()
        });
        let started = Instant::now();
        let program = recorder
            .time(i, compile_span, Some(pool), || {
                compiler.compile(&request.workload, &config)
            })
            .map_err(|e| format!("request {i} does not compile: {e}"))?
            .into_program();
        let schedule_json = recorder.time(i, "wire.serialise", Some(pool), || {
            schedule_to_json(program.schedule())
        });
        stages.push(program.schedule().num_stages() as f64);
        schedule_kb.push(schedule_json.len() as f64 / 1024.0);
        let entry = CacheEntry {
            schedule_json: schedule_json.into(),
            stats: *program.stats(),
            compile_s: started.elapsed().as_secs_f64(),
        };
        recorder.time(i, "store.persist", Some(pool), || {
            scratch.persist(fp, &entry)
        });
        if let Some(evicted) = cache.insert(fp, Arc::new(entry)) {
            scratch.remove(&evicted);
        }
    }
    if cx.warm.is_some() {
        schedule_kb = recovered_kb;
    }

    let spans = std::mem::take(&mut *recorder.spans.lock().expect("span lock"));
    write_spans(cx.spans_out, &spans)?;
    let by_request = group(&spans);
    let durs = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| ms(s.dur_ns))
            .collect()
    };

    // Request-path metrics over every traced request.
    let mut overhead = Vec::new();
    let mut unattributed = Vec::new();
    let mut latencies = Vec::new();
    for (&i, &(latency_ns, _)) in &client {
        let Some(spans) = by_request.get(&i) else {
            continue;
        };
        let handler = spans
            .iter()
            .find(|s| s.name == "handler")
            .map_or(0, |s| s.dur_ns);
        let children: u64 = spans
            .iter()
            .filter(|s| s.parent == Some("handler"))
            .map(|s| s.dur_ns)
            .sum();
        overhead.push(ms(latency_ns.saturating_sub(handler)));
        unattributed
            .push(100.0 * handler.saturating_sub(children) as f64 / latency_ns.max(1) as f64);
        latencies.push(ms(latency_ns));
    }
    unattributed.sort_by(f64::total_cmp);
    latencies.sort_by(f64::total_cmp);
    let traced_p50 = percentile(&latencies, 0.5).unwrap_or(0.0);

    // The split's layer table over the split requests.
    let table = layer_table(&split, &client, &by_request);
    print_table(cx, &table, recover_s);
    let queue_wait: Vec<f64> = split
        .iter()
        .filter(|i| paths.get(i) == Some(&"pool.miss"))
        .filter_map(|i| {
            table
                .per_request
                .get(i)
                .and_then(|layers| layers.get("pool"))
                .copied()
        })
        .collect();
    let compile_ms = |tag: &str| mean(&durs(tag));
    let reply_kb: Vec<f64> = client.values().map(|&(_, b)| b as f64 / 1024.0).collect();
    let metrics = vec![
        Metric::new("reactor.overhead_ms", mean(&overhead), "ms"),
        Metric::new("reactor.reply_kb", mean(&reply_kb), "KiB"),
        Metric::new("protocol.parse_ms", mean(&durs("protocol.parse")), "ms"),
        Metric::new("json.parse_ms", mean(&durs("json.parse")), "ms"),
        Metric::new("protocol.render_ms", mean(&durs("protocol.render")), "ms"),
        Metric::new("pool.hit_ms", mean(&durs("pool.hit")), "ms"),
        Metric::new("pool.miss_ms", mean(&durs("pool.miss")), "ms"),
        Metric::new("pool.queue_wait_ms", mean(&queue_wait), "ms"),
        Metric::new("fingerprint.us", 1e3 * mean(&durs("fingerprint")), "us"),
        Metric::new("cache.probe_us", 1e3 * mean(&durs("cache.probe")), "us"),
        Metric::new("decompose.ms", mean(&durs("decompose")), "ms"),
        Metric::new("compile.generic_ms", compile_ms("compile.generic"), "ms"),
        Metric::new("compile.qaoa_ms", compile_ms("compile.qaoa"), "ms"),
        Metric::new("compile.qsim_ms", compile_ms("compile.qsim"), "ms"),
        Metric::new("compile.qec_ms", compile_ms("compile.qec"), "ms"),
        Metric::new("compile.stages", mean(&stages), "stages"),
        Metric::new("wire.serialise_ms", mean(&durs("wire.serialise")), "ms"),
        Metric::new("wire.schedule_kb", mean(&schedule_kb), "KiB"),
        Metric::new("wire.deserialise_ms", mean(&durs("wire.deserialise")), "ms"),
        Metric::new("store.persist_ms", mean(&durs("store.persist")), "ms"),
        Metric::new("store.recover_s", recover_s, "s"),
        Metric::new(
            "trace.unattributed_pct.p50",
            percentile(&unattributed, 0.50).unwrap_or(0.0),
            "%",
        ),
        Metric::new(
            "trace.unattributed_pct.p99",
            percentile(&unattributed, 0.99).unwrap_or(0.0),
            "%",
        ),
        Metric::new(
            "trace.overhead_pct",
            100.0 * (traced_p50 / cx.untraced_p50_ms - 1.0),
            "%",
        ),
    ];
    println!(
        "traced: {} requests, client p50 {traced_p50:.3} ms (untraced {:.3} ms), unattributed p50 {:.2}% p99 {:.2}% over {} samples ({} beyond p99)",
        latencies.len(),
        cx.untraced_p50_ms,
        percentile(&unattributed, 0.50).unwrap_or(0.0),
        percentile(&unattributed, 0.99).unwrap_or(0.0),
        unattributed.len(),
        crate::stats::beyond(unattributed.len(), 0.99),
    );
    Ok(Traced {
        metrics,
        attempted: run.warmup.len() + run.samples.len(),
        failures,
    })
}

/// The benchmark's own chain of the calls `handle_line` makes, with a
/// span around each.
fn traced_line(
    service: &Service,
    recorder: &Recorder,
    paths: &Mutex<HashMap<u64, &'static str>>,
    line: &str,
) -> Handled {
    let started = Instant::now();
    let parsed = {
        let start = Instant::now();
        let parsed = parse_request(line);
        (parsed, start, start.elapsed())
    };
    let (
        Ok(Request::Compile {
            request,
            include_schedule,
        }),
        parse_start,
        parse_dur,
    ) = parsed
    else {
        return handle_line(service, line);
    };
    let rid = request.request_id.clone().unwrap_or_default();
    let Some(i) = index_of(&rid) else {
        return handle_line(service, line);
    };
    let pool_start = Instant::now();
    let result = service.try_compile(request);
    let pool_dur = pool_start.elapsed();
    let pool: &'static str = match &result {
        Ok(r) if r.cache_hit => "pool.hit",
        Ok(r) if r.coalesced => "pool.coalesced",
        Ok(_) => "pool.miss",
        Err(_) => "pool.error",
    };
    let render_start = Instant::now();
    let response = match &result {
        Ok(r) => render_compile_response(r, include_schedule, &rid),
        Err(e) => render_service_error(e, &rid),
    };
    let render_dur = render_start.elapsed();
    recorder.push(i, "handler", Some("client"), started, started.elapsed());
    recorder.push(i, "protocol.parse", Some("handler"), parse_start, parse_dur);
    recorder.push(i, pool, Some("handler"), pool_start, pool_dur);
    recorder.push(
        i,
        "protocol.render",
        Some("handler"),
        render_start,
        render_dur,
    );
    paths.lock().expect("path lock").insert(i, pool);
    Handled {
        response,
        shutdown: false,
    }
}

fn compile_span(workload: &Workload) -> &'static str {
    match workload {
        Workload::Generic(_) => "compile.generic",
        Workload::Qsim(_) => "compile.qsim",
        Workload::Qaoa(_) => "compile.qaoa",
        Workload::Qec(_) => "compile.qec",
    }
}

fn group(spans: &[Span]) -> HashMap<u64, Vec<Span>> {
    let mut by_request: HashMap<u64, Vec<Span>> = HashMap::new();
    for s in spans {
        by_request.entry(s.request).or_default().push(*s);
    }
    by_request
}

/// The layer a span's self time is reported under.
fn layer(name: &str) -> &str {
    if name.starts_with("compile.") {
        "compile"
    } else if name.starts_with("pool.") {
        "pool"
    } else if name == "client" {
        "reactor"
    } else if name == "handler" {
        "unattributed"
    } else {
        name
    }
}

struct LayerTable {
    /// Mean self time per request, by layer.
    mean_ms: BTreeMap<&'static str, f64>,
    /// Mean client latency of the split requests.
    latency_ms: f64,
    /// Self time by layer, per split request.
    per_request: HashMap<u64, BTreeMap<&'static str, f64>>,
}

const LAYERS: [&str; 12] = [
    "reactor",
    "protocol.parse",
    "json.parse",
    "pool",
    "fingerprint",
    "cache.probe",
    "decompose",
    "compile",
    "wire.serialise",
    "store.persist",
    "protocol.render",
    "unattributed",
];

fn layer_table(
    split: &[u64],
    client: &BTreeMap<u64, (u64, usize)>,
    by_request: &HashMap<u64, Vec<Span>>,
) -> LayerTable {
    let mut per_request = HashMap::new();
    let mut sums: BTreeMap<&'static str, f64> = LAYERS.iter().map(|l| (*l, 0.0)).collect();
    let mut latency = 0.0;
    for &i in split {
        let mut spans = by_request.get(&i).cloned().unwrap_or_default();
        let latency_ns = client[&i].0;
        spans.push(Span {
            request: i,
            name: "client",
            parent: None,
            start_ns: 0,
            dur_ns: latency_ns,
        });
        let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in &spans {
            let children: u64 = spans
                .iter()
                .filter(|c| c.parent == Some(s.name))
                .map(|c| c.dur_ns)
                .sum();
            let name = LAYERS
                .iter()
                .find(|l| **l == layer(s.name))
                .copied()
                .unwrap_or("unattributed");
            *layers.entry(name).or_default() += ms(s.dur_ns.saturating_sub(children));
        }
        for (name, v) in &layers {
            *sums.entry(name).or_default() += v;
        }
        latency += ms(latency_ns);
        per_request.insert(i, layers);
    }
    let n = split.len().max(1) as f64;
    LayerTable {
        mean_ms: sums.into_iter().map(|(k, v)| (k, v / n)).collect(),
        latency_ms: latency / n,
        per_request,
    }
}

fn print_table(cx: &Context<'_>, table: &LayerTable, recover_s: f64) {
    println!(
        "layer self time per request over the first {} requests (mean client latency {:.3} ms):",
        SPLIT, table.latency_ms
    );
    for name in LAYERS {
        let v = table.mean_ms.get(name).copied().unwrap_or(0.0);
        println!(
            "  {name:<16} {v:>9.4} ms  {:>5.1}%",
            100.0 * v / table.latency_ms.max(f64::MIN_POSITIVE)
        );
    }
    let get = |name: &str| table.mean_ms.get(name).copied().unwrap_or(0.0);
    let routing = get("compile") + get("decompose");
    let parse = get("protocol.parse") + get("json.parse");
    match cx.kind {
        Kind::ColdStructured => {
            // The layers the workloads are built to weigh against each
            // other. The pool row is waiting, not work: its children are
            // timed serially, so it also holds the contention of the
            // concurrent replay.
            let work = [
                ("routing", routing),
                ("parse", parse),
                ("serialise", get("wire.serialise")),
                ("transport", get("reactor")),
                ("store", get("store.persist")),
            ];
            let (largest, ms) = work
                .iter()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("work layers");
            println!(
                "purpose: largest work layer is {largest} at {ms:.3} ms (routing expected); pool wait {:.3} ms",
                get("pool")
            );
        }
        Kind::ColdRandom => {
            let other = get("wire.serialise") + parse + get("reactor");
            println!(
                "purpose: serialise + parse + transport {other:.3} ms vs routing {routing:.3} ms ({})",
                if other > routing { "outweigh, as expected" } else { "do NOT outweigh" }
            );
        }
        Kind::WarmRestart => {
            println!(
                "purpose: routing {routing:.3} ms and serialise {:.3} ms per request (none expected); store recovery {recover_s:.3} s of setup {:.3} s ({:.0}%)",
                get("wire.serialise"),
                cx.setup_s,
                100.0 * recover_s / cx.setup_s
            );
        }
    }
}

fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        out.push_str(&format!(
            "{{\"request\":{},\"name\":\"{}\",\"parent\":{},\"start_us\":{:.3},\"dur_us\":{:.3}}}\n",
            if s.request == RECOVERY { -1 } else { s.request as i64 },
            s.name,
            s.parent.map_or("null".to_string(), |p| format!("\"{p}\"")),
            s.start_ns as f64 * 1e-3,
            s.dur_ns as f64 * 1e-3,
        ));
    }
    std::fs::write(path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}
