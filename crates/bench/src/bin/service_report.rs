//! Compilation-service benchmark: measures the content-addressed cache's
//! warm/cold ratio, restart persistence, exact coalescing, burst
//! behaviour under concurrent TCP clients, and compile-latency
//! percentiles, then writes `BENCH_service.json`
//! (schema `qpilot.bench.service/v1`).
//!
//! ```text
//! service_report [--qubits 100] [--factor 10] [--reps 5] [--clients 32]
//!                [--per-client 4] [--racers 8] [--workers N]
//!                [--sustained-conns 256] [--sustained-per-conn 8]
//!                [--out BENCH_service.json]
//! ```
//!
//! Measurements (all through the service boundary, so cold includes
//! compile + canonical serialisation + cache insert, and warm includes
//! fingerprinting + lookup):
//!
//! * **cold** — median cold-cache request over `--reps` distinct seeds;
//! * **warm** — median warm-cache repeat of one request;
//! * **identical** — byte equality of the cold response's schedule JSON
//!   and every warm repeat's;
//! * **restart** — compile against a `--store` directory, tear the
//!   service down, open a fresh service on the same store, and repeat
//!   the request: it must be a disk-recovered warm hit with
//!   byte-identical schedule JSON;
//! * **coalescing** — `--racers` threads race one cold fingerprint;
//!   exactly one compile may run (`duplicate_compiles` must be 0) and
//!   every response must carry the same bytes;
//! * **burst** — `--clients` concurrent TCP connections each sending
//!   `--per-client` compile requests (half shared, half distinct);
//!   `dropped` counts requests without an `"ok":true` response and the
//!   run fails if it is non-zero;
//! * **resilience** — a drain started under concurrent compile load:
//!   every accepted request must still get a definitive answer
//!   (`hung_waiters` must be 0) and the pool must go idle within the
//!   drain budget (`drain_ms`);
//! * **sustained** — `--sustained-conns` (256 by default) TCP
//!   connections held open *simultaneously* against one reactor-backed
//!   server, each sending `--sustained-per-conn` requests; the section
//!   reports aggregate throughput and per-request p50/p90/p99 latency,
//!   and the run fails on any dropped request. This is the gate that a
//!   thread-per-connection transport cannot pass without hundreds of
//!   threads — the reactor serves all connections from one event loop.
//!
//! CI smoke: `--qubits 10 --factor 3 --reps 2 --clients 4 --per-client 2`.
//!
//! With `--check <thresholds.json>` the freshly-written report is gated
//! against `qpilot.bench.thresholds/v1` (see `qpilot_bench::check`): a
//! warm/cold or restart-warm speedup below its floor, non-identical
//! schedules, duplicate coalesced compiles, or any dropped burst request
//! exits non-zero and fails the CI build.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use qpilot_bench::{arg_num, arg_value, check, Table};
use qpilot_core::par::default_threads;
use qpilot_service::metrics::REQUEST_PATHS;
use qpilot_service::protocol::{circuit_to_value_json, compile_request_line};
use qpilot_service::{serve_tcp, CompileRequest, ReactorOptions, Service, ServiceConfig};
use qpilot_workloads::random::{random_circuit, RandomCircuitConfig};

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

struct WarmCold {
    cold_s: f64,
    warm_s: f64,
    identical: bool,
    schedule_bytes: usize,
}

/// Measures cold and warm request latency through `Service::compile`.
fn bench_warm_cold(service: &Service, qubits: u32, factor: usize, reps: usize) -> WarmCold {
    let reps = reps.max(1);
    // Cold: distinct seeds, each unseen by the cache.
    let cold_samples: Vec<f64> = (0..reps)
        .map(|seed| {
            let circuit = random_circuit(&RandomCircuitConfig::paper(
                qubits,
                factor,
                1000 + seed as u64,
            ));
            let request = CompileRequest::new(circuit);
            let t = Instant::now();
            let response = service.compile(request).expect("cold compile");
            let dt = t.elapsed().as_secs_f64();
            assert!(!response.cache_hit, "seed must be cold");
            dt
        })
        .collect();

    // Warm: one request, repeated. The circuit is rebuilt per repeat so
    // the measurement includes client-side fingerprinting of a fresh
    // allocation, exactly like a real repeated request.
    let make = || {
        CompileRequest::new(random_circuit(&RandomCircuitConfig::paper(
            qubits, factor, 999,
        )))
    };
    let baseline = service.compile(make()).expect("warm-up compile");
    assert!(!baseline.cache_hit);
    let mut identical = true;
    let warm_samples: Vec<f64> = (0..reps.max(3))
        .map(|_| {
            let request = make();
            let t = Instant::now();
            let response = service.compile(request).expect("warm compile");
            let dt = t.elapsed().as_secs_f64();
            assert!(response.cache_hit, "repeat must hit");
            identical &= response.entry.schedule_json == baseline.entry.schedule_json;
            dt
        })
        .collect();

    WarmCold {
        cold_s: median(cold_samples),
        warm_s: median(warm_samples),
        identical,
        schedule_bytes: baseline.entry.schedule_json.len(),
    }
}

struct RestartResult {
    cold_s: f64,
    warm_s: f64,
    identical: bool,
    store_loaded: u64,
    /// The reopened store's recovery pass, as the store timed it.
    recover_s: f64,
}

/// Compiles against a persistent store, restarts the service on the same
/// directory, and measures the disk-recovered warm repeat.
fn bench_restart(config: &ServiceConfig, qubits: u32, factor: usize, reps: usize) -> RestartResult {
    let dir = std::env::temp_dir().join(format!("qpilot_service_report_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let stored = ServiceConfig {
        store_dir: Some(dir.clone()),
        ..config.clone()
    };
    let make = || {
        CompileRequest::new(random_circuit(&RandomCircuitConfig::paper(
            qubits, factor, 4242,
        )))
    };

    let service = Service::new(stored.clone());
    let t = Instant::now();
    let cold = service.compile(make()).expect("restart cold compile");
    let cold_s = t.elapsed().as_secs_f64();
    assert!(!cold.cache_hit);
    drop(service);

    // A fresh service on the same directory must recover the working set
    // and serve the repeat from the recovered cache. Repeats re-fingerprint
    // a fresh circuit, exactly like the in-memory warm measurement.
    let service = Service::new(stored);
    let store_loaded = service.stats().store_loaded;
    let recover_s = service.store_stats().recovery.elapsed.as_secs_f64();
    let mut identical = true;
    let warm_samples: Vec<f64> = (0..reps.max(3))
        .map(|_| {
            let request = make();
            let t = Instant::now();
            let response = service.compile(request).expect("restart warm compile");
            let dt = t.elapsed().as_secs_f64();
            assert!(response.cache_hit, "restart repeat must hit");
            identical &= response.entry.schedule_json == cold.entry.schedule_json;
            dt
        })
        .collect();
    assert_eq!(service.stats().compiles, 0, "restart must not recompile");
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);

    RestartResult {
        cold_s,
        warm_s: median(warm_samples),
        identical,
        store_loaded,
        recover_s,
    }
}

struct CoalescingResult {
    racers: usize,
    compiles: u64,
    coalesced: u64,
    duplicate_compiles: u64,
    all_identical: bool,
}

/// Races `racers` threads on one cold fingerprint; the waiter map must
/// collapse them into exactly one compile.
fn bench_coalescing(config: &ServiceConfig, racers: usize, qubits: u32) -> CoalescingResult {
    let service = Service::new(config.clone());
    let barrier = Arc::new(Barrier::new(racers));
    let handles: Vec<_> = (0..racers)
        .map(|_| {
            let service = service.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let circuit = random_circuit(&RandomCircuitConfig::paper(qubits, 5, 777));
                let request = CompileRequest::new(circuit);
                barrier.wait();
                service.compile(request).expect("racing compile")
            })
        })
        .collect();
    let responses: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let all_identical = responses
        .iter()
        .all(|r| r.entry.schedule_json == responses[0].entry.schedule_json);
    let stats = service.stats();
    CoalescingResult {
        racers,
        compiles: stats.compiles,
        coalesced: stats.coalesced,
        duplicate_compiles: stats.compiles.saturating_sub(1),
        all_identical,
    }
}

struct BurstResult {
    clients: usize,
    per_client: usize,
    sent: usize,
    completed: usize,
    dropped: usize,
    wall_s: f64,
    throughput_rps: f64,
}

struct ResilienceResult {
    inflight_clients: usize,
    answered: usize,
    hung_waiters: usize,
    drain_ms: f64,
    drained_clean: bool,
}

/// Starts a drain while compiles are in flight: every request the
/// service accepted must still get a definitive answer (success or a
/// `shutting down` rejection — only silence counts as a hung waiter),
/// and the pool must go idle within the drain budget.
fn bench_resilience(config: &ServiceConfig, clients: usize, qubits: u32) -> ResilienceResult {
    let service = Service::new(config.clone());
    let clients = clients.max(2);
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let barrier = Arc::new(Barrier::new(clients + 1));
    for c in 0..clients {
        let service = service.clone();
        let done = done_tx.clone();
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            let circuit = random_circuit(&RandomCircuitConfig::paper(qubits, 3, 5000 + c as u64));
            let request = CompileRequest::new(circuit);
            barrier.wait();
            let _ = done.send(service.compile(request).is_ok());
        });
    }
    drop(done_tx);
    barrier.wait();
    // Let the burst reach the queue, then drain out from under it.
    std::thread::sleep(std::time::Duration::from_millis(5));
    service.begin_drain();
    let t = Instant::now();
    let drained_clean = service.drain(std::time::Duration::from_secs(30));
    let drain_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut answered = 0usize;
    while answered < clients {
        match done_rx.recv_timeout(std::time::Duration::from_secs(5)) {
            Ok(_) => answered += 1,
            Err(_) => break,
        }
    }
    ResilienceResult {
        inflight_clients: clients,
        answered,
        hung_waiters: clients - answered,
        drain_ms,
        drained_clean,
    }
}

/// Fires `clients` concurrent TCP connections at a fresh server, each
/// sending `per_client` compile requests, and counts completions.
fn bench_burst(service: Service, clients: usize, per_client: usize, qubits: u32) -> BurstResult {
    let server =
        serve_tcp(service, "127.0.0.1:0", ReactorOptions::default()).expect("bind loopback");
    let addr = server.local_addr();
    let sent = clients * per_client;
    let t = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || -> usize {
                let stream = match TcpStream::connect(addr) {
                    Ok(s) => s,
                    Err(_) => return 0,
                };
                let mut reader = BufReader::new(match stream.try_clone() {
                    Ok(s) => s,
                    Err(_) => return 0,
                });
                let mut writer = stream;
                let mut ok = 0usize;
                for r in 0..per_client {
                    // Even clients share one circuit (hits after the first
                    // compile); odd clients are all distinct (misses).
                    let seed = if c % 2 == 0 { 7 } else { (c * 100 + r) as u64 };
                    let circuit = random_circuit(&RandomCircuitConfig::paper(qubits, 3, seed));
                    let line = compile_request_line(
                        &circuit_to_value_json(&circuit),
                        None,
                        None,
                        None,
                        false,
                    );
                    if writer
                        .write_all(format!("{line}\n").as_bytes())
                        .and_then(|()| writer.flush())
                        .is_err()
                    {
                        break;
                    }
                    let mut response = String::new();
                    match reader.read_line(&mut response) {
                        Ok(n) if n > 0 => {
                            if response.contains("\"ok\":true") {
                                ok += 1;
                            }
                        }
                        _ => break,
                    }
                }
                ok
            })
        })
        .collect();
    let completed: usize = handles.into_iter().map(|h| h.join().unwrap_or(0)).sum();
    let wall_s = t.elapsed().as_secs_f64();
    server.shutdown();
    BurstResult {
        clients,
        per_client,
        sent,
        completed,
        dropped: sent - completed,
        wall_s,
        throughput_rps: completed as f64 / wall_s.max(1e-9),
    }
}

struct SustainedResult {
    connections: usize,
    per_connection: usize,
    sent: usize,
    completed: usize,
    dropped: usize,
    wall_s: f64,
    throughput_rps: f64,
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * q).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

/// Holds `connections` TCP connections open simultaneously against one
/// server and measures sustained request/response throughput plus
/// per-request latency percentiles. All connections are established
/// *before* the first request is sent (a barrier lines them up), so the
/// reactor really is juggling the full connection count at once.
fn bench_sustained(
    service: Service,
    connections: usize,
    per_connection: usize,
    qubits: u32,
) -> SustainedResult {
    let server =
        serve_tcp(service, "127.0.0.1:0", ReactorOptions::default()).expect("bind loopback");
    let addr = server.local_addr();
    let connections = connections.max(1);
    let per_connection = per_connection.max(1);
    let sent = connections * per_connection;
    let barrier = Arc::new(Barrier::new(connections + 1));
    let handles: Vec<_> = (0..connections)
        .map(|c| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || -> (usize, Vec<f64>) {
                let stream = match TcpStream::connect(addr) {
                    Ok(s) => s,
                    Err(_) => {
                        barrier.wait();
                        return (0, Vec::new());
                    }
                };
                let mut reader = BufReader::new(match stream.try_clone() {
                    Ok(s) => s,
                    Err(_) => {
                        barrier.wait();
                        return (0, Vec::new());
                    }
                });
                let mut writer = stream;
                barrier.wait();
                let mut ok = 0usize;
                let mut latencies_ms = Vec::with_capacity(per_connection);
                for r in 0..per_connection {
                    // Even connections share one circuit (cache hits
                    // after the first compile); odd ones are distinct.
                    let seed = if c % 2 == 0 {
                        11
                    } else {
                        (c * 1000 + r) as u64
                    };
                    let circuit = random_circuit(&RandomCircuitConfig::paper(qubits, 3, seed));
                    let line = compile_request_line(
                        &circuit_to_value_json(&circuit),
                        None,
                        None,
                        None,
                        false,
                    );
                    let t = Instant::now();
                    if writer
                        .write_all(format!("{line}\n").as_bytes())
                        .and_then(|()| writer.flush())
                        .is_err()
                    {
                        break;
                    }
                    let mut response = String::new();
                    match reader.read_line(&mut response) {
                        Ok(n) if n > 0 => {
                            latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                            if response.contains("\"ok\":true") {
                                ok += 1;
                            }
                        }
                        _ => break,
                    }
                }
                (ok, latencies_ms)
            })
        })
        .collect();
    barrier.wait();
    let t = Instant::now();
    let mut completed = 0usize;
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(sent);
    for handle in handles {
        let (ok, lats) = handle.join().unwrap_or((0, Vec::new()));
        completed += ok;
        latencies_ms.extend(lats);
    }
    let wall_s = t.elapsed().as_secs_f64();
    server.shutdown();
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    SustainedResult {
        connections,
        per_connection,
        sent,
        completed,
        dropped: sent - completed,
        wall_s,
        throughput_rps: completed as f64 / wall_s.max(1e-9),
        p50_ms: percentile(&latencies_ms, 0.50),
        p90_ms: percentile(&latencies_ms, 0.90),
        p99_ms: percentile(&latencies_ms, 0.99),
    }
}

fn main() {
    let qubits: u32 = arg_num("--qubits", 100);
    let factor: usize = arg_num("--factor", 10);
    let reps: usize = arg_num("--reps", 5);
    let clients: usize = arg_num("--clients", 32);
    let per_client: usize = arg_num("--per-client", 4);
    let racers: usize = arg_num("--racers", 8);
    let sustained_conns: usize = arg_num("--sustained-conns", 256);
    let sustained_per_conn: usize = arg_num("--sustained-per-conn", 8);
    let workers: usize = arg_num("--workers", default_threads());
    let out_path = arg_value("--out").unwrap_or_else(|| "BENCH_service.json".to_string());
    let check_path = arg_value("--check");

    let config = ServiceConfig {
        workers,
        queue_capacity: 64,
        cache_capacity: 256,
        cache_shards: 16,
        ..ServiceConfig::default()
    };

    // Warm/cold on a dedicated service so burst traffic cannot pollute
    // the percentile window.
    let service = Service::new(config.clone());
    let wc = bench_warm_cold(&service, qubits, factor, reps);
    let speedup = wc.cold_s / wc.warm_s.max(1e-12);
    let stats = service.stats();
    drop(service);

    let restart = bench_restart(&config, qubits, factor, reps);
    let restart_speedup = restart.cold_s / restart.warm_s.max(1e-12);
    let coalescing = bench_coalescing(&config, racers, qubits.min(40));

    let burst = bench_burst(
        Service::new(config.clone()),
        clients,
        per_client,
        qubits.min(20),
    );
    let resilience = bench_resilience(&config, clients.min(8), qubits.min(20));
    let sustained = bench_sustained(
        Service::new(config.clone()),
        sustained_conns,
        sustained_per_conn,
        qubits.min(10),
    );

    // Request-latency percentiles per serving path, from the obs layer's
    // process-global histograms (every section above recorded into them
    // through `Service::compile` / the TCP server).
    struct PathRow {
        path: &'static str,
        count: u64,
        p50_ms: f64,
        p90_ms: f64,
        p99_ms: f64,
    }
    let request_latency: Vec<PathRow> = REQUEST_PATHS
        .iter()
        .map(|&(path, hist)| {
            let snap = hist.snapshot();
            let ms = |q: f64| snap.percentile(q) as f64 * 1e-6;
            PathRow {
                path,
                count: snap.count(),
                p50_ms: ms(0.50),
                p90_ms: ms(0.90),
                p99_ms: ms(0.99),
            }
        })
        .collect();

    let mut table = Table::new(&["metric", "value"]);
    table.row(vec![
        "cold request (ms)".into(),
        format!("{:.3}", wc.cold_s * 1e3),
    ]);
    table.row(vec![
        "warm request (ms)".into(),
        format!("{:.4}", wc.warm_s * 1e3),
    ]);
    table.row(vec!["warm speedup".into(), format!("{speedup:.1}x")]);
    table.row(vec!["byte-identical".into(), wc.identical.to_string()]);
    table.row(vec![
        "schedule size (bytes)".into(),
        wc.schedule_bytes.to_string(),
    ]);
    table.row(vec![
        "restart-warm request (ms)".into(),
        format!("{:.4}", restart.warm_s * 1e3),
    ]);
    table.row(vec![
        "restart-warm speedup".into(),
        format!("{restart_speedup:.1}x"),
    ]);
    table.row(vec![
        "restart byte-identical".into(),
        restart.identical.to_string(),
    ]);
    table.row(vec![
        "restart recovery (ms)".into(),
        format!("{:.4}", restart.recover_s * 1e3),
    ]);
    table.row(vec![
        "coalescing compiles".into(),
        format!(
            "{}/{} racers ({} coalesced)",
            coalescing.compiles, coalescing.racers, coalescing.coalesced
        ),
    ]);
    table.row(vec![
        "p50 compile (ms)".into(),
        format!("{:.3}", stats.p50_compile_s * 1e3),
    ]);
    table.row(vec![
        "p99 compile (ms)".into(),
        format!("{:.3}", stats.p99_compile_s * 1e3),
    ]);
    for row in &request_latency {
        if row.count == 0 {
            continue;
        }
        table.row(vec![
            format!("{} requests p50/p99 (ms)", row.path),
            format!("{}x {:.4}/{:.4}", row.count, row.p50_ms, row.p99_ms),
        ]);
    }
    table.row(vec![
        "burst completed".into(),
        format!("{}/{}", burst.completed, burst.sent),
    ]);
    table.row(vec![
        "burst throughput (req/s)".into(),
        format!("{:.0}", burst.throughput_rps),
    ]);
    table.row(vec![
        "sustained completed".into(),
        format!(
            "{}/{} over {} conns",
            sustained.completed, sustained.sent, sustained.connections
        ),
    ]);
    table.row(vec![
        "sustained throughput (req/s)".into(),
        format!("{:.0}", sustained.throughput_rps),
    ]);
    table.row(vec![
        "sustained p50/p99 (ms)".into(),
        format!("{:.3}/{:.3}", sustained.p50_ms, sustained.p99_ms),
    ]);
    table.row(vec![
        "drain under load (ms)".into(),
        format!("{:.1}", resilience.drain_ms),
    ]);
    table.row(vec![
        "hung waiters".into(),
        format!(
            "{}/{} answered, {} hung",
            resilience.answered, resilience.inflight_clients, resilience.hung_waiters
        ),
    ]);
    println!("compilation service ({qubits}q x{factor} CZ, {workers} workers)");
    table.print();

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"qpilot.bench.service/v1\",");
    let _ = writeln!(
        json,
        "  \"config\": {{\"qubits\": {qubits}, \"factor\": {factor}, \"reps\": {reps}, \
         \"clients\": {clients}, \"per_client\": {per_client}, \"racers\": {racers}, \
         \"sustained_conns\": {sustained_conns}, \
         \"sustained_per_conn\": {sustained_per_conn}, \"workers\": {workers}}},"
    );
    let _ = writeln!(
        json,
        "  \"warm_cold\": {{\"cold_request_s\": {:.9}, \"warm_request_s\": {:.9}, \
         \"speedup\": {:.3}, \"schedules_identical\": {}, \"schedule_bytes\": {}}},",
        wc.cold_s, wc.warm_s, speedup, wc.identical, wc.schedule_bytes
    );
    let _ = writeln!(
        json,
        "  \"restart\": {{\"cold_request_s\": {:.9}, \"warm_request_s\": {:.9}, \
         \"speedup\": {:.3}, \"schedules_identical\": {}, \"store_loaded\": {}, \"recover_s\": {:.9}}},",
        restart.cold_s,
        restart.warm_s,
        restart_speedup,
        restart.identical,
        restart.store_loaded,
        restart.recover_s
    );
    let _ = writeln!(
        json,
        "  \"coalescing\": {{\"racers\": {}, \"compiles\": {}, \"coalesced\": {}, \
         \"duplicate_compiles\": {}, \"all_identical\": {}}},",
        coalescing.racers,
        coalescing.compiles,
        coalescing.coalesced,
        coalescing.duplicate_compiles,
        coalescing.all_identical
    );
    let _ = writeln!(
        json,
        "  \"latency\": {{\"p50_compile_s\": {:.9}, \"p90_compile_s\": {:.9}, \
         \"p99_compile_s\": {:.9}}},",
        stats.p50_compile_s, stats.p90_compile_s, stats.p99_compile_s
    );
    json.push_str("  \"request_latency\": [\n");
    for (i, row) in request_latency.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"path\": \"{}\", \"count\": {}, \"p50_ms\": {:.6}, \
             \"p90_ms\": {:.6}, \"p99_ms\": {:.6}}}",
            row.path, row.count, row.p50_ms, row.p90_ms, row.p99_ms
        );
        json.push_str(if i + 1 < request_latency.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4}, \"evictions\": {}}},",
        stats.cache.hits,
        stats.cache.misses,
        stats.cache.hit_rate(),
        stats.cache.evictions
    );
    let _ = writeln!(
        json,
        "  \"burst\": {{\"clients\": {}, \"per_client\": {}, \"sent\": {}, \"completed\": {}, \
         \"dropped\": {}, \"wall_s\": {:.6}, \"throughput_rps\": {:.1}}},",
        burst.clients,
        burst.per_client,
        burst.sent,
        burst.completed,
        burst.dropped,
        burst.wall_s,
        burst.throughput_rps
    );
    let _ = writeln!(
        json,
        "  \"sustained\": {{\"connections\": {}, \"per_connection\": {}, \"sent\": {}, \
         \"completed\": {}, \"dropped\": {}, \"wall_s\": {:.6}, \"throughput_rps\": {:.1}, \
         \"p50_ms\": {:.6}, \"p90_ms\": {:.6}, \"p99_ms\": {:.6}}},",
        sustained.connections,
        sustained.per_connection,
        sustained.sent,
        sustained.completed,
        sustained.dropped,
        sustained.wall_s,
        sustained.throughput_rps,
        sustained.p50_ms,
        sustained.p90_ms,
        sustained.p99_ms
    );
    let _ = writeln!(
        json,
        "  \"resilience\": {{\"inflight_clients\": {}, \"answered\": {}, \"hung_waiters\": {}, \
         \"drain_ms\": {:.3}, \"drained_clean\": {}}}",
        resilience.inflight_clients,
        resilience.answered,
        resilience.hung_waiters,
        resilience.drain_ms,
        resilience.drained_clean
    );
    json.push_str("}\n");

    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("\nwrote {out_path}");

    assert!(wc.identical, "warm responses diverged from cold schedule");
    assert!(
        restart.identical,
        "restart-warm responses diverged from the pre-restart schedule"
    );
    assert_eq!(
        coalescing.duplicate_compiles, 0,
        "racing identical requests compiled more than once"
    );
    assert!(coalescing.all_identical, "racing responses diverged");
    assert_eq!(burst.dropped, 0, "burst dropped {} requests", burst.dropped);
    assert_eq!(
        sustained.dropped, 0,
        "sustained load dropped {} requests across {} connections",
        sustained.dropped, sustained.connections
    );
    assert_eq!(
        resilience.hung_waiters, 0,
        "drain left {} waiter(s) without an answer",
        resilience.hung_waiters
    );
    assert!(resilience.drained_clean, "drain did not go idle in budget");

    if let Some(path) = check_path {
        let thresholds = match check::load_thresholds(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        };
        let report = qpilot_core::json::parse(&json).expect("own report is valid JSON");
        check::enforce("service", &check::check_service(&report, &thresholds));
    }
}
