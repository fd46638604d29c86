//! Service-level metrics and the Prometheus wire surface.
//!
//! The histograms here cover the serving tier: end-to-end request
//! latency labelled by serving path, and the service-side pipeline
//! spans (`parse`, `fingerprint`, `cache_probe`, `queue_wait`,
//! `serialise`, `store_write`). The router stage histograms live in
//! [`qpilot_core::obs::ROUTE_STAGES`];
//! [`render_exposition`] snapshots both registries plus the service
//! counters once and renders Prometheus **text exposition format
//! v0.0.4** — the exact bytes served by the `metrics` protocol op and by
//! `qpilotd --metrics-listen ADDR` over plain HTTP GET.
//!
//! Latency metrics are rendered as Prometheus *summaries* (p50/p90/p99
//! quantiles plus `_sum`/`_count`) with values in seconds. Line order is
//! deterministic — the golden tests in this module depend on it, and so
//! may downstream scrape diffing.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::time::Duration;

use qpilot_core::json::fmt_f64;
use qpilot_core::obs::{Histogram, HistogramSnapshot, ROUTE_STAGES};

use crate::pool::{Service, ServiceStats};

/// Request latency, served from cache (`path="hit"`).
pub static REQUEST_HIT: Histogram = Histogram::new();
/// Request latency, compiled as leader (`path="miss"`).
pub static REQUEST_MISS: Histogram = Histogram::new();
/// Request latency, attached to an in-flight compile
/// (`path="coalesced"`).
pub static REQUEST_COALESCED: Histogram = Histogram::new();
/// Request latency, shed with `Overloaded` (`path="shed"`).
pub static REQUEST_SHED: Histogram = Histogram::new();
/// Request latency, any other failure (`path="error"`).
pub static REQUEST_ERROR: Histogram = Histogram::new();

/// Every request-latency series, in exposition order.
pub static REQUEST_PATHS: [(&str, &Histogram); 5] = [
    ("hit", &REQUEST_HIT),
    ("miss", &REQUEST_MISS),
    ("coalesced", &REQUEST_COALESCED),
    ("shed", &REQUEST_SHED),
    ("error", &REQUEST_ERROR),
];

/// Time spent parsing a protocol line into a request.
pub static STAGE_PARSE: Histogram = Histogram::new();
/// Time spent computing the content fingerprint.
pub static STAGE_FINGERPRINT: Histogram = Histogram::new();
/// Time spent probing the schedule cache.
pub static STAGE_CACHE_PROBE: Histogram = Histogram::new();
/// Time a miss's compile job waits between being made for the job
/// queue and a worker taking it.
pub static STAGE_QUEUE_WAIT: Histogram = Histogram::new();
/// Time spent serialising a compiled schedule to its canonical JSON.
pub static STAGE_SERIALISE: Histogram = Histogram::new();
/// Time spent persisting a compiled schedule to the store.
pub static STAGE_STORE_WRITE: Histogram = Histogram::new();

/// Every service-side pipeline span, in exposition order.
pub static SERVICE_STAGES: [(&str, &Histogram); 6] = [
    ("parse", &STAGE_PARSE),
    ("fingerprint", &STAGE_FINGERPRINT),
    ("cache_probe", &STAGE_CACHE_PROBE),
    ("queue_wait", &STAGE_QUEUE_WAIT),
    ("serialise", &STAGE_SERIALISE),
    ("store_write", &STAGE_STORE_WRITE),
];

/// The request-latency histogram for a serving path name (as rendered
/// in replies); unknown paths map to the `error` series.
pub fn request_histogram(path: &str) -> &'static Histogram {
    for (name, h) in REQUEST_PATHS {
        if name == path {
            return h;
        }
    }
    &REQUEST_ERROR
}

const NS: f64 = 1e-9;

fn seconds(ns: u64) -> String {
    fmt_f64(ns as f64 * NS)
}

fn push_counter(out: &mut String, name: &str, help: &str, value: u64) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
    ));
}

fn push_gauge(out: &mut String, name: &str, help: &str, value: impl std::fmt::Display) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
    ));
}

fn push_summary_series(out: &mut String, name: &str, labels: &str, snap: &HistogramSnapshot) {
    let (open, sep) = if labels.is_empty() {
        (String::new(), String::new())
    } else {
        (format!("{{{labels}}}"), format!("{{{labels},"))
    };
    // A series that has never recorded a sample has no percentiles; a
    // fabricated `0` quantile would both mislead dashboards and (until
    // the fleet merge learned to skip them) pin the fleet-wide max. The
    // `_sum`/`_count` pair is still emitted so the series stays
    // discoverable and scrape-to-scrape stable.
    if snap.count() > 0 {
        for (q, v) in [
            ("0.5", snap.percentile(0.50)),
            ("0.9", snap.percentile(0.90)),
            ("0.99", snap.percentile(0.99)),
        ] {
            if labels.is_empty() {
                out.push_str(&format!("{name}{{quantile=\"{q}\"}} {}\n", seconds(v)));
            } else {
                out.push_str(&format!("{name}{sep}quantile=\"{q}\"}} {}\n", seconds(v)));
            }
        }
    }
    out.push_str(&format!("{name}_sum{open} {}\n", seconds(snap.sum_ns())));
    out.push_str(&format!("{name}_count{open} {}\n", snap.count()));
}

fn push_summary_header(out: &mut String, name: &str, help: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} summary\n"));
}

/// Renders the full Prometheus text exposition (format v0.0.4) for a
/// service: counters and gauges from [`ServiceStats`], the compile
/// latency summary, request latency by serving path, service pipeline
/// spans, and one summary series per router stage from
/// [`qpilot_core::obs::ROUTE_STAGES`]. Line order is deterministic.
pub fn render_exposition(service: &Service) -> String {
    render(&Snapshot::capture(
        service.stats(),
        service.compile_latency_snapshot(),
    ))
}

/// Every series of one exposition, read once. The request, service and
/// route histograms are process-wide and other threads keep recording
/// into them, so a render reads only this capture.
struct Snapshot {
    stats: ServiceStats,
    compile: HistogramSnapshot,
    request_paths: Vec<(&'static str, HistogramSnapshot)>,
    service_stages: Vec<(&'static str, HistogramSnapshot)>,
    /// `(router, stage, histogram)` in [`ROUTE_STAGES`] order.
    route_stages: Vec<(&'static str, &'static str, HistogramSnapshot)>,
}

impl Snapshot {
    /// Reads the process-wide histograms next to the service's own
    /// counters and compile latency.
    fn capture(stats: ServiceStats, compile: HistogramSnapshot) -> Snapshot {
        let named = |series: &[(&'static str, &'static Histogram)]| {
            series.iter().map(|(n, h)| (*n, h.snapshot())).collect()
        };
        Snapshot {
            stats,
            compile,
            request_paths: named(&REQUEST_PATHS),
            service_stages: named(&SERVICE_STAGES),
            route_stages: ROUTE_STAGES
                .iter()
                .map(|s| (s.router, s.stage, s.histogram.snapshot()))
                .collect(),
        }
    }
}

/// Renders one [`Snapshot`] in the fixed line order.
fn render(snap: &Snapshot) -> String {
    let stats = &snap.stats;
    let mut out = String::with_capacity(4096);
    push_counter(
        &mut out,
        "qpilot_requests_total",
        "Compile requests handled (hits + misses).",
        stats.requests,
    );
    push_counter(
        &mut out,
        "qpilot_compiles_total",
        "Compilations executed by the worker pool.",
        stats.compiles,
    );
    push_counter(
        &mut out,
        "qpilot_cache_hits_total",
        "Requests served from the schedule cache.",
        stats.cache.hits,
    );
    push_counter(
        &mut out,
        "qpilot_cache_misses_total",
        "Requests that missed the schedule cache.",
        stats.cache.misses,
    );
    push_counter(
        &mut out,
        "qpilot_coalesced_total",
        "Requests attached to an in-flight identical compile.",
        stats.coalesced,
    );
    push_counter(
        &mut out,
        "qpilot_shed_total",
        "Requests shed with Overloaded by the degradation ladder.",
        stats.shed,
    );
    push_counter(
        &mut out,
        "qpilot_deadline_misses_total",
        "Requests that missed their effective deadline.",
        stats.deadline_misses,
    );
    push_counter(
        &mut out,
        "qpilot_store_persisted_total",
        "Schedules spilled to the persistent store.",
        stats.store_persisted,
    );
    push_gauge(
        &mut out,
        "qpilot_store_recovery_seconds",
        "Wall time of the startup store recovery pass.",
        fmt_f64(stats.store_recover_s),
    );
    push_gauge(
        &mut out,
        "qpilot_cache_entries",
        "Currently cached schedules.",
        stats.cache_entries as u64,
    );
    push_gauge(
        &mut out,
        "qpilot_cache_bytes",
        "Resident bytes of cached schedule JSON.",
        stats.cache_bytes,
    );
    push_gauge(
        &mut out,
        "qpilot_workers",
        "Compilation worker threads.",
        stats.workers as u64,
    );

    push_summary_header(
        &mut out,
        "qpilot_compile_seconds",
        "Compile wall-clock (routing plus serialise) per executed compilation.",
    );
    push_summary_series(&mut out, "qpilot_compile_seconds", "", &snap.compile);

    push_summary_header(
        &mut out,
        "qpilot_request_seconds",
        "End-to-end request latency by serving path.",
    );
    for (path, h) in &snap.request_paths {
        push_summary_series(
            &mut out,
            "qpilot_request_seconds",
            &format!("path=\"{path}\""),
            h,
        );
    }

    push_summary_header(
        &mut out,
        "qpilot_service_stage_seconds",
        "Service pipeline span latency by stage.",
    );
    for (stage, h) in &snap.service_stages {
        push_summary_series(
            &mut out,
            "qpilot_service_stage_seconds",
            &format!("stage=\"{stage}\""),
            h,
        );
    }

    push_summary_header(
        &mut out,
        "qpilot_route_stage_seconds",
        "Router stage time per route call, by router and stage.",
    );
    for (router, stage, h) in &snap.route_stages {
        push_summary_series(
            &mut out,
            "qpilot_route_stage_seconds",
            &format!("router=\"{router}\",stage=\"{stage}\""),
            h,
        );
    }
    out
}

/// The Content-Type for the exposition bytes, on both wire surfaces.
pub const EXPOSITION_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Most request-head bytes the HTTP surface reads before it replies. A
/// scraper's head is a few hundred bytes.
const MAX_HEAD_BYTES: u64 = 8 * 1024;

/// How long one read of the request head may wait for bytes. Scrapers
/// send their head at once.
const HEAD_TIMEOUT: Duration = Duration::from_secs(2);

/// Binds `addr` and serves the exposition over plain HTTP GET on a
/// background thread (any path, `Connection: close`; the thread runs
/// for the life of the process). Returns the bound address so the
/// caller can print a readiness line.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn serve_http(addr: &str, service: Service) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(
        addr.to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::other("metrics address resolved to nothing"))?,
    )?;
    let local = listener.local_addr()?;
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(stream) = conn else { continue };
            let service = service.clone();
            // One short-lived thread per scrape: scrapes are rare and
            // the handler must never block the accept loop.
            std::thread::spawn(move || {
                // Drain the request head, bounded in bytes and in read
                // time so a client that never ends it cannot grow this
                // buffer or hold this thread. The reply is the same for
                // every path, so a cut-off head is answered too.
                let _ = stream.set_read_timeout(Some(HEAD_TIMEOUT));
                let mut reader = BufReader::new((&stream).take(MAX_HEAD_BYTES));
                let mut line = String::new();
                while reader.read_line(&mut line).is_ok() {
                    if line == "\r\n" || line == "\n" || line.is_empty() {
                        break;
                    }
                    line.clear();
                }
                let body = render_exposition(&service);
                let head = format!(
                    "HTTP/1.1 200 OK\r\nContent-Type: {EXPOSITION_CONTENT_TYPE}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
                    body.len()
                );
                let mut stream = stream;
                let _ = stream.write_all(head.as_bytes());
                let _ = stream.write_all(body.as_bytes());
                let _ = stream.flush();
            });
        }
    });
    Ok(local)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpilot_core::obs::Histogram;
    use std::net::TcpStream;

    fn zero_stats() -> ServiceStats {
        ServiceStats {
            requests: 3,
            cache: crate::cache::CacheCounters {
                hits: 1,
                misses: 2,
                ..Default::default()
            },
            cache_entries: 2,
            cache_bytes: 512,
            compiles: 2,
            coalesced: 0,
            shed: 0,
            deadline_misses: 0,
            draining: false,
            store_persisted: 0,
            store_loaded: 0,
            store_recover_s: 0.0125,
            p50_compile_s: 0.001,
            p90_compile_s: 0.002,
            p99_compile_s: 0.003,
            workers: 2,
        }
    }

    /// Golden test: the exposition is line-order-stable and well formed.
    /// (The head comes from fixed stats, so concurrent tests recording
    /// into the global histograms cannot perturb it.)
    #[test]
    fn exposition_head_is_golden() {
        let compile = Histogram::new();
        compile.record_ns(1_000_000);
        let text = render(&Snapshot::capture(zero_stats(), compile.snapshot()));
        let expected_head = "\
# HELP qpilot_requests_total Compile requests handled (hits + misses).
# TYPE qpilot_requests_total counter
qpilot_requests_total 3
# HELP qpilot_compiles_total Compilations executed by the worker pool.
# TYPE qpilot_compiles_total counter
qpilot_compiles_total 2
# HELP qpilot_cache_hits_total Requests served from the schedule cache.
# TYPE qpilot_cache_hits_total counter
qpilot_cache_hits_total 1
";
        assert!(
            text.starts_with(expected_head),
            "exposition head drifted:\n{}",
            &text[..expected_head.len().min(text.len())]
        );
        // The compile summary reports the recorded millisecond sample.
        assert!(text.contains("# TYPE qpilot_compile_seconds summary"));
        assert!(text.contains("qpilot_compile_seconds_count 1"));
        // Every quantile line parses as a float in seconds.
        for line in text.lines() {
            if line.starts_with("qpilot_compile_seconds{quantile=") {
                let v: f64 = line.split(' ').next_back().unwrap().parse().unwrap();
                assert!((0.0005..0.0015).contains(&v), "quantile {v}");
            }
        }
    }

    /// One snapshot renders to the same bytes every time (line-order
    /// stability). Concurrent tests record into the global histograms,
    /// so only a captured snapshot has fixed inputs.
    #[test]
    fn exposition_is_deterministic() {
        let compile = Histogram::new();
        compile.record_ns(42_000);
        let snap = Snapshot::capture(zero_stats(), compile.snapshot());
        assert_eq!(render(&snap), render(&snap));
    }

    /// Every router/stage pair from the core registry appears as a
    /// labelled series.
    #[test]
    fn exposition_covers_every_route_stage() {
        let text = render(&Snapshot::capture(
            zero_stats(),
            Histogram::new().snapshot(),
        ));
        for s in &qpilot_core::obs::ROUTE_STAGES {
            let label = format!(
                "qpilot_route_stage_seconds_count{{router=\"{}\",stage=\"{}\"}}",
                s.router, s.stage
            );
            assert!(text.contains(&label), "missing series {label}");
        }
        for (stage, _) in SERVICE_STAGES {
            assert!(text.contains(&format!("stage=\"{stage}\"")));
        }
        for (path, _) in REQUEST_PATHS {
            assert!(text.contains(&format!("path=\"{path}\"")));
        }
    }

    /// The store recovery time is a gauge in seconds.
    #[test]
    fn exposition_reports_store_recovery_time() {
        let text = render(&Snapshot::capture(
            zero_stats(),
            Histogram::new().snapshot(),
        ));
        assert!(text.contains(
            "# TYPE qpilot_store_recovery_seconds gauge\nqpilot_store_recovery_seconds 0.0125\n"
        ));
    }

    /// A series with zero samples emits no quantile rows (there is no
    /// percentile of nothing) but keeps `_sum`/`_count` so the series
    /// set is stable scrape-to-scrape.
    #[test]
    fn empty_series_emit_no_quantile_rows() {
        let empty = Histogram::new();
        let mut out = String::new();
        push_summary_series(
            &mut out,
            "qpilot_test_seconds",
            "path=\"idle\"",
            &empty.snapshot(),
        );
        assert!(!out.contains("quantile"), "{out}");
        assert!(
            out.contains("qpilot_test_seconds_sum{path=\"idle\"} 0"),
            "{out}"
        );
        assert!(
            out.contains("qpilot_test_seconds_count{path=\"idle\"} 0"),
            "{out}"
        );

        let live = Histogram::new();
        live.record_ns(2_000_000);
        let mut out = String::new();
        push_summary_series(
            &mut out,
            "qpilot_test_seconds",
            "path=\"hit\"",
            &live.snapshot(),
        );
        assert!(out.contains("quantile=\"0.99\""), "{out}");
    }

    fn metrics_endpoint() -> SocketAddr {
        let service = Service::new(crate::pool::ServiceConfig {
            workers: 1,
            ..Default::default()
        });
        serve_http("127.0.0.1:0", service).expect("bind metrics endpoint")
    }

    /// Reads until the endpoint closes or `within` passes. `Ok` holds
    /// whatever reply arrived; a reset means the endpoint hung up on
    /// unread input, which is also a prompt answer.
    fn read_reply(stream: &mut TcpStream, within: Duration) -> std::io::Result<Vec<u8>> {
        stream.set_read_timeout(Some(within))?;
        let mut reply = Vec::new();
        match stream.read_to_end(&mut reply) {
            Ok(_) => Ok(reply),
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => Ok(reply),
            Err(e) => Err(e),
        }
    }

    #[test]
    fn an_over_cap_request_head_is_answered_before_the_read_timeout() {
        let mut stream = TcpStream::connect(metrics_endpoint()).unwrap();
        // One header line eight times the cap, and no newline.
        let _ = stream.write_all(&vec![b'x'; 8 * MAX_HEAD_BYTES as usize]);
        let started = std::time::Instant::now();
        read_reply(&mut stream, HEAD_TIMEOUT).expect("the endpoint must not wait for more");
        assert!(started.elapsed() < HEAD_TIMEOUT);
    }

    #[test]
    fn a_stalled_request_head_is_answered_after_the_read_timeout() {
        let mut stream = TcpStream::connect(metrics_endpoint()).unwrap();
        // A head that never sends its closing blank line.
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: scraper\r\n")
            .unwrap();
        let reply = read_reply(&mut stream, HEAD_TIMEOUT * 3).expect("answered");
        assert!(reply.starts_with(b"HTTP/1.1 200 OK\r\n"));
    }

    #[test]
    fn request_histogram_maps_paths() {
        assert!(std::ptr::eq(request_histogram("hit"), &REQUEST_HIT));
        assert!(std::ptr::eq(request_histogram("shed"), &REQUEST_SHED));
        assert!(std::ptr::eq(request_histogram("nonsense"), &REQUEST_ERROR));
    }
}
