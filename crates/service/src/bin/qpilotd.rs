//! `qpilotd` — the Q-Pilot compilation daemon.
//!
//! ```text
//! qpilotd [--listen HOST:PORT | --stdio] [--workers N] [--queue N]
//!         [--cache N] [--store DIR] [--max-compile-ms N]
//!         [--line-deadline-ms N] [--drain-ms N] [--faults SPEC]
//!         [--metrics-listen HOST:PORT] [--log-json]
//! ```
//!
//! An unknown flag, a flag missing its value, or a number that does not
//! parse is a startup error (exit 2) naming the flag.
//!
//! Default transport is `--listen 127.0.0.1:7878`. The daemon prints
//! `qpilotd listening on ADDR` to stdout once ready (scripts wait for
//! that line), serves the line-delimited JSON protocol (see
//! `qpilot_service::protocol`), and exits cleanly when a client sends
//! `{"op":"shutdown"}`.
//!
//! With `--store DIR` the schedule cache is mirrored to disk as
//! fingerprint-named blobs: a restarted daemon (clean exit *or*
//! `SIGKILL`) recovers its working set from `DIR` before accepting
//! connections, so previously compiled requests stay warm hits with
//! byte-identical schedules. Corrupt or half-written blobs are skipped.
//! The store mirrors the cache, so `--cache` bounds it: a blob is
//! unlinked when its entry is evicted.
//!
//! Resilience knobs: `--max-compile-ms` is a server-side cap applied to
//! every compile (client `deadline_ms` values are clamped to it), and
//! `--line-deadline-ms` bounds how long one request line may trickle in
//! over TCP.
//!
//! On `SIGTERM` the daemon drains: it stops accepting connections,
//! answers every request already received (cache hits keep being
//! served; new misses get a `shutting down` error), and exits 0 — or 1
//! if the `--drain-ms` budget lapses first.
//! A second `SIGTERM` forces an immediate exit.
//!
//! Fault injection (testing only): `--faults SPEC` arms named fault
//! sites, e.g. `worker-stall=400:1,store-write-fail:1`. See
//! `qpilot_service::faults`.
//!
//! Observability: `--metrics-listen HOST:PORT` additionally serves the
//! Prometheus text exposition over plain HTTP GET (the same bytes the
//! `metrics` protocol op returns); the daemon prints `qpilotd metrics
//! on ADDR` once that listener is up. `--log-json` turns on one-line
//! JSON event logs on stderr; see `qpilot_service::events`.

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use qpilot_service::events::{self, Field};
use qpilot_service::flags::Flags;
use qpilot_service::{
    metrics, serve_stdio, serve_tcp, FaultSpec, ReactorOptions, ReactorServer, Service,
    ServiceConfig,
};

/// SIGTERM arrivals, observed by the main poll loop. The handler only
/// bumps the counter (async-signal-safe); all real work happens on the
/// main thread.
static SIGTERMS: AtomicU32 = AtomicU32::new(0);

const SIGTERM: i32 = 15;

extern "C" fn on_sigterm(_signum: i32) {
    SIGTERMS.fetch_add(1, Ordering::SeqCst);
}

extern "C" {
    // POSIX signal(2). Declared here rather than pulling in a libc
    // dependency for one call; the handler type matches sighandler_t.
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

fn install_sigterm_handler() {
    unsafe {
        signal(SIGTERM, on_sigterm);
    }
}

/// Flags followed by a value.
const VALUE_FLAGS: [&str; 10] = [
    "--listen",
    "--workers",
    "--queue",
    "--cache",
    "--store",
    "--max-compile-ms",
    "--line-deadline-ms",
    "--drain-ms",
    "--faults",
    "--metrics-listen",
];

/// Flags that stand alone.
const SWITCHES: [&str; 2] = ["--stdio", "--log-json"];

/// The `--faults SPEC` arms (none without the flag); a bad spec is a
/// startup error, not a silent no-op.
fn fault_spec(flags: &Flags) -> FaultSpec {
    match FaultSpec::parse(flags.value("--faults").unwrap_or("")) {
        Ok(spec) => {
            if !spec.is_empty() {
                eprintln!("qpilotd: FAULT INJECTION ARMED: {spec}");
            }
            spec
        }
        Err(e) => {
            eprintln!("qpilotd: bad fault spec: {e}");
            std::process::exit(2);
        }
    }
}

/// Drains the daemon after SIGTERM: no new connections, all accepted
/// requests answered, store index flushed. Never returns.
fn drain_and_exit(server: &ReactorServer, service: &Service, budget: Duration) -> ! {
    eprintln!("qpilotd: SIGTERM received, draining");
    events::emit(
        "drain",
        &[("budget_ms", Field::U64(budget.as_millis() as u64))],
    );
    server.begin_drain();
    service.begin_drain();
    let deadline = Instant::now() + budget;
    let mut clean = false;
    loop {
        if SIGTERMS.load(Ordering::SeqCst) >= 2 {
            eprintln!("qpilotd: second SIGTERM, forcing exit");
            std::process::exit(1);
        }
        if server.drain_wait(Duration::from_millis(30)) && service.drain(Duration::from_millis(1)) {
            clean = true;
            break;
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    if clean {
        eprintln!("qpilotd: drain complete, exiting");
        std::process::exit(0);
    }
    eprintln!("qpilotd: drain budget exceeded, exiting with work abandoned");
    std::process::exit(1);
}

fn main() {
    let flags = Flags::parse("qpilotd", std::env::args().skip(1), &VALUE_FLAGS, &SWITCHES);
    events::set_log_json(flags.switch("--log-json"));
    let defaults = ServiceConfig::default();
    let store_dir = flags.value("--store").map(std::path::PathBuf::from);
    let config = ServiceConfig {
        workers: flags.num("--workers", defaults.workers),
        queue_capacity: flags.num("--queue", defaults.queue_capacity),
        cache_capacity: flags.num("--cache", defaults.cache_capacity),
        store_dir: store_dir.clone(),
        max_compile_ms: flags
            .opt_num("--max-compile-ms")
            .or(defaults.max_compile_ms),
        faults: fault_spec(&flags),
        ..defaults
    };
    let service = match Service::try_new(config) {
        Ok(service) => service,
        Err(e) => {
            let dir = store_dir
                .as_deref()
                .map(|d| d.display().to_string())
                .unwrap_or_default();
            eprintln!("qpilotd: cannot open schedule store {dir}: {e}");
            std::process::exit(1);
        }
    };
    if store_dir.is_some() {
        // stderr: stdout is the protocol stream in --stdio mode.
        let stats = service.stats();
        eprintln!(
            "qpilotd store: recovered {} schedule(s) in {:.1} ms",
            stats.store_loaded,
            stats.store_recover_s * 1e3
        );
    }
    if flags.switch("--stdio") {
        if let Err(e) = serve_stdio(&service) {
            eprintln!("qpilotd: stdio transport failed: {e}");
            std::process::exit(1);
        }
        return;
    }
    install_sigterm_handler();
    let options = ReactorOptions {
        line_deadline: Duration::from_millis(flags.num("--line-deadline-ms", 10_000u64)),
    };
    let addr = flags.value("--listen").unwrap_or("127.0.0.1:7878");
    let server = match serve_tcp(service.clone(), addr, options) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("qpilotd: cannot listen on {addr}: {e}");
            std::process::exit(1);
        }
    };
    // The readiness line scripts (CI, service_report) wait for.
    println!("qpilotd listening on {}", server.local_addr());
    if let Some(addr) = flags.value("--metrics-listen") {
        match metrics::serve_http(addr, service.clone()) {
            Ok(local) => println!("qpilotd metrics on {local}"),
            Err(e) => {
                eprintln!("qpilotd: cannot listen for metrics on {addr}: {e}");
                std::process::exit(1);
            }
        }
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    events::emit(
        "startup",
        &[
            ("addr", Field::Str(server.local_addr().to_string())),
            ("workers", Field::U64(service.stats().workers as u64)),
        ],
    );
    let drain_budget = Duration::from_millis(flags.num("--drain-ms", 5_000u64));
    loop {
        if SIGTERMS.load(Ordering::SeqCst) > 0 {
            drain_and_exit(&server, &service, drain_budget);
        }
        if server.is_finished() {
            break; // a client sent `shutdown`
        }
        std::thread::sleep(Duration::from_millis(30));
    }
    println!("qpilotd: shutdown requested, exiting");
}
