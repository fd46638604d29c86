//! `qpilot-cli` — client for the `qpilotd` compilation daemon.
//!
//! ```text
//! qpilot-cli <ping|stats|store-stats|metrics|shutdown> [--connect HOST:PORT]
//! qpilot-cli stats --watch N     poll every N seconds and render a
//!                                compact dashboard (N=0: render once)
//! qpilot-cli compile [--connect HOST:PORT]
//!                    [--router auto|generic|qsim|qaoa|qec]
//!                    <workload source> [options]
//!
//! sharded fleets (client-side shard map, no qpilot-router needed):
//!   --shards ADDR1,ADDR2,…  requests go through the router's own
//!                           dispatcher: compile requests go to the
//!                           consistent-hash owner of their fingerprint;
//!                           stats, store-stats and metrics fan out to
//!                           every shard and print the fleet aggregate;
//!                           shutdown stops every shard. A shard that
//!                           cannot answer prints a "retry":true error
//!                           line. The address list must match the
//!                           fleet's router/client configuration
//!                           verbatim — placement is a pure function of
//!                           those strings.
//!
//! `metrics` prints the daemon's Prometheus text exposition verbatim
//! (the same bytes `--metrics-listen` serves over HTTP).
//!
//! `--router auto` infers the router from which workload flags are
//! present (`--strings` -> qsim, `--graph`/`--edges` -> qaoa,
//! `--distance` -> qec, else generic); the default remains `generic`.
//!
//! generic workload source (exactly one):
//!   --qasm FILE            OpenQASM 2.0 file (`-` for stdin)
//!   --random N,FACTOR,SEED the paper's random workload (factor×N CX)
//!   --bv N[,SEED]          Bernstein–Vazirani with a random secret
//!
//! qsim workload (--router qsim):
//!   --strings S1,S2,…      comma-separated Pauli strings (e.g. ZZII,IXXI)
//!   --theta X              shared rotation angle (default 0.5)
//!   --max-copies N         fan-out copy cap
//!
//! qaoa workload (--router qaoa), graph source (exactly one):
//!   --graph N,P,SEED       Erdős–Rényi graph (edge probability P)
//!   --edges "0-1,1-2"      explicit edge list (requires --qubits N)
//!   --gamma X              cost angle (default 0.7)
//!   --beta Y               mixer angle; omit to route bare cost layers
//!   --anchors N            anchor-bucket search width
//!   --no-column-extension  disable column extension
//!
//! qec workload (--router qec):
//!   --distance D           surface-code distance (>= 2)
//!   --rounds N             syndrome rounds (default 1)
//!   --theta X              stabilizer-phase angle (default pi/4)
//!   --serial               route one check at a time (no parallel waves)
//!
//! shared compile options:
//!   --cols N               SLM columns (default: square array)
//!   --stage-cap N          generic-router stage cap
//!   --deadline-ms N        client deadline (daemon may answer `deadline`)
//!   --no-schedule          ask the daemon to omit the schedule body
//!   --schedule-out FILE    write the schedule JSON to FILE
//! ```
//!
//! The full response line prints to stdout (with the schedule body
//! elided when `--schedule-out` captures it). Exit code 0 iff the daemon
//! answered `"ok":true`; an unknown flag, a flag missing its value or a
//! malformed argument exits 2 naming it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};

use qpilot_circuit::Circuit;
use qpilot_core::json::{self, Value};
use qpilot_service::flags::Flags;
use qpilot_service::protocol::{
    circuit_to_value_json, compile_request_line, qaoa_request_line, qec_request_line,
    qsim_request_line, QEC_DEFAULT_THETA,
};
use qpilot_service::shard::{self, ShardRing};
use qpilot_workloads::bv::bernstein_vazirani_random;
use qpilot_workloads::graphs::erdos_renyi;
use qpilot_workloads::random::{random_circuit, RandomCircuitConfig};

const SIGINT: i32 = 2;

extern "C" {
    // POSIX signal(2)/write(2)/_exit(2), declared directly (as in
    // qpilotd) rather than pulling in a libc dependency: the Ctrl-C
    // handler below must stay async-signal-safe, so it can only call
    // write and _exit anyway.
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn _exit(status: i32) -> !;
}

/// `stats --watch` Ctrl-C handler: finish the interrupted dashboard
/// line with a newline so the shell prompt lands on its own line, then
/// exit cleanly.
extern "C" fn on_sigint(_signum: i32) {
    unsafe {
        write(1, b"\n".as_ptr(), 1);
        _exit(0);
    }
}

fn install_watch_sigint_handler() {
    unsafe {
        signal(SIGINT, on_sigint);
    }
}

/// The flags that take a value, for every operation.
const VALUE_FLAGS: [&str; 22] = [
    "--connect",
    "--shards",
    "--watch",
    "--router",
    "--qasm",
    "--random",
    "--bv",
    "--strings",
    "--theta",
    "--max-copies",
    "--graph",
    "--edges",
    "--qubits",
    "--gamma",
    "--beta",
    "--anchors",
    "--distance",
    "--rounds",
    "--cols",
    "--stage-cap",
    "--deadline-ms",
    "--schedule-out",
];

/// The flags that stand alone.
const SWITCHES: [&str; 3] = ["--no-schedule", "--no-column-extension", "--serial"];

fn fail(message: &str) -> ! {
    eprintln!("qpilot-cli: {message}");
    std::process::exit(2);
}

fn load_circuit(flags: &Flags) -> Circuit {
    let sources = [
        flags.value("--qasm").map(|f| ("qasm", f)),
        flags.value("--random").map(|f| ("random", f)),
        flags.value("--bv").map(|f| ("bv", f)),
    ];
    let mut chosen: Vec<(&str, &str)> = sources.into_iter().flatten().collect();
    if chosen.len() != 1 {
        fail("give exactly one of --qasm FILE, --random N,FACTOR,SEED, --bv N[,SEED]");
    }
    let (kind, spec) = chosen.remove(0);
    match kind {
        "qasm" => {
            let source = if spec == "-" {
                let mut buf = String::new();
                if std::io::stdin().read_to_string(&mut buf).is_err() {
                    fail("cannot read qasm from stdin");
                }
                buf
            } else {
                match std::fs::read_to_string(spec) {
                    Ok(s) => s,
                    Err(e) => fail(&format!("cannot read {spec}: {e}")),
                }
            };
            match Circuit::from_qasm(&source) {
                Ok(c) => c,
                Err(e) => fail(&format!("{e}")),
            }
        }
        "random" => {
            let parts: Vec<u64> = spec
                .split(',')
                .filter_map(|x| x.trim().parse().ok())
                .collect();
            if parts.len() != 3 {
                fail("--random needs N,FACTOR,SEED");
            }
            random_circuit(&RandomCircuitConfig::paper(
                parts[0] as u32,
                parts[1] as usize,
                parts[2],
            ))
        }
        _ => {
            let parts: Vec<u64> = spec
                .split(',')
                .filter_map(|x| x.trim().parse().ok())
                .collect();
            match parts.as_slice() {
                [n] => bernstein_vazirani_random(*n as usize, 1),
                [n, seed] => bernstein_vazirani_random(*n as usize, *seed),
                _ => fail("--bv needs N or N,SEED"),
            }
        }
    }
}

fn parse_opt_usize(flags: &Flags, flag: &str) -> Option<usize> {
    flags.value(flag).map(|v| match v.parse() {
        Ok(n) => n,
        Err(_) => fail(&format!("{flag} needs a positive integer, got `{v}`")),
    })
}

fn parse_opt_f64(flags: &Flags, flag: &str, default: f64) -> f64 {
    match flags.value(flag) {
        None => default,
        Some(v) => match v.parse() {
            Ok(x) => x,
            Err(_) => fail(&format!("{flag} needs a number, got `{v}`")),
        },
    }
}

/// Parses the optional `--deadline-ms` client deadline.
fn parse_deadline_ms(flags: &Flags) -> Option<u64> {
    flags.value("--deadline-ms").map(|v| match v.parse() {
        Ok(n) => n,
        Err(_) => fail(&format!("--deadline-ms needs an integer, got `{v}`")),
    })
}

/// Builds the qsim compile line from `--strings`/`--theta`.
fn qsim_request(flags: &Flags, cols: Option<usize>, include_schedule: bool) -> String {
    let spec = flags
        .value("--strings")
        .unwrap_or_else(|| fail("--router qsim needs --strings S1,S2,… (e.g. ZZII,IXXI)"));
    let strings: Vec<String> = spec
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if strings.is_empty() {
        fail("--strings needs at least one Pauli string");
    }
    let theta = parse_opt_f64(flags, "--theta", 0.5);
    qsim_request_line(
        &strings,
        theta,
        parse_opt_usize(flags, "--max-copies"),
        cols,
        parse_deadline_ms(flags),
        include_schedule,
    )
}

/// Builds the qaoa compile line from `--graph` or `--edges`/`--qubits`.
fn qaoa_request(flags: &Flags, cols: Option<usize>, include_schedule: bool) -> String {
    let (graph, edge_list) = (flags.value("--graph"), flags.value("--edges"));
    let (qubits, edges): (u32, Vec<(u32, u32)>) = match (graph, edge_list) {
        (Some(_), Some(_)) => fail("give either --graph or --edges, not both"),
        (Some(spec), None) => {
            let parts: Vec<&str> = spec.split(',').map(str::trim).collect();
            let parsed: Option<(u32, f64, u64)> = match parts.as_slice() {
                [n, p, seed] => match (n.parse(), p.parse(), seed.parse()) {
                    (Ok(n), Ok(p), Ok(seed)) => Some((n, p, seed)),
                    _ => None,
                },
                _ => None,
            };
            let Some((n, p, seed)) = parsed else {
                fail("--graph needs N,P,SEED (e.g. 12,0.4,7)");
            };
            let graph = erdos_renyi(n, p, seed);
            (n, graph.edges().to_vec())
        }
        (None, Some(spec)) => {
            let qubits = parse_opt_usize(flags, "--qubits")
                .unwrap_or_else(|| fail("--edges requires --qubits N"))
                as u32;
            let edges: Vec<(u32, u32)> = spec
                .split(',')
                .map(|pair| {
                    let mut ends = pair.trim().split('-');
                    match (
                        ends.next().and_then(|a| a.parse().ok()),
                        ends.next().and_then(|b| b.parse().ok()),
                        ends.next(),
                    ) {
                        (Some(a), Some(b), None) => (a, b),
                        _ => fail(&format!("bad edge `{pair}`; expected U-V")),
                    }
                })
                .collect();
            (qubits, edges)
        }
        (None, None) => fail("--router qaoa needs --graph N,P,SEED or --edges \"0-1,…\""),
    };
    let gammas = [parse_opt_f64(flags, "--gamma", 0.7)];
    let betas: Vec<f64> = flags
        .value("--beta")
        .map(|v| match v.parse() {
            Ok(b) => vec![b],
            Err(_) => fail(&format!("--beta needs a number, got `{v}`")),
        })
        .unwrap_or_default();
    let column_extension = flags.switch("--no-column-extension").then_some(false);
    qaoa_request_line(
        qubits,
        &edges,
        &gammas,
        &betas,
        parse_opt_usize(flags, "--anchors"),
        column_extension,
        cols,
        parse_deadline_ms(flags),
        include_schedule,
    )
}

/// Builds the qec compile line from `--distance`/`--rounds`/`--theta`.
fn qec_request(flags: &Flags, cols: Option<usize>, include_schedule: bool) -> String {
    let distance = flags
        .value("--distance")
        .unwrap_or_else(|| fail("--router qec needs --distance D (surface-code distance >= 2)"));
    let distance: u32 = match distance.parse() {
        Ok(d) if d >= 2 => d,
        _ => fail(&format!(
            "--distance needs an integer >= 2, got `{distance}`"
        )),
    };
    let rounds = parse_opt_usize(flags, "--rounds").unwrap_or(1);
    if rounds == 0 {
        fail("--rounds needs a positive integer");
    }
    let theta = parse_opt_f64(flags, "--theta", QEC_DEFAULT_THETA);
    let parallel_waves = flags.switch("--serial").then_some(false);
    qec_request_line(
        distance,
        rounds as u32,
        theta,
        parallel_waves,
        cols,
        parse_deadline_ms(flags),
        include_schedule,
    )
}

/// Resolves a daemon address exactly once, up front — repeated
/// operations (like `stats --watch`) must not re-query the resolver
/// every tick.
fn resolve(addr: &str) -> SocketAddr {
    match addr.to_socket_addrs() {
        Ok(mut candidates) => candidates
            .next()
            .unwrap_or_else(|| fail(&format!("{addr} resolves to no address"))),
        Err(e) => fail(&format!("cannot resolve {addr}: {e}")),
    }
}

/// Where requests go: one daemon, or a sharded fleet addressed through
/// a client-side consistent-hash ring. The ring hashes the *configured
/// address strings* (placement identity); the parallel `resolved` list
/// carries the once-resolved socket addresses actually dialled.
enum Target {
    Single(SocketAddr),
    Sharded {
        ring: ShardRing,
        resolved: Vec<SocketAddr>,
    },
}

impl Target {
    fn from_flags(flags: &Flags) -> Target {
        match flags.value("--shards") {
            None => Target::Single(resolve(
                flags.value("--connect").unwrap_or("127.0.0.1:7878"),
            )),
            Some(spec) => {
                let addrs: Vec<String> = spec
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
                if addrs.is_empty() {
                    fail("--shards needs at least one address");
                }
                let resolved = addrs.iter().map(|a| resolve(a)).collect();
                Target::Sharded {
                    ring: ShardRing::new(&addrs),
                    resolved,
                }
            }
        }
    }

    /// Routes one request: a single daemon takes everything; a sharded
    /// fleet goes through the router's dispatcher (`shard::route`), one
    /// fresh connection per shard contacted. A single daemon that
    /// cannot answer exits 1.
    fn dispatch(&self, request: &str) -> String {
        match self {
            Target::Single(addr) => round_trip(*addr, request).unwrap_or_else(|e| {
                eprintln!("qpilot-cli: {e}");
                std::process::exit(1);
            }),
            Target::Sharded { ring, resolved } => {
                shard::route(ring, request, |index, line| {
                    round_trip(resolved[index], line)
                })
                .response
            }
        }
    }
}

/// One request/response round trip on a fresh connection.
fn round_trip(addr: SocketAddr, request: &str) -> Result<String, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("cannot clone connection: {e}"))?,
    );
    let mut writer = stream;
    writer
        .write_all(format!("{request}\n").as_bytes())
        .and_then(|()| writer.flush())
        .map_err(|_| format!("failed to send request to {addr}"))?;
    let mut response = String::new();
    match reader.read_line(&mut response) {
        Ok(0) | Err(_) => Err("daemon closed the connection without answering".to_string()),
        Ok(_) => Ok(response.trim_end().to_string()),
    }
}

/// A `u64` field from a stats reply (0 when absent).
fn stat_u64(doc: &Value, key: &str) -> u64 {
    doc.get(key).and_then(Value::as_u64).unwrap_or(0)
}

/// An `f64` field from a stats reply (0.0 when absent).
fn stat_f64(doc: &Value, key: &str) -> f64 {
    doc.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

/// Renders one compact dashboard frame from a stats reply, with
/// per-second deltas against the previous frame when one exists.
fn render_dashboard(doc: &Value, prev: Option<&(std::time::Instant, Value)>) {
    let rate = |key: &str| -> String {
        match prev {
            Some((at, old)) => {
                let dt = at.elapsed().as_secs_f64().max(1e-9);
                let delta = stat_u64(doc, key).saturating_sub(stat_u64(old, key));
                format!(" ({:.1}/s)", delta as f64 / dt)
            }
            None => String::new(),
        }
    };
    println!(
        "requests {}{}  compiles {}{}  hit_rate {:.2}  draining {}",
        stat_u64(doc, "requests"),
        rate("requests"),
        stat_u64(doc, "compiles"),
        rate("compiles"),
        stat_f64(doc, "hit_rate"),
        doc.get("draining")
            .and_then(Value::as_bool)
            .unwrap_or(false),
    );
    println!(
        "hits {}  misses {}  coalesced {}  shed {}{}  deadline_misses {}",
        stat_u64(doc, "hits"),
        stat_u64(doc, "misses"),
        stat_u64(doc, "coalesced"),
        stat_u64(doc, "shed"),
        rate("shed"),
        stat_u64(doc, "deadline_misses"),
    );
    println!(
        "cache {} entries / {} bytes  store persisted {} loaded {}  workers {}",
        stat_u64(doc, "cache_entries"),
        stat_u64(doc, "cache_bytes"),
        stat_u64(doc, "store_persisted"),
        stat_u64(doc, "store_loaded"),
        stat_u64(doc, "workers"),
    );
    println!(
        "compile_ms p50 {:.3}  p90 {:.3}  p99 {:.3}",
        stat_f64(doc, "p50_compile_ms"),
        stat_f64(doc, "p90_compile_ms"),
        stat_f64(doc, "p99_compile_ms"),
    );
    if let Some(latency) = doc.get("latency") {
        // The daemon omits rows for paths that never served a request,
        // so the set of keys here varies frame to frame as paths see
        // first traffic; render whatever is present and say so when
        // nothing is, instead of printing a bare header or a 0 ms row.
        let mut line = String::from("request_ms");
        let mut any = false;
        for path in ["hit", "miss", "coalesced", "shed", "error"] {
            let Some(row) = latency.get(path) else {
                continue;
            };
            if stat_u64(row, "count") == 0 {
                continue; // older daemons still send zero-count rows
            }
            any = true;
            line.push_str(&format!(
                "  {path} p50 {:.3} p99 {:.3} (n={})",
                stat_f64(row, "p50_ms"),
                stat_f64(row, "p99_ms"),
                stat_u64(row, "count"),
            ));
        }
        if !any {
            line.push_str("  (no requests served yet)");
        }
        println!("{line}");
    }
}

/// `stats --watch N`: poll the daemon every `N` seconds and render the
/// dashboard until interrupted (`N = 0`: render one frame). Never
/// returns; exits 1 the moment a poll fails. The daemon address was
/// resolved once before the loop, and Ctrl-C emits a final newline so
/// the terminal is left clean.
fn watch_stats(target: &Target, every_s: u64) -> ! {
    install_watch_sigint_handler();
    let mut prev: Option<(std::time::Instant, Value)> = None;
    loop {
        let at = std::time::Instant::now();
        let response = target.dispatch("{\"op\":\"stats\"}");
        let doc = match json::parse(&response) {
            Ok(doc) => doc,
            Err(e) => fail(&format!("malformed stats response: {e}")),
        };
        if doc.get("ok").and_then(Value::as_bool) != Some(true) {
            eprintln!("qpilot-cli: stats request failed: {response}");
            std::process::exit(1);
        }
        render_dashboard(&doc, prev.as_ref());
        if every_s == 0 {
            std::process::exit(0);
        }
        println!();
        prev = Some((at, doc));
        std::thread::sleep(std::time::Duration::from_secs(every_s));
    }
}

fn main() {
    let op = std::env::args().nth(1).unwrap_or_else(|| {
        fail("usage: qpilot-cli <ping|stats|store-stats|metrics|shutdown|compile> [options]")
    });
    let flags = Flags::parse(
        "qpilot-cli",
        std::env::args().skip(2),
        &VALUE_FLAGS,
        &SWITCHES,
    );
    let target = Target::from_flags(&flags);
    if op == "stats" {
        if let Some(every) = flags.value("--watch") {
            let every_s: u64 = every
                .parse()
                .unwrap_or_else(|_| fail(&format!("--watch needs an integer, got `{every}`")));
            watch_stats(&target, every_s);
        }
    }
    let request = match op.as_str() {
        "ping" => "{\"op\":\"ping\"}".to_string(),
        "stats" => "{\"op\":\"stats\"}".to_string(),
        "store-stats" => "{\"op\":\"store-stats\"}".to_string(),
        "metrics" => "{\"op\":\"metrics\"}".to_string(),
        "shutdown" => "{\"op\":\"shutdown\"}".to_string(),
        "compile" => {
            let cols = parse_opt_usize(&flags, "--cols");
            let include_schedule = !flags.switch("--no-schedule");
            let router = flags.value("--router").unwrap_or("generic");
            // `auto` mirrors the daemon's field sniffing: infer the
            // router from which workload flags are present.
            let router = match router {
                "auto" => {
                    let given = |flag| flags.value(flag).is_some();
                    if given("--strings") {
                        "qsim"
                    } else if given("--graph") || given("--edges") {
                        "qaoa"
                    } else if given("--distance") {
                        "qec"
                    } else {
                        "generic"
                    }
                }
                _ => router,
            };
            match router {
                "generic" => {
                    let circuit = load_circuit(&flags);
                    compile_request_line(
                        &circuit_to_value_json(&circuit),
                        cols,
                        parse_opt_usize(&flags, "--stage-cap"),
                        parse_deadline_ms(&flags),
                        include_schedule,
                    )
                }
                "qsim" => qsim_request(&flags, cols, include_schedule),
                "qaoa" => qaoa_request(&flags, cols, include_schedule),
                "qec" => qec_request(&flags, cols, include_schedule),
                other => fail(&format!(
                    "unknown router `{other}` (auto|generic|qsim|qaoa|qec)"
                )),
            }
        }
        other => fail(&format!("unknown operation `{other}`")),
    };

    let response = target.dispatch(&request);

    let doc = match json::parse(&response) {
        Ok(doc) => doc,
        Err(e) => fail(&format!("malformed response: {e}")),
    };
    let ok = doc.get("ok").and_then(Value::as_bool).unwrap_or(false);

    if op == "metrics" && ok {
        // Print the exposition bytes verbatim — pipeable straight into
        // promtool or a file, like an HTTP scrape.
        match doc.get("exposition").and_then(Value::as_str) {
            Some(text) => print!("{text}"),
            None => fail("metrics response carries no exposition"),
        }
        std::process::exit(0);
    }

    if let Some(path) = flags.value("--schedule-out") {
        match doc.get("schedule") {
            Some(schedule) => {
                // Canonical re-serialisation: byte-identical to the
                // daemon's cached schedule JSON.
                if let Err(e) = std::fs::write(path, schedule.to_json()) {
                    fail(&format!("cannot write {path}: {e}"));
                }
                // Print the response without the (potentially huge) body.
                let without: Vec<(String, Value)> = match doc {
                    Value::Obj(ref pairs) => pairs
                        .iter()
                        .filter(|(k, _)| k != "schedule")
                        .cloned()
                        .collect(),
                    _ => Vec::new(),
                };
                println!("{}", Value::Obj(without).to_json());
            }
            None => fail("response carries no schedule (daemon error or --no-schedule?)"),
        }
    } else {
        println!("{response}");
    }
    std::process::exit(if ok { 0 } else { 1 });
}
