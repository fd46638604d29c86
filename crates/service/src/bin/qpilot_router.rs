//! `qpilot-router` — consistent-hash fan-out over `qpilotd` shards.
//!
//! ```text
//! qpilot-router --shards ADDR1,ADDR2[,...] [--listen HOST:PORT]
//!               [--line-deadline-ms N] [--shard-timeout-ms N]
//!               [--drain-ms N]
//! ```
//!
//! An unknown flag, a flag missing its value, or a number that does not
//! parse is a startup error (exit 2) naming the flag.
//!
//! The router speaks the same line-delimited JSON protocol as the
//! daemon, on the same reactor transport, and owns no compilation
//! state of its own. Each request line goes through the fleet
//! dispatcher `qpilot_service::shard::route`, the same one
//! `qpilot-cli --shards` uses:
//!
//! * `compile` requests route to exactly one shard — the owner of the
//!   request's `qpilot.compile/v2` fingerprint on the consistent-hash
//!   ring — and the shard's response line is relayed byte-for-byte, so
//!   compiling through the router is byte-identical to compiling
//!   against the owning shard directly;
//! * `stats`, `store-stats` and `metrics` fan out to every shard and
//!   return the fleet-wide aggregate (counters sum exactly; the
//!   response carries `"shards":N`);
//! * `shutdown` is forwarded to every shard, then stops the router
//!   itself;
//! * everything else (`ping`, malformed lines) is forwarded to the
//!   first shard, whose rendering is byte-identical to any other
//!   daemon's.
//!
//! Shard connections are pooled and retried once on a stale socket
//! (a restarted shard invalidates idle pooled connections). A shard
//! that stays unreachable produces an `{"ok":false,...,"retry":true}`
//! line, marking the condition transient for clients.
//!
//! The router prints `qpilot-router listening on ADDR` once ready
//! (scripts wait for that line). On `SIGTERM` it drains like the
//! daemon: accepted requests are answered, idle connections close, and
//! the process exits 0.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use qpilot_service::flags::Flags;
use qpilot_service::shard::{self, ShardRing};
use qpilot_service::{ReactorOptions, ReactorServer};

static SIGTERMS: AtomicU32 = AtomicU32::new(0);

const SIGTERM: i32 = 15;

extern "C" fn on_sigterm(_signum: i32) {
    SIGTERMS.fetch_add(1, Ordering::SeqCst);
}

extern "C" {
    // POSIX signal(2), declared directly as in qpilotd: one call does
    // not justify a libc dependency.
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

/// Flags followed by a value; the router has no switches.
const VALUE_FLAGS: [&str; 5] = [
    "--shards",
    "--listen",
    "--line-deadline-ms",
    "--shard-timeout-ms",
    "--drain-ms",
];

/// One pooled shard connection: the write half plus a buffered reader
/// over its clone. Checked out exclusively for a round trip, so the
/// reader never holds bytes belonging to someone else's response.
struct ShardConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// A pool of idle connections per shard address.
struct ShardPool {
    timeout: Duration,
    idle: Mutex<HashMap<String, Vec<ShardConn>>>,
}

impl ShardPool {
    fn new(timeout: Duration) -> ShardPool {
        ShardPool {
            timeout,
            idle: Mutex::new(HashMap::new()),
        }
    }

    fn connect(&self, addr: &str) -> std::io::Result<ShardConn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_write_timeout(Some(self.timeout))?;
        let read_half = writer.try_clone()?;
        read_half.set_read_timeout(Some(self.timeout))?;
        Ok(ShardConn {
            writer,
            reader: BufReader::new(read_half),
        })
    }

    fn checkout(&self, addr: &str) -> Option<ShardConn> {
        self.idle.lock().ok()?.get_mut(addr)?.pop()
    }

    fn checkin(&self, addr: &str, conn: ShardConn) {
        if let Ok(mut idle) = self.idle.lock() {
            idle.entry(addr.to_string()).or_default().push(conn);
        }
    }

    /// One request/response round trip against `addr`. A pooled
    /// connection that fails is assumed stale (the shard restarted)
    /// and the trip is retried once on a fresh connection; a fresh
    /// connection's failure is the shard's answer.
    fn round_trip(&self, addr: &str, line: &str) -> Result<String, String> {
        if let Some(conn) = self.checkout(addr) {
            if let Ok(response) = Self::try_round_trip(conn, addr, line, self) {
                return Ok(response);
            }
        }
        let conn = self
            .connect(addr)
            .map_err(|e| format!("shard {addr} unreachable: {e}"))?;
        Self::try_round_trip(conn, addr, line, self)
            .map_err(|e| format!("shard {addr} failed: {e}"))
    }

    fn try_round_trip(
        mut conn: ShardConn,
        addr: &str,
        line: &str,
        pool: &ShardPool,
    ) -> Result<String, String> {
        conn.writer
            .write_all(line.as_bytes())
            .and_then(|()| conn.writer.write_all(b"\n"))
            .map_err(|e| e.to_string())?;
        let mut response = String::new();
        let n = conn
            .reader
            .read_line(&mut response)
            .map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("shard closed the connection".to_string());
        }
        while response.ends_with('\n') || response.ends_with('\r') {
            response.pop();
        }
        pool.checkin(addr, conn);
        Ok(response)
    }
}

fn main() {
    let flags = Flags::parse("qpilot-router", std::env::args().skip(1), &VALUE_FLAGS, &[]);
    let Some(shards) = flags.value("--shards") else {
        eprintln!("qpilot-router: --shards ADDR1,ADDR2[,...] is required");
        std::process::exit(2);
    };
    let addrs: Vec<String> = shards
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if addrs.is_empty() {
        eprintln!("qpilot-router: --shards needs at least one address");
        std::process::exit(2);
    }
    let ring = ShardRing::new(&addrs);
    let pool = Arc::new(ShardPool::new(Duration::from_millis(
        flags.num("--shard-timeout-ms", 30_000u64),
    )));
    let options = ReactorOptions {
        line_deadline: Duration::from_millis(flags.num("--line-deadline-ms", 10_000u64)),
    };
    let drain_budget = Duration::from_millis(flags.num("--drain-ms", 10_000u64));
    let listen = flags.value("--listen").unwrap_or("127.0.0.1:7879");
    let handler: qpilot_service::LineHandler = {
        let ring = ring.clone();
        let pool = Arc::clone(&pool);
        Arc::new(move |line: &str| {
            shard::route(&ring, line, |index, line| {
                pool.round_trip(&ring.addrs()[index], line)
            })
        })
    };
    let server = match ReactorServer::spawn(listen, options, handler) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("qpilot-router: cannot listen on {listen}: {e}");
            std::process::exit(1);
        }
    };
    unsafe {
        signal(SIGTERM, on_sigterm);
    }
    println!("qpilot-router listening on {}", server.local_addr());
    println!(
        "qpilot-router fanning out to {} shard(s): {}",
        ring.len(),
        ring.addrs().join(", ")
    );
    // Wait for either a client-driven shutdown or a SIGTERM drain.
    loop {
        if server.is_finished() {
            server.wait();
            return;
        }
        if SIGTERMS.load(Ordering::SeqCst) > 0 {
            server.begin_drain();
            let clean = server.drain_wait(drain_budget);
            std::process::exit(if clean { 0 } else { 1 });
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}
