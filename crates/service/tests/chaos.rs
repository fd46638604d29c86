//! Chaos suite: a live `qpilotd` process with fault injection armed
//! (`--faults`, see `qpilot_service::faults`), driven through worker
//! stalls, store write failures, poisoned compiles, and SIGTERM drains.
//!
//! The invariants under test:
//!
//! * no waiter ever hangs — every request gets a definitive answer,
//!   even when the compile serving it stalls, panics, or misses its
//!   deadline;
//! * one compile per fingerprint: a request that arrives while an
//!   identical compile is stalled waits for it instead of compiling
//!   again;
//! * results stay byte-identical to a fault-free run;
//! * a SIGTERM drain answers everything it accepted and exits 0; a
//!   second SIGTERM forces a prompt exit.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use qpilot_core::json::{self, Value};

struct Daemon {
    child: Child,
    addr: SocketAddr,
    /// Keeps the stdout pipe's read end open: the daemon's exit message
    /// must not hit a broken pipe.
    _stdout: BufReader<std::process::ChildStdout>,
}

/// Spawns `qpilotd --listen 127.0.0.1:0 <extra args>` and parses the
/// readiness line for the bound address.
fn spawn_daemon(extra: &[&str]) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_qpilotd"))
        .args(["--listen", "127.0.0.1:0"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn qpilotd");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut ready = String::new();
    stdout.read_line(&mut ready).expect("readiness line");
    let addr = ready
        .trim()
        .strip_prefix("qpilotd listening on ")
        .unwrap_or_else(|| panic!("unexpected readiness line: {ready:?}"))
        .parse()
        .expect("readiness line carries the bound address");
    Daemon {
        child,
        addr,
        _stdout: stdout,
    }
}

fn sigterm(child: &Child) {
    let status = Command::new("kill")
        .args(["-s", "TERM", &child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(status.success(), "kill -TERM failed");
}

fn request(addr: SocketAddr, line: &str) -> Value {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    writer
        .write_all(format!("{line}\n").as_bytes())
        .and_then(|()| writer.flush())
        .expect("send");
    let mut response = String::new();
    reader.read_line(&mut response).expect("read");
    assert!(!response.is_empty(), "daemon closed instead of answering");
    json::parse(response.trim_end()).expect("valid response JSON")
}

fn shutdown(daemon: Daemon) {
    let bye = request(daemon.addr, r#"{"op":"shutdown"}"#);
    assert_eq!(bye.get("ok"), Some(&Value::Bool(true)));
    let mut child = daemon.child;
    let status = child.wait().expect("daemon exits");
    assert!(status.success());
}

const COMPILE: &str = r#"{"op":"compile","circuit":{"num_qubits":5,"gates":[["cz",0,1],["cz",2,3],["h",4],["cx",3,4],["rz",1,0.37]]}}"#;
const QSIM: &str = r#"{"op":"compile","router":"qsim","strings":["ZZIII","IXXII"],"theta":0.4}"#;

fn stat(doc: &Value, key: &str) -> u64 {
    doc.get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("stats missing `{key}`: {doc:?}"))
}

/// Every reply — success or error — must carry a string `key`; returns
/// it. Used for the `request_id` / `path` echo invariants.
fn text(doc: &Value, key: &str) -> String {
    doc.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("reply missing `{key}`: {doc:?}"))
        .to_string()
}

/// Polls `stats` until the daemon has received `n` compile requests.
fn wait_for_requests(addr: SocketAddr, n: u64) {
    let give_up = Instant::now() + Duration::from_secs(10);
    while stat(&request(addr, r#"{"op":"stats"}"#), "requests") < n {
        assert!(
            Instant::now() < give_up,
            "the daemon never got {n} request(s)"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The leader's worker stalls while a second worker idles: the waiter
/// for the same request attaches to the stalled compile instead of
/// starting another, and both replies carry the fault-free bytes.
#[test]
fn a_stalled_leader_is_shared_not_duplicated() {
    // Fault-free reference bytes first.
    let clean = spawn_daemon(&["--workers", "1"]);
    let reference = request(clean.addr, COMPILE);
    let reference_schedule = reference.get("schedule").expect("schedule").to_json();
    shutdown(clean);

    let daemon = spawn_daemon(&["--workers", "2", "--faults", "worker-stall=400:1"]);
    let addr = daemon.addr;
    let leader = std::thread::spawn(move || request(addr, COMPILE));
    // Once counted, the leader's compile is in flight for the stall.
    wait_for_requests(addr, 1);
    let waiter = request(addr, COMPILE);
    let led = leader.join().expect("leader thread");
    for (reply, path) in [(&led, "miss"), (&waiter, "coalesced")] {
        assert_eq!(reply.get("ok"), Some(&Value::Bool(true)), "{reply:?}");
        assert_eq!(
            reply.get("schedule").expect("schedule").to_json(),
            reference_schedule,
            "{path} bytes diverge from the fault-free run"
        );
        assert_eq!(text(reply, "path"), path, "{reply:?}");
        // Neither client supplied an id; both get one.
        assert!(!text(reply, "request_id").is_empty());
    }
    let stats = request(addr, r#"{"op":"stats"}"#);
    assert_eq!(stat(&stats, "compiles"), 1, "{stats:?}");
    assert_eq!(stat(&stats, "coalesced"), 1, "{stats:?}");
    shutdown(daemon);
}

/// A request with a deadline shorter than the injected stall gets a
/// machine-readable deadline error quickly, and the daemon is healthy
/// for the next request.
#[test]
fn deadline_cuts_a_stalled_compile_loose() {
    let daemon = spawn_daemon(&["--workers", "1", "--faults", "worker-stall=600:1"]);
    let with_deadline = format!(
        "{},\"deadline_ms\":60}}",
        COMPILE.strip_suffix('}').unwrap()
    );
    let t = Instant::now();
    let response = request(daemon.addr, &with_deadline);
    assert!(
        t.elapsed() < Duration::from_millis(500),
        "deadline answer must not wait out the stall"
    );
    assert_eq!(
        response.get("ok"),
        Some(&Value::Bool(false)),
        "{response:?}"
    );
    assert_eq!(
        response.get("deadline"),
        Some(&Value::Bool(true)),
        "deadline errors are marked: {response:?}"
    );
    // Error replies carry the same observability envelope as successes.
    assert!(!text(&response, "request_id").is_empty());
    assert_eq!(text(&response, "path"), "error", "{response:?}");
    // Wait out the stall; the worker must have cleaned up, not wedged.
    std::thread::sleep(Duration::from_millis(700));
    let retry = request(daemon.addr, COMPILE);
    assert_eq!(retry.get("ok"), Some(&Value::Bool(true)), "{retry:?}");
    let stats = request(daemon.addr, r#"{"op":"stats"}"#);
    assert!(stat(&stats, "deadline_misses") >= 1, "{stats:?}");
    shutdown(daemon);
}

/// Every reply on the wire — compile hit/miss, stats, parse errors —
/// echoes a `request_id` (the client's verbatim when supplied, a
/// daemon-minted `r-…` otherwise) and names its serving `path`.
#[test]
fn every_reply_carries_a_request_id_and_a_serving_path() {
    let daemon = spawn_daemon(&["--workers", "1"]);

    // Cold compile with a client-supplied id: echoed verbatim, miss.
    let tagged = format!(
        "{},\"request_id\":\"chaos-cold-1\"}}",
        COMPILE.strip_suffix('}').unwrap()
    );
    let cold = request(daemon.addr, &tagged);
    assert_eq!(cold.get("ok"), Some(&Value::Bool(true)), "{cold:?}");
    assert_eq!(text(&cold, "request_id"), "chaos-cold-1");
    assert_eq!(text(&cold, "path"), "miss", "{cold:?}");

    // Warm repeat with a different id: new id echoed, served as a hit.
    let tagged = format!(
        "{},\"request_id\":\"chaos-warm-2\"}}",
        COMPILE.strip_suffix('}').unwrap()
    );
    let warm = request(daemon.addr, &tagged);
    assert_eq!(warm.get("ok"), Some(&Value::Bool(true)), "{warm:?}");
    assert_eq!(text(&warm, "request_id"), "chaos-warm-2");
    assert_eq!(text(&warm, "path"), "hit", "{warm:?}");

    // No client id: the daemon mints one.
    let minted = request(daemon.addr, COMPILE);
    assert!(text(&minted, "request_id").starts_with("r-"), "{minted:?}");

    // Even a malformed request keeps the client's id on the error line.
    let garbage = request(
        daemon.addr,
        r#"{"op":"no-such-op","request_id":"chaos-bad-3"}"#,
    );
    assert_eq!(garbage.get("ok"), Some(&Value::Bool(false)), "{garbage:?}");
    assert_eq!(text(&garbage, "request_id"), "chaos-bad-3");
    assert_eq!(text(&garbage, "path"), "error", "{garbage:?}");

    // Non-compile ops echo ids too.
    let stats = request(
        daemon.addr,
        r#"{"op":"stats","request_id":"chaos-stats-4"}"#,
    );
    assert_eq!(text(&stats, "request_id"), "chaos-stats-4");
    shutdown(daemon);
}

/// An injected blob-write failure must not fail the request — the
/// schedule is served from memory — and a restart heals the gap by
/// recompiling only the lost entry, byte-identically.
#[test]
fn store_write_failure_serves_from_memory_and_heals_on_restart() {
    let store = std::env::temp_dir().join(format!("qpilot_chaos_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let store_arg = store.to_str().expect("utf-8 store path").to_string();

    // First life: the first persist fails (COMPILE), the second (QSIM)
    // lands.
    let daemon = spawn_daemon(&[
        "--workers",
        "1",
        "--store",
        &store_arg,
        "--faults",
        "store-write-fail:1",
    ]);
    let first = request(daemon.addr, COMPILE);
    assert_eq!(
        first.get("ok"),
        Some(&Value::Bool(true)),
        "a failed persist must not fail the request: {first:?}"
    );
    let first_schedule = first.get("schedule").expect("schedule").to_json();
    let qsim_first = request(daemon.addr, QSIM);
    assert_eq!(qsim_first.get("ok"), Some(&Value::Bool(true)));
    let qsim_schedule = qsim_first.get("schedule").expect("schedule").to_json();
    shutdown(daemon);

    // Second life, no faults: QSIM was persisted (hit), COMPILE was not
    // (miss → recompile), and both are byte-identical to the first life.
    let daemon = spawn_daemon(&["--workers", "1", "--store", &store_arg]);
    let qsim_second = request(daemon.addr, QSIM);
    assert_eq!(
        qsim_second.get("cache").and_then(Value::as_str),
        Some("hit"),
        "the persisted entry must survive: {qsim_second:?}"
    );
    assert_eq!(
        qsim_second.get("schedule").expect("schedule").to_json(),
        qsim_schedule
    );
    let second = request(daemon.addr, COMPILE);
    assert_eq!(
        second.get("cache").and_then(Value::as_str),
        Some("miss"),
        "the lost entry must recompile: {second:?}"
    );
    assert_eq!(
        second.get("schedule").expect("schedule").to_json(),
        first_schedule,
        "the recompile must be byte-identical"
    );
    shutdown(daemon);
    let _ = std::fs::remove_dir_all(&store);
}

/// A poisoned (panicking) compile is contained by the worker's unwind
/// guard: the client gets an error line, the daemon survives, and the
/// retry compiles cleanly.
#[test]
fn poisoned_compile_is_contained_and_the_retry_succeeds() {
    let daemon = spawn_daemon(&["--workers", "1", "--faults", "poison-compile:1"]);
    let poisoned = request(daemon.addr, COMPILE);
    assert_eq!(
        poisoned.get("ok"),
        Some(&Value::Bool(false)),
        "{poisoned:?}"
    );
    let message = poisoned
        .get("error")
        .and_then(Value::as_str)
        .expect("error line");
    assert!(message.contains("poisoned"), "{message}");
    let retry = request(daemon.addr, COMPILE);
    assert_eq!(retry.get("ok"), Some(&Value::Bool(true)), "{retry:?}");
    let stats = request(daemon.addr, r#"{"op":"stats"}"#);
    assert_eq!(stat(&stats, "compiles"), 1, "{stats:?}");
    shutdown(daemon);
}

/// SIGTERM mid-burst: every request the daemon accepted is answered
/// (the worker is deliberately slowed so the burst is still in flight),
/// the sockets close cleanly, and the process exits 0.
#[test]
fn sigterm_drains_the_accepted_burst_and_exits_cleanly() {
    let daemon = spawn_daemon(&["--workers", "1", "--faults", "worker-stall=150"]);
    let addr = daemon.addr;
    let clients: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                // Distinct circuits: all misses, all queued behind the
                // slowed worker.
                let line = format!(
                    r#"{{"op":"compile","circuit":{{"num_qubits":4,"gates":[["cz",0,{}],["h",{}]]}}}}"#,
                    1 + i % 3,
                    i % 4,
                );
                request(addr, &line)
            })
        })
        .collect();
    // Let every request reach the daemon, then pull the plug.
    std::thread::sleep(Duration::from_millis(80));
    sigterm(&daemon.child);
    for client in clients {
        let response = client.join().expect("burst client");
        assert_eq!(
            response.get("ok"),
            Some(&Value::Bool(true)),
            "an accepted request went unanswered: {response:?}"
        );
    }
    let mut child = daemon.child;
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "drain must exit 0, got {status:?}");
}

/// A drain wedged behind a long stall: the second SIGTERM must force a
/// prompt exit instead of waiting out the drain budget.
#[test]
fn second_sigterm_forces_a_prompt_exit() {
    let daemon = spawn_daemon(&[
        "--workers",
        "1",
        "--drain-ms",
        "30000",
        "--faults",
        "worker-stall=20000:1",
    ]);
    // One in-flight compile, wedged for 20 s; we never read the answer.
    let stream = TcpStream::connect(daemon.addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    writer
        .write_all(format!("{COMPILE}\n").as_bytes())
        .and_then(|()| writer.flush())
        .expect("send");
    std::thread::sleep(Duration::from_millis(100));
    let t = Instant::now();
    sigterm(&daemon.child);
    std::thread::sleep(Duration::from_millis(200));
    sigterm(&daemon.child);
    let mut child = daemon.child;
    let status = child.wait().expect("daemon exits");
    assert!(
        t.elapsed() < Duration::from_secs(5),
        "second SIGTERM must not wait out the stall or the drain budget"
    );
    assert_eq!(status.code(), Some(1), "forced exit reports failure");
    drop(stream);
}
