//! Crash-restart integration: a real `qpilotd` process with `--store`,
//! killed with `SIGKILL` mid-flight, must come back serving the same
//! request as a warm hit with byte-identical schedule JSON — and must
//! shrug off the half-written blobs a kill can leave behind.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use qpilot_core::json::{self, Value};
use qpilot_service::protocol::{circuit_to_value_json, compile_request_line};
use qpilot_workloads::random::{random_circuit, RandomCircuitConfig};

struct Daemon {
    child: Child,
    addr: SocketAddr,
    /// Keeps the stdout pipe's read end open: the daemon's exit message
    /// must not hit a broken pipe.
    _stdout: BufReader<std::process::ChildStdout>,
}

/// Spawns `qpilotd --listen 127.0.0.1:0 --store <dir>` and parses the
/// readiness line for the bound address.
fn spawn_daemon(store: &Path) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_qpilotd"))
        .args([
            "--listen",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--store",
            store.to_str().expect("utf-8 store path"),
        ])
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
    json::parse(response.trim_end()).expect("valid response JSON")
}

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qpilot_restart_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const COMPILE: &str = r#"{"op":"compile","circuit":{"num_qubits":5,"gates":[["cz",0,1],["cz",2,3],["h",4],["cx",3,4],["rz",1,0.37]]}}"#;
const QSIM: &str = r#"{"op":"compile","router":"qsim","strings":["ZZIII","IXXII"],"theta":0.4}"#;

#[test]
fn sigkilled_daemon_restarts_warm_with_byte_identical_schedules() {
    let store = temp_store("warm");

    // First life: compile two workloads (different router tags) cold.
    let daemon = spawn_daemon(&store);
    let first = request(daemon.addr, COMPILE);
    assert_eq!(first.get("ok"), Some(&Value::Bool(true)), "{first:?}");
    assert_eq!(first.get("cache").and_then(Value::as_str), Some("miss"));
    let first_schedule = first.get("schedule").expect("schedule body").to_json();
    let qsim_first = request(daemon.addr, QSIM);
    assert_eq!(
        qsim_first.get("cache").and_then(Value::as_str),
        Some("miss")
    );
    let qsim_schedule = qsim_first.get("schedule").expect("schedule").to_json();

    // SIGKILL: no destructors, no clean shutdown, no flush.
    let mut child = daemon.child;
    child.kill().expect("SIGKILL daemon");
    child.wait().expect("reap daemon");

    // A kill can also leave torn files behind; plant both shapes the
    // recovery pass must tolerate: a stray .tmp and a truncated blob.
    std::fs::write(
        store.join("0123456789abcdef0123456789abcdef.schedule.json.tmp"),
        "{\"format\":\"qpilot.sched",
    )
    .expect("plant stray tmp");
    std::fs::write(
        store.join("fedcba9876543210fedcba9876543210.schedule.json"),
        "{\"format\":\"qpilot.schedule/v1\",\"num_da",
    )
    .expect("plant truncated blob");

    // Second life, same store: both requests must be disk-warm hits with
    // byte-identical schedules, and the torn files must not be fatal.
    let daemon = spawn_daemon(&store);
    let second = request(daemon.addr, COMPILE);
    assert_eq!(second.get("ok"), Some(&Value::Bool(true)), "{second:?}");
    assert_eq!(
        second.get("cache").and_then(Value::as_str),
        Some("hit"),
        "restart must serve from the recovered store: {second:?}"
    );
    assert_eq!(
        second.get("fingerprint").and_then(Value::as_str),
        first.get("fingerprint").and_then(Value::as_str)
    );
    assert_eq!(
        second.get("schedule").expect("schedule body").to_json(),
        first_schedule,
        "recovered schedule must be byte-identical"
    );
    let qsim_second = request(daemon.addr, QSIM);
    assert_eq!(
        qsim_second.get("cache").and_then(Value::as_str),
        Some("hit")
    );
    assert_eq!(
        qsim_second.get("schedule").expect("schedule").to_json(),
        qsim_schedule
    );

    // The recovery stats line up: 2 good blobs in, 0 recompiles.
    let stats = request(daemon.addr, r#"{"op":"stats"}"#);
    assert_eq!(stats.get("store_loaded").and_then(Value::as_u64), Some(2));
    assert_eq!(stats.get("compiles").and_then(Value::as_u64), Some(0));

    // The truncated blob was cleaned up, not served.
    assert!(!store
        .join("fedcba9876543210fedcba9876543210.schedule.json")
        .exists());

    let bye = request(daemon.addr, r#"{"op":"shutdown"}"#);
    assert_eq!(bye.get("ok"), Some(&Value::Bool(true)));
    let mut child = daemon.child;
    let status = child.wait().expect("daemon exits");
    assert!(status.success());
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn corrupted_store_never_blocks_startup() {
    let store = temp_store("corrupt");
    std::fs::create_dir_all(&store).expect("mkdir");
    // Worst-case directory: an older version's index file holding
    // garbage, a garbage blob, an unrelated file.
    std::fs::write(store.join("index.json"), "not json at all").unwrap();
    std::fs::write(
        store.join("00000000000000000000000000000000.schedule.json"),
        "also not json",
    )
    .unwrap();
    std::fs::write(store.join("README.txt"), "hands off").unwrap();

    let daemon = spawn_daemon(&store);
    // The daemon started (we got a readiness line) and compiles fresh.
    let response = request(daemon.addr, COMPILE);
    assert_eq!(response.get("cache").and_then(Value::as_str), Some("miss"));
    let stats = request(daemon.addr, r#"{"op":"stats"}"#);
    assert_eq!(stats.get("store_loaded").and_then(Value::as_u64), Some(0));
    assert_eq!(
        stats.get("store_persisted").and_then(Value::as_u64),
        Some(1)
    );
    // Files that are not blobs are untouched.
    assert!(store.join("README.txt").exists());
    assert_eq!(
        std::fs::read_to_string(store.join("index.json")).unwrap(),
        "not json at all"
    );

    request(daemon.addr, r#"{"op":"shutdown"}"#);
    let mut child = daemon.child;
    child.wait().expect("daemon exits");
    let _ = std::fs::remove_dir_all(&store);
}

/// Restart time is bounded: a store of four 100-qubit schedules
/// (~0.5 MB of JSON each) is read back in well under 2 s, even by a
/// debug build, so recovery cannot grow with the square of a blob.
#[test]
fn four_100_qubit_blobs_recover_within_2_s() {
    let store = temp_store("recovery");
    let daemon = spawn_daemon(&store);
    for seed in 1..=4 {
        let circuit = random_circuit(&RandomCircuitConfig::paper(100, 10, seed));
        let line = compile_request_line(&circuit_to_value_json(&circuit), None, None, None, false);
        let reply = request(daemon.addr, &line);
        assert_eq!(reply.get("cache").and_then(Value::as_str), Some("miss"));
    }
    request(daemon.addr, r#"{"op":"shutdown"}"#);
    let mut child = daemon.child;
    child.wait().expect("daemon exits");

    // The readiness line follows recovery.
    let started = Instant::now();
    let daemon = spawn_daemon(&store);
    let recovery = started.elapsed();
    let stats = request(daemon.addr, r#"{"op":"stats"}"#);
    request(daemon.addr, r#"{"op":"shutdown"}"#);
    let mut child = daemon.child;
    child.wait().expect("daemon exits");
    let _ = std::fs::remove_dir_all(&store);
    assert_eq!(stats.get("store_loaded").and_then(Value::as_u64), Some(4));
    assert!(
        recovery < Duration::from_secs(2),
        "recovering 4 blobs took {recovery:?}"
    );
}
