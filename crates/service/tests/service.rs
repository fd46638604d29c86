//! End-to-end service tests: a real TCP server on a loopback port, the
//! wire protocol over actual sockets, QASM-carried workloads, and
//! backpressure behaviour.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use qpilot_circuit::Circuit;
use qpilot_core::json::{self, json_str, Value};
use qpilot_core::wire::schedule_from_json;
use qpilot_service::protocol::{circuit_to_value_json, compile_request_line, handle_line};
use qpilot_service::{
    serve_tcp, CompileRequest, ReactorOptions, Service, ServiceConfig, MAX_REQUEST_LINE_BYTES,
};
use qpilot_workloads::bv::bernstein_vazirani_random;
use qpilot_workloads::graphs::erdos_renyi;
use qpilot_workloads::random::{random_circuit, RandomCircuitConfig};

fn test_service(workers: usize, queue: usize) -> Service {
    Service::new(ServiceConfig {
        workers,
        queue_capacity: queue,
        cache_capacity: 64,
        cache_shards: 4,
        ..ServiceConfig::default()
    })
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to test daemon");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    fn request(&mut self, line: &str) -> Value {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send request");
        self.writer.flush().expect("flush request");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read response");
        json::parse(response.trim_end()).expect("valid response json")
    }
}

/// The workload generators the service integration suite exercises,
/// shipped over the wire as QASM (each also round-trips through
/// `circuit::qasm` by construction of the protocol path).
fn workload_circuits() -> Vec<(&'static str, Circuit)> {
    vec![
        (
            "random",
            random_circuit(&RandomCircuitConfig::paper(9, 3, 7)),
        ),
        ("bv", bernstein_vazirani_random(8, 3)),
        ("qaoa", erdos_renyi(9, 0.4, 5).qaoa_circuit_p1()),
    ]
}

#[test]
fn tcp_compile_twice_hits_cache_with_byte_identical_schedule() {
    let server = serve_tcp(test_service(2, 8), "127.0.0.1:0", ReactorOptions::default()).unwrap();
    let mut client = Client::connect(server.local_addr());

    let circuit = random_circuit(&RandomCircuitConfig::paper(8, 3, 1));
    let line = compile_request_line(&circuit_to_value_json(&circuit), None, None, None, true);

    let first = client.request(&line);
    assert_eq!(first.get("ok"), Some(&Value::Bool(true)));
    assert_eq!(first.get("cache").and_then(Value::as_str), Some("miss"));

    // Same request from a *different* connection must hit.
    let mut other = Client::connect(server.local_addr());
    let second = other.request(&line);
    assert_eq!(second.get("cache").and_then(Value::as_str), Some("hit"));
    assert_eq!(
        first.get("fingerprint").and_then(Value::as_str),
        second.get("fingerprint").and_then(Value::as_str)
    );
    // Byte-identical schedules (canonical serialisation makes this a
    // meaningful comparison).
    assert_eq!(
        first.get("schedule").map(Value::to_json),
        second.get("schedule").map(Value::to_json)
    );

    let stats = client.request("{\"op\":\"stats\"}");
    assert_eq!(stats.get("hits").and_then(Value::as_u64), Some(1));
    assert_eq!(stats.get("compiles").and_then(Value::as_u64), Some(1));

    server.shutdown();
}

#[test]
fn workloads_compile_identically_via_qasm_and_inline_circuit() {
    let server = serve_tcp(test_service(2, 8), "127.0.0.1:0", ReactorOptions::default()).unwrap();
    let mut client = Client::connect(server.local_addr());

    for (name, circuit) in workload_circuits() {
        // The QAOA workload contains `rzz`, which QASM export expands to
        // cx/rz/cx — send the *parsed* equivalent inline so both paths
        // describe the same gate list (the expansion happens client-side
        // exactly once, mirroring what any QASM-speaking client sees).
        let canonical = Circuit::from_qasm(&circuit.to_qasm())
            .unwrap_or_else(|e| panic!("{name}: qasm round trip failed: {e}"));
        let via_qasm = format!(
            "{{\"op\":\"compile\",\"qasm\":{}}}",
            json_str(&circuit.to_qasm())
        );
        let via_inline =
            compile_request_line(&circuit_to_value_json(&canonical), None, None, None, true);

        let qasm_response = client.request(&via_qasm);
        assert_eq!(
            qasm_response.get("ok"),
            Some(&Value::Bool(true)),
            "{name}: {qasm_response:?}"
        );
        let inline_response = client.request(&via_inline);
        // Identical fingerprints: the QASM path and the inline path are
        // the same request, so the second is a cache hit.
        assert_eq!(
            qasm_response.get("fingerprint").and_then(Value::as_str),
            inline_response.get("fingerprint").and_then(Value::as_str),
            "{name}: qasm/inline fingerprints diverge"
        );
        assert_eq!(
            inline_response.get("cache").and_then(Value::as_str),
            Some("hit"),
            "{name}"
        );
        // The schedule parses back into a well-formed Schedule.
        let schedule_text = qasm_response
            .get("schedule")
            .expect("schedule body")
            .to_json();
        let schedule = schedule_from_json(&schedule_text)
            .unwrap_or_else(|e| panic!("{name}: schedule parse failed: {e}"));
        assert_eq!(schedule.num_data, canonical.num_qubits());
    }
    server.shutdown();
}

#[test]
fn racing_tcp_clients_on_one_cold_fingerprint_compile_exactly_once() {
    let server = serve_tcp(test_service(4, 8), "127.0.0.1:0", ReactorOptions::default()).unwrap();
    let addr = server.local_addr();
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(8));
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                let circuit = random_circuit(&RandomCircuitConfig::paper(12, 4, 4321));
                let line =
                    compile_request_line(&circuit_to_value_json(&circuit), None, None, None, true);
                barrier.wait();
                let response = client.request(&line);
                assert_eq!(response.get("ok"), Some(&Value::Bool(true)), "{response:?}");
                (
                    response
                        .get("cache")
                        .and_then(Value::as_str)
                        .unwrap()
                        .to_string(),
                    response.get("schedule").map(Value::to_json).unwrap(),
                )
            })
        })
        .collect();
    let results: Vec<(String, String)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // Exactly one miss (the leader's compile); the rest coalesced onto it
    // or hit the cache just after the insert. All bytes identical.
    let misses = results.iter().filter(|(c, _)| c == "miss").count();
    assert_eq!(
        misses,
        1,
        "cache outcomes: {:?}",
        results.iter().map(|(c, _)| c).collect::<Vec<_>>()
    );
    for (_, schedule) in &results {
        assert_eq!(schedule, &results[0].1, "racing responses diverged");
    }
    let mut client = Client::connect(addr);
    let stats = client.request("{\"op\":\"stats\"}");
    assert_eq!(
        stats.get("compiles").and_then(Value::as_u64),
        Some(1),
        "exactly one compile ran: {stats:?}"
    );
    // Request-level accounting still balances: every request probed the
    // cache exactly once, whether it led, coalesced, or hit.
    let hits = stats.get("hits").and_then(Value::as_u64).unwrap();
    let misses = stats.get("misses").and_then(Value::as_u64).unwrap();
    assert_eq!(hits + misses, 8, "{stats:?}");
    let coalesced = stats.get("coalesced").and_then(Value::as_u64).unwrap();
    assert!(coalesced < 8, "{stats:?}");
    server.shutdown();
}

#[test]
fn concurrent_burst_with_tiny_queue_loses_no_request() {
    // 1 worker, queue depth 2: the 16-client burst is absorbed by a mix
    // of coalescing and `Overloaded` shedding. Every rejection must
    // carry a machine-readable `retry_after_ms` hint, and a client that
    // honours it always lands.
    let server = serve_tcp(test_service(1, 2), "127.0.0.1:0", ReactorOptions::default()).unwrap();
    let addr = server.local_addr();
    let handles: Vec<_> = (0..16)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                // Half the clients share a circuit (cache hits), half are
                // distinct (cache misses through the queue).
                let seed = if i % 2 == 0 { 1000 } else { i };
                let circuit = random_circuit(&RandomCircuitConfig::paper(6, 2, seed));
                let line =
                    compile_request_line(&circuit_to_value_json(&circuit), None, None, None, false);
                for _attempt in 0..100 {
                    let response = client.request(&line);
                    if response.get("ok") == Some(&Value::Bool(true)) {
                        return;
                    }
                    assert_eq!(
                        response.get("retry"),
                        Some(&Value::Bool(true)),
                        "only retryable rejections allowed: {response:?}"
                    );
                    let hint = response
                        .get("retry_after_ms")
                        .and_then(Value::as_u64)
                        .expect("overload rejection carries a backoff hint");
                    std::thread::sleep(std::time::Duration::from_millis(hint.min(50)));
                }
                panic!("request never served despite honouring backoff hints");
            })
        })
        .collect();
    for h in handles {
        h.join().expect("burst client");
    }
    let mut client = Client::connect(addr);
    let stats = client.request("{\"op\":\"stats\"}");
    assert!(
        stats.get("requests").and_then(Value::as_u64) >= Some(16),
        "all requests reached the service: {stats:?}"
    );
    server.shutdown();
}

#[test]
fn in_process_api_matches_wire_results() {
    let service = test_service(1, 4);
    let circuit = bernstein_vazirani_random(6, 9);
    let api = service
        .compile(CompileRequest::new(circuit.clone()))
        .expect("api compile");

    let server = serve_tcp(service, "127.0.0.1:0", ReactorOptions::default()).unwrap();
    let mut client = Client::connect(server.local_addr());
    let line = compile_request_line(&circuit_to_value_json(&circuit), None, None, None, true);
    let wire = client.request(&line);
    assert_eq!(wire.get("cache").and_then(Value::as_str), Some("hit"));
    assert_eq!(
        wire.get("fingerprint").and_then(Value::as_str),
        Some(api.fingerprint.to_string().as_str())
    );
    assert_eq!(
        wire.get("schedule").map(Value::to_json).expect("schedule"),
        api.entry.schedule_json.as_ref()
    );
    server.shutdown();
}

/// The contract CI's service smoke depends on: `qpilotd --listen
/// 127.0.0.1:0` binds an ephemeral port and prints the *actual* bound
/// address in its readiness line, which scripts parse back instead of
/// assuming a fixed (collision-prone) port.
#[test]
fn daemon_binary_announces_ephemeral_port_and_serves() {
    use std::process::{Command, Stdio};

    let mut child = Command::new(env!("CARGO_BIN_EXE_qpilotd"))
        .args(["--listen", "127.0.0.1:0", "--workers", "1"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn qpilotd");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut ready = String::new();
    stdout.read_line(&mut ready).expect("readiness line");
    let addr: std::net::SocketAddr = ready
        .trim()
        .strip_prefix("qpilotd listening on ")
        .unwrap_or_else(|| panic!("unexpected readiness line: {ready:?}"))
        .parse()
        .expect("readiness line carries the bound address");
    assert_ne!(addr.port(), 0, "daemon must announce the real port");

    let mut client = Client::connect(addr);
    let pong = client.request("{\"op\":\"ping\"}");
    assert_eq!(pong.get("op").and_then(Value::as_str), Some("pong"));
    let bye = client.request("{\"op\":\"shutdown\"}");
    assert_eq!(bye.get("ok"), Some(&Value::Bool(true)));

    let status = child.wait().expect("daemon exits after shutdown");
    assert!(status.success(), "daemon exit status: {status:?}");
}

/// A flag `qpilotd` does not know, or a number it cannot parse, is a
/// startup error naming the flag, not a silently ignored setting.
#[test]
fn daemon_binary_rejects_unknown_and_malformed_flags() {
    use std::process::{Command, Stdio};

    for (args, flag) in [
        (&["--bogus-ms", "40"][..], "--bogus-ms"),
        (&["--max-compile-ms", "10s"][..], "--max-compile-ms"),
        (&["--workers", "two"][..], "--workers"),
        // Older daemons took this flag; a deployment script that still
        // passes it must fail loudly.
        (&["--store-max-bytes"][..], "--store-max-bytes"),
        // The cache's lock-stripe count is not a daemon flag; on
        // `qpilot-router` and `qpilot-cli` `--shards` names fleet shards.
        (&["--shards", "4"][..], "--shards"),
    ] {
        // With the flags accepted, `--stdio` would serve the empty stdin
        // and exit 0.
        let output = Command::new(env!("CARGO_BIN_EXE_qpilotd"))
            .arg("--stdio")
            .args(args)
            .stdin(Stdio::null())
            .output()
            .expect("run qpilotd");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
    }
}

/// `qpilotd --stdio` end to end: a ping, a blank keep-alive, an
/// oversized line and a final ping without its newline draw three
/// replies in order, and end of input stops the daemon cleanly.
#[test]
fn daemon_binary_serves_stdio_until_end_of_input() {
    use std::process::{Command, Stdio};

    let mut child = Command::new(env!("CARGO_BIN_EXE_qpilotd"))
        .args(["--stdio", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn qpilotd");
    let mut input = b"{\"op\":\"ping\",\"request_id\":\"s-1\"}\n\n".to_vec();
    input.extend(std::iter::repeat_n(b'x', MAX_REQUEST_LINE_BYTES + 1));
    input.extend_from_slice(b"\n{\"op\":\"ping\",\"request_id\":\"s-2\"}");
    let mut stdin = child.stdin.take().expect("piped stdin");
    // Written from a thread, and closed when it is done: the daemon
    // answers while the input is still arriving.
    let writer = std::thread::spawn(move || stdin.write_all(&input));
    let output = child.wait_with_output().expect("daemon exits");
    writer.join().expect("writer thread").expect("write stdin");
    assert!(output.status.success(), "exit status: {:?}", output.status);
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 replies");
    let replies: Vec<&str> = stdout.lines().collect();
    assert_eq!(replies.len(), 3, "{stdout}");
    assert_eq!(replies[0], r#"{"ok":true,"op":"pong","request_id":"s-1"}"#);
    assert!(
        replies[1].starts_with(r#"{"ok":false"#) && replies[1].contains("exceeds"),
        "{}",
        replies[1]
    );
    assert_eq!(replies[2], r#"{"ok":true,"op":"pong","request_id":"s-2"}"#);
}

/// A few bytes naming a huge size get an error line naming the field,
/// not an allocation of gigabytes or a panic: `qpilotd --stdio` answers
/// each, compiles a circuit at the limit, and still answers a ping.
#[test]
fn oversized_request_sizes_are_refused_by_a_live_daemon() {
    use std::process::{Command, Stdio};

    let refused = [
        (
            r#"{"op":"compile","circuit":{"num_qubits":4000000000,"gates":[]}}"#,
            "num_qubits",
        ),
        (r#"{"op":"compile","qasm":"qreg q[4000000000];"}"#, "qasm"),
        (
            r#"{"op":"compile","router":"qaoa","qubits":4000000000,"edges":[],"gamma":0.7}"#,
            "qubits",
        ),
        (
            r#"{"op":"compile","router":"qaoa","qubits":2,"edges":[[0,1]],"gamma":0.7,"anchors":4000000000}"#,
            "anchors",
        ),
        (
            r#"{"op":"compile","circuit":{"num_qubits":2,"gates":[]},"cols":4000000000}"#,
            "cols",
        ),
        (
            r#"{"op":"compile","router":"qec","distance":70000}"#,
            "distance",
        ),
        (
            r#"{"op":"compile","router":"qec","distance":2,"rounds":400000000}"#,
            "rounds",
        ),
        (
            r#"{"op":"compile","router":"qec","distance":65536}"#,
            "distance",
        ),
    ];
    let mut input = String::new();
    for (line, _) in refused {
        input.push_str(line);
        input.push('\n');
    }
    input.push_str(
        r#"{"op":"compile","schedule":false,"circuit":{"num_qubits":65536,"gates":[["cz",0,1]]}}"#,
    );
    input.push_str("\n{\"op\":\"ping\"}\n");

    let mut child = Command::new(env!("CARGO_BIN_EXE_qpilotd"))
        .args(["--stdio", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn qpilotd");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let writer = std::thread::spawn(move || stdin.write_all(input.as_bytes()));
    let output = child.wait_with_output().expect("daemon exits");
    writer.join().expect("writer thread").expect("write stdin");
    assert!(output.status.success(), "exit status: {:?}", output.status);
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 replies");
    let replies: Vec<Value> = stdout
        .lines()
        .map(|line| json::parse(line).expect("JSON reply"))
        .collect();
    assert_eq!(replies.len(), refused.len() + 2, "{stdout}");
    for ((line, field), reply) in refused.iter().zip(&replies) {
        assert_eq!(reply.get("ok"), Some(&Value::Bool(false)), "{line}");
        let error = reply.get("error").and_then(Value::as_str).unwrap_or("");
        assert!(error.contains(&format!("`{field}`")), "{line}: {error}");
    }
    let at_limit = &replies[refused.len()];
    assert_eq!(at_limit.get("ok"), Some(&Value::Bool(true)), "{stdout}");
    let pong = &replies[refused.len() + 1];
    assert_eq!(pong.get("op").and_then(Value::as_str), Some("pong"));
}

/// `qpilot-cli` stops with exit 2 naming the flag when it meets a flag
/// it does not know or a value flag without its value, instead of
/// dialling the default daemon.
#[test]
fn cli_binary_rejects_unknown_flags_and_missing_values() {
    use std::io::Read as _;
    use std::process::{Command, Stdio};
    use std::time::{Duration, Instant};

    for (args, flag) in [
        (&["ping", "--conect", "127.0.0.1:1"][..], "--conect"),
        (&["ping", "--connect"][..], "--connect"),
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_qpilot-cli"))
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn qpilot-cli");
        let give_up = Instant::now() + Duration::from_secs(10);
        let status = loop {
            if let Some(status) = child.try_wait().expect("poll qpilot-cli") {
                break Some(status);
            }
            if Instant::now() >= give_up {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let mut stderr = String::new();
        let _ = child
            .stderr
            .take()
            .expect("piped stderr")
            .read_to_string(&mut stderr);
        assert_eq!(
            status.and_then(|s| s.code()),
            Some(2),
            "{args:?} did not stop the client: {stderr}"
        );
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
    }
}

#[test]
fn malformed_lines_do_not_poison_the_connection() {
    let server = serve_tcp(test_service(1, 4), "127.0.0.1:0", ReactorOptions::default()).unwrap();
    let mut client = Client::connect(server.local_addr());
    let bad = client.request("{\"op\":\"compile\"}");
    assert_eq!(bad.get("ok"), Some(&Value::Bool(false)));
    let good = client.request("{\"op\":\"ping\"}");
    assert_eq!(good.get("op").and_then(Value::as_str), Some("pong"));
    server.shutdown();
}

/// One connection pipelines hits of a ~0.5 MB schedule far past the
/// reactor's 4 MiB write backlog, with a too-long line and an invalid
/// line among them, and reads nothing until every line is sent. The
/// reactor pauses reading at the cap and resumes as the client drains.
/// Read back in small pieces of uneven size, so writes end inside a
/// schedule, every reply is the line `handle_line` renders for its
/// request, in request order.
#[test]
fn pipelined_hits_past_the_write_backlog_arrive_whole_and_in_order() {
    const HITS: usize = 32;
    let service = test_service(1, 4);
    let hit = |i: usize| {
        format!(
            r#"{{"op":"compile","router":"qec","distance":9,"rounds":20,"request_id":"bp-{i}"}}"#
        )
    };
    let miss = handle_line(&service, &hit(0)).response;
    assert!(miss.contains(r#""cache":"miss""#), "{}", &miss[..200]);
    let mut lines: Vec<String> = (1..=HITS).map(hit).collect();
    lines.insert(
        HITS / 2,
        r#"{"op":"compile","router":"qec","request_id":"bp-bad"}"#.to_string(),
    );
    // The expected replies, rendered before the server starts.
    let mut expected: Vec<String> = lines
        .iter()
        .map(|line| handle_line(&service, line).response)
        .collect();
    assert!(expected[0].contains(r#""cache":"hit""#));
    assert!(expected[0].len() > 500_000, "{} bytes", expected[0].len());
    assert!(expected[HITS / 2].starts_with(r#"{"ok":false"#));

    // The too-long line goes early, while the reactor still reads.
    let too_long_at = 2;
    let mut sent = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if i == too_long_at {
            sent.resize(sent.len() + MAX_REQUEST_LINE_BYTES + 1, b'x');
            sent.push(b'\n');
        }
        sent.extend_from_slice(line.as_bytes());
        sent.push(b'\n');
    }
    let too_long = format!("request line exceeds {MAX_REQUEST_LINE_BYTES} bytes");
    expected.insert(too_long_at, String::new());

    let server = serve_tcp(service, "127.0.0.1:0", ReactorOptions::default()).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    stream.write_all(&sent).unwrap();
    let mut received = Vec::new();
    let mut piece = [0u8; 4093];
    let mut sizes = [1, 7, 4093, 512, 3001].into_iter().cycle();
    let mut newlines = 0;
    while newlines < expected.len() {
        let n = std::io::Read::read(&mut stream, &mut piece[..sizes.next().unwrap()]).unwrap();
        assert!(n > 0, "the connection closed after {newlines} replies");
        newlines += piece[..n].iter().filter(|&&b| b == b'\n').count();
        received.extend_from_slice(&piece[..n]);
    }
    let received = String::from_utf8(received).expect("utf-8 replies");
    let replies: Vec<&str> = received.split_terminator('\n').collect();
    assert_eq!(replies.len(), expected.len(), "one reply per request line");
    for (i, (reply, expected)) in replies.iter().zip(&expected).enumerate() {
        if i == too_long_at {
            let doc = json::parse(reply).expect("valid error line");
            assert_eq!(doc.get("ok"), Some(&Value::Bool(false)), "{reply}");
            assert_eq!(doc.get("error").and_then(Value::as_str), Some(&*too_long));
        } else {
            assert!(
                reply == expected,
                "reply {i} differs: {}…",
                &reply[..reply.len().min(120)]
            );
        }
    }
    server.shutdown();
}
