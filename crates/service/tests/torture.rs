//! The daemon torture suite: malformed, truncated, oversized, and
//! interleaved line-delimited JSON fired at a *live* daemon over real
//! sockets.
//!
//! The protocol contract under attack:
//!
//! * every request line gets exactly one response line (an
//!   `{"ok":false,…}` error or an `{"ok":true,…}` result), in order;
//! * every response line is itself valid JSON — no panic message, stack
//!   trace, or partial write ever reaches the wire;
//! * neither the connection nor the daemon dies from hostile input; a
//!   well-formed request right after garbage is still served.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;
use qpilot_core::json::{self, Value};
use qpilot_service::{serve_tcp, ReactorOptions, Service, ServiceConfig, MAX_REQUEST_LINE_BYTES};

/// A small service whose compiles end by a deadline, so a request that
/// names a legal but huge size is answered in bounded time.
fn torture_service() -> Service {
    Service::new(ServiceConfig {
        workers: 2,
        queue_capacity: 8,
        cache_capacity: 32,
        cache_shards: 4,
        max_compile_ms: Some(2_000),
        ..ServiceConfig::default()
    })
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to test daemon");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    fn send_raw(&mut self, line: &str) {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .expect("send request");
    }

    fn read_response(&mut self) -> String {
        let mut response = String::new();
        let n = self.reader.read_line(&mut response).expect("read response");
        assert!(n > 0, "daemon closed the connection instead of answering");
        response.trim_end().to_string()
    }

    fn request(&mut self, line: &str) -> String {
        self.send_raw(line);
        self.read_response()
    }
}

/// A pool of well-formed request lines the fuzzers mutate.
const VALID_LINES: &[&str] = &[
    r#"{"op":"ping"}"#,
    r#"{"op":"stats"}"#,
    r#"{"op":"compile","circuit":{"num_qubits":3,"gates":[["cz",0,1],["h",2]]}}"#,
    r#"{"op":"compile","qasm":"OPENQASM 2.0;\nqreg q[3];\ncz q[0], q[1];"}"#,
    r#"{"op":"compile","router":"qsim","strings":["ZZI","IXX"],"theta":0.5}"#,
    r#"{"op":"compile","router":"qaoa","qubits":3,"edges":[[0,1],[1,2]],"gamma":0.7,"beta":0.3}"#,
];

/// Strategy: printable garbage (braces, quotes, colons and friends are
/// over-represented so the JSON parser gets exercised past the first
/// byte).
fn arb_garbage() -> impl Strategy<Value = String> {
    prop::collection::vec(0u32..96, 0..64).prop_map(|codes| {
        const PALETTE: &[u8; 32] = br#"{}[]":,.x0-9eE+qasmop nul\T{}[]""#;
        codes
            .into_iter()
            .map(|c| {
                if c < 32 {
                    PALETTE[c as usize] as char
                } else {
                    char::from_u32(0x20 + (c - 32) * 7 % 0x5F).unwrap_or('?')
                }
            })
            .collect()
    })
}

/// Strategy: a valid request truncated at an arbitrary byte — the
/// "client died mid-write" shape.
fn arb_truncated() -> impl Strategy<Value = String> {
    (0u32..VALID_LINES.len() as u32, 0.0f64..1.0).prop_map(|(idx, frac)| {
        let line = VALID_LINES[idx as usize];
        let mut cut = ((line.len() as f64) * frac) as usize;
        while cut < line.len() && !line.is_char_boundary(cut) {
            cut += 1;
        }
        line[..cut].to_string()
    })
}

/// Strategy: a valid request with a random field replaced by a
/// wrongly-typed value (numbers for strings, strings for arrays, …).
fn arb_mistyped() -> impl Strategy<Value = String> {
    let swaps: &[(&str, &str)] = &[
        (r#""op":"ping""#, r#""op":42"#),
        (r#""op":"compile""#, r#""op":["compile"]"#),
        (r#""num_qubits":3"#, r#""num_qubits":"three""#),
        (r#""gates":[["cz",0,1],["h",2]]"#, r#""gates":"cz 0 1""#),
        (r#""theta":0.5"#, r#""theta":"half""#),
        (r#""theta":0.5"#, r#""theta":1e999"#),
        (r#""strings":["ZZI","IXX"]"#, r#""strings":[0,1]"#),
        (r#""edges":[[0,1],[1,2]]"#, r#""edges":[[0],[1,2,3]]"#),
        (r#""qubits":3"#, r#""qubits":-3"#),
        (r#""gamma":0.7"#, r#""gamma":null"#),
        (r#""router":"qsim""#, r#""router":"warp""#),
    ];
    let n = swaps.len() as u32;
    let owned: Vec<(String, String)> = swaps
        .iter()
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .collect();
    (0u32..VALID_LINES.len() as u32, 0u32..n).prop_map(move |(line_idx, swap_idx)| {
        let (from, to) = &owned[swap_idx as usize];
        VALID_LINES[line_idx as usize].replace(from.as_str(), to.as_str())
    })
}

/// Strategy: one torture line of any flavour (including untouched valid
/// requests, so interleavings are realistic).
fn arb_line() -> impl Strategy<Value = String> {
    prop_oneof![
        arb_garbage(),
        arb_truncated(),
        arb_mistyped(),
        (0u32..VALID_LINES.len() as u32).prop_map(|i| VALID_LINES[i as usize].to_string()),
    ]
}

/// The values every numeric slot of [`TEMPLATES`] is drawn from, as JSON
/// text: the edges of `u32`, of exact `f64` integers and of
/// `MAX_WIRE_QUBITS` (65 536), signs, fractions, overflow to infinity,
/// and values of the wrong type.
const NUMERIC_EDGES: [&str; 17] = [
    "0",
    "1",
    "2147483647",
    "4294967295",
    "4294967296",
    "9007199254740992",
    "9007199254740993",
    "65535",
    "65537",
    "-1",
    "-0.0",
    "0.5",
    "1e300",
    "1e999",
    r#""x""#,
    "null",
    "true",
];

/// One request per op and per router, inline circuits and QASM, with a
/// slot for every number: `#` takes a value of [`NUMERIC_EDGES`] as is,
/// `$` takes it as text inside the QASM string. `shutdown` is left out:
/// it ends the daemon, which the property's closing ping must reach.
const TEMPLATES: &[&str] = &[
    r#"{"op":"ping","request_id":#}"#,
    r#"{"op":"stats","request_id":#}"#,
    r#"{"op":"store-stats","request_id":#}"#,
    r#"{"op":"metrics","request_id":#}"#,
    r#"{"op":"compile","circuit":{"num_qubits":#,"gates":[["cz",#,#],["rz",#,#]]},"cols":#,"stage_cap":#,"deadline_ms":#}"#,
    r#"{"op":"compile","qasm":"OPENQASM 2.0;\nqreg q[$];\ncz q[$], q[$];\nrz($) q[$];","schedule":false}"#,
    r#"{"op":"compile","router":"qsim","strings":["ZZI","IXX"],"theta":#,"max_copies":#,"cols":#}"#,
    r#"{"op":"compile","router":"qsim","strings":["ZZI","IXX"],"angles":[#,#]}"#,
    r#"{"op":"compile","router":"qaoa","qubits":#,"edges":[[#,#],[#,#]],"gammas":[#],"betas":[#],"anchors":#}"#,
    r#"{"op":"compile","router":"qec","distance":#,"rounds":#,"theta":#,"parallel_waves":true}"#,
    r#"{"op":"compile","router":"auto","qubits":#,"edges":[[#,#]],"gamma":#}"#,
    r#"{"op":"compile","router":"auto","distance":#,"rounds":#,"deadline_ms":#}"#,
];

/// Strategy: a template with its slots filled from [`NUMERIC_EDGES`].
fn arb_numeric_edge_line() -> impl Strategy<Value = String> {
    let edges = NUMERIC_EDGES.len();
    (0..TEMPLATES.len(), prop::collection::vec(0..edges, 12)).prop_map(|(template, picks)| {
        let mut picks = picks.into_iter();
        let mut line = String::new();
        for c in TEMPLATES[template].chars() {
            let mut pick = || NUMERIC_EDGES[picks.next().expect("enough picks")];
            match c {
                '#' => line.push_str(pick()),
                '$' => line.push_str(&pick().replace('"', "\\\"")),
                c => line.push(c),
            }
        }
        line
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every number a request can carry, at its edges, in every slot of
    /// every op and router: each request gets one JSON line with a
    /// boolean `ok`, and the connection still answers a ping.
    #[test]
    fn numeric_edges_get_one_valid_json_response(
        lines in prop::collection::vec(arb_numeric_edge_line(), 1..4)
    ) {
        let server = serve_tcp(torture_service(), "127.0.0.1:0", ReactorOptions::default()).unwrap();
        let mut client = Client::connect(server.local_addr());
        client.writer.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        for line in &lines {
            let response = client.request(line);
            let doc = json::parse(&response);
            prop_assert!(doc.is_ok(), "non-JSON response {response:?} to {line:?}");
            let ok = doc.unwrap().get("ok").and_then(Value::as_bool);
            prop_assert!(ok.is_some(), "response without a boolean `ok` to {line:?}");
        }
        let pong = client.request(r#"{"op":"ping"}"#);
        prop_assert!(pong.contains("pong"), "connection poisoned: {pong:?}");
        server.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The core torture property: any sequence of hostile lines gets one
    /// valid-JSON response each, and the connection still serves a
    /// well-formed request afterwards.
    #[test]
    fn every_line_gets_one_valid_json_response(lines in prop::collection::vec(arb_line(), 1..8)) {
        let server = serve_tcp(torture_service(), "127.0.0.1:0", ReactorOptions::default()).unwrap();
        let mut client = Client::connect(server.local_addr());
        for line in &lines {
            if line.trim().is_empty() {
                continue; // blank lines are keep-alives, not requests
            }
            let response = client.request(line);
            let doc = json::parse(&response);
            prop_assert!(doc.is_ok(), "non-JSON response {response:?} to {line:?}");
            let ok = doc.unwrap().get("ok").and_then(Value::as_bool);
            prop_assert!(ok.is_some(), "response without `ok` to {line:?}");
        }
        // The connection survived the whole sequence.
        let pong = client.request(r#"{"op":"ping"}"#);
        prop_assert!(pong.contains("pong"), "connection poisoned: {pong:?}");
        // And so did the daemon (fresh connection).
        let mut fresh = Client::connect(server.local_addr());
        let pong = fresh.request(r#"{"op":"ping"}"#);
        prop_assert!(pong.contains("pong"), "daemon poisoned: {pong:?}");
        server.shutdown();
    }
}

/// Interleaved abuse: concurrent connections mixing garbage and real
/// compiles; every request on every connection is answered in order and
/// the shared worker pool survives.
#[test]
fn interleaved_garbage_and_compiles_across_connections() {
    let server = serve_tcp(torture_service(), "127.0.0.1:0", ReactorOptions::default()).unwrap();
    let addr = server.local_addr();
    let handles: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                for round in 0..6 {
                    let line = match (i + round) % 4 {
                        0 => VALID_LINES[2].to_string(),
                        1 => format!("{{\"op\":\"compile\",\"truncated{i}"),
                        2 => "]]]}{{{".to_string(),
                        _ => VALID_LINES[(i + round) % VALID_LINES.len()].to_string(),
                    };
                    let response = client.request(&line);
                    assert!(
                        json::parse(&response).is_ok(),
                        "thread {i} round {round}: bad response {response:?}"
                    );
                }
                // Each connection ends healthy.
                assert!(client.request(r#"{"op":"ping"}"#).contains("pong"));
            })
        })
        .collect();
    for h in handles {
        h.join().expect("torture client");
    }
    server.shutdown();
}

/// Oversized requests: the line is discarded as it streams, answered
/// with an error, and the same connection keeps working.
#[test]
fn oversized_request_line_is_rejected_not_fatal() {
    let server = serve_tcp(torture_service(), "127.0.0.1:0", ReactorOptions::default()).unwrap();
    let mut client = Client::connect(server.local_addr());
    // A syntactically valid JSON request that is simply too large.
    let mut line = String::with_capacity(MAX_REQUEST_LINE_BYTES + 64);
    line.push_str(r#"{"op":"compile","qasm":""#);
    while line.len() <= MAX_REQUEST_LINE_BYTES {
        line.push_str("// padding\\n");
    }
    line.push_str(r#""}"#);
    let response = client.request(&line);
    assert!(response.starts_with("{\"ok\":false"), "{response}");
    assert!(response.contains("exceeds"), "{response}");
    // Same connection, next request fine.
    assert!(client.request(r#"{"op":"ping"}"#).contains("pong"));
    server.shutdown();
}

/// Parsing is linear: a ping padded with a string to just under the
/// line cap is answered within 1 s, not after minutes of parser CPU.
#[test]
fn a_string_line_just_under_the_cap_is_answered_within_1_s() {
    let server = serve_tcp(torture_service(), "127.0.0.1:0", ReactorOptions::default()).unwrap();
    let mut client = Client::connect(server.local_addr());
    client
        .reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set a read timeout");
    let (head, tail) = (r#"{"op":"ping","pad":""#, r#""}"#);
    let pad = "x".repeat(MAX_REQUEST_LINE_BYTES - 64 - head.len() - tail.len());
    let line = format!("{head}{pad}{tail}");
    let started = Instant::now();
    let response = client.request(&line);
    let elapsed = started.elapsed();
    assert!(response.contains("pong"), "{response}");
    assert!(
        elapsed < Duration::from_secs(1),
        "answered after {elapsed:?}"
    );
    server.shutdown();
}

/// QASM is split into statements in linear time: a register, blank
/// lines filling the line cap and one gate are answered within 5 s.
#[test]
fn a_qasm_line_of_blank_lines_up_to_the_cap_is_answered_within_5_s() {
    let server = serve_tcp(torture_service(), "127.0.0.1:0", ReactorOptions::default()).unwrap();
    let mut client = Client::connect(server.local_addr());
    client
        .reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set a read timeout");
    let head = r#"{"op":"compile","schedule":false,"qasm":"qreg q[2];\n"#;
    let tail = r#"cz q[0], q[1];"}"#;
    // A space and an escaped newline: three bytes on the wire.
    let blank = r" \n";
    let lines = (MAX_REQUEST_LINE_BYTES - 64 - head.len() - tail.len()) / blank.len();
    let line = format!("{head}{}{tail}", blank.repeat(lines));
    let started = Instant::now();
    let response = client.request(&line);
    let elapsed = started.elapsed();
    assert!(response.starts_with("{\"ok\":true"), "{response}");
    assert!(
        elapsed < Duration::from_secs(5),
        "answered after {elapsed:?}"
    );
    server.shutdown();
}

/// A client that dies mid-line must not take anything with it.
#[test]
fn client_disconnect_mid_line_leaves_daemon_healthy() {
    let server = serve_tcp(torture_service(), "127.0.0.1:0", ReactorOptions::default()).unwrap();
    let addr = server.local_addr();
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(br#"{"op":"compile","circuit":{"num_q"#)
            .unwrap();
        stream.flush().unwrap();
        // Dropped without a newline: the daemon sees EOF mid-line.
    }
    let mut client = Client::connect(addr);
    assert!(client.request(r#"{"op":"ping"}"#).contains("pong"));
    // Compiles still work after the half-request.
    let response = client.request(VALID_LINES[2]);
    assert!(response.starts_with("{\"ok\":true"), "{response}");
    server.shutdown();
}

/// A slow-loris client: trickling *within* the per-line deadline is
/// served; stalling mid-line past it gets the connection closed, and
/// the daemon stays healthy for everyone else.
#[test]
fn slow_loris_trickle_is_cut_off_at_the_line_deadline() {
    let options = ReactorOptions {
        line_deadline: Duration::from_millis(400),
    };
    let server = serve_tcp(torture_service(), "127.0.0.1:0", options).unwrap();
    let addr = server.local_addr();
    // Trickling but finishing in time: still served.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        for chunk in br#"{"op":"ping"}"#.chunks(3) {
            stream.write_all(chunk).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(20));
        }
        stream.write_all(b"\n").unwrap();
        stream.flush().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        assert!(response.contains("pong"), "{response}");
    }
    // Stalling mid-line: disconnected near the deadline.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(br#"{"op":"comp"#).unwrap();
    stream.flush().unwrap();
    let started = Instant::now();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut response = String::new();
    let n = reader.read_line(&mut response).unwrap_or(0);
    assert_eq!(n, 0, "daemon must close the trickler, got {response:?}");
    assert!(
        started.elapsed() >= Duration::from_millis(300),
        "cut off before the deadline"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "cut off long after the deadline"
    );
    // Well-behaved clients are unaffected.
    let mut client = Client::connect(addr);
    assert!(client.request(r#"{"op":"ping"}"#).contains("pong"));
    server.shutdown();
}

/// Raw non-UTF-8 bytes become an error response, not a dead socket.
#[test]
fn binary_junk_is_answered() {
    let server = serve_tcp(torture_service(), "127.0.0.1:0", ReactorOptions::default()).unwrap();
    let addr = server.local_addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(&[0xFF, 0xC0, 0x80, 0xFE, b'\n']).unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    assert!(response.starts_with("{\"ok\":false"), "{response}");
    server.shutdown();
}
