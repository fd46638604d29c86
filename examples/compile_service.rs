//! Compilation-as-a-service: run the compiler behind the content-addressed
//! schedule cache, watch a repeat request hit, and speak the wire protocol
//! end to end over a loopback TCP socket.
//!
//! Run with: `cargo run --example compile_service`

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use qpilot::circuit::Circuit;
use qpilot::core::wire::schedule_from_json;
use qpilot::service::protocol::{circuit_to_value_json, compile_request_line};
use qpilot::service::{serve_tcp, CompileRequest, ReactorOptions, Service, ServiceConfig};

fn main() {
    // A service with two workers and the default cache.
    let service = Service::new(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });

    let mut circuit = Circuit::new(6);
    circuit.h(0);
    circuit.cx(0, 5);
    circuit.cz(1, 4);
    circuit.cz(2, 3);
    circuit.cx(5, 2);

    // In-process API: first request compiles, the repeat is a cache hit
    // with the byte-identical serialised schedule.
    let cold = service
        .compile(CompileRequest::new(circuit.clone()))
        .expect("cold compile");
    let warm = service
        .compile(CompileRequest::new(circuit.clone()))
        .expect("warm compile");
    println!(
        "fingerprint {} | cold: {} ({:.3} ms) | warm: {}",
        cold.fingerprint,
        if cold.cache_hit { "hit" } else { "miss" },
        cold.entry.compile_s * 1e3,
        if warm.cache_hit { "hit" } else { "miss" },
    );
    assert!(!cold.cache_hit && warm.cache_hit);
    assert_eq!(cold.entry.schedule_json, warm.entry.schedule_json);

    let schedule = schedule_from_json(&cold.entry.schedule_json).expect("wire round trip");
    println!("{schedule}");

    // The same service over TCP: what `qpilotd` serves and `qpilot-cli`
    // speaks, on an ephemeral loopback port.
    let server =
        serve_tcp(service, "127.0.0.1:0", ReactorOptions::default()).expect("bind loopback");
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let line = compile_request_line(&circuit_to_value_json(&circuit), None, None, None, false);
    writer
        .write_all(format!("{line}\n{}\n", "{\"op\":\"stats\"}").as_bytes())
        .expect("send");
    let mut response = String::new();
    reader.read_line(&mut response).expect("compile response");
    println!("wire compile -> {}", response.trim_end());
    response.clear();
    reader.read_line(&mut response).expect("stats response");
    println!("wire stats   -> {}", response.trim_end());
    server.shutdown();
}
