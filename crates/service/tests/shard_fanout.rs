//! Shard fan-out correctness: the consistent-hash ring's stability
//! contract and the router-side aggregation identity, checked against
//! *live* shard servers.
//!
//! The contract under test:
//!
//! * the same `qpilot.compile/v2` fingerprint always lands on the same
//!   shard — across repeated lookups and across rings built from the
//!   same membership in any order;
//! * removing a shard remaps *only* the keys that shard owned (every
//!   key whose owner survives keeps its owner), and the remapped
//!   fraction is close to `1/N`, not `(N-1)/N` as naive `hash % N`
//!   routing would give;
//! * aggregated `stats` over a fleet equals the field-wise sum of the
//!   per-shard `stats` responses;
//! * `qpilot-router` refuses flags it does not understand.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;
use qpilot_circuit::{Fingerprint, StableHasher};
use qpilot_core::json::{self, Value};
use qpilot_service::protocol::{circuit_to_value_json, compile_request_line};
use qpilot_service::shard::{aggregate_stats, merge_expositions, ShardRing};
use qpilot_service::{serve_tcp, ReactorOptions, ReactorServer, Service, ServiceConfig};
use qpilot_workloads::random::{random_circuit, RandomCircuitConfig};

/// A deterministic fingerprint per seed, shaped like the compile
/// fingerprints the router actually routes on.
fn fp(seed: u64) -> Fingerprint {
    let mut h = StableHasher::new();
    h.write_u64(0x51_4f_50_49); // arbitrary domain tag
    h.write_u64(seed);
    h.finish()
}

fn addrs(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("10.9.0.{}:7878", i + 1)).collect()
}

#[test]
fn same_fingerprint_always_lands_on_the_same_shard() {
    let ring = ShardRing::new(&addrs(5));
    for seed in 0..500u64 {
        let key = fp(seed);
        let first = ring.index_for(&key);
        for _ in 0..3 {
            assert_eq!(ring.index_for(&key), first, "lookup is not stable");
        }
    }
    // Membership order must not matter: a ring built from the reversed
    // address list routes every key identically.
    let mut reversed = addrs(5);
    reversed.reverse();
    let reordered = ShardRing::new(&reversed);
    for seed in 0..500u64 {
        let key = fp(seed);
        assert_eq!(
            ring.shard_for(&key),
            reordered.shard_for(&key),
            "routing depends on membership order"
        );
    }
}

#[test]
fn removing_one_shard_remaps_roughly_one_nth_of_keys() {
    let n = 4usize;
    let full = ShardRing::new(&addrs(n));
    let mut survivors = addrs(n);
    let gone = survivors.remove(1);
    let reduced = ShardRing::new(&survivors);
    let total = 2000usize;
    let moved = (0..total as u64)
        .filter(|&seed| {
            let key = fp(seed);
            full.shard_for(&key) != reduced.shard_for(&key)
        })
        .count();
    // Expected ~ total/n = 500. Naive `hash % n` would remap ~ 3/4 of
    // all keys (1500). Allow generous variance around 1/n.
    assert!(
        moved >= total / (2 * n) && moved <= total / n * 2,
        "removing {gone} remapped {moved}/{total} keys (expected ~{})",
        total / n
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Removing any one shard from any fleet size must leave every
    /// surviving shard's keys exactly where they were: the only keys
    /// allowed to move are the removed shard's own.
    #[test]
    fn membership_change_moves_only_the_lost_shards_keys(
        shards in 2usize..7,
        removed_raw in 0usize..7,
        salt in 0u64..1_000,
    ) {
        let removed = removed_raw % shards;
        let full_addrs = addrs(shards);
        let full = ShardRing::new(&full_addrs);
        let mut survivors = full_addrs.clone();
        let gone = survivors.remove(removed);
        let reduced = ShardRing::new(&survivors);
        for k in 0..300u64 {
            let key = fp(salt.wrapping_mul(7919).wrapping_add(k));
            let before = full.shard_for(&key).to_string();
            let after = reduced.shard_for(&key).to_string();
            if before == gone {
                prop_assert!(after != gone, "key still routed to the removed shard");
            } else {
                prop_assert!(
                    before == after,
                    "key moved although its shard survived the membership change"
                );
            }
        }
    }
}

struct Shard {
    server: ReactorServer,
    addr: SocketAddr,
}

fn spawn_shard() -> Shard {
    let service = Service::new(ServiceConfig {
        workers: 2,
        queue_capacity: 16,
        cache_capacity: 64,
        cache_shards: 4,
        ..ServiceConfig::default()
    });
    let server =
        serve_tcp(service, "127.0.0.1:0", ReactorOptions::default()).expect("bind loopback shard");
    let addr = server.local_addr();
    Shard { server, addr }
}

fn round_trip(addr: SocketAddr, line: &str) -> String {
    let stream = TcpStream::connect(addr).expect("connect to shard");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    writer
        .write_all(format!("{line}\n").as_bytes())
        .and_then(|()| writer.flush())
        .expect("send request");
    let mut response = String::new();
    let n = reader.read_line(&mut response).expect("read response");
    assert!(n > 0, "shard closed the connection");
    response.trim_end().to_string()
}

fn stat(doc: &Value, key: &str) -> u64 {
    doc.get(key).and_then(Value::as_u64).unwrap_or_else(|| {
        panic!("stats response missing `{key}`");
    })
}

/// Compiles a spread of circuits against two live shards (routed by the
/// ring over their real addresses), then checks that the aggregated
/// `stats` line is the exact field-wise sum of the per-shard ones.
#[test]
fn aggregated_stats_equal_the_sum_of_per_shard_stats() {
    let shards = [spawn_shard(), spawn_shard()];
    let ring = ShardRing::new(&[shards[0].addr.to_string(), shards[1].addr.to_string()]);

    // A spread of distinct circuits plus one repeat (a guaranteed hit
    // on whichever shard owns it). The shards listen on ephemeral ports,
    // so the ring differs per run and 8 keys all land on one shard about
    // once in 128 runs: keep compiling until each shard owns one, up to
    // 64 keys.
    let mut owned = [0u64; 2];
    let mut compiled = 0u64;
    for seed in 0..64u64 {
        if compiled >= 8 && owned.iter().all(|&n| n > 0) {
            break;
        }
        let circuit = random_circuit(&RandomCircuitConfig::paper(6, 2, seed));
        let line = compile_request_line(&circuit_to_value_json(&circuit), None, None, None, false);
        let owner_addr = ring.shard_for(&fingerprint_of_line(&line)).to_string();
        let owner = shards
            .iter()
            .position(|s| s.addr.to_string() == owner_addr)
            .expect("ring owner is one of the live shards");
        owned[owner] += 1;
        compiled += 1;
        let response = round_trip(shards[owner].addr, &line);
        assert!(response.contains("\"ok\":true"), "{response}");
        if seed == 3 {
            let repeat = round_trip(shards[owner].addr, &line);
            assert!(repeat.contains("\"cache\":\"hit\""), "{repeat}");
        }
    }

    let per_shard: Vec<String> = shards
        .iter()
        .map(|s| round_trip(s.addr, r#"{"op":"stats"}"#))
        .collect();
    let merged = aggregate_stats(&per_shard, "r-test").expect("aggregate per-shard stats");
    let merged = json::parse(&merged).expect("aggregate is valid JSON");
    let docs: Vec<Value> = per_shard
        .iter()
        .map(|line| json::parse(line).expect("shard stats line is valid JSON"))
        .collect();

    assert_eq!(
        merged.get("shards").and_then(Value::as_u64),
        Some(shards.len() as u64)
    );
    for key in ["requests", "hits", "misses", "compiles", "cache_entries"] {
        let sum: u64 = docs.iter().map(|d| stat(d, key)).sum();
        assert_eq!(stat(&merged, key), sum, "aggregated `{key}` is not the sum");
    }
    // Both shards really served traffic: the distinct compiles + 1
    // repeat spread across the fleet.
    assert_eq!(stat(&merged, "requests"), compiled + 1);
    assert_eq!(stat(&merged, "compiles"), compiled);
    assert_eq!(stat(&merged, "hits"), 1);
    assert!(
        docs.iter().all(|d| stat(d, "requests") > 0),
        "one shard never saw a request — the ring sent everything to one side"
    );

    for shard in shards {
        shard.server.shutdown();
    }
}

/// Fingerprint of a compile request *line*, exactly as the router
/// computes it: parse the wire line, build the `CompileRequest`,
/// fingerprint it.
fn fingerprint_of_line(line: &str) -> Fingerprint {
    use qpilot_service::protocol::{parse_request, Request};
    match parse_request(line) {
        Ok(Request::Compile { request, .. }) => request.fingerprint(),
        _ => panic!("not a compile line: {line}"),
    }
}

/// Regression test: an idle (or freshly restarted) shard whose summary
/// series has `_count 0` must not contribute its default/stale quantile
/// samples to the fleet-wide max — before the fix, a shard restarted
/// with a stale exposition could pin the merged p99 forever.
#[test]
fn idle_shard_quantiles_do_not_skew_the_fleet_percentiles() {
    let live = "# HELP qpilot_request_seconds End-to-end request latency by serving path.\n\
                # TYPE qpilot_request_seconds summary\n\
                qpilot_request_seconds{path=\"hit\",quantile=\"0.99\"} 0.004\n\
                qpilot_request_seconds_sum{path=\"hit\"} 0.04\n\
                qpilot_request_seconds_count{path=\"hit\"} 12\n";
    // Stale exposition: nonzero quantiles left over from before a
    // restart, but the histogram itself has recorded nothing.
    let stale = "# HELP qpilot_request_seconds End-to-end request latency by serving path.\n\
                 # TYPE qpilot_request_seconds summary\n\
                 qpilot_request_seconds{path=\"hit\",quantile=\"0.99\"} 9.5\n\
                 qpilot_request_seconds_sum{path=\"hit\"} 0\n\
                 qpilot_request_seconds_count{path=\"hit\"} 0\n";
    for order in [[live, stale], [stale, live]] {
        let merged = merge_expositions(&order);
        assert!(
            merged.contains("qpilot_request_seconds{path=\"hit\",quantile=\"0.99\"} 0.004"),
            "stale quantile skewed the merge (shard order {order:?}):\n{merged}"
        );
        // Additive series still sum across both shards.
        assert!(
            merged.contains("qpilot_request_seconds_count{path=\"hit\"} 12"),
            "{merged}"
        );
    }
    // A fleet where *every* shard is idle reports no quantile rows at
    // all rather than a fabricated 0 ms percentile.
    let all_idle = merge_expositions(&[stale, stale]);
    assert!(!all_idle.contains("quantile"), "{all_idle}");
    assert!(
        all_idle.contains("qpilot_request_seconds_count{path=\"hit\"} 0"),
        "{all_idle}"
    );
}

/// `qpilot-router` stops with exit 2 naming the flag when it meets a
/// flag it does not know or a number it cannot parse, instead of
/// serving with a default the operator did not ask for.
#[test]
fn router_binary_rejects_unknown_and_malformed_flags() {
    for (args, flag) in [
        (["--shard-timeout-ms", "10s"], "--shard-timeout-ms"),
        (["--listne", "127.0.0.1:0"], "--listne"),
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_qpilot-router"))
            .args(["--shards", "127.0.0.1:9", "--listen", "127.0.0.1:0"])
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn qpilot-router");
        let give_up = Instant::now() + Duration::from_secs(10);
        let status = loop {
            if let Some(status) = child.try_wait().expect("poll qpilot-router") {
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
            "{args:?} did not stop the router: {stderr}"
        );
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
    }
}
