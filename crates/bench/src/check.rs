//! The CI perf-regression wall: threshold checking for the two benchmark
//! reports (`BENCH_routing.json`, `BENCH_service.json`).
//!
//! A checked-in thresholds file (`ci/perf_thresholds.json`, schema
//! `qpilot.bench.thresholds/v1`) pins, per routing size, the minimum
//! acceptable `speedup` and `alloc_ratio` against the frozen reference
//! router, an allocation ceiling, and the byte-identity requirement; for
//! the service report it pins the minimum warm/cold speedup and the
//! drop-free burst requirement. `perf_report --check <file>` /
//! `service_report --check <file>` evaluate their freshly-written report
//! against it and exit non-zero on any violation, so CI *gates* on
//! performance instead of merely smoke-testing that the reports exist.
//!
//! Thresholds layout:
//!
//! ```json
//! {
//!   "schema": "qpilot.bench.thresholds/v1",
//!   "routing": {
//!     "require_identical": true,
//!     "sizes": [
//!       {"qubits": 100, "min_speedup": 3.0, "min_alloc_ratio": 20.0,
//!        "max_allocs_incremental": 1000}
//!     ],
//!     "routers": [
//!       {"router": "qaoa", "qubits": 100, "max_ms": 2.0}
//!     ],
//!     "families": [
//!       {"family": "qec", "qubits": 49, "min_depth_ratio": 2.8}
//!     ]
//!   },
//!   "service": {
//!     "require_identical": true, "min_warm_speedup": 10.0,
//!     "min_restart_warm_speedup": 10.0, "max_duplicate_compiles": 0,
//!     "max_dropped": 0,
//!     "min_sustained_connections": 256, "max_sustained_dropped": 0,
//!     "min_sustained_rps": 200.0, "max_sustained_p99_ms": 2500.0
//!   }
//! }
//! ```
//!
//! The optional service keys `min_restart_warm_speedup` (floor on the
//! disk-recovered warm repeat's speedup, with byte identity required
//! whenever the report carries a `restart` section) and
//! `max_duplicate_compiles` (ceiling — normally 0 — on extra compiles
//! triggered by racing identical requests) gate the persistent store and
//! the exact-coalescing paths respectively. The `*_sustained_*` keys
//! gate the reactor's sustained-concurrency section: the connection
//! count actually held open, a drop ceiling (normally 0), a throughput
//! floor and a p99 latency ceiling.
//!
//! Rows are matched by `qubits`; measured sizes without a thresholds
//! entry are not gated (the full sweep and the CI smoke use different
//! sizes). Refreshing after an intentional perf change is documented in
//! the README ("Benchmarks & CI gates").

use qpilot_core::json::{self, Value};

/// Schema tag of the thresholds document.
pub const THRESHOLDS_FORMAT: &str = "qpilot.bench.thresholds/v1";

/// Loads and schema-checks a thresholds file.
///
/// # Errors
///
/// Returns a description of the I/O, JSON, or schema problem.
pub fn load_thresholds(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    match doc.get("schema").and_then(Value::as_str) {
        Some(THRESHOLDS_FORMAT) => Ok(doc),
        Some(other) => Err(format!(
            "{path}: schema `{other}` is not `{THRESHOLDS_FORMAT}`"
        )),
        None => Err(format!("{path}: missing `schema` tag")),
    }
}

fn num(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_f64)
}

/// Checks a `qpilot.bench.routing/v1` report against the `routing`
/// section of a thresholds document. Returns one message per violation
/// (empty = the wall holds).
pub fn check_routing(report: &Value, thresholds: &Value) -> Vec<String> {
    let mut violations = Vec::new();
    let Some(gates) = thresholds.get("routing") else {
        return violations;
    };
    let require_identical = gates
        .get("require_identical")
        .and_then(Value::as_bool)
        .unwrap_or(true);
    let sizes: &[Value] = gates
        .get("sizes")
        .and_then(Value::as_arr)
        .unwrap_or_default();
    let rows: &[Value] = report
        .get("generic")
        .and_then(Value::as_arr)
        .unwrap_or_default();
    if rows.is_empty() {
        violations.push("routing report has no `generic` rows".to_string());
        return violations;
    }
    for row in rows {
        let Some(qubits) = row.get("qubits").and_then(Value::as_u64) else {
            violations.push("routing row without a `qubits` field".to_string());
            continue;
        };
        if require_identical
            && row.get("schedules_identical").and_then(Value::as_bool) != Some(true)
        {
            violations.push(format!(
                "{qubits}q: schedules_identical is not true — the optimised router diverged \
                 from the frozen reference"
            ));
        }
        let Some(gate) = sizes
            .iter()
            .find(|g| g.get("qubits").and_then(Value::as_u64) == Some(qubits))
        else {
            continue;
        };
        if let (Some(min), Some(got)) = (num(gate, "min_speedup"), num(row, "speedup")) {
            if got < min {
                violations.push(format!(
                    "{qubits}q: speedup {got:.3} below threshold {min:.3}"
                ));
            }
        }
        if let (Some(min), Some(got)) = (num(gate, "min_alloc_ratio"), num(row, "alloc_ratio")) {
            if got < min {
                violations.push(format!(
                    "{qubits}q: alloc_ratio {got:.3} below threshold {min:.3}"
                ));
            }
        }
        if let (Some(max), Some(got)) = (
            gate.get("max_allocs_incremental").and_then(Value::as_u64),
            row.get("allocs_incremental").and_then(Value::as_u64),
        ) {
            if got > max {
                violations.push(format!(
                    "{qubits}q: allocs_incremental {got} above ceiling {max}"
                ));
            }
        }
    }
    // Per-router latency ceilings (`routing.routers`): each gate names a
    // router and size, and the report's matching `routers[]` row must
    // keep its end-to-end median under `max_ms`. Violations name the
    // router so a CI failure reads as "qaoa regressed", not just "the
    // wall fell". A gated (router, qubits) pair missing from the report
    // is itself a violation — a silently-skipped bench must not pass.
    let router_gates: &[Value] = gates
        .get("routers")
        .and_then(Value::as_arr)
        .unwrap_or_default();
    if !router_gates.is_empty() {
        let rows: &[Value] = report
            .get("routers")
            .and_then(Value::as_arr)
            .unwrap_or_default();
        for gate in router_gates {
            let (Some(router), Some(qubits)) = (
                gate.get("router").and_then(Value::as_str),
                gate.get("qubits").and_then(Value::as_u64),
            ) else {
                violations.push("router gate without `router` and `qubits` fields".to_string());
                continue;
            };
            let Some(max_ms) = num(gate, "max_ms") else {
                continue;
            };
            let Some(row) = rows.iter().find(|r| {
                r.get("router").and_then(Value::as_str) == Some(router)
                    && r.get("qubits").and_then(Value::as_u64) == Some(qubits)
            }) else {
                violations.push(format!(
                    "routing report has no `routers` row for `{router}` at {qubits}q"
                ));
                continue;
            };
            match num(row, "wall_s") {
                Some(wall) if wall * 1e3 > max_ms => violations.push(format!(
                    "router `{router}` {qubits}q: median {:.3} ms above ceiling {max_ms:.3} ms",
                    wall * 1e3
                )),
                Some(_) => {}
                None => violations.push(format!(
                    "`routers` row for `{router}` at {qubits}q has no `wall_s`"
                )),
            }
        }
    }
    violations.extend(check_families(report, thresholds));
    // Observability gate: the instrumented route may not be more than
    // `max_obs_overhead_pct` percent slower than the uninstrumented one.
    // A gated thresholds file demands the measurement be present.
    if let Some(max) = num(gates, "max_obs_overhead_pct") {
        match num(report, "obs_overhead_pct") {
            Some(got) if got > max => {
                violations.push(format!("obs overhead {got:.2}% above ceiling {max:.2}%"))
            }
            Some(_) => {}
            None => {
                violations.push("routing report has no `obs_overhead_pct` field".to_string());
            }
        }
    }
    violations
}

/// Checks the `families[]` depth-comparison section of a routing report
/// against the `routing.families` gates (`min_depth_ratio` floors per
/// `(family, qubits)` pair) — the paper's flying-ancilla vs SWAP-baseline
/// depth-reduction claim as a CI wall. Called from [`check_routing`].
fn check_families(report: &Value, thresholds: &Value) -> Vec<String> {
    let mut violations = Vec::new();
    let family_gates: &[Value] = thresholds
        .get("routing")
        .and_then(|g| g.get("families"))
        .and_then(Value::as_arr)
        .unwrap_or_default();
    if family_gates.is_empty() {
        return violations;
    }
    let rows: &[Value] = report
        .get("families")
        .and_then(Value::as_arr)
        .unwrap_or_default();
    for gate in family_gates {
        let (Some(family), Some(qubits)) = (
            gate.get("family").and_then(Value::as_str),
            gate.get("qubits").and_then(Value::as_u64),
        ) else {
            violations.push("family gate without `family` and `qubits` fields".to_string());
            continue;
        };
        let Some(min) = num(gate, "min_depth_ratio") else {
            continue;
        };
        let Some(row) = rows.iter().find(|r| {
            r.get("family").and_then(Value::as_str) == Some(family)
                && r.get("qubits").and_then(Value::as_u64) == Some(qubits)
        }) else {
            violations.push(format!(
                "routing report has no `families` row for `{family}` at {qubits}q"
            ));
            continue;
        };
        match num(row, "depth_ratio") {
            Some(got) if got < min => violations.push(format!(
                "family `{family}` {qubits}q: depth ratio {got:.2}\u{d7} below floor {min:.2}\u{d7}"
            )),
            Some(_) => {}
            None => violations.push(format!(
                "`families` row for `{family}` at {qubits}q has no `depth_ratio`"
            )),
        }
    }
    violations
}

/// Checks a `qpilot.bench.service/v1` report against the `service`
/// section of a thresholds document.
pub fn check_service(report: &Value, thresholds: &Value) -> Vec<String> {
    let mut violations = Vec::new();
    let Some(gates) = thresholds.get("service") else {
        return violations;
    };
    let Some(wc) = report.get("warm_cold") else {
        violations.push("service report has no `warm_cold` section".to_string());
        return violations;
    };
    let require_identical = gates
        .get("require_identical")
        .and_then(Value::as_bool)
        .unwrap_or(true);
    if require_identical && wc.get("schedules_identical").and_then(Value::as_bool) != Some(true) {
        violations.push("warm responses are not byte-identical to the cold schedule".to_string());
    }
    if let (Some(min), Some(got)) = (num(gates, "min_warm_speedup"), num(wc, "speedup")) {
        if got < min {
            violations.push(format!(
                "warm/cold speedup {got:.2} below threshold {min:.2}"
            ));
        }
    }
    // Persistent-store gate: restart-warm speedup floor plus byte
    // identity of the disk-recovered schedule.
    if let Some(restart) = report.get("restart") {
        if require_identical
            && restart.get("schedules_identical").and_then(Value::as_bool) != Some(true)
        {
            violations.push(
                "restart-warm responses are not byte-identical to the pre-restart schedule"
                    .to_string(),
            );
        }
        if let (Some(min), Some(got)) = (
            num(gates, "min_restart_warm_speedup"),
            num(restart, "speedup"),
        ) {
            if got < min {
                violations.push(format!(
                    "restart-warm speedup {got:.2} below threshold {min:.2}"
                ));
            }
        }
    } else if gates.get("min_restart_warm_speedup").is_some() {
        violations.push("service report has no `restart` section".to_string());
    }
    // Coalescing gate: racing identical cold requests may compile once.
    if let Some(max) = gates.get("max_duplicate_compiles").and_then(Value::as_u64) {
        match report
            .get("coalescing")
            .and_then(|c| c.get("duplicate_compiles"))
            .and_then(Value::as_u64)
        {
            Some(d) if d > max => violations.push(format!(
                "coalescing ran {d} duplicate compile(s) (allowed: {max})"
            )),
            Some(_) => {}
            None => violations
                .push("service report has no `coalescing.duplicate_compiles` field".to_string()),
        }
    }
    let max_dropped = gates
        .get("max_dropped")
        .and_then(Value::as_u64)
        .unwrap_or(0);
    let dropped = report
        .get("burst")
        .and_then(|b| b.get("dropped"))
        .and_then(Value::as_u64);
    match dropped {
        Some(d) if d > max_dropped => {
            violations.push(format!(
                "burst dropped {d} requests (allowed: {max_dropped})"
            ));
        }
        None => violations.push("service report has no `burst.dropped` field".to_string()),
        _ => {}
    }
    // Resilience gate: a drain must answer every request it accepted
    // (no hung waiters) within its latency budget.
    let resilience = report.get("resilience");
    if let Some(max) = gates.get("max_hung_waiters").and_then(Value::as_u64) {
        match resilience
            .and_then(|r| r.get("hung_waiters"))
            .and_then(Value::as_u64)
        {
            Some(h) if h > max => {
                violations.push(format!("{h} waiter(s) left hanging (allowed: {max})"));
            }
            Some(_) => {}
            None => {
                violations.push("service report has no `resilience.hung_waiters` field".to_string())
            }
        }
    }
    if let Some(max) = num(gates, "max_drain_ms") {
        match resilience.and_then(|r| num(r, "drain_ms")) {
            Some(d) if d > max => {
                violations.push(format!("drain took {d:.0} ms (allowed: {max:.0})"));
            }
            Some(_) => {}
            None => {
                violations.push("service report has no `resilience.drain_ms` field".to_string());
            }
        }
    }
    // Sustained-concurrency gate: the reactor must hold the gated
    // connection count open simultaneously, drop nothing, clear the
    // throughput floor and stay under the tail-latency ceiling.
    let sustained_gated = [
        "min_sustained_connections",
        "max_sustained_dropped",
        "min_sustained_rps",
        "max_sustained_p99_ms",
    ]
    .iter()
    .any(|k| gates.get(k).is_some());
    if let Some(sustained) = report.get("sustained") {
        if let (Some(min), Some(got)) = (
            gates
                .get("min_sustained_connections")
                .and_then(Value::as_u64),
            sustained.get("connections").and_then(Value::as_u64),
        ) {
            if got < min {
                violations.push(format!(
                    "sustained section ran {got} connections (required: {min})"
                ));
            }
        }
        if let Some(max) = gates.get("max_sustained_dropped").and_then(Value::as_u64) {
            match sustained.get("dropped").and_then(Value::as_u64) {
                Some(d) if d > max => violations.push(format!(
                    "sustained load dropped {d} requests (allowed: {max})"
                )),
                Some(_) => {}
                None => {
                    violations.push("service report has no `sustained.dropped` field".to_string())
                }
            }
        }
        if let (Some(min), Some(got)) = (
            num(gates, "min_sustained_rps"),
            num(sustained, "throughput_rps"),
        ) {
            if got < min {
                violations.push(format!(
                    "sustained throughput {got:.0} req/s below threshold {min:.0}"
                ));
            }
        }
        if let (Some(max), Some(got)) =
            (num(gates, "max_sustained_p99_ms"), num(sustained, "p99_ms"))
        {
            if got > max {
                violations.push(format!("sustained p99 {got:.1} ms above ceiling {max:.1}"));
            }
        }
    } else if sustained_gated {
        violations.push("service report has no `sustained` section".to_string());
    }
    violations
}

/// Applies a check result: prints violations and exits non-zero, or
/// confirms the wall holds. Intended for the report binaries' `--check`
/// mode.
pub fn enforce(kind: &str, violations: &[String]) {
    if violations.is_empty() {
        println!("perf wall: all {kind} thresholds hold");
        return;
    }
    eprintln!(
        "perf wall: {} {kind} threshold violation(s):",
        violations.len()
    );
    for v in violations {
        eprintln!("  - {v}");
    }
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn routing_report(speedup: f64, alloc_ratio: f64, allocs: u64, identical: bool) -> Value {
        json::parse(&format!(
            r#"{{"schema":"qpilot.bench.routing/v1","generic":[
                {{"qubits":100,"speedup":{speedup},"alloc_ratio":{alloc_ratio},
                  "allocs_incremental":{allocs},"schedules_identical":{identical}}}]}}"#
        ))
        .unwrap()
    }

    fn thresholds() -> Value {
        json::parse(
            r#"{"schema":"qpilot.bench.thresholds/v1",
                "routing":{"require_identical":true,"sizes":[
                  {"qubits":100,"min_speedup":3.0,"min_alloc_ratio":20.0,
                   "max_allocs_incremental":1000}]},
                "service":{"require_identical":true,"min_warm_speedup":10.0,
                           "min_restart_warm_speedup":5.0,
                           "max_duplicate_compiles":0,
                           "max_dropped":0,
                           "max_hung_waiters":0,
                           "max_drain_ms":5000.0,
                           "min_sustained_connections":256,
                           "max_sustained_dropped":0,
                           "min_sustained_rps":100.0,
                           "max_sustained_p99_ms":2500.0}}"#,
        )
        .unwrap()
    }

    #[test]
    fn healthy_routing_report_passes() {
        let report = routing_report(3.4, 40.0, 600, true);
        assert!(check_routing(&report, &thresholds()).is_empty());
    }

    /// The synthetic perf regression the CI wall must catch: wall-clock
    /// speedup sinks below the floor, allocations blow past the ceiling.
    #[test]
    fn synthetic_regression_trips_the_wall() {
        let report = routing_report(1.4, 4.0, 9000, true);
        let violations = check_routing(&report, &thresholds());
        assert_eq!(violations.len(), 3, "{violations:?}");
        assert!(violations[0].contains("speedup"), "{violations:?}");
        assert!(violations[1].contains("alloc_ratio"), "{violations:?}");
        assert!(
            violations[2].contains("allocs_incremental"),
            "{violations:?}"
        );
    }

    #[test]
    fn divergent_schedules_trip_the_wall_regardless_of_size_entry() {
        // 57q has no thresholds entry, but identity is gated globally.
        let report = json::parse(
            r#"{"generic":[{"qubits":57,"speedup":9.9,"alloc_ratio":99.0,
                "allocs_incremental":1,"schedules_identical":false}]}"#,
        )
        .unwrap();
        let violations = check_routing(&report, &thresholds());
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("identical"));
    }

    #[test]
    fn unlisted_sizes_are_not_gated_on_perf() {
        let report = json::parse(
            r#"{"generic":[{"qubits":57,"speedup":0.1,"alloc_ratio":0.1,
                "allocs_incremental":999999,"schedules_identical":true}]}"#,
        )
        .unwrap();
        assert!(check_routing(&report, &thresholds()).is_empty());
    }

    #[test]
    fn empty_report_is_a_violation() {
        let report = json::parse(r#"{"generic":[]}"#).unwrap();
        assert_eq!(check_routing(&report, &thresholds()).len(), 1);
    }

    fn router_thresholds() -> Value {
        json::parse(
            r#"{"schema":"qpilot.bench.thresholds/v1",
                "routing":{"require_identical":false,"sizes":[],
                  "routers":[
                    {"router":"qaoa","qubits":100,"max_ms":2.0},
                    {"router":"generic","qubits":100,"max_ms":0.5},
                    {"router":"qsim","qubits":100,"max_ms":0.25}]}}"#,
        )
        .unwrap()
    }

    fn router_report(qaoa_s: f64, generic_s: f64, qsim_s: f64) -> Value {
        json::parse(&format!(
            r#"{{"generic":[{{"qubits":100,"schedules_identical":true}}],
                 "routers":[
                   {{"router":"generic","qubits":100,"wall_s":{generic_s}}},
                   {{"router":"qsim","qubits":100,"wall_s":{qsim_s}}},
                   {{"router":"qaoa","qubits":100,"wall_s":{qaoa_s}}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn router_medians_under_their_ceilings_pass() {
        let report = router_report(0.0014, 0.0004, 0.0002);
        assert!(check_routing(&report, &router_thresholds()).is_empty());
    }

    /// A regressed router trips the wall with a message naming it, so
    /// the CI failure reads as "qaoa regressed", not just "wall fell".
    #[test]
    fn slow_router_trips_the_wall_and_is_named() {
        let report = router_report(0.0093, 0.0004, 0.0002);
        let violations = check_routing(&report, &router_thresholds());
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("router `qaoa`"), "{violations:?}");
        assert!(violations[0].contains("9.300 ms"), "{violations:?}");
        assert!(violations[0].contains("2.000 ms"), "{violations:?}");
    }

    #[test]
    fn every_regressed_router_is_reported_independently() {
        let report = router_report(0.0093, 0.0009, 0.0008);
        let violations = check_routing(&report, &router_thresholds());
        assert_eq!(violations.len(), 3, "{violations:?}");
        for router in ["qaoa", "generic", "qsim"] {
            assert!(
                violations
                    .iter()
                    .any(|v| v.contains(&format!("`{router}`"))),
                "{violations:?}"
            );
        }
    }

    #[test]
    fn missing_router_row_is_a_violation_when_gated() {
        // A report that silently skipped the qaoa bench must not pass a
        // thresholds file that gates it.
        let report = json::parse(
            r#"{"generic":[{"qubits":100,"schedules_identical":true}],
                "routers":[
                  {"router":"generic","qubits":100,"wall_s":0.0004},
                  {"router":"qsim","qubits":100,"wall_s":0.0002}]}"#,
        )
        .unwrap();
        let violations = check_routing(&report, &router_thresholds());
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("`qaoa`"), "{violations:?}");
    }

    #[test]
    fn ungated_router_sizes_are_not_checked() {
        // 20q rows exist in the report but only 100q is gated.
        let report = json::parse(
            r#"{"generic":[{"qubits":100,"schedules_identical":true}],
                "routers":[
                  {"router":"qaoa","qubits":20,"wall_s":9.0},
                  {"router":"generic","qubits":100,"wall_s":0.0004},
                  {"router":"qsim","qubits":100,"wall_s":0.0002},
                  {"router":"qaoa","qubits":100,"wall_s":0.0014}]}"#,
        )
        .unwrap();
        assert!(check_routing(&report, &router_thresholds()).is_empty());
    }

    fn obs_thresholds() -> Value {
        json::parse(
            r#"{"schema":"qpilot.bench.thresholds/v1",
                "routing":{"sizes":[],"max_obs_overhead_pct":5.0}}"#,
        )
        .unwrap()
    }

    #[test]
    fn obs_overhead_within_the_ceiling_passes() {
        // Negative overhead (timer noise favouring the instrumented run)
        // must pass too — only the positive direction is capped.
        let report = json::parse(
            r#"{"generic":[{"qubits":100,"schedules_identical":true}],
                "obs_overhead_pct":-0.3}"#,
        )
        .unwrap();
        assert!(check_routing(&report, &obs_thresholds()).is_empty());
    }

    #[test]
    fn excessive_obs_overhead_trips_the_wall() {
        let report = json::parse(
            r#"{"generic":[{"qubits":100,"schedules_identical":true}],
                "obs_overhead_pct":9.5}"#,
        )
        .unwrap();
        let violations = check_routing(&report, &obs_thresholds());
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("obs overhead"), "{violations:?}");
    }

    #[test]
    fn missing_obs_overhead_is_a_violation_when_gated() {
        // An old-format report must not silently pass a thresholds file
        // that gates instrumentation overhead.
        let report =
            json::parse(r#"{"generic":[{"qubits":100,"schedules_identical":true}]}"#).unwrap();
        let violations = check_routing(&report, &obs_thresholds());
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("obs_overhead_pct"), "{violations:?}");
    }

    fn family_thresholds() -> Value {
        json::parse(
            r#"{"schema":"qpilot.bench.thresholds/v1",
                "routing":{"sizes":[],"families":[
                  {"family":"qec","qubits":49,"min_depth_ratio":2.8},
                  {"family":"qft","qubits":32,"min_depth_ratio":1.5}]}}"#,
        )
        .unwrap()
    }

    fn family_report(qec_ratio: f64, qft_ratio: f64) -> Value {
        json::parse(&format!(
            r#"{{"generic":[{{"qubits":100,"schedules_identical":true}}],
                 "families":[
                   {{"family":"qec","qubits":49,"depth_ratio":{qec_ratio}}},
                   {{"family":"qec","qubits":9,"depth_ratio":0.1}},
                   {{"family":"qft","qubits":32,"depth_ratio":{qft_ratio}}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn depth_ratios_above_their_floors_pass() {
        // The ungated 9q qec row may be arbitrarily bad.
        let report = family_report(6.5, 2.0);
        assert!(check_routing(&report, &family_thresholds()).is_empty());
    }

    /// The headline reproduction gate: a family whose flying-ancilla
    /// depth advantage collapses trips the wall with a message naming
    /// the family and size.
    #[test]
    fn collapsed_depth_ratio_trips_the_wall_and_is_named() {
        let report = family_report(1.3, 2.0);
        let violations = check_routing(&report, &family_thresholds());
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("family `qec` 49q"), "{violations:?}");
        assert!(violations[0].contains("below floor 2.80"), "{violations:?}");
    }

    #[test]
    fn missing_family_row_is_a_violation_when_gated() {
        // A report without the gated qft row must not silently pass.
        let report = json::parse(
            r#"{"generic":[{"qubits":100,"schedules_identical":true}],
                "families":[{"family":"qec","qubits":49,"depth_ratio":6.5}]}"#,
        )
        .unwrap();
        let violations = check_routing(&report, &family_thresholds());
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("`qft`"), "{violations:?}");
    }

    #[test]
    fn standalone_families_check_ignores_the_other_sections() {
        // The depth floors read only the `families` section: a
        // document without generic rows or routers passes them.
        let report = json::parse(
            r#"{"families":[
                  {"family":"qec","qubits":49,"depth_ratio":6.5},
                  {"family":"qft","qubits":32,"depth_ratio":2.0}]}"#,
        )
        .unwrap();
        assert!(check_families(&report, &family_thresholds()).is_empty());
    }

    fn service_report(speedup: f64, identical: bool, dropped: u64) -> Value {
        service_report_full(speedup, identical, dropped, 80.0, true, 0)
    }

    fn service_report_full(
        speedup: f64,
        identical: bool,
        dropped: u64,
        restart_speedup: f64,
        restart_identical: bool,
        duplicate_compiles: u64,
    ) -> Value {
        json::parse(&format!(
            r#"{{"warm_cold":{{"speedup":{speedup},"schedules_identical":{identical}}},
                 "restart":{{"speedup":{restart_speedup},
                             "schedules_identical":{restart_identical}}},
                 "coalescing":{{"racers":8,"compiles":{c},
                                "duplicate_compiles":{duplicate_compiles}}},
                 "burst":{{"dropped":{dropped}}},
                 "sustained":{{"connections":256,"dropped":0,
                               "throughput_rps":5000.0,"p99_ms":12.0}},
                 "resilience":{{"hung_waiters":0,"drain_ms":120.0}}}}"#,
            c = duplicate_compiles + 1
        ))
        .unwrap()
    }

    #[test]
    fn healthy_service_report_passes() {
        assert!(check_service(&service_report(250.0, true, 0), &thresholds()).is_empty());
    }

    #[test]
    fn service_regression_trips_the_wall() {
        let violations = check_service(&service_report(2.0, false, 3), &thresholds());
        assert_eq!(violations.len(), 3, "{violations:?}");
    }

    #[test]
    fn restart_regression_trips_the_wall() {
        // Slow disk recovery and divergent recovered bytes are both
        // violations.
        let report = service_report_full(250.0, true, 0, 1.2, false, 0);
        let violations = check_service(&report, &thresholds());
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(
            violations[0].contains("restart-warm responses"),
            "{violations:?}"
        );
        assert!(
            violations[1].contains("restart-warm speedup"),
            "{violations:?}"
        );
    }

    #[test]
    fn duplicate_coalesced_compiles_trip_the_wall() {
        let report = service_report_full(250.0, true, 0, 80.0, true, 3);
        let violations = check_service(&report, &thresholds());
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("duplicate"), "{violations:?}");
    }

    #[test]
    fn missing_restart_and_coalescing_sections_are_violations_when_gated() {
        // An old-format report must not silently pass a thresholds file
        // that gates the new sections.
        let report = json::parse(
            r#"{"warm_cold":{"speedup":250.0,"schedules_identical":true},
                "burst":{"dropped":0}}"#,
        )
        .unwrap();
        let violations = check_service(&report, &thresholds());
        // restart + coalescing + resilience (hung_waiters, drain_ms)
        // + sustained
        assert_eq!(violations.len(), 5, "{violations:?}");
        assert!(
            violations.iter().any(|v| v.contains("`sustained` section")),
            "{violations:?}"
        );
    }

    #[test]
    fn sustained_regression_trips_the_wall() {
        // Fewer connections than gated, drops, throughput under the
        // floor, p99 over the ceiling: four independent violations.
        let report = json::parse(
            r#"{"warm_cold":{"speedup":250.0,"schedules_identical":true},
                "restart":{"speedup":80.0,"schedules_identical":true},
                "coalescing":{"racers":8,"compiles":1,"duplicate_compiles":0},
                "burst":{"dropped":0},
                "sustained":{"connections":32,"dropped":7,
                             "throughput_rps":40.0,"p99_ms":9000.0},
                "resilience":{"hung_waiters":0,"drain_ms":120.0}}"#,
        )
        .unwrap();
        let violations = check_service(&report, &thresholds());
        assert_eq!(violations.len(), 4, "{violations:?}");
        assert!(violations[0].contains("connections"), "{violations:?}");
        assert!(violations[1].contains("dropped"), "{violations:?}");
        assert!(violations[2].contains("throughput"), "{violations:?}");
        assert!(violations[3].contains("p99"), "{violations:?}");
    }

    #[test]
    fn hung_waiters_and_slow_drain_trip_the_wall() {
        // A hung waiter and a drain far past its budget.
        let report = json::parse(
            r#"{"warm_cold":{"speedup":250.0,"schedules_identical":true},
                "restart":{"speedup":80.0,"schedules_identical":true},
                "coalescing":{"racers":8,"compiles":1,"duplicate_compiles":0},
                "burst":{"dropped":0},
                "sustained":{"connections":256,"dropped":0,
                             "throughput_rps":5000.0,"p99_ms":12.0},
                "resilience":{"hung_waiters":2,"drain_ms":60000.0}}"#,
        )
        .unwrap();
        let violations = check_service(&report, &thresholds());
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations[0].contains("hanging"), "{violations:?}");
        assert!(violations[1].contains("drain"), "{violations:?}");
    }

    #[test]
    fn thresholds_loader_rejects_wrong_schema() {
        let path = std::env::temp_dir().join(format!(
            "qpilot_check_test_{}_bad_thresholds.json",
            std::process::id()
        ));
        std::fs::write(&path, r#"{"schema":"qpilot.bench.thresholds/v9"}"#).unwrap();
        let result = load_thresholds(path.to_str().unwrap());
        std::fs::remove_file(&path).unwrap();
        let err = result.unwrap_err();
        assert!(err.contains("v9"), "{err}");
    }
}
