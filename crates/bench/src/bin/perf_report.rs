//! Routing-performance tracker: sweeps circuit sizes, times every router,
//! A/B-compares the generic router against the preserved pre-PR pairwise
//! implementation, and writes `BENCH_routing.json` for trend tracking.
//!
//! ```text
//! perf_report [--sizes 20,50,100] [--factor 10] [--reps 7] \
//!             [--batch 8] [--threads N] [--out BENCH_routing.json]
//! ```
//!
//! Reported per size: median wall-clock for the pre-PR reference (frozen
//! pre-arena IR) and the incremental arena router (plus their
//! heap-allocation counts, measured with a counting global allocator),
//! schedule stats, a byte-identity check of the two serialised schedules
//! (each through its own writer), and batch-compilation throughput on
//! `--threads` workers. The qsim, QAOA and QEC routers get
//! wall-clock/stats rows on their own workload families (the qec sweep
//! uses the largest distance whose `d²` register fits each size), and a
//! `families[]` section records the ancilla-vs-SWAP depth comparison
//! (`qpilot_bench::depth`) at fixed family sizes. The `routers[]` rows
//! report best-of-reps (`min_secs`) rather than medians: routing is
//! deterministic, so noise only ever inflates a sample, and the CI
//! ceilings should gate the code, not the load of a shared runner. Run
//! `--sizes 10,100 --factor 3 --reps 7 --batch 2` as a CI smoke test
//! (100 must be included: the per-router ceilings gate at 100q).
//!
//! With `--check <thresholds.json>` the freshly-written report is gated
//! against `qpilot.bench.thresholds/v1` (see `qpilot_bench::check`):
//! any violated minimum speedup / alloc ratio, exceeded allocation
//! ceiling, or non-identical schedule exits non-zero, failing the CI
//! build instead of merely smoke-testing the output file.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use qpilot_bench::{arg_num, arg_value, check, compile_batch, depth, Table};
use qpilot_core::compile::{CompileOptions, Compiler, Workload};
use qpilot_core::generic::GenericRouterOptions;
use qpilot_core::generic_reference::route_reference;
use qpilot_core::obs;
use qpilot_core::par::default_threads;
use qpilot_core::FpqaConfig;
use qpilot_workloads::graphs::random_regular;
use qpilot_workloads::pauli::{random_pauli_strings, PauliWorkloadConfig};
use qpilot_workloads::random::{random_circuit, RandomCircuitConfig};

/// Counts heap operations so the report can track allocation churn — the
/// resource the incremental engine and scratch reuse actually eliminate.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

/// Median wall-clock seconds over `reps` runs.
fn median_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            let out = f();
            let dt = t.elapsed().as_secs_f64();
            drop(out);
            dt
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// Minimum wall-clock seconds over `reps` runs — the aggregation the
/// per-router CI ceilings gate on. Routing is deterministic, so its true
/// cost is a constant and scheduler/frequency noise only ever *inflates*
/// a sample (the same argument `measure_obs_overhead` uses): the minimum
/// estimates the router's achievable latency where a median would gate
/// on the load of a shared CI runner instead of the code.
fn min_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            let out = f();
            let dt = t.elapsed().as_secs_f64();
            drop(out);
            dt
        })
        .fold(f64::INFINITY, f64::min)
}

struct GenericRow {
    qubits: u32,
    two_qubit_gates: usize,
    wall_reference: f64,
    wall_incremental: f64,
    allocs_reference: u64,
    allocs_incremental: u64,
    identical: bool,
    stages: usize,
    rydberg_depth: usize,
    native_two_qubit: usize,
    batch_circuits: usize,
    batch_threads: usize,
    wall_batch_per_circuit: f64,
}

struct AuxRow {
    router: &'static str,
    qubits: u32,
    workload: String,
    wall: f64,
    stages: usize,
    rydberg_depth: usize,
    native_two_qubit: usize,
}

fn bench_generic(n: u32, factor: usize, reps: usize, batch: usize, threads: usize) -> GenericRow {
    let circuit = random_circuit(&RandomCircuitConfig::paper(n, factor, 1));
    let config = FpqaConfig::square_for(n);
    let options = GenericRouterOptions::default();

    let wall_reference = median_secs(reps, || {
        route_reference(&circuit, &config, options).expect("reference routes")
    });
    // The measured path is the unified pipeline (`Compiler::compile`) —
    // exactly what the service workers and library callers run. The
    // workload and Compiler are built outside the timed/counted region.
    let workload = Workload::circuit(circuit.clone());
    let mut compiler = Compiler::with_options(CompileOptions::new().router_options(options));
    let wall_incremental = median_secs(reps, || {
        compiler
            .compile(&workload, &config)
            .expect("incremental routes")
            .into_program()
    });
    let (reference, allocs_reference) =
        count_allocs(|| route_reference(&circuit, &config, options).expect("reference routes"));
    let (program, allocs_incremental) = count_allocs(|| {
        compiler
            .compile(&workload, &config)
            .expect("incremental routes")
            .into_program()
    });
    // Byte identity across the two IRs: the frozen pre-arena writer and
    // the arena writer must produce the same `qpilot.schedule/v1` bytes
    // (serialisation happens outside the timed/counted regions).
    let identical = reference.to_json() == qpilot_core::wire::schedule_to_json(program.schedule())
        && reference.stats() == *program.stats();

    // Batch throughput: `batch` distinct circuits of the same shape.
    let batch_circuits: Vec<_> = (0..batch.max(1))
        .map(|seed| random_circuit(&RandomCircuitConfig::paper(n, factor, seed as u64 + 1)))
        .collect();
    let wall_batch = median_secs(reps.min(3), || {
        let results = compile_batch(&batch_circuits, &config, threads);
        assert!(results.iter().all(Result::is_ok));
        results
    });

    let stats = program.stats();
    GenericRow {
        qubits: n,
        two_qubit_gates: circuit.two_qubit_count(),
        wall_reference,
        wall_incremental,
        allocs_reference,
        allocs_incremental,
        identical,
        stages: program.schedule().num_stages(),
        rydberg_depth: stats.two_qubit_depth,
        native_two_qubit: stats.two_qubit_gates,
        batch_circuits: batch_circuits.len(),
        batch_threads: threads,
        wall_batch_per_circuit: wall_batch / batch_circuits.len() as f64,
    }
}

/// One `routers[]` workload: the router it exercises, the width its row
/// reports, its label, and the workload with the array it compiles on.
struct RouterCase {
    router: &'static str,
    qubits: u32,
    label: String,
    workload: Workload,
    config: FpqaConfig,
}

/// The largest surface-code distance whose `d²` data qubits fit in `n` —
/// the qec sweep rides the same `--sizes` axis as the other routers
/// (20 → d4, 50 → d7, 100 → d10), and the row's `qubits` field is the
/// actual `d²` register so threshold gates match on real widths.
fn qec_distance_for(n: u32) -> u32 {
    let mut d = 2;
    while (d + 1) * (d + 1) <= n {
        d += 1;
    }
    d.max(2)
}

/// The `routers[]` workloads at size `n`, one per router in row order.
/// The generic router is measured through the same `Compiler` front
/// door as the specialised ones, so the per-router CI ceilings
/// (`routing.routers` in the thresholds file) gate all four like for
/// like.
fn router_cases(n: u32, factor: usize) -> [RouterCase; 4] {
    let config = FpqaConfig::square_for(n);
    let strings = random_pauli_strings(&PauliWorkloadConfig {
        num_qubits: n as usize,
        num_strings: 20,
        pauli_probability: 0.3,
        seed: 2,
    });
    let graph = random_regular(n, 3, 4).expect("regular graph");
    let d = qec_distance_for(n);
    let qec = Workload::surface_code(d, 1, 0.37);
    [
        RouterCase {
            router: "generic",
            qubits: n,
            label: format!("paper_f{factor}"),
            workload: Workload::circuit(random_circuit(&RandomCircuitConfig::paper(n, factor, 1))),
            config: config.clone(),
        },
        RouterCase {
            router: "qsim",
            qubits: n,
            label: "pauli_p0.3_20s".into(),
            workload: Workload::pauli_strings(strings, 0.4),
            config: config.clone(),
        },
        RouterCase {
            router: "qaoa",
            qubits: n,
            label: "3_regular".into(),
            workload: Workload::qaoa_cost_layer(n, graph.edges().to_vec(), 0.7),
            config,
        },
        RouterCase {
            router: "qec",
            qubits: d * d,
            label: format!("surface_d{d}_r1"),
            config: qec.config(None),
            workload: qec,
        },
    ]
}

/// Times `case` through `Compiler::compile`, best of `reps`, then
/// compiles it once more for the row's schedule stats.
fn bench_router(case: RouterCase, reps: usize) -> AuxRow {
    let mut compiler = Compiler::new();
    let mut compile = || {
        compiler
            .compile(&case.workload, &case.config)
            .expect("benchmark workload routes")
            .into_program()
    };
    let wall = min_secs(reps, &mut compile);
    let program = compile();
    let stats = program.stats();
    AuxRow {
        router: case.router,
        qubits: case.qubits,
        workload: case.label,
        wall,
        stages: program.schedule().num_stages(),
        rydberg_depth: stats.two_qubit_depth,
        native_two_qubit: stats.two_qubit_gates,
    }
}

/// One `stage_profile` report row: a router stage's median per-route
/// cost and its share of the router's total instrumented time.
struct StageRow {
    router: &'static str,
    stage: &'static str,
    count: u64,
    p50_ms: f64,
    share: f64,
}

/// Populates the per-stage route histograms (`obs::ROUTE_STAGES`) with
/// `reps` fresh compiles per router at size `n`, then snapshots them
/// into report rows. Runs on reset histograms so earlier sweep sections
/// cannot skew the medians.
fn profile_stages(n: u32, factor: usize, reps: usize) -> Vec<StageRow> {
    obs::reset_route_stages();
    obs::set_enabled(true);
    // Profile every route call here (serving processes sample 1-in-N).
    obs::set_stage_sampling(1);
    let mut compiler = Compiler::new();
    for case in router_cases(n, factor) {
        for _ in 0..reps.max(1) {
            compiler
                .compile(&case.workload, &case.config)
                .expect("profiled route")
                .into_program();
        }
    }
    obs::set_stage_sampling(obs::DEFAULT_STAGE_SAMPLING);
    let totals: Vec<(&str, u64)> = ["generic", "qsim", "qaoa", "qec"]
        .iter()
        .map(|&router| {
            let sum = obs::ROUTE_STAGES
                .iter()
                .filter(|s| s.router == router)
                .map(|s| s.histogram.snapshot().sum_ns())
                .sum();
            (router, sum)
        })
        .collect();
    obs::ROUTE_STAGES
        .iter()
        .map(|s| {
            let snap = s.histogram.snapshot();
            let total = totals
                .iter()
                .find(|(r, _)| *r == s.router)
                .map_or(0, |&(_, t)| t);
            StageRow {
                router: s.router,
                stage: s.stage,
                count: snap.count(),
                p50_ms: snap.percentile(0.50) as f64 * 1e-6,
                share: if total == 0 {
                    0.0
                } else {
                    snap.sum_ns() as f64 / total as f64
                },
            }
        })
        .collect()
}

/// Steady-state instrumentation overhead of the route path, in percent
/// of uninstrumented route wall-clock.
///
/// Measures the *fully profiled* route (stage sampling forced to 1)
/// against the uninstrumented route and amortises the difference over
/// the production sampling period — the exact cost a serving process
/// pays per route on average. Both sides use the minimum over many
/// interleaved single-route samples: the instrumentation cost is
/// deterministic while scheduler and frequency noise only ever inflate
/// a sample, so min-vs-min isolates the true cost where a median would
/// drown it in machine noise. Residual jitter can still push the
/// result slightly negative; the CI gate (`max_obs_overhead_pct`) only
/// caps the positive direction.
fn measure_obs_overhead(n: u32, factor: usize, reps: usize) -> f64 {
    let config = FpqaConfig::square_for(n);
    let workload = Workload::circuit(random_circuit(&RandomCircuitConfig::paper(n, factor, 1)));
    let mut compiler = Compiler::new();
    compiler
        .compile(&workload, &config)
        .expect("warm-up route")
        .into_program();
    obs::set_stage_sampling(1);
    let mut route = |profiled: bool| {
        obs::set_enabled(profiled);
        let t = Instant::now();
        compiler
            .compile(&workload, &config)
            .expect("overhead-probe route")
            .into_program();
        t.elapsed().as_secs_f64()
    };
    let (mut on, mut off) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..(4 * reps.max(5)) {
        on = on.min(route(true));
        off = off.min(route(false));
    }
    obs::set_enabled(true);
    obs::set_stage_sampling(obs::DEFAULT_STAGE_SAMPLING);
    ((on / off.max(1e-12)) - 1.0) * 100.0 / f64::from(obs::DEFAULT_STAGE_SAMPLING)
}

fn main() {
    let sizes: Vec<u32> = arg_value("--sizes")
        .map(|v| v.split(',').filter_map(|x| x.trim().parse().ok()).collect())
        .unwrap_or_else(|| vec![20, 50, 100]);
    if sizes.is_empty() || sizes.contains(&0) {
        eprintln!("error: --sizes needs a comma-separated list of positive qubit counts");
        std::process::exit(2);
    }
    let factor: usize = arg_num("--factor", 10);
    let reps: usize = arg_num("--reps", 7);
    let batch: usize = arg_num("--batch", 8);
    let threads: usize = arg_num("--threads", default_threads());
    let out_path = arg_value("--out").unwrap_or_else(|| "BENCH_routing.json".to_string());
    let check_path = arg_value("--check");

    let mut generic_rows = Vec::new();
    let mut aux_rows = Vec::new();
    for &n in &sizes {
        generic_rows.push(bench_generic(n, factor, reps, batch, threads));
        aux_rows.extend(router_cases(n, factor).map(|case| bench_router(case, reps)));
    }

    let mut table = Table::new(&[
        "qubits",
        "CZs",
        "ref_ms",
        "inc_ms",
        "speedup",
        "alloc_ratio",
        "identical",
        "batch_ms/c",
    ]);
    for row in &generic_rows {
        table.row(vec![
            row.qubits.to_string(),
            row.two_qubit_gates.to_string(),
            format!("{:.3}", row.wall_reference * 1e3),
            format!("{:.3}", row.wall_incremental * 1e3),
            format!("{:.2}", row.wall_reference / row.wall_incremental),
            format!(
                "{:.2}",
                row.allocs_reference as f64 / row.allocs_incremental as f64
            ),
            row.identical.to_string(),
            format!("{:.3}", row.wall_batch_per_circuit * 1e3),
        ]);
    }
    println!("generic router: incremental vs pre-PR reference");
    table.print();

    let mut aux = Table::new(&["router", "qubits", "workload", "ms", "stages", "2q"]);
    for row in &aux_rows {
        aux.row(vec![
            row.router.to_string(),
            row.qubits.to_string(),
            row.workload.clone(),
            format!("{:.3}", row.wall * 1e3),
            row.stages.to_string(),
            row.native_two_qubit.to_string(),
        ]);
    }
    println!("\nspecialised routers");
    aux.print();

    // Per-stage route profile + instrumentation overhead, at the largest
    // swept size (where stage costs are most visible).
    let n_max = *sizes.iter().max().expect("nonempty sizes");
    let stage_rows = profile_stages(n_max, factor, reps);
    let obs_overhead_pct = measure_obs_overhead(n_max, factor, reps);
    let mut prof = Table::new(&["router", "stage", "count", "p50_ms", "share"]);
    for row in &stage_rows {
        prof.row(vec![
            row.router.to_string(),
            row.stage.to_string(),
            row.count.to_string(),
            format!("{:.4}", row.p50_ms),
            format!("{:.1}%", row.share * 100.0),
        ]);
    }
    println!("\nper-stage route profile ({n_max}q, obs overhead {obs_overhead_pct:+.2}%)");
    prof.print();

    // The ancilla-vs-SWAP depth table (fixed family sizes, independent
    // of --sizes, so the gated rows exist in smoke and full runs alike).
    let family_rows = depth::measure_families();
    println!();
    depth::print_families(&family_rows);

    let json = render_json(
        &sizes,
        factor,
        reps,
        batch,
        threads,
        &generic_rows,
        &aux_rows,
        &stage_rows,
        &family_rows,
        obs_overhead_pct,
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("\nwrote {out_path}");

    assert!(
        generic_rows.iter().all(|r| r.identical),
        "incremental router diverged from the reference schedule"
    );

    if let Some(path) = check_path {
        let thresholds = match check::load_thresholds(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        };
        let report = qpilot_core::json::parse(&json).expect("own report is valid JSON");
        check::enforce("routing", &check::check_routing(&report, &thresholds));
    }
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    sizes: &[u32],
    factor: usize,
    reps: usize,
    batch: usize,
    threads: usize,
    generic_rows: &[GenericRow],
    aux_rows: &[AuxRow],
    stage_rows: &[StageRow],
    family_rows: &[depth::FamilyRow],
    obs_overhead_pct: f64,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"qpilot.bench.routing/v1\",");
    let _ = writeln!(
        s,
        "  \"config\": {{\"sizes\": {:?}, \"factor\": {factor}, \"reps\": {reps}, \"batch\": {batch}, \"threads\": {threads}}},",
        sizes
    );
    s.push_str("  \"generic\": [\n");
    for (i, r) in generic_rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"qubits\": {}, \"two_qubit_gates\": {}, \
             \"wall_s_reference\": {:.6}, \"wall_s_incremental\": {:.6}, \"speedup\": {:.3}, \
             \"allocs_reference\": {}, \"allocs_incremental\": {}, \"alloc_ratio\": {:.3}, \
             \"schedules_identical\": {}, \"stages\": {}, \"rydberg_depth\": {}, \
             \"native_two_qubit\": {}, \"batch_circuits\": {}, \"batch_threads\": {}, \
             \"wall_s_batch_per_circuit\": {:.6}}}",
            r.qubits,
            r.two_qubit_gates,
            r.wall_reference,
            r.wall_incremental,
            r.wall_reference / r.wall_incremental,
            r.allocs_reference,
            r.allocs_incremental,
            r.allocs_reference as f64 / r.allocs_incremental as f64,
            r.identical,
            r.stages,
            r.rydberg_depth,
            r.native_two_qubit,
            r.batch_circuits,
            r.batch_threads,
            r.wall_batch_per_circuit,
        );
        s.push_str(if i + 1 < generic_rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    s.push_str("  ],\n  \"routers\": [\n");
    for (i, r) in aux_rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"router\": \"{}\", \"qubits\": {}, \"workload\": \"{}\", \
             \"wall_s\": {:.6}, \"stages\": {}, \"rydberg_depth\": {}, \"native_two_qubit\": {}}}",
            r.router, r.qubits, r.workload, r.wall, r.stages, r.rydberg_depth, r.native_two_qubit,
        );
        s.push_str(if i + 1 < aux_rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n  \"stage_profile\": [\n");
    for (i, r) in stage_rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"router\": \"{}\", \"stage\": \"{}\", \"count\": {}, \
             \"p50_ms\": {:.6}, \"share\": {:.4}}}",
            r.router, r.stage, r.count, r.p50_ms, r.share,
        );
        s.push_str(if i + 1 < stage_rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(
        s,
        "  \"families\": {},",
        depth::families_json_array(family_rows)
    );
    let _ = writeln!(s, "  \"obs_overhead_pct\": {obs_overhead_pct:.3}");
    s.push_str("}\n");
    s
}
