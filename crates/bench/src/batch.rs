//! Parallel batch compilation: route many circuits across all cores.
//!
//! This is the throughput layer the figure binaries (and any future
//! compilation service) sit on: one [`FpqaConfig`] or device set, many
//! independent circuits, fanned out with [`qpilot_core::par::parallel_map`].
//! Per-device state that is expensive to derive (the SABRE APSP matrix)
//! is warmed once up front and shared via `Arc`, so adding circuits to a
//! batch never repeats device analysis.

use qpilot_baselines::{compile_with_router, BaselineReport, SabreRouter};
use qpilot_circuit::Circuit;
use qpilot_core::compile::{CompileError, CompileOptions, Compiler, Workload};
use qpilot_core::generic::GenericRouterOptions;
use qpilot_core::par::{default_threads, parallel_map};
use qpilot_core::{CompiledProgram, FpqaConfig};

use crate::baseline_devices;

/// Routes every workload through the unified compile pipeline
/// ([`qpilot_core::compile`](mod@qpilot_core::compile)) on `threads`
/// workers (input order preserved). Workload families can be mixed
/// freely within one batch; a fresh [`Compiler`] is built per item —
/// it holds only its options, so construction allocates nothing.
pub fn compile_workload_batch(
    workloads: &[Workload],
    config: &FpqaConfig,
    options: CompileOptions,
    threads: usize,
) -> Vec<Result<CompiledProgram, CompileError>> {
    parallel_map(workloads, threads, move |workload| {
        Compiler::with_options(options.clone())
            .compile(workload, config)
            .map(|out| out.into_program())
    })
}

/// Routes every circuit with the generic router on `threads` workers
/// (input order preserved).
pub fn compile_batch(
    circuits: &[Circuit],
    config: &FpqaConfig,
    threads: usize,
) -> Vec<Result<CompiledProgram, CompileError>> {
    compile_batch_with_options(circuits, config, GenericRouterOptions::default(), threads)
}

/// [`compile_batch`] with explicit generic-router options.
pub fn compile_batch_with_options(
    circuits: &[Circuit],
    config: &FpqaConfig,
    options: GenericRouterOptions,
    threads: usize,
) -> Vec<Result<CompiledProgram, CompileError>> {
    let workloads: Vec<Workload> = circuits
        .iter()
        .map(|c| Workload::circuit(c.clone()))
        .collect();
    compile_workload_batch(
        &workloads,
        config,
        CompileOptions::new().router_options(options),
        threads,
    )
}

/// Compiles every circuit on every baseline device in parallel, with the
/// per-device APSP matrices computed exactly once. Row `i` holds circuit
/// `i`'s reports in [`crate::BASELINE_LABELS`] order (`None` where the
/// device is too small or disconnected for that circuit).
pub fn compile_on_baselines_batch(
    circuits: &[Circuit],
    threads: usize,
) -> Vec<Vec<Option<BaselineReport>>> {
    // One router per device for the whole batch: one graph clone, one
    // shared APSP matrix, regardless of how many circuits follow.
    let routers: Vec<SabreRouter> = baseline_devices()
        .into_iter()
        .map(SabreRouter::new)
        .collect();
    parallel_map(circuits, threads, |circuit| {
        routers
            .iter()
            .map(|router| compile_with_router(circuit, router).ok())
            .collect()
    })
}

/// Convenience wrapper: [`compile_batch`] on [`default_threads`].
pub fn compile_batch_auto(
    circuits: &[Circuit],
    config: &FpqaConfig,
) -> Vec<Result<CompiledProgram, CompileError>> {
    compile_batch(circuits, config, default_threads())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpilot_workloads::random::{random_circuit, RandomCircuitConfig};

    fn circuits(n: usize) -> Vec<Circuit> {
        (0..n)
            .map(|seed| random_circuit(&RandomCircuitConfig::paper(8, 3, seed as u64)))
            .collect()
    }

    #[test]
    fn batch_matches_sequential_routing() {
        let cs = circuits(6);
        let cfg = FpqaConfig::square_for(8);
        let batch = compile_batch(&cs, &cfg, 4);
        for (c, result) in cs.iter().zip(&batch) {
            let solo = qpilot_core::compile(&Workload::circuit(c.clone()), &cfg).unwrap();
            assert_eq!(result.as_ref().unwrap(), &solo);
        }
    }

    #[test]
    fn batch_reports_errors_per_circuit() {
        let mut cs = circuits(2);
        cs.push(Circuit::new(64)); // too wide for the 8-qubit config
        let cfg = FpqaConfig::square_for(8);
        let batch = compile_batch(&cs, &cfg, 2);
        assert!(batch[0].is_ok() && batch[1].is_ok());
        assert!(matches!(
            batch[2],
            Err(CompileError::Route(
                qpilot_core::RouteError::TooManyQubits { .. }
            ))
        ));
    }

    #[test]
    fn mixed_family_batch_compiles_every_item() {
        let cfg = FpqaConfig::square_for(8);
        let workloads = vec![
            Workload::circuit(circuits(1).remove(0)),
            Workload::pauli_strings(vec!["ZZIZIIII".parse().unwrap()], 0.4),
            Workload::qaoa_round(8, vec![(0, 1), (2, 3), (4, 5)], 0.7, 0.3),
        ];
        let batch = compile_workload_batch(&workloads, &cfg, CompileOptions::new(), 2);
        assert_eq!(batch.len(), 3);
        for (workload, result) in workloads.iter().zip(&batch) {
            let solo = qpilot_core::compile(workload, &cfg).unwrap();
            assert_eq!(result.as_ref().unwrap(), &solo);
        }
    }

    #[test]
    fn baseline_batch_covers_all_devices() {
        let cs = circuits(3);
        let rows = compile_on_baselines_batch(&cs, 2);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert_eq!(row.len(), crate::BASELINE_LABELS.len());
            assert!(row.iter().all(|r| r.is_some()));
        }
    }
}
