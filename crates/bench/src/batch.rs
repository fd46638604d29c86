//! Parallel batch compilation: route many circuits across all cores.
//!
//! `perf_report` measures the generic router's batch throughput through
//! [`compile_batch`]: one [`FpqaConfig`], many independent circuits,
//! fanned out with [`qpilot_core::par::parallel_map`].

use qpilot_circuit::Circuit;
use qpilot_core::compile::{CompileError, Workload};
use qpilot_core::par::parallel_map;
use qpilot_core::{CompiledProgram, FpqaConfig};

/// Routes every circuit with the generic router's default options on
/// `threads` workers (input order preserved).
pub fn compile_batch(
    circuits: &[Circuit],
    config: &FpqaConfig,
    threads: usize,
) -> Vec<Result<CompiledProgram, CompileError>> {
    parallel_map(circuits, threads, |circuit| {
        qpilot_core::compile(&Workload::circuit(circuit.clone()), config)
    })
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
}
