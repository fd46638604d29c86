//! Ablation study of Q-Pilot's design choices:
//!
//! * generic router: unbounded stages vs `stage_cap = 1` (no gate-level
//!   parallelism — isolates the value of the legal-subset search);
//! * qsim router: auto fan-out vs `max_copies = 1` (no fan-out — isolates
//!   the value of the O(√N) copy tree);
//! * QAOA router: full anchor search + column extension vs the plain
//!   smallest-edge greedy (`anchor_candidates = 1`, no extension).
//!
//! Usage: `ablation [--qubits 64] [--seed 21]`

use qpilot_bench::{arg_num, fpqa_config, route_workload_with, Table};
use qpilot_core::compile::Workload;
use qpilot_core::generic::GenericRouterOptions;
use qpilot_core::qaoa::QaoaRouterOptions;
use qpilot_core::qsim::QsimRouterOptions;
use qpilot_workloads::graphs::erdos_renyi;
use qpilot_workloads::pauli::{random_pauli_strings, PauliWorkloadConfig};
use qpilot_workloads::random::{random_circuit, RandomCircuitConfig};

fn main() {
    let n = arg_num("--qubits", 64u32);
    let seed = arg_num("--seed", 21u64);
    let cfg = fpqa_config(n);
    let mut table = Table::new(&["router", "variant", "2Q depth", "2Q gates"]);

    // Generic router: stage cap ablation.
    let circuit = random_circuit(&RandomCircuitConfig::paper(n, 5, seed));
    for (variant, cap) in [
        ("legal-subset stages", None),
        ("one gate per stage", Some(1)),
    ] {
        let p = route_workload_with(
            &Workload::circuit(circuit.clone()),
            GenericRouterOptions { stage_cap: cap },
            &cfg,
        );
        table.row(vec![
            "generic".into(),
            variant.into(),
            p.stats().two_qubit_depth.to_string(),
            p.stats().two_qubit_gates.to_string(),
        ]);
    }

    // Qsim router: fan-out ablation.
    let strings = random_pauli_strings(&PauliWorkloadConfig {
        num_qubits: n as usize,
        num_strings: 50,
        pauli_probability: 0.4,
        seed,
    });
    for (variant, copies) in [("auto fan-out", None), ("single ancilla", Some(1))] {
        let p = route_workload_with(
            &Workload::pauli_strings(strings.clone(), 0.31),
            QsimRouterOptions { max_copies: copies },
            &cfg,
        );
        table.row(vec![
            "qsim".into(),
            variant.into(),
            p.stats().two_qubit_depth.to_string(),
            p.stats().two_qubit_gates.to_string(),
        ]);
    }

    // QAOA router: anchor search + column extension ablation.
    let graph = erdos_renyi(n, 0.3, seed);
    let variants: [(&str, QaoaRouterOptions); 2] = [
        ("anchor search + extension", QaoaRouterOptions::default()),
        (
            "plain greedy (paper Alg. 3)",
            QaoaRouterOptions {
                anchor_candidates: 1,
                column_extension: false,
            },
        ),
    ];
    for (variant, options) in variants {
        let p = route_workload_with(
            &Workload::qaoa_cost_layer(n, graph.edges().to_vec(), 0.7),
            options,
            &cfg,
        );
        table.row(vec![
            "qaoa".into(),
            variant.into(),
            p.stats().two_qubit_depth.to_string(),
            p.stats().two_qubit_gates.to_string(),
        ]);
    }

    println!("== Ablation: design-choice impact at {n} qubits ==");
    table.print();
}
