//! The paper's baseline comparisons, one section each, printed beside
//! the paper's own numbers: Fig. 11 (random circuits), Fig. 12
//! (quantum simulation) and Fig. 13 (QAOA) against the three
//! fixed-topology devices, Fig. 16 (the application-specific routers
//! against the generic one) and Table 1 (molecules).
//!
//! Usage: `paper_report` (no flags; every section runs at the paper's
//! sizes, in about a second on a 2-vCPU VM).
//!
//! The baselines route each workload's reference circuit with SABRE from
//! the trivial initial layout on the two 16×16 FAA lattices and IBM
//! Washington ([`qpilot_bench::baseline_devices`]).

use qpilot_bench::{compile_on_baselines, fpqa_config, geomean_ratio, route_workload, Table};
use qpilot_circuit::{Circuit, PauliString};
use qpilot_core::compile::Workload;
use qpilot_service::flags::Flags;
use qpilot_workloads::graphs::{erdos_renyi, random_regular, Graph};
use qpilot_workloads::molecules::Molecule;
use qpilot_workloads::pauli::{random_pauli_strings, PauliWorkloadConfig};
use qpilot_workloads::random::{random_circuit, RandomCircuitConfig};

/// The register widths of Fig. 11, 12 and 16.
const SIZES: [u32; 5] = [5, 10, 20, 50, 100];

/// Evolution angle of the random Pauli-string workloads (Fig. 12, 16).
const THETA: f64 = 0.31;

fn main() {
    Flags::parse("paper_report", std::env::args().skip(1), &[], &[]);
    print!("{}", fig11_random(&SIZES, &[2, 10]));
    print!("{}", fig12_qsim(&SIZES));
    print!("{}", fig13_qaoa(&[6, 10, 20, 50, 100]));
    print!("{}", fig16_specific_vs_generic(&SIZES));
    print!("{}", table1_molecules());
}

/// One comparison point: a workload for a Q-Pilot router and the same
/// computation as a plain circuit, for the router it is compared with.
struct Case {
    /// The cells that lead the point's row: its width, then any others.
    lead: Vec<String>,
    qubits: u32,
    workload: Workload,
    reference: Circuit,
}

impl Case {
    fn new(qubits: u32, workload: Workload, reference: Circuit) -> Case {
        Case {
            lead: vec![qubits.to_string()],
            qubits,
            workload,
            reference,
        }
    }
}

/// Q-Pilot on the FPQA against the reference circuit on each baseline
/// device: one row of 2Q gates and depth per case (`-` where a device is
/// too small), then the geometric mean of the best baseline over FPQA
/// across the cases some device could take.
fn versus_devices(
    title: &str,
    lead: &[&str],
    cases: impl IntoIterator<Item = Case>,
    paper: &str,
) -> String {
    let mut header = lead.to_vec();
    header.extend([
        "FPQA 2Q",
        "FPQA depth",
        "rect 2Q",
        "rect depth",
        "tri 2Q",
        "tri depth",
        "IBM 2Q",
        "IBM depth",
    ]);
    let mut table = Table::new(&header);
    let (mut ours_depth, mut ours_gates) = (Vec::new(), Vec::new());
    let (mut best_depth, mut best_gates) = (Vec::new(), Vec::new());
    for case in cases {
        let stats = *route_workload(&case.workload, &fpqa_config(case.qubits)).stats();
        let mut row = case.lead;
        row.extend([
            stats.two_qubit_gates.to_string(),
            stats.two_qubit_depth.to_string(),
        ]);
        let mut best: Option<(f64, f64)> = None;
        for report in compile_on_baselines(&case.reference) {
            let Some(r) = report else {
                row.extend(["-".to_string(), "-".to_string()]);
                continue;
            };
            row.extend([r.two_qubit_gates.to_string(), r.two_qubit_depth.to_string()]);
            let (depth, gates) = (r.two_qubit_depth as f64, r.two_qubit_gates as f64);
            best = Some(best.map_or((depth, gates), |(d, g)| (d.min(depth), g.min(gates))));
        }
        table.row(row);
        if let Some((depth, gates)) = best {
            ours_depth.push(stats.two_qubit_depth as f64);
            ours_gates.push(stats.two_qubit_gates as f64);
            best_depth.push(depth);
            best_gates.push(gates);
        }
    }
    format!(
        "\n== {title} ==\n{}geomean vs best baseline: depth {:.2}x, 2Q gates {:.2}x  ({paper})\n",
        table.render(),
        geomean_ratio(&ours_depth, &best_depth),
        geomean_ratio(&ours_gates, &best_gates),
    )
}

/// The application-specific router on each case's workload against the
/// generic router on its reference circuit, both on the FPQA, then the
/// geometric mean of generic over specific.
fn specific_vs_generic(title: &str, cases: impl IntoIterator<Item = Case>, paper: &str) -> String {
    let mut table = Table::new(&[
        "qubits",
        "specific 2Q",
        "specific depth",
        "generic 2Q",
        "generic depth",
    ]);
    let (mut sd, mut sg, mut gd, mut gg) = (vec![], vec![], vec![], vec![]);
    for case in cases {
        let config = fpqa_config(case.qubits);
        let specific = *route_workload(&case.workload, &config).stats();
        let generic = *route_workload(&Workload::circuit(case.reference), &config).stats();
        let mut row = case.lead;
        row.extend(
            [specific, generic]
                .iter()
                .flat_map(|s| [s.two_qubit_gates.to_string(), s.two_qubit_depth.to_string()]),
        );
        table.row(row);
        sd.push(specific.two_qubit_depth as f64);
        sg.push(specific.two_qubit_gates as f64);
        gd.push(generic.two_qubit_depth as f64);
        gg.push(generic.two_qubit_gates as f64);
    }
    format!(
        "== {title} ==\n{}geomean advantage: depth {:.2}x, 2Q gates {:.2}x  ({paper})\n",
        table.render(),
        geomean_ratio(&sd, &gd),
        geomean_ratio(&sg, &gg),
    )
}

/// The textbook reference for a Pauli-string workload: each string's
/// CNOT-ladder evolution circuit, in order, on an `n`-qubit register.
fn pauli_ladder(n: u32, strings: &[PauliString], theta: f64) -> Circuit {
    let mut ladder = Circuit::new(n);
    for s in strings {
        ladder.extend_from(&s.evolution_circuit(theta).remapped(n, |q| q));
    }
    ladder
}

/// 100 random Pauli strings on `n` qubits, each letter non-identity
/// with probability `p`.
fn pauli_strings(n: u32, p: f64, seed: u64) -> Vec<PauliString> {
    random_pauli_strings(&PauliWorkloadConfig {
        num_qubits: n as usize,
        num_strings: 100,
        pauli_probability: p,
        seed,
    })
}

/// An Erdős–Rényi graph with edge probability 0.3 at each size, for the
/// sizes where it has an edge.
fn erdos_renyi_graphs(sizes: &[u32], seed: u64) -> impl Iterator<Item = (u32, Graph)> + '_ {
    sizes
        .iter()
        .map(move |&n| (n, erdos_renyi(n, 0.3, seed)))
        .filter(|(_, g)| g.num_edges() > 0)
}

/// Fig. 11: random circuits with `factor` × n two-qubit gates, one
/// section per factor.
fn fig11_random(sizes: &[u32], factors: &[usize]) -> String {
    factors
        .iter()
        .map(|&factor| {
            let cases = sizes.iter().map(|&n| {
                let circuit = random_circuit(&RandomCircuitConfig::paper(n, factor, 7));
                Case::new(n, Workload::circuit(circuit.clone()), circuit)
            });
            versus_devices(
                &format!("Fig. 11: random circuits, #2Q = {factor} x #qubits"),
                &["qubits"],
                cases,
                "paper: depth 1.4x, gates 4.2x at factor 10 / 1.5x, 3.9x at factor 2",
            )
        })
        .collect()
}

/// Fig. 12: 100 random Pauli strings through the quantum-simulation
/// router, against their CNOT ladders on the devices.
fn fig12_qsim(sizes: &[u32]) -> String {
    [0.1, 0.5]
        .iter()
        .map(|&p| {
            let cases = sizes.iter().map(|&n| {
                let strings = pauli_strings(n, p, 3);
                let ladder = pauli_ladder(n, &strings, THETA);
                Case::new(n, Workload::pauli_strings(strings, THETA), ladder)
            });
            versus_devices(
                &format!("Fig. 12: quantum simulation, Pauli prob = {p} (100 strings)"),
                &["qubits"],
                cases,
                "paper at 100q: depth 27.7x, gates 6.9x for p=0.5; gates 6.3x for p=0.1",
            )
        })
        .collect()
}

/// Fig. 13: one Max-Cut QAOA cost layer through the QAOA router, against
/// the full one-round QAOA circuit on the devices, on 4-regular graphs
/// and on Erdős–Rényi graphs with edge probability 0.3.
fn fig13_qaoa(sizes: &[u32]) -> String {
    let (gamma, beta, seed) = (0.7, 0.3, 11);
    let case = |n: u32, graph: Graph| {
        let workload = Workload::qaoa_cost_layer(n, graph.edges().to_vec(), gamma);
        let mut case = Case::new(n, workload, graph.qaoa_circuit(&[gamma], &[beta]));
        case.lead.push(graph.num_edges().to_string());
        case
    };
    let regular = sizes
        .iter()
        .filter_map(|&n| random_regular(n, 4, seed).ok().map(|g| case(n, g)));
    let random = erdos_renyi_graphs(sizes, seed).map(|(n, g)| case(n, g));
    let lead = ["qubits", "edges"];
    versus_devices(
        "Fig. 13: QAOA, 4-regular graphs",
        &lead,
        regular,
        "paper: depth 5.7x, gates 7.7x",
    ) + &versus_devices(
        "Fig. 13: QAOA, random graphs, edge prob = 0.3",
        &lead,
        random,
        "paper: depth 6.7x, gates 10.0x",
    )
}

/// Fig. 16: the quantum-simulation router against the generic router on
/// the CNOT ladders (Pauli probability 0.3), and the QAOA router against
/// the generic router on the cost layer's ZZ circuit (Erdős–Rényi, edge
/// probability 0.3).
fn fig16_specific_vs_generic(sizes: &[u32]) -> String {
    let (gamma, seed) = (0.7, 13);
    let qsim = sizes.iter().map(|&n| {
        let strings = pauli_strings(n, 0.3, seed);
        let ladder = pauli_ladder(n, &strings, THETA);
        Case::new(n, Workload::pauli_strings(strings, THETA), ladder)
    });
    let qaoa = erdos_renyi_graphs(sizes, seed).map(|(n, graph)| {
        let mut zz = Circuit::new(n);
        for &(a, b) in graph.edges() {
            zz.zz(a, b, gamma);
        }
        let workload = Workload::qaoa_cost_layer(n, graph.edges().to_vec(), gamma);
        Case::new(n, workload, zz)
    });
    specific_vs_generic(
        "Fig. 16: quantum simulation (pauli p = 0.3, 100 strings)",
        qsim,
        "paper: 8.8x depth, 1.5x gates",
    ) + "\n"
        + &specific_vs_generic(
            "Fig. 16: QAOA (edge prob = 0.3)",
            qaoa,
            "paper: 10.1x depth, 2.8x gates",
        )
}

/// Paper-reported Table 1 values: (depth, 2Q) per device order
/// [FAA-rect, FAA-tri, IBM] and for Q-Pilot.
fn paper_reference(m: Molecule) -> ([(u64, u64); 3], (u64, u64)) {
    match m {
        Molecule::H2 => ([(76, 82), (61, 73), (77, 85)], (61, 94)),
        Molecule::LiH => ([(2772, 3577), (2052, 2616), (3403, 5082)], (849, 2130)),
        Molecule::H2O => (
            [(31087, 41306), (26189, 35353), (40080, 67247)],
            (7585, 20966),
        ),
        Molecule::BeH2 => (
            [(43919, 58720), (37314, 51699), (59259, 103594)],
            (10617, 29518),
        ),
    }
}

/// Table 1: the UCCSD Pauli strings of four molecules through the
/// quantum-simulation router, and their CNOT ladders on the devices.
fn table1_molecules() -> String {
    let theta = 0.17;
    let mut table = Table::new(&[
        "molecule",
        "qubits",
        "strings",
        "device",
        "depth",
        "2Q gates",
        "paper depth",
        "paper 2Q",
    ]);
    let labels = ["FAA (rect)", "FAA (tri)", "Superconducting"];
    for m in Molecule::ALL {
        let strings = m.pauli_strings();
        let n = m.num_qubits() as u32;
        let (paper_base, paper_ours) = paper_reference(m);
        let ladder = pauli_ladder(n, &strings, theta);
        let count = strings.len();
        let workload = Workload::pauli_strings(strings, theta);
        let stats = *route_workload(&workload, &fpqa_config(n)).stats();
        table.row(vec![
            m.name().to_string(),
            n.to_string(),
            count.to_string(),
            "Q-Pilot (FPQA)".to_string(),
            stats.two_qubit_depth.to_string(),
            stats.two_qubit_gates.to_string(),
            paper_ours.0.to_string(),
            paper_ours.1.to_string(),
        ]);
        let baselines = compile_on_baselines(&ladder);
        for ((label, paper), report) in labels.iter().zip(paper_base).zip(baselines) {
            let Some(r) = report else { continue };
            table.row(vec![
                String::new(),
                String::new(),
                String::new(),
                label.to_string(),
                r.two_qubit_depth.to_string(),
                r.two_qubit_gates.to_string(),
                paper.0.to_string(),
                paper.1.to_string(),
            ]);
        }
    }
    format!(
        "== Table 1: molecule Pauli-string simulation ==\n{}\
         (paper aggregate: 2.60x depth and 1.36x 2Q-gate reduction vs best baseline)\n",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 11 at 5 and 10 qubits, factor 2: a change to a router or to a
    /// baseline's layout shows here as the cells it moves.
    #[test]
    fn fig11_small_sizes_are_pinned() {
        let expected = concat!(
            "\n",
            "== Fig. 11: random circuits, #2Q = 2 x #qubits ==\n",
            "qubits  FPQA 2Q  FPQA depth  rect 2Q  rect depth  tri 2Q  tri depth  IBM 2Q  IBM depth\n",
            "--------------------------------------------------------------------------------------\n",
            "     5       30          24       26          21      26         21      26         21\n",
            "    10       60          42       94          44      94         44      94         44\n",
            "geomean vs best baseline: depth 0.96x, 2Q gates 1.17x  \
             (paper: depth 1.4x, gates 4.2x at factor 10 / 1.5x, 3.9x at factor 2)\n",
        );
        assert_eq!(fig11_random(&[5, 10], &[2]), expected);
    }

    /// Fig. 16 at 5 and 10 qubits: the specific routers against the
    /// generic one on the Pauli ladders and the ZZ circuits.
    #[test]
    fn fig16_small_sizes_are_pinned() {
        let expected = concat!(
            "== Fig. 16: quantum simulation (pauli p = 0.3, 100 strings) ==\n",
            "qubits  specific 2Q  specific depth  generic 2Q  generic depth\n",
            "--------------------------------------------------------------\n",
            "     5          272             272         474            423\n",
            "    10          556             556        1158            975\n",
            "geomean advantage: depth 1.65x, 2Q gates 1.91x  (paper: 8.8x depth, 1.5x gates)\n",
            "\n",
            "== Fig. 16: QAOA (edge prob = 0.3) ==\n",
            "qubits  specific 2Q  specific depth  generic 2Q  generic depth\n",
            "--------------------------------------------------------------\n",
            "     5           12               4           6              6\n",
            "    10           33              13          39             27\n",
            "geomean advantage: depth 1.77x, 2Q gates 0.77x  (paper: 10.1x depth, 2.8x gates)\n",
        );
        assert_eq!(fig16_specific_vs_generic(&[5, 10]), expected);
    }
}
