//! Seeded input generators.
//!
//! Every input is a pure function of `(seed, index)`, so two runs with the
//! same `--seed` send byte-identical request lines in the same index
//! order, and a cold run never repeats an input. The program under test
//! only ever sees the generated request lines.

use std::borrow::Cow;
use std::f64::consts::{FRAC_PI_2, TAU};

use qpilot_circuit::{Circuit, PauliString, Qubit};
use qpilot_core::compile::Workload;
use qpilot_service::protocol::{
    circuit_to_value_json, compile_request_line, qaoa_request_line, qec_request_line,
    qsim_request_line,
};
use qpilot_workloads::families::{ghz, qft, vqe_ansatz};
use qpilot_workloads::graphs::{random_regular, Graph};
use qpilot_workloads::pauli::{random_pauli_strings, PauliWorkloadConfig};

/// The seed a run uses when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 1;

/// A seed kept out of tuning: a claimed gain must also hold on it.
pub const HOLDOUT_SEED: u64 = 7_919;

/// Inputs per block of the structured mix, in which every family keeps
/// its share. QAOA carries over half, as the largest routing load; qsim
/// carries one in 16, because its ~10 KB request lines and ~200 KB
/// schedules put more time into parse and serialise than into routing.
const MIX: [Family; 16] = [
    Family::Qaoa,
    Family::Qaoa,
    Family::Qaoa,
    Family::Qaoa,
    Family::Qaoa,
    Family::Qaoa,
    Family::Qaoa,
    Family::Qaoa,
    Family::Qaoa,
    Family::Qsim,
    Family::Qec,
    Family::Qec,
    Family::Qft,
    Family::Vqe,
    Family::Vqe,
    Family::Ghz,
];

/// A workload family: which generator drew the input, and so which
/// reference verification compares against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Family {
    /// The paper's random circuits: 100 qubits, 1000 CX, 1000 1Q gates.
    Random,
    /// Depth-1 QAOA on a random 3-regular graph, 100 qubits.
    Qaoa,
    /// 100 random Pauli-string evolutions on 100 qubits.
    Qsim,
    /// Surface-code stabilizer-phase rounds at d = 3/5/7.
    Qec,
    /// Quantum Fourier transform, 16–32 qubits.
    Qft,
    /// Hardware-efficient VQE ansatz, 16–32 qubits.
    Vqe,
    /// GHZ preparation, 16–32 qubits.
    Ghz,
}

impl Family {
    /// Every family, in report order.
    pub const ALL: [Family; 7] = [
        Family::Random,
        Family::Qaoa,
        Family::Qsim,
        Family::Qec,
        Family::Qft,
        Family::Vqe,
        Family::Ghz,
    ];

    /// The family's name in metric names (`depth.<name>`).
    pub fn name(self) -> &'static str {
        match self {
            Family::Random => "random",
            Family::Qaoa => "qaoa",
            Family::Qsim => "qsim",
            Family::Qec => "qec",
            Family::Qft => "qft",
            Family::Vqe => "vqe",
            Family::Ghz => "ghz",
        }
    }

    /// `true` when every gate of the family's inputs is Clifford, so the
    /// stabilizer tableau can verify a reply at any width. QFT angles are
    /// `π/2^k` and the VQE ansatz draws its own continuous angles.
    pub fn is_clifford(self) -> bool {
        !matches!(self, Family::Qft | Family::Vqe)
    }
}

/// One generated compile request.
#[derive(Debug, Clone)]
pub struct Input {
    /// The generator that drew it.
    pub family: Family,
    /// The workload the request line encodes.
    pub workload: Workload,
    /// The request line without a request id or newline.
    pub body: String,
}

impl Input {
    /// The request line carrying `request_id` (no newline).
    pub fn line(&self, request_id: &str) -> String {
        let rest = self
            .body
            .strip_prefix('{')
            .expect("request lines are objects");
        format!("{{\"request_id\":\"{request_id}\",{rest}")
    }

    /// The circuit the compiled schedule must implement on the data
    /// register, built from the request's own inputs and never from the
    /// compiler's output.
    pub fn reference(&self) -> Circuit {
        let num_data = self.workload.config(None).num_data();
        match &self.workload {
            Workload::Generic(circuit) => circuit.remapped(num_data, |q| q),
            Workload::Qsim(strings) => {
                let mut reference = Circuit::new(num_data);
                for (string, theta) in strings {
                    let step = string.evolution_circuit(*theta);
                    reference.extend_from(&step.remapped(num_data, |q| q));
                }
                reference
            }
            Workload::Qaoa(q) => Graph::from_edges(q.num_qubits, q.edges.iter().copied())
                .expect("generated graphs are simple")
                .qaoa_circuit(&q.gammas, &q.betas)
                .remapped(num_data, |q| q),
            Workload::Qec(q) => qpilot_core::qec::reference_circuit(q),
        }
    }
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Distinct 100-qubit random circuits: the miss path at the paper's
    /// headline size, heavy on parse, serialise and transport.
    ColdRandom,
    /// [`WARM_KEYS`] random circuits compiled into a store before timing;
    /// a restarted daemon recovers them and serves every request as a hit.
    WarmRestart,
    /// The paper's domain families through their own routers: routing is
    /// the largest layer.
    ColdStructured,
}

/// The working set of `warm-restart-100q`.
pub const WARM_KEYS: u64 = 4;

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 3] = [Kind::ColdRandom, Kind::WarmRestart, Kind::ColdStructured];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ColdRandom => "cold-random-100q",
            Kind::WarmRestart => "warm-restart-100q",
            Kind::ColdStructured => "cold-structured",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The input of request `index` (the warm workload cycles its keys).
    pub fn input(self, seed: u64, index: u64) -> Input {
        match self {
            Kind::ColdRandom => cold_random(seed, index),
            Kind::WarmRestart => warm(seed, index % WARM_KEYS),
            Kind::ColdStructured => structured(seed, index),
        }
    }

    /// The family of request `index`, without generating it.
    pub fn family(self, seed: u64, index: u64) -> Family {
        match self {
            Kind::ColdStructured => structured_slot(seed, index).0,
            Kind::ColdRandom | Kind::WarmRestart => Family::Random,
        }
    }

    /// The request id of request `index`; the index is recoverable from
    /// it ([`index_of`]).
    pub fn request_id(self, index: u64) -> String {
        let tag = match self {
            Kind::ColdRandom => 'c',
            Kind::WarmRestart => 'w',
            Kind::ColdStructured => 's',
        };
        format!("{tag}{index}")
    }

    /// Lines per second of window and warm-up that a run builds before
    /// the window opens: about 1.4 times the fastest rate the seed commit
    /// served (220 and 710 req/s), so a faster daemon still gets pre-built
    /// lines. A cold-random line is ~22 KB, so its pool is the larger in
    /// memory (~170 MB for 25 s). The warm workload caches its 4 inputs
    /// instead.
    pub fn pooled_per_second(self) -> u64 {
        match self {
            Kind::ColdRandom => 300,
            Kind::WarmRestart => 0,
            Kind::ColdStructured => 1000,
        }
    }

    /// The distinct inputs `rydberg_depth` and the `depth.*` metrics are
    /// taken over: the first this-many indices, which every run sends, so
    /// the same seed always gives the same depth.
    pub fn depth_set(self) -> u64 {
        match self {
            Kind::ColdRandom => 64,
            Kind::WarmRestart => WARM_KEYS,
            Kind::ColdStructured => 320,
        }
    }
}

/// The request index encoded in a request id.
pub fn index_of(request_id: &str) -> Option<u64> {
    request_id.get(1..)?.parse().ok()
}

/// The request lines of one workload and seed, as a closed loop sends
/// them. Lines are built before the window opens, so inside the window
/// the clients spend their CPU on the wire and not on generating circuits
/// and their JSON, which on a two-core machine competes with the daemon
/// and makes runs slower and less steady (see `README.md`). The warm
/// working set is 4 cached inputs; a cold run pre-builds a pool of
/// distinct lines, and builds any line past the pool as it is sent.
pub struct Lines {
    kind: Kind,
    seed: u64,
    warm: Vec<Input>,
    pool: Vec<Vec<u8>>,
}

impl Lines {
    /// The lines of `kind` under `seed`, with the first `pooled` built now
    /// on every core.
    pub fn new(kind: Kind, seed: u64, pooled: u64) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let keys = if kind == Kind::WarmRestart {
            WARM_KEYS
        } else {
            0
        };
        let mut lines = Lines {
            kind,
            seed,
            warm: (0..keys).map(|k| warm(seed, k)).collect(),
            pool: Vec::new(),
        };
        let mut pool = vec![Vec::new(); pooled as usize];
        let chunk = pool.len().div_ceil(threads).max(1);
        std::thread::scope(|scope| {
            for (c, slots) in pool.chunks_mut(chunk).enumerate() {
                let lines = &lines;
                scope.spawn(move || {
                    for (j, slot) in slots.iter_mut().enumerate() {
                        *slot = lines.build((c * chunk + j) as u64);
                    }
                });
            }
        });
        lines.pool = pool;
        lines
    }

    /// How many lines were built up front.
    pub fn pooled(&self) -> u64 {
        self.pool.len() as u64
    }

    /// Request `index` with its request id, newline-terminated.
    pub fn line(&self, index: u64) -> Cow<'_, [u8]> {
        match self.pool.get(index as usize) {
            Some(line) => Cow::Borrowed(line),
            None => Cow::Owned(self.build(index)),
        }
    }

    fn build(&self, index: u64) -> Vec<u8> {
        let id = self.kind.request_id(index);
        let line = match self.warm.get((index % WARM_KEYS) as usize) {
            Some(input) => input.line(&id),
            None => self.kind.input(self.seed, index).line(&id),
        };
        // Exact capacity: a pool holds thousands of these.
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        bytes
    }
}

/// SplitMix64: a small, fully specified generator, so inputs do not
/// depend on any library's choice of RNG.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// The stream for one `(seed, stream, index)` triple.
    pub fn stream(seed: u64, stream: u64, index: u64) -> Self {
        let mut s = SplitMix(seed);
        let a = s.next_u64() ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03);
        let mut s = SplitMix(a);
        SplitMix(s.next_u64() ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`; the modulo bias is below 2⁻⁵⁸ here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

const STREAM_RANDOM: u64 = 1;
const STREAM_WARM: u64 = 2;
const STREAM_MIX: u64 = 3;
const STREAM_FAMILY: u64 = 4;

/// The paper's random-circuit shape with a Clifford one-qubit set:
/// `two_qubit` CX and `one_qubit` gates from {h, s, sdg, x, z}, randomly
/// interleaved.
fn random_clifford_circuit(
    num_qubits: u32,
    two_qubit: usize,
    one_qubit: usize,
    rng: &mut SplitMix,
) -> Circuit {
    let mut c = Circuit::with_capacity(num_qubits, two_qubit + one_qubit);
    let (mut rem_2q, mut rem_1q) = (two_qubit, one_qubit);
    let n = u64::from(num_qubits);
    while rem_2q + rem_1q > 0 {
        if (rng.below((rem_2q + rem_1q) as u64) as usize) < rem_2q {
            let a = rng.below(n) as u32;
            let mut b = rng.below(n - 1) as u32;
            if b >= a {
                b += 1;
            }
            c.cx(a, b);
            rem_2q -= 1;
        } else {
            let q = rng.below(n) as u32;
            match rng.below(5) {
                0 => c.h(q),
                1 => c.s(q),
                2 => c.sdg(q),
                3 => c.x(q),
                _ => c.z(q),
            };
            rem_1q -= 1;
        }
    }
    c
}

fn generic(family: Family, circuit: Circuit) -> Input {
    let body = compile_request_line(&circuit_to_value_json(&circuit), None, None, None, true);
    Input {
        family,
        workload: Workload::circuit(circuit),
        body,
    }
}

fn random_100q(seed: u64, stream: u64, index: u64) -> Input {
    let mut rng = SplitMix::stream(seed, stream, index);
    generic(
        Family::Random,
        random_clifford_circuit(100, 1000, 1000, &mut rng),
    )
}

/// Input `index` of `cold-random-100q`.
pub fn cold_random(seed: u64, index: u64) -> Input {
    random_100q(seed, STREAM_RANDOM, index)
}

/// Key `key` of the `warm-restart-100q` working set.
pub fn warm(seed: u64, key: u64) -> Input {
    random_100q(seed, STREAM_WARM, key)
}

/// The family of structured input `index`, and its ordinal among the
/// inputs of that family (`0, 1, 2, …` in index order).
pub fn structured_slot(seed: u64, index: u64) -> (Family, u64) {
    let block = index / MIX.len() as u64;
    let mut order = MIX;
    SplitMix::stream(seed, STREAM_MIX, block).shuffle(&mut order);
    let slot = (index % MIX.len() as u64) as usize;
    let family = order[slot];
    let per_block = MIX.iter().filter(|f| **f == family).count() as u64;
    let earlier = order[..slot].iter().filter(|f| **f == family).count() as u64;
    (family, block * per_block + earlier)
}

/// A seeded relabelling of a circuit's qubits, for families whose
/// generators take no seed.
fn relabelled(circuit: &Circuit, rng: &mut SplitMix) -> Circuit {
    let mut perm: Vec<u32> = (0..circuit.num_qubits()).collect();
    rng.shuffle(&mut perm);
    circuit.remapped(circuit.num_qubits(), |q| Qubit::new(perm[q.raw() as usize]))
}

/// Input `index` of `cold-structured`.
pub fn structured(seed: u64, index: u64) -> Input {
    let (family, ordinal) = structured_slot(seed, index);
    let mut rng = SplitMix::stream(seed, STREAM_FAMILY, index);
    let width = |rng: &mut SplitMix| 16 + rng.below(17) as u32;
    match family {
        Family::Qaoa => {
            // γ = β = π/2 keeps the whole program Clifford; the mixer is
            // `Rx(β)` here, so β = π/4 would not be.
            let graph = random_regular(100, 3, rng.next_u64())
                .expect("3-regular graphs on 100 vertices exist");
            let edges = graph.edges().to_vec();
            let body = qaoa_request_line(
                100,
                &edges,
                &[FRAC_PI_2],
                &[FRAC_PI_2],
                None,
                None,
                None,
                None,
                true,
            );
            Input {
                family,
                workload: Workload::qaoa_round(100, edges, FRAC_PI_2, FRAC_PI_2),
                body,
            }
        }
        Family::Qsim => {
            let config = PauliWorkloadConfig::paper(100, 0.1, rng.next_u64());
            let strings: Vec<PauliString> = random_pauli_strings(&config);
            let text: Vec<String> = strings.iter().map(ToString::to_string).collect();
            let body = qsim_request_line(&text, FRAC_PI_2, None, None, None, true);
            Input {
                family,
                workload: Workload::pauli_strings(strings, FRAC_PI_2),
                body,
            }
        }
        Family::Qec => {
            // The request carries no qubit labels, so it gets a seeded
            // round count, and `π/2 + 2πk` for the k-th QEC input: the same
            // rotation up to global phase (same routing work and depth as
            // θ = π/2), which keeps a cold run's QEC inputs distinct
            // without growing the schedules.
            let distance = [3, 5, 7][(ordinal % 3) as usize];
            let rounds = 1 + rng.below(2) as u32;
            let theta = FRAC_PI_2 + TAU * ordinal as f64;
            Input {
                family,
                workload: Workload::surface_code(distance, rounds, theta),
                body: qec_request_line(distance, rounds, theta, None, None, None, true),
            }
        }
        Family::Qft => {
            let n = width(&mut rng);
            generic(family, relabelled(&qft(n), &mut rng))
        }
        Family::Vqe => {
            let n = width(&mut rng);
            generic(family, vqe_ansatz(n, 2, rng.next_u64()))
        }
        Family::Ghz => {
            let n = width(&mut rng);
            generic(family, relabelled(&ghz(n), &mut rng))
        }
        Family::Random => unreachable!("the structured mix has no random circuits"),
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use qpilot_core::compile::fingerprint;
    use qpilot_service::protocol::{parse_request, Request};
    use qpilot_sim::stabilizer::clifford_equivalent;

    use super::*;

    fn key(input: &Input) -> String {
        let config = input.workload.config(None);
        fingerprint(&input.workload, None, &config).to_string()
    }

    #[test]
    fn inputs_are_deterministic_in_the_seed() {
        for index in [0, 1, 17, 250] {
            assert_eq!(cold_random(3, index).body, cold_random(3, index).body);
            assert_eq!(structured(3, index).body, structured(3, index).body);
            assert_ne!(cold_random(3, index).body, cold_random(4, index).body);
        }
        for k in 0..4 {
            assert_eq!(warm(9, k).body, warm(9, k).body);
        }
        for kind in Kind::ALL {
            let lines = Lines::new(kind, 3, 5);
            assert_eq!(lines.pooled(), 5);
            // Pooled (0, 4) and built-as-sent (5, 6) lines alike.
            for index in [0, 4, 5, 6] {
                let expected = format!("{}\n", kind.input(3, index).line(&kind.request_id(index)));
                assert_eq!(&*lines.line(index), expected.as_bytes());
            }
        }
        let blocks = |seed| {
            (0..64)
                .map(|i| structured(seed, i).body)
                .collect::<Vec<_>>()
        };
        assert_ne!(blocks(DEFAULT_SEED), blocks(HOLDOUT_SEED));
    }

    #[test]
    fn cold_inputs_are_distinct_within_a_run() {
        let random: HashSet<String> = (0..400)
            .map(|i| key(&cold_random(DEFAULT_SEED, i)))
            .collect();
        assert_eq!(random.len(), 400);
        let structured: HashSet<String> = (0..4000)
            .map(|i| key(&structured(DEFAULT_SEED, i)))
            .collect();
        assert_eq!(structured.len(), 4000);
    }

    #[test]
    fn the_mix_keeps_every_share_in_every_block() {
        for block in 0..8 {
            let mut counts = std::collections::BTreeMap::new();
            for i in block * 16..(block + 1) * 16 {
                *counts
                    .entry(structured_slot(HOLDOUT_SEED, i).0)
                    .or_insert(0) += 1;
            }
            assert_eq!(counts[&Family::Qaoa], 9);
            assert_eq!(counts[&Family::Qsim], 1);
            assert_eq!(counts[&Family::Qec], 2);
            assert_eq!(counts[&Family::Qft], 1);
            assert_eq!(counts[&Family::Vqe], 2);
            assert_eq!(counts[&Family::Ghz], 1);
        }
        // Ordinals count each family's inputs in index order.
        let qec: Vec<u64> = (0..64)
            .map(|i| structured_slot(5, i))
            .filter(|(f, _)| *f == Family::Qec)
            .map(|(_, k)| k)
            .collect();
        assert_eq!(qec, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn request_lines_encode_the_generated_workload() {
        let inputs = (0..48)
            .map(|i| structured(DEFAULT_SEED, i))
            .chain((0..2).map(|i| cold_random(DEFAULT_SEED, i)));
        for input in inputs {
            let line = input.line(&Kind::ColdRandom.request_id(7));
            assert_eq!(index_of("c7"), Some(7));
            match parse_request(&line).unwrap() {
                Request::Compile {
                    request,
                    include_schedule,
                } => {
                    assert!(include_schedule);
                    assert_eq!(request.workload, input.workload, "{:?}", input.family);
                    assert_eq!(request.request_id.as_deref(), Some("c7"));
                }
                other => panic!("not a compile request: {other:?}"),
            }
        }
    }

    #[test]
    fn clifford_families_are_clifford() {
        let inputs = (0..64)
            .map(|i| structured(DEFAULT_SEED, i))
            .chain((0..2).map(|i| cold_random(DEFAULT_SEED, i)))
            .chain((0..2).map(|k| warm(DEFAULT_SEED, k)));
        let mut seen = HashSet::new();
        for input in inputs {
            seen.insert(input.family);
            let reference = input.reference();
            let clifford = clifford_equivalent(&reference, &reference).is_ok();
            assert_eq!(clifford, input.family.is_clifford(), "{:?}", input.family);
        }
        assert_eq!(seen.len(), Family::ALL.len(), "every family drawn");
    }

    #[test]
    fn random_circuits_have_the_paper_shape() {
        let c = cold_random(DEFAULT_SEED, 0);
        let Workload::Generic(circuit) = &c.workload else {
            panic!("random inputs are circuits")
        };
        assert_eq!(circuit.num_qubits(), 100);
        assert_eq!(circuit.two_qubit_count(), 1000);
        assert_eq!(circuit.single_qubit_count(), 1000);
    }
}
