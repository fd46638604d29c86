//! QAOA byte-identity suite.
//!
//! The anchor-search optimisations (first-row memoisation, dominance
//! pruning, lazily built candidates, the column-extension pair filter,
//! edge-id sets) are pure speedups: the stage argmax must pick the same
//! candidate it always picked, so the serialised `qpilot.schedule/v1`
//! bytes are pinned against goldens frozen from the pre-optimisation
//! router.

use qpilot_core::qaoa::{QaoaRouter, QaoaRouterOptions};
use qpilot_core::{wire, FpqaConfig};
use qpilot_workloads::graphs::{erdos_renyi, random_regular};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a running FNV-1a 64-bit hash.
fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a 64-bit over the canonical schedule JSON: enough to pin byte
/// identity without committing multi-hundred-KB golden blobs.
fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// Routes the benchmark workload (`random_regular(n, 3, 4)`, γ = 0.7,
/// square array) and returns the canonical wire bytes.
fn route_bytes(n: u32, options: QaoaRouterOptions) -> String {
    let graph = random_regular(n, 3, 4).expect("regular graph");
    let config = FpqaConfig::square_for(n);
    let program = QaoaRouter::with_options(options)
        .route_edges(n, graph.edges(), 0.7, &config)
        .expect("qaoa routes");
    wire::schedule_to_json(program.schedule())
}

/// Goldens frozen from the router *before* the anchor-search rework
/// (memoisation, pruning, bitsets, bucket-restricted sweeps): `(n,
/// fnv1a-64 of the schedule JSON, byte length)`. Any search change that
/// shifts a single stage choice moves both numbers.
const GOLDENS: [(u32, u64, usize); 3] = [
    (20, 0xdd23248a037420b8, 5543),
    (60, 0x9aa2ff856d80a500, 16770),
    (100, 0xff0ba15b7afa3253, 28806),
];

#[test]
fn schedules_match_pre_optimisation_goldens() {
    for (n, hash, len) in GOLDENS {
        let bytes = route_bytes(n, QaoaRouterOptions::default());
        assert_eq!(bytes.len(), len, "schedule length drifted at n={n}");
        assert_eq!(
            fnv1a(bytes.as_bytes()),
            hash,
            "schedule bytes drifted at n={n}"
        );
    }
}

#[test]
fn goldens_pin_default_options() {
    // The goldens certify the *default* search configuration; if a knob
    // default changes, the goldens must be deliberately re-frozen.
    let defaults = QaoaRouterOptions::default();
    assert_eq!(defaults.anchor_candidates, 8);
    assert!(defaults.column_extension);
}

fn regular(n: u32, degree: u32, seed: u64) -> Vec<(u32, u32)> {
    random_regular(n, degree, seed)
        .expect("regular graph")
        .edges()
        .to_vec()
}

/// One cost layer at γ = 0.7 as canonical wire bytes.
fn layer_bytes(
    n: u32,
    edges: &[(u32, u32)],
    config: &FpqaConfig,
    options: QaoaRouterOptions,
) -> String {
    let program = QaoaRouter::with_options(options)
        .route_edges(n, edges, 0.7, config)
        .expect("qaoa routes");
    wire::schedule_to_json(program.schedule())
}

/// The routes of one group, each as canonical wire bytes.
fn group_schedules(group: &str) -> Vec<String> {
    let defaults = QaoaRouterOptions::default();
    match group {
        // Square arrays whose last row is partly empty.
        "partial-rows" => [23u32, 37, 61]
            .into_iter()
            .map(|n| layer_bytes(n, &regular(n, 4, 7), &FpqaConfig::square_for(n), defaults))
            .collect(),
        // Narrow and wide arrays: 25 columns make 625 column pairs.
        "column-counts" => [3usize, 7, 25]
            .into_iter()
            .map(|cols| {
                let config = FpqaConfig::for_qubits(46, cols);
                layer_bytes(46, &regular(46, 3, 5), &config, defaults)
            })
            .collect(),
        // Dense graphs: many proposals per column pair.
        "erdos-renyi" => [(60u32, 0.3, 11u64), (36, 0.6, 12)]
            .into_iter()
            .map(|(n, p, seed)| {
                let graph = erdos_renyi(n, p, seed);
                layer_bytes(n, graph.edges(), &FpqaConfig::square_for(n), defaults)
            })
            .collect(),
        // The two search knobs the wire exposes (`anchors`,
        // `column_extension`).
        "options" => [(1usize, true), (32, true), (8, false)]
            .into_iter()
            .map(|(anchor_candidates, column_extension)| {
                let options = QaoaRouterOptions {
                    anchor_candidates,
                    column_extension,
                };
                layer_bytes(60, &regular(60, 3, 4), &FpqaConfig::square_for(60), options)
            })
            .collect(),
        // A depth-2 program: the search runs once per cost layer.
        "two-rounds" => {
            let program = QaoaRouter::new()
                .route_qaoa_rounds(
                    50,
                    &regular(50, 3, 9),
                    &[0.7, 0.4],
                    &[0.3, 0.2],
                    &FpqaConfig::square_for(50),
                )
                .expect("qaoa routes");
            vec![wire::schedule_to_json(program.schedule())]
        }
        other => panic!("unknown group {other}"),
    }
}

/// Goldens frozen from the router before the pair filter and edge-id
/// sets: `(group, fnv1a-64 over the group's schedules in order, total
/// byte length)`.
const GROUP_GOLDENS: [(&str, u64, usize); 5] = [
    ("partial-rows", 0x30df2704560ac756, 38657),
    ("column-counts", 0x4bfef63a6b53d6a9, 36768),
    ("erdos-renyi", 0x7b8b2d0bf27331cc, 76310),
    ("options", 0x2c919af525c2ab77, 50419),
    ("two-rounds", 0x1225f6923064835d, 30025),
];

#[test]
fn search_shapes_match_pre_filter_goldens() {
    // Every group is routed before any assertion, so one failing run
    // names every drifted group with its new digest.
    let mut drifted = Vec::new();
    for (group, hash, len) in GROUP_GOLDENS {
        let schedules = group_schedules(group);
        let total: usize = schedules.iter().map(String::len).sum();
        let digest = schedules
            .iter()
            .fold(FNV_OFFSET, |h, s| fnv1a_extend(h, s.as_bytes()));
        if (digest, total) != (hash, len) {
            drifted.push(format!("(\"{group}\", {digest:#018x}, {total})"));
        }
    }
    assert!(drifted.is_empty(), "schedule bytes drifted: {drifted:?}");
}
