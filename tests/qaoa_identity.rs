//! QAOA byte-identity suite.
//!
//! The anchor-search optimisations (first-row memoisation, dominance
//! pruning, lazily built candidates) are pure speedups: the stage argmax
//! must pick the same candidate it always picked, so the serialised
//! `qpilot.schedule/v1` bytes are pinned against goldens frozen from the
//! pre-optimisation router.

use qpilot_core::qaoa::{QaoaRouter, QaoaRouterOptions};
use qpilot_core::{wire, FpqaConfig};
use qpilot_workloads::graphs::random_regular;

/// FNV-1a 64-bit over the canonical schedule JSON: enough to pin byte
/// identity without committing multi-hundred-KB golden blobs.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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
