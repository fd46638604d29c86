//! Differential suite for the unified compile pipeline
//! (`qpilot_core::compile`): the `Compiler` must produce **byte-identical**
//! wire schedules to calling the routers directly, and the
//! `qpilot.compile/v2` fingerprint domain must not shift under API
//! refactors — the golden constants below were captured from the
//! pre-redesign service implementation, and every content-addressed
//! schedule cache (in-memory and on-disk) keys on them.
//!
//! This file is the sanctioned home of direct `GenericRouter::route` /
//! `route_strings` / `route_edges` / `route_rounds` calls outside
//! `qpilot-core` itself: they are the reference side of the
//! differential assertions.

use qpilot::circuit::{Circuit, PauliString};
use qpilot::core::compile::{
    compile, CompileOptions, Compiler, QaoaOptions, QecOptions, RouterOptions, Workload,
};
use qpilot::core::generic::{GenericRouter, GenericRouterOptions};
use qpilot::core::qaoa::{QaoaRouter, QaoaRouterOptions};
use qpilot::core::qec::QecRouter;
use qpilot::core::qsim::{QsimRouter, QsimRouterOptions};
use qpilot::core::wire::schedule_to_json;
use qpilot::core::FpqaConfig;
use qpilot::service::CompileRequest;
use qpilot::workloads::families;
use qpilot::workloads::pauli::{random_pauli_strings, PauliWorkloadConfig};
use qpilot::workloads::random::{random_circuit, RandomCircuitConfig};

fn golden_circuit() -> Circuit {
    let mut c = Circuit::new(4);
    c.h(0).cz(0, 1).cz(2, 3).cz(1, 2).rz(3, 0.25);
    c
}

fn golden_strings() -> Vec<PauliString> {
    vec!["ZZIZ".parse().unwrap(), "IXXI".parse().unwrap()]
}

fn golden_edges() -> Vec<(u32, u32)> {
    vec![(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
}

// ---------------------------------------------------------------------
// Differential: pipeline output is byte-identical to direct router calls
// ---------------------------------------------------------------------

#[test]
fn generic_pipeline_matches_direct_router_bytes() {
    let circuit = golden_circuit();
    let cfg = FpqaConfig::square_for(4);
    for stage_cap in [None, Some(2), Some(1)] {
        let options = GenericRouterOptions { stage_cap };
        let direct = GenericRouter::with_options(options)
            .route(&circuit, &cfg)
            .unwrap();
        let piped = Compiler::with_options(CompileOptions::new().router_options(options))
            .compile(&Workload::circuit(circuit.clone()), &cfg)
            .unwrap()
            .into_program();
        assert_eq!(
            schedule_to_json(piped.schedule()),
            schedule_to_json(direct.schedule()),
            "stage_cap {stage_cap:?}"
        );
        assert_eq!(piped.stats(), direct.stats());
    }
}

#[test]
fn qsim_pipeline_matches_direct_router_bytes() {
    let strings = golden_strings();
    let cfg = FpqaConfig::square_for(4);
    for max_copies in [None, Some(1)] {
        let options = QsimRouterOptions { max_copies };
        let direct = QsimRouter::with_options(options)
            .route_strings(&strings, 0.5, &cfg)
            .unwrap();
        let piped = Compiler::with_options(CompileOptions::new().router_options(options))
            .compile(&Workload::pauli_strings(strings.clone(), 0.5), &cfg)
            .unwrap()
            .into_program();
        assert_eq!(
            schedule_to_json(piped.schedule()),
            schedule_to_json(direct.schedule()),
            "max_copies {max_copies:?}"
        );
    }
    // Weighted (per-string angle) form.
    let weighted: Vec<(PauliString, f64)> = strings.iter().cloned().zip([0.25, -0.5]).collect();
    let direct = QsimRouter::new().route_weighted(&weighted, &cfg).unwrap();
    let piped = compile(&Workload::weighted_paulis(weighted), &cfg).unwrap();
    assert_eq!(
        schedule_to_json(piped.schedule()),
        schedule_to_json(direct.schedule())
    );
}

#[test]
fn qaoa_pipeline_matches_direct_router_bytes() {
    let edges = golden_edges();
    let cfg = FpqaConfig::square_for(5);
    // Bare cost layer == route_edges.
    let direct = QaoaRouter::new().route_edges(5, &edges, 0.7, &cfg).unwrap();
    let piped = compile(&Workload::qaoa_cost_layer(5, edges.clone(), 0.7), &cfg).unwrap();
    assert_eq!(
        schedule_to_json(piped.schedule()),
        schedule_to_json(direct.schedule())
    );
    // Full round == route_qaoa_rounds (depth 1).
    let direct = QaoaRouter::new()
        .route_qaoa_rounds(5, &edges, &[0.7], &[0.3], &cfg)
        .unwrap();
    let piped = compile(&Workload::qaoa_round(5, edges.clone(), 0.7, 0.3), &cfg).unwrap();
    assert_eq!(
        schedule_to_json(piped.schedule()),
        schedule_to_json(direct.schedule())
    );
    // Non-default options through the typed enum.
    let router_options = QaoaRouterOptions {
        anchor_candidates: 1,
        column_extension: false,
    };
    let direct = QaoaRouter::with_options(router_options)
        .route_edges(5, &edges, 0.7, &cfg)
        .unwrap();
    let piped = Compiler::with_options(CompileOptions::new().router_options(router_options))
        .compile(&Workload::qaoa_cost_layer(5, edges.clone(), 0.7), &cfg)
        .unwrap()
        .into_program();
    assert_eq!(
        schedule_to_json(piped.schedule()),
        schedule_to_json(direct.schedule())
    );
}

#[test]
fn qec_pipeline_matches_direct_router_bytes() {
    let workload = Workload::surface_code(3, 2, 0.4);
    let Workload::Qec(qec) = &workload else {
        unreachable!("surface_code builds a qec workload")
    };
    let cfg = workload.config(None);
    for parallel_waves in [None, Some(false), Some(true)] {
        let options = QecOptions { parallel_waves };
        let direct = QecRouter::with_options(options.resolve())
            .route_rounds(qec, &cfg)
            .unwrap();
        let piped = Compiler::with_options(CompileOptions::new().router_options(options))
            .compile(&workload, &cfg)
            .unwrap()
            .into_program();
        assert_eq!(
            schedule_to_json(piped.schedule()),
            schedule_to_json(direct.schedule()),
            "parallel_waves {parallel_waves:?}"
        );
        assert_eq!(piped.stats(), direct.stats());
    }
}

// ---------------------------------------------------------------------
// Fingerprint stability: cache keys must not shift under the redesign
// ---------------------------------------------------------------------

/// Golden `qpilot.compile/v2` fingerprints captured from the
/// pre-redesign `qpilot-service` implementation (PR 4). A mismatch here
/// means every schedule cache and persistent store on disk silently goes
/// cold — bump the domain string instead if the encoding must change.
#[test]
fn fingerprints_match_pre_redesign_goldens() {
    let plain = CompileRequest::new(golden_circuit());
    let capped = CompileRequest {
        cols: Some(2),
        ..CompileRequest::new(golden_circuit())
            .with_options(GenericRouterOptions { stage_cap: Some(2) })
    };
    let qsim = CompileRequest::qsim(golden_strings(), 0.5);
    let qsim_capped = qsim.clone().with_options(QsimRouterOptions {
        max_copies: Some(2),
    });
    let qaoa_round = CompileRequest::qaoa_round(5, golden_edges(), 0.7, 0.3);
    let qaoa_bare =
        CompileRequest::from_workload(Workload::qaoa_cost_layer(5, golden_edges(), 0.4))
            .with_options(QaoaOptions {
                anchor_candidates: Some(2),
                column_extension: Some(false),
            });
    for (request, golden) in [
        (&plain, "bffd2cd0c4cfed1d84d7559bfd1402f8"),
        (&capped, "29cac6da67a5714acf6d76a48551570a"),
        (&qsim, "20e491509023073be266eb7e4024bdf7"),
        (&qsim_capped, "fdd4e7bc1c7e042a7ea4c7481f601c35"),
        (&qaoa_round, "882a616952aeeccebbadca98f102bf92"),
        (&qaoa_bare, "0f2cfccdad30cf7b1ac6dd5d8f939c1c"),
    ] {
        assert_eq!(
            request.fingerprint().to_string(),
            golden,
            "cache key shifted for {:?} request",
            request.router()
        );
    }
}

#[test]
fn core_fingerprint_agrees_with_service_requests() {
    let request = CompileRequest::qsim(golden_strings(), 0.5).with_options(QsimRouterOptions {
        max_copies: Some(3),
    });
    let direct = qpilot::core::compile::fingerprint(
        &request.workload,
        request.options.as_ref(),
        &request.config(),
    );
    assert_eq!(request.fingerprint(), direct);
}

#[test]
fn absent_options_hash_like_default_option_structs() {
    // The protocol omits the options object when no option field is on
    // the wire; both forms must resolve to the same cache key.
    let bare = CompileRequest::new(golden_circuit());
    let explicit = CompileRequest::new(golden_circuit())
        .with_options(GenericRouterOptions { stage_cap: None });
    assert_eq!(bare.fingerprint(), explicit.fingerprint());
    let bare = CompileRequest::qaoa_round(5, golden_edges(), 0.7, 0.3);
    let explicit = bare.clone().with_options(QaoaOptions::default());
    assert_eq!(bare.fingerprint(), explicit.fingerprint());
}

#[test]
fn options_enum_keeps_families_disjoint() {
    // Same logical "cap = 2" knob on different routers must never
    // produce the same key for the same architecture shape.
    let qsim =
        CompileRequest::qsim(vec!["ZZZZ".parse().unwrap()], 0.5).with_options(QsimRouterOptions {
            max_copies: Some(2),
        });
    let generic = CompileRequest::new({
        let mut c = Circuit::new(4);
        c.zz(0, 1, 0.5);
        c
    })
    .with_options(GenericRouterOptions { stage_cap: Some(2) });
    assert_ne!(qsim.fingerprint(), generic.fingerprint());
    assert_ne!(
        RouterOptions::from(QsimRouterOptions {
            max_copies: Some(2)
        })
        .tag(),
        RouterOptions::from(GenericRouterOptions { stage_cap: Some(2) }).tag(),
    );
}

// ---------------------------------------------------------------------
// Wire-byte goldens at the paper's size: generic and qsim schedules
// ---------------------------------------------------------------------

/// FNV-1a 64-bit over the canonical schedule JSON (the hash
/// `tests/qaoa_identity.rs` pins the QAOA bytes with).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The canonical schedules of the paper's 100-qubit random circuits
/// (factor 10), the 32-qubit QFT (whose `Rz` angles are many distinct
/// floats), and 100 random Pauli strings over 100 qubits at θ = 0.5 are
/// pinned as `(name, fnv1a-64, byte length)`. The goldens were captured
/// before the writer learned to format numbers in place; any change to
/// the writer or to a router that moves one byte moves both numbers.
#[test]
fn generic_and_qsim_wire_bytes_match_goldens() {
    let random =
        |seed| Workload::circuit(random_circuit(&RandomCircuitConfig::paper(100, 10, seed)));
    let pauli = random_pauli_strings(&PauliWorkloadConfig::paper(100, 0.1, 1));
    let goldens = [
        ("random-100q-seed1", random(1), 0x07128b17f106ac82, 551223),
        ("random-100q-seed2", random(2), 0xb20b35f7e05172a8, 552222),
        (
            "qft-32",
            Workload::circuit(families::qft(32)),
            0xf62fb17f5cc292e9,
            251661,
        ),
        (
            "qsim-100q-p0.1",
            Workload::pauli_strings(pauli, 0.5),
            0xf616a8e7b2f57ed6,
            538791,
        ),
    ];
    for (name, workload, hash, len) in goldens {
        let program = Compiler::new()
            .compile(&workload, &workload.config(None))
            .expect("workload compiles")
            .into_program();
        let bytes = schedule_to_json(program.schedule());
        assert_eq!(bytes.len(), len, "schedule length drifted for {name}");
        assert_eq!(
            fnv1a(bytes.as_bytes()),
            hash,
            "schedule bytes drifted for {name}"
        );
    }
}
