//! Property tests for the `qpilot.schedule/v1` wire format over the
//! arena-pooled IR: round-trip identity (value- and byte-level) over both
//! synthetic schedules covering every stage/op/atom/kind combination and
//! real router-produced schedules, plus byte-identity of the arena
//! serialiser against the frozen pre-arena writer in `generic_reference`
//! and the validator's pool-integrity invariant. Part of every float is
//! drawn from a small pool, so the writer's repeated-value path is
//! covered too.

use std::ops::Range;

use proptest::prelude::*;

use qpilot_circuit::{Circuit, Gate, Qubit};
use qpilot_core::generic::GenericRouter;
use qpilot_core::generic_reference::{LegacySchedule, LegacyStage};
use qpilot_core::wire::{schedule_from_json, schedule_to_json};
use qpilot_core::{
    AncillaId, AtomRef, FpqaConfig, RydbergKind, RydbergOp, Schedule, ScheduleBuilder, TransferOp,
};

const N: u32 = 6;

/// An owned stage description: the test-side value from which both the
/// arena schedule (via `ScheduleBuilder`) and the frozen legacy layout
/// are built.
#[derive(Debug, Clone)]
enum OwnedStage {
    Raman(Vec<Gate>),
    Transfer(Vec<TransferOp>),
    Move { row_y: Vec<f64>, col_x: Vec<f64> },
    Rydberg(Vec<RydbergOp>),
}

/// Floats a schedule draws again and again, both zeros among them.
const REPEATED_FLOATS: [f64; 6] = [0.0, -0.0, 0.5, -2.25, 10.0, 1e-7];

/// A float from `range` or, as often, from [`REPEATED_FLOATS`], so that
/// schedules repeat values and the writer copies their text rather than
/// formatting it again.
fn arb_f64(range: Range<f64>) -> impl Strategy<Value = f64> {
    prop_oneof![
        range,
        (0..REPEATED_FLOATS.len()).prop_map(|i| REPEATED_FLOATS[i]),
    ]
}

fn arb_atom() -> impl Strategy<Value = AtomRef> {
    prop_oneof![
        (0..N).prop_map(AtomRef::Data),
        (0..4u32).prop_map(|a| AtomRef::Ancilla(AncillaId(a))),
    ]
}

fn arb_kind() -> impl Strategy<Value = RydbergKind> {
    prop_oneof![
        Just(RydbergKind::Cz),
        prop_oneof![Just(true), Just(false)].prop_map(|target_b| RydbergKind::CxInto { target_b }),
        arb_f64(-3.2..3.2).prop_map(RydbergKind::Zz),
    ]
}

fn arb_raman_gate() -> impl Strategy<Value = Gate> {
    let q = 0..N + 4;
    prop_oneof![
        q.clone().prop_map(|a| Gate::H(Qubit::new(a))),
        q.clone().prop_map(|a| Gate::X(Qubit::new(a))),
        q.clone().prop_map(|a| Gate::Sdg(Qubit::new(a))),
        (q.clone(), arb_f64(-3.2..3.2)).prop_map(|(a, t)| Gate::Rz(Qubit::new(a), t)),
        (q, arb_f64(-3.2..3.2)).prop_map(|(a, t)| Gate::Ry(Qubit::new(a), t)),
    ]
}

fn arb_stage() -> impl Strategy<Value = OwnedStage> {
    prop_oneof![
        prop::collection::vec(arb_raman_gate(), 0..6).prop_map(OwnedStage::Raman),
        prop::collection::vec(
            (
                (0..4u32),
                (0usize..5),
                (0usize..5),
                prop_oneof![Just(true), Just(false)]
            ),
            0..5
        )
        .prop_map(|ops| {
            OwnedStage::Transfer(
                ops.into_iter()
                    .map(|(a, row, col, load)| TransferOp {
                        ancilla: AncillaId(a),
                        row,
                        col,
                        load,
                    })
                    .collect(),
            )
        }),
        (
            prop::collection::vec(arb_f64(-50.0..50.0), 0..5),
            prop::collection::vec(arb_f64(-50.0..50.0), 0..5)
        )
            .prop_map(|(row_y, col_x)| OwnedStage::Move { row_y, col_x }),
        prop::collection::vec((arb_atom(), arb_atom(), arb_kind()), 0..5).prop_map(|ops| {
            OwnedStage::Rydberg(
                ops.into_iter()
                    .map(|(a, b, kind)| RydbergOp { a, b, kind })
                    .collect(),
            )
        }),
    ]
}

type OwnedScheduleParts = (Vec<OwnedStage>, u32, usize, usize);

fn arb_schedule_parts() -> impl Strategy<Value = OwnedScheduleParts> {
    (
        prop::collection::vec(arb_stage(), 0..12),
        0u32..5,
        1usize..5,
        1usize..5,
    )
}

fn build_arena(parts: &OwnedScheduleParts) -> Schedule {
    let (stages, ancillas, rows, cols) = parts;
    let mut b = ScheduleBuilder::new(N, *rows, *cols);
    b.set_num_ancillas(*ancillas);
    for stage in stages {
        match stage {
            OwnedStage::Raman(gates) => {
                b.raman(gates.iter().copied());
            }
            OwnedStage::Transfer(ops) => {
                b.transfer(ops.iter().copied());
            }
            OwnedStage::Move { row_y, col_x } => {
                b.move_stage(row_y, col_x);
            }
            OwnedStage::Rydberg(ops) => {
                b.rydberg(ops.iter().copied());
            }
        }
    }
    b.finish()
}

fn build_legacy(parts: &OwnedScheduleParts) -> LegacySchedule {
    let (stages, ancillas, rows, cols) = parts;
    LegacySchedule {
        num_data: N,
        num_ancillas: *ancillas,
        aod_rows: *rows,
        aod_cols: *cols,
        stages: stages
            .iter()
            .map(|stage| match stage {
                OwnedStage::Raman(gates) => LegacyStage::Raman(gates.as_slice().into()),
                OwnedStage::Transfer(ops) => LegacyStage::Transfer(ops.clone()),
                OwnedStage::Move { row_y, col_x } => LegacyStage::Move {
                    row_y: row_y.clone(),
                    col_x: col_x.clone(),
                },
                OwnedStage::Rydberg(ops) => LegacyStage::Rydberg(ops.clone()),
            })
            .collect(),
    }
}

fn arb_cz_circuit() -> impl Strategy<Value = Circuit> {
    prop::collection::vec((0..N, 0..N - 1), 1..25).prop_map(|pairs| {
        let mut c = Circuit::new(N);
        for (a, b) in pairs {
            let b = if b >= a { b + 1 } else { b };
            c.cz(a, b);
        }
        c
    })
}

proptest! {
    /// `parse ∘ serialize` is the identity on schedules.
    #[test]
    fn schedule_round_trip_is_identity(parts in arb_schedule_parts()) {
        let s = build_arena(&parts);
        let json = schedule_to_json(&s);
        let back = schedule_from_json(&json).expect("round trip parses");
        prop_assert_eq!(back, s);
    }

    /// `serialize ∘ parse` is the identity on serialised bytes (canonical
    /// form), compared through the existing render path.
    #[test]
    fn schedule_serialisation_is_canonical(parts in arb_schedule_parts()) {
        let s = build_arena(&parts);
        let once = schedule_to_json(&s);
        let twice = schedule_to_json(&schedule_from_json(&once).expect("parses"));
        prop_assert_eq!(once, twice);
    }

    /// The arena serialiser emits byte-for-byte the document the frozen
    /// pre-arena writer emits for the same logical stages: the wire
    /// format is a function of the stage sequence, not the storage
    /// layout.
    #[test]
    fn arena_encoding_matches_pre_arena_encoding(parts in arb_schedule_parts()) {
        let arena = build_arena(&parts);
        let legacy = build_legacy(&parts);
        prop_assert_eq!(schedule_to_json(&arena), legacy.to_json());
    }

    /// Builder-produced and wire-parsed schedules always satisfy the
    /// arena pool invariant (handles tile the pools exactly), including
    /// after a round trip.
    #[test]
    fn builder_and_parser_preserve_pool_integrity(parts in arb_schedule_parts()) {
        let s = build_arena(&parts);
        prop_assert!(s.check_pools().is_ok());
        let back = schedule_from_json(&schedule_to_json(&s)).expect("parses");
        prop_assert!(back.check_pools().is_ok());
    }

    /// Real router output round-trips too, and the parsed schedule renders
    /// (Display) identically to the original — the byte-level check the
    /// service's cache-identity guarantee rests on.
    #[test]
    fn routed_schedules_round_trip(c in arb_cz_circuit()) {
        let config = FpqaConfig::square_for(N);
        let program = GenericRouter::new().route(&c, &config).expect("routes");
        let json = schedule_to_json(program.schedule());
        let back = schedule_from_json(&json).expect("parses");
        prop_assert_eq!(&back, program.schedule());
        prop_assert_eq!(back.to_string(), program.schedule().to_string());
        prop_assert_eq!(back.stats(), program.schedule().stats());
    }

    /// Architecture fingerprinting: equal configs hash equal; any shape,
    /// grid or physical-parameter change hashes different.
    #[test]
    fn config_fingerprint_tracks_architecture(n in 2u32..40, cols in 1usize..8) {
        let fp = |config: &FpqaConfig| {
            let mut h = qpilot_circuit::StableHasher::new();
            config.fingerprint_into(&mut h);
            h.finish()
        };
        let base = FpqaConfig::for_qubits(n, cols);
        prop_assert_eq!(fp(&base), fp(&FpqaConfig::for_qubits(n, cols)));
        prop_assert_ne!(fp(&base), fp(&FpqaConfig::for_qubits(n + 1, cols)));
        prop_assert_ne!(fp(&base), fp(&FpqaConfig::for_qubits(n, cols + 1)));
        let bigger_aod = FpqaConfig::for_qubits(n, cols)
            .with_aod_grid(base.aod_rows() + 1, base.aod_cols());
        prop_assert_ne!(fp(&base), fp(&bigger_aod));
        let mut params = *base.params();
        params.fidelity_2q += 1e-6;
        let tweaked = FpqaConfig::for_qubits(n, cols).with_params(params);
        prop_assert_ne!(fp(&base), fp(&tweaked));
    }
}
