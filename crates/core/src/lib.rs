//! The Q-Pilot compiler core: routing quantum circuits onto a field
//! programmable qubit array (FPQA) with **flying ancillas**.
//!
//! Data qubits are pinned to fixed SLM traps in reading order; every
//! two-qubit interaction is mediated by a movable AOD ancilla that copies a
//! data qubit's Z-basis state (one CNOT), flies next to the partner qubit,
//! interacts under a global Rydberg pulse, and is recycled (one more CNOT).
//! §2.2 of the paper proves this preserves any diagonal two-qubit gate
//! (CZ / ZZ); `qpilot-sim` re-proves it numerically for every router in this
//! crate's test-suite.
//!
//! The front door is [`compile`](mod@crate::compile): a [`Workload`] names
//! what to compile (circuit / Pauli strings / QAOA graph / surface code),
//! a [`Compiler`] routes it on its family's router and runs the optional
//! validate/lower stages, and [`CompileError`] unifies every failure
//! mode. Four routers are provided, three mirroring the paper:
//!
//! * [`generic::GenericRouter`] — Alg. 1: greedy maximum legal subsets of
//!   the dependency front layer, one flying ancilla per routed CZ,
//! * [`qsim::QsimRouter`] — Alg. 2: per-Pauli-string root fan-out plus
//!   longest-path chain absorption,
//! * [`qaoa::QaoaRouter`] — Alg. 3: one persistent ancilla per qubit and
//!   stage-wise row/column matching for ZZ edges,
//! * [`qec::QecRouter`] — the outlook's QEC domain: surface-code
//!   syndrome extraction with one flying ancilla per stabiliser check,
//!   scheduled as parallel ancilla waves with mirrored uncomputation.
//!
//! Every router emits a hardware-level [`Schedule`] (moves, atom transfers,
//! Raman 1Q layers, Rydberg pulses) that can be
//!
//! * [validated](validate) against the geometric rules (AOD order
//!   preservation, no unintended Rydberg couplings),
//! * [lowered](Schedule::to_circuit) to a plain circuit over
//!   data ⊗ ancilla qubits for simulation,
//! * [evaluated](evaluator) for depth, gate counts, movement statistics,
//!   execution-time breakdown and the paper's Eq. 5 fidelity model.
//!
//! Beyond the paper's heuristics, [`mapper`] adds the outlook's
//! search-based qubit mapping (router-in-the-loop hill climbing) and
//! [`dse`] the Fig. 14 array-width exploration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
pub mod compile;
mod config;
pub mod dse;
mod error;
pub mod evaluator;
pub mod generic;
pub mod generic_reference;
pub mod json;
pub mod legality;
pub mod lower;
pub mod mapper;
mod motion;
pub mod obs;
pub mod par;
pub mod qaoa;
pub mod qec;
pub mod qsim;
pub mod render;
mod schedule;
pub mod validate;
pub mod wire;

pub use cancel::CancelToken;
pub use compile::{
    compile, CompileError, CompileOptions, CompileOutput, Compiler, QaoaOptions, QaoaWorkload,
    QecOptions, QecWorkload, RouterOptions, RouterTag, Workload,
};
pub use config::FpqaConfig;
pub use error::RouteError;
pub use schedule::{
    AncillaId, AtomRef, CompiledProgram, RydbergKind, RydbergOp, Schedule, ScheduleBuilder,
    ScheduleStats, StageRef, TransferOp,
};
