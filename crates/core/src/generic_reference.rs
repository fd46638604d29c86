//! The pre-optimisation generic router, preserved verbatim for A/B
//! benchmarking and differential testing.
//!
//! This is the pairwise implementation [`crate::generic`] shipped with
//! before the incremental legality engine landed: per stage it rebuilds
//! every temporary `Vec`, checks each candidate against the accepted
//! subset with a pairwise scan, and re-allocates the Raman Hadamard layer
//! for every pulse of the three-phase flow. It also carries frozen copies
//! of the pre-PR dependency-DAG and frontier (per-gate `Vec<Vec<_>>`
//! adjacency, a successor copy per executed gate), **and** of the
//! pre-arena schedule IR itself: [`LegacySchedule`] / [`LegacyStage`]
//! keep the per-stage `Vec` payload layout (one heap allocation per
//! payload) that the arena refactor removed from `qpilot_core::schedule`,
//! so the measured baseline is the *whole* pre-PR stack — algorithm and
//! allocation profile. `perf_report` (in `qpilot-bench`) routes the same
//! circuits through both paths and records the speedup in
//! `BENCH_routing.json`; the router test-suite and the property tests
//! assert the two produce **byte-identical serialised schedules**
//! ([`ReferenceProgram::to_json`] is the frozen `qpilot.schedule/v1`
//! writer over the legacy layout).
//!
//! Do not "fix" or optimise this module — its value is being frozen.

use std::sync::Arc;

use qpilot_circuit::{decompose, Circuit, Gate, Operands, Qubit};

use crate::error::RouteError;
use crate::generic::GenericRouterOptions;
use crate::json::fmt_f64;
use crate::legality::{axis_ranks, pair_compatible, GatePlacement};
use crate::motion::{axis_coords, park_col_base, park_row_base};
use crate::schedule::{AtomRef, RydbergKind, RydbergOp, ScheduleStats, TransferOp};
use crate::wire::{self, FloatTable};
use crate::FpqaConfig;

/// One stage in the frozen pre-arena layout: heap-owned payloads, one
/// allocation per stage (the Raman layer is shared via `Arc` exactly as
/// the pre-arena IR shared it).
#[derive(Debug, Clone, PartialEq)]
pub enum LegacyStage {
    /// Parallel 1Q gates.
    Raman(Arc<[Gate]>),
    /// Atom transfers.
    Transfer(Vec<TransferOp>),
    /// AOD reconfiguration.
    Move {
        /// New per-row y coordinates.
        row_y: Vec<f64>,
        /// New per-column x coordinates.
        col_x: Vec<f64>,
    },
    /// One global Rydberg pulse.
    Rydberg(Vec<RydbergOp>),
}

/// The frozen pre-arena schedule container.
#[derive(Debug, Clone, PartialEq)]
pub struct LegacySchedule {
    /// Number of data qubits.
    pub num_data: u32,
    /// Total distinct ancillas ever created.
    pub num_ancillas: u32,
    /// AOD grid rows.
    pub aod_rows: usize,
    /// AOD grid columns.
    pub aod_cols: usize,
    /// The stages in execution order, each owning its payload.
    pub stages: Vec<LegacyStage>,
}

impl LegacySchedule {
    fn new(num_data: u32, aod_rows: usize, aod_cols: usize) -> Self {
        LegacySchedule {
            num_data,
            num_ancillas: 0,
            aod_rows,
            aod_cols,
            stages: Vec::new(),
        }
    }

    fn fresh_ancilla(&mut self) -> crate::AncillaId {
        let id = crate::AncillaId(self.num_ancillas);
        self.num_ancillas += 1;
        id
    }

    fn ancilla_qubit(&self, a: crate::AncillaId) -> Qubit {
        Qubit::new(self.num_data + a.0)
    }

    fn push(&mut self, stage: LegacyStage) {
        self.stages.push(stage);
    }

    /// The frozen pre-arena stats pass (same accounting as
    /// `Schedule::stats`, over the legacy layout).
    pub fn stats(&self) -> ScheduleStats {
        let mut s = ScheduleStats::default();
        let mut loaded = 0usize;
        for stage in &self.stages {
            match stage {
                LegacyStage::Raman(gates) => s.one_qubit_gates += gates.len(),
                LegacyStage::Transfer(ops) => {
                    s.transfers += ops.len();
                    for op in ops {
                        if op.load {
                            loaded += 1;
                        } else {
                            loaded = loaded.saturating_sub(1);
                        }
                    }
                    s.peak_ancillas = s.peak_ancillas.max(loaded);
                }
                LegacyStage::Move { .. } => s.moves += 1,
                LegacyStage::Rydberg(ops) => {
                    s.two_qubit_depth += 1;
                    s.two_qubit_gates += ops.len();
                    s.one_qubit_gates += ops
                        .iter()
                        .filter(|o| matches!(o.kind, RydbergKind::CxInto { .. }))
                        .count()
                        * 2;
                }
            }
        }
        s
    }

    /// The frozen `qpilot.schedule/v1` writer over the legacy layout.
    ///
    /// Byte-for-byte the same document `wire::schedule_to_json` emits for
    /// the equivalent arena schedule — the differential suites compare
    /// the two strings directly, so neither layout can drift without
    /// tripping them.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.stages.len() * 48);
        out.push_str("{\"format\":\"");
        out.push_str(wire::SCHEDULE_FORMAT);
        out.push_str("\",\"num_data\":");
        out.push_str(&self.num_data.to_string());
        out.push_str(",\"num_ancillas\":");
        out.push_str(&self.num_ancillas.to_string());
        out.push_str(",\"aod_rows\":");
        out.push_str(&self.aod_rows.to_string());
        out.push_str(",\"aod_cols\":");
        out.push_str(&self.aod_cols.to_string());
        out.push_str(",\"stages\":[");
        let mut floats = FloatTable::default();
        for (i, stage) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_legacy_stage(&mut out, &mut floats, stage);
        }
        out.push_str("]}");
        out
    }
}

fn write_legacy_stage(out: &mut String, floats: &mut FloatTable, stage: &LegacyStage) {
    match stage {
        LegacyStage::Raman(gates) => {
            out.push_str("{\"kind\":\"raman\",\"gates\":[");
            for (i, g) in gates.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                wire::write_gate(out, floats, g);
            }
            out.push_str("]}");
        }
        LegacyStage::Transfer(ops) => {
            out.push_str("{\"kind\":\"transfer\",\"ops\":[");
            for (i, op) in ops.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('[');
                out.push_str(&op.ancilla.0.to_string());
                out.push(',');
                out.push_str(&op.row.to_string());
                out.push(',');
                out.push_str(&op.col.to_string());
                out.push(',');
                out.push_str(if op.load { "true" } else { "false" });
                out.push(']');
            }
            out.push_str("]}");
        }
        LegacyStage::Move { row_y, col_x } => {
            out.push_str("{\"kind\":\"move\",\"row_y\":[");
            for (i, y) in row_y.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&fmt_f64(*y));
            }
            out.push_str("],\"col_x\":[");
            for (i, x) in col_x.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&fmt_f64(*x));
            }
            out.push_str("]}");
        }
        LegacyStage::Rydberg(ops) => {
            out.push_str("{\"kind\":\"rydberg\",\"ops\":[");
            for (i, op) in ops.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('[');
                write_legacy_atom(out, op.a);
                out.push(',');
                write_legacy_atom(out, op.b);
                out.push(',');
                match op.kind {
                    RydbergKind::Cz => out.push_str("\"cz\""),
                    RydbergKind::CxInto { target_b } => {
                        out.push_str("[\"cx\",");
                        out.push_str(if target_b { "true" } else { "false" });
                        out.push(']');
                    }
                    RydbergKind::Zz(theta) => {
                        out.push_str("[\"zz\",");
                        out.push_str(&fmt_f64(theta));
                        out.push(']');
                    }
                }
                out.push(']');
            }
            out.push_str("]}");
        }
    }
}

fn write_legacy_atom(out: &mut String, atom: AtomRef) {
    match atom {
        AtomRef::Data(q) => {
            out.push_str("[\"d\",");
            out.push_str(&q.to_string());
            out.push(']');
        }
        AtomRef::Ancilla(a) => {
            out.push_str("[\"a\",");
            out.push_str(&a.0.to_string());
            out.push(']');
        }
    }
}

/// A compiled program in the frozen pre-arena representation.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceProgram {
    schedule: LegacySchedule,
    stats: ScheduleStats,
}

impl ReferenceProgram {
    fn new(schedule: LegacySchedule) -> Self {
        let stats = schedule.stats();
        ReferenceProgram { schedule, stats }
    }

    /// The legacy-layout schedule.
    pub fn schedule(&self) -> &LegacySchedule {
        &self.schedule
    }

    /// Cached statistics.
    pub fn stats(&self) -> ScheduleStats {
        self.stats
    }

    /// Serialises through the frozen writer (see
    /// [`LegacySchedule::to_json`]).
    pub fn to_json(&self) -> String {
        self.schedule.to_json()
    }
}

/// Routes `circuit` with the pre-PR pairwise algorithm on the pre-arena
/// IR.
///
/// # Errors
///
/// Same contract as `GenericRouter::route`.
pub fn route_reference(
    circuit: &Circuit,
    config: &FpqaConfig,
    options: GenericRouterOptions,
) -> Result<ReferenceProgram, RouteError> {
    if circuit.num_qubits() > config.num_data() {
        return Err(RouteError::TooManyQubits {
            required: circuit.num_qubits(),
            available: config.num_data(),
        });
    }
    let native = decompose::to_cz_basis(circuit);
    let cap_geom = config.aod_rows().min(config.aod_cols());
    if cap_geom == 0 && native.two_qubit_count() > 0 {
        return Err(RouteError::AodTooSmall {
            required: 1,
            available: 0,
        });
    }
    let cap = options
        .stage_cap
        .map(|c| c.min(cap_geom))
        .unwrap_or(cap_geom)
        .max(1);

    let mut schedule = LegacySchedule::new(config.num_data(), config.aod_rows(), config.aod_cols());
    let mut frontier = ReferenceFrontier::new(&native);
    let gates = native.gates();

    while !frontier.is_done() {
        // Drain ready 1Q gates onto the Raman laser.
        loop {
            let ready_1q: Vec<usize> = frontier
                .front_layer()
                .iter()
                .copied()
                .filter(|&id| gates[id].is_single_qubit())
                .collect();
            if ready_1q.is_empty() {
                break;
            }
            let layer: Vec<Gate> = ready_1q.iter().map(|&id| gates[id]).collect();
            schedule.push(LegacyStage::Raman(layer.into()));
            for id in ready_1q {
                frontier.execute(id);
            }
        }
        if frontier.is_done() {
            break;
        }

        // Select a maximal legal subset of the 2Q front layer.
        let mut candidates: Vec<usize> = frontier.front_layer().to_vec();
        candidates.sort_by_key(|&id| operand_key(&gates[id]));
        let placements: Vec<GatePlacement> = candidates
            .iter()
            .map(|&id| placement_of(&gates[id], config))
            .collect();
        let mut subset: Vec<usize> = Vec::new(); // indices into candidates
        for (i, cand) in placements.iter().enumerate() {
            if subset.len() >= cap {
                break;
            }
            if subset
                .iter()
                .all(|&j| pair_compatible(&placements[j], cand))
            {
                subset.push(i);
            }
        }
        debug_assert!(
            !subset.is_empty(),
            "front layer gate must be schedulable alone"
        );

        let staged: Vec<StagedGate> = subset
            .iter()
            .map(|&i| {
                let id = candidates[i];
                let (q1, q2) = two_qubit_operands(&gates[id]);
                StagedGate {
                    placement: placements[i],
                    q1,
                    q2,
                    kind: match gates[id] {
                        Gate::Zz(_, _, theta) => RydbergKind::Zz(theta),
                        _ => RydbergKind::Cz,
                    },
                }
            })
            .collect();
        emit_stage(&mut schedule, config, &staged);
        for &i in &subset {
            frontier.execute(candidates[i]);
        }
    }
    Ok(ReferenceProgram::new(schedule))
}

/// One gate selected into a stage.
#[derive(Debug, Clone, Copy)]
struct StagedGate {
    placement: GatePlacement,
    q1: Qubit,
    q2: Qubit,
    kind: RydbergKind,
}

fn operand_key(g: &Gate) -> (u32, u32) {
    match g.operands() {
        Operands::Two(a, b) => (a.raw(), b.raw()),
        Operands::One(a) => (a.raw(), a.raw()),
    }
}

fn two_qubit_operands(g: &Gate) -> (Qubit, Qubit) {
    match g.operands() {
        Operands::Two(a, b) => (a, b),
        Operands::One(_) => unreachable!("2Q stage received a 1Q gate"),
    }
}

fn placement_of(g: &Gate, config: &FpqaConfig) -> GatePlacement {
    let (a, b) = two_qubit_operands(g);
    GatePlacement::new(config.coord_of(a.raw()), config.coord_of(b.raw()))
}

/// Emits the full three-phase flying-ancilla stage for a legal subset.
fn emit_stage(schedule: &mut LegacySchedule, config: &FpqaConfig, staged: &[StagedGate]) {
    let n = staged.len();
    let placements: Vec<GatePlacement> = staged.iter().map(|s| s.placement).collect();
    let row_rank = axis_ranks(&placements, true);
    let col_rank = axis_ranks(&placements, false);

    // Ancilla per gate, pinned to cross (row_rank, col_rank).
    let ancillas: Vec<crate::AncillaId> = staged.iter().map(|_| schedule.fresh_ancilla()).collect();

    // Per-rank SLM targets for both phases.
    let mut create_rows = vec![0usize; n];
    let mut exec_rows = vec![0usize; n];
    let mut create_cols = vec![0usize; n];
    let mut exec_cols = vec![0usize; n];
    for (i, s) in staged.iter().enumerate() {
        create_rows[row_rank[i]] = s.placement.source.row;
        exec_rows[row_rank[i]] = s.placement.target.row;
        create_cols[col_rank[i]] = s.placement.source.col;
        exec_cols[col_rank[i]] = s.placement.target.col;
    }

    let pitch = config.pitch_um();
    let (rows_total, cols_total) = (schedule.aod_rows, schedule.aod_cols);
    let create_y = axis_coords(&create_rows, rows_total, pitch, park_row_base(config));
    let create_x = axis_coords(&create_cols, cols_total, pitch, park_col_base(config));
    let exec_y = axis_coords(&exec_rows, rows_total, pitch, park_row_base(config));
    let exec_x = axis_coords(&exec_cols, cols_total, pitch, park_col_base(config));

    // Load ancillas.
    schedule.push(LegacyStage::Transfer(
        (0..n)
            .map(|i| TransferOp {
                ancilla: ancillas[i],
                row: row_rank[i],
                col: col_rank[i],
                load: true,
            })
            .collect(),
    ));

    // Phase 1: copy states (transversal CNOT q1 -> ancilla).
    schedule.push(LegacyStage::Move {
        row_y: create_y.clone(),
        col_x: create_x.clone(),
    });
    // The pre-PR code built the Hadamard layer as a `Vec<Gate>` and
    // cloned it for each of the four pulses; under the shared-payload IR
    // the faithful equivalent is one fresh allocation per pulse.
    let h_layer: Vec<Gate> = ancillas
        .iter()
        .map(|&a| Gate::H(schedule.ancilla_qubit(a)))
        .collect();
    schedule.push(LegacyStage::Raman(Arc::from(h_layer.as_slice())));
    schedule.push(LegacyStage::Rydberg(
        staged
            .iter()
            .enumerate()
            .map(|(i, s)| RydbergOp::cz(AtomRef::Data(s.q1.raw()), AtomRef::Ancilla(ancillas[i])))
            .collect(),
    ));
    schedule.push(LegacyStage::Raman(Arc::from(h_layer.as_slice())));

    // Phase 2: fly to targets and interact.
    schedule.push(LegacyStage::Move {
        row_y: exec_y,
        col_x: exec_x,
    });
    schedule.push(LegacyStage::Rydberg(
        staged
            .iter()
            .enumerate()
            .map(|(i, s)| RydbergOp {
                a: AtomRef::Ancilla(ancillas[i]),
                b: AtomRef::Data(s.q2.raw()),
                kind: s.kind,
            })
            .collect(),
    ));

    // Phase 3: fly back and recycle (transversal CNOT again).
    schedule.push(LegacyStage::Move {
        row_y: create_y,
        col_x: create_x,
    });
    schedule.push(LegacyStage::Raman(Arc::from(h_layer.as_slice())));
    schedule.push(LegacyStage::Rydberg(
        staged
            .iter()
            .enumerate()
            .map(|(i, s)| RydbergOp::cz(AtomRef::Data(s.q1.raw()), AtomRef::Ancilla(ancillas[i])))
            .collect(),
    ));
    schedule.push(LegacyStage::Raman(Arc::from(h_layer.as_slice())));

    // Return the atoms.
    schedule.push(LegacyStage::Transfer(
        (0..n)
            .map(|i| TransferOp {
                ancilla: ancillas[i],
                row: row_rank[i],
                col: col_rank[i],
                load: false,
            })
            .collect(),
    ));
}

/// Frozen copy of the pre-PR dependency DAG: one `Vec` pair per gate.
#[derive(Debug, Clone)]
struct ReferenceDag {
    preds: Vec<Vec<usize>>,
    succs: Vec<Vec<usize>>,
}

impl ReferenceDag {
    fn new(circuit: &Circuit) -> Self {
        let n = circuit.len();
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut last_on: Vec<Option<usize>> = vec![None; circuit.num_qubits() as usize];
        for (i, g) in circuit.iter().enumerate() {
            for q in g.operands() {
                if let Some(p) = last_on[q.index()] {
                    if !preds[i].contains(&p) {
                        preds[i].push(p);
                        succs[p].push(i);
                    }
                }
                last_on[q.index()] = Some(i);
            }
        }
        ReferenceDag { preds, succs }
    }

    fn successors(&self, id: usize) -> &[usize] {
        &self.succs[id]
    }
}

/// Frozen copy of the pre-PR frontier: a successor `Vec` copy per
/// executed gate, linear-scan removal from the front layer.
#[derive(Debug, Clone)]
struct ReferenceFrontier {
    dag: ReferenceDag,
    pending_preds: Vec<usize>,
    front: Vec<usize>,
    remaining: usize,
}

impl ReferenceFrontier {
    fn new(circuit: &Circuit) -> Self {
        let dag = ReferenceDag::new(circuit);
        let n = circuit.len();
        let pending_preds: Vec<usize> = (0..n).map(|i| dag.preds[i].len()).collect();
        let mut front: Vec<usize> = (0..n).filter(|&i| pending_preds[i] == 0).collect();
        front.sort_unstable();
        ReferenceFrontier {
            dag,
            pending_preds,
            front,
            remaining: n,
        }
    }

    fn front_layer(&self) -> &[usize] {
        &self.front
    }

    fn is_done(&self) -> bool {
        self.remaining == 0
    }

    fn execute(&mut self, id: usize) {
        let pos = self
            .front
            .iter()
            .position(|&g| g == id)
            .expect("gate executed out of dependency order");
        self.front.remove(pos);
        self.remaining -= 1;
        let succs: Vec<usize> = self.dag.successors(id).to_vec();
        for s in succs {
            self.pending_preds[s] -= 1;
            if self.pending_preds[s] == 0 {
                let insert_at = self.front.partition_point(|&g| g < s);
                self.front.insert(insert_at, s);
            }
        }
    }
}
