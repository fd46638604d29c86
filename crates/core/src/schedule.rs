//! The hardware-level schedule IR produced by every router.
//!
//! A [`Schedule`] is an ordered list of stages over two atom populations:
//! SLM data atoms (identified by their data-qubit index) and AOD flying
//! ancillas (identified by [`AncillaId`], each pinned to one AOD grid
//! cross for its lifetime). The stage types map one-to-one onto the
//! paper's Fig. 4 flow:
//!
//! * [`StageRef::Raman`] — individually-addressed 1Q gates (Raman laser),
//! * [`StageRef::Transfer`] — atom transfer loading/unloading ancillas,
//! * [`StageRef::Move`] — an AOD reconfiguration (rows keep their order),
//! * [`StageRef::Rydberg`] — one global Rydberg pulse executing all listed
//!   two-qubit interactions simultaneously.
//!
//! Gate accounting follows the paper: each [`RydbergOp`] is one native 2Q
//! gate, each Rydberg stage is one unit of (2Q) circuit depth, and Raman
//! gates count as 1Q gates.
//!
//! # Arena layout
//!
//! Stage payloads are **pooled**: the schedule owns four flat arrays
//! (`raman_gates`, `transfer_ops`, `coords`, `rydberg_ops`) and each stage
//! stores `Range<u32>` handles into them. Routing a 100-qubit circuit
//! emits thousands of stages; with per-stage `Vec` payloads every stage
//! cost at least one heap allocation, and profiling showed that churn was
//! the entire residual gap to the frozen pre-optimisation router (see
//! `generic_reference`). With the arena, appending a stage is a bump of
//! the pool cursors — amortised zero allocations.
//!
//! Call sites keep slice-shaped access through the borrow-based
//! [`StageRef`] accessor enum ([`Schedule::stages`] /
//! [`Schedule::stage`]); construction goes through the pool-appending
//! [`ScheduleBuilder`]. The wire format (`qpilot.schedule/v1`) is
//! unchanged: serialisation is a function of the logical stage sequence,
//! not the storage layout.

use std::fmt;
use std::ops::Range;

use qpilot_circuit::{Gate, Qubit};

/// Identifier of a flying ancilla, unique within one schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AncillaId(pub u32);

impl fmt::Display for AncillaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// A reference to an atom: a fixed SLM data atom or a flying ancilla.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AtomRef {
    /// SLM data atom holding data qubit `q`.
    Data(u32),
    /// AOD flying ancilla.
    Ancilla(AncillaId),
}

impl fmt::Display for AtomRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AtomRef::Data(q) => write!(f, "q{q}"),
            AtomRef::Ancilla(a) => write!(f, "{a}"),
        }
    }
}

/// The interaction executed on one atom pair during a Rydberg pulse.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RydbergKind {
    /// A plain CZ.
    Cz,
    /// A CX implemented as `H(target) · CZ · H(target)`; the implicit
    /// Hadamards are accounted as two extra 1Q gates but the op stays one
    /// native 2Q gate and one depth unit.
    CxInto {
        /// Which operand is the target (`false` = `a`, `true` = `b`).
        target_b: bool,
    },
    /// An Ising `ZZ(θ)` interaction (native-equivalent on neutral atoms;
    /// the paper's QAOA accounting treats one routed edge as one 2Q gate).
    Zz(f64),
}

/// One intended two-qubit interaction within a Rydberg stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RydbergOp {
    /// First atom.
    pub a: AtomRef,
    /// Second atom.
    pub b: AtomRef,
    /// Interaction kind.
    pub kind: RydbergKind,
}

impl RydbergOp {
    /// A CZ between two atoms.
    pub fn cz(a: AtomRef, b: AtomRef) -> Self {
        RydbergOp {
            a,
            b,
            kind: RydbergKind::Cz,
        }
    }

    /// A CX with `control` and `target`.
    pub fn cx(control: AtomRef, target: AtomRef) -> Self {
        RydbergOp {
            a: control,
            b: target,
            kind: RydbergKind::CxInto { target_b: true },
        }
    }

    /// A ZZ(θ) interaction.
    pub fn zz(a: AtomRef, b: AtomRef, theta: f64) -> Self {
        RydbergOp {
            a,
            b,
            kind: RydbergKind::Zz(theta),
        }
    }

    /// The unordered atom pair.
    pub fn pair(&self) -> (AtomRef, AtomRef) {
        if self.a <= self.b {
            (self.a, self.b)
        } else {
            (self.b, self.a)
        }
    }
}

/// An atom-transfer operation: loading an ancilla into an AOD cross from
/// the reservoir (`load = true`) or returning it (`load = false`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferOp {
    /// The ancilla being moved.
    pub ancilla: AncillaId,
    /// AOD grid row of its cross.
    pub row: usize,
    /// AOD grid column of its cross.
    pub col: usize,
    /// `true` to load into the grid, `false` to unload.
    pub load: bool,
}

/// One stage handle: pool ranges into the owning [`Schedule`]'s arenas.
///
/// Handles are meaningless without the schedule that owns the pools, so
/// this type is crate-private; consumers read stages through [`StageRef`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Stage {
    /// Range into `raman_gates`.
    Raman(Range<u32>),
    /// Range into `transfer_ops`.
    Transfer(Range<u32>),
    /// Two ranges into `coords`: row y's, then column x's.
    Move {
        /// Per-row y coordinates.
        row_y: Range<u32>,
        /// Per-column x coordinates.
        col_x: Range<u32>,
    },
    /// Range into `rydberg_ops`.
    Rydberg(Range<u32>),
}

/// A borrowed, slice-shaped view of one stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StageRef<'a> {
    /// Parallel individually-addressed 1Q gates. Gates address the
    /// combined register: data qubits `0..num_data`, ancilla
    /// `AncillaId(k)` at `num_data + k`.
    Raman(&'a [Gate]),
    /// Atom transfers (all in parallel).
    Transfer(&'a [TransferOp]),
    /// AOD reconfiguration: absolute row `y` and column `x` coordinates.
    Move {
        /// New per-row y coordinates (strictly increasing).
        row_y: &'a [f64],
        /// New per-column x coordinates (strictly increasing).
        col_x: &'a [f64],
    },
    /// One global Rydberg pulse listing the intended interactions.
    Rydberg(&'a [RydbergOp]),
}

/// Aggregate statistics of a schedule (the paper's cost metrics).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ScheduleStats {
    /// Number of Rydberg pulses = compiled 2Q circuit depth.
    pub two_qubit_depth: usize,
    /// Native two-qubit gate count (one per [`RydbergOp`]).
    pub two_qubit_gates: usize,
    /// 1Q gate count (Raman gates plus 2 per CX-kind op for its implicit
    /// Hadamards).
    pub one_qubit_gates: usize,
    /// Number of Move stages.
    pub moves: usize,
    /// Number of atom-transfer operations.
    pub transfers: usize,
    /// Peak number of simultaneously loaded ancillas.
    pub peak_ancillas: usize,
}

/// A compiled FPQA program: the stage sequence, the payload pools, and
/// identification of the data register.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    /// Number of data qubits.
    pub num_data: u32,
    /// Total distinct ancillas ever created.
    pub num_ancillas: u32,
    /// AOD grid rows.
    pub aod_rows: usize,
    /// AOD grid columns.
    pub aod_cols: usize,
    /// The stage handles in execution order.
    stages: Vec<Stage>,
    /// Pool backing `Stage::Raman`.
    raman_gates: Vec<Gate>,
    /// Pool backing `Stage::Transfer`.
    transfer_ops: Vec<TransferOp>,
    /// Pool backing `Stage::Move` (row y's and column x's interleaved per
    /// stage: each Move appends its row range then its column range).
    coords: Vec<f64>,
    /// Pool backing `Stage::Rydberg`.
    rydberg_ops: Vec<RydbergOp>,
}

fn as_usize(r: &Range<u32>) -> Range<usize> {
    r.start as usize..r.end as usize
}

/// Register qubit of ancilla `a` in a schedule with `num_data` data
/// qubits — the one source of truth for the data ⊗ ancilla register
/// layout. A free function so router emit paths can use it while the
/// builder is mutably borrowed.
pub(crate) fn ancilla_register_qubit(num_data: u32, a: AncillaId) -> Qubit {
    Qubit::new(num_data + a.0)
}

impl Schedule {
    /// Creates an empty schedule. Use [`ScheduleBuilder`] to append
    /// stages.
    pub fn new(num_data: u32, aod_rows: usize, aod_cols: usize) -> Self {
        Schedule {
            num_data,
            num_ancillas: 0,
            aod_rows,
            aod_cols,
            ..Schedule::default()
        }
    }

    /// Register index of an ancilla in the lowered circuit.
    pub fn ancilla_qubit(&self, a: AncillaId) -> Qubit {
        ancilla_register_qubit(self.num_data, a)
    }

    /// Total register width of the lowered circuit.
    pub fn total_qubits(&self) -> u32 {
        self.num_data + self.num_ancillas
    }

    /// Number of stages.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// `true` if the schedule has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// The slice-shaped view of stage `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_stages()`.
    pub fn stage(&self, index: usize) -> StageRef<'_> {
        self.stage_ref(&self.stages[index])
    }

    fn stage_ref(&self, stage: &Stage) -> StageRef<'_> {
        match stage {
            Stage::Raman(r) => StageRef::Raman(&self.raman_gates[as_usize(r)]),
            Stage::Transfer(r) => StageRef::Transfer(&self.transfer_ops[as_usize(r)]),
            Stage::Move { row_y, col_x } => StageRef::Move {
                row_y: &self.coords[as_usize(row_y)],
                col_x: &self.coords[as_usize(col_x)],
            },
            Stage::Rydberg(r) => StageRef::Rydberg(&self.rydberg_ops[as_usize(r)]),
        }
    }

    /// Iterates over the stages as [`StageRef`] views, in execution order.
    pub fn stages(&self) -> impl ExactSizeIterator<Item = StageRef<'_>> + '_ {
        self.stages.iter().map(|s| self.stage_ref(s))
    }

    /// Iterates over the Rydberg stages' op lists.
    pub fn rydberg_stages(&self) -> impl Iterator<Item = &[RydbergOp]> {
        self.stages.iter().filter_map(|s| match s {
            Stage::Rydberg(r) => Some(&self.rydberg_ops[as_usize(r)]),
            _ => None,
        })
    }

    /// Computes aggregate statistics in one pass.
    pub fn stats(&self) -> ScheduleStats {
        let mut s = ScheduleStats::default();
        let mut loaded = 0usize;
        for stage in self.stages() {
            match stage {
                StageRef::Raman(gates) => s.one_qubit_gates += gates.len(),
                StageRef::Transfer(ops) => {
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
                StageRef::Move { .. } => s.moves += 1,
                StageRef::Rydberg(ops) => {
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

    /// Checks the arena invariant: stage handles tile each pool exactly —
    /// in stage order, every range starts where the pool cursor stands,
    /// never overlaps a neighbour, and the final cursors cover each pool
    /// completely. Builder-produced schedules hold this by construction;
    /// the validator re-checks it so a hand-assembled or corrupted
    /// schedule cannot alias payloads between stages.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated range.
    pub fn check_pools(&self) -> Result<(), String> {
        let mut raman = 0u32;
        let mut transfer = 0u32;
        let mut coords = 0u32;
        let mut rydberg = 0u32;
        let take = |cursor: &mut u32, r: &Range<u32>, len: usize, pool: &str, stage: usize| {
            if r.end < r.start {
                return Err(format!(
                    "stage {stage}: inverted {pool} range {}..{}",
                    r.start, r.end
                ));
            }
            if r.start != *cursor {
                return Err(format!(
                    "stage {stage}: {pool} range starts at {} but the pool cursor is at {cursor} \
                     (overlapping or out-of-order handles)",
                    r.start
                ));
            }
            if r.end as usize > len {
                return Err(format!(
                    "stage {stage}: {pool} range ends at {} beyond pool length {len}",
                    r.end
                ));
            }
            *cursor = r.end;
            Ok(())
        };
        for (i, stage) in self.stages.iter().enumerate() {
            match stage {
                Stage::Raman(r) => take(&mut raman, r, self.raman_gates.len(), "raman", i)?,
                Stage::Transfer(r) => {
                    take(&mut transfer, r, self.transfer_ops.len(), "transfer", i)?
                }
                Stage::Move { row_y, col_x } => {
                    take(&mut coords, row_y, self.coords.len(), "coords", i)?;
                    take(&mut coords, col_x, self.coords.len(), "coords", i)?;
                }
                Stage::Rydberg(r) => take(&mut rydberg, r, self.rydberg_ops.len(), "rydberg", i)?,
            }
        }
        let full = [
            (raman as usize, self.raman_gates.len(), "raman"),
            (transfer as usize, self.transfer_ops.len(), "transfer"),
            (coords as usize, self.coords.len(), "coords"),
            (rydberg as usize, self.rydberg_ops.len(), "rydberg"),
        ];
        for (cursor, len, pool) in full {
            if cursor != len {
                return Err(format!(
                    "{pool} pool holds {len} entries but stages cover only {cursor}"
                ));
            }
        }
        Ok(())
    }

    pub(crate) fn stage_handle(&self, index: usize) -> Stage {
        self.stages[index].clone()
    }

    /// Entries in the Raman, transfer, coordinate and Rydberg pools —
    /// the element counts of the whole stage sequence, since the stage
    /// handles tile the pools exactly.
    pub(crate) fn pool_lens(&self) -> [usize; 4] {
        [
            self.raman_gates.len(),
            self.transfer_ops.len(),
            self.coords.len(),
            self.rydberg_ops.len(),
        ]
    }
}

/// Equality is *logical*: same register header and the same stage
/// sequence by value. Pool layout never differs for builder-produced
/// schedules, but equality must not depend on it.
impl PartialEq for Schedule {
    fn eq(&self, other: &Self) -> bool {
        self.num_data == other.num_data
            && self.num_ancillas == other.num_ancillas
            && self.aod_rows == other.aod_rows
            && self.aod_cols == other.aod_cols
            && self.stages.len() == other.stages.len()
            && self.stages().zip(other.stages()).all(|(a, b)| a == b)
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        writeln!(
            f,
            "schedule[{} data + {} ancillas, {} stages, depth {}, {} 2Q gates]",
            self.num_data,
            self.num_ancillas,
            self.stages.len(),
            stats.two_qubit_depth,
            stats.two_qubit_gates
        )?;
        for (i, stage) in self.stages().enumerate() {
            match stage {
                StageRef::Raman(g) => writeln!(f, "  {i:3}: raman x{}", g.len())?,
                StageRef::Transfer(t) => writeln!(f, "  {i:3}: transfer x{}", t.len())?,
                StageRef::Move { .. } => writeln!(f, "  {i:3}: move")?,
                StageRef::Rydberg(ops) => {
                    write!(f, "  {i:3}: rydberg ")?;
                    for (k, op) in ops.iter().enumerate() {
                        if k > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{}·{}", op.a, op.b)?;
                    }
                    writeln!(f)?;
                }
            }
        }
        Ok(())
    }
}

/// Pool-appending constructor for [`Schedule`]s.
///
/// Every append method extends the matching pool and records a range
/// handle — no per-stage heap allocation. Routers thread a
/// `&mut ScheduleBuilder` through their emit paths; read-only schedule
/// state (grid shape, register width) is reachable through [`Deref`].
///
/// [`Deref`]: std::ops::Deref
#[derive(Debug, Clone, Default)]
pub struct ScheduleBuilder {
    schedule: Schedule,
    /// Statistics accumulated stage by stage, so finishing a program
    /// needs no second pass over the pools.
    stats: ScheduleStats,
    /// Currently-loaded ancilla count (for `stats.peak_ancillas`).
    loaded: usize,
}

impl ScheduleBuilder {
    /// Starts an empty schedule.
    pub fn new(num_data: u32, aod_rows: usize, aod_cols: usize) -> Self {
        ScheduleBuilder {
            schedule: Schedule::new(num_data, aod_rows, aod_cols),
            stats: ScheduleStats::default(),
            loaded: 0,
        }
    }

    /// Pre-sizes the stage list (pools grow by doubling on their own;
    /// see [`ScheduleBuilder::reserve_pools`]).
    pub fn reserve_stages(&mut self, additional: usize) {
        self.schedule.stages.reserve(additional);
    }

    /// Pre-sizes the payload pools (routers can bound all four from the
    /// native gate counts, turning pool growth into a single allocation
    /// each).
    pub fn reserve_pools(
        &mut self,
        raman_gates: usize,
        transfer_ops: usize,
        coords: usize,
        rydberg_ops: usize,
    ) {
        self.schedule.raman_gates.reserve(raman_gates);
        self.schedule.transfer_ops.reserve(transfer_ops);
        self.schedule.coords.reserve(coords);
        self.schedule.rydberg_ops.reserve(rydberg_ops);
    }

    /// Allocates a fresh ancilla id.
    pub fn fresh_ancilla(&mut self) -> AncillaId {
        let id = AncillaId(self.schedule.num_ancillas);
        self.schedule.num_ancillas += 1;
        id
    }

    /// Overrides the ancilla count (wire parsing: the count is a header
    /// field, not derived from transfers).
    pub fn set_num_ancillas(&mut self, n: u32) {
        self.schedule.num_ancillas = n;
    }

    /// Read access to the schedule under construction.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Appends a Raman stage from an iterator of gates. Returns the stage
    /// index (usable with [`ScheduleBuilder::repeat_stage`]).
    #[inline]
    pub fn raman(&mut self, gates: impl IntoIterator<Item = Gate>) -> usize {
        let start = self.schedule.raman_gates.len() as u32;
        self.schedule.raman_gates.extend(gates);
        let end = self.schedule.raman_gates.len() as u32;
        self.push(Stage::Raman(start..end))
    }

    /// Appends a Transfer stage from an iterator of ops.
    #[inline]
    pub fn transfer(&mut self, ops: impl IntoIterator<Item = TransferOp>) -> usize {
        let start = self.schedule.transfer_ops.len() as u32;
        self.schedule.transfer_ops.extend(ops);
        let end = self.schedule.transfer_ops.len() as u32;
        self.push(Stage::Transfer(start..end))
    }

    /// Appends a Move stage by copying both coordinate slices into the
    /// pool.
    #[inline]
    pub fn move_stage(&mut self, row_y: &[f64], col_x: &[f64]) -> usize {
        let start = self.schedule.coords.len() as u32;
        self.schedule.coords.extend_from_slice(row_y);
        let mid = self.schedule.coords.len() as u32;
        self.schedule.coords.extend_from_slice(col_x);
        let end = self.schedule.coords.len() as u32;
        self.push(Stage::Move {
            row_y: start..mid,
            col_x: mid..end,
        })
    }

    /// Wire decoding: appends coordinates to the pool, ahead of the
    /// [`ScheduleBuilder::close_move`] that makes them a Move stage.
    pub(crate) fn extend_coords(&mut self, values: impl IntoIterator<Item = f64>) {
        self.schedule.coords.extend(values);
    }

    /// Wire decoding: appends a Move stage over the coordinates from pool
    /// index `start` on, of which the first `rows` are row y's and the
    /// rest column x's.
    pub(crate) fn close_move(&mut self, start: usize, rows: usize) -> usize {
        let (start, mid) = (start as u32, (start + rows) as u32);
        let end = self.schedule.coords.len() as u32;
        self.push(Stage::Move {
            row_y: start..mid,
            col_x: mid..end,
        })
    }

    /// Appends a Rydberg stage from an iterator of ops.
    #[inline]
    pub fn rydberg(&mut self, ops: impl IntoIterator<Item = RydbergOp>) -> usize {
        let start = self.schedule.rydberg_ops.len() as u32;
        self.schedule.rydberg_ops.extend(ops);
        let end = self.schedule.rydberg_ops.len() as u32;
        self.push(Stage::Rydberg(start..end))
    }

    /// Re-emits stage `index` with an identical payload (copied within
    /// the pool — the routers re-use one Hadamard layer across the
    /// several pulses of a flying-ancilla flow).
    #[inline]
    pub fn repeat_stage(&mut self, index: usize) -> usize {
        match self.schedule.stage_handle(index) {
            Stage::Raman(r) => {
                let start = self.schedule.raman_gates.len() as u32;
                self.schedule.raman_gates.extend_from_within(as_usize(&r));
                let end = self.schedule.raman_gates.len() as u32;
                self.push(Stage::Raman(start..end))
            }
            Stage::Transfer(r) => {
                let start = self.schedule.transfer_ops.len() as u32;
                self.schedule.transfer_ops.extend_from_within(as_usize(&r));
                let end = self.schedule.transfer_ops.len() as u32;
                self.push(Stage::Transfer(start..end))
            }
            Stage::Move { row_y, col_x } => self.repeat_move(&row_y, &col_x),
            Stage::Rydberg(r) => {
                let start = self.schedule.rydberg_ops.len() as u32;
                self.schedule.rydberg_ops.extend_from_within(as_usize(&r));
                let end = self.schedule.rydberg_ops.len() as u32;
                self.push(Stage::Rydberg(start..end))
            }
        }
    }

    #[inline]
    fn repeat_move(&mut self, row_y: &Range<u32>, col_x: &Range<u32>) -> usize {
        let start = self.schedule.coords.len() as u32;
        self.schedule.coords.extend_from_within(as_usize(row_y));
        let mid = self.schedule.coords.len() as u32;
        self.schedule.coords.extend_from_within(as_usize(col_x));
        let end = self.schedule.coords.len() as u32;
        self.push(Stage::Move {
            row_y: start..mid,
            col_x: mid..end,
        })
    }

    /// Emits the exact reverse of `stages[range]`: the uncomputation
    /// mirror of a forward phase whose pulses are all self-inverse (CZ
    /// layers, Hadamard layers). Raman and Rydberg stages repeat
    /// verbatim, Transfer stages flip their load flags, and each Move
    /// reverses to the coordinates that preceded it — the previous Move
    /// inside the range, or `initial_coords` for the first one.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds.
    pub fn mirror_stages(&mut self, range: Range<usize>, initial_coords: (&[f64], &[f64])) {
        for i in range.clone().rev() {
            match self.schedule.stage_handle(i) {
                Stage::Raman(_) | Stage::Rydberg(_) => {
                    self.repeat_stage(i);
                }
                Stage::Transfer(r) => {
                    let start = self.schedule.transfer_ops.len() as u32;
                    for j in as_usize(&r) {
                        let op = self.schedule.transfer_ops[j];
                        self.schedule.transfer_ops.push(TransferOp {
                            load: !op.load,
                            ..op
                        });
                    }
                    let end = self.schedule.transfer_ops.len() as u32;
                    self.push(Stage::Transfer(start..end));
                }
                Stage::Move { .. } => {
                    let prev = self.schedule.stages[range.start..i]
                        .iter()
                        .rev()
                        .find_map(|s| match s {
                            Stage::Move { row_y, col_x } => Some((row_y.clone(), col_x.clone())),
                            _ => None,
                        });
                    match prev {
                        Some((row_y, col_x)) => {
                            self.repeat_move(&row_y, &col_x);
                        }
                        None => {
                            self.move_stage(initial_coords.0, initial_coords.1);
                        }
                    }
                }
            }
        }
    }

    /// Number of stages appended so far.
    pub fn num_stages(&self) -> usize {
        self.schedule.stages.len()
    }

    /// Finalises the schedule.
    pub fn finish(self) -> Schedule {
        debug_assert!(self.schedule.check_pools().is_ok());
        self.schedule
    }

    /// Finalises into a [`CompiledProgram`], using the incrementally
    /// accumulated statistics (no second pass over the pools).
    pub fn finish_program(self) -> CompiledProgram {
        debug_assert!(self.schedule.check_pools().is_ok());
        debug_assert_eq!(
            self.stats,
            self.schedule.stats(),
            "incremental stats diverged from the reference pass"
        );
        CompiledProgram {
            schedule: self.schedule,
            stats: self.stats,
        }
    }

    #[inline]
    fn push(&mut self, stage: Stage) -> usize {
        self.accumulate(&stage);
        self.schedule.stages.push(stage);
        self.schedule.stages.len() - 1
    }

    /// Folds the stage being pushed into the running statistics (same
    /// accounting as [`Schedule::stats`], paid at append time).
    #[inline]
    fn accumulate(&mut self, stage: &Stage) {
        match stage {
            Stage::Raman(r) => self.stats.one_qubit_gates += r.len(),
            Stage::Transfer(r) => {
                self.stats.transfers += r.len();
                for op in &self.schedule.transfer_ops[as_usize(r)] {
                    if op.load {
                        self.loaded += 1;
                    } else {
                        self.loaded = self.loaded.saturating_sub(1);
                    }
                }
                self.stats.peak_ancillas = self.stats.peak_ancillas.max(self.loaded);
            }
            Stage::Move { .. } => self.stats.moves += 1,
            Stage::Rydberg(r) => {
                self.stats.two_qubit_depth += 1;
                self.stats.two_qubit_gates += r.len();
                self.stats.one_qubit_gates += self.schedule.rydberg_ops[as_usize(r)]
                    .iter()
                    .filter(|o| matches!(o.kind, RydbergKind::CxInto { .. }))
                    .count()
                    * 2;
            }
        }
    }
}

impl std::ops::Deref for ScheduleBuilder {
    type Target = Schedule;

    fn deref(&self) -> &Schedule {
        &self.schedule
    }
}

/// A compiled program: schedule plus cached statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    schedule: Schedule,
    stats: ScheduleStats,
}

impl CompiledProgram {
    /// Wraps a finished schedule, computing its statistics.
    pub fn new(schedule: Schedule) -> Self {
        let stats = schedule.stats();
        CompiledProgram { schedule, stats }
    }

    /// The schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Cached statistics.
    pub fn stats(&self) -> &ScheduleStats {
        &self.stats
    }

    /// Consumes the program, returning the schedule.
    pub fn into_schedule(self) -> Schedule {
        self.schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_schedule() -> Schedule {
        let mut b = ScheduleBuilder::new(2, 2, 2);
        let a = b.fresh_ancilla();
        b.transfer([TransferOp {
            ancilla: a,
            row: 0,
            col: 0,
            load: true,
        }]);
        b.move_stage(&[0.5, 10.0], &[0.5, 10.0]);
        b.rydberg([RydbergOp::cx(AtomRef::Data(0), AtomRef::Ancilla(a))]);
        b.raman([Gate::Rz(Qubit::new(2), 0.5)]);
        b.rydberg([RydbergOp::cz(AtomRef::Ancilla(a), AtomRef::Data(1))]);
        b.transfer([TransferOp {
            ancilla: a,
            row: 0,
            col: 0,
            load: false,
        }]);
        b.finish()
    }

    #[test]
    fn stats_count_everything() {
        let s = sample_schedule();
        let st = s.stats();
        assert_eq!(st.two_qubit_depth, 2);
        assert_eq!(st.two_qubit_gates, 2);
        // 1 Raman rz + 2 implicit H for the CX.
        assert_eq!(st.one_qubit_gates, 3);
        assert_eq!(st.moves, 1);
        assert_eq!(st.transfers, 2);
        assert_eq!(st.peak_ancillas, 1);
    }

    #[test]
    fn fresh_ancillas_are_sequential() {
        let mut b = ScheduleBuilder::new(3, 1, 1);
        assert_eq!(b.fresh_ancilla(), AncillaId(0));
        assert_eq!(b.fresh_ancilla(), AncillaId(1));
        let s = b.finish();
        assert_eq!(s.total_qubits(), 5);
        assert_eq!(s.ancilla_qubit(AncillaId(1)), Qubit::new(4));
    }

    #[test]
    fn rydberg_op_pair_is_normalised() {
        let op = RydbergOp::cz(AtomRef::Ancilla(AncillaId(0)), AtomRef::Data(3));
        assert_eq!(
            op.pair(),
            (AtomRef::Data(3), AtomRef::Ancilla(AncillaId(0)))
        );
    }

    #[test]
    fn compiled_program_caches_stats() {
        let p = CompiledProgram::new(sample_schedule());
        assert_eq!(p.stats().two_qubit_gates, 2);
        assert_eq!(p.schedule().num_ancillas, 1);
    }

    #[test]
    fn display_lists_stages() {
        let text = sample_schedule().to_string();
        assert!(text.contains("rydberg q0·a0"));
        assert!(text.contains("transfer x1"));
    }

    #[test]
    fn rydberg_stage_iterator() {
        let s = sample_schedule();
        assert_eq!(s.rydberg_stages().count(), 2);
    }

    #[test]
    fn stage_refs_expose_slices() {
        let s = sample_schedule();
        match s.stage(1) {
            StageRef::Move { row_y, col_x } => {
                assert_eq!(row_y, &[0.5, 10.0]);
                assert_eq!(col_x, &[0.5, 10.0]);
            }
            other => panic!("expected move, got {other:?}"),
        }
        assert_eq!(s.stages().len(), s.num_stages());
    }

    #[test]
    fn repeat_stage_duplicates_payload() {
        let mut b = ScheduleBuilder::new(2, 1, 1);
        let idx = b.raman([Gate::H(Qubit::new(0)), Gate::H(Qubit::new(1))]);
        b.repeat_stage(idx);
        let s = b.finish();
        assert_eq!(s.stage(0), s.stage(1));
        s.check_pools().expect("tiled pools");
    }

    #[test]
    fn mirror_reverses_a_phase_exactly() {
        let mut b = ScheduleBuilder::new(2, 2, 2);
        let a = b.fresh_ancilla();
        let initial = (vec![30.0, 40.0], vec![30.0, 40.0]);
        let start = b.num_stages();
        b.transfer([TransferOp {
            ancilla: a,
            row: 0,
            col: 0,
            load: true,
        }]);
        b.move_stage(&[0.5, 40.0], &[0.5, 40.0]);
        b.raman([Gate::H(Qubit::new(2))]);
        b.rydberg([RydbergOp::cz(AtomRef::Data(0), AtomRef::Ancilla(a))]);
        b.move_stage(&[10.5, 40.0], &[10.5, 40.0]);
        let end = b.num_stages();
        b.mirror_stages(start..end, (&initial.0, &initial.1));
        let s = b.finish();
        s.check_pools().expect("tiled pools");
        assert_eq!(s.num_stages(), 10);
        // Reversed order: move (back to previous move), rydberg, raman,
        // move (back to initial), transfer-unload.
        match s.stage(5) {
            StageRef::Move { row_y, .. } => assert_eq!(row_y, &[0.5, 40.0]),
            other => panic!("expected move, got {other:?}"),
        }
        assert_eq!(s.stage(6), s.stage(3));
        assert_eq!(s.stage(7), s.stage(2));
        match s.stage(8) {
            StageRef::Move { row_y, .. } => assert_eq!(row_y, &[30.0, 40.0]),
            other => panic!("expected move, got {other:?}"),
        }
        match s.stage(9) {
            StageRef::Transfer(ops) => assert!(!ops[0].load),
            other => panic!("expected transfer, got {other:?}"),
        }
    }

    #[test]
    fn check_pools_rejects_overlapping_ranges() {
        let mut s = sample_schedule();
        // Corrupt a handle so two stages alias the same rydberg range.
        if let Stage::Rydberg(r) = &s.stages[2] {
            s.stages[4] = Stage::Rydberg(r.clone());
        }
        let err = s.check_pools().unwrap_err();
        assert!(err.contains("rydberg"), "{err}");
    }

    #[test]
    fn check_pools_rejects_uncovered_pool_tail() {
        let mut s = sample_schedule();
        s.rydberg_ops
            .push(RydbergOp::cz(AtomRef::Data(0), AtomRef::Data(1)));
        let err = s.check_pools().unwrap_err();
        assert!(err.contains("cover"), "{err}");
    }

    #[test]
    fn logical_equality_ignores_pool_layout() {
        let a = sample_schedule();
        // Same stages built in the same order but with a repeat in the
        // middle (then removed) would change pool layout; easiest layout
        // difference: build b with pre-reserved pools.
        let b = sample_schedule();
        assert_eq!(a, b);
    }
}
