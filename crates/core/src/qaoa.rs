//! The customised QAOA router (Alg. 3).
//!
//! QAOA cost layers apply one `ZZ(γ)` per graph edge. Unlike the generic
//! router, Q-Pilot creates **one persistent ancilla per qubit** (not per
//! gate), recycled only after the whole graph is done. Each stage:
//!
//! 1. picks the remaining edge with the smallest first endpoint; its
//!    ancilla's AOD row becomes the stage's first active row, and the
//!    matching fixes one AOD-column displacement;
//! 2. greedily matches more edges within the same (AOD row, SLM row) pair,
//!    adding active columns while their home/target orders stay aligned
//!    and parked columns still fit in the gaps between targets;
//! 3. walks the remaining AOD rows downward, choosing for each the SLM row
//!    that executes the most edges with **zero undesired interactions**
//!    (every occupied cross must be a remaining edge); rows that cannot
//!    match park on row midpoints, which the 2.5·r_b rule keeps silent;
//! 4. fires the global Rydberg pulse, executing every matched edge.
//!
//! Parked lines sit on grid midpoints (`pitch/2` away from any SLM line),
//! which is safe because the safety radius (2.5 × 1.5 µm) is below half the
//! 10 µm pitch — the geometric precondition called out in
//! [`FpqaConfig`].

use std::collections::{BTreeSet, HashMap, HashSet};

use qpilot_arch::GridCoord;
use qpilot_circuit::Gate;

use crate::cancel::CancelToken;
use crate::error::RouteError;
use crate::legality::PairMatcher;
use crate::motion::{axis_coords, park_col_base, park_row_base, OFFSET_MIN};
use crate::schedule::{
    AncillaId, AtomRef, CompiledProgram, RydbergOp, Schedule, ScheduleBuilder, TransferOp,
};
use crate::FpqaConfig;

/// Options for [`QaoaRouter`] (ablation knobs; defaults reproduce the
/// paper's algorithm with this crate's refinements).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QaoaRouterOptions {
    /// How many of the densest (AOD row, SLM row) buckets to evaluate as
    /// stage anchors. `1` approximates the paper's plain "smallest first
    /// edge" rule; larger values search harder for parallel stages.
    pub anchor_candidates: usize,
    /// Whether to grow the column pattern after the row sweep.
    pub column_extension: bool,
}

impl Default for QaoaRouterOptions {
    fn default() -> Self {
        QaoaRouterOptions {
            anchor_candidates: 8,
            column_extension: true,
        }
    }
}

/// The QAOA flying-ancilla router (Alg. 3 of the paper).
///
/// # Example
///
/// ```
/// use qpilot_core::{qaoa::QaoaRouter, FpqaConfig};
///
/// let cfg = FpqaConfig::for_qubits(4, 2);
/// let edges = [(0, 1), (1, 2), (2, 3), (0, 3)];
/// let p = QaoaRouter::new().route_edges(4, &edges, 0.7, &cfg).unwrap();
/// // 2 qubits-worth of create/recycle CNOTs plus one op per edge.
/// assert_eq!(p.stats().two_qubit_gates, 2 * 4 + 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct QaoaRouter {
    options: QaoaRouterOptions,
    /// Polled once per matching stage inside each cost layer; the default
    /// token never fires.
    pub(crate) cancel: CancelToken,
}

impl QaoaRouter {
    /// Creates a router with default options.
    pub fn new() -> Self {
        QaoaRouter::default()
    }

    /// Creates a router with explicit options.
    pub fn with_options(options: QaoaRouterOptions) -> Self {
        QaoaRouter {
            options,
            cancel: CancelToken::default(),
        }
    }

    /// Routes one QAOA cost layer: `ZZ(γ)` on every edge, with per-qubit
    /// ancillas created first and recycled last.
    ///
    /// # Errors
    ///
    /// * [`RouteError::TooManyQubits`] if `num_qubits` exceeds the array,
    /// * [`RouteError::InvalidEdge`] on self loops / out-of-range edges,
    /// * [`RouteError::AodTooSmall`] if the AOD grid cannot host one
    ///   ancilla per qubit.
    pub fn route_edges(
        &self,
        num_qubits: u32,
        edges: &[(u32, u32)],
        gamma: f64,
        config: &FpqaConfig,
    ) -> Result<CompiledProgram, RouteError> {
        let mut schedule =
            ScheduleBuilder::new(config.num_data(), config.aod_rows(), config.aod_cols());
        let mut prof = QaoaProfile::start();
        self.append_cost_layer(&mut schedule, num_qubits, edges, gamma, config, &mut prof)?;
        prof.flush();
        Ok(schedule.finish_program())
    }

    /// Routes a full depth-1 QAOA round: Hadamard layer, routed cost layer,
    /// `Rx(β)` mixer — directly comparable against
    /// `Graph::qaoa_circuit(&[γ], &[β])` in simulation.
    ///
    /// # Errors
    ///
    /// See [`QaoaRouter::route_edges`].
    pub fn route_qaoa_round(
        &self,
        num_qubits: u32,
        edges: &[(u32, u32)],
        gamma: f64,
        beta: f64,
        config: &FpqaConfig,
    ) -> Result<CompiledProgram, RouteError> {
        let mut schedule =
            ScheduleBuilder::new(config.num_data(), config.aod_rows(), config.aod_cols());
        schedule.raman((0..num_qubits).map(|q| Gate::H(qpilot_circuit::Qubit::new(q))));
        let mut prof = QaoaProfile::start();
        self.append_cost_layer(&mut schedule, num_qubits, edges, gamma, config, &mut prof)?;
        prof.flush();
        schedule.raman((0..num_qubits).map(|q| Gate::Rx(qpilot_circuit::Qubit::new(q), beta)));
        Ok(schedule.finish_program())
    }

    /// Routes a depth-`p` QAOA program: Hadamard layer, then `p` rounds of
    /// routed cost layer + `Rx(betaK)` mixer. Ancillas are re-created per
    /// round — the mixer invalidates the Z-basis copies, so each cost
    /// layer needs fresh fan-outs (create/recycle appears `2p` times in
    /// the native gate count).
    ///
    /// # Errors
    ///
    /// See [`QaoaRouter::route_edges`].
    ///
    /// # Panics
    ///
    /// Panics if `gammas.len() != betas.len()`.
    pub fn route_qaoa_rounds(
        &self,
        num_qubits: u32,
        edges: &[(u32, u32)],
        gammas: &[f64],
        betas: &[f64],
        config: &FpqaConfig,
    ) -> Result<CompiledProgram, RouteError> {
        assert_eq!(gammas.len(), betas.len(), "gamma/beta length mismatch");
        let mut schedule =
            ScheduleBuilder::new(config.num_data(), config.aod_rows(), config.aod_cols());
        schedule.raman((0..num_qubits).map(|q| Gate::H(qpilot_circuit::Qubit::new(q))));
        // One accumulator across all rounds: a single stage-time sample
        // per route call, like the other routers.
        let mut prof = QaoaProfile::start();
        for (&gamma, &beta) in gammas.iter().zip(betas) {
            self.append_cost_layer(&mut schedule, num_qubits, edges, gamma, config, &mut prof)?;
            schedule.raman((0..num_qubits).map(|q| Gate::Rx(qpilot_circuit::Qubit::new(q), beta)));
        }
        prof.flush();
        Ok(schedule.finish_program())
    }

    fn append_cost_layer(
        &self,
        schedule: &mut ScheduleBuilder,
        num_qubits: u32,
        edges: &[(u32, u32)],
        gamma: f64,
        config: &FpqaConfig,
        prof: &mut QaoaProfile,
    ) -> Result<(), RouteError> {
        if num_qubits > config.num_data() {
            return Err(RouteError::TooManyQubits {
                required: num_qubits,
                available: config.num_data(),
            });
        }
        let mut remaining: BTreeSet<(u32, u32)> = BTreeSet::new();
        for &(a, b) in edges {
            if a == b || a >= num_qubits || b >= num_qubits {
                return Err(RouteError::InvalidEdge { a, b });
            }
            remaining.insert((a.min(b), a.max(b)));
        }
        if remaining.is_empty() {
            return Ok(());
        }

        let slm = config.slm();
        let used_rows = (num_qubits as usize).div_ceil(slm.cols());
        let used_cols = slm.cols().min(num_qubits as usize);
        if schedule.aod_rows < used_rows || schedule.aod_cols < used_cols {
            return Err(RouteError::AodTooSmall {
                required: used_rows.max(used_cols),
                available: schedule.aod_rows.min(schedule.aod_cols),
            });
        }

        // One ancilla per qubit, pinned to the qubit's own cross.
        let ancillas: Vec<AncillaId> = (0..num_qubits).map(|_| schedule.fresh_ancilla()).collect();
        let home = |q: u32| -> GridCoord { config.coord_of(q) };

        schedule.transfer((0..num_qubits).map(|q| TransferOp {
            ancilla: ancillas[q as usize],
            row: home(q).row,
            col: home(q).col,
            load: true,
        }));

        // Aligned position: every ancilla hovers next to its home qubit.
        let aligned_rows: Vec<usize> = (0..used_rows).collect();
        let aligned_cols: Vec<usize> = (0..used_cols).collect();
        let pitch = config.pitch_um();
        let aligned = (
            axis_coords(
                &aligned_rows,
                schedule.aod_rows,
                pitch,
                park_row_base(config),
            ),
            axis_coords(
                &aligned_cols,
                schedule.aod_cols,
                pitch,
                park_col_base(config),
            ),
        );
        let aligned_move = schedule.move_stage(&aligned.0, &aligned.1);
        let num_data = schedule.num_data;
        let h_stage = schedule.raman((0..num_qubits).map(|q| {
            Gate::H(crate::schedule::ancilla_register_qubit(
                num_data,
                ancillas[q as usize],
            ))
        }));
        let create_stage = schedule.rydberg(
            (0..num_qubits)
                .map(|q| RydbergOp::cz(AtomRef::Data(q), AtomRef::Ancilla(ancillas[q as usize]))),
        );
        schedule.repeat_stage(h_stage);

        // Stage loop. Edge buckets are built once and maintained
        // incrementally as edges execute (the pre-PR code re-bucketed all
        // remaining edges every stage, which dominated routing time on
        // large graphs — see ROADMAP "Perf open items"). The bitset
        // mirrors `remaining` for O(1) membership in the row-sweep inner
        // loop; the memo carries first-row matchings across stages.
        let mut buckets = EdgeBuckets::build(&remaining, config);
        let mut edge_bits = EdgeBits::new(num_qubits as usize);
        for &(u, v) in &remaining {
            edge_bits.insert(u, v);
        }
        let geom = Geometry::build(config, num_qubits);
        let mut memo = FirstRowMemo::default();
        let mut oriented_scratch: Vec<(u32, u32, u32, u32)> = Vec::new();
        prof.lap_setup();
        while !remaining.is_empty() {
            // Stage boundary: stop cleanly before solving the next stage.
            self.cancel.check()?;
            oriented_scratch.clear();
            oriented_scratch.extend(
                buckets.oriented.iter().map(|&(src, tgt)| {
                    (src, tgt, geom.coord(src).1 as u32, geom.coord(tgt).1 as u32)
                }),
            );
            let ctx = SearchContext {
                remaining: &remaining,
                edge_bits: &edge_bits,
                buckets: &buckets,
                geom: &geom,
                oriented: &oriented_scratch,
                config,
                num_qubits,
                used_rows,
                slm_rows: config.slm().rows(),
                options: &self.options,
            };
            let solution = solve_stage(&ctx, &mut memo);
            debug_assert!(!solution.matched.is_empty(), "stage must match >= 1 edge");
            for &(u, v) in &solution.matched {
                let e = (u.min(v), u.max(v));
                remaining.remove(&e);
                edge_bits.remove(e.0, e.1);
                buckets.remove(e.0, e.1, config);
            }
            prof.lap_select();
            let (row_y, col_x) =
                stage_coords(&solution, schedule.schedule(), config, used_rows, used_cols);
            schedule.move_stage(&row_y, &col_x);
            schedule.rydberg(solution.matched.iter().map(|&(src, tgt)| {
                RydbergOp::zz(
                    AtomRef::Ancilla(ancillas[src as usize]),
                    AtomRef::Data(tgt),
                    gamma,
                )
            }));
            prof.lap_emit();
        }

        // Recycle: fly home, uncopy, unload (pool copies of the create
        // stages).
        schedule.repeat_stage(aligned_move);
        schedule.repeat_stage(h_stage);
        schedule.repeat_stage(create_stage);
        schedule.repeat_stage(h_stage);
        schedule.transfer((0..num_qubits).map(|q| TransferOp {
            ancilla: ancillas[q as usize],
            row: home(q).row,
            col: home(q).col,
            load: false,
        }));
        prof.lap_setup();
        Ok(())
    }
}

/// Per-route stage-time accumulator (see [`crate::obs::PhaseClock`]):
/// create/recycle and bucket maintenance count as `setup`, the matching
/// search as `select`, coordinates/moves/pulses as `emit`. Flushed to
/// the QAOA stage histograms once per public `route_*` call.
#[derive(Debug, Default)]
struct QaoaProfile {
    clock: Option<crate::obs::PhaseClock>,
    setup: u64,
    select: u64,
    emit: u64,
}

impl QaoaProfile {
    fn start() -> QaoaProfile {
        QaoaProfile {
            clock: crate::obs::PhaseClock::start(),
            ..QaoaProfile::default()
        }
    }

    fn lap_setup(&mut self) {
        crate::obs::lap(&mut self.clock, &mut self.setup);
    }

    fn lap_select(&mut self) {
        crate::obs::lap(&mut self.clock, &mut self.select);
    }

    fn lap_emit(&mut self) {
        crate::obs::lap(&mut self.clock, &mut self.emit);
    }

    fn flush(&self) {
        if self.clock.is_some() {
            crate::obs::QAOA_SETUP.record_ns(self.setup);
            crate::obs::QAOA_SELECT.record_ns(self.select);
            crate::obs::QAOA_EMIT.record_ns(self.emit);
        }
    }
}

/// A solved stage: which AOD columns/rows are active and which edges fire.
#[derive(Debug, Clone, Default)]
struct StageSolution {
    /// Active `(home AOD column, target SLM column)` pairs, maintained by
    /// the shared incremental matcher from [`crate::legality`].
    active_cols: PairMatcher,
    /// `(home AOD row, target SLM row)`, strictly increasing in both.
    active_rows: Vec<(usize, usize)>,
    /// Matched edges as `(ancilla-owner qubit, SLM target qubit)`.
    matched: Vec<(u32, u32)>,
}

/// Remaining edges bucketed by `(ancilla home row, target SLM row)` in
/// both orientations, maintained incrementally across stages: edges leave
/// their two buckets as they execute instead of the whole structure being
/// rebuilt per stage. Buckets are `BTreeSet`s so iteration order equals
/// the sorted order the per-stage rebuild used to produce — stage
/// construction is unchanged, only its cost is.
#[derive(Debug, Default)]
struct EdgeBuckets {
    map: HashMap<(usize, usize), BTreeSet<(u32, u32)>>,
    /// Every remaining edge in both orientations, sorted — the
    /// column-extension candidate stream, maintained here so stage
    /// construction never re-collects and re-sorts the edge set.
    oriented: BTreeSet<(u32, u32)>,
    /// For each ancilla home row, the SLM target rows with a live bucket,
    /// sorted ascending. The row sweeps scan only these: a `(aod_row, y)`
    /// placement can match an edge iff bucket `(aod_row, y)` is non-empty
    /// (a matched edge's source sits on `aod_row` and its target on `y` —
    /// exactly that bucket's signature), so skipping empty rows is
    /// outcome-exact. Plain sorted `Vec`s: the sets are at most
    /// `slm_rows` long, so ordered insert/remove beats tree overhead.
    rows_of: HashMap<usize, Vec<usize>>,
    /// Per-bucket modification stamps for [`FirstRowMemo`] invalidation.
    mods: HashMap<(usize, usize), u64>,
    tick: u64,
}

impl EdgeBuckets {
    /// Buckets every remaining (normalised) edge, both orientations.
    fn build(remaining: &BTreeSet<(u32, u32)>, config: &FpqaConfig) -> Self {
        let mut buckets = EdgeBuckets::default();
        for &(u, v) in remaining {
            for (src, tgt) in [(u, v), (v, u)] {
                let key = (config.coord_of(src).row, config.coord_of(tgt).row);
                buckets.map.entry(key).or_default().insert((src, tgt));
                let rows = buckets.rows_of.entry(key.0).or_default();
                if let Err(i) = rows.binary_search(&key.1) {
                    rows.insert(i, key.1);
                }
                buckets.oriented.insert((src, tgt));
            }
        }
        buckets
    }

    /// Removes an executed edge's two orientations; empty buckets vanish
    /// so the anchor-candidate scan only ever sees live buckets.
    fn remove(&mut self, u: u32, v: u32, config: &FpqaConfig) {
        for (src, tgt) in [(u, v), (v, u)] {
            let key = (config.coord_of(src).row, config.coord_of(tgt).row);
            if let Some(bucket) = self.map.get_mut(&key) {
                if bucket.remove(&(src, tgt)) {
                    self.tick += 1;
                    self.mods.insert(key, self.tick);
                }
                if bucket.is_empty() {
                    self.map.remove(&key);
                    if let Some(rows) = self.rows_of.get_mut(&key.0) {
                        if let Ok(i) = rows.binary_search(&key.1) {
                            rows.remove(i);
                        }
                        if rows.is_empty() {
                            self.rows_of.remove(&key.0);
                        }
                    }
                }
            }
            self.oriented.remove(&(src, tgt));
        }
    }

    /// The bucket's modification stamp (0 = untouched since build).
    fn stamp(&self, key: (usize, usize)) -> u64 {
        self.mods.get(&key).copied().unwrap_or(0)
    }
}

/// Normalised-edge membership bitset, used both for the long-lived
/// mirror of the `remaining` set and for the per-candidate matched sets:
/// the row sweeps and the column-extension legality scan test edge
/// membership in their innermost loops, and a flat bit lookup beats the
/// `BTreeSet` descent / SipHash `HashSet` probe that used to sit there.
#[derive(Debug, Clone)]
struct EdgeBits {
    words: Vec<u64>,
    stride: usize,
}

impl EdgeBits {
    fn new(num_qubits: usize) -> Self {
        EdgeBits {
            words: vec![0; (num_qubits * num_qubits).div_ceil(64)],
            stride: num_qubits,
        }
    }

    fn clear(&mut self) {
        self.words.fill(0);
    }

    /// `true` iff the edge is in `self` and not in `other` ("fresh"):
    /// both bitsets share a stride, so the bit index is computed once for
    /// the paired probe the sweep/extension inner loops make.
    #[inline]
    fn fresh(&self, other: &EdgeBits, u: u32, v: u32) -> bool {
        debug_assert_eq!(self.stride, other.stride);
        let (w, m) = self.bit(u, v);
        self.words[w] & m != 0 && other.words[w] & m == 0
    }

    #[inline]
    fn bit(&self, u: u32, v: u32) -> (usize, u64) {
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        let idx = a as usize * self.stride + b as usize;
        (idx / 64, 1u64 << (idx % 64))
    }

    fn insert(&mut self, u: u32, v: u32) {
        let (w, m) = self.bit(u, v);
        self.words[w] |= m;
    }

    fn remove(&mut self, u: u32, v: u32) {
        let (w, m) = self.bit(u, v);
        self.words[w] &= !m;
    }

    #[inline]
    fn contains(&self, u: u32, v: u32) -> bool {
        let (w, m) = self.bit(u, v);
        self.words[w] & m != 0
    }
}

/// Flat per-route geometry cache: qubit → grid coordinate and site →
/// qubit, replacing the division in [`FpqaConfig::coord_of`] and the
/// asserted multiply in [`FpqaConfig::qubit_at`] on the per-cross hot
/// path (both run once per occupied cross per scored row).
struct Geometry {
    /// `(row, col)` per data qubit.
    coords: Vec<(usize, usize)>,
    /// Row-major `slm_rows × slm_cols` grid; `u32::MAX` marks a site
    /// with no data qubit.
    grid: Vec<u32>,
    cols: usize,
}

impl Geometry {
    fn build(config: &FpqaConfig, num_qubits: u32) -> Self {
        let (rows, cols) = (config.slm().rows(), config.slm().cols());
        let mut grid = vec![u32::MAX; rows * cols];
        let mut coords = Vec::with_capacity(num_qubits as usize);
        for q in 0..num_qubits {
            let c = config.coord_of(q);
            coords.push((c.row, c.col));
            grid[c.row * cols + c.col] = q;
        }
        Geometry { coords, grid, cols }
    }

    #[inline]
    fn coord(&self, q: u32) -> (usize, usize) {
        self.coords[q as usize]
    }

    /// Data qubit at `(row, col)`; rows/cols seen by the search always
    /// come from live bucket keys or active column patterns, both inside
    /// the grid.
    #[inline]
    fn qubit_at(&self, row: usize, col: usize) -> Option<u32> {
        let q = self.grid[row * self.cols + col];
        (q != u32::MAX).then_some(q)
    }
}

/// Read-only state shared by every candidate evaluation of one stage.
struct SearchContext<'a> {
    remaining: &'a BTreeSet<(u32, u32)>,
    edge_bits: &'a EdgeBits,
    buckets: &'a EdgeBuckets,
    geom: &'a Geometry,
    /// The stage's column-extension candidate stream — `buckets.oriented`
    /// flattened once per stage with each edge's `(home col, target col)`
    /// precomputed, since every candidate of the stage walks the same
    /// stream.
    oriented: &'a [(u32, u32, u32, u32)],
    config: &'a FpqaConfig,
    num_qubits: u32,
    used_rows: usize,
    slm_rows: usize,
    options: &'a QaoaRouterOptions,
}

/// First-row matchings memoised per anchor bucket across stages: the
/// greedy column insertion depends only on the bucket's contents (sorted
/// iteration) and static geometry, so it is recomputed only when the
/// bucket's modification stamp moves — on a 3-regular graph most anchor
/// buckets survive a committed stage untouched.
#[derive(Debug, Default)]
struct FirstRowMemo {
    map: HashMap<(usize, usize), (u64, PairMatcher)>,
}

impl FirstRowMemo {
    fn get(
        &mut self,
        buckets: &EdgeBuckets,
        config: &FpqaConfig,
        key: (usize, usize),
    ) -> &PairMatcher {
        let stamp = buckets.stamp(key);
        let entry = self
            .map
            .entry(key)
            .or_insert_with(|| (u64::MAX, PairMatcher::new()));
        if entry.0 != stamp {
            entry.1 = first_row_matching(&buckets.map[&key], config);
            entry.0 = stamp;
        }
        &entry.1
    }
}

/// The maximum greedy first-row matching over a bucket: column insertion
/// in sorted edge order; each (normalised) edge may seed one orientation
/// only — both at once would execute it twice in the same pulse.
fn first_row_matching(bucket: &BTreeSet<(u32, u32)>, config: &FpqaConfig) -> PairMatcher {
    let mut cols = PairMatcher::new();
    let mut seeded: HashSet<(u32, u32)> = HashSet::new();
    for &(src, tgt) in bucket {
        let e = (src.min(tgt), src.max(tgt));
        if seeded.contains(&e) {
            continue;
        }
        if cols.insert(config.coord_of(src).col, config.coord_of(tgt).col) {
            seeded.insert(e);
        }
    }
    cols
}

/// The sparse seed: only the bucket's first edge opens the column
/// pattern, which often lets *more rows* match on sparse graphs. (An
/// empty matcher accepts any first pair, so this is exactly the
/// `seed_all = false` prefix of the greedy scan.)
fn sparse_first_row(bucket: &BTreeSet<(u32, u32)>, config: &FpqaConfig) -> PairMatcher {
    let mut cols = PairMatcher::new();
    if let Some(&(src, tgt)) = bucket.iter().next() {
        let inserted = cols.insert(config.coord_of(src).col, config.coord_of(tgt).col);
        debug_assert!(inserted, "empty matcher accepts any pair");
    }
    cols
}

/// Reusable per-candidate working buffers. The selection walk builds up
/// to ~16 candidates per stage; sharing one scratch across them keeps
/// allocation out of the search. The contents never outlive one
/// [`build_candidate`] call, so reuse is invisible to the result.
struct CandidateScratch {
    /// Edges matched by the candidate under construction.
    stage_matched: EdgeBits,
    /// Snapshot of `stage_matched` taken before column extension.
    pre_extension: EdgeBits,
    /// Column-pair evaluation stamps (`usize::MAX` = never evaluated).
    evaluated: Vec<usize>,
}

impl CandidateScratch {
    fn new(num_qubits: u32, slm_cols: usize) -> Self {
        CandidateScratch {
            stage_matched: EdgeBits::new(num_qubits as usize),
            pre_extension: EdgeBits::new(num_qubits as usize),
            evaluated: vec![usize::MAX; slm_cols * slm_cols],
        }
    }
}

/// Greedy stage construction following Alg. 3, with the paper's "maximum
/// matching on the first row" refinement: among the densest (AOD row, SLM
/// row) buckets of remaining edges, build candidate stages (dense and
/// sparse column seeds, plus a post-sweep column-extension pass) and keep
/// the one executing the most edges.
///
/// The search is a pure argmax over the candidates, so two
/// accelerations leave the chosen stage byte-identical (pinned by the
/// pre-optimisation goldens):
///
/// * first-row matchings come from [`FirstRowMemo`] instead of being
///   rebuilt per stage;
/// * an anchor whose bucket edge set is a subset of the current best
///   candidate's matched set is skipped before either of its seeds is
///   built — it seeds no column pattern the best stage does not
///   already execute.
fn solve_stage(ctx: &SearchContext<'_>, memo: &mut FirstRowMemo) -> StageSolution {
    // Candidate anchors: the densest buckets, plus the bucket holding the
    // globally smallest edge (the paper's e0) as a deterministic fallback.
    // Bucket sizes ride along in the sort key (one map pass) rather than
    // being re-fetched inside the comparator.
    let &(a0, b0) = ctx.remaining.iter().next().expect("non-empty edge set");
    // Bounded selection instead of a full sort: one pass keeps the k
    // smallest sort keys in a sorted scratch array (most entries lose a
    // single comparison against the current k-th). The key order is
    // total ((r, y) is unique per bucket), so the selected keys — and
    // with them the argmax — are exactly the full sort's first k.
    let k = ctx.options.anchor_candidates.max(1);
    let mut keyed: Vec<(std::cmp::Reverse<usize>, usize, usize)> = Vec::with_capacity(k + 1);
    for (key, bucket) in ctx.buckets.map.iter() {
        let entry = (std::cmp::Reverse(bucket.len()), key.0, key.1);
        if keyed.len() == k {
            if entry >= *keyed.last().expect("k >= 1") {
                continue;
            }
            keyed.pop();
        }
        let at = keyed.partition_point(|e| *e < entry);
        keyed.insert(at, entry);
    }
    let mut keys: Vec<(usize, usize)> = keyed.into_iter().map(|(_, r, y)| (r, y)).collect();
    let e0_key = (ctx.geom.coord(a0).0, ctx.geom.coord(b0).0);
    if !keys.contains(&e0_key) {
        keys.push(e0_key);
    }

    // Selection walk over the anchors in key order, building each
    // candidate lazily: a dominated anchor is skipped before its memo
    // entry or either seed is touched; otherwise its dense seed is tried,
    // then its sparse seed. A candidate replaces the best only when
    // strictly better, so ties break toward the earliest.
    let mut scratch = CandidateScratch::new(ctx.num_qubits, ctx.config.slm().cols());
    let mut best: Option<StageSolution> = None;
    let mut best_matched = EdgeBits::new(ctx.num_qubits as usize);
    for key in keys {
        let bucket = &ctx.buckets.map[&key];
        if best.is_some() && bucket.iter().all(|&(u, v)| best_matched.contains(u, v)) {
            continue;
        }
        let dense = memo.get(ctx.buckets, ctx.config, key).clone();
        // A sparse seed equal to the dense one (single-insertion bucket)
        // builds the identical candidate, which can never be strictly
        // better, so it is not built.
        let sparse = sparse_first_row(bucket, ctx.config);
        let sparse = (sparse.pairs() != dense.pairs()).then_some(sparse);
        for cols in std::iter::once(dense).chain(sparse) {
            let candidate = build_candidate(ctx, key.0, key.1, cols, &mut scratch);
            if best
                .as_ref()
                .is_none_or(|b| candidate.matched.len() > b.matched.len())
            {
                best_matched.clear();
                for &(u, v) in &candidate.matched {
                    best_matched.insert(u, v);
                }
                best = Some(candidate);
            }
        }
    }
    let sol = best.expect("at least the e0 bucket yields a stage");
    debug_assert!(!sol.matched.is_empty());
    sol
}

/// Builds one candidate stage anchored at AOD row `r0` targeting SLM row
/// `y0`, from a pre-built first-row column pattern: commit the anchor
/// row, sweep the remaining AOD rows down then up, then try to grow the
/// column pattern against the committed rows.
fn build_candidate(
    ctx: &SearchContext<'_>,
    r0: usize,
    y0: usize,
    active_cols: PairMatcher,
    scratch: &mut CandidateScratch,
) -> StageSolution {
    let norm = |u: u32, v: u32| (u.min(v), u.max(v));
    let qubit_at = |row: usize, col: usize| -> Option<u32> { ctx.geom.qubit_at(row, col) };
    let used_rows = ctx.used_rows;
    let mut sol = StageSolution {
        active_cols,
        ..StageSolution::default()
    };

    // Row sweep. Matched set is tracked to reject double execution — as
    // a bitset: the score closure probes it once per occupied cross in
    // the innermost sweep loop.
    let CandidateScratch {
        stage_matched,
        pre_extension,
        evaluated,
    } = scratch;
    stage_matched.clear();

    // Commit the anchor row's matches.
    sol.active_rows.push((r0, y0));
    for &(hc, tc) in sol.active_cols.pairs() {
        if let (Some(u), Some(v)) = (qubit_at(r0, hc), qubit_at(y0, tc)) {
            stage_matched.insert(u, v);
            sol.matched.push((u, v));
        }
    }

    let slm_rows = ctx.slm_rows;
    // Scores a candidate (aod_row, y) placement: Some(count) iff every
    // occupied cross is a fresh remaining edge.
    let score =
        |aod_row: usize, y: usize, cols: &PairMatcher, matched: &EdgeBits| -> Option<usize> {
            let mut count = 0usize;
            for &(hc, tc) in cols.pairs() {
                if let (Some(u), Some(v)) = (qubit_at(aod_row, hc), qubit_at(y, tc)) {
                    if ctx.edge_bits.fresh(matched, u, v) {
                        count += 1;
                    } else {
                        return None;
                    }
                }
            }
            Some(count)
        };
    let commit =
        |sol: &mut StageSolution, matched: &mut EdgeBits, aod_row: usize, y: usize, front: bool| {
            if front {
                sol.active_rows.insert(0, (aod_row, y));
            } else {
                sol.active_rows.push((aod_row, y));
            }
            for &(hc, tc) in sol.active_cols.pairs() {
                if let (Some(u), Some(v)) = (qubit_at(aod_row, hc), qubit_at(y, tc)) {
                    matched.insert(u, v);
                    sol.matched.push((u, v));
                }
            }
        };

    // The sweeps score only SLM rows with a live `(aod_row, y)` bucket: a
    // placement matching `count > 0` edges needs an edge whose source
    // home row is `aod_row` and target row is `y` — exactly that bucket's
    // signature — so empty rows can only ever score 0 and never win over
    // `None` under the strict `count > 0` guard.
    let live_rows_of = |aod_row: usize| -> &[usize] {
        ctx.buckets
            .rows_of
            .get(&aod_row)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    };

    // Downward sweep: AOD rows below the anchor map to SLM rows below y0.
    let mut last_y = y0;
    let mut parked_since = 0usize;
    for aod_row in (r0 + 1)..used_rows {
        let live_rows = live_rows_of(aod_row);
        let min_y = last_y + parked_since.max(1);
        let start = live_rows.partition_point(|&y| y < min_y);
        let mut best: Option<(usize, usize)> = None; // (count, y)
        for &y in &live_rows[start..] {
            if y >= slm_rows {
                break;
            }
            if let Some(count) = score(aod_row, y, &sol.active_cols, stage_matched) {
                if count > 0 && best.map(|(c, _)| count > c).unwrap_or(true) {
                    best = Some((count, y));
                }
            }
        }
        if let Some((_, y)) = best {
            commit(&mut sol, stage_matched, aod_row, y, false);
            last_y = y;
            parked_since = 0;
        } else {
            parked_since += 1;
        }
    }

    // Upward sweep: AOD rows above the anchor map to SLM rows above y0,
    // with the mirrored gap-capacity rule for parked rows. Ties must
    // break toward the *largest* y (the old scan walked y downward), so
    // the live-row slice is iterated in reverse.
    let mut first_y = y0 as isize;
    let mut parked_above = 0isize;
    for aod_row in (0..r0).rev() {
        let live_rows = live_rows_of(aod_row);
        let max_y = first_y - parked_above.max(1);
        let mut best: Option<(usize, usize)> = None;
        if max_y >= 0 {
            let end = live_rows.partition_point(|&y| y <= max_y as usize);
            for &y in live_rows[..end].iter().rev() {
                if let Some(count) = score(aod_row, y, &sol.active_cols, stage_matched) {
                    if count > 0 && best.map(|(c, _)| count > c).unwrap_or(true) {
                        best = Some((count, y));
                    }
                }
            }
        }
        if let Some((_, y)) = best {
            commit(&mut sol, stage_matched, aod_row, y, true);
            first_y = y as isize;
            parked_above = 0;
        } else {
            parked_above += 1;
        }
    }

    // Column extension: with the rows fixed, try to grow the column
    // pattern. A new column pair is legal iff every committed row's cross
    // lands on a fresh remaining edge (or on a missing atom). Candidates
    // stream from the incrementally-maintained oriented set; the filter
    // snapshot keeps the original semantics (candidates were collected
    // against the pre-extension matched set, while per-row legality uses
    // the live one).
    if !ctx.options.column_extension {
        return sol;
    }
    pre_extension.words.copy_from_slice(&stage_matched.words);
    // Distinct oriented edges can map onto the same `(home col, target
    // col)` pair; re-evaluating the pair with unchanged matcher state is
    // a no-op, so evaluations are version-stamped by the committed column
    // count (the only state — `active_cols` and `stage_matched` — that
    // the legality scan reads moves exactly when a pair commits). The
    // stamps live in a flat per-column-pair array: `usize::MAX` = never
    // evaluated.
    let slm_cols = ctx.config.slm().cols();
    evaluated.fill(usize::MAX);
    let mut version = sol.active_cols.pairs().len();
    let mut new_matches: Vec<(u32, u32)> = Vec::new();
    for &(src, tgt, hc, tc) in ctx.oriented {
        // Stamp test first: it is one load and rejects every repeat of an
        // already-evaluated pair, which is most of the stream. The order
        // swap with the matched-edge test cannot change the outcome —
        // the stamp is only *written* for unmatched proposing edges, so
        // a pair still gets its evaluation at the first unmatched
        // proposal, exactly as before.
        let (hc, tc) = (hc as usize, tc as usize);
        let stamp = &mut evaluated[hc * slm_cols + tc];
        if *stamp == version {
            continue;
        }
        if pre_extension.contains(src, tgt) {
            continue;
        }
        *stamp = version;
        if !sol.active_cols.can_insert(hc, tc) {
            continue;
        }
        new_matches.clear();
        let mut ok = true;
        for &(aod_row, y) in &sol.active_rows {
            if let (Some(u), Some(v)) = (qubit_at(aod_row, hc), qubit_at(y, tc)) {
                let e = norm(u, v);
                if ctx.edge_bits.fresh(stage_matched, u, v)
                    && !new_matches.iter().any(|&(a, b)| norm(a, b) == e)
                {
                    new_matches.push((u, v));
                } else {
                    ok = false;
                    break;
                }
            }
        }
        if ok && !new_matches.is_empty() {
            let inserted = sol.active_cols.insert(hc, tc);
            debug_assert!(inserted, "can_insert pre-checked");
            version = sol.active_cols.pairs().len();
            for &(u, v) in &new_matches {
                stage_matched.insert(u, v);
                sol.matched.push((u, v));
            }
        }
    }
    sol
}

/// Physical coordinates for a solved stage: active lines at `target + off`,
/// parked lines on midpoints (leading / in-between / trailing).
fn stage_coords(
    sol: &StageSolution,
    schedule: &Schedule,
    config: &FpqaConfig,
    used_rows: usize,
    used_cols: usize,
) -> (Vec<f64>, Vec<f64>) {
    let pitch = config.pitch_um();
    let off = OFFSET_MIN + 0.35;
    let half = pitch / 2.0;

    let build = |active: &[(usize, usize)], used: usize, total: usize| -> Vec<f64> {
        let mut coords = vec![f64::NAN; total];
        for &(h, t) in active {
            coords[h] = t as f64 * pitch + off;
        }
        // Leading parked lines: midpoints walking up/left from the first
        // active target.
        let first_active_home = active.first().map(|&(h, _)| h).unwrap_or(used);
        let first_active_target = active.first().map(|&(_, t)| t).unwrap_or(0);
        for (i, coord) in coords.iter_mut().enumerate().take(first_active_home) {
            let steps = first_active_home - i;
            *coord = first_active_target as f64 * pitch - half - (steps - 1) as f64 * pitch;
        }
        // In-between parked lines: midpoints after the left neighbour.
        for w in 0..active.len().saturating_sub(1) {
            let (lh, lt) = active[w];
            let (rh, _) = active[w + 1];
            for (j, i) in ((lh + 1)..rh).enumerate() {
                coords[i] = lt as f64 * pitch + half + j as f64 * pitch;
            }
        }
        // Trailing lines (parked and beyond `used`).
        let (last_home, last_target) = active.last().copied().unwrap_or((0, 0));
        let mut j = 0;
        for coord in coords.iter_mut().take(total).skip(last_home + 1) {
            if coord.is_nan() {
                *coord = last_target as f64 * pitch + half + (j + 1) as f64 * pitch;
                j += 1;
            }
        }
        debug_assert!(coords.iter().all(|c| !c.is_nan()));
        debug_assert!(coords.windows(2).all(|w| w[0] < w[1]), "{coords:?}");
        coords
    };

    (
        build(&sol.active_rows, used_rows, schedule.aod_rows),
        build(sol.active_cols.pairs(), used_cols, schedule.aod_cols),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_schedule;

    #[test]
    fn column_matcher_orders() {
        let mut active = PairMatcher::new();
        assert!(active.insert(1, 2));
        // Left of (1 -> 2): home 0, target must be < 2.
        assert!(active.insert(0, 0));
        assert_eq!(active.pairs(), &[(0, 0), (1, 2)]);
        // Inversion rejected.
        assert!(!active.insert(2, 1));
        // Append right.
        assert!(active.insert(3, 3));
        assert_eq!(active.len(), 3);
    }

    #[test]
    fn column_matcher_gap_capacity() {
        let mut active = PairMatcher::new();
        assert!(active.insert(0, 0));
        // home 3 leaves 2 parked columns between; target 1 offers only
        // 1 midpoint slot -> reject.
        assert!(!active.insert(3, 1));
        // target 3 offers 3 slots -> accept.
        assert!(active.insert(3, 3));
    }

    #[test]
    fn route_ring_graph() {
        let cfg = FpqaConfig::for_qubits(4, 2);
        let edges = [(0, 1), (1, 2), (2, 3), (0, 3)];
        let p = QaoaRouter::new().route_edges(4, &edges, 0.5, &cfg).unwrap();
        let report = validate_schedule(p.schedule(), &cfg).expect("valid schedule");
        assert_eq!(report.leftover_ancillas, 0);
        // 2n create/recycle + one per edge.
        assert_eq!(p.stats().two_qubit_gates, 8 + 4);
        assert_eq!(p.schedule().num_ancillas, 4);
    }

    #[test]
    fn fig7_example_parallelism() {
        // Fig. 7: 12 qubits on 3x4; first stage executes 4 edges in
        // parallel: (0,1), (1,3), (4,9), (5,11).
        let cfg = FpqaConfig::for_qubits(12, 4);
        let edges = [(0u32, 1u32), (1, 3), (4, 9), (5, 11)];
        let p = QaoaRouter::new()
            .route_edges(12, &edges, 0.3, &cfg)
            .unwrap();
        validate_schedule(p.schedule(), &cfg).expect("valid schedule");
        // create + 1 stage + recycle = 3 pulses.
        assert_eq!(
            p.stats().two_qubit_depth,
            3,
            "expected single-stage execution: {}",
            p.schedule()
        );
    }

    #[test]
    fn all_edges_execute_exactly_once() {
        let cfg = FpqaConfig::for_qubits(9, 3);
        let edges = [(0, 1), (0, 2), (1, 2), (3, 4), (4, 8), (2, 5), (6, 7)];
        let p = QaoaRouter::new().route_edges(9, &edges, 0.4, &cfg).unwrap();
        validate_schedule(p.schedule(), &cfg).expect("valid schedule");
        let zz_count: usize = p
            .schedule()
            .rydberg_stages()
            .map(|ops| {
                ops.iter()
                    .filter(|o| matches!(o.kind, crate::RydbergKind::Zz(_)))
                    .count()
            })
            .sum();
        assert_eq!(zz_count, edges.len());
    }

    #[test]
    fn depth_grows_with_conflicts() {
        // A star graph forces serial stages: every edge shares qubit 0's
        // SLM atom as target or its ancilla as source.
        let cfg = FpqaConfig::for_qubits(9, 3);
        let star: Vec<(u32, u32)> = (1..9).map(|q| (0, q)).collect();
        let p = QaoaRouter::new().route_edges(9, &star, 0.1, &cfg).unwrap();
        validate_schedule(p.schedule(), &cfg).expect("valid schedule");
        assert!(p.stats().two_qubit_depth > 3);
    }

    #[test]
    fn invalid_edges_rejected() {
        let cfg = FpqaConfig::for_qubits(4, 2);
        let r = QaoaRouter::new();
        assert!(matches!(
            r.route_edges(4, &[(0, 0)], 0.1, &cfg),
            Err(RouteError::InvalidEdge { .. })
        ));
        assert!(matches!(
            r.route_edges(4, &[(0, 7)], 0.1, &cfg),
            Err(RouteError::InvalidEdge { .. })
        ));
    }

    #[test]
    fn empty_graph_is_trivial() {
        let cfg = FpqaConfig::for_qubits(4, 2);
        let p = QaoaRouter::new().route_edges(4, &[], 0.1, &cfg).unwrap();
        assert_eq!(p.stats().two_qubit_gates, 0);
    }

    #[test]
    fn qaoa_round_wraps_cost_layer() {
        let cfg = FpqaConfig::for_qubits(4, 2);
        let edges = [(0, 1), (2, 3)];
        let p = QaoaRouter::new()
            .route_qaoa_round(4, &edges, 0.7, 0.3, &cfg)
            .unwrap();
        validate_schedule(p.schedule(), &cfg).expect("valid schedule");
        // 4 H + mixers 4 RX + ancilla hadamards.
        assert!(p.stats().one_qubit_gates >= 8);
    }

    #[test]
    fn duplicate_edges_collapse() {
        let cfg = FpqaConfig::for_qubits(4, 2);
        let p = QaoaRouter::new()
            .route_edges(4, &[(0, 1), (1, 0)], 0.2, &cfg)
            .unwrap();
        // Normalised: a single edge.
        assert_eq!(p.stats().two_qubit_gates, 8 + 1);
    }
}
