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

use std::cmp::Reverse;
use std::hash::{BuildHasher, RandomState};

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
        let mut normalised: Vec<(u32, u32)> = Vec::with_capacity(edges.len());
        for &(a, b) in edges {
            if a == b || a >= num_qubits || b >= num_qubits {
                return Err(RouteError::InvalidEdge { a, b });
            }
            normalised.push((a.min(b), a.max(b)));
        }
        if normalised.is_empty() {
            return Ok(());
        }
        normalised.sort_unstable();
        normalised.dedup();

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

        // Stage loop. The edge index, the buckets and the candidate stream
        // are built once per cost layer and shrink as edges execute; every
        // edge set the search keeps is a bitset over edge ids, so the
        // layer's working state is O(qubits + edges). The memo carries
        // first-row matchings across stages.
        let geom = Geometry::build(config, num_qubits);
        let index = EdgeIndex::build(normalised);
        let (mut buckets, mut stream, pairs) = EdgeBuckets::build(&index, &geom, used_rows);
        let mut remaining = EdgeBits::new(index.len());
        for e in 0..index.len() {
            remaining.insert(e);
        }
        let mut left = index.len();
        let mut first = 0;
        let mut memo = FirstRowMemo::new(buckets.keys.len());
        let mut scratch = CandidateScratch::new(index.len(), pairs);
        prof.lap_setup();
        while left > 0 {
            // Stage boundary: stop cleanly before solving the next stage.
            self.cancel.check()?;
            // Ids follow edge order and only ever leave the set, so the
            // smallest remaining edge (the paper's e0) only moves forward.
            while !remaining.contains(first) {
                first += 1;
            }
            stream.retain(|o| remaining.contains(o.edge as usize));
            let ctx = SearchContext {
                index: &index,
                remaining: &remaining,
                buckets: &buckets,
                geom: &geom,
                stream: &stream,
                first: index.edges[first],
                used_rows,
                slm_rows: config.slm().rows(),
                options: &self.options,
            };
            let solution = solve_stage(&ctx, &mut memo, &mut scratch);
            debug_assert!(!solution.matched.is_empty(), "stage must match >= 1 edge");
            for &(u, v) in &solution.matched {
                remaining.remove(index.id(u, v).expect("matched edges are indexed"));
                buckets.remove(u, v, &geom);
            }
            left -= solution.matched.len();
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

/// The cost layer's edges, normalised to `(min, max)` and sorted; an
/// edge's id is its rank. Every edge set of the search is a bitset over
/// these ids, and an open-addressing table on the packed pair answers
/// `(u, v) → id` in O(1) expected time: the row sweeps ask once per
/// occupied cross. The hash multiplies by a random odd number drawn per
/// index, so the expectation holds for any edge list a request sends;
/// the table's layout never reaches the output.
struct EdgeIndex {
    edges: Vec<(u32, u32)>,
    /// A power-of-two table at most half full of `(packed pair, id)`;
    /// [`EdgeIndex::VACANT`] marks a free slot.
    slots: Vec<(u64, u32)>,
    multiplier: u64,
    /// `64 − log2(slots.len())`: the hash keeps the product's top bits.
    shift: u32,
}

impl EdgeIndex {
    /// No normalised pair packs to this: its halves would be equal.
    const VACANT: u64 = u64::MAX;

    /// Indexes `edges`, which must be normalised, sorted and distinct.
    fn build(edges: Vec<(u32, u32)>) -> Self {
        let size = (2 * edges.len()).next_power_of_two().max(2);
        let mut index = EdgeIndex {
            slots: vec![(Self::VACANT, 0); size],
            multiplier: RandomState::new().hash_one(size) | 1,
            shift: 64 - size.trailing_zeros(),
            edges,
        };
        for (id, &(u, v)) in index.edges.iter().enumerate() {
            let key = Self::pack(u, v);
            let mut slot = index.home(key);
            while index.slots[slot].0 != Self::VACANT {
                slot = (slot + 1) & (size - 1);
            }
            index.slots[slot] = (key, id as u32);
        }
        index
    }

    fn len(&self) -> usize {
        self.edges.len()
    }

    #[inline]
    fn pack(u: u32, v: u32) -> u64 {
        (u64::from(u.min(v)) << 32) | u64::from(u.max(v))
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(self.multiplier) >> self.shift) as usize
    }

    /// The id of edge `{u, v}`, in either orientation.
    #[inline]
    fn id(&self, u: u32, v: u32) -> Option<usize> {
        let key = Self::pack(u, v);
        let mask = self.slots.len() - 1;
        let mut slot = self.home(key);
        loop {
            let (k, id) = self.slots[slot];
            if k == key {
                return Some(id as usize);
            }
            if k == Self::VACANT {
                return None;
            }
            slot = (slot + 1) & mask;
        }
    }
}

/// A set of edge ids, one bit each: the long-lived mirror of the
/// remaining edges and the per-candidate matched sets. The row sweeps
/// and the column extension test membership in their innermost loops;
/// clearing or copying a set touches `edges / 64` words.
#[derive(Debug, Clone)]
struct EdgeBits {
    words: Vec<u64>,
}

impl EdgeBits {
    fn new(edges: usize) -> Self {
        EdgeBits {
            words: vec![0; edges.div_ceil(64)],
        }
    }

    fn clear(&mut self) {
        self.words.fill(0);
    }

    fn copy_from(&mut self, other: &EdgeBits) {
        self.words.copy_from_slice(&other.words);
    }

    #[inline]
    fn contains(&self, id: usize) -> bool {
        self.words[id / 64] & (1 << (id % 64)) != 0
    }

    fn insert(&mut self, id: usize) {
        self.words[id / 64] |= 1 << (id % 64);
    }

    fn remove(&mut self, id: usize) {
        self.words[id / 64] &= !(1 << (id % 64));
    }
}

/// One orientation of an edge: the ancilla of `src` meets the atom of
/// `tgt`, so the AOD column homed at `hc` must target SLM column `tc`.
#[derive(Debug, Clone, Copy)]
struct Oriented {
    src: u32,
    tgt: u32,
    hc: u32,
    tc: u32,
    /// The edge's id in the [`EdgeIndex`].
    edge: u32,
    /// A dense id for the column pair `(hc, tc)`.
    pair: u32,
}

/// Remaining edges bucketed by `(ancilla home row, target SLM row)` in
/// both orientations, maintained incrementally across stages: edges leave
/// their two buckets as they execute. Every array is flat and sized by
/// the edges or the used rows. Bucket ids follow key order, so one home
/// row's buckets are a contiguous id range, and ordering buckets by id is
/// ordering them by key.
#[derive(Debug)]
struct EdgeBuckets {
    /// `(home row, target row)` per bucket id, increasing.
    keys: Vec<(usize, usize)>,
    /// Bucket `b` holds `entries[start[b]..start[b] + len[b]]`, sorted by
    /// `(src, tgt)`: the order the anchor seeds insert columns in.
    entries: Vec<Oriented>,
    start: Vec<usize>,
    len: Vec<usize>,
    /// Home row `r`'s bucket ids are `row_start[r]..row_start[r + 1]`.
    row_start: Vec<usize>,
    /// Home row `r`'s SLM target rows with a live bucket, ascending, at
    /// `row_ys[row_start[r]..row_start[r] + row_len[r]]`. The row sweeps
    /// scan only these: a `(aod_row, y)` placement can match an edge iff
    /// bucket `(aod_row, y)` is non-empty (a matched edge's source sits on
    /// `aod_row` and its target on `y` — exactly that bucket's
    /// signature), so skipping empty rows is outcome-exact.
    row_ys: Vec<usize>,
    row_len: Vec<usize>,
    /// The live bucket ids in no particular order, for the anchor scan,
    /// and each live bucket's position in it.
    live: Vec<usize>,
    live_at: Vec<usize>,
    /// Per-bucket modification stamps for [`FirstRowMemo`] invalidation
    /// (0 = untouched since build).
    mods: Vec<u64>,
    tick: u64,
}

impl EdgeBuckets {
    /// Buckets every edge of `index` in both orientations. Also returns
    /// the column-extension candidate stream — every orientation sorted
    /// by `(src, tgt)` — and the number of distinct column pairs.
    fn build(index: &EdgeIndex, geom: &Geometry, used_rows: usize) -> (Self, Vec<Oriented>, usize) {
        let mut entries = Vec::with_capacity(2 * index.len());
        for (id, &(u, v)) in index.edges.iter().enumerate() {
            for (src, tgt) in [(u, v), (v, u)] {
                entries.push(Oriented {
                    src,
                    tgt,
                    hc: geom.coord(src).1 as u32,
                    tc: geom.coord(tgt).1 as u32,
                    edge: id as u32,
                    pair: 0,
                });
            }
        }
        let mut pairs: Vec<(u32, u32)> = entries.iter().map(|o| (o.hc, o.tc)).collect();
        pairs.sort_unstable();
        pairs.dedup();
        for o in &mut entries {
            o.pair = pairs.partition_point(|&p| p < (o.hc, o.tc)) as u32;
        }
        let mut stream = entries.clone();
        stream.sort_unstable_by_key(|o| (o.src, o.tgt));

        let key_of = |o: &Oriented| (geom.coord(o.src).0, geom.coord(o.tgt).0);
        entries.sort_unstable_by_key(|o| (key_of(o), o.src, o.tgt));
        let mut keys = Vec::new();
        let mut start = Vec::new();
        let mut len = Vec::new();
        for (i, o) in entries.iter().enumerate() {
            if keys.last() != Some(&key_of(o)) {
                keys.push(key_of(o));
                start.push(i);
                len.push(0);
            }
            *len.last_mut().expect("a bucket was opened") += 1;
        }
        let mut row_start = vec![0; used_rows + 1];
        for &(r, _) in &keys {
            row_start[r + 1] += 1;
        }
        for r in 0..used_rows {
            row_start[r + 1] += row_start[r];
        }
        let buckets = EdgeBuckets {
            row_ys: keys.iter().map(|&(_, y)| y).collect(),
            row_len: row_start.windows(2).map(|w| w[1] - w[0]).collect(),
            row_start,
            live: (0..keys.len()).collect(),
            live_at: (0..keys.len()).collect(),
            mods: vec![0; keys.len()],
            tick: 0,
            keys,
            entries,
            start,
            len,
        };
        (buckets, stream, pairs.len())
    }

    /// The id of bucket `(r, y)`, live or not, if any edge ever had it.
    fn bucket_at(&self, r: usize, y: usize) -> Option<usize> {
        let first = self.row_start[r];
        self.keys[first..self.row_start[r + 1]]
            .binary_search_by_key(&y, |&(_, y)| y)
            .ok()
            .map(|i| first + i)
    }

    /// Bucket `b`'s remaining edges, sorted by `(src, tgt)`.
    fn edges(&self, b: usize) -> &[Oriented] {
        &self.entries[self.start[b]..self.start[b] + self.len[b]]
    }

    /// Home row `r`'s target rows with a live bucket, ascending.
    fn live_rows(&self, r: usize) -> &[usize] {
        &self.row_ys[self.row_start[r]..self.row_start[r] + self.row_len[r]]
    }

    /// Removes an executed edge's two orientations; an emptied bucket
    /// leaves the live list and its row's target rows, so the anchor scan
    /// and the row sweeps only ever see live buckets.
    fn remove(&mut self, u: u32, v: u32, geom: &Geometry) {
        for (src, tgt) in [(u, v), (v, u)] {
            let (r, y) = (geom.coord(src).0, geom.coord(tgt).0);
            let b = self
                .bucket_at(r, y)
                .expect("every orientation has a bucket");
            let bucket = &mut self.entries[self.start[b]..self.start[b] + self.len[b]];
            let i = bucket
                .binary_search_by_key(&(src, tgt), |o| (o.src, o.tgt))
                .expect("an executing edge is still bucketed");
            bucket.copy_within(i + 1.., i);
            self.len[b] -= 1;
            self.tick += 1;
            self.mods[b] = self.tick;
            if self.len[b] == 0 {
                let at = self.live_at[b];
                self.live.swap_remove(at);
                if let Some(&moved) = self.live.get(at) {
                    self.live_at[moved] = at;
                }
                let ys = &mut self.row_ys[self.row_start[r]..self.row_start[r] + self.row_len[r]];
                let j = ys.binary_search(&y).expect("a live bucket's row is listed");
                ys.copy_within(j + 1.., j);
                self.row_len[r] -= 1;
            }
        }
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
    index: &'a EdgeIndex,
    remaining: &'a EdgeBits,
    buckets: &'a EdgeBuckets,
    geom: &'a Geometry,
    /// The column-extension candidate stream: every remaining edge in
    /// both orientations, sorted by `(src, tgt)`.
    stream: &'a [Oriented],
    /// The smallest remaining edge (the paper's e0).
    first: (u32, u32),
    used_rows: usize,
    slm_rows: usize,
    options: &'a QaoaRouterOptions,
}

impl SearchContext<'_> {
    /// The id of edge `{u, v}` iff it remains and `matched` lacks it.
    #[inline]
    fn fresh(&self, matched: &EdgeBits, u: u32, v: u32) -> Option<usize> {
        self.index
            .id(u, v)
            .filter(|&e| self.remaining.contains(e) && !matched.contains(e))
    }
}

/// First-row matchings memoised per anchor bucket across stages: the
/// greedy column insertion depends only on the bucket's contents (sorted
/// iteration) and static geometry, so it is recomputed only when the
/// bucket's modification stamp moves — on a 3-regular graph most anchor
/// buckets survive a committed stage untouched.
#[derive(Debug)]
struct FirstRowMemo {
    /// `(stamp, matching)` per bucket id; `u64::MAX` = never built.
    entries: Vec<(u64, PairMatcher)>,
}

impl FirstRowMemo {
    fn new(buckets: usize) -> Self {
        FirstRowMemo {
            entries: vec![(u64::MAX, PairMatcher::new()); buckets],
        }
    }

    fn get(&mut self, buckets: &EdgeBuckets, b: usize) -> &PairMatcher {
        let stamp = buckets.mods[b];
        let entry = &mut self.entries[b];
        if entry.0 != stamp {
            entry.1 = first_row_matching(buckets.edges(b));
            entry.0 = stamp;
        }
        &entry.1
    }
}

/// The maximum greedy first-row matching over a bucket: column insertion
/// in sorted edge order. An edge may seed one orientation only — both at
/// once would execute it twice in the same pulse — and the matcher
/// enforces that by itself: both orientations share a bucket only when
/// both endpoints sit on one row, and then they propose the mirrored
/// pairs `(a, b)` and `(b, a)`, which no strictly increasing pattern
/// holds together.
fn first_row_matching(bucket: &[Oriented]) -> PairMatcher {
    let mut cols = PairMatcher::new();
    for o in bucket {
        cols.insert(o.hc as usize, o.tc as usize);
    }
    cols
}

/// The sparse seed: only the bucket's first edge opens the column
/// pattern, which often lets *more rows* match on sparse graphs. (An
/// empty matcher accepts any first pair, so this is exactly the
/// `seed_all = false` prefix of the greedy scan.)
fn sparse_first_row(bucket: &[Oriented]) -> PairMatcher {
    let mut cols = PairMatcher::new();
    if let Some(o) = bucket.first() {
        let inserted = cols.insert(o.hc as usize, o.tc as usize);
        debug_assert!(inserted, "empty matcher accepts any pair");
    }
    cols
}

/// Column-extension stamp of a pair that no fresh edge of a committed row
/// proposes: it can never commit, so it is never evaluated.
const NEVER: u32 = u32::MAX;
/// Column-extension stamp of a proposed pair before its first
/// evaluation: below every version, which is at least 1.
const NOT_YET: u32 = 0;

/// Reusable working buffers of one cost layer's stage search, sized by
/// its edges and column pairs and allocated once per layer. Their
/// contents never outlive one [`build_candidate`] call (`best_matched`:
/// one [`solve_stage`] call), so reuse is invisible to the result.
struct CandidateScratch {
    /// Edge ids matched by the candidate under construction.
    stage_matched: EdgeBits,
    /// Snapshot of `stage_matched` taken before column extension.
    pre_extension: EdgeBits,
    /// Edge ids matched by the stage's best candidate so far.
    best_matched: EdgeBits,
    /// Column-extension evaluation stamps per column-pair id: [`NEVER`],
    /// [`NOT_YET`], or the version a pair was last evaluated at.
    evaluated: Vec<u32>,
    /// One candidate column's matches: `(edge id, src, tgt)`.
    new_matches: Vec<(usize, u32, u32)>,
}

impl CandidateScratch {
    fn new(edges: usize, pairs: usize) -> Self {
        CandidateScratch {
            stage_matched: EdgeBits::new(edges),
            pre_extension: EdgeBits::new(edges),
            best_matched: EdgeBits::new(edges),
            evaluated: vec![NEVER; pairs],
            new_matches: Vec::new(),
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
fn solve_stage(
    ctx: &SearchContext<'_>,
    memo: &mut FirstRowMemo,
    scratch: &mut CandidateScratch,
) -> StageSolution {
    // Candidate anchors: the densest buckets, plus the bucket holding the
    // globally smallest edge (the paper's e0) as a deterministic fallback.
    //
    // Bounded selection instead of a full sort: one pass over the live
    // buckets keeps the k smallest sort keys in a sorted scratch array
    // (most entries lose a single comparison against the current k-th).
    // Bucket ids follow `(r, y)` order, so `(Reverse(size), id)` is the
    // total order `(Reverse(size), r, y)`: the selected keys — and with
    // them the argmax — are exactly the full sort's first k, whatever the
    // live list's order.
    let buckets = ctx.buckets;
    let k = ctx.options.anchor_candidates.max(1);
    let mut keyed: Vec<(Reverse<usize>, usize)> = Vec::with_capacity(k + 1);
    for &b in &buckets.live {
        let entry = (Reverse(buckets.len[b]), b);
        if keyed.len() == k {
            if entry >= *keyed.last().expect("k >= 1") {
                continue;
            }
            keyed.pop();
        }
        let at = keyed.partition_point(|e| *e < entry);
        keyed.insert(at, entry);
    }
    let mut anchors: Vec<usize> = keyed.into_iter().map(|(_, b)| b).collect();
    let (a0, b0) = ctx.first;
    let e0 = buckets
        .bucket_at(ctx.geom.coord(a0).0, ctx.geom.coord(b0).0)
        .expect("e0 has a live bucket");
    if !anchors.contains(&e0) {
        anchors.push(e0);
    }

    // Selection walk over the anchors in key order, building each
    // candidate lazily: a dominated anchor is skipped before its memo
    // entry or either seed is touched; otherwise its dense seed is tried,
    // then its sparse seed. A candidate replaces the best only when
    // strictly better, so ties break toward the earliest.
    let mut best: Option<StageSolution> = None;
    for b in anchors {
        let bucket = buckets.edges(b);
        if best.is_some()
            && bucket
                .iter()
                .all(|o| scratch.best_matched.contains(o.edge as usize))
        {
            continue;
        }
        let dense = memo.get(buckets, b).clone();
        // A sparse seed equal to the dense one (single-insertion bucket)
        // builds the identical candidate, which can never be strictly
        // better, so it is not built.
        let sparse = sparse_first_row(bucket);
        let sparse = (sparse.pairs() != dense.pairs()).then_some(sparse);
        let (r0, y0) = buckets.keys[b];
        for cols in std::iter::once(dense).chain(sparse) {
            let candidate = build_candidate(ctx, r0, y0, cols, scratch);
            if best
                .as_ref()
                .is_none_or(|b| candidate.matched.len() > b.matched.len())
            {
                // `stage_matched` holds exactly the candidate's matches.
                scratch.best_matched.copy_from(&scratch.stage_matched);
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
    let qubit_at = |row: usize, col: usize| -> Option<u32> { ctx.geom.qubit_at(row, col) };
    let edge_id = |u: u32, v: u32| ctx.index.id(u, v).expect("committed crosses are edges");
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
        new_matches,
        ..
    } = scratch;
    stage_matched.clear();

    // Commit the anchor row's matches: each seed pair is a bucket edge.
    sol.active_rows.push((r0, y0));
    for &(hc, tc) in sol.active_cols.pairs() {
        if let (Some(u), Some(v)) = (qubit_at(r0, hc), qubit_at(y0, tc)) {
            stage_matched.insert(edge_id(u, v));
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
                    ctx.fresh(matched, u, v)?;
                    count += 1;
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
                    matched.insert(edge_id(u, v));
                    sol.matched.push((u, v));
                }
            }
        };

    // The sweeps score only SLM rows with a live `(aod_row, y)` bucket: a
    // placement matching `count > 0` edges needs an edge whose source
    // home row is `aod_row` and target row is `y` — exactly that bucket's
    // signature — so empty rows can only ever score 0 and never win over
    // `None` under the strict `count > 0` guard.

    // Downward sweep: AOD rows below the anchor map to SLM rows below y0.
    let mut last_y = y0;
    let mut parked_since = 0usize;
    for aod_row in (r0 + 1)..used_rows {
        let live_rows = ctx.buckets.live_rows(aod_row);
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
        let live_rows = ctx.buckets.live_rows(aod_row);
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
    // come from the stage's oriented-edge stream; the `pre_extension`
    // snapshot keeps the original semantics (candidates were collected
    // against the pre-extension matched set, while per-row legality uses
    // the live one).
    if !ctx.options.column_extension {
        return sol;
    }
    pre_extension.copy_from(stage_matched);
    // Distinct oriented edges can map onto the same `(home col, target
    // col)` pair; re-evaluating the pair with unchanged matcher state is
    // a no-op, so evaluations are version-stamped by the committed column
    // count (the only state — `active_cols` and `stage_matched` — that
    // the legality scan reads moves exactly when a pair commits).
    //
    // The pair filter rides on the same stamps. A pair commits only with
    // a new match: a committed row `(r, y)` whose cross is a fresh edge.
    // That edge lies in bucket `(r, y)` with columns equal to the pair,
    // and it was already fresh before the extension (`stage_matched` only
    // grows here, and the remaining set is fixed within a stage). So only
    // the pairs of those edges start at `NOT_YET`; every other pair is
    // `NEVER` and is skipped by the stamp compare. A skipped evaluation
    // could only have written its own stamp, and the proposed pairs keep
    // their stream positions and their re-evaluation after each commit —
    // which matters, since `can_insert` is not monotone as columns are
    // added: only the cross condition may filter.
    evaluated.fill(NEVER);
    for &(r, y) in &sol.active_rows {
        let b = ctx
            .buckets
            .bucket_at(r, y)
            .expect("a committed row has a live bucket");
        for o in ctx.buckets.edges(b) {
            if !pre_extension.contains(o.edge as usize) {
                evaluated[o.pair as usize] = NOT_YET;
            }
        }
    }
    let mut version = sol.active_cols.len() as u32;
    debug_assert!(version > NOT_YET, "both seeds hold a pair");
    for o in ctx.stream {
        // Stamp test first: it is one load and rejects every filtered
        // pair and every repeat of an already-evaluated one, which is
        // most of the stream. The order swap with the matched-edge test
        // cannot change the outcome — the stamp is only *written* for
        // unmatched proposing edges, so a pair still gets its evaluation
        // at the first unmatched proposal.
        let stamp = &mut evaluated[o.pair as usize];
        if *stamp >= version {
            continue;
        }
        if pre_extension.contains(o.edge as usize) {
            continue;
        }
        *stamp = version;
        let (hc, tc) = (o.hc as usize, o.tc as usize);
        if !sol.active_cols.can_insert(hc, tc) {
            continue;
        }
        new_matches.clear();
        let mut ok = true;
        for &(aod_row, y) in &sol.active_rows {
            if let (Some(u), Some(v)) = (qubit_at(aod_row, hc), qubit_at(y, tc)) {
                match ctx.fresh(stage_matched, u, v) {
                    Some(e) if !new_matches.iter().any(|&(m, _, _)| m == e) => {
                        new_matches.push((e, u, v));
                    }
                    _ => {
                        ok = false;
                        break;
                    }
                }
            }
        }
        if ok && !new_matches.is_empty() {
            let inserted = sol.active_cols.insert(hc, tc);
            debug_assert!(inserted, "can_insert pre-checked");
            version = sol.active_cols.len() as u32;
            for &(e, u, v) in new_matches.iter() {
                stage_matched.insert(e);
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

        // Feasibility is not monotone as pairs are added: (4, 2) fails
        // beside (0, 0) alone (3 parked lines, 2 slots) but fits once
        // (2, 1) splits the gap. So the column extension re-evaluates a
        // rejected pair after every commit, and its pair filter may
        // only use the cross condition.
        let mut active = PairMatcher::new();
        assert!(active.insert(0, 0));
        assert!(!active.can_insert(4, 2));
        assert!(active.insert(2, 1));
        assert!(active.can_insert(4, 2));
    }

    #[test]
    fn edge_index_maps_both_orientations_to_the_rank() {
        // Every pair of 0..40 with an even sum is an edge: 380 edges, so
        // lookups probe past collisions, and half the pairs must miss.
        let edges: Vec<(u32, u32)> = (0..40u32)
            .flat_map(|u| ((u + 1)..40).map(move |v| (u, v)))
            .filter(|&(u, v)| (u + v) % 2 == 0)
            .collect();
        let index = EdgeIndex::build(edges.clone());
        for u in 0..40 {
            for v in (u + 1)..40 {
                let id = edges.binary_search(&(u, v)).ok();
                assert_eq!(index.id(u, v), id, "({u}, {v})");
                assert_eq!(index.id(v, u), id, "({v}, {u})");
            }
        }
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
