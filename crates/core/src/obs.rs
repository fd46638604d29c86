//! Zero-dependency observability primitives: log-linear latency
//! histograms and span timers, shared by the routers, the serving tier
//! and the benchmark harness.
//!
//! Everything here is built on relaxed atomics — recording is wait-free
//! and safe from any thread. Instrumentation is compiled in but can be
//! switched off at runtime with [`set_enabled`]; a disabled [`Span`] or
//! [`PhaseClock`] costs exactly one relaxed atomic load and never calls
//! into the clock.
//!
//! Stage-level route profiling ([`PhaseClock`]) laps the clock at every
//! stage boundary of the route loop — thousands of `Instant::now` calls
//! on a large route — so it is *sampled*: one in
//! [`DEFAULT_STAGE_SAMPLING`] route calls pays for full attribution and
//! the rest skip every clock read (one relaxed load plus one relaxed
//! counter bump). [`set_stage_sampling`] tunes the period; benches set
//! it to 1 to profile every call. Request-level [`Span`]s are one clock
//! pair per request and are never sampled.
//!
//! # Histograms
//!
//! [`Histogram`] is log-linear (HdrHistogram-style): each power-of-two
//! octave of the nanosecond domain is split into 16 linear sub-buckets,
//! bounding the relative quantile error at `1/16` (6.25%). The bucket
//! array covers `[0, 2^40)` ns (≈ 18 minutes) with a saturating top
//! bucket, and snapshots are [mergeable](HistogramSnapshot::merge) so a
//! future sharded serving tier can fan histograms in from worker shards.
//!
//! # Worked example
//!
//! ```
//! use qpilot_core::obs::{Histogram, Span};
//!
//! // Histograms are statics: construction is `const`, recording is `&self`.
//! static COMPILE: Histogram = Histogram::new();
//!
//! // Time a block with a span guard (records on drop)...
//! {
//!     let _span = Span::start(&COMPILE);
//!     // ... timed work ...
//! }
//! // ... or feed measured durations directly.
//! COMPILE.observe(std::time::Duration::from_micros(250));
//!
//! let snap = COMPILE.snapshot();
//! assert_eq!(snap.count(), 2);
//! let p99 = snap.percentile(0.99);
//! assert!(p99 <= snap.max_ns());
//! // Prometheus-style summary values are seconds:
//! let p99_seconds = p99 as f64 / 1e9;
//! assert!(p99_seconds < 1.0);
//! ```

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Sub-bucket resolution: each power-of-two octave splits into
/// `2^SUB_BITS` linear buckets.
const SUB_BITS: u32 = 4;
/// Sub-buckets per octave.
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count: indices `0..16` are exact (values `< 16`), then
/// 16 buckets per octave for octaves `4..=39`, covering values below
/// `2^40` ns; the last bucket saturates.
pub const BUCKETS: usize = 592;

/// Global instrumentation switch (default: enabled).
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Turns instrumentation on or off process-wide.
///
/// Disabling does not clear already-recorded data; it only makes new
/// [`Span`]s, [`PhaseClock`]s and [`Histogram::observe`] calls no-ops.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether instrumentation is currently enabled (one relaxed load).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Default stage-profiling sampling period: one in this many route
/// calls gets full per-stage clock attribution; the rest skip every
/// clock read. Keeps steady-state route overhead to a fraction of a
/// percent while the stage histograms stay statistically faithful.
pub const DEFAULT_STAGE_SAMPLING: u32 = 8;

/// Sampling mask (`period - 1`; period is a power of two, 0 means
/// every route call is profiled).
static STAGE_SAMPLE_MASK: AtomicU32 = AtomicU32::new(DEFAULT_STAGE_SAMPLING - 1);

/// Monotonic route-call counter driving the sampling decision.
static ROUTE_CALLS: AtomicU64 = AtomicU64::new(0);

/// Sets stage profiling to sample one in `every` route calls (rounded
/// up to a power of two; 0 and 1 both mean every call). Benches use 1
/// for exhaustive per-stage medians; serving processes keep
/// [`DEFAULT_STAGE_SAMPLING`].
pub fn set_stage_sampling(every: u32) {
    STAGE_SAMPLE_MASK.store(sampling_mask(every), Ordering::Relaxed);
}

/// Mask for a sampling period: `period.next_power_of_two() - 1`.
fn sampling_mask(every: u32) -> u32 {
    every.max(1).next_power_of_two() - 1
}

/// Maps a nanosecond value to its log-linear bucket.
///
/// Values below 16 are exact; above, the bucket is `(octave, 4-bit
/// mantissa prefix)`, continuous at every octave boundary and monotone
/// in the value. Values at or above `2^40` saturate into the last
/// bucket.
pub fn bucket_index(ns: u64) -> usize {
    if ns < SUB {
        return ns as usize;
    }
    let msb = 63 - u64::from(ns.leading_zeros());
    let idx = ((msb - 3) << SUB_BITS) | ((ns >> (msb - u64::from(SUB_BITS))) & (SUB - 1));
    (idx as usize).min(BUCKETS - 1)
}

/// Inverse of [`bucket_index`]: the `[lo, hi)` nanosecond range of a
/// bucket. The saturating last bucket is open-ended (`hi = u64::MAX`).
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < BUCKETS, "bucket index out of range");
    if index < SUB as usize {
        return (index as u64, index as u64 + 1);
    }
    let msb = (index as u64 >> SUB_BITS) + 3;
    let sub = index as u64 & (SUB - 1);
    let lo = (1u64 << msb) | (sub << (msb - u64::from(SUB_BITS)));
    if index == BUCKETS - 1 {
        return (lo, u64::MAX);
    }
    (lo, lo + (1u64 << (msb - u64::from(SUB_BITS))))
}

/// A lock-free log-linear latency histogram over nanoseconds.
///
/// Construction is `const` so histograms live in statics; recording and
/// snapshotting take `&self`. See the [module docs](self) for the bucket
/// layout and a worked example.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram (usable in statics).
    pub const fn new() -> Histogram {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one nanosecond sample, unconditionally (callers on the
    /// hot path gate on [`enabled`] before measuring, so the recording
    /// itself never needs to).
    pub fn record_ns(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
        self.max.fetch_max(ns, Ordering::Relaxed);
    }

    /// Records a duration if instrumentation is [enabled].
    pub fn observe(&self, d: Duration) {
        if enabled() {
            self.record_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        }
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A consistent-enough copy for reporting: bucket counts, total
    /// count/sum and max. (Concurrent recording may skew a snapshot by
    /// in-flight samples; reporting tolerates that.)
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = buckets.iter().sum();
        HistogramSnapshot {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Zeroes every bucket and the count/sum/max (bench isolation).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of a [`Histogram`], queryable for quantiles and
/// mergeable across shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot (identity element for [`merge`](Self::merge)).
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Samples in the snapshot.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples, in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum
    }

    /// Largest sample, in nanoseconds (exact, not bucketed).
    pub fn max_ns(&self) -> u64 {
        self.max
    }

    /// Mean sample, in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) in nanoseconds: the midpoint of
    /// the bucket holding the `ceil(q · count)`-th sample, clamped to
    /// the observed max. Relative error is bounded by the sub-bucket
    /// width (6.25%). Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                if i == BUCKETS - 1 {
                    return self.max;
                }
                let (lo, hi) = bucket_bounds(i);
                return lo.midpoint(hi).min(self.max);
            }
        }
        self.max
    }

    /// Folds `other` into `self`. Merging is commutative and
    /// associative, so shard snapshots can be combined in any order.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// A guard that times the enclosing scope into a histogram on drop.
///
/// When instrumentation is disabled, construction costs one relaxed
/// load and the drop is free.
#[derive(Debug)]
pub struct Span {
    hist: &'static Histogram,
    started: Option<Instant>,
}

impl Span {
    /// Starts timing into `hist` (no-op guard when disabled).
    pub fn start(hist: &'static Histogram) -> Span {
        Span {
            hist,
            started: enabled().then(Instant::now),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(t) = self.started.take() {
            self.hist
                .record_ns(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }
}

/// A chained stopwatch for attributing one pass over a hot loop to
/// multiple stages with a single clock read per boundary.
///
/// Routers keep one `Option<PhaseClock>` per route call plus a local
/// `u64` accumulator per stage; each [`lap`](PhaseClock::lap) charges
/// the time since the previous boundary to one accumulator. The
/// accumulated totals are flushed to the stage histograms once at the
/// end of the route — one histogram sample per stage per route call,
/// regardless of how many loop iterations ran.
#[derive(Debug)]
pub struct PhaseClock {
    last: Instant,
}

impl PhaseClock {
    /// Starts the clock, or returns `None` when instrumentation is
    /// disabled (one relaxed load) or this route call falls outside the
    /// sampling window (one additional relaxed counter bump). The very
    /// first route call of a process is always inside the window, so a
    /// single compile already populates the stage histograms.
    pub fn start() -> Option<PhaseClock> {
        if !enabled() {
            return None;
        }
        let mask = u64::from(STAGE_SAMPLE_MASK.load(Ordering::Relaxed));
        if mask != 0 && ROUTE_CALLS.fetch_add(1, Ordering::Relaxed) & mask != 0 {
            return None;
        }
        Some(PhaseClock {
            last: Instant::now(),
        })
    }

    /// Charges the time since the last boundary to `acc` and restarts.
    pub fn lap(&mut self, acc: &mut u64) {
        let now = Instant::now();
        *acc = acc.saturating_add(
            u64::try_from(now.duration_since(self.last).as_nanos()).unwrap_or(u64::MAX),
        );
        self.last = now;
    }
}

/// Charges a lap to `acc` when the clock is live (helper for threading
/// an `&mut Option<PhaseClock>` through router internals).
pub fn lap(clock: &mut Option<PhaseClock>, acc: &mut u64) {
    if let Some(c) = clock.as_mut() {
        c.lap(acc);
    }
}

/// One named stage of one router's compile pipeline, bound to its
/// histogram. The registry [`ROUTE_STAGES`] drives both the Prometheus
/// exposition and the per-stage bench rows, so stage names stay
/// consistent everywhere.
#[derive(Debug)]
pub struct StageProfile {
    /// Router name as reported by the compile pipeline.
    pub router: &'static str,
    /// Stage name (a block of the route loop).
    pub stage: &'static str,
    /// Per-route-call time spent in the stage, in nanoseconds.
    pub histogram: &'static Histogram,
}

/// Generic router: setup (decompose, placement tables, frontier init).
pub static GENERIC_SETUP: Histogram = Histogram::new();
/// Generic router: ready-1Q Raman waves.
pub static GENERIC_WAVE_1Q: Histogram = Histogram::new();
/// Generic router: greedy maximal legal subset selection.
pub static GENERIC_SELECT: Histogram = Histogram::new();
/// Generic router: flying-ancilla stage emission.
pub static GENERIC_EMIT: Histogram = Histogram::new();
/// Generic router: frontier batch execution and promotion folding.
pub static GENERIC_BATCH: Histogram = Histogram::new();
/// Qsim router: validation, schedule builder and coordinate seeding.
pub static QSIM_SETUP: Histogram = Histogram::new();
/// Qsim router: basis-change Raman layers.
pub static QSIM_WAVE_1Q: Histogram = Histogram::new();
/// Qsim router: chain cover and copy-count choice.
pub static QSIM_SELECT: Histogram = Histogram::new();
/// Qsim router: fan-out/absorb/combine emission and mirroring.
pub static QSIM_EMIT: Histogram = Histogram::new();
/// QAOA router: validation, bucket build, ancilla create/recycle.
pub static QAOA_SETUP: Histogram = Histogram::new();
/// QAOA router: per-stage matching search (`solve_stage`).
pub static QAOA_SELECT: Histogram = Histogram::new();
/// QAOA router: stage coordinates, moves and Rydberg emission.
pub static QAOA_EMIT: Histogram = Histogram::new();
/// QEC router: check enumeration, ancilla allocation, builder seeding.
pub static QEC_SETUP: Histogram = Histogram::new();
/// QEC router: phase-block partitioning (Z / X check selection).
pub static QEC_SELECT: Histogram = Histogram::new();
/// QEC router: wave moves, Rydberg pulses and mirrored uncomputation.
pub static QEC_EMIT: Histogram = Histogram::new();

/// Every instrumented router stage, in exposition order (one row per
/// stage in `BENCH_routing.json` and one labelled series in the
/// Prometheus exposition).
pub static ROUTE_STAGES: [StageProfile; 15] = [
    StageProfile {
        router: "generic",
        stage: "setup",
        histogram: &GENERIC_SETUP,
    },
    StageProfile {
        router: "generic",
        stage: "wave_1q",
        histogram: &GENERIC_WAVE_1Q,
    },
    StageProfile {
        router: "generic",
        stage: "select",
        histogram: &GENERIC_SELECT,
    },
    StageProfile {
        router: "generic",
        stage: "emit",
        histogram: &GENERIC_EMIT,
    },
    StageProfile {
        router: "generic",
        stage: "batch",
        histogram: &GENERIC_BATCH,
    },
    StageProfile {
        router: "qsim",
        stage: "setup",
        histogram: &QSIM_SETUP,
    },
    StageProfile {
        router: "qsim",
        stage: "wave_1q",
        histogram: &QSIM_WAVE_1Q,
    },
    StageProfile {
        router: "qsim",
        stage: "select",
        histogram: &QSIM_SELECT,
    },
    StageProfile {
        router: "qsim",
        stage: "emit",
        histogram: &QSIM_EMIT,
    },
    StageProfile {
        router: "qaoa",
        stage: "setup",
        histogram: &QAOA_SETUP,
    },
    StageProfile {
        router: "qaoa",
        stage: "select",
        histogram: &QAOA_SELECT,
    },
    StageProfile {
        router: "qaoa",
        stage: "emit",
        histogram: &QAOA_EMIT,
    },
    StageProfile {
        router: "qec",
        stage: "setup",
        histogram: &QEC_SETUP,
    },
    StageProfile {
        router: "qec",
        stage: "select",
        histogram: &QEC_SELECT,
    },
    StageProfile {
        router: "qec",
        stage: "emit",
        histogram: &QEC_EMIT,
    },
];

/// Resets every stage histogram in [`ROUTE_STAGES`] (bench isolation
/// between measurement sections).
pub fn reset_route_stages() {
    for s in &ROUTE_STAGES {
        s.histogram.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_exact_below_sixteen() {
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize);
        }
    }

    #[test]
    fn bucket_index_is_continuous_and_monotone_at_boundaries() {
        // Every octave boundary: last value of one bucket maps one below
        // the first value of the next.
        for msb in 4..40u32 {
            let v = 1u64 << msb;
            assert_eq!(bucket_index(v), bucket_index(v - 1) + 1, "at 2^{msb}");
        }
        let mut last = 0usize;
        for shift in 0..40u32 {
            let idx = bucket_index(1u64 << shift);
            assert!(idx >= last);
            last = idx;
        }
    }

    #[test]
    fn bucket_bounds_invert_bucket_index() {
        for idx in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(idx);
            assert_eq!(bucket_index(lo), idx, "lo of {idx}");
            assert_eq!(bucket_index(hi - 1), idx, "hi-1 of {idx}");
        }
    }

    #[test]
    fn saturation_at_the_top_bucket() {
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_index(1u64 << 40), BUCKETS - 1);
        let h = Histogram::new();
        h.record_ns(u64::MAX);
        h.record_ns(1u64 << 41);
        let snap = h.snapshot();
        assert_eq!(snap.count(), 2);
        assert_eq!(snap.max_ns(), u64::MAX);
        assert_eq!(snap.percentile(0.5), u64::MAX);
    }

    #[test]
    fn percentile_of_empty_is_zero() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.percentile(0.5), 0);
        assert_eq!(snap.max_ns(), 0);
        assert_eq!(snap.mean_ns(), 0.0);
    }

    #[test]
    fn percentile_tracks_recorded_values() {
        let h = Histogram::new();
        for v in [100u64, 200, 300, 400, 1_000_000] {
            h.record_ns(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 5);
        assert_eq!(snap.sum_ns(), 1_001_000);
        assert_eq!(snap.max_ns(), 1_000_000);
        let p50 = snap.percentile(0.5);
        assert!((p50 as f64 - 300.0).abs() / 300.0 <= 0.0625, "p50 = {p50}");
        let p99 = snap.percentile(0.99);
        assert!(
            (p99 as f64 - 1_000_000.0).abs() / 1_000_000.0 <= 0.0625,
            "p99 = {p99}"
        );
    }

    #[test]
    fn merge_adds_counts_and_keeps_max() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record_ns(10);
        b.record_ns(20);
        b.record_ns(1_000);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count(), 3);
        assert_eq!(m.sum_ns(), 1_030);
        assert_eq!(m.max_ns(), 1_000);
        // Identity element.
        let mut e = HistogramSnapshot::empty();
        e.merge(&m);
        assert_eq!(e, m);
    }

    #[test]
    fn reset_clears_everything() {
        let h = Histogram::new();
        h.record_ns(123);
        h.reset();
        let snap = h.snapshot();
        assert_eq!(snap.count(), 0);
        assert_eq!(snap.max_ns(), 0);
    }

    // One test owns the global enable flag and the sampling period:
    // splitting this would race under the parallel test runner.
    #[test]
    fn enable_flag_gates_spans_and_clocks() {
        static H: Histogram = Histogram::new();
        set_enabled(false);
        {
            let _s = Span::start(&H);
        }
        assert!(PhaseClock::start().is_none());
        H.observe(Duration::from_millis(1));
        set_enabled(true);
        assert_eq!(H.count(), 0);
        {
            let _s = Span::start(&H);
        }
        assert_eq!(H.count(), 1);

        // Sampling 1 makes `start` deterministic regardless of how many
        // route calls other tests in this process have burned.
        set_stage_sampling(1);
        let mut clock = PhaseClock::start();
        let mut a = 0u64;
        let mut b = 0u64;
        lap(&mut clock, &mut a);
        std::thread::sleep(Duration::from_millis(2));
        lap(&mut clock, &mut b);
        assert!(b >= 1_000_000, "lap missed the sleep: {b}");
        lap(&mut None, &mut a);
        set_stage_sampling(DEFAULT_STAGE_SAMPLING);
    }

    #[test]
    fn sampling_periods_round_up_to_powers_of_two() {
        assert_eq!(sampling_mask(0), 0);
        assert_eq!(sampling_mask(1), 0);
        assert_eq!(sampling_mask(2), 1);
        assert_eq!(sampling_mask(3), 3);
        assert_eq!(sampling_mask(8), 7);
        assert_eq!(sampling_mask(1000), 1023);
    }
}
