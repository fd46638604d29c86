//! `perfbench`: the socket-level benchmark of `qpilotd`.
//!
//! ```text
//! perfbench --workload NAME --qpilotd PATH [--seed N] [--seconds N]
//!           [--trace 0|1] [--repeat N] [--work-dir DIR] [--commit ID]
//! ```
//!
//! One run starts the release `qpilotd` with its default flags plus
//! `--listen 127.0.0.1:0` and a fresh `--store`, drives it over loopback
//! as a closed loop of two connections (one client thread each) for an
//! untimed warm-up and then `--seconds` (on the warm workload, each of
//! the three daemons that recover the store serves a third), checks
//! every reply, verifies a seeded sample with `qpilot-sim`, checks the
//! daemon's own counters, and prints every metric with its unit. The
//! last stdout line is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`, holding the
//! end-to-end metrics, or with `--trace 1` the per-layer metrics of a
//! traced in-process replay (see `trace`), which takes the second half
//! of the window. `--repeat N` runs seeds
//! `seed … seed+N−1` and prints each metric's median and quartiles. See
//! `README.md` for the workloads and the layer map.

mod gen;
mod net;
mod stats;
mod trace;
mod verify;

use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

use gen::{Family, Kind, Lines, SplitMix, WARM_KEYS};
use net::{Daemon, LoopRun, Phase, Sample, PARTS, WARMUP};
use stats::{fnv1a, geomean, quartiles, summarise, LoopSummary, FNV_OFFSET};

/// Client connections, one thread each: callers such as `qpilot-cli`
/// wait for each reply, and the machine has two cores.
pub const CONNECTIONS: usize = 2;

/// Daemon starts per run whose readiness times give `setup_s`: a cold
/// start takes a few milliseconds, so many of them steady the median.
const COLD_SETUPS: usize = 31;
/// Warm starts recover the whole store each time, so fewer of them. Each
/// one serves its share of the timed window, so the window is spread over
/// the recoveries between them.
const WARM_SETUPS: u32 = 3;

/// The marker of one Rydberg stage in canonical schedule bytes.
const RYDBERG: &[u8] = b"{\"kind\":\"rydberg\"";

/// End-to-end metrics, in report order.
const END_TO_END: [&str; 6] = [
    "p50_ms",
    "p99_ms",
    "throughput_rps",
    "setup_s",
    "peak_rss_mb",
    "rydberg_depth",
];

/// Per-layer metrics of a traced run, in report order.
const PER_LAYER: [&str; 36] = [
    "reactor.overhead_ms",
    "reactor.reply_kb",
    "protocol.parse_ms",
    "json.parse_ms",
    "protocol.render_ms",
    "pool.hit_ms",
    "pool.miss_ms",
    "pool.queue_wait_ms",
    "fingerprint.us",
    "cache.probe_us",
    "cache.hit_ratio",
    "cache.evictions",
    "pool.compiles",
    "pool.coalesced",
    "pool.shed",
    "decompose.ms",
    "compile.generic_ms",
    "compile.qaoa_ms",
    "compile.qsim_ms",
    "compile.qec_ms",
    "compile.stages",
    "depth.random",
    "depth.qaoa",
    "depth.qsim",
    "depth.qec",
    "depth.qft",
    "depth.vqe",
    "depth.ghz",
    "wire.serialise_ms",
    "wire.schedule_kb",
    "wire.deserialise_ms",
    "store.persist_ms",
    "store.recover_s",
    "trace.unattributed_pct.p50",
    "trace.unattributed_pct.p99",
    "trace.overhead_pct",
];

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A metric `name` of `value` in `unit`.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

struct Options {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: u64,
    qpilotd: PathBuf,
    work_dir: PathBuf,
    commit: String,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let known = [
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--repeat",
            "--qpilotd",
            "--work-dir",
            "--commit",
        ];
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown argument `{flag}`"));
        }
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        flags.insert(flag, value);
    }
    let num = |flag: &str, default: u64| -> Result<u64, String> {
        flags.get(flag).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("`{flag}` takes an integer, got `{v}`"))
        })
    };
    let name = flags.get("--workload").ok_or("`--workload` is required")?;
    let kind = Kind::parse(name).ok_or_else(|| {
        let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        format!("unknown workload `{name}` ({})", names.join("|"))
    })?;
    let qpilotd = PathBuf::from(flags.get("--qpilotd").ok_or("`--qpilotd` is required")?);
    let work_dir = flags
        .get("--work-dir")
        .map_or_else(|| qpilotd.with_file_name("perfbench-work"), PathBuf::from);
    let trace = match num("--trace", 0)? {
        0 => false,
        1 => true,
        other => return Err(format!("`--trace` is 0 or 1, got {other}")),
    };
    let options = Options {
        kind,
        seed: num("--seed", gen::DEFAULT_SEED)?,
        seconds: num("--seconds", 20)?,
        trace,
        repeat: num("--repeat", 1)?,
        qpilotd,
        work_dir,
        commit: flags.get("--commit").unwrap_or(&"unknown").to_string(),
    };
    if options.seconds == 0 || options.repeat == 0 {
        return Err("`--seconds` and `--repeat` must be positive".into());
    }
    Ok(options)
}

/// One run's verdict and numbers.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\"stamp\":{{\"commit\":\"{}\",\"nproc\":{nproc},\"qpilotd_flags\":\"--listen 127.0.0.1:0 --store <fresh dir>\",\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"connections\":{CONNECTIONS},\"default_seed\":{},\"holdout_seed\":{}}}}}",
        options.commit,
        options.kind.name(),
        options.seed,
        options.seconds,
        u8::from(options.trace),
        gen::DEFAULT_SEED,
        gen::HOLDOUT_SEED,
    );
    let mut outcomes = Vec::new();
    for r in 0..options.repeat {
        let seed = options.seed + r;
        match run(&options, seed) {
            Ok(outcome) => outcomes.push(outcome),
            Err(e) => {
                eprintln!("perfbench: {} seed {seed}: {e}", options.kind.name());
                std::process::exit(1);
            }
        }
    }
    let result = if outcomes.len() == 1 {
        outcomes.pop().expect("one outcome")
    } else {
        summarise_repeats(&outcomes)
    };
    println!("{}", result_json(&result));
}

/// Prints each metric's median and quartiles over the repeated runs and
/// returns the medians.
fn summarise_repeats(outcomes: &[Outcome]) -> Outcome {
    println!(
        "repeat summary over {} runs (quartiles as Python's statistics.quantiles):",
        outcomes.len()
    );
    let mut metrics = Vec::new();
    for (i, m) in outcomes[0].metrics.iter().enumerate() {
        let values: Vec<f64> = outcomes.iter().map(|o| o.metrics[i].value).collect();
        let (q1, median, q3) = quartiles(&values).expect("at least one run");
        let spread = if median == 0.0 {
            0.0
        } else {
            (q3 - q1) / median
        };
        println!(
            "  {:<28} median {median:<14.6} q1 {q1:<14.6} q3 {q3:<14.6} spread {:.4} {}",
            m.name, spread, m.unit
        );
        metrics.push(Metric::new(&m.name, median, m.unit));
    }
    Outcome {
        correct: outcomes.iter().all(|o| o.correct),
        attempted: outcomes.iter().map(|o| o.attempted).sum(),
        failed: outcomes.iter().map(|o| o.failed).sum(),
        metrics,
    }
}

fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                finite(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    )
}

/// JSON has no infinity: a latency percentile that lands on a failed
/// request (infinitely slow) prints as the largest finite number.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        f64::MAX
    }
}

/// One run in its own scratch directory, removed afterwards.
fn run(options: &Options, seed: u64) -> Result<Outcome, String> {
    let run_dir = options
        .work_dir
        .join(format!("run-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("cannot create {}: {e}", run_dir.display()))?;
    let result = run_in(options, seed, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    result
}

fn run_in(options: &Options, seed: u64, run_dir: &Path) -> Result<Outcome, String> {
    let kind = options.kind;
    // A traced run splits its window between the untraced and the traced
    // phase, so it takes as long as an untraced one.
    let window = Duration::from_secs(options.seconds) / if options.trace { 2 } else { 1 };
    let untraced = untraced(options, seed, run_dir, window)?;
    let s = &untraced.summary;
    let mut failures = untraced.failures.clone();
    // A verification failure fails every request its input was sent in,
    // so `failed` comes from the accounting, not from the reasons.
    let (mut attempted, mut failed) = (untraced.attempted, untraced.failed);
    let metrics = if options.trace {
        let spans_out = options
            .work_dir
            .join(format!("trace-{}-seed{seed}.jsonl", kind.name()));
        let traced = trace::run(&trace::Context {
            kind,
            seed,
            window,
            lines: &untraced.lines,
            run_dir,
            warm: (kind == Kind::WarmRestart)
                .then_some((untraced.store.as_path(), untraced.expected.as_slice())),
            untraced_p50_ms: s.p50_ms,
            setup_s: untraced.setup_s,
            spans_out: &spans_out,
        })?;
        println!("spans written to {}", spans_out.display());
        attempted += traced.attempted;
        failed += traced.failures.len();
        failures.extend(traced.failures);
        let mut metrics = untraced.counters.clone();
        metrics.extend(traced.metrics);
        for family in Family::ALL {
            let depths: Vec<f64> = untraced
                .depth
                .iter()
                .filter(|(f, _)| *f == family)
                .map(|(_, d)| *d)
                .collect();
            let name = format!("depth.{}", family.name());
            metrics.push(Metric::new(
                &name,
                geomean(&depths).unwrap_or(0.0),
                "stages",
            ));
        }
        order(metrics, &PER_LAYER)?
    } else {
        let depths: Vec<f64> = untraced.depth.iter().map(|(_, d)| *d).collect();
        order(
            vec![
                Metric::new("p50_ms", s.p50_ms, "ms"),
                Metric::new("p99_ms", s.p99_ms, "ms"),
                Metric::new("throughput_rps", s.throughput_rps, "req/s"),
                Metric::new("setup_s", untraced.setup_s, "s"),
                Metric::new("peak_rss_mb", untraced.rss_mb, "MiB"),
                Metric::new(
                    "rydberg_depth",
                    geomean(&depths).ok_or("no schedules in the depth set")?,
                    "stages",
                ),
            ],
            &END_TO_END,
        )?
    };
    for reason in failures.iter().take(5) {
        eprintln!("perfbench: failed request: {reason}");
    }
    for problem in &untraced.premise {
        eprintln!("perfbench: broken premise: {problem}");
    }
    for m in &metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    Ok(Outcome {
        correct: failed == 0 && failures.is_empty() && untraced.premise.is_empty(),
        attempted,
        failed,
        metrics,
    })
}

/// Puts `metrics` in `names` order, and fails unless they are exactly
/// those names.
fn order(metrics: Vec<Metric>, names: &[&str]) -> Result<Vec<Metric>, String> {
    let mut by_name: BTreeMap<String, Metric> =
        metrics.into_iter().map(|m| (m.name.clone(), m)).collect();
    let ordered: Vec<Metric> = names.iter().filter_map(|n| by_name.remove(*n)).collect();
    if ordered.len() != names.len() || !by_name.is_empty() {
        return Err(format!(
            "metric set mismatch: extra {:?}",
            by_name.keys().collect::<Vec<_>>()
        ));
    }
    Ok(ordered)
}

/// The untraced phase against the real daemon.
struct Untraced {
    setup_s: f64,
    /// The timed window's accounting.
    summary: LoopSummary,
    /// Every request sent, warm-up included.
    attempted: usize,
    /// The requests of `attempted` that failed.
    failed: usize,
    failures: Vec<String>,
    premise: Vec<String>,
    rss_mb: f64,
    /// Rydberg-stage counts of the depth set's distinct schedules.
    depth: Vec<(Family, f64)>,
    /// The premise counters, reported as per-layer metrics.
    counters: Vec<Metric>,
    /// The warm store and the schedule bytes of the misses that filled it.
    store: PathBuf,
    expected: Vec<Vec<u8>>,
    /// The request lines, for the traced replay.
    lines: Lines,
}

/// A daemon's own counters after it has served a phase: its `stats` and
/// `store-stats` ops.
#[derive(Debug, Default)]
struct Counters {
    requests: u64,
    hits: u64,
    compiles: u64,
    coalesced: u64,
    shed: u64,
    evictions: u64,
    loaded: u64,
    discarded: u64,
}

impl Counters {
    fn read(addr: SocketAddr) -> Result<Counters, String> {
        let stats = net::op(addr, "stats")?;
        let store_stats = net::op(addr, "store-stats")?;
        let get = |name: &str| net::field(&stats, name);
        Ok(Counters {
            requests: get("requests")?,
            hits: get("hits")?,
            compiles: get("compiles")?,
            coalesced: get("coalesced")?,
            shed: get("shed")?,
            evictions: get("evictions")?,
            loaded: net::field(&store_stats, "loaded")?,
            discarded: net::field(&store_stats, "discarded")?,
        })
    }

    /// Adds the counters of another daemon lifetime.
    fn add(&mut self, other: &Counters) {
        self.requests += other.requests;
        self.hits += other.hits;
        self.compiles += other.compiles;
        self.coalesced += other.coalesced;
        self.shed += other.shed;
        self.evictions += other.evictions;
        self.loaded += other.loaded;
        self.discarded += other.discarded;
    }
}

/// The seeded sample of distinct inputs whose replies are verified: in
/// the depth set, which every run sends; one per family on the
/// structured mix.
fn verification_sample(kind: Kind, seed: u64) -> BTreeSet<u64> {
    let mut rng = SplitMix::stream(seed, 99, 0);
    let mut indices: Vec<u64> = (0..kind.depth_set()).collect();
    rng.shuffle(&mut indices);
    match kind {
        Kind::ColdRandom | Kind::WarmRestart => indices.into_iter().take(2).collect(),
        Kind::ColdStructured => {
            let mut first: BTreeMap<Family, u64> = BTreeMap::new();
            for i in indices {
                first.entry(kind.family(seed, i)).or_insert(i);
            }
            first.into_values().collect()
        }
    }
}

/// Serves one phase on `daemon`, reads its counters and peak RSS, and
/// shuts it down.
fn serve(
    daemon: Daemon,
    phase: Phase,
    lines: &Lines,
    check: &net::CheckFn<'_>,
) -> Result<(LoopRun, Counters, f64), String> {
    let run = net::closed_loop(daemon.addr, CONNECTIONS, phase, lines, check);
    let counters = Counters::read(daemon.addr)?;
    let rss_mb = daemon.peak_rss_mb()?;
    daemon.shutdown()?;
    Ok((run, counters, rss_mb))
}

fn untraced(
    options: &Options,
    seed: u64,
    run_dir: &Path,
    window: Duration,
) -> Result<Untraced, String> {
    let kind = options.kind;
    let bin = &options.qpilotd;
    let warm = kind == Kind::WarmRestart;
    let store = run_dir.join("store");
    let mut expected: Vec<Vec<u8>> = Vec::new();
    if warm {
        let (fill, _) = Daemon::spawn(bin, &store)?;
        for k in 0..WARM_KEYS {
            let id = format!("f{k}");
            let reply = net::request(fill.addr, &gen::warm(seed, k).line(&id))?;
            let parsed = net::compile_reply(reply.as_bytes(), &id)?;
            if parsed.path != "miss" {
                return Err(format!(
                    "filling the warm store hit the cache ({})",
                    parsed.path
                ));
            }
            expected.push(parsed.schedule.to_vec());
        }
        fill.shutdown()?;
    }

    let depth_n = kind.depth_set();
    let sample = verification_sample(kind, seed);
    let depth = Mutex::new(BTreeMap::<u64, (Family, usize, u64)>::new());
    let kept = Mutex::new(BTreeMap::<u64, Vec<u8>>::new());
    let check = |i: u64, reply: &[u8]| -> Result<(), String> {
        let reply = net::compile_reply(reply, &kind.request_id(i))?;
        if warm {
            if reply.path != "hit" {
                return Err(format!("warm request {i} was served as `{}`", reply.path));
            }
            if reply.schedule != expected[(i % WARM_KEYS) as usize].as_slice() {
                return Err(format!(
                    "hit {i} differs from the miss that filled the cache"
                ));
            }
            return Ok(());
        }
        if i < depth_n {
            let rydberg = net::count(reply.schedule, RYDBERG);
            let hash = fnv1a(reply.schedule, FNV_OFFSET);
            depth
                .lock()
                .expect("depth lock")
                .insert(i, (kind.family(seed, i), rydberg, hash));
        }
        if sample.contains(&i) {
            kept.lock()
                .expect("kept lock")
                .insert(i, reply.schedule.to_vec());
        }
        Ok(())
    };

    // Set-up and the timed window. A cold run starts the daemon many
    // times and the last start serves the whole window. A warm run
    // recovers the store `WARM_SETUPS` times, and each recovered daemon
    // serves its share of the window.
    let mut setups = Vec::new();
    let mut runs: Vec<LoopRun> = Vec::new();
    let mut counters = Counters::default();
    let mut premise = Vec::new();
    let mut rss_mb: f64 = 0.0;
    let lines = if warm {
        let lines = Lines::new(kind, seed, 0);
        let mut first = 0;
        for _ in 0..WARM_SETUPS {
            let (daemon, elapsed) = Daemon::spawn(bin, &store)?;
            setups.push(elapsed.as_secs_f64());
            let phase = Phase {
                window: window / WARM_SETUPS,
                parts: PARTS / WARM_SETUPS,
                first,
            };
            let (run, c, rss) = serve(daemon, phase, &lines, &check)?;
            if c.loaded != WARM_KEYS || c.discarded != 0 || c.compiles != 0 {
                premise.push(format!(
                    "warm restart recovered {} of {WARM_KEYS} blobs, discarded {}, compiled {}",
                    c.loaded, c.discarded, c.compiles
                ));
            }
            first = run.sent;
            counters.add(&c);
            rss_mb = rss_mb.max(rss);
            runs.push(run);
        }
        lines
    } else {
        let mut serving = None;
        for s in 0..COLD_SETUPS {
            let (daemon, elapsed) = Daemon::spawn(bin, &run_dir.join(format!("store-{s}")))?;
            setups.push(elapsed.as_secs_f64());
            if s + 1 < COLD_SETUPS {
                daemon.shutdown()?;
            } else {
                serving = Some(daemon);
            }
        }
        // Built after the starts, so that building them cannot slow the
        // starts that `setup_s` times.
        let pooled = kind.pooled_per_second() as f64 * (window + WARMUP).as_secs_f64();
        let lines = Lines::new(kind, seed, pooled.ceil() as u64);
        let phase = Phase {
            window,
            parts: PARTS,
            first: 0,
        };
        let daemon = serving.expect("at least one start");
        let (run, c, rss) = serve(daemon, phase, &lines, &check)?;
        if c.hits != 0 || c.coalesced != 0 || c.compiles != c.requests {
            premise.push(format!(
                "cold run of {} requests hit {}, coalesced {}, compiled {}",
                c.requests, c.hits, c.coalesced, c.compiles
            ));
        }
        counters = c;
        rss_mb = rss;
        runs.push(run);
        lines
    };
    let setup_s = quartiles(&setups).expect("at least one start").1;
    let sent = runs.last().map_or(0, |r| r.sent);
    if sent < depth_n {
        premise.push(format!(
            "the run sent {sent} requests, fewer than the {depth_n} of the depth set"
        ));
    }

    // Verification of the seeded sample, after the window.
    let kept = kept.into_inner().expect("kept lock");
    let mut wrong: BTreeSet<u64> = BTreeSet::new();
    let mut failures: Vec<String> = Vec::new();
    for &i in &sample {
        let input = kind.input(seed, i);
        let bytes = if warm {
            Some(&expected[(i % WARM_KEYS) as usize])
        } else {
            kept.get(&i)
        };
        // A sampled request that failed is already counted as failed.
        let Some(bytes) = bytes else { continue };
        if let Err(e) = verify::verify(&input, bytes) {
            failures.push(format!("verification of request {i}: {e}"));
            wrong.insert(i);
        }
    }

    // A request fails when its reply failed a check or its input failed
    // verification. Warm-up requests count as attempted and can fail;
    // only the timed parts give latencies.
    let ok = |s: &Sample| {
        let key = if warm { s.index % WARM_KEYS } else { s.index };
        s.failure.is_none() && !wrong.contains(&key)
    };
    let all: Vec<&Sample> = runs
        .iter()
        .flat_map(|r| r.warmup.iter().chain(&r.samples))
        .collect();
    failures.extend(all.iter().filter_map(|s| s.failure.clone()));
    let attempted = all.len();
    let failed = all.iter().filter(|s| !ok(s)).count();
    let timed: Vec<&Sample> = runs.iter().flat_map(|r| &r.samples).collect();
    let ok_ms: Vec<f64> = timed
        .iter()
        .filter(|s| ok(s))
        .map(|s| s.latency_ns as f64 * 1e-6)
        .collect();
    let wall: Duration = runs.iter().map(|r| r.wall).sum();
    let summary = summarise(&ok_ms, timed.len() - ok_ms.len(), wall.as_secs_f64());

    let depth: Vec<(Family, usize, u64)> = if warm {
        expected
            .iter()
            .map(|b| (Family::Random, net::count(b, RYDBERG), fnv1a(b, FNV_OFFSET)))
            .collect()
    } else {
        depth
            .into_inner()
            .expect("depth lock")
            .into_values()
            .collect()
    };
    let mut distinct = BTreeSet::new();
    let depth: Vec<(Family, f64)> = depth
        .into_iter()
        .filter(|(_, _, hash)| distinct.insert(*hash))
        .map(|(f, r, _)| (f, r as f64))
        .collect();
    let inputs = (0..depth_n).fold(FNV_OFFSET, |h, i| {
        fnv1a(kind.input(seed, i).body.as_bytes(), h)
    });
    let replies = distinct
        .iter()
        .fold(FNV_OFFSET, |h, hash| fnv1a(&hash.to_le_bytes(), h));
    let error_rate = failed as f64 / attempted.max(1) as f64;
    println!(
        "{} seed {seed}: {attempted} attempted ({} timed), {failed} failed (error_rate {error_rate}), {:.2} s timed wall",
        kind.name(),
        summary.attempted,
        wall.as_secs_f64()
    );
    println!(
        "  p50 {:.4} ms (n={}), p99 {:.4} ms (n={}, {} beyond), {:.2} req/s, setup {:.4} s (median of {}), peak rss {:.1} MiB",
        summary.p50_ms,
        summary.attempted,
        summary.p99_ms,
        summary.attempted,
        summary.beyond_p99,
        summary.throughput_rps,
        setup_s,
        setups.len(),
        rss_mb
    );
    if lines.pooled() > 0 && sent > lines.pooled() {
        println!(
            "  note: the run sent {sent} requests, past the {} lines built before it; raise `pooled_per_second`",
            lines.pooled()
        );
    }
    if summary.beyond_p99 < stats::MIN_BEYOND {
        println!(
            "  note: p99 has {} samples beyond it, fewer than the percentile rule's {}",
            summary.beyond_p99,
            stats::MIN_BEYOND
        );
    }
    println!(
        "  depth set: {} distinct schedules; input digest {inputs:016x}, reply digest {replies:016x}; verified {} replies",
        depth.len(),
        sample.len()
    );
    let c = &counters;
    println!(
        "  daemon ({} serving): requests {} hits {} compiles {} coalesced {} shed {} evictions {}; store loaded {} discarded {}",
        runs.len(),
        c.requests,
        c.hits,
        c.compiles,
        c.coalesced,
        c.shed,
        c.evictions,
        c.loaded,
        c.discarded
    );
    let hit_ratio = if c.requests == 0 {
        0.0
    } else {
        c.hits as f64 / c.requests as f64
    };
    let counters = vec![
        Metric::new("cache.hit_ratio", hit_ratio, "ratio"),
        Metric::new("cache.evictions", c.evictions as f64, "count"),
        Metric::new("pool.compiles", c.compiles as f64, "count"),
        Metric::new("pool.coalesced", c.coalesced as f64, "count"),
        Metric::new("pool.shed", c.shed as f64, "count"),
    ];
    Ok(Untraced {
        setup_s,
        summary,
        attempted,
        failed,
        failures,
        premise,
        rss_mb,
        depth,
        counters,
        store,
        expected,
        lines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names a `BENCHMARK.json` list declares, read without a JSON
    /// library: every `"name": "…"` inside the list's brackets.
    fn declared(doc: &str, list: &str) -> Vec<String> {
        let start = doc.find(&format!("\"{list}\"")).expect("list present");
        let body = &doc[start..];
        let body = &body[..body.find(']').expect("list closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        let doc =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        assert_eq!(declared(&doc, "end_to_end"), END_TO_END);
        assert_eq!(declared(&doc, "per_layer"), PER_LAYER);
        let workloads = declared(&doc, "workloads");
        let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(workloads, names);
    }

    #[test]
    fn the_layer_map_covers_every_per_layer_metric() {
        let map = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/layer_map.json"))
            .expect("layer_map.json");
        for name in PER_LAYER {
            assert!(
                map.contains(&format!("\"{name}\"")),
                "{name} missing from the layer map"
            );
        }
    }

    #[test]
    fn verification_samples_are_seeded_and_cover_the_structured_families() {
        let a = verification_sample(Kind::ColdStructured, 4);
        assert_eq!(a, verification_sample(Kind::ColdStructured, 4));
        let families: BTreeSet<Family> = a
            .iter()
            .map(|&i| Kind::ColdStructured.family(4, i))
            .collect();
        assert_eq!(families.len(), 6);
        assert!(a.iter().all(|&i| i < Kind::ColdStructured.depth_set()));
        assert_eq!(verification_sample(Kind::ColdRandom, 4).len(), 2);
        assert!(verification_sample(Kind::WarmRestart, 4)
            .iter()
            .all(|&k| k < WARM_KEYS));
    }

    #[test]
    fn arguments_parse_and_reject_unknown_flags() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse_args(&args(
            "--workload cold-structured --qpilotd bin/qpilotd --seed 5 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (o.kind, o.seed, o.seconds, o.trace),
            (Kind::ColdStructured, 5, 20, true)
        );
        assert_eq!(o.work_dir, PathBuf::from("bin/perfbench-work"));
        assert!(parse_args(&args("--workload nope --qpilotd q")).is_err());
        assert!(parse_args(&args("--workload cold-random-100q --qpilotd q --bogus 1")).is_err());
        assert!(parse_args(&args("--workload cold-random-100q --qpilotd q --trace 2")).is_err());
        assert!(parse_args(&args("--workload cold-random-100q")).is_err());
    }
}
