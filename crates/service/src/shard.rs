//! Horizontal shard fan-out: consistent-hash routing on the
//! `qpilot.compile/v2` fingerprint, plus cross-shard aggregation of the
//! observability ops, behind one dispatcher ([`route`]) that both
//! `qpilot-router` and `qpilot-cli --shards` call.
//!
//! A shard is just a `qpilotd` daemon with its own cache and store; the
//! fleet needs no coordination because compilation is a deterministic
//! pure function of the request. Placement is the only shared
//! agreement, and it is a pure function too: [`ShardRing`] hashes each
//! shard address onto a ring of virtual points and assigns a
//! fingerprint to the first point at or clockwise of its own hash.
//! Every router and every `qpilot-cli --shards` client with the same
//! address list computes the same ring, so a fingerprint's schedule is
//! cached (and persisted) on exactly one shard, and adding or removing
//! a shard only remaps the ~`1/n` of keys adjacent to its points
//! instead of reshuffling the world.
//!
//! The hash is [`StableHasher`] (SipHash-2-4 with fixed keys) — the
//! same platform-stable primitive behind the fingerprint itself — so
//! placement survives process restarts, mixed architectures, and Rust
//! upgrades.
//!
//! Fan-out ops: `stats`, `store-stats` and `metrics` are answered by
//! every shard and merged by [`aggregate_stats`],
//! [`aggregate_store_stats`] and [`aggregate_metrics`]: counters and
//! sizes sum exactly; rates are recomputed from the summed counters;
//! latency percentiles cannot be merged and take the worst (max) shard,
//! which is the operator-conservative choice. Aggregated responses
//! carry a `"shards":N` field so clients can tell them from single
//! daemon answers.
//!
//! A shard that cannot answer turns into an `{"ok":false,…}` line with
//! `"retry":true` that echoes the client's `request_id`: the condition
//! is transient from the client's seat, since the shard may come back
//! or the operator may repoint the ring.
//!
//! # Example
//!
//! ```
//! use qpilot_service::shard::ShardRing;
//! use qpilot_circuit::Circuit;
//! use qpilot_service::CompileRequest;
//!
//! let ring = ShardRing::new(&[
//!     "10.0.0.1:7878".to_string(),
//!     "10.0.0.2:7878".to_string(),
//! ]);
//! let mut c = Circuit::new(3);
//! c.cz(0, 1).cz(1, 2);
//! let fp = CompileRequest::new(c).fingerprint();
//! // Placement is deterministic: every client computes the same shard.
//! assert_eq!(ring.shard_for(&fp), ring.shard_for(&fp));
//! ```

use qpilot_circuit::fingerprint::{Fingerprint, StableHasher};
use qpilot_core::json::{self, json_str, Item, Value};

use crate::protocol::{next_request_id, parse_request, render_error, Fields, Handled, Request};

/// Virtual points per shard on the ring. More points smooth the load
/// split (the relative imbalance shrinks like `1/sqrt(replicas)`) at
/// the cost of a longer sorted array; 64 keeps a 16-shard fleet within
/// a few percent of even.
pub const RING_REPLICAS: u32 = 64;

/// A consistent-hash ring over shard addresses.
///
/// Construction is deterministic in the address *set* (the input order
/// does not matter) so independently configured clients agree on
/// placement.
#[derive(Debug, Clone)]
pub struct ShardRing {
    addrs: Vec<String>,
    /// `(ring point, index into addrs)`, sorted by point.
    points: Vec<(u64, usize)>,
}

impl ShardRing {
    /// Builds the ring: [`RING_REPLICAS`] points per address.
    ///
    /// # Panics
    ///
    /// Panics when `addrs` is empty — a fleet of zero shards cannot
    /// route anything.
    pub fn new(addrs: &[String]) -> ShardRing {
        assert!(!addrs.is_empty(), "a shard ring needs at least one shard");
        let mut points = Vec::with_capacity(addrs.len() * RING_REPLICAS as usize);
        for (index, addr) in addrs.iter().enumerate() {
            for replica in 0..RING_REPLICAS {
                let mut h = StableHasher::new();
                h.write_str(addr);
                h.write_u32(replica);
                points.push((h.finish().prefix_u64(), index));
            }
        }
        // Ties (astronomically unlikely with 64-bit points) resolve by
        // address index, keeping the sort — and thus placement —
        // deterministic.
        points.sort_unstable();
        ShardRing {
            addrs: addrs.to_vec(),
            points,
        }
    }

    /// The shard addresses, in construction order.
    pub fn addrs(&self) -> &[String] {
        &self.addrs
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// `false`: the constructor rejects empty fleets.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// The index (into [`ShardRing::addrs`]) owning `fingerprint`.
    pub fn index_for(&self, fingerprint: &Fingerprint) -> usize {
        let key = ring_key(fingerprint);
        // First point clockwise of the key, wrapping to the start.
        let at = self.points.partition_point(|&(p, _)| p < key);
        let (_, index) = self.points[if at == self.points.len() { 0 } else { at }];
        index
    }

    /// The address owning `fingerprint`.
    pub fn shard_for(&self, fingerprint: &Fingerprint) -> &str {
        &self.addrs[self.index_for(fingerprint)]
    }
}

/// Routes one request line across the fleet. `round_trip(shard, line)`
/// sends `line` to the shard at index `shard` of [`ShardRing::addrs`]
/// and returns its response line, or an error message when the shard
/// cannot answer.
///
/// * `compile` goes to the owner of its fingerprint, whose response is
///   relayed byte for byte;
/// * `stats`, `store-stats` and `metrics` go to every shard and come
///   back merged, with `"shards":N`;
/// * `shutdown` goes to every shard, even past one that fails, and the
///   fleet answers for itself with `shutdown` set;
/// * `ping` and lines that do not parse go to the first shard, which
///   renders them as any daemon would.
///
/// A shard that cannot answer, or replies that do not merge, become an
/// error line with `"retry":true`.
pub fn route(
    ring: &ShardRing,
    line: &str,
    mut round_trip: impl FnMut(usize, &str) -> Result<String, String>,
) -> Handled {
    let merge: fn(&[String], &str) -> Result<String, String> = match parse_request(line) {
        Ok(Request::Compile { request, .. }) => {
            let owner = ring.index_for(&request.fingerprint());
            return relay(round_trip(owner, line), line);
        }
        Ok(Request::Ping) | Err(_) => return relay(round_trip(0, line), line),
        Ok(Request::Shutdown) => {
            for shard in 0..ring.len() {
                let _ = round_trip(shard, line);
            }
            return Handled {
                response: format!(
                    "{{\"ok\":true,\"op\":\"shutdown\",\"request_id\":{}}}",
                    json_str(&request_id_of(line))
                ),
                shutdown: true,
            };
        }
        Ok(Request::Stats) => aggregate_stats,
        Ok(Request::StoreStats) => aggregate_store_stats,
        Ok(Request::Metrics) => aggregate_metrics,
    };
    let request_id = request_id_of(line);
    let response = (0..ring.len())
        .map(|shard| round_trip(shard, line))
        .collect::<Result<Vec<String>, String>>()
        .and_then(|responses| merge(&responses, &request_id))
        .unwrap_or_else(|e| render_error(&e, true, &request_id));
    Handled {
        response,
        shutdown: false,
    }
}

/// One shard's answer, relayed as is, or its failure as a retry line.
fn relay(answer: Result<String, String>, line: &str) -> Handled {
    Handled {
        response: answer.unwrap_or_else(|e| render_error(&e, true, &request_id_of(line))),
        shutdown: false,
    }
}

/// The client-visible `request_id` of a request line: the client's own
/// when present, a fresh daemon-assigned one otherwise (matching the
/// daemon's echo contract).
fn request_id_of(line: &str) -> String {
    Fields::read(line)
        .ok()
        .and_then(|fields| {
            fields
                .get("request_id")
                .and_then(Item::as_str)
                .map(str::to_string)
        })
        .unwrap_or_else(next_request_id)
}

/// A fingerprint's position on the ring. The fingerprint is already a
/// uniform 128-bit hash, but it is re-hashed here so the key-space and
/// the shard-point space come from the same family while staying
/// independent of each other.
fn ring_key(fingerprint: &Fingerprint) -> u64 {
    let mut h = StableHasher::new();
    h.write_bytes(&fingerprint.0);
    h.finish().prefix_u64()
}

/// An integer counter summed across shard responses, tolerating a
/// missing field as zero (a shard behind on the protocol should not
/// poison the aggregate).
fn sum_u64(docs: &[Value], key: &str) -> u64 {
    docs.iter()
        .filter_map(|d| d.get(key).and_then(Value::as_u64))
        .sum()
}

fn max_f64(docs: &[Value], key: &str) -> f64 {
    docs.iter()
        .filter_map(|d| d.get(key).and_then(Value::as_f64))
        .fold(0.0, f64::max)
}

fn any_true(docs: &[Value], key: &str) -> bool {
    docs.iter()
        .any(|d| d.get(key).and_then(Value::as_bool) == Some(true))
}

fn round6(v: f64) -> f64 {
    (v * 1e6).round() / 1e6
}

/// Parses each shard's response line, failing on the first shard whose
/// line is not an `{"ok":true,"op":<op>}` response (its error text is
/// surfaced verbatim).
fn parse_ok_docs(lines: &[String], op: &str) -> Result<Vec<Value>, String> {
    let mut docs = Vec::with_capacity(lines.len());
    for line in lines {
        let doc = json::parse(line).map_err(|e| format!("shard response: {e}"))?;
        if doc.get("ok").and_then(Value::as_bool) != Some(true) {
            let detail = doc
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or("not an ok response");
            return Err(format!("shard {op} failed: {detail}"));
        }
        docs.push(doc);
    }
    if docs.is_empty() {
        return Err(format!("no shard responses to aggregate for {op}"));
    }
    Ok(docs)
}

/// Merges per-shard `stats` response lines into one fleet-wide `stats`
/// response: counters and sizes are exact sums, `hit_rate` is
/// recomputed from the summed hit/miss counters, `draining` is true if
/// any shard is draining, and latency percentiles take the worst
/// shard. A daemon omits the latency row of a path that never served a
/// request, so the fleet reports every path any shard reports, in the
/// daemon's order. The response carries `"shards":N`.
///
/// # Errors
///
/// A human-readable message when a shard's line is not a successful
/// `stats` response.
pub fn aggregate_stats(lines: &[String], request_id: &str) -> Result<String, String> {
    let docs = parse_ok_docs(lines, "stats")?;
    let hits = sum_u64(&docs, "hits");
    let misses = sum_u64(&docs, "misses");
    let lookups = hits + misses;
    let hit_rate = if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    };
    let mut out = String::with_capacity(768);
    out.push_str("{\"ok\":true,\"op\":\"stats\",\"request_id\":");
    out.push_str(&json_str(request_id));
    out.push_str(",\"shards\":");
    out.push_str(&docs.len().to_string());
    for key in ["requests", "hits", "misses"] {
        out.push_str(",\"");
        out.push_str(key);
        out.push_str("\":");
        out.push_str(&sum_u64(&docs, key).to_string());
    }
    out.push_str(",\"hit_rate\":");
    out.push_str(&json::fmt_f64(round6(hit_rate)));
    for key in [
        "evictions",
        "cache_entries",
        "cache_bytes",
        "compiles",
        "coalesced",
        "shed",
        "deadline_misses",
    ] {
        out.push_str(",\"");
        out.push_str(key);
        out.push_str("\":");
        out.push_str(&sum_u64(&docs, key).to_string());
    }
    out.push_str(",\"draining\":");
    out.push_str(if any_true(&docs, "draining") {
        "true"
    } else {
        "false"
    });
    for key in ["store_persisted", "store_loaded"] {
        out.push_str(",\"");
        out.push_str(key);
        out.push_str("\":");
        out.push_str(&sum_u64(&docs, key).to_string());
    }
    for key in ["p50_compile_ms", "p90_compile_ms", "p99_compile_ms"] {
        out.push_str(",\"");
        out.push_str(key);
        out.push_str("\":");
        out.push_str(&json::fmt_f64(round6(max_f64(&docs, key))));
    }
    // Per-path latency: counts sum; percentiles take the worst shard.
    out.push_str(",\"latency\":{");
    let mut first = true;
    for (path, _) in crate::metrics::REQUEST_PATHS {
        let per_path: Vec<Value> = docs
            .iter()
            .filter_map(|d| d.get("latency").and_then(|l| l.get(path)))
            .cloned()
            .collect();
        if per_path.is_empty() {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&json_str(path));
        out.push_str(":{\"count\":");
        out.push_str(&sum_u64(&per_path, "count").to_string());
        for key in ["p50_ms", "p90_ms", "p99_ms"] {
            out.push_str(",\"");
            out.push_str(key);
            out.push_str("\":");
            out.push_str(&json::fmt_f64(round6(max_f64(&per_path, key))));
        }
        out.push('}');
    }
    out.push_str("},\"workers\":");
    out.push_str(&sum_u64(&docs, "workers").to_string());
    out.push('}');
    Ok(out)
}

/// Merges per-shard `store-stats` response lines: every counter sums,
/// `configured` is true if any shard persists. The response carries
/// `"shards":N`.
///
/// # Errors
///
/// A human-readable message when a shard's line is not a successful
/// `store-stats` response.
pub fn aggregate_store_stats(lines: &[String], request_id: &str) -> Result<String, String> {
    let docs = parse_ok_docs(lines, "store-stats")?;
    let mut out = String::with_capacity(256);
    out.push_str("{\"ok\":true,\"op\":\"store-stats\",\"request_id\":");
    out.push_str(&json_str(request_id));
    out.push_str(",\"shards\":");
    out.push_str(&docs.len().to_string());
    out.push_str(",\"configured\":");
    out.push_str(if any_true(&docs, "configured") {
        "true"
    } else {
        "false"
    });
    for key in [
        "loaded",
        "discarded",
        "persisted",
        "removed",
        "entries",
        "bytes",
    ] {
        out.push_str(",\"");
        out.push_str(key);
        out.push_str("\":");
        out.push_str(&sum_u64(&docs, key).to_string());
    }
    // Shards recover in parallel, so the fleet was ready when the
    // slowest one was.
    out.push_str(",\"recover_ms\":");
    out.push_str(&json::fmt_f64(round6(max_f64(&docs, "recover_ms"))));
    out.push('}');
    Ok(out)
}

/// Merges per-shard `metrics` response lines into one `metrics`
/// response whose exposition is the fleet-wide merge
/// ([`merge_expositions`]). The response carries `"shards":N`.
///
/// # Errors
///
/// A human-readable message when a shard's line is not a successful
/// `metrics` response.
pub fn aggregate_metrics(lines: &[String], request_id: &str) -> Result<String, String> {
    let docs = parse_ok_docs(lines, "metrics")?;
    let expositions: Vec<&str> = docs
        .iter()
        .filter_map(|d| d.get("exposition").and_then(Value::as_str))
        .collect();
    let merged = merge_expositions(&expositions);
    let content_type = docs
        .first()
        .and_then(|d| d.get("content_type").and_then(Value::as_str))
        .unwrap_or(crate::metrics::EXPOSITION_CONTENT_TYPE)
        .to_string();
    let mut out = String::with_capacity(merged.len() + 160);
    out.push_str("{\"ok\":true,\"op\":\"metrics\",\"request_id\":");
    out.push_str(&json_str(request_id));
    out.push_str(",\"shards\":");
    out.push_str(&docs.len().to_string());
    out.push_str(",\"content_type\":");
    out.push_str(&json_str(&content_type));
    out.push_str(",\"exposition\":");
    out.push_str(&json_str(&merged));
    out.push('}');
    Ok(out)
}

/// Merges Prometheus text expositions (v0.0.4) sample-wise: samples
/// with the same `name{labels}` key sum across shards — correct for
/// counters, gauges measuring sizes, and summary `_count`/`_sum`
/// series — except `quantile`-labelled samples, which are not additive
/// and take the max (the worst shard), matching how the stats
/// aggregation treats percentiles. A quantile sample only participates
/// when its shard's sibling `_count` series is non-zero: an idle or
/// freshly restarted shard exposes default (or stale) percentiles for
/// series it has never recorded into, and a max over those would skew
/// the fleet p99. `# HELP`/`# TYPE` headers and the sample order come
/// from the first exposition; samples only later shards know are
/// appended at the end in their own order.
pub fn merge_expositions(expositions: &[&str]) -> String {
    // Key → (merged value, takes-max). Keys keep their first-seen
    // order so the merged exposition is stable and diffable.
    let mut order: Vec<String> = Vec::new();
    let mut merged: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
    let mut headers: Vec<String> = Vec::new();
    let mut seen_headers: std::collections::HashSet<String> = std::collections::HashSet::new();
    for exposition in expositions {
        // First pass: this shard's `_count` series, so the second pass
        // can tell a measured percentile from an idle shard's default.
        let mut counts: std::collections::HashMap<&str, f64> = std::collections::HashMap::new();
        for line in exposition.lines() {
            if line.starts_with('#') {
                continue;
            }
            if let Some((key, value)) = split_sample(line) {
                if key.split('{').next().unwrap_or(key).ends_with("_count") {
                    counts.insert(key, value);
                }
            }
        }
        for line in exposition.lines() {
            if line.starts_with('#') {
                // HELP/TYPE lines: keep the first shard's copy only
                // (keyed by kind + metric so HELP and TYPE coexist).
                let kind = line.split_whitespace().nth(1).unwrap_or("");
                if seen_headers.insert(format!("{kind} {}", header_key(line))) {
                    headers.push(line.to_string());
                }
                continue;
            }
            let Some((key, value)) = split_sample(line) else {
                continue;
            };
            if is_quantile_sample(key)
                && quantile_count_key(key)
                    .is_some_and(|sibling| counts.get(sibling.as_str()) == Some(&0.0))
            {
                continue;
            }
            match merged.entry(key.to_string()) {
                std::collections::hash_map::Entry::Occupied(mut slot) => {
                    if is_quantile_sample(key) {
                        let current = *slot.get();
                        slot.insert(current.max(value));
                    } else {
                        *slot.get_mut() += value;
                    }
                }
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(value);
                    order.push(key.to_string());
                }
            }
        }
    }
    // Headers first (grouped as Prometheus expects), then samples in
    // first-seen order.
    let mut out = String::new();
    let mut emitted: std::collections::HashSet<&str> = std::collections::HashSet::new();
    for key in &order {
        let metric = metric_family(key);
        if emitted.insert(metric) {
            for header in headers.iter().filter(|h| header_key(h) == metric) {
                out.push_str(header);
                out.push('\n');
            }
        }
        out.push_str(key);
        out.push(' ');
        out.push_str(&json::fmt_f64(merged[key]));
        out.push('\n');
    }
    out
}

/// The metric name a `# HELP`/`# TYPE` line describes (empty for
/// malformed comment lines, which then merge as plain comments).
fn header_key(line: &str) -> &str {
    line.split_whitespace().nth(2).unwrap_or("")
}

/// Splits one exposition sample into `(name{labels}, value)`.
fn split_sample(line: &str) -> Option<(&str, f64)> {
    let line = line.trim();
    if line.is_empty() {
        return None;
    }
    let at = line.rfind(' ')?;
    let value: f64 = line[at + 1..].parse().ok()?;
    Some((line[..at].trim_end(), value))
}

/// `quantile`-labelled summary samples are not additive across shards.
fn is_quantile_sample(key: &str) -> bool {
    key.contains("quantile=")
}

/// The sibling `_count` series key of a quantile sample: the same
/// family and label set minus the `quantile` label —
/// `m{path="x",quantile="0.99"}` → `m_count{path="x"}`. `None` for
/// keys that do not parse as `name{labels}`.
fn quantile_count_key(key: &str) -> Option<String> {
    let brace = key.find('{')?;
    let name = &key[..brace];
    let labels = key[brace + 1..].strip_suffix('}')?;
    let kept: Vec<&str> = labels
        .split(',')
        .filter(|l| !l.trim_start().starts_with("quantile="))
        .collect();
    Some(if kept.is_empty() {
        format!("{name}_count")
    } else {
        format!("{name}_count{{{}}}", kept.join(","))
    })
}

/// The family name of a sample key: everything before the label block,
/// with summary suffixes stripped so `_count`/`_sum` group under their
/// family's headers.
fn metric_family(key: &str) -> &str {
    let name = key.split('{').next().unwrap_or(key);
    for suffix in ["_count", "_sum", "_bucket"] {
        if let Some(stripped) = name.strip_suffix(suffix) {
            return stripped;
        }
    }
    name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: u64) -> Fingerprint {
        let mut h = StableHasher::new();
        h.write_u64(n);
        h.finish()
    }

    #[test]
    fn placement_is_deterministic_and_order_independent() {
        let a = ShardRing::new(&["h1:1".into(), "h2:1".into(), "h3:1".into()]);
        let b = ShardRing::new(&["h3:1".into(), "h1:1".into(), "h2:1".into()]);
        for n in 0..500 {
            let f = fp(n);
            assert_eq!(a.shard_for(&f), b.shard_for(&f));
            assert_eq!(a.shard_for(&f), a.shard_for(&f));
        }
    }

    #[test]
    fn load_splits_roughly_evenly() {
        let ring = ShardRing::new(&["h1:1".into(), "h2:1".into(), "h3:1".into(), "h4:1".into()]);
        let mut counts = [0usize; 4];
        let total = 4000;
        for n in 0..total {
            counts[ring.index_for(&fp(n))] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let share = c as f64 / total as f64;
            assert!(
                (0.10..=0.45).contains(&share),
                "shard {i} holds {share:.3} of keys: {counts:?}"
            );
        }
    }

    #[test]
    fn removing_a_shard_only_remaps_its_own_keys() {
        let four = ShardRing::new(&["h1:1".into(), "h2:1".into(), "h3:1".into(), "h4:1".into()]);
        let three = ShardRing::new(&["h1:1".into(), "h2:1".into(), "h3:1".into()]);
        let total = 4000;
        let mut moved = 0;
        for n in 0..total {
            let f = fp(n);
            let before = four.shard_for(&f);
            let after = three.shard_for(&f);
            if before == "h4:1" {
                continue; // its keys must move somewhere
            }
            if before != after {
                moved += 1;
            }
        }
        assert_eq!(
            moved, 0,
            "keys not owned by the removed shard must stay put"
        );
    }

    #[test]
    fn merge_expositions_sums_counters_and_maxes_quantiles() {
        let a = "# HELP qpilot_requests_total Requests.\n# TYPE qpilot_requests_total counter\nqpilot_requests_total 3\nqpilot_latency{quantile=\"0.99\"} 5\nqpilot_latency_count 10\n";
        let b = "# HELP qpilot_requests_total Requests.\n# TYPE qpilot_requests_total counter\nqpilot_requests_total 4\nqpilot_latency{quantile=\"0.99\"} 2\nqpilot_latency_count 7\n";
        let merged = merge_expositions(&[a, b]);
        assert!(merged.contains("qpilot_requests_total 7"), "{merged}");
        assert!(
            merged.contains("qpilot_latency{quantile=\"0.99\"} 5"),
            "{merged}"
        );
        assert!(merged.contains("qpilot_latency_count 17"), "{merged}");
        assert_eq!(
            merged.matches("# TYPE qpilot_requests_total").count(),
            1,
            "headers deduplicate: {merged}"
        );
    }

    #[test]
    fn aggregate_stats_sums_counters() {
        let a = "{\"ok\":true,\"op\":\"stats\",\"request_id\":\"r-1\",\"requests\":5,\"hits\":3,\"misses\":2,\"hit_rate\":0.6,\"evictions\":0,\"cache_entries\":2,\"cache_bytes\":100,\"compiles\":2,\"coalesced\":0,\"shed\":0,\"deadline_misses\":0,\"draining\":false,\"store_persisted\":0,\"store_loaded\":0,\"p50_compile_ms\":1.5,\"p90_compile_ms\":2.0,\"p99_compile_ms\":2.5,\"latency\":{\"hit\":{\"count\":3,\"p50_ms\":0.1,\"p90_ms\":0.2,\"p99_ms\":0.3}},\"workers\":4}".to_string();
        let b = "{\"ok\":true,\"op\":\"stats\",\"request_id\":\"r-2\",\"requests\":7,\"hits\":1,\"misses\":6,\"hit_rate\":0.142857,\"evictions\":1,\"cache_entries\":6,\"cache_bytes\":300,\"compiles\":6,\"coalesced\":1,\"shed\":2,\"deadline_misses\":0,\"draining\":true,\"store_persisted\":6,\"store_loaded\":0,\"p50_compile_ms\":1.0,\"p90_compile_ms\":3.0,\"p99_compile_ms\":4.0,\"latency\":{\"hit\":{\"count\":1,\"p50_ms\":0.4,\"p90_ms\":0.5,\"p99_ms\":0.6}},\"workers\":4}".to_string();
        let merged = aggregate_stats(&[a, b], "agg-1").unwrap();
        let doc = json::parse(&merged).unwrap();
        assert_eq!(doc.get("requests").and_then(Value::as_u64), Some(12));
        assert_eq!(doc.get("hits").and_then(Value::as_u64), Some(4));
        assert_eq!(doc.get("misses").and_then(Value::as_u64), Some(8));
        assert_eq!(doc.get("shed").and_then(Value::as_u64), Some(2));
        assert_eq!(doc.get("workers").and_then(Value::as_u64), Some(8));
        assert_eq!(doc.get("shards").and_then(Value::as_u64), Some(2));
        assert_eq!(doc.get("draining").and_then(Value::as_bool), Some(true));
        let rate = doc.get("hit_rate").and_then(Value::as_f64).unwrap();
        assert!((rate - 4.0 / 12.0).abs() < 1e-6, "{rate}");
        assert_eq!(
            doc.get("p99_compile_ms").and_then(Value::as_f64),
            Some(4.0),
            "percentiles take the worst shard"
        );
        let hit = doc.get("latency").and_then(|l| l.get("hit")).unwrap();
        assert_eq!(hit.get("count").and_then(Value::as_u64), Some(4));
        assert_eq!(doc.get("request_id").and_then(Value::as_str), Some("agg-1"));
    }

    #[test]
    fn aggregate_store_stats_sums_counters() {
        let a = "{\"ok\":true,\"op\":\"store-stats\",\"request_id\":\"r-1\",\"configured\":true,\"loaded\":2,\"discarded\":0,\"persisted\":5,\"removed\":1,\"entries\":6,\"bytes\":600,\"recover_ms\":3.5}".to_string();
        let b = "{\"ok\":true,\"op\":\"store-stats\",\"request_id\":\"r-2\",\"configured\":false,\"loaded\":0,\"discarded\":0,\"persisted\":0,\"removed\":0,\"entries\":0,\"bytes\":0,\"recover_ms\":12.25}".to_string();
        let merged = aggregate_store_stats(&[a, b], "agg-2").unwrap();
        let doc = json::parse(&merged).unwrap();
        assert_eq!(doc.get("configured").and_then(Value::as_bool), Some(true));
        assert_eq!(doc.get("persisted").and_then(Value::as_u64), Some(5));
        assert_eq!(doc.get("entries").and_then(Value::as_u64), Some(6));
        assert_eq!(doc.get("shards").and_then(Value::as_u64), Some(2));
        // The fleet is ready when its slowest shard is.
        assert_eq!(doc.get("recover_ms").and_then(Value::as_f64), Some(12.25));
    }

    #[test]
    fn aggregate_stats_keeps_every_shards_latency_rows() {
        // Shard A never served a hit, so its reply has no `hit` row.
        let a = r#"{"ok":true,"op":"stats","requests":1,"hits":0,"misses":1,"latency":{"miss":{"count":1,"p50_ms":2.0,"p90_ms":2.0,"p99_ms":2.0}}}"#;
        let b = r#"{"ok":true,"op":"stats","requests":2,"hits":1,"misses":1,"latency":{"hit":{"count":1,"p50_ms":0.1,"p90_ms":0.2,"p99_ms":0.3},"miss":{"count":1,"p50_ms":3.0,"p90_ms":3.0,"p99_ms":3.5}}}"#;
        let merged = aggregate_stats(&[a.to_string(), b.to_string()], "agg-4").unwrap();
        let latency = json::parse(&merged)
            .unwrap()
            .get("latency")
            .cloned()
            .unwrap();
        let row = |path: &str, key: &str| latency.get(path).and_then(|r| r.get(key)).cloned();
        assert_eq!(row("hit", "count"), Some(Value::Num(1.0)), "{merged}");
        assert_eq!(row("hit", "p99_ms"), Some(Value::Num(0.3)), "{merged}");
        assert_eq!(row("miss", "count"), Some(Value::Num(2.0)), "{merged}");
        assert_eq!(row("miss", "p99_ms"), Some(Value::Num(3.5)), "{merged}");
        assert!(
            merged.find("\"hit\":") < merged.find("\"miss\":"),
            "rows follow the daemon's path order: {merged}"
        );
    }

    /// A fake shard's reply: an ok line echoing the request's `op`,
    /// tagged with the shard that sent it.
    fn fake_reply(shard: usize, line: &str) -> String {
        let op = json::parse(line)
            .ok()
            .and_then(|doc| doc.get("op").and_then(Value::as_str).map(str::to_string))
            .unwrap_or_default();
        format!(
            "{{\"ok\":true,\"op\":{},\"shard\":{shard},\"requests\":1,\"persisted\":1,\"exposition\":\"qpilot_requests_total 1\\n\"}}",
            json_str(&op)
        )
    }

    /// Routes `line` over a fake three-shard fleet in which shard `down`
    /// fails. Returns the reply and the shards called, in order.
    fn route_fake(line: &str, down: Option<usize>) -> (Handled, Vec<usize>) {
        let ring = ShardRing::new(&["s0:1".into(), "s1:1".into(), "s2:1".into()]);
        let mut calls = Vec::new();
        let handled = route(&ring, line, |shard, sent| {
            assert_eq!(sent, line, "lines are relayed verbatim");
            calls.push(shard);
            if Some(shard) == down {
                return Err(format!("shard {shard} unreachable"));
            }
            Ok(fake_reply(shard, sent))
        });
        (handled, calls)
    }

    /// A compile line with a client id whose owner is not shard 0, so
    /// reaching the owner differs from the first-shard default.
    fn compile_line_and_owner() -> (String, usize) {
        let ring = ShardRing::new(&["s0:1".into(), "s1:1".into(), "s2:1".into()]);
        (2..40)
            .map(|n| {
                format!(
                    r#"{{"op":"compile","circuit":{{"num_qubits":{n},"gates":[["cz",0,1]]}},"request_id":"c-1"}}"#
                )
            })
            .find_map(|line| match parse_request(&line) {
                Ok(Request::Compile { request, .. }) => {
                    let owner = ring.index_for(&request.fingerprint());
                    (owner != 0).then_some((line, owner))
                }
                _ => None,
            })
            .expect("some circuit is owned by another shard")
    }

    #[test]
    fn route_sends_a_compile_to_its_owner_only() {
        let (line, owner) = compile_line_and_owner();
        let (handled, calls) = route_fake(&line, None);
        assert_eq!(calls, vec![owner]);
        assert_eq!(
            handled.response,
            fake_reply(owner, &line),
            "relayed byte for byte"
        );
        assert!(!handled.shutdown);
    }

    #[test]
    fn route_merges_the_observability_ops_over_every_shard() {
        for op in ["stats", "store-stats", "metrics"] {
            let line = format!(r#"{{"op":"{op}","request_id":"c-2"}}"#);
            let (handled, calls) = route_fake(&line, None);
            assert_eq!(calls, vec![0, 1, 2], "{op}");
            let doc = json::parse(&handled.response).unwrap();
            assert_eq!(doc.get("ok"), Some(&Value::Bool(true)), "{op}");
            assert_eq!(doc.get("op").and_then(Value::as_str), Some(op));
            assert_eq!(doc.get("shards").and_then(Value::as_u64), Some(3), "{op}");
            assert_eq!(doc.get("request_id").and_then(Value::as_str), Some("c-2"));
        }
        let (stats, _) = route_fake(r#"{"op":"stats"}"#, None);
        assert!(
            stats.response.contains("\"requests\":3"),
            "{}",
            stats.response
        );
        let (metrics, _) = route_fake(r#"{"op":"metrics"}"#, None);
        assert!(
            metrics.response.contains("qpilot_requests_total 3"),
            "{}",
            metrics.response
        );
    }

    #[test]
    fn route_shuts_down_every_shard_even_past_a_failure() {
        let (handled, calls) = route_fake(r#"{"op":"shutdown","request_id":"c-3"}"#, Some(1));
        assert_eq!(calls, vec![0, 1, 2]);
        assert!(handled.shutdown);
        assert_eq!(
            handled.response,
            r#"{"ok":true,"op":"shutdown","request_id":"c-3"}"#
        );
    }

    #[test]
    fn route_sends_ping_and_malformed_lines_to_the_first_shard() {
        for line in [
            r#"{"op":"ping"}"#,
            "not json",
            r#"{"op":"warp"}"#,
            // Over the size limit: refused before it is fingerprinted.
            r#"{"op":"compile","router":"qec","distance":65536}"#,
        ] {
            let (handled, calls) = route_fake(line, None);
            assert_eq!(calls, vec![0], "{line}");
            assert_eq!(handled.response, fake_reply(0, line));
        }
    }

    #[test]
    fn route_turns_a_failing_shard_into_a_retry_line() {
        let (line, owner) = compile_line_and_owner();
        let (compile, _) = route_fake(&line, Some(owner));
        let (stats, _) = route_fake(r#"{"op":"stats","request_id":"c-1"}"#, Some(2));
        let (ping, _) = route_fake(r#"{"op":"ping","request_id":"c-1"}"#, Some(0));
        for handled in [compile, stats, ping] {
            let doc = json::parse(&handled.response).unwrap();
            assert_eq!(
                doc.get("ok"),
                Some(&Value::Bool(false)),
                "{}",
                handled.response
            );
            assert_eq!(doc.get("retry"), Some(&Value::Bool(true)));
            assert_eq!(doc.get("request_id").and_then(Value::as_str), Some("c-1"));
            assert!(handled.response.contains("unreachable"));
            assert!(!handled.shutdown);
        }
    }

    #[test]
    fn aggregate_surfaces_shard_errors() {
        let bad = "{\"ok\":false,\"request_id\":\"r-9\",\"path\":\"error\",\"error\":\"boom\"}"
            .to_string();
        let err = aggregate_stats(&[bad], "agg-3").unwrap_err();
        assert!(err.contains("boom"), "{err}");
    }
}
