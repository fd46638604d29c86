//! Percentiles, geometric means, quartiles and closed-loop accounting.

/// The percentile rule: a percentile is reported only with the count of
/// samples that lie beyond it, and it needs at least this many.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending-sorted samples, `q ∈ (0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let rank = rank(sorted.len(), q)?;
    Some(sorted[rank - 1])
}

/// The 1-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> Option<usize> {
    (n > 0).then(|| ((q * n as f64).ceil() as usize).clamp(1, n))
}

/// Samples strictly beyond percentile `q`'s rank among `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    rank(n, q).map_or(0, |r| n - r)
}

/// Geometric mean of positive values (`None` when empty).
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Arithmetic mean (`0` when empty, for layers a workload bypasses).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `(q1, median, q3)` as Python's `statistics.quantiles(values, n=4)`
/// (the default exclusive method) and `statistics.median` give them.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    if len < 2 {
        return data.first().map(|&v| (v, v, v));
    }
    let n = 4usize;
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    let median = if len % 2 == 1 {
        data[len / 2]
    } else {
        (data[len / 2 - 1] + data[len / 2]) / 2.0
    };
    Some((cut(1), median, cut(3)))
}

/// The accounting of one closed-loop phase.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopSummary {
    /// Requests sent (answered or not).
    pub attempted: usize,
    /// Requests that failed for any reason.
    pub failed: usize,
    /// Median client latency; failures count as infinitely slow.
    pub p50_ms: f64,
    /// 99th-percentile client latency, on the same samples.
    pub p99_ms: f64,
    /// Samples beyond the p99 rank.
    pub beyond_p99: usize,
    /// Successful replies per second of timed wall time.
    pub throughput_rps: f64,
}

/// Summarises a phase from the latencies of its successful requests, its
/// failure count and its wall time. A failed request counts as attempted
/// and lies beyond every latency percentile.
pub fn summarise(ok_latencies_ms: &[f64], failed: usize, wall_s: f64) -> LoopSummary {
    let mut all: Vec<f64> = ok_latencies_ms.to_vec();
    all.extend(std::iter::repeat_n(f64::INFINITY, failed));
    all.sort_by(f64::total_cmp);
    LoopSummary {
        attempted: all.len(),
        failed,
        p50_ms: percentile(&all, 0.50).unwrap_or(f64::INFINITY),
        p99_ms: percentile(&all, 0.99).unwrap_or(f64::INFINITY),
        beyond_p99: beyond(all.len(), 0.99),
        throughput_rps: ok_latencies_ms.len() as f64 / wall_s,
    }
}

/// FNV-1a, 64 bit: the digest of inputs and reply bytes.
pub fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let data: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&data, 0.50), Some(500.0));
        assert_eq!(percentile(&data, 0.99), Some(990.0));
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(beyond(0, 0.99), 0);
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        assert!(beyond(999, 0.99) < MIN_BEYOND);
        assert!(beyond(1000, 0.99) >= MIN_BEYOND);
        assert!(beyond(20, 0.5) >= MIN_BEYOND);
    }

    #[test]
    fn geometric_mean() {
        assert_eq!(geomean(&[]), None);
        assert!((geomean(&[1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
        assert!((geomean(&[16.0; 5]).unwrap() - 16.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0, 4.0]).unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&data), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some((1.5, 4.0, 12.0))
        );
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn failures_count_as_attempted_and_beyond_every_percentile() {
        let ok = vec![1.0; 990];
        let s = summarise(&ok, 10, 2.0);
        assert_eq!((s.attempted, s.failed), (1000, 10));
        assert_eq!(s.p99_ms, 1.0);
        assert_eq!(s.throughput_rps, 495.0);
        let s = summarise(&ok[..989], 11, 2.0);
        assert_eq!(s.attempted, 1000);
        assert!(s.p99_ms.is_infinite());
        assert_eq!(s.p50_ms, 1.0);
        let s = summarise(&[], 3, 1.0);
        assert!(s.p50_ms.is_infinite());
        assert_eq!(s.throughput_rps, 0.0);
    }

    #[test]
    fn fnv_is_the_reference_function() {
        // FNV-1a 64 of "a" is 0xaf63dc4c8601ec8c.
        assert_eq!(fnv1a(b"a", FNV_OFFSET), 0xaf63_dc4c_8601_ec8c);
    }
}
