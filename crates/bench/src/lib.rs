//! Shared infrastructure for the Q-Pilot experiment binaries.
//!
//! The binaries in `src/bin/` reproduce the paper's tables and figures
//! (`paper_report` holds the baseline comparisons) and measure the
//! system (`perf_report`, `service_report`); this library holds the
//! pieces they share: the three baseline devices, workload routing, a
//! plain-text table printer, ratio helpers and a tiny argument parser.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod check;
pub mod depth;

pub use batch::compile_batch;

use std::time::Instant;

use qpilot_arch::{devices, CouplingGraph};
use qpilot_baselines::{compile_to_device, BaselineReport};
use qpilot_circuit::Circuit;
use qpilot_core::compile::{CompileOptions, Compiler, RouterOptions, Workload};
use qpilot_core::{CompiledProgram, FpqaConfig};

/// Routes one workload through the unified pipeline
/// ([`qpilot_core::compile`](mod@qpilot_core::compile)) with default options, panicking on failure
/// — the experiment binaries route known-good workloads.
pub fn route_workload(workload: &Workload, config: &FpqaConfig) -> CompiledProgram {
    qpilot_core::compile(workload, config).expect("routing")
}

/// [`route_workload`] with explicit per-router options.
pub fn route_workload_with(
    workload: &Workload,
    options: impl Into<RouterOptions>,
    config: &FpqaConfig,
) -> CompiledProgram {
    Compiler::with_options(CompileOptions::new().router_options(options))
        .compile(workload, config)
        .expect("routing")
        .into_program()
}

/// The paper's three fixed-topology baseline devices (§4.1).
pub fn baseline_devices() -> Vec<CouplingGraph> {
    vec![
        devices::faa_square_16x16(),
        devices::faa_triangular_16x16(),
        devices::ibm_washington(),
    ]
}

/// Compiles `circuit` on every baseline device, skipping devices that are
/// too small for it.
pub fn compile_on_baselines(circuit: &Circuit) -> Vec<Option<BaselineReport>> {
    baseline_devices()
        .iter()
        .map(|dev| compile_to_device(circuit, dev).ok())
        .collect()
}

/// The FPQA configuration the main-result figures use: square array.
pub fn fpqa_config(num_qubits: u32) -> FpqaConfig {
    FpqaConfig::square_for(num_qubits)
}

/// Wall-clock measurement helper: returns `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Geometric mean of ratios `baseline / ours` — the paper's "N× smaller"
/// aggregates. Pairs where either side is zero are skipped.
pub fn geomean_ratio(ours: &[f64], baseline: &[f64]) -> f64 {
    let logs: Vec<f64> = ours
        .iter()
        .zip(baseline)
        .filter(|(o, b)| **o > 0.0 && **b > 0.0)
        .map(|(o, b)| (b / o).ln())
        .collect();
    if logs.is_empty() {
        return f64::NAN;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// A fixed-width plain-text table printer.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Minimal `--flag value` argument lookup.
pub fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Parses `--flag v` as a number with a default.
pub fn arg_num<T: std::str::FromStr>(name: &str, default: T) -> T {
    arg_value(name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Parses a comma-separated `--flag a,b,c` list with a default.
pub fn arg_list(name: &str, default: &[u32]) -> Vec<u32> {
    arg_value(name)
        .map(|v| v.split(',').filter_map(|x| x.trim().parse().ok()).collect())
        .unwrap_or_else(|| default.to_vec())
}

/// A simple fixed-bin histogram for the Fig. 9/15 style summaries.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<usize>,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi]` with `n` bins.
    pub fn new(lo: f64, hi: f64, n: usize) -> Self {
        assert!(hi > lo && n > 0, "invalid histogram bounds");
        Histogram {
            lo,
            hi,
            bins: vec![0; n],
        }
    }

    /// Adds a sample (clamped to range).
    pub fn add(&mut self, x: f64) {
        let n = self.bins.len();
        let t = ((x - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0);
        let idx = ((t * n as f64) as usize).min(n - 1);
        self.bins[idx] += 1;
    }

    /// Bin counts.
    pub fn bins(&self) -> &[usize] {
        &self.bins
    }

    /// Renders as `lo..hi: count` lines with a bar.
    pub fn render(&self) -> String {
        let n = self.bins.len();
        let width = (self.hi - self.lo) / n as f64;
        let max = self.bins.iter().copied().max().unwrap_or(1).max(1);
        let mut out = String::new();
        for (i, &c) in self.bins.iter().enumerate() {
            let lo = self.lo + i as f64 * width;
            let bar = "#".repeat(c * 40 / max);
            out.push_str(&format!(
                "{:>10.3} ..{:>10.3} | {c:>6} {bar}\n",
                lo,
                lo + width
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_equal_series_is_one() {
        let a = [2.0, 3.0, 4.0];
        assert!((geomean_ratio(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_ratio_orientation() {
        // baseline twice ours -> ratio 2.
        let ours = [1.0, 2.0];
        let base = [2.0, 4.0];
        assert!((geomean_ratio(&ours, &base) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_skips_zeros() {
        let ours = [0.0, 2.0];
        let base = [5.0, 4.0];
        assert!((geomean_ratio(&ours, &base) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["n", "depth"]);
        t.row(vec!["5".into(), "12".into()]);
        t.row(vec!["100".into(), "7".into()]);
        let s = t.render();
        assert!(s.contains("  n  depth"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn histogram_bins_and_clamps() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.add(0.5);
        h.add(9.9);
        h.add(42.0); // clamped into last bin
        assert_eq!(h.bins()[0], 1);
        assert_eq!(h.bins()[4], 2);
    }

    #[test]
    fn baseline_devices_have_expected_sizes() {
        let devs = baseline_devices();
        assert_eq!(devs[0].num_qubits(), 256);
        assert_eq!(devs[1].num_qubits(), 256);
        assert_eq!(devs[2].num_qubits(), 127);
    }
}
