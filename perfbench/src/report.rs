//! A run's outcome: gates, counts, and named metrics with units.

use crate::host;
use crate::stats;

#[derive(Default)]
pub struct Report {
    /// Failed correctness gates; empty means correct.
    pub errors: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Largest number of threads the workload ran at once.
    pub threads: usize,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// FNV-1a of the generated inputs' byte image.
    pub inputs_digest: u64,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn check(&mut self, res: Result<(), String>) {
        if let Err(e) = res {
            self.errors.push(e);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// Latency percentiles of one open-loop phase, in µs: p50 and p99, the
/// latter only when at least ten samples lie beyond it.
pub fn latency_us(mut ns: Vec<u64>, rep: &mut Report, phase: &str) -> (f64, f64) {
    ns.sort_unstable();
    let p50 = stats::percentile_sorted(&ns, 0.5).unwrap_or(0);
    let p99 = stats::percentile_sorted(&ns, 0.99).unwrap_or(0);
    rep.gate(stats::beyond(ns.len(), 0.99) >= 10, || {
        format!("{phase}: {} latency samples, too few for a p99", ns.len())
    });
    (p50 as f64 / 1e3, p99 as f64 / 1e3)
}

/// `throughput_pps`, the median of `rates` at the reference host's speed
/// (`f` is the host factor while they were measured, see `host.rs`), with
/// the measured median and the factor beside it.
pub fn throughput(rep: &mut Report, f: f64, rates: &[f64]) {
    let pps = stats::median(rates).unwrap_or(0.0);
    rep.metric("throughput_pps", pps * f, "1/s");
    rep.metric("throughput_raw_pps", pps, "1/s");
    rep.metric(
        "throughput_window_iqr_share",
        stats::iqr_share(rates).unwrap_or(0.0),
        "ratio",
    );
    rep.metric("host_factor", f, "ratio");
}

/// Peak resident set of this process (`VmHWM`) in MiB, less the host
/// reference's table, which is resident from the start of every run.
pub fn peak_rss_mb() -> f64 {
    vm_hwm_mb() - host::TABLE_MIB
}

fn vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Record `fairness_ratio` and gate it: some pair must have been jointly
/// backlogged, and no pair may exceed its bound.
pub fn fairness(rep: &mut Report, f: crate::fairness::Fairness) {
    rep.gate(f.pairs > 0, || {
        "fairness: no jointly backlogged pair".into()
    });
    rep.gate(f.violations == 0, || {
        format!(
            "fairness: {} runs exceed their bound (worst ratio {})",
            f.violations, f.ratio
        )
    });
    rep.metric("fairness_ratio", f.ratio, "ratio");
}
