//! One command for the packet-path benchmark:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <graph_mix|threaded_open|flows_1m> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! It generates the workload's inputs from the seed, runs them through
//! the production packet path, checks every correctness gate, and prints
//! each metric by name and unit, a provenance line, and — as the last
//! line of standard output — one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer ledger with `--trace 1`. A failed gate exits with code 1.
//! See `perfbench/README.md`.

mod engine;
mod fairness;
mod gen;
mod graph_mix;
mod host;
mod layers;
mod report;
mod stats;
mod workloads;

use report::Report;
use std::process::{Command, ExitCode};

/// End-to-end metrics, reported by every workload with tracing off. The
/// run also prints `lat_lo_p50_us`, `lat_hi_p50_us`, `lat_hi_p99_us`,
/// `loss_ratio` and the measured throughput before host adjustment,
/// which are not gated: see `perfbench/README.md`.
pub const END_TO_END: [&str; 4] = ["throughput_pps", "fairness_ratio", "setup_s", "peak_rss_mb"];

/// Per-layer metrics, reported by every workload with tracing on. The
/// run also prints `sfq_telemetry.snapshot_ns_per_pkt`, which reads an
/// exact 0 wherever no snapshots run during the saturated phase.
pub const PER_LAYER: [&str; 44] = [
    "simtime.tag_ops_ns",
    "sfq_core.enqueue_ns",
    "sfq_core.dequeue_ns",
    "sfq_core.fixed_span_ns",
    "sfq_core.add_flow_ns",
    "sfq_core.pool_slots_peak",
    "sfq_engine.ingest_ns",
    "sfq_engine.drain_ns_per_pkt",
    "sfq_engine.facade_ns",
    "sfq_engine.drain_calls",
    "sfq_engine.drain_fill_ratio",
    "sfq_engine.sojourn_p50_us",
    "sfq_engine.ring.push_pop_ns",
    "sfq_engine.ring.handoff_p50_ns",
    "sfq_engine.root.pick_ns",
    "sfq_engine.root.charge_ns",
    "sfq_engine.root.per_pkt_ns",
    "sfq_engine.refused",
    "sfq_engine.refused.buffer_full",
    "sfq_engine.refused.unknown_flow",
    "sfq_engine.refused.shard_down",
    "sfq_engine.refused.other",
    "graph.build_ms",
    "graph.run_ns_per_pkt",
    "graph.arena.alloc_free_ns",
    "graph.classify_ns",
    "graph.police_ns",
    "graph.refused",
    "netsim.switch_ns",
    "des.event_ns",
    "sfq_telemetry.record_ns",
    "sfq_telemetry.snapshot_us",
    "sfq_telemetry.torn_ratio",
    "bench.gen_late_p99_us",
    "bench.lat_lo_p50_us",
    "bench.lat_hi_p50_us",
    "bench.lat_hi_p99_us",
    "bench.loss_ratio",
    "bench.trace_overhead_pct",
    "ledger.gap_pct",
    "ledger.sum_ns_per_pkt",
    "ledger.e2e_traced_ns_per_pkt",
    "ledger.core_share_pct",
    "ledger.coordination_share_pct",
];

/// Workloads `BENCHMARK.json` lists.
pub const WORKLOADS: [&str; 2] = ["graph_mix", "flows_1m"];
/// Workloads this program also runs but `BENCHMARK.json` does not list:
/// `threaded_open` is too sensitive to host thread scheduling to gate
/// on a shared 2-vCPU machine (see README.md), and is run by hand for
/// the threaded engine's ledger.
pub const MANUAL: [&str; 1] = ["threaded_open"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) && !MANUAL.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {WORKLOADS:?} or {MANUAL:?}"
        ));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(0.5..=600.0).contains(&seconds) {
        return Err("--seconds must be in 0.5..=600".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn sh(cmd: &str, args: &[&str]) -> String {
    // Never look for a repository above the working directory.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.display().to_string()))
        .unwrap_or_default();
    Command::new(cmd)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let load_before = loadavg();
    let mut rep: Report = match args.workload.as_str() {
        "graph_mix" => graph_mix::run(args.seed, args.seconds, args.trace),
        "threaded_open" => workloads::run(
            &workloads::THREADED_OPEN,
            args.seed,
            args.seconds,
            args.trace,
        ),
        _ => workloads::run(&workloads::FLOWS_1M, args.seed, args.seconds, args.trace),
    };
    if args.trace {
        // The handoff probe runs a second thread beside the main one.
        rep.threads = rep.threads.max(2);
    }
    let wanted: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for m in wanted {
        if rep.errors.is_empty() && rep.get(m).is_none() {
            rep.errors.push(format!("metric {m} was not measured"));
        }
    }

    for (name, v, unit) in &rep.metrics {
        println!("{:<34} {:>16.4} {unit}", name, v);
    }
    for e in &rep.errors {
        println!("GATE FAILED: {e}");
    }
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "provenance {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"available_parallelism\": {parallelism}, \"threads\": {}, \"cpu_model\": {}, \
         \"loadavg_before\": {}, \"loadavg_after\": {}, \"git_commit\": {}, \"rustc\": {}, \
         \"inputs_fnv1a\": \"{:016x}\"}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        rep.threads,
        json_str(&cpu_model()),
        json_str(&load_before),
        json_str(&loadavg()),
        json_str(&sh("git", &["rev-parse", "HEAD"])),
        json_str(&sh("rustc", &["--version"])),
        rep.inputs_digest,
    );

    let correct = rep.errors.is_empty() && rep.threads <= parallelism.max(1);
    let metrics: Vec<String> = wanted
        .iter()
        .filter_map(|m| rep.metrics.iter().find(|x| x.0 == *m))
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                json_num(*v),
                json_str(u)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.attempted.max(1),
        rep.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric and workload names this program reports are exactly the
    /// ones `BENCHMARK.json` declares.
    #[test]
    fn names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let declared = json.matches("\"name\":").count();
        assert_eq!(
            declared,
            END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len()
        );
        for n in END_TO_END.iter().chain(&PER_LAYER).chain(&WORKLOADS) {
            assert!(
                json.contains(&format!("\"name\": \"{n}\"")),
                "{n} not in BENCHMARK.json"
            );
        }
    }
}
