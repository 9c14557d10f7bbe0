//! The two engine workloads: `flows_1m` (sync engine, one million flows,
//! saturated) and `threaded_open` (threaded engine with telemetry pages,
//! fixed offered rates). Each runs the same three phases — saturated,
//! open loop at `lo`, open loop at `hi` — on one engine instance, after
//! timing several complete set-ups.

use crate::engine::{self, check_books, open_loop, Log, Path, Saturated, Snapper, Spans};
use crate::fairness::{self, FlowTrace, ShardTerms};
use crate::gen::{self, EngineInputs, Rng};
use crate::host::HostRef;
use crate::layers::{self, Ledger, Shape};
use crate::report::{self, Report};
use crate::stats;
use sfq_core::FlowId;
use sfq_engine::{shard_of, EngineConfig, SyncEngine, ThreadedEngine};
use sfq_telemetry::{Aggregator, TelemetryHub};
use simtime::{Rate, SimTime};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Static description of one engine workload.
pub struct Spec {
    pub flows: usize,
    pub depth: usize,
    pub shards: usize,
    pub batch: usize,
    pub ring: usize,
    /// Closed-loop ingest/drain chunk.
    pub chunk: usize,
    /// Open-loop drain request size.
    pub drain_max: usize,
    pub setups: usize,
    /// Least warm-up before timing starts, in seconds, on top of
    /// [`WARM_TURNOVERS`].
    pub warm_s: u64,
    pub threaded: bool,
    pub sampled_flows: usize,
}

pub const FLOWS_1M: Spec = Spec {
    flows: 1_000_000,
    depth: 2,
    shards: 4,
    batch: 32,
    ring: 1 << 20,
    chunk: 4096,
    drain_max: 256,
    setups: 7,
    // After preload, pool slots sit in preload order. The rate then
    // climbs by about a third and takes 10 to 25 s to level off,
    // depending on how fast the host runs.
    warm_s: 25,
    threaded: false,
    sampled_flows: 64,
};

/// Complete turnovers of the preloaded backlog before timing starts.
const WARM_TURNOVERS: u64 = 4;

pub const THREADED_OPEN: Spec = Spec {
    flows: 512,
    depth: 4,
    shards: 1,
    batch: 8,
    ring: 1 << 14,
    chunk: 256,
    drain_max: 64,
    setups: 15,
    warm_s: 0,
    threaded: true,
    sampled_flows: 64,
};

// Built once per set-up and moved once: the variants' size gap costs nothing.
#[allow(clippy::large_enum_variant)]
enum Eng {
    Sync(SyncEngine<sfq_core::SfqFast>),
    Threaded(ThreadedEngine, Arc<TelemetryHub>),
}

fn config(spec: &Spec) -> EngineConfig {
    EngineConfig::new(spec.shards)
        .batch(spec.batch)
        .ring_capacity(spec.ring)
}

/// One complete set-up: build (and spawn), attach telemetry, register
/// every flow, preload and pump the standing backlog.
fn setup(spec: &Spec, inp: &EngineInputs) -> Result<Eng, String> {
    let preload = inp.preload_flow.len() as u64;
    let err = |e: sfq_core::SchedError| format!("set-up: {e}");
    if spec.threaded {
        let mut e = ThreadedEngine::new_fast(config(spec));
        let hub = e.attach_telemetry();
        for (f, &r) in inp.rate_bps.iter().enumerate() {
            e.try_add_flow(FlowId(f as u32), Rate::bps(r))
                .map_err(err)?;
        }
        for uid in 0..preload {
            let (f, l) = inp.arrival(uid);
            e.try_ingest(engine::packet(uid, f, l)).map_err(err)?;
        }
        e.pump(SimTime::ZERO);
        Ok(Eng::Threaded(e, hub))
    } else {
        let mut e = SyncEngine::new_fast(config(spec));
        for (f, &r) in inp.rate_bps.iter().enumerate() {
            e.try_add_flow(FlowId(f as u32), Rate::bps(r))
                .map_err(err)?;
        }
        for uid in 0..preload {
            let (f, l) = inp.arrival(uid);
            e.try_ingest(engine::packet(uid, f, l)).map_err(err)?;
        }
        e.pump(SimTime::ZERO).map_err(err)?;
        Ok(Eng::Sync(e))
    }
}

/// Phase results the end-to-end metrics and the ledger read.
struct Phases {
    sat_untraced: Option<engine::SatOut>,
    sat: engine::SatOut,
    sat_spans: Spans,
    sat_end: u64,
    lo: engine::OpenOut,
    hi: engine::OpenOut,
    snap: Option<Snapper>,
}

// One argument over clippy's limit: the host reference is the only one
// that is not part of the workload's own description.
#[allow(clippy::too_many_arguments)]
fn phases<P: Path>(
    p: &mut P,
    spec: &Spec,
    inp: &EngineInputs,
    seconds: f64,
    trace: bool,
    log: &mut Log,
    mut snap: Option<Snapper>,
    host: &mut HostRef,
) -> Result<Phases, String> {
    let err = |e: sfq_core::SchedError| format!("engine: {e}");
    let mut next_uid = inp.preload_flow.len() as u64;
    log.boundaries.push((0, 0));
    let loop_for = |secs: f64| Saturated {
        inp,
        chunk: spec.chunk,
        dur: Duration::from_secs_f64(secs),
    };
    let sat_s = seconds * 0.75;
    loop_for(sat_s)
        .warm_up(
            p,
            &mut next_uid,
            log,
            WARM_TURNOVERS * inp.preload_flow.len() as u64,
            Duration::from_secs(spec.warm_s),
        )
        .map_err(err)?;
    let mut sat_spans = Spans::default();
    // Traced runs split the saturated phase: an untraced half for the
    // trace-overhead baseline, then a traced half for the spans.
    let (sat_untraced, sat) = if trace {
        let half = loop_for(sat_s / 2.0);
        let a = half
            .run(p, &mut next_uid, log, None, snap.as_mut(), host)
            .map_err(err)?;
        let b = half
            .run(
                p,
                &mut next_uid,
                log,
                Some(&mut sat_spans),
                snap.as_mut(),
                host,
            )
            .map_err(err)?;
        (Some(a), b)
    } else {
        let sat = loop_for(sat_s)
            .run(p, &mut next_uid, log, None, snap.as_mut(), host)
            .map_err(err)?;
        (None, sat)
    };
    engine::drain_all(p, spec.chunk, log).map_err(err)?;
    let sat_end = next_uid;
    let lo = open_loop(
        p,
        &inp.lo,
        sat_end,
        spec.drain_max,
        log,
        trace,
        snap.as_mut(),
    )
    .map_err(err)?;
    let hi_base = sat_end + inp.lo.due_ns.len() as u64;
    let hi = open_loop(
        p,
        &inp.hi,
        hi_base,
        spec.drain_max,
        log,
        trace,
        snap.as_mut(),
    )
    .map_err(err)?;
    Ok(Phases {
        sat_untraced,
        sat,
        sat_spans,
        sat_end,
        lo,
        hi,
        snap,
    })
}

pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut rep = Report {
        threads: if spec.threaded { 2 } else { 1 },
        ..Report::default()
    };
    let phase_ns = (seconds / 8.0 * 1e9) as u64;
    let inp = EngineInputs::new(seed, spec.flows, spec.depth, phase_ns);
    rep.inputs_digest = gen::digest(|h| inp.feed(h));

    // Created first, so its table is resident for the whole run.
    let mut host = HostRef::new();
    let mut setup_s = Vec::new();
    let mut eng = None;
    for _ in 0..spec.setups {
        drop(eng.take());
        let t = Instant::now();
        match setup(spec, &inp) {
            Ok(e) => eng = Some(e),
            Err(e) => {
                rep.errors.push(e);
                return rep;
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let Some(eng) = eng else {
        rep.errors.push("no set-up ran".into());
        return rep;
    };

    let mut log = Log::default();
    let (ph, tele_check) = match eng {
        Eng::Sync(mut e) => (
            phases(
                &mut e, spec, &inp, seconds, trace, &mut log, None, &mut host,
            ),
            None,
        ),
        Eng::Threaded(mut e, hub) => {
            let snap = Snapper::new(Aggregator::new(Arc::clone(&hub)));
            let ph = phases(
                &mut e,
                spec,
                &inp,
                seconds,
                trace,
                &mut log,
                Some(snap),
                &mut host,
            );
            drop(e);
            (ph, Some(hub))
        }
    };
    let ph = match ph {
        Ok(ph) => ph,
        Err(e) => {
            rep.errors.push(e);
            return rep;
        }
    };

    // Peak RSS of set-up and phases, before the checks allocate.
    let rss = report::peak_rss_mb();
    // Books: every uid of every phase.
    let lo_n = inp.lo.due_ns.len() as u64;
    let hi_n = inp.hi.due_ns.len() as u64;
    let offered = ph.sat_end + lo_n + hi_n;
    let flow_of = |uid: u64| -> u32 {
        if uid < ph.sat_end {
            inp.arrival(uid).0
        } else if uid < ph.sat_end + lo_n {
            inp.lo.flow[(uid - ph.sat_end) as usize]
        } else {
            inp.hi.flow[(uid - ph.sat_end - lo_n) as usize]
        }
    };
    rep.check(check_books(&log, offered, spec.flows, &flow_of));
    rep.attempted = offered;
    rep.failed = log.refused.len() as u64;

    if let Some(hub) = &tele_check {
        match Aggregator::new(Arc::clone(hub)).snapshot(8) {
            Ok(s) => {
                rep.gate(s.conservation_gap() == 0, || {
                    format!("telemetry conservation gap {}", s.conservation_gap())
                });
                rep.gate(s.engine.offered == offered, || {
                    format!("pages offered {} != harness {offered}", s.engine.offered)
                });
                rep.gate(s.totals.dequeues == log.departed.len() as u64, || {
                    format!(
                        "pages dequeues {} != harness {}",
                        s.totals.dequeues,
                        log.departed.len()
                    )
                });
                rep.gate(s.engine.refused_total() == log.refused.len() as u64, || {
                    format!(
                        "pages refused {} != harness {}",
                        s.engine.refused_total(),
                        log.refused.len()
                    )
                });
            }
            Err(e) => rep.errors.push(format!("final snapshot: {e}")),
        }
    }

    // Fairness over the saturated phase (standing backlog).
    let sat_slots = log
        .departed
        .iter()
        .position(|&u| u as u64 >= ph.sat_end)
        .unwrap_or(log.departed.len());
    report::fairness(
        &mut rep,
        sat_fairness(spec, &inp, &log, ph.sat_end, sat_slots, seed),
    );

    let loss = rep.failed as f64 / rep.attempted.max(1) as f64;
    if !trace {
        let (lo50, _) = report::latency_us(ph.lo.lat_ns, &mut rep, "lo");
        let (hi50, hi99) = report::latency_us(ph.hi.lat_ns, &mut rep, "hi");
        report::throughput(&mut rep, ph.sat.host_factor, &ph.sat.window_pps);
        rep.metric("lat_lo_p50_us", lo50, "us");
        rep.metric("setup_s", stats::median(&setup_s).unwrap_or(0.0), "s");
        rep.metric("lat_hi_p50_us", hi50, "us");
        rep.metric("lat_hi_p99_us", hi99, "us");
        rep.metric("peak_rss_mb", rss, "MiB");
        rep.metric("loss_ratio", loss, "ratio");
        return rep;
    }

    // Traced run: the per-layer ledger.
    let untraced = ph
        .sat_untraced
        .as_ref()
        .expect("traced runs split the saturated phase");
    let e2e_untraced = untraced.elapsed_s * 1e9 / untraced.delivered.max(1) as f64;
    let e2e_traced = ph.sat.elapsed_s * 1e9 / ph.sat.delivered.max(1) as f64;
    let sp = &ph.sat_spans;
    let ingest_incl = sp.ingest_ns as f64 / sp.ingests.max(1) as f64;
    let drain_incl = sp.drain_ns as f64 / sp.returned.max(1) as f64;
    // Snapshots run every 10 ms in every phase: charge the saturated
    // phase its 100 per second at their average cost.
    let hub_snap = ph.snap.as_ref().map(|s| {
        let avg_ns = s.snapshot_ns as f64 / s.snapshots.max(1) as f64;
        (
            avg_ns / 1e3,
            s.torn as f64 / s.attempts.max(1) as f64,
            avg_ns * 100.0 * ph.sat.elapsed_s / ph.sat.delivered.max(1) as f64,
        )
    });
    // The replay stream: the steady arrival cycle, in its own order.
    let p = inp.preload_flow.len() as u64;
    let cycle = inp.cycle_flow.len() as u64;
    let stream: Vec<(u32, u16)> = (0..cycle.min(1 << 18))
        .map(|i| inp.arrival(p + i))
        .collect();
    let refused_by = log.refused_by;
    drop(log);
    let shape = Shape {
        rates: &inp.rate_bps,
        shards: spec.shards,
        batch: spec.batch,
        exact: false,
        telemetry: spec.threaded,
        depth: spec.depth,
        pump: spec.chunk / spec.shards,
        stream: &stream,
    };
    let mut led = Ledger::new(&mut rep);
    layers::common(&mut led, &shape, false);
    led.engine_native(ingest_incl, drain_incl, true);
    layers::graph_replay(&mut led, &shape);
    led.open_loop_counts(&ph.hi, &ph.lo);
    led.telemetry_read(hub_snap, spec.shards);
    led.refused(refused_by);
    led.finish(e2e_traced, e2e_untraced, loss);
    rep
}

/// Worst sampled `gap / bound` over the saturated phase's slots.
fn sat_fairness(
    spec: &Spec,
    inp: &EngineInputs,
    log: &Log,
    sat_end: u64,
    sat_slots: usize,
    seed: u64,
) -> fairness::Fairness {
    let mut rng = Rng::new(seed, 77);
    let mut sample_of = vec![u32::MAX; spec.flows];
    let mut traces: Vec<(usize, FlowTrace)> = Vec::new();
    while traces.len() < spec.sampled_flows.min(spec.flows) {
        let f = rng.below(spec.flows as u64) as usize;
        if sample_of[f] == u32::MAX {
            sample_of[f] = traces.len() as u32;
            traces.push((
                shard_of(FlowId(f as u32), spec.shards),
                FlowTrace::new(inp.rate_bps[f]),
            ));
        }
    }
    for uid in 0..sat_end {
        let f = inp.arrival(uid).0 as usize;
        if sample_of[f] != u32::MAX {
            traces[sample_of[f] as usize]
                .1
                .avail
                .push(log.boundary(uid));
        }
    }
    let dep_flows: Vec<u32> = log.departed[..sat_slots]
        .iter()
        .map(|&u| inp.arrival(u as u64).0)
        .collect();
    for (slot, &u) in log.departed[..sat_slots].iter().enumerate() {
        let (f, l) = inp.arrival(u as u64);
        if sample_of[f as usize] != u32::MAX {
            traces[sample_of[f as usize] as usize]
                .1
                .depart(slot as u64, l as u64 * 8);
        }
    }
    let shard = |f: u32| shard_of(FlowId(f), spec.shards);
    let terms: Vec<ShardTerms> = (0..spec.shards)
        .map(|s| {
            let members = (0..spec.flows)
                .filter(|&f| shard(f as u32) == s)
                .map(|f| (inp.rate_bps[f], 1500 * 8));
            ShardTerms::new(members, spec.batch)
        })
        .collect();
    let full = if spec.shards > 1 {
        let mut arrivals = (0..sat_end).map(|uid| (log.boundary(uid), inp.arrival(uid).0));
        fairness::full_shard_ranges(spec.flows, &shard, spec.shards, &mut arrivals, &dep_flows)
    } else {
        vec![Vec::new()]
    };
    fairness::worst_ratio(&traces, &terms, &full, fairness::FIXED_POINT_QUANTUM)
}
