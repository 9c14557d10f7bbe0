//! Per-layer cost ledger (traced runs only).
//!
//! Each layer is timed by replaying the workload's own packet stream
//! through that layer's public entry points, at the workload's flow count
//! and shard count, in blocks of [`BLOCK`] calls between two clock reads
//! so the clock costs nothing per call. Reported times are *self* times:
//! a layer's replay cost minus the replay costs of the layers it calls,
//!
//! ```text
//! sfq_engine.ingest_ns        = ingest − ring/2
//! sfq_engine.drain_ns_per_pkt = drain − ring/2 − enqueue − dequeue − root
//! sfq_engine.facade_ns        = facade − enqueue − dequeue − root
//! sfq_core.enqueue_ns         = enqueue − tag arithmetic − record/2
//! sfq_core.dequeue_ns         = dequeue − record/2
//! netsim.switch_ns            = switch − facade
//! ```
//!
//! where `record` (a telemetry page's enqueue + dequeue records) counts
//! only on workloads whose shards write pages, and the tag arithmetic is
//! `simtime.tag_ops_ns` on exact shards and `sfq_core.fixed_span_ns` on
//! fixed-point ones. The self times of the layers on a workload's path
//! add up to the sum of its top-level calls, so `ledger.gap_pct` — the
//! traced end-to-end ns/packet minus that sum, as a share of the former —
//! is the harness's own loop plus whatever the replays miss.

use crate::engine::{self, OpenOut};
use crate::report::Report;
use crate::stats;
use des::EventQueue;
use graph::{GraphNode, GraphSpec, OutPort, PktArena, PortSpec, TokenBucket};
use netsim::SwitchCore;
use servers::RateProfile;
use sfq_core::{FixedInc, FlowId, Packet, Scheduler, Sfq, SfqFast, TelemetrySink, DEFAULT_SHIFT};
use sfq_engine::{shard_of, spsc, EngineConfig, RootSfq, ShardSched, SyncEngine};
use sfq_telemetry::{Aggregator, StatPage, TelemetryHub};
use simtime::{Bytes, Rate, Ratio, SimTime};
use std::hint::black_box;
use std::time::Instant;

/// Calls per timed block.
pub const BLOCK: usize = 256;
/// Timed blocks per replay; the reported cost is the median block.
const ROUNDS: usize = 48;

/// What a replay needs to know about a workload.
pub struct Shape<'a> {
    /// Flow rates; flow id = index.
    pub rates: &'a [u64],
    pub shards: usize,
    /// Packets per root pick (the engine's drain batch; 1 through the
    /// per-packet facade).
    pub batch: usize,
    /// Exact-rational shards (`Sfq`) rather than fixed-point (`SfqFast`).
    pub exact: bool,
    /// Shards write telemetry pages.
    pub telemetry: bool,
    /// Standing backlog per flow during replays.
    pub depth: usize,
    /// Packets per shard enqueue batch (the engine's pump; 1 through the
    /// per-packet facade).
    pub pump: usize,
    /// The workload's steady arrival stream, `(flow, bytes)`.
    pub stream: &'a [(u32, u16)],
}

impl Shape<'_> {
    fn cfg(&self) -> EngineConfig {
        let per_shard = self.rates.len() * self.depth * 11 / 10 / self.shards;
        let ring = (per_shard + 4 * BLOCK).next_power_of_two();
        EngineConfig::new(self.shards)
            .batch(self.batch)
            .ring_capacity(ring)
    }

    fn pkt(&self, uid: u64) -> Packet {
        let (f, l) = self.stream[uid as usize % self.stream.len()];
        engine::packet(uid, f, l)
    }

    /// Preload packets: `depth` per flow, flow-major rounds.
    fn preload(&self) -> impl Iterator<Item = Packet> + '_ {
        let flows = self.rates.len();
        (0..self.depth * flows).map(move |i| {
            let f = (i % flows) as u32;
            let l = self.stream[i % self.stream.len()].1;
            engine::packet(u64::MAX / 2 + i as u64, f, l)
        })
    }
}

/// Median over `ROUNDS` of the ns per call of `block` (which makes
/// [`BLOCK`] calls).
fn per_call(mut block: impl FnMut()) -> f64 {
    let mut v = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let t = Instant::now();
        block();
        v.push(t.elapsed().as_nanos() as f64 / BLOCK as f64);
    }
    stats::median(&v).unwrap_or(0.0)
}

/// Collects per-layer metrics and the self times on the workload's path.
pub struct Ledger<'a> {
    rep: &'a mut Report,
    path: Vec<(String, f64)>,
    ring: f64,
    enq: f64,
    deq: f64,
    root_pkt: f64,
}

impl<'a> Ledger<'a> {
    pub fn new(rep: &'a mut Report) -> Self {
        Ledger {
            rep,
            path: Vec::new(),
            ring: 0.0,
            enq: 0.0,
            deq: 0.0,
            root_pkt: 0.0,
        }
    }

    pub fn put(&mut self, name: &str, v: f64, unit: &'static str) {
        self.rep.metric(name, v, unit);
    }

    /// A self time on the workload's path: reported, and summed into the
    /// ledger.
    pub fn on_path(&mut self, name: &str, v: f64) {
        self.rep.metric(name, v, "ns");
        self.path.push((name.to_string(), v));
    }

    /// A self time off the workload's path: reported only.
    pub fn off_path(&mut self, name: &str, v: f64) {
        self.rep.metric(name, v, "ns");
    }

    fn put_layer(&mut self, name: &str, v: f64, on: bool) {
        if on {
            self.on_path(name, v);
        } else {
            self.off_path(name, v);
        }
    }

    /// Finish: gap and trace overhead.
    pub fn finish(self, e2e_traced: f64, e2e_untraced: f64, loss: f64) {
        let sum: f64 = self.path.iter().map(|p| p.1).sum();
        self.rep
            .metric("ledger.e2e_traced_ns_per_pkt", e2e_traced, "ns");
        self.rep.metric("ledger.sum_ns_per_pkt", sum, "ns");
        self.rep.metric(
            "ledger.gap_pct",
            100.0 * (e2e_traced - sum) / e2e_traced,
            "%",
        );
        self.rep.metric(
            "bench.trace_overhead_pct",
            100.0 * (e2e_traced - e2e_untraced) / e2e_untraced,
            "%",
        );
        self.rep.metric("bench.loss_ratio", loss, "ratio");
        // Shares of the traced per-packet time: the shard schedulers
        // (enqueue + dequeue including tag arithmetic and page records)
        // against the engine's own coordination around them (ingest,
        // drain or facade, ring, root).
        let coord: f64 = self
            .path
            .iter()
            .filter(|p| p.0.starts_with("sfq_engine."))
            .map(|p| p.1)
            .sum();
        self.rep.metric(
            "ledger.core_share_pct",
            100.0 * (self.enq + self.deq) / e2e_traced,
            "%",
        );
        self.rep.metric(
            "ledger.coordination_share_pct",
            100.0 * coord / e2e_traced,
            "%",
        );
    }

    /// Where the workload drives the engine's native batched API: the
    /// top-level ingest and drain spans of the traced run, per packet.
    pub fn engine_native(&mut self, ingest: f64, drain: f64, on: bool) {
        let half = self.ring / 2.0;
        let drain_self = drain - half - self.enq - self.deq - self.root_pkt;
        self.put_layer("sfq_engine.ingest_ns", ingest - half, on);
        self.put_layer("sfq_engine.drain_ns_per_pkt", drain_self, on);
        if on {
            self.on_path("sfq_engine.ring.push_pop_ns", self.ring);
            self.on_path("sfq_engine.root.per_pkt_ns", self.root_pkt);
        }
    }

    /// Open-loop counts from the traced `hi` phase (and `lo` sojourns).
    pub fn open_loop_counts(&mut self, hi: &OpenOut, lo: &OpenOut) {
        let s = &hi.spans;
        self.put("sfq_engine.drain_calls", s.drains as f64, "count");
        self.put(
            "sfq_engine.drain_fill_ratio",
            s.returned as f64 / s.requested.max(1) as f64,
            "ratio",
        );
        let mut soj: Vec<u64> = hi
            .sojourn_ns
            .iter()
            .chain(&lo.sojourn_ns)
            .copied()
            .collect();
        soj.sort_unstable();
        let p50 = stats::percentile_sorted(&soj, 0.5).unwrap_or(0);
        self.put("sfq_engine.sojourn_p50_us", p50 as f64 / 1e3, "us");
        for (name, v, q) in [
            ("bench.gen_late_p99_us", &hi.late_ns, 0.99),
            ("bench.lat_lo_p50_us", &lo.lat_ns, 0.5),
            ("bench.lat_hi_p50_us", &hi.lat_ns, 0.5),
            ("bench.lat_hi_p99_us", &hi.lat_ns, 0.99),
        ] {
            let mut v = v.clone();
            v.sort_unstable();
            let p = stats::percentile_sorted(&v, q).unwrap_or(0);
            self.put(name, p as f64 / 1e3, "us");
        }
    }

    /// Engine refusals by cause.
    pub fn refused(&mut self, by: [u64; 4]) {
        self.put("sfq_engine.refused", by.iter().sum::<u64>() as f64, "count");
        for (name, n) in ["buffer_full", "unknown_flow", "shard_down", "other"]
            .iter()
            .zip(by)
        {
            self.put(&format!("sfq_engine.refused.{name}"), n as f64, "count");
        }
    }

    /// Telemetry read side: live snapshots `(µs per snapshot, torn share,
    /// ns per packet)` when the workload reads pages while shards write
    /// them, else one quiescent hub of the workload's shard count.
    pub fn telemetry_read(&mut self, live: Option<(f64, f64, f64)>, shards: usize) {
        match live {
            Some((us, torn, per_pkt)) => {
                self.put("sfq_telemetry.snapshot_us", us, "us");
                self.put("sfq_telemetry.torn_ratio", torn, "ratio");
                self.on_path("sfq_telemetry.snapshot_ns_per_pkt", per_pkt);
            }
            None => {
                let agg = Aggregator::new(TelemetryHub::new(shards));
                let us = per_call(|| {
                    for _ in 0..BLOCK {
                        black_box(agg.snapshot(1).is_ok());
                    }
                }) / 1e3;
                self.put("sfq_telemetry.snapshot_us", us, "us");
                self.put("sfq_telemetry.torn_ratio", 0.0, "ratio");
                self.off_path("sfq_telemetry.snapshot_ns_per_pkt", 0.0);
            }
        }
    }
}

/// Replays shared by every workload. `graph_path` marks the per-packet
/// facade path of the forwarding graph; otherwise the native batched
/// engine path is the one the workload runs.
pub fn common(led: &mut Ledger, shape: &Shape, graph_path: bool) {
    // Tag arithmetic.
    let tag = tag_ops(shape);
    let span = fixed_span(shape);
    led.put_layer("simtime.tag_ops_ns", tag, shape.exact);
    led.put_layer("sfq_core.fixed_span_ns", span, !shape.exact);
    // Telemetry record side.
    let record = record_ns();
    led.put_layer("sfq_telemetry.record_ns", record, shape.telemetry);
    let record_half = if shape.telemetry { record / 2.0 } else { 0.0 };
    // Shard schedulers.
    let core = if shape.exact {
        core(shape, Sfq::new, |s: &Sfq| {
            s.pool_stats().map_or(0, |p| p.pkts_hwm)
        })
    } else {
        core(shape, SfqFast::new, |s: &SfqFast| {
            s.pool_stats().map_or(0, |p| p.pkts_hwm)
        })
    };
    led.enq = core.enq;
    led.deq = core.deq;
    let tags = if shape.exact { tag } else { span };
    led.put("sfq_core.add_flow_ns", core.add_flow, "ns");
    led.put("sfq_core.pool_slots_peak", core.pool_peak as f64, "count");
    led.on_path("sfq_core.enqueue_ns", core.enq - tags - record_half);
    led.on_path("sfq_core.dequeue_ns", core.deq - record_half);
    // Root arbiter, per pick and per packet at this workload's batch.
    let (pick, charge) = root(shape);
    led.put("sfq_engine.root.pick_ns", pick, "ns");
    led.put("sfq_engine.root.charge_ns", charge, "ns");
    led.root_pkt = (pick + charge) / shape.batch as f64;
    // Ring.
    led.ring = ring_push_pop();
    led.put("sfq_engine.ring.handoff_p50_ns", handoff_p50(), "ns");
    // Facade and switch over the same synthetic standing-backlog schedule.
    let cfg = shape.cfg();
    let (facade, switch) = if shape.exact {
        facade_and_switch(shape, || SyncEngine::new(cfg))
    } else {
        facade_and_switch(shape, || SyncEngine::new_fast(cfg))
    };
    // The facade pulls one packet per root pick.
    let facade_self = facade - core.enq - core.deq - (pick + charge);
    led.put_layer("sfq_engine.facade_ns", facade_self, graph_path);
    led.put_layer("netsim.switch_ns", switch - facade, graph_path);
    if graph_path {
        led.on_path("sfq_engine.root.per_pkt_ns", pick + charge);
        led.put("sfq_engine.ring.push_pop_ns", led.ring, "ns");
    }
}

/// The engine's native batched API on a standing backlog: ns per
/// `try_ingest`, and per packet of `drain(BLOCK)`.
pub fn native<S: Scheduler>(shape: &Shape, mut eng: SyncEngine<S>) -> (f64, f64) {
    for (f, &r) in shape.rates.iter().enumerate() {
        eng.try_add_flow(FlowId(f as u32), Rate::bps(r))
            .expect("flow registers");
    }
    for p in shape.preload() {
        eng.try_ingest(p).expect("preload fits the ring");
    }
    eng.pump(SimTime::ZERO).expect("preload pumps");
    let mut uid = 0u64;
    let mut out = Vec::with_capacity(BLOCK);
    let (mut ingest, mut drain) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let t = Instant::now();
        for _ in 0..BLOCK {
            eng.try_ingest(shape.pkt(uid))
                .expect("ingest fits the ring");
            uid += 1;
        }
        let t1 = Instant::now();
        out.clear();
        let k = eng.drain(SimTime::ZERO, BLOCK, &mut out).expect("drain");
        let t2 = Instant::now();
        ingest.push((t1 - t).as_nanos() as f64 / BLOCK as f64);
        drain.push((t2 - t1).as_nanos() as f64 / k.max(1) as f64);
    }
    (
        stats::median(&ingest).unwrap_or(0.0),
        stats::median(&drain).unwrap_or(0.0),
    )
}

fn tag_ops(shape: &Shape) -> f64 {
    let rates: Vec<Rate> = shape.rates.iter().map(|&r| Rate::bps(r)).collect();
    let mut fin = vec![Ratio::ZERO; rates.len()];
    let mut v = Ratio::ZERO;
    let mut i = 0usize;
    per_call(|| {
        for _ in 0..BLOCK {
            let (f, l) = shape.stream[i % shape.stream.len()];
            i += 1;
            let f = f as usize;
            let start = v.max(fin[f]);
            match start.checked_add(rates[f].tag_span(Bytes::new(l as u64))) {
                Some(finish) => {
                    fin[f] = finish;
                    if start.checked_cmp(v) == Some(std::cmp::Ordering::Greater) {
                        v = start;
                    }
                }
                None => {
                    fin.iter_mut().for_each(|x| *x = Ratio::ZERO);
                    v = Ratio::ZERO;
                }
            }
        }
    })
}

fn fixed_span(shape: &Shape) -> f64 {
    let incs: Vec<FixedInc> = shape
        .rates
        .iter()
        .enumerate()
        .map(|(f, &r)| {
            FixedInc::new(FlowId(f as u32), Rate::bps(r), DEFAULT_SHIFT)
                .expect("workload rates are non-zero")
        })
        .collect();
    let mut i = 0usize;
    per_call(|| {
        let mut acc = 0u64;
        for _ in 0..BLOCK {
            let (f, l) = shape.stream[i % shape.stream.len()];
            i += 1;
            acc = acc.wrapping_add(incs[f as usize].span(Bytes::new(l as u64)).unwrap_or(0));
        }
        black_box(acc);
    })
}

fn record_ns() -> f64 {
    let page = StatPage::new();
    let mut i = 0u64;
    per_call(|| {
        for _ in 0..BLOCK {
            i += 1;
            page.record_enqueue(576, (i % 4096) as usize);
            page.record_dequeue(i as u32, 576, SimTime::ZERO, SimTime::ZERO);
        }
    })
}

struct Core {
    add_flow: f64,
    enq: f64,
    deq: f64,
    pool_peak: usize,
}

/// The shard schedulers alone: register every flow (timed), preload the
/// standing backlog, then enqueue each block as one batch per shard (the
/// engine's pump) and dequeue it back in `batch`-sized pulls (its drain).
fn core<S: ShardSched>(shape: &Shape, mk: fn() -> S, hwm: impl Fn(&S) -> usize) -> Core {
    let mut sh: Vec<S> = (0..shape.shards).map(|_| mk()).collect();
    if shape.telemetry {
        for s in &mut sh {
            s.attach_telemetry(TelemetrySink::new());
        }
    }
    let home: Vec<usize> = (0..shape.rates.len())
        .map(|f| shard_of(FlowId(f as u32), shape.shards))
        .collect();
    let t = Instant::now();
    for (f, &r) in shape.rates.iter().enumerate() {
        sh[home[f]]
            .try_add_flow(FlowId(f as u32), Rate::bps(r))
            .expect("fresh flow registers");
    }
    let add_flow = t.elapsed().as_nanos() as f64 / shape.rates.len() as f64;
    let mut parts: Vec<Vec<Packet>> = vec![Vec::new(); shape.shards];
    for p in shape.preload() {
        parts[home[p.flow.0 as usize]].push(p);
    }
    for (s, part) in sh.iter_mut().zip(&mut parts) {
        for c in part.chunks(4096) {
            s.try_enqueue_batch(SimTime::ZERO, c)
                .expect("preload enqueues");
        }
        part.clear();
    }
    let mut uid = 0u64;
    let mut out = Vec::with_capacity(BLOCK);
    let (mut enq, mut deq) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let mut counts = vec![0usize; shape.shards];
        for _ in 0..BLOCK {
            let p = shape.pkt(uid);
            uid += 1;
            let s = home[p.flow.0 as usize];
            parts[s].push(p);
            counts[s] += 1;
        }
        let t = Instant::now();
        for (s, part) in sh.iter_mut().zip(&parts) {
            for c in part.chunks(shape.pump.max(1)) {
                s.try_enqueue_batch(SimTime::ZERO, c)
                    .expect("replay enqueues");
            }
        }
        let t1 = Instant::now();
        for (s, &c) in sh.iter_mut().zip(&counts) {
            let mut left = c;
            while left > 0 {
                out.clear();
                let k = s.dequeue_batch(SimTime::ZERO, shape.batch.min(left), &mut out);
                if k == 0 {
                    break;
                }
                left -= k;
            }
        }
        let t2 = Instant::now();
        enq.push((t1 - t).as_nanos() as f64 / BLOCK as f64);
        deq.push((t2 - t1).as_nanos() as f64 / BLOCK as f64);
        parts.iter_mut().for_each(Vec::clear);
    }
    Core {
        add_flow,
        enq: stats::median(&enq).unwrap_or(0.0),
        deq: stats::median(&deq).unwrap_or(0.0),
        pool_peak: sh.iter().map(&hwm).sum(),
    }
}

/// Root arbiter: ns per `pick` on a fixed state, and per `charge` (a
/// pick+charge pair minus a pick), every shard backlogged, charged the
/// bits of `batch` stream packets.
fn root(shape: &Shape) -> (f64, f64) {
    let mut r = RootSfq::new(shape.shards, Some(96));
    for (f, &rate) in shape.rates.iter().enumerate() {
        r.reweigh(shard_of(FlowId(f as u32), shape.shards), 0, rate);
    }
    let back = vec![true; shape.shards];
    let bits: Vec<u64> = shape
        .stream
        .chunks(shape.batch)
        .take(1024)
        .map(|c| c.iter().map(|&(_, l)| l as u64 * 8).sum())
        .collect();
    let pick = per_call(|| {
        for _ in 0..BLOCK {
            black_box(r.pick(black_box(&back)));
        }
    });
    let mut i = 0usize;
    let pair = per_call(|| {
        for _ in 0..BLOCK {
            let s = r.pick(&back).expect("every shard backlogged");
            r.charge(s, bits[i % bits.len()])
                .expect("root tags stay in range");
            i += 1;
        }
    });
    (pick, pair - pick)
}

fn ring_push_pop() -> f64 {
    let (tx, rx) = spsc::<Packet>(4 * BLOCK);
    let p = engine::packet(0, 0, 64);
    per_call(|| {
        for _ in 0..BLOCK {
            tx.push(black_box(p)).expect("ring has room");
        }
        for _ in 0..BLOCK {
            black_box(rx.pop());
        }
    })
}

/// Cross-thread ring hand-off: a producer stamps and pushes one value
/// every ~2 µs; the consumer spins on `pop` and records stamp → pop.
fn handoff_p50() -> f64 {
    const N: usize = 20_000;
    const WARM: u64 = u64::MAX;
    let (tx, rx) = spsc::<u64>(1024);
    let base = Instant::now();
    let mut lat = std::thread::scope(|s| {
        let c = s.spawn(move || {
            let mut lat = Vec::with_capacity(N);
            while lat.len() < N {
                match rx.pop() {
                    Some(WARM) | None => {}
                    Some(stamp) => lat.push(base.elapsed().as_nanos() as u64 - stamp),
                }
            }
            lat
        });
        // Unrecorded lock-step hand-offs first: until both threads run
        // at once on different CPUs, each of these waits out a time
        // slice, so the recorded ones measure the ring, not placement.
        for _ in 0..1_000 {
            while tx.push(WARM).is_err() {}
            while !tx.is_empty() {}
        }
        for _ in 0..N {
            let stamp = base.elapsed().as_nanos() as u64;
            while tx.push(stamp).is_err() {}
            let t = Instant::now();
            while t.elapsed().as_nanos() < 2_000 {}
        }
        c.join().expect("hand-off consumer")
    });
    lat.sort_unstable();
    stats::percentile_sorted(&lat, 0.5).unwrap_or(0) as f64
}

/// Per packet: the sync engine's `Scheduler` facade (enqueue + dequeue),
/// and a `SwitchCore` port over an identical engine (offer + start +
/// complete on a link), both on a standing backlog.
fn facade_and_switch<S: Scheduler + 'static>(
    shape: &Shape,
    mk: impl Fn() -> SyncEngine<S>,
) -> (f64, f64) {
    let mut eng = mk();
    for (f, &r) in shape.rates.iter().enumerate() {
        eng.try_add_flow(FlowId(f as u32), Rate::bps(r))
            .expect("flow registers");
    }
    for p in shape.preload() {
        eng.try_ingest(p).expect("preload fits the ring");
    }
    eng.pump(SimTime::ZERO).expect("preload pumps");
    let mut uid = 0u64;
    let facade = per_call(|| {
        for _ in 0..BLOCK {
            eng.try_enqueue(SimTime::ZERO, shape.pkt(uid))
                .expect("facade enqueue");
            uid += 1;
        }
        for _ in 0..BLOCK {
            black_box(eng.try_dequeue(SimTime::ZERO).expect("facade dequeue"));
        }
    });
    drop(eng);
    let link = Rate::bps(shape.rates.iter().sum::<u64>().max(1));
    let mut sw = SwitchCore::new(Box::new(mk()), RateProfile::constant(link), None);
    for (f, &r) in shape.rates.iter().enumerate() {
        sw.add_flow(FlowId(f as u32), Rate::bps(r));
    }
    for p in shape.preload() {
        sw.offer(SimTime::ZERO, p);
    }
    let mut now = SimTime::ZERO;
    let mut busy = false;
    let switch = per_call(|| {
        for _ in 0..BLOCK {
            if busy {
                sw.complete(now);
            }
            let started = sw.try_start(now);
            busy = started.is_some();
            sw.offer(now, shape.pkt(uid));
            uid += 1;
            if let Some((_, done)) = started {
                now = done;
            }
        }
    });
    (facade, switch)
}

/// Forwarding-graph layers, replayed for workloads that do not run the
/// graph themselves: one ingress policer and classifier in front of one
/// port running the workload's engine, fed a prefix of its stream at 95 %
/// of the port's link.
pub fn graph_replay(led: &mut Ledger, shape: &Shape) {
    const PKTS: usize = 1 << 16;
    let rates = shape.rates;
    let link_bps: u64 = rates.iter().sum();
    let link = Rate::bps(link_bps);
    let flows: Vec<(FlowId, Rate)> = rates
        .iter()
        .enumerate()
        .map(|(f, &r)| (FlowId(f as u32), Rate::bps(r)))
        .collect();
    // Arrival times at 95 % load, in ns.
    let mut t_ns = 0u64;
    let arrivals: Vec<(u64, u32, u16)> = (0..PKTS)
        .map(|i| {
            let (f, l) = shape.stream[i % shape.stream.len()];
            let at = t_ns;
            t_ns += (l as u64 * 8 * 1_000_000_000) / (link_bps * 95 / 100).max(1);
            (at, f, l)
        })
        .collect();
    let t = Instant::now();
    let routes: Vec<(FlowId, usize)> = flows.iter().map(|&(f, _)| (f, 0)).collect();
    let mut spec = GraphSpec::matrix(
        1,
        vec![PortSpec::new(RateProfile::constant(link), flows.clone())],
        routes,
    );
    let rules: Vec<(FlowId, TokenBucket)> = flows
        .iter()
        .map(|&(f, r)| {
            (
                f,
                TokenBucket {
                    sigma: Bytes::new(u32::MAX as u64),
                    rho: r,
                },
            )
        })
        .collect();
    let entry = spec.add_policer(0, rules.clone());
    let cfg = shape.cfg();
    let exact = shape.exact;
    let mut g = spec.build_with(&mut |_| -> Box<dyn Scheduler> {
        if exact {
            Box::new(SyncEngine::new(cfg))
        } else {
            Box::new(SyncEngine::new_fast(cfg))
        }
    });
    let mut per_flow: Vec<Vec<(SimTime, Bytes)>> = vec![Vec::new(); rates.len()];
    for &(at, f, l) in &arrivals {
        per_flow[f as usize].push((SimTime::from_nanos(at as i128), Bytes::new(l as u64)));
    }
    for (f, arr) in per_flow.iter().enumerate() {
        if !arr.is_empty() {
            g.add_source(entry, FlowId(f as u32), arr);
        }
    }
    led.put("graph.build_ms", t.elapsed().as_secs_f64() * 1e3, "ms");
    let t = Instant::now();
    let r = g.run(SimTime::from_nanos(t_ns as i128 * 4));
    let delivered: usize = r.sink_departures.iter().map(|(_, d)| d.len()).sum();
    led.put(
        "graph.run_ns_per_pkt",
        t.elapsed().as_nanos() as f64 / delivered.max(1) as f64,
        "ns",
    );
    let refused = r.arena_refused
        + r.port_refusals
            .iter()
            .map(|(_, v)| v.len() as u64)
            .sum::<u64>()
        + r.policer_dropped
        + r.unrouted;
    led.put("graph.refused", refused as f64, "count");
    drop(g);
    let times: Vec<(SimTime, Packet)> = arrivals
        .iter()
        .enumerate()
        .map(|(i, &(at, f, l))| {
            (
                SimTime::from_nanos(at as i128),
                engine::packet(i as u64, f, l),
            )
        })
        .collect();
    nodes(led, &times, &rules, false);
}

/// Node dispatch (arena alloc/free, classifier, policer) over the run's
/// arrivals in arrival order, one packet per ingress batch as the graph
/// receives them, and the event queue at the run's depth.
pub fn nodes(
    led: &mut Ledger,
    arrivals: &[(SimTime, Packet)],
    rules: &[(FlowId, TokenBucket)],
    on: bool,
) {
    let mut arena = PktArena::new();
    let mut cls = graph::Classifier::new();
    let mut pol = graph::Policer::new();
    for &(f, tb) in rules {
        cls.route(f, 0);
        pol.contract(f, tb);
    }
    let mut out: Vec<(OutPort, sfq_core::PktRef)> = Vec::with_capacity(4);
    let (mut alloc, mut classify, mut police) = (Vec::new(), Vec::new(), Vec::new());
    let mut handles = Vec::with_capacity(BLOCK);
    for chunk in arrivals.chunks(BLOCK).take(ROUNDS * 4) {
        let t = Instant::now();
        handles.clear();
        for &(_, p) in chunk {
            handles.push(arena.try_alloc(p).expect("unbounded arena"));
        }
        let t1 = Instant::now();
        for (h, &(now, _)) in handles.iter().zip(chunk) {
            out.clear();
            pol.dispatch(now, &mut arena, std::slice::from_ref(h), &mut out);
        }
        let t2 = Instant::now();
        for (h, &(now, _)) in handles.iter().zip(chunk) {
            out.clear();
            cls.dispatch(now, &mut arena, std::slice::from_ref(h), &mut out);
        }
        let t3 = Instant::now();
        for &h in &handles {
            arena.free(h);
        }
        let t4 = Instant::now();
        let n = chunk.len() as f64;
        alloc.push(((t1 - t) + (t4 - t3)).as_nanos() as f64 / n);
        police.push((t2 - t1).as_nanos() as f64 / n);
        classify.push((t3 - t2).as_nanos() as f64 / n);
    }
    let med = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    led.put_layer("graph.arena.alloc_free_ns", med(&alloc), on);
    led.put_layer("graph.police_ns", med(&police), on);
    led.put_layer("graph.classify_ns", med(&classify), on);
    // Event queue: every arrival scheduled up front (the graph's
    // injection events), then popped; two events per packet on the
    // graph path (injection and transmission done).
    let mut q: EventQueue<u32> = EventQueue::new();
    let t = Instant::now();
    for (i, &(at, _)) in arrivals.iter().enumerate() {
        q.schedule(at, i as u32);
    }
    while q.pop().is_some() {}
    let per_event = t.elapsed().as_nanos() as f64 / arrivals.len().max(1) as f64;
    led.put_layer("des.event_ns", 2.0 * per_event, on);
}
