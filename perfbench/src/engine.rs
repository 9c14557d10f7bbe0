//! The two measured loops every workload shares, over any engine path:
//!
//! * **saturated** (closed loop): ingest a chunk of the standing-backlog
//!   arrival stream, drain the same number, repeat; throughput is the
//!   median of 100 ms window rates;
//! * **open** (open loop): Poisson arrivals at a fixed rate, in
//!   independent trials that each start empty; each pass ingests every
//!   packet that is due, then drains everything pending. Latency runs
//!   from a packet's *due* time to the drain that returned it, so a
//!   stalled pass charges every packet it delayed.
//!
//! Both loops only log departed uids; every correctness check runs after
//! the clock stops. The saturated loop samples the host reference
//! ([`HostRef`]) between its windows, outside every timed span.

use crate::gen::{EngineInputs, OpenSchedule};
use crate::host::HostRef;
use sfq_core::{FlowId, Packet, SchedError, Scheduler, Sfq, SfqFast};
use sfq_engine::{SyncEngine, ThreadedEngine};
use sfq_telemetry::Aggregator;
use simtime::{Bytes, SimTime};
use std::time::{Duration, Instant};

/// One engine driven through its public packet API.
pub trait Path {
    fn ingest(&mut self, pkt: Packet) -> Result<(), SchedError>;
    /// Drain up to `max` packets into `out`; returns how many.
    fn drain(&mut self, max: usize, out: &mut Vec<Packet>) -> Result<usize, SchedError>;
    fn pending(&self) -> usize;
}

/// Native batched API of the sync engine (fixed-point shards).
impl Path for SyncEngine<SfqFast> {
    fn ingest(&mut self, pkt: Packet) -> Result<(), SchedError> {
        self.try_ingest(pkt)
    }
    fn drain(&mut self, max: usize, out: &mut Vec<Packet>) -> Result<usize, SchedError> {
        SyncEngine::drain(self, SimTime::ZERO, max, out)
    }
    fn pending(&self) -> usize {
        SyncEngine::pending(self)
    }
}

impl Path for ThreadedEngine {
    fn ingest(&mut self, pkt: Packet) -> Result<(), SchedError> {
        self.try_ingest(pkt)
    }
    fn drain(&mut self, max: usize, out: &mut Vec<Packet>) -> Result<usize, SchedError> {
        ThreadedEngine::drain(self, SimTime::ZERO, max, out)
    }
    fn pending(&self) -> usize {
        ThreadedEngine::pending(self)
    }
}

/// The per-packet `Scheduler` facade of the sync engine (exact shards),
/// the way a `SwitchCore` port drives it: enqueue on arrival, one
/// dequeue per transmission.
pub struct Facade(pub SyncEngine<Sfq>);

impl Path for Facade {
    fn ingest(&mut self, pkt: Packet) -> Result<(), SchedError> {
        self.0.try_enqueue(SimTime::ZERO, pkt)
    }
    fn drain(&mut self, max: usize, out: &mut Vec<Packet>) -> Result<usize, SchedError> {
        let mut n = 0;
        while n < max {
            match self.0.try_dequeue(SimTime::ZERO)? {
                Some(p) => out.push(p),
                None => break,
            }
            n += 1;
        }
        Ok(n)
    }
    fn pending(&self) -> usize {
        self.0.pending()
    }
}

pub fn packet(uid: u64, flow: u32, len: u16) -> Packet {
    Packet {
        flow: FlowId(flow),
        seq: uid,
        len: Bytes::new(len as u64),
        arrival: SimTime::ZERO,
        uid,
    }
}

/// Span totals of a traced run: wall time inside each public call the
/// loops make, and the counts that go with it.
#[derive(Default, Debug, Clone)]
pub struct Spans {
    pub ingest_ns: u64,
    pub ingests: u64,
    pub drain_ns: u64,
    pub drains: u64,
    pub requested: u64,
    pub returned: u64,
}

/// Off-thread telemetry reader run from the generator loop every 10 ms.
pub struct Snapper {
    pub agg: Aggregator,
    last: Instant,
    pub attempts: u64,
    pub torn: u64,
    pub snapshots: u64,
    pub snapshot_ns: u64,
}

impl Snapper {
    pub fn new(agg: Aggregator) -> Self {
        Snapper {
            agg,
            last: Instant::now(),
            attempts: 0,
            torn: 0,
            snapshots: 0,
            snapshot_ns: 0,
        }
    }

    fn tick(&mut self) {
        if self.last.elapsed() < Duration::from_millis(10) {
            return;
        }
        self.last = Instant::now();
        loop {
            self.attempts += 1;
            let t = Instant::now();
            let ok = self.agg.snapshot(1).is_ok();
            self.snapshot_ns += t.elapsed().as_nanos() as u64;
            if ok {
                self.snapshots += 1;
                return;
            }
            self.torn += 1;
        }
    }
}

/// What the loops record for the post-run checks.
#[derive(Default)]
pub struct Log {
    /// Departed uids in service order (slot = index).
    pub departed: Vec<u32>,
    /// Refused uids.
    pub refused: Vec<u32>,
    /// Refusals by cause: buffer full, unknown flow, shard down, other.
    pub refused_by: [u64; 4],
    /// `(first uid, boundary)`: uids from `first uid` on were ingested
    /// when `boundary` packets had departed.
    pub boundaries: Vec<(u64, u64)>,
}

impl Log {
    /// Departure boundary at which closed-loop packet `uid` arrived.
    pub fn boundary(&self, uid: u64) -> u64 {
        let k = self.boundaries.partition_point(|&(u, _)| u <= uid);
        self.boundaries[k - 1].1
    }

    fn refuse(&mut self, uid: u64, e: SchedError) {
        self.refused.push(uid as u32);
        self.refused_by[match e {
            SchedError::BufferFull(_) => 0,
            SchedError::UnknownFlow(_) => 1,
            SchedError::ShardDown(_) => 2,
            _ => 3,
        }] += 1;
    }

    fn take(&mut self, out: &[Packet]) {
        self.departed.extend(out.iter().map(|p| p.uid as u32));
    }
}

pub struct SatOut {
    pub window_pps: Vec<f64>,
    /// Host factor over the samples taken between windows.
    pub host_factor: f64,
    pub elapsed_s: f64,
    pub delivered: u64,
}

pub struct Saturated<'a> {
    pub inp: &'a EngineInputs,
    pub chunk: usize,
    pub dur: Duration,
}

impl Saturated<'_> {
    /// One pass: ingest a chunk of the stream, then drain as many.
    fn pass<P: Path>(
        &self,
        p: &mut P,
        next_uid: &mut u64,
        log: &mut Log,
        out: &mut Vec<Packet>,
        mut spans: Option<&mut Spans>,
    ) -> Result<usize, SchedError> {
        log.boundaries.push((*next_uid, log.departed.len() as u64));
        for _ in 0..self.chunk {
            let (f, l) = self.inp.arrival(*next_uid);
            let pkt = packet(*next_uid, f, l);
            let res = match spans.as_deref_mut() {
                None => p.ingest(pkt),
                Some(s) => {
                    let t = Instant::now();
                    let r = p.ingest(pkt);
                    s.ingest_ns += t.elapsed().as_nanos() as u64;
                    s.ingests += 1;
                    r
                }
            };
            if let Err(e) = res {
                log.refuse(*next_uid, e);
            }
            *next_uid += 1;
        }
        out.clear();
        let k = match spans {
            None => p.drain(self.chunk, out)?,
            Some(s) => {
                let t = Instant::now();
                let k = p.drain(self.chunk, out)?;
                s.drain_ns += t.elapsed().as_nanos() as u64;
                s.drains += 1;
                s.requested += self.chunk as u64;
                s.returned += k as u64;
                k
            }
        };
        log.take(out);
        Ok(k)
    }

    /// Untimed passes until `packets` have departed and `least` has
    /// passed. Preloaded packets sit in pool slots in preload order; once
    /// the backlog has turned over, slots are recycled in service order,
    /// which is the state a long-running engine is in.
    pub fn warm_up<P: Path>(
        &self,
        p: &mut P,
        next_uid: &mut u64,
        log: &mut Log,
        packets: u64,
        least: Duration,
    ) -> Result<(), SchedError> {
        let mut out = Vec::with_capacity(self.chunk);
        let mut done = 0u64;
        let t0 = Instant::now();
        while done < packets || t0.elapsed() < least {
            done += self.pass(p, next_uid, log, &mut out, None)? as u64;
        }
        Ok(())
    }

    /// Run the closed loop for `dur` of timed windows, continuing the uid
    /// stream at `next_uid`; the standing backlog is left in place.
    pub fn run<P: Path>(
        &self,
        p: &mut P,
        next_uid: &mut u64,
        log: &mut Log,
        mut spans: Option<&mut Spans>,
        mut snap: Option<&mut Snapper>,
        host: &mut HostRef,
    ) -> Result<SatOut, SchedError> {
        const WINDOW: Duration = Duration::from_millis(100);
        let mut out = Vec::with_capacity(self.chunk);
        let mut window_pps = Vec::new();
        // Reserve (untouched, so not yet resident) room for far more
        // departures than the loop can make: the log then never
        // reallocates, and peak RSS does not step with throughput.
        let room = (self.dur.as_secs_f64() * 5e6) as usize + self.chunk;
        log.departed
            .reserve(room.saturating_sub(log.departed.capacity() - log.departed.len()));
        let mark = host.mark();
        let mut timed = Duration::ZERO;
        let (mut w_start, mut w_count, mut delivered) = (Instant::now(), 0u64, 0u64);
        loop {
            let now = Instant::now();
            if now - w_start >= WINDOW {
                timed += now - w_start;
                window_pps.push(w_count as f64 / (now - w_start).as_secs_f64());
                if timed >= self.dur {
                    break;
                }
                host.tick();
                w_start = Instant::now();
                w_count = 0;
            }
            let k = self.pass(p, next_uid, log, &mut out, spans.as_deref_mut())? as u64;
            w_count += k;
            delivered += k;
            if let Some(s) = snap.as_deref_mut() {
                s.tick();
            }
        }
        Ok(SatOut {
            window_pps,
            host_factor: host.factor_since(mark),
            elapsed_s: timed.as_secs_f64(),
            delivered,
        })
    }
}

/// Drain until nothing is pending.
pub fn drain_all<P: Path>(p: &mut P, chunk: usize, log: &mut Log) -> Result<(), SchedError> {
    let mut out = Vec::with_capacity(chunk);
    while p.pending() > 0 {
        out.clear();
        if p.drain(chunk, &mut out)? == 0 {
            break;
        }
        log.take(&out);
    }
    Ok(())
}

#[derive(Default)]
pub struct OpenOut {
    pub lat_ns: Vec<u64>,
    pub late_ns: Vec<u64>,
    /// Traced only: `try_ingest` return → returning drain.
    pub sojourn_ns: Vec<u64>,
    pub spans: Spans,
}

/// Run one open-loop schedule, trial by trial, each trial's clock
/// starting once the previous one has drained; packet `i` gets uid
/// `base + i`.
pub fn open_loop<P: Path>(
    p: &mut P,
    sched: &OpenSchedule,
    base: u64,
    drain_max: usize,
    log: &mut Log,
    trace: bool,
    mut snap: Option<&mut Snapper>,
) -> Result<OpenOut, SchedError> {
    let n = sched.due_ns.len();
    let mut res = OpenOut {
        lat_ns: Vec::with_capacity(n),
        late_ns: Vec::with_capacity(n),
        ..OpenOut::default()
    };
    let mut ingested_at = if trace { vec![0u64; n] } else { Vec::new() };
    let mut out = Vec::with_capacity(drain_max);
    for trial in sched.trial_ranges() {
        let t0 = Instant::now();
        let ns = |t: Instant| (t - t0).as_nanos() as u64;
        let mut next = trial.start;
        while next < trial.end || p.pending() > 0 {
            let now = ns(Instant::now());
            while next < trial.end && sched.due_ns[next] <= now {
                res.late_ns.push(now - sched.due_ns[next]);
                let pkt = packet(base + next as u64, sched.flow[next], sched.len[next]);
                let r = if trace {
                    let t = Instant::now();
                    let r = p.ingest(pkt);
                    let t1 = Instant::now();
                    res.spans.ingest_ns += (t1 - t).as_nanos() as u64;
                    res.spans.ingests += 1;
                    ingested_at[next] = ns(t1);
                    r
                } else {
                    p.ingest(pkt)
                };
                if let Err(e) = r {
                    log.refuse(base + next as u64, e);
                }
                next += 1;
            }
            while p.pending() > 0 {
                out.clear();
                let t = Instant::now();
                let k = p.drain(drain_max, &mut out)?;
                let done = Instant::now();
                if trace {
                    res.spans.drain_ns += (done - t).as_nanos() as u64;
                    res.spans.drains += 1;
                    res.spans.requested += drain_max as u64;
                    res.spans.returned += k as u64;
                }
                let done = ns(done);
                for pkt in &out {
                    let i = (pkt.uid - base) as usize;
                    res.lat_ns.push(done - sched.due_ns[i]);
                    if trace {
                        res.sojourn_ns.push(done - ingested_at[i]);
                    }
                }
                log.take(&out);
                if k == 0 {
                    break;
                }
            }
            if let Some(s) = snap.as_deref_mut() {
                s.tick();
            }
        }
    }
    Ok(res)
}

/// Books of one engine workload after all its phases, checked against the
/// uid stream: every offered uid departed exactly once or was refused,
/// and each flow's departures are in arrival (uid) order.
pub fn check_books(
    log: &Log,
    offered: u64,
    flows: usize,
    flow_of: &dyn Fn(u64) -> u32,
) -> Result<(), String> {
    let delivered = log.departed.len() as u64;
    let refused = log.refused.len() as u64;
    if offered != delivered + refused {
        return Err(format!(
            "offered {offered} != delivered {delivered} + refused {refused}"
        ));
    }
    let mut seen = vec![0u64; (offered as usize).div_ceil(64)];
    let mut mark = |uid: u32| -> bool {
        let (w, b) = (uid as usize / 64, uid % 64);
        let fresh = seen[w] & (1 << b) == 0;
        seen[w] |= 1 << b;
        fresh
    };
    for &u in &log.refused {
        if !mark(u) {
            return Err(format!("uid {u} refused twice"));
        }
    }
    let mut last = vec![-1i64; flows];
    for &u in &log.departed {
        if !mark(u) {
            return Err(format!(
                "uid {u} delivered twice or delivered after refusal"
            ));
        }
        let f = flow_of(u as u64) as usize;
        if (u as i64) <= last[f] {
            return Err(format!("flow {f}: uid {u} departed after uid {}", last[f]));
        }
        last[f] = u as i64;
    }
    Ok(())
}
