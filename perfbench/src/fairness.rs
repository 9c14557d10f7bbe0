//! Theorem 1 fairness measured on a service trace.
//!
//! A server's output is a sequence of *slots*, one per packet served;
//! boundary `b` is the instant before slot `b`. For two flows the paper
//! bounds `|W_f/r_f − W_m/r_m|` over every interval in which both are
//! backlogged. Between boundaries `b1 < b2` that is `|D(b2) − D(b1)|` with
//! `D(b) = W_f(0,b)/r_f − W_m(0,b)/r_m`, so over one maximal run of slots
//! in which both flows stay backlogged the worst interval is
//! `max D − min D` — the one-pass method of
//! `analysis::fairness::max_fairness_gap`, restricted to backlogged runs.

/// One sampled flow's view of a service trace.
pub struct FlowTrace {
    pub rate_bps: u64,
    /// Slot of each of the flow's departures, ascending.
    pub slots: Vec<u64>,
    /// Normalised service `Σ bits / r_f` after each departure.
    pub prefix: Vec<f64>,
    /// First slot each of the flow's packets could have been served in,
    /// ascending (arrival order).
    pub avail: Vec<u64>,
    /// Largest packet of the flow, in bits.
    pub max_bits: u64,
}

impl FlowTrace {
    pub fn new(rate_bps: u64) -> Self {
        FlowTrace {
            rate_bps,
            slots: Vec::new(),
            prefix: Vec::new(),
            avail: Vec::new(),
            max_bits: 0,
        }
    }

    pub fn depart(&mut self, slot: u64, bits: u64) {
        let prev = self.prefix.last().copied().unwrap_or(0.0);
        self.slots.push(slot);
        self.prefix.push(prev + bits as f64 / self.rate_bps as f64);
        self.max_bits = self.max_bits.max(bits);
    }

    /// `l_f^max / r_f` in seconds.
    pub fn span(&self) -> f64 {
        self.max_bits as f64 / self.rate_bps as f64
    }

    fn norm_before(&self, b: u64) -> f64 {
        let k = self.slots.partition_point(|&s| s < b);
        if k == 0 {
            0.0
        } else {
            self.prefix[k - 1]
        }
    }

    /// Maximal slot runs `[s, e)` in which the flow has a packet queued
    /// or in service.
    pub fn backlogged(&self) -> Vec<(u64, u64)> {
        backlog_ranges(&self.avail, &self.slots)
    }
}

/// Slot runs in which `arrived(b) − departed_before(b) > 0`, where
/// `avail` are arrival boundaries and `deps` departure slots, both
/// ascending. An open run at the end is closed at `u64::MAX`.
pub fn backlog_ranges(avail: &[u64], deps: &[u64]) -> Vec<(u64, u64)> {
    let (mut i, mut j, mut count) = (0usize, 0usize, 0i64);
    let mut out = Vec::new();
    let mut start = None;
    loop {
        let b = match (avail.get(i), deps.get(j)) {
            (None, None) => break,
            (Some(&a), None) => a,
            (None, Some(&d)) => d + 1,
            (Some(&a), Some(&d)) => a.min(d + 1),
        };
        while i < avail.len() && avail[i] == b {
            count += 1;
            i += 1;
        }
        while j < deps.len() && deps[j] + 1 == b {
            count -= 1;
            j += 1;
        }
        match (count > 0, start) {
            (true, None) => start = Some(b),
            (false, Some(s)) => {
                out.push((s, b));
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        out.push((s, u64::MAX));
    }
    out
}

/// Intersection of two ascending lists of disjoint runs.
pub fn intersect(a: &[(u64, u64)], b: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::new();
    while i < a.len() && j < b.len() {
        let s = a[i].0.max(b[j].0);
        let e = a[i].1.min(b[j].1);
        if s < e {
            out.push((s, e));
        }
        if a[i].1 < b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

/// Worst `|W_f/r_f − W_m/r_m|` (seconds of normalised service) over every
/// interval inside `runs`; `None` when no run holds.
#[cfg(test)]
pub fn pair_gap(f: &FlowTrace, m: &FlowTrace, runs: &[(u64, u64)]) -> Option<f64> {
    run_gaps(f, m, runs)
        .into_iter()
        .map(|g| g.0)
        .reduce(f64::max)
}

/// Per run: the worst gap inside it and the number of the two flows'
/// departures it spans.
pub fn run_gaps(f: &FlowTrace, m: &FlowTrace, runs: &[(u64, u64)]) -> Vec<(f64, usize)> {
    let mut gaps = Vec::with_capacity(runs.len());
    for &(s, e) in runs {
        let (mut nf, mut nm) = (f.norm_before(s), m.norm_before(s));
        let (mut lo, mut hi) = (nf - nm, nf - nm);
        let (i0, j0) = (
            f.slots.partition_point(|&x| x < s),
            m.slots.partition_point(|&x| x < s),
        );
        let (mut i, mut j) = (i0, j0);
        loop {
            let next_f = f.slots.get(i).copied().filter(|&x| x < e);
            let next_m = m.slots.get(j).copied().filter(|&x| x < e);
            match (next_f, next_m) {
                (None, None) => break,
                (Some(a), Some(b)) if a == b => unreachable!("two departures in one slot"),
                (Some(a), b) if b.is_none_or(|b| a < b) => {
                    nf = f.prefix[i];
                    i += 1;
                }
                _ => {
                    nm = m.prefix[j];
                    j += 1;
                }
            }
            lo = lo.min(nf - nm);
            hi = hi.max(nf - nm);
        }
        gaps.push((hi - lo, (i - i0) + (j - j0)));
    }
    gaps
}

/// The per-shard terms of the chained cross-shard engine bound
/// (`tests/engine_fairness.rs`): `max_{g∈i} l_g/r_g` and `B_i / R_i` with
/// `B_i = batch · max_{g∈i} l_g` and `R_i` the shard's total rate.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardTerms {
    pub worst_span: f64,
    pub batch_term: f64,
}

impl ShardTerms {
    /// Terms for a shard whose members have the given `(rate_bps,
    /// max_bits)`.
    pub fn new(members: impl Iterator<Item = (u64, u64)>, batch: usize) -> Self {
        let (mut worst_span, mut max_bits, mut total) = (0.0f64, 0u64, 0u64);
        for (rate, bits) in members {
            worst_span = worst_span.max(bits as f64 / rate as f64);
            max_bits = max_bits.max(bits);
            total += rate;
        }
        ShardTerms {
            worst_span,
            batch_term: (batch as u64 * max_bits) as f64 / total.max(1) as f64,
        }
    }
}

/// Theorem 1 bound for two flows of one SFQ server.
pub fn same_shard_bound(f: &FlowTrace, m: &FlowTrace) -> f64 {
    f.span() + m.span()
}

/// Chained two-level bound for flows on different engine shards.
pub fn cross_shard_bound(f: &FlowTrace, m: &FlowTrace, i: ShardTerms, j: ShardTerms) -> f64 {
    f.span() + i.worst_span + i.batch_term + j.batch_term + m.span() + j.worst_span
}

/// Fairness of a sample of flow pairs.
#[derive(Clone, Copy, Debug, Default)]
pub struct Fairness {
    /// Largest `gap / bound`.
    pub ratio: f64,
    /// Pairs that had a jointly backlogged run.
    pub pairs: usize,
    /// Pairs whose gap exceeded the bound plus the tag-quantisation
    /// allowance.
    pub violations: usize,
}

/// Fixed-point tags (`SfqFast`) may lag exact ones by under
/// `1.5 · 2^-24` s per dequeue along a flow's finish chain
/// (`docs/fixed_point.md`); the repository's bounded-lag test allows
/// `3 · 2^-24` s per dequeue, and so does this gate.
pub const FIXED_POINT_QUANTUM: f64 = 3.0 / (1u64 << 24) as f64;

/// Sampled fairness over `flows` (`(shard, trace)`). `full[s]` are the
/// runs in which every flow of shard `s` is backlogged — the chained
/// bound's precondition, required for cross-shard pairs. `quantum` is the
/// per-departure tag allowance (0 for exact tags).
pub fn worst_ratio(
    flows: &[(usize, FlowTrace)],
    terms: &[ShardTerms],
    full: &[Vec<(u64, u64)>],
    quantum: f64,
) -> Fairness {
    let ranges: Vec<Vec<(u64, u64)>> = flows.iter().map(|(_, t)| t.backlogged()).collect();
    let mut out = Fairness::default();
    for a in 0..flows.len() {
        for b in a + 1..flows.len() {
            let ((sa, fa), (sb, fb)) = (&flows[a], &flows[b]);
            let mut runs = intersect(&ranges[a], &ranges[b]);
            let bound = if sa == sb {
                same_shard_bound(fa, fb)
            } else {
                runs = intersect(&intersect(&runs, &full[*sa]), &full[*sb]);
                cross_shard_bound(fa, fb, terms[*sa], terms[*sb])
            };
            let gaps = run_gaps(fa, fb, &runs);
            if gaps.is_empty() {
                continue;
            }
            out.pairs += 1;
            for (gap, n) in gaps {
                out.ratio = out.ratio.max(gap / bound);
                // 1e-9 of slack absorbs f64 rounding of a gap that meets
                // the (tight) bound exactly.
                if gap > bound * (1.0 + 1e-9) + quantum * n as f64 {
                    out.violations += 1;
                }
            }
        }
    }
    out
}

/// Runs of slots in which every flow of a shard is backlogged, from the
/// whole trace: `arrivals` are `(boundary, flow)` in boundary order and
/// `departures[k]` the flow served in slot `k`.
pub fn full_shard_ranges(
    flows: usize,
    shard_of: &dyn Fn(u32) -> usize,
    shards: usize,
    arrivals: &mut dyn Iterator<Item = (u64, u32)>,
    departures: &[u32],
) -> Vec<Vec<(u64, u64)>> {
    let mut pending = vec![0u32; flows];
    let mut empty = vec![0usize; shards];
    for f in 0..flows as u32 {
        empty[shard_of(f)] += 1;
    }
    let mut out = vec![Vec::new(); shards];
    let mut start: Vec<Option<u64>> = vec![None; shards];
    let mut next = arrivals.next();
    let mut mark = |b: u64, empty: &[usize], start: &mut [Option<u64>]| {
        for s in 0..shards {
            match (empty[s] == 0, start[s]) {
                (true, None) => start[s] = Some(b),
                (false, Some(st)) => {
                    out[s].push((st, b));
                    start[s] = None;
                }
                _ => {}
            }
        }
    };
    for b in 0..=departures.len() as u64 {
        if b > 0 {
            let f = departures[b as usize - 1];
            pending[f as usize] -= 1;
            if pending[f as usize] == 0 {
                empty[shard_of(f)] += 1;
            }
        }
        while let Some((_, f)) = next.filter(|&(ab, _)| ab <= b) {
            if pending[f as usize] == 0 {
                empty[shard_of(f)] -= 1;
            }
            pending[f as usize] += 1;
            next = arrivals.next();
        }
        mark(b, &empty, &mut start);
    }
    for s in 0..shards {
        if let Some(st) = start[s] {
            out[s].push((st, departures.len() as u64));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfq_core::{FlowId, Packet};
    use simtime::{Bytes, Rate, SimTime};

    #[test]
    fn backlog_ranges_by_hand() {
        // Arrives before slot 0, served in slot 2; arrives before 5,
        // served in 5; two arrive before 7, served in 8 and 9.
        let r = backlog_ranges(&[0, 5, 7, 7], &[2, 5, 8, 9]);
        assert_eq!(r, vec![(0, 3), (5, 6), (7, 10)]);
        assert_eq!(backlog_ranges(&[0, 0], &[4]), vec![(0, u64::MAX)]);
        assert_eq!(
            intersect(&[(0, 3), (5, 9)], &[(2, 6)]),
            vec![(2, 3), (5, 6)]
        );
    }

    #[test]
    fn gap_matches_analysis_max_fairness_gap() {
        // Three flows served back to back on a 1 Mbit/s link in a fixed
        // irregular order; f and m are backlogged for the whole trace.
        let link = Rate::mbps(1);
        let rates = [Rate::kbps(300), Rate::kbps(500), Rate::kbps(200)];
        let order = [0u32, 1, 1, 2, 0, 1, 0, 0, 2, 1, 1, 0, 2, 1, 0, 1];
        let lens = [
            64u64, 1500, 576, 1500, 64, 64, 576, 1500, 64, 576, 1500, 64, 1500, 576, 64, 1500,
        ];
        let mut t = SimTime::ZERO;
        let mut deps = Vec::new();
        let mut traces: Vec<FlowTrace> = rates.iter().map(|r| FlowTrace::new(r.as_bps())).collect();
        for (k, (&f, &l)) in order.iter().zip(&lens).enumerate() {
            let len = Bytes::new(l);
            let done = t + link.tx_time(len);
            deps.push(servers::Departure {
                pkt: Packet {
                    flow: FlowId(f),
                    seq: k as u64,
                    len,
                    arrival: SimTime::ZERO,
                    uid: k as u64,
                },
                service_start: t,
                departure: done,
            });
            traces[f as usize].depart(k as u64, len.bits());
            traces[f as usize].avail.push(0);
            t = done;
        }
        for (f, m) in [(0usize, 1usize), (1, 0), (0, 2)] {
            let exact = analysis::fairness::max_fairness_gap(
                &deps,
                FlowId(f as u32),
                rates[f],
                FlowId(m as u32),
                rates[m],
                SimTime::ZERO,
                t,
            );
            let ours = pair_gap(&traces[f], &traces[m], &[(0, u64::MAX)]).unwrap();
            assert!((ours - exact.to_f64()).abs() < 1e-12, "{ours} vs {exact}");
        }
    }

    #[test]
    fn full_shard_ranges_track_every_member() {
        // Two flows on shard 0: both arrive at 0, flow 0 again at 2.
        let arr = [(0u64, 0u32), (0, 1), (2, 0)];
        let full = full_shard_ranges(2, &|_| 0, 1, &mut arr.iter().copied(), &[1, 0, 0]);
        // Flow 1 leaves after slot 0, so the shard is full only in slot 0.
        assert_eq!(full, vec![vec![(0, 1)]]);
    }
}
