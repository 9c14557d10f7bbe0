//! Seeded input generation. Everything a workload feeds the program is
//! made here from `--seed` alone, before any timing starts; the program
//! under test only ever receives these generated packets.

/// SplitMix64: tiny, fast, and identical on every platform, so a seed
/// names the same inputs everywhere.
pub struct Rng(u64);

impl Rng {
    /// Generator for `seed`, decorrelated per `stream` so each input
    /// family draws from its own sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// Trimodal packet sizes: half minimum-size, a fifth 576 B, the rest MTU.
pub fn trimodal(rng: &mut Rng) -> u16 {
    match rng.below(10) {
        0..=4 => 64,
        5..=6 => 576,
        _ => 1500,
    }
}

/// Mean of [`trimodal`] in bytes.
pub const TRIMODAL_MEAN: f64 = 0.5 * 64.0 + 0.2 * 576.0 + 0.3 * 1500.0;

/// Flow weights: 1, 2 or 4 units (60/30/10 %).
fn weight_units(rng: &mut Rng) -> u64 {
    match rng.below(10) {
        0..=5 => 1,
        6..=8 => 2,
        _ => 4,
    }
}

/// `n` flow weights in exactly the proportions of [`weight_units`]'s
/// menu (rounded down; the rest weigh 4), in seeded order: the seed picks
/// which flow gets which weight, not how much load they add up to.
fn weight_deck(rng: &mut Rng, n: usize) -> Vec<u64> {
    let (ones, twos) = (n * 6 / 10, n * 3 / 10);
    let mut deck: Vec<u64> = (0..n)
        .map(|i| match i {
            _ if i < ones => 1,
            _ if i < ones + twos => 2,
            _ => 4,
        })
        .collect();
    for i in (1..n).rev() {
        deck.swap(i, rng.below(i as u64 + 1) as usize);
    }
    deck
}

/// The two fixed offered rates of every open-loop phase, in packets/s.
pub const LO_PPS: u64 = 50_000;
pub const HI_PPS: u64 = 150_000;

/// Receives an input's byte image one little-endian `u64` at a time.
pub trait Sink {
    fn put(&mut self, v: u64);
}

impl Sink for Vec<u8> {
    fn put(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
}

/// FNV-1a over the byte image, for the provenance line; streams, so
/// digesting a million-flow input allocates nothing.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Sink for Fnv {
    fn put(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Digest of anything that can feed a [`Sink`].
pub fn digest(feed: impl FnOnce(&mut Fnv)) -> u64 {
    let mut h = Fnv::default();
    feed(&mut h);
    h.0
}

/// Independent trials per open-loop phase: the system drains empty
/// between trials, so a backlog that one trial fails to clear is charged
/// to that trial's packets only.
pub const OPEN_TRIALS: usize = 5;

/// An open-loop arrival schedule: [`OPEN_TRIALS`] trials of Poisson
/// arrivals at a fixed rate, flows drawn uniformly from a flow list,
/// trimodal sizes. `due_ns` counts from the start of the packet's trial.
pub struct OpenSchedule {
    pub pps: u64,
    pub due_ns: Vec<u64>,
    pub flow: Vec<u32>,
    pub len: Vec<u16>,
    /// Index of each trial's first packet.
    pub trials: Vec<usize>,
}

impl OpenSchedule {
    pub fn new(rng: &mut Rng, pps: u64, dur_ns: u64, flows: &[u32]) -> Self {
        let mean_ns = 1e9 / pps as f64;
        let trial_ns = (dur_ns / OPEN_TRIALS as u64) as f64;
        let (mut due_ns, mut flow, mut len, mut trials) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for _ in 0..OPEN_TRIALS {
            trials.push(due_ns.len());
            let mut t = 0.0;
            loop {
                t += rng.exp(mean_ns);
                if t >= trial_ns {
                    break;
                }
                due_ns.push(t as u64);
                flow.push(flows[rng.below(flows.len() as u64) as usize]);
                len.push(trimodal(rng));
            }
        }
        OpenSchedule {
            pps,
            due_ns,
            flow,
            len,
            trials,
        }
    }

    /// Packet index range of each trial.
    pub fn trial_ranges(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        let ends = self
            .trials
            .iter()
            .skip(1)
            .copied()
            .chain([self.due_ns.len()]);
        self.trials.iter().copied().zip(ends).map(|(s, e)| s..e)
    }

    pub fn feed(&self, out: &mut impl Sink) {
        out.put(self.pps);
        for &t in &self.trials {
            out.put(t as u64);
        }
        out.put(self.due_ns.len() as u64);
        for i in 0..self.due_ns.len() {
            out.put(self.due_ns[i]);
            out.put(self.flow[i] as u64);
            out.put(self.len[i] as u64);
        }
    }
}

/// Inputs of an engine workload: flow weights, a standing-backlog
/// preload, and a steady arrival cycle in which every flow appears once
/// per weight unit in a seeded order, so arrivals match each flow's
/// weighted service share and the backlog stays level. Packet `uid`
/// indexes the preload first, then the cycle repeated.
pub struct EngineInputs {
    pub rate_bps: Vec<u64>,
    pub preload_flow: Vec<u32>,
    pub preload_len: Vec<u16>,
    pub cycle_flow: Vec<u32>,
    pub cycle_len: Vec<u16>,
    pub lo: OpenSchedule,
    pub hi: OpenSchedule,
}

impl EngineInputs {
    pub fn new(seed: u64, flows: usize, depth: usize, phase_ns: u64) -> Self {
        let mut rng = Rng::new(seed, 1);
        let units: Vec<u64> = (0..flows).map(|_| weight_units(&mut rng)).collect();
        let rate_bps = units.iter().map(|u| u * 1_000_000).collect();
        let mut order: Vec<u32> = (0..flows as u32).collect();
        let (mut preload_flow, mut preload_len) = (Vec::new(), Vec::new());
        for _ in 0..depth {
            rng.shuffle(&mut order);
            preload_flow.extend_from_slice(&order);
            preload_len.extend((0..flows).map(|_| trimodal(&mut rng)));
        }
        let mut cycle_flow: Vec<u32> = units
            .iter()
            .enumerate()
            .flat_map(|(f, &u)| std::iter::repeat_n(f as u32, u as usize))
            .collect();
        rng.shuffle(&mut cycle_flow);
        let cycle_len = cycle_flow.iter().map(|_| trimodal(&mut rng)).collect();
        let all: Vec<u32> = (0..flows as u32).collect();
        let lo = OpenSchedule::new(&mut Rng::new(seed, 2), LO_PPS, phase_ns, &all);
        let hi = OpenSchedule::new(&mut Rng::new(seed, 3), HI_PPS, phase_ns, &all);
        EngineInputs {
            rate_bps,
            preload_flow,
            preload_len,
            cycle_flow,
            cycle_len,
            lo,
            hi,
        }
    }

    /// Flow and length of closed-loop packet `uid`.
    #[inline]
    pub fn arrival(&self, uid: u64) -> (u32, u16) {
        let p = self.preload_flow.len() as u64;
        if uid < p {
            (
                self.preload_flow[uid as usize],
                self.preload_len[uid as usize],
            )
        } else {
            let i = ((uid - p) % self.cycle_flow.len() as u64) as usize;
            (self.cycle_flow[i], self.cycle_len[i])
        }
    }

    pub fn feed(&self, out: &mut impl Sink) {
        for &r in &self.rate_bps {
            out.put(r);
        }
        for (f, l) in self.preload_flow.iter().zip(&self.preload_len) {
            out.put(*f as u64);
            out.put(*l as u64);
        }
        for (f, l) in self.cycle_flow.iter().zip(&self.cycle_len) {
            out.put(*f as u64);
            out.put(*l as u64);
        }
        self.lo.feed(out);
        self.hi.feed(out);
    }
}

/// One flow of the forwarding-graph workload.
#[derive(Clone, Copy, Debug)]
pub struct GraphFlow {
    pub port: usize,
    pub ingress: usize,
    pub rate_bps: u64,
    pub greedy: bool,
    /// Token-bucket contract, sized so the flow's own arrivals conform.
    pub sigma: u64,
    pub rho_bps: u64,
}

pub const GRAPH_PORTS: usize = 4;
pub const GRAPH_INGRESSES: usize = 4;
pub const GRAPH_FLOWS_PER_PORT: usize = 250;
pub const GRAPH_GREEDY_PER_PORT: usize = 4;
pub const GRAPH_LINK_BPS: u64 = 100_000_000;
/// One on-off weight unit: 246 on-off flows averaging 1.6 units offer
/// about 89 % of the link.
pub const GRAPH_ONOFF_UNIT_BPS: u64 = 225_000;

/// Inputs of the forwarding-graph workload: per flow, its contract and
/// its `(time ns, bytes)` arrivals over `span_ns` of simulated time.
pub struct GraphInputs {
    pub span_ns: u64,
    pub flows: Vec<GraphFlow>,
    pub arrivals: Vec<Vec<(u64, u16)>>,
    pub lo: OpenSchedule,
    pub hi: OpenSchedule,
}

impl GraphInputs {
    /// On-off sources (exponential 10 ms on / 10 ms off, back-to-back at
    /// twice their weight while on) offer about 89 % of each port's link;
    /// each port's greedy flows add 5 % more plus a time-zero burst that
    /// keeps them backlogged for the whole span.
    pub fn new(seed: u64, span_ns: u64, phase_ns: u64) -> Self {
        let mut rng = Rng::new(seed, 11);
        let link = GRAPH_LINK_BPS as f64;
        let span_s = span_ns as f64 / 1e9;
        let mut flows = Vec::new();
        let mut arrivals = Vec::new();
        for port in 0..GRAPH_PORTS {
            let weights = weight_deck(&mut rng, GRAPH_FLOWS_PER_PORT - GRAPH_GREEDY_PER_PORT);
            for k in 0..GRAPH_FLOWS_PER_PORT {
                let id = port * GRAPH_FLOWS_PER_PORT + k;
                let greedy = k < GRAPH_GREEDY_PER_PORT;
                // Rates come from a fixed menu in fixed proportions
                // whatever the seed: exact tag arithmetic costs depend on
                // the rates' common denominators, and the graph's memory
                // on how many packets the port's load adds up to, so
                // seed-derived rates or shares would make the seed, not
                // the program, set the timings and the peak RSS.
                let (rate_bps, arr) = if greedy {
                    let rate = GRAPH_LINK_BPS / 40;
                    (
                        rate,
                        greedy_arrivals(&mut rng, 0.0125 * link, 0.03 * link * span_s, span_s),
                    )
                } else {
                    let rate = GRAPH_ONOFF_UNIT_BPS * weights[k - GRAPH_GREEDY_PER_PORT];
                    (rate, onoff_arrivals(&mut rng, 2.0 * rate as f64, span_s))
                };
                let rho_bps = 2 * rate_bps;
                flows.push(GraphFlow {
                    port,
                    ingress: id % GRAPH_INGRESSES,
                    rate_bps,
                    greedy,
                    sigma: conforming_sigma(&arr, rho_bps),
                    rho_bps,
                });
                arrivals.push(arr);
            }
        }
        let port0: Vec<u32> = (0..GRAPH_FLOWS_PER_PORT as u32).collect();
        let lo = OpenSchedule::new(&mut Rng::new(seed, 12), LO_PPS, phase_ns, &port0);
        let hi = OpenSchedule::new(&mut Rng::new(seed, 13), HI_PPS, phase_ns, &port0);
        GraphInputs {
            span_ns,
            flows,
            arrivals,
            lo,
            hi,
        }
    }

    pub fn packets(&self) -> usize {
        self.arrivals.iter().map(Vec::len).sum()
    }

    pub fn feed(&self, out: &mut impl Sink) {
        out.put(self.span_ns);
        for (f, arr) in self.flows.iter().zip(&self.arrivals) {
            for v in [
                f.port as u64,
                f.ingress as u64,
                f.rate_bps,
                f.greedy as u64,
                f.sigma,
                f.rho_bps,
            ] {
                out.put(v);
            }
            out.put(arr.len() as u64);
            for &(t, l) in arr {
                out.put(t);
                out.put(l as u64);
            }
        }
        self.lo.feed(out);
        self.hi.feed(out);
    }
}

fn onoff_arrivals(rng: &mut Rng, peak_bps: f64, span_s: f64) -> Vec<(u64, u16)> {
    const MEAN_S: f64 = 0.010;
    let mut out = Vec::new();
    let mut t = if rng.below(2) == 0 {
        0.0
    } else {
        rng.exp(MEAN_S)
    };
    while t < span_s {
        let end = (t + rng.exp(MEAN_S)).min(span_s);
        while t < end {
            let len = trimodal(rng);
            out.push(((t * 1e9) as u64, len));
            t += len as f64 * 8.0 / peak_bps;
        }
        t = t.max(end) + rng.exp(MEAN_S);
    }
    out
}

fn greedy_arrivals(rng: &mut Rng, rate_bps: f64, burst_bits: f64, span_s: f64) -> Vec<(u64, u16)> {
    let mut out = Vec::new();
    let mut bits = 0.0;
    while bits < burst_bits {
        let len = trimodal(rng);
        bits += len as f64 * 8.0;
        out.push((0, len));
    }
    let mean_s = TRIMODAL_MEAN * 8.0 / rate_bps;
    let mut t = rng.exp(mean_s);
    while t < span_s {
        out.push(((t * 1e9) as u64, trimodal(rng)));
        t += rng.exp(mean_s);
    }
    out
}

/// Smallest GCRA burst (bytes) under which every arrival conforms at
/// `rho_bps`, plus two MTUs so float rounding can never flip a decision
/// of the policer's exact arithmetic.
fn conforming_sigma(arr: &[(u64, u16)], rho_bps: u64) -> u64 {
    let rho = rho_bps as f64;
    let (mut tat, mut tau) = (0.0f64, 0.0f64);
    for &(t_ns, len) in arr {
        let t = t_ns as f64 / 1e9;
        tau = tau.max(tat - t);
        tat = tat.max(t) + len as f64 * 8.0 / rho;
    }
    (tau * rho / 8.0).ceil() as u64 + 3000
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(feed: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut out = Vec::new();
        feed(&mut out);
        out
    }

    #[test]
    fn same_seed_same_bytes_other_seed_differs() {
        let e = |seed| EngineInputs::new(seed, 300, 2, 20_000_000);
        let (a, b, c) = (e(7), e(7), e(8));
        let (ia, ib, ic) = (
            image(|o| a.feed(o)),
            image(|o| b.feed(o)),
            image(|o| c.feed(o)),
        );
        assert_eq!(ia, ib);
        assert_ne!(ia, ic);
        assert_eq!(digest(|h| a.feed(h)), digest(|h| b.feed(h)));
        assert_ne!(digest(|h| a.feed(h)), digest(|h| c.feed(h)));
        let g = |seed| GraphInputs::new(seed, 50_000_000, 20_000_000);
        let (a, b, c) = (g(7), g(7), g(8));
        let (ia, ib, ic) = (
            image(|o| a.feed(o)),
            image(|o| b.feed(o)),
            image(|o| c.feed(o)),
        );
        assert_eq!(ia, ib);
        assert_ne!(ia, ic);
        assert_eq!(digest(|h| a.feed(h)), digest(|h| b.feed(h)));
    }

    #[test]
    fn cycle_matches_weights_and_preload_covers_every_flow() {
        let inp = EngineInputs::new(3, 100, 2, 1_000_000);
        let mut seen = vec![0u64; 100];
        for &f in &inp.cycle_flow {
            seen[f as usize] += 1;
        }
        for (n, rate) in seen.iter().zip(&inp.rate_bps) {
            assert_eq!(n * 1_000_000, *rate);
        }
        let mut pre = vec![0; 100];
        for &f in &inp.preload_flow {
            pre[f as usize] += 1;
        }
        assert!(pre.iter().all(|&n| n == 2));
    }

    #[test]
    fn graph_arrivals_conform_to_their_contract() {
        let inp = GraphInputs::new(5, 100_000_000, 1_000_000);
        for (f, arr) in inp.flows.iter().zip(&inp.arrivals) {
            assert!(arr.windows(2).all(|w| w[0].0 <= w[1].0));
            let rho = f.rho_bps as f64;
            let tau = f.sigma as f64 * 8.0 / rho;
            let mut tat = 0.0f64;
            for &(t, len) in arr {
                let t = t as f64 / 1e9;
                assert!(tat <= t + tau);
                tat = tat.max(t) + len as f64 * 8.0 / rho;
            }
        }
    }
}
