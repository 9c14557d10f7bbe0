//! `graph_mix`: the full forwarding path — policer → classifier → port
//! (`SwitchCore` over a 2-shard exact `SyncEngine`) → sink — on a 4×4
//! traffic matrix, driven by the `des` executor. The saturated phase
//! builds the graph, scripts every source, and runs it to completion, as
//! many times as the phase allows; every build does identical work. The
//! open-loop phases drive one port's engine facade at `lo` and `hi`.

use crate::engine::{check_books, open_loop, Facade, Log};
use crate::fairness::{self, Fairness, FlowTrace, ShardTerms};
use crate::gen::{self, GraphInputs, Rng};
use crate::host::HostRef;
use crate::layers::{self, Ledger, Shape};
use crate::report::{self, Report};
use crate::stats;
use graph::{Graph, GraphReport, GraphSpec, PortKind, PortSpec, TokenBucket};
use servers::RateProfile;
use sfq_core::{FlowId, Packet};
use sfq_engine::{shard_of, EngineConfig, SyncEngine};
use simtime::{Bytes, Rate, SimTime};
use std::time::Instant;

/// Simulated span of the traffic script.
const SPAN_NS: u64 = 400_000_000;
const SHARDS: usize = 2;
const SAMPLED_ONOFF: usize = 12;

fn port_cfg() -> EngineConfig {
    EngineConfig::new(SHARDS).ring_capacity(1 << 16)
}

fn link() -> Rate {
    Rate::bps(gen::GRAPH_LINK_BPS)
}

/// Set-up: topology, flow registration on every port, policer
/// contracts, and the traffic script.
fn build(inp: &GraphInputs, script: &[Vec<(SimTime, Bytes)>]) -> Graph {
    let ports = (0..gen::GRAPH_PORTS)
        .map(|p| {
            let flows = inp
                .flows
                .iter()
                .enumerate()
                .filter(|(_, f)| f.port == p)
                .map(|(id, f)| (FlowId(id as u32), Rate::bps(f.rate_bps)))
                .collect();
            PortSpec::new(RateProfile::constant(link()), flows)
        })
        .collect();
    let routes = inp
        .flows
        .iter()
        .enumerate()
        .map(|(id, f)| (FlowId(id as u32), f.port))
        .collect();
    let mut spec = GraphSpec::matrix(gen::GRAPH_INGRESSES, ports, routes);
    let entries: Vec<usize> = (0..gen::GRAPH_INGRESSES)
        .map(|i| spec.add_policer(i, rules(inp, Some(i))))
        .collect();
    let mut g = spec.build(PortKind::EngineSync(port_cfg()));
    for (id, arr) in script.iter().enumerate() {
        g.add_source(entries[inp.flows[id].ingress], FlowId(id as u32), arr);
    }
    g
}

fn rules(inp: &GraphInputs, ingress: Option<usize>) -> Vec<(FlowId, TokenBucket)> {
    inp.flows
        .iter()
        .enumerate()
        .filter(|(_, f)| ingress.is_none_or(|i| f.ingress == i))
        .map(|(id, f)| {
            (
                FlowId(id as u32),
                TokenBucket {
                    sigma: Bytes::new(f.sigma),
                    rho: Rate::bps(f.rho_bps),
                },
            )
        })
        .collect()
}

/// Books of one graph run: `(delivered, refused)` or the failed gate.
fn check_run(r: &GraphReport, offered: usize, flows: usize) -> Result<(u64, u64), String> {
    let delivered: usize = r.sink_departures.iter().map(|(_, d)| d.len()).sum();
    let refused = r.arena_refused
        + r.port_refusals
            .iter()
            .map(|(_, v)| v.len() as u64)
            .sum::<u64>()
        + r.policer_dropped
        + r.unrouted
        + r.churn_refused
        + r.churn_discarded
        + r.evicted;
    if offered as u64 != delivered as u64 + refused {
        return Err(format!(
            "graph: offered {offered} != delivered {delivered} + refused {refused}"
        ));
    }
    if !(r.audit.balanced() && r.audit.in_use == 0) {
        return Err(format!("graph: arena books unbalanced: {:?}", r.audit));
    }
    let mut seen = vec![false; offered];
    let mut last = vec![-1i64; flows];
    for (_, deps) in &r.sink_departures {
        for d in deps {
            let u = d.uid as usize;
            if u >= offered || seen[u] {
                return Err(format!("graph: uid {u} delivered twice or unknown"));
            }
            seen[u] = true;
            let f = d.flow.0 as usize;
            if d.uid as i64 <= last[f] {
                return Err(format!("graph: flow {f} departed out of order"));
            }
            last[f] = d.uid as i64;
        }
    }
    Ok((delivered as u64, refused))
}

/// Worst sampled `gap / bound` over every port: the greedy flows plus a
/// seeded sample of on-off flows, slot = position in the port's sink
/// order, a packet available from the first slot starting at or after
/// its arrival.
fn fairness_ratio(
    inp: &GraphInputs,
    script: &[Vec<(SimTime, Bytes)>],
    r: &GraphReport,
    seed: u64,
) -> Fairness {
    let mut rng = Rng::new(seed, 21);
    let mut out = Fairness::default();
    for (p, (_, deps)) in r.sink_departures.iter().enumerate() {
        let members: Vec<usize> = (0..inp.flows.len())
            .filter(|&f| inp.flows[f].port == p)
            .collect();
        let local = |f: usize| f - p * gen::GRAPH_FLOWS_PER_PORT;
        // Slot k starts at at_k − tx(len_k); packet arriving at t is
        // available for the first slot with t + tx(len_k) <= at_k.
        let avail = |t: SimTime| deps.partition_point(|d| t + link().tx_time(d.len) > d.at) as u64;
        let mut sample: Vec<usize> = members
            .iter()
            .copied()
            .filter(|&f| inp.flows[f].greedy)
            .collect();
        let onoff: Vec<usize> = members
            .iter()
            .copied()
            .filter(|&f| !inp.flows[f].greedy)
            .collect();
        while sample.len() < gen::GRAPH_GREEDY_PER_PORT + SAMPLED_ONOFF {
            let f = onoff[rng.below(onoff.len() as u64) as usize];
            if !sample.contains(&f) {
                sample.push(f);
            }
        }
        let mut traces: Vec<(usize, FlowTrace)> = sample
            .iter()
            .map(|&f| {
                let mut t = FlowTrace::new(inp.flows[f].rate_bps);
                t.avail = script[f].iter().map(|&(at, _)| avail(at)).collect();
                (shard_of(FlowId(f as u32), SHARDS), t)
            })
            .collect();
        for (k, d) in deps.iter().enumerate() {
            if let Some(i) = sample.iter().position(|&f| f == d.flow.0 as usize) {
                traces[i].1.depart(k as u64, d.len.bits());
            }
        }
        let shard = |l: u32| {
            shard_of(
                FlowId((l as usize + p * gen::GRAPH_FLOWS_PER_PORT) as u32),
                SHARDS,
            )
        };
        let terms: Vec<ShardTerms> = (0..SHARDS)
            .map(|s| {
                let m = members
                    .iter()
                    .filter(|&&f| shard(local(f) as u32) == s)
                    .map(|&f| (inp.flows[f].rate_bps, 1500 * 8));
                ShardTerms::new(m, 1)
            })
            .collect();
        let mut arrivals: Vec<(u64, u32)> = members
            .iter()
            .flat_map(|&f| script[f].iter().map(move |&(at, _)| (at, f)))
            .map(|(at, f)| (avail(at), local(f) as u32))
            .collect();
        arrivals.sort_unstable();
        let dep_flows: Vec<u32> = deps
            .iter()
            .map(|d| local(d.flow.0 as usize) as u32)
            .collect();
        let full = fairness::full_shard_ranges(
            members.len(),
            &shard,
            SHARDS,
            &mut arrivals.into_iter(),
            &dep_flows,
        );
        let f = fairness::worst_ratio(&traces, &terms, &full, 0.0);
        out.ratio = out.ratio.max(f.ratio);
        out.pairs += f.pairs;
        out.violations += f.violations;
    }
    out
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut rep = Report {
        threads: 1,
        ..Report::default()
    };
    let mut host = HostRef::new();
    let phase_ns = (seconds / 8.0 * 1e9) as u64;
    let inp = GraphInputs::new(seed, SPAN_NS, phase_ns);
    rep.inputs_digest = gen::digest(|h| inp.feed(h));
    let script: Vec<Vec<(SimTime, Bytes)>> = inp
        .arrivals
        .iter()
        .map(|a| {
            a.iter()
                .map(|&(t, l)| (SimTime::from_nanos(t as i128), Bytes::new(l as u64)))
                .collect()
        })
        .collect();
    let offered = inp.packets();
    let horizon = SimTime::from_nanos(3 * SPAN_NS as i128);

    let (mut setup_s, mut rates, mut traced_rates) = (Vec::new(), Vec::new(), Vec::new());
    let (mut failed, mut attempted) = (0u64, 0u64);
    let mut first: Option<Vec<u64>> = None;
    // Peak RSS of the inputs and one build's whole life. Later builds
    // reuse the heap in an order that varies with how many ran, which
    // would add up to 30 MiB of fragmentation to the figure.
    let mut rss = 0.0;
    let mark = host.mark();
    let t0 = Instant::now();
    let mut builds = 0usize;
    while builds < 4 || t0.elapsed().as_secs_f64() < seconds * 0.75 {
        let t = Instant::now();
        let mut g = build(&inp, &script);
        setup_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let r = g.run(horizon);
        let run_s = t.elapsed().as_secs_f64();
        drop(g);
        builds += 1;
        attempted += offered as u64;
        match check_run(&r, offered, inp.flows.len()) {
            Ok((delivered, refused)) => {
                failed += refused;
                // The only spans here wrap whole `build` and `run`
                // calls, so tracing costs nothing per packet; traced runs
                // split alternate builds anyway, and the overhead figure
                // they give is the build-to-build noise.
                if trace && builds.is_multiple_of(2) {
                    traced_rates.push(delivered as f64 / run_s);
                } else {
                    rates.push(delivered as f64 / run_s);
                }
            }
            Err(e) => {
                rep.errors.push(e);
                return rep;
            }
        }
        let uids: Vec<u64> = r
            .sink_departures
            .iter()
            .flat_map(|(_, d)| d.iter().map(|x| x.uid))
            .collect();
        match &first {
            None => {
                report::fairness(&mut rep, fairness_ratio(&inp, &script, &r, seed));
                first = Some(uids);
                rss = report::peak_rss_mb();
            }
            Some(u) => rep.gate(*u == uids, || "graph: builds of one script diverged".into()),
        }
        host.sample();
    }
    let host_factor = host.factor_since(mark);

    // Open loop through port 0's engine facade.
    let mut eng = SyncEngine::new(port_cfg());
    for f in 0..gen::GRAPH_FLOWS_PER_PORT {
        if let Err(e) = eng.try_add_flow(FlowId(f as u32), Rate::bps(inp.flows[f].rate_bps)) {
            rep.errors.push(format!("facade set-up: {e}"));
            return rep;
        }
    }
    let mut fac = Facade(eng);
    let mut log = Log::default();
    let lo = open_loop(&mut fac, &inp.lo, 0, 64, &mut log, trace, None);
    let n_lo = inp.lo.due_ns.len() as u64;
    let hi = open_loop(&mut fac, &inp.hi, n_lo, 64, &mut log, trace, None);
    let (lo, hi) = match (lo, hi) {
        (Ok(lo), Ok(hi)) => (lo, hi),
        (Err(e), _) | (_, Err(e)) => {
            rep.errors.push(format!("facade: {e}"));
            return rep;
        }
    };
    let open_offered = n_lo + inp.hi.due_ns.len() as u64;
    let flow_of = |uid: u64| {
        if uid < n_lo {
            inp.lo.flow[uid as usize]
        } else {
            inp.hi.flow[(uid - n_lo) as usize]
        }
    };
    rep.check(check_books(
        &log,
        open_offered,
        gen::GRAPH_FLOWS_PER_PORT,
        &flow_of,
    ));
    rep.attempted = attempted + open_offered;
    rep.failed = failed + log.refused.len() as u64;
    let loss = rep.failed as f64 / rep.attempted.max(1) as f64;

    if !trace {
        let (lo50, _) = report::latency_us(lo.lat_ns, &mut rep, "lo");
        let (hi50, hi99) = report::latency_us(hi.lat_ns, &mut rep, "hi");
        report::throughput(&mut rep, host_factor, &rates);
        rep.metric("lat_lo_p50_us", lo50, "us");
        rep.metric("setup_s", stats::median(&setup_s).unwrap_or(0.0), "s");
        rep.metric("lat_hi_p50_us", hi50, "us");
        rep.metric("lat_hi_p99_us", hi99, "us");
        rep.metric("peak_rss_mb", rss, "MiB");
        rep.metric("loss_ratio", loss, "ratio");
        return rep;
    }

    // Traced run: the ledger, at port 0's shape.
    let e2e_untraced = 1e9 / stats::median(&rates).unwrap_or(1.0);
    let e2e_traced = 1e9 / stats::median(&traced_rates).unwrap_or(1.0);
    let port0 = gen::GRAPH_FLOWS_PER_PORT;
    let rates0: Vec<u64> = inp.flows[..port0].iter().map(|f| f.rate_bps).collect();
    let mut stream: Vec<(u64, u32, u16)> = inp.arrivals[..port0]
        .iter()
        .enumerate()
        .flat_map(|(f, a)| a.iter().map(move |&(t, l)| (t, f as u32, l)))
        .collect();
    stream.sort_unstable();
    let stream: Vec<(u32, u16)> = stream.iter().map(|&(_, f, l)| (f, l)).collect();
    let shape = Shape {
        rates: &rates0,
        shards: SHARDS,
        batch: 1,
        exact: true,
        telemetry: false,
        depth: 4,
        pump: 1,
        stream: &stream,
    };
    let refused_by = log.refused_by;
    let mut led = Ledger::new(&mut rep);
    layers::common(&mut led, &shape, true);
    let (ingest, drain) = layers::native(&shape, SyncEngine::new(port_cfg().batch(shape.batch)));
    led.engine_native(ingest, drain, false);
    led.put(
        "graph.build_ms",
        stats::median(&setup_s).unwrap_or(0.0) * 1e3,
        "ms",
    );
    led.put("graph.run_ns_per_pkt", e2e_untraced, "ns");
    led.put("graph.refused", failed as f64, "count");
    let mut arrivals: Vec<(SimTime, Packet)> = Vec::with_capacity(offered);
    let mut uid = 0u64;
    for (f, a) in script.iter().enumerate() {
        for &(at, len) in a {
            let mut p = crate::engine::packet(uid, f as u32, 0);
            p.len = len;
            p.arrival = at;
            arrivals.push((at, p));
            uid += 1;
        }
    }
    arrivals.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.uid.cmp(&b.1.uid)));
    layers::nodes(&mut led, &arrivals, &rules(&inp, None), true);
    led.open_loop_counts(&hi, &lo);
    led.telemetry_read(None, SHARDS);
    led.refused(refused_by);
    led.finish(e2e_traced, e2e_untraced, loss);
    rep
}
