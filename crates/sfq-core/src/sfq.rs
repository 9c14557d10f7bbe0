//! Start-time Fair Queuing (Section 2 of the paper).
//!
//! Each arriving packet `p_f^j` is stamped with
//!
//! ```text
//! S(p_f^j) = max{ v(A(p_f^j)), F(p_f^{j-1}) }          (Eq. 4)
//! F(p_f^j) = S(p_f^j) + l_f^j / r_f^j                  (Eq. 5 / Eq. 36)
//! ```
//!
//! with `F(p_f^0) = 0`. Packets are served in increasing start-tag
//! order. The server virtual time `v(t)` is the start tag of the packet
//! in service; at the end of a busy period it becomes the maximum finish
//! tag assigned to any serviced packet. Computing `v(t)` is O(1) — this
//! is what makes SFQ as cheap as SCFQ while keeping fairness over
//! arbitrary (even fluctuating-rate) servers.
//!
//! `Sfq` is the exact-arithmetic, start-tag instantiation of the shared
//! tag-scheduler core ([`crate::tagsched`]), which holds the algorithm,
//! its head-of-flow queue structure and its observer events.

use crate::flowq::FifoBackend;
use crate::obs::{NoopObserver, SchedObserver};
use crate::sched::TieBreak;
use crate::tagsched::{Exact, StartVt, TagSched};

#[cfg(test)]
use crate::{
    obs::SchedEvent,
    packet::{FlowId, Packet},
    sched::Scheduler,
};
#[cfg(test)]
use simtime::{Rate, Ratio, SimTime};

/// The exact SFQ heap order, for the global-heap oracle below: start
/// tag, then the tie-break key, then packet uid.
#[cfg(test)]
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct Key {
    start: Ratio,
    tie: i128,
    uid: u64,
}

/// The Start-time Fair Queuing scheduler.
///
/// Supports the generalized per-packet variable-rate form (Eq. 36) via
/// [`Sfq::enqueue_with_rate`]; plain [`Scheduler::enqueue`] charges each
/// packet at its flow's registered weight.
///
/// ```
/// use sfq_core::{FlowId, PacketFactory, Scheduler, Sfq};
/// use simtime::{Bytes, Rate, SimTime};
///
/// let mut sched = Sfq::new();
/// sched.add_flow(FlowId(1), Rate::kbps(64));
/// sched.add_flow(FlowId(2), Rate::kbps(64));
///
/// let mut pf = PacketFactory::new();
/// let t0 = SimTime::ZERO;
/// // Flow 1 bursts two packets; flow 2 sends one. SFQ interleaves by
/// // start tags: flow 2's first packet (tag 0) beats flow 1's second
/// // (tag l/r).
/// sched.enqueue(t0, pf.make(FlowId(1), Bytes::new(200), t0));
/// sched.enqueue(t0, pf.make(FlowId(1), Bytes::new(200), t0));
/// sched.enqueue(t0, pf.make(FlowId(2), Bytes::new(200), t0));
///
/// let order: Vec<u32> = std::iter::from_fn(|| {
///     let p = sched.dequeue(t0)?;
///     sched.on_departure(t0);
///     Some(p.flow.0)
/// })
/// .collect();
/// assert_eq!(order, vec![1, 2, 1]);
/// ```
///
/// [`Scheduler::enqueue`]: crate::Scheduler::enqueue
pub type Sfq<O = NoopObserver> = TagSched<Exact, StartVt, O>;

impl Sfq {
    /// New SFQ scheduler with FIFO tie-breaking.
    pub fn new() -> Self {
        Self::with_tiebreak(TieBreak::Fifo)
    }

    /// New SFQ scheduler with an explicit tie-break rule (Section 2.3).
    pub fn with_tiebreak(tie: TieBreak) -> Self {
        Self::with_observer(tie, NoopObserver)
    }
}

impl<O: SchedObserver> Sfq<O> {
    /// New SFQ scheduler reporting events to `obs` (see
    /// [`crate::obs::SchedObserver`]).
    pub fn with_observer(tie: TieBreak, obs: O) -> Self {
        Self::with_parts(tie, obs, FifoBackend::default())
    }

    /// New SFQ scheduler with every knob explicit: tie-break rule,
    /// observer, and [`FifoBackend`]. The owned backend exists as the
    /// differential oracle (`tests/pool_identity.rs`); production
    /// callers take the pooled default.
    pub fn with_parts(tie: TieBreak, obs: O, backend: FifoBackend) -> Self {
        TagSched::from_parts("SFQ", Exact, tie, obs, backend)
    }
}

impl Default for Sfq {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketFactory;
    use simtime::Bytes;

    fn setup2() -> (Sfq, PacketFactory) {
        let mut s = Sfq::new();
        s.add_flow(FlowId(1), Rate::bps(1_000)); // tag span of 125B = 1
        s.add_flow(FlowId(2), Rate::bps(1_000));
        (s, PacketFactory::new())
    }

    #[test]
    fn tags_follow_eq4_eq5() {
        let (mut s, mut pf) = setup2();
        let t0 = SimTime::ZERO;
        let p1 = pf.make(FlowId(1), Bytes::new(125), t0);
        let p2 = pf.make(FlowId(1), Bytes::new(125), t0);
        s.enqueue(t0, p1);
        s.enqueue(t0, p2);
        // First packet: S = max(v=0, F0=0) = 0, F = 1.
        assert_eq!(s.tags_of(p1.uid), Some((Ratio::ZERO, Ratio::ONE)));
        // Second: S = F(p1) = 1, F = 2.
        assert_eq!(s.tags_of(p2.uid), Some((Ratio::ONE, Ratio::from_int(2))));
    }

    #[test]
    fn serves_in_start_tag_order_across_flows() {
        let (mut s, mut pf) = setup2();
        let t0 = SimTime::ZERO;
        // Flow 1 sends two packets at t0 (tags 0,1); flow 2 one packet
        // at t0 (tag 0) — tie on 0 broken by uid (FIFO), then flow2's
        // S=0 packet precedes flow1's S=1 packet.
        let a = pf.make(FlowId(1), Bytes::new(125), t0);
        let b = pf.make(FlowId(1), Bytes::new(125), t0);
        let c = pf.make(FlowId(2), Bytes::new(125), t0);
        s.enqueue(t0, a);
        s.enqueue(t0, b);
        s.enqueue(t0, c);
        let order: Vec<u64> = std::iter::from_fn(|| {
            let p = s.dequeue(t0);
            s.on_departure(t0);
            p.map(|p| p.uid)
        })
        .collect();
        assert_eq!(order, vec![a.uid, c.uid, b.uid]);
    }

    #[test]
    fn virtual_time_is_start_tag_of_in_service_packet() {
        let (mut s, mut pf) = setup2();
        let t0 = SimTime::ZERO;
        let a = pf.make(FlowId(1), Bytes::new(125), t0);
        let b = pf.make(FlowId(1), Bytes::new(125), t0);
        s.enqueue(t0, a);
        s.enqueue(t0, b);
        assert_eq!(s.virtual_time(), Ratio::ZERO);
        let _ = s.dequeue(t0).unwrap();
        assert_eq!(s.virtual_time(), Ratio::ZERO); // S(a) = 0
        s.on_departure(t0);
        let _ = s.dequeue(t0).unwrap();
        assert_eq!(s.virtual_time(), Ratio::ONE); // S(b) = 1
    }

    #[test]
    fn busy_period_end_sets_v_to_max_finish_served() {
        let (mut s, mut pf) = setup2();
        let t0 = SimTime::ZERO;
        let a = pf.make(FlowId(1), Bytes::new(125), t0);
        s.enqueue(t0, a);
        let _ = s.dequeue(t0).unwrap();
        s.on_departure(SimTime::from_secs(1));
        // Busy period over: v = F(a) = 1.
        assert_eq!(s.virtual_time(), Ratio::ONE);
        // A later packet starts from that virtual time: S = max(1, F_prev=1).
        let b = pf.make(FlowId(2), Bytes::new(125), SimTime::from_secs(5));
        s.enqueue(SimTime::from_secs(5), b);
        assert_eq!(s.tags_of(b.uid).unwrap().0, Ratio::ONE);
    }

    #[test]
    fn arrival_during_service_sees_in_service_start_tag() {
        let (mut s, mut pf) = setup2();
        let t0 = SimTime::ZERO;
        let a = pf.make(FlowId(1), Bytes::new(125), t0);
        let b = pf.make(FlowId(1), Bytes::new(125), t0);
        s.enqueue(t0, a);
        s.enqueue(t0, b);
        let _ = s.dequeue(t0); // a in service, v = 0
        s.on_departure(t0);
        let _ = s.dequeue(t0); // b in service, v = S(b) = 1
                               // Flow 2 packet arriving now: S = max(v=1, 0) = 1, not 2.
        let c = pf.make(FlowId(2), Bytes::new(125), t0);
        s.enqueue(t0, c);
        assert_eq!(s.tags_of(c.uid).unwrap().0, Ratio::ONE);
    }

    #[test]
    fn variable_rate_packets_use_given_rate() {
        let (mut s, mut pf) = setup2();
        let t0 = SimTime::ZERO;
        let p = pf.make(FlowId(1), Bytes::new(125), t0);
        // Charge at 2000 bps instead of the registered 1000 bps.
        s.enqueue_with_rate(t0, p, Rate::bps(2_000));
        let (start, finish) = s.tags_of(p.uid).unwrap();
        assert_eq!(start, Ratio::ZERO);
        assert_eq!(finish, Ratio::new(1, 2));
    }

    #[test]
    fn low_weight_first_tiebreak() {
        let mut s = Sfq::with_tiebreak(TieBreak::LowWeightFirst);
        s.add_flow(FlowId(1), Rate::mbps(1));
        s.add_flow(FlowId(2), Rate::kbps(32));
        let mut pf = PacketFactory::new();
        let t0 = SimTime::ZERO;
        // Both first packets have S = 0; low-weight flow 2 must win even
        // though flow 1's packet has the smaller uid.
        let a = pf.make(FlowId(1), Bytes::new(125), t0);
        let b = pf.make(FlowId(2), Bytes::new(125), t0);
        s.enqueue(t0, a);
        s.enqueue(t0, b);
        assert_eq!(s.dequeue(t0).unwrap().uid, b.uid);
    }

    #[test]
    fn backlog_counts_per_flow() {
        let (mut s, mut pf) = setup2();
        let t0 = SimTime::ZERO;
        s.enqueue(t0, pf.make(FlowId(1), Bytes::new(125), t0));
        s.enqueue(t0, pf.make(FlowId(1), Bytes::new(125), t0));
        s.enqueue(t0, pf.make(FlowId(2), Bytes::new(125), t0));
        assert_eq!(s.backlog(FlowId(1)), 2);
        assert_eq!(s.backlog(FlowId(2)), 1);
        assert_eq!(s.len(), 3);
        let _ = s.dequeue(t0);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn heap_holds_one_entry_per_backlogged_flow() {
        let (mut s, mut pf) = setup2();
        let t0 = SimTime::ZERO;
        for _ in 0..10 {
            s.enqueue(t0, pf.make(FlowId(1), Bytes::new(125), t0));
        }
        for _ in 0..5 {
            s.enqueue(t0, pf.make(FlowId(2), Bytes::new(125), t0));
        }
        // 15 packets queued, but only 2 backlogged flows → 2 heap entries.
        assert_eq!(s.len(), 15);
        assert_eq!(s.head_heap_len(), 2);
        let _ = s.dequeue(t0);
        s.on_departure(t0);
        assert_eq!(s.head_heap_len(), 2, "flow 1 still backlogged");
    }

    #[test]
    #[should_panic(expected = "unregistered flow")]
    fn unregistered_flow_panics() {
        let mut s = Sfq::new();
        let mut pf = PacketFactory::new();
        let p = pf.make(FlowId(9), Bytes::new(10), SimTime::ZERO);
        s.enqueue(SimTime::ZERO, p);
    }

    #[test]
    fn remove_flow_only_when_idle() {
        let (mut s, mut pf) = setup2();
        let t0 = SimTime::ZERO;
        s.enqueue(t0, pf.make(FlowId(1), Bytes::new(125), t0));
        assert!(!s.remove_flow(FlowId(1)), "backlogged flow stays");
        let _ = s.dequeue(t0);
        s.on_departure(t0);
        assert!(s.remove_flow(FlowId(1)));
        assert!(!s.remove_flow(FlowId(1)), "already gone");
        assert!(!s.remove_flow(FlowId(9)), "unknown flow");
        // Re-registering starts a fresh tag chain.
        s.add_flow(FlowId(1), Rate::bps(1_000));
        assert_eq!(s.flow_last_finish(FlowId(1)), Some(Ratio::ZERO));
    }

    #[test]
    fn force_remove_discards_backlog_and_keeps_counts_exact() {
        let (mut s, mut pf) = setup2();
        let t0 = SimTime::ZERO;
        let a = pf.make(FlowId(1), Bytes::new(125), t0);
        s.enqueue(t0, a);
        s.enqueue(t0, pf.make(FlowId(1), Bytes::new(125), t0));
        let b = pf.make(FlowId(2), Bytes::new(125), t0);
        s.enqueue(t0, b);
        assert_eq!(s.force_remove_flow(FlowId(1)), 2);
        assert_eq!(s.len(), 1);
        assert_eq!(s.backlog(FlowId(1)), 0);
        assert_eq!(s.tags_of(a.uid), None);
        // The stale heap entry for flow 1 is skipped; flow 2's packet
        // comes out and the scheduler drains cleanly.
        assert_eq!(s.dequeue(t0).unwrap().uid, b.uid);
        s.on_departure(t0);
        assert!(s.dequeue(t0).is_none());
        assert!(s.is_empty());
        assert_eq!(s.force_remove_flow(FlowId(9)), 0, "unknown flow is a no-op");
    }

    #[test]
    fn dequeue_empty_returns_none() {
        let (mut s, _) = setup2();
        assert!(s.dequeue(SimTime::ZERO).is_none());
        assert!(s.is_empty());
    }

    /// The observer sees every tag assignment with the same values the
    /// diagnostic accessors report.
    #[test]
    fn observer_reports_assigned_tags() {
        #[derive(Default)]
        struct Last(Vec<SchedEvent>);
        impl SchedObserver for Last {
            fn on_enqueue(&mut self, ev: &SchedEvent) {
                self.0.push(*ev);
            }
        }
        let mut s = Sfq::with_observer(TieBreak::Fifo, Last::default());
        s.add_flow(FlowId(1), Rate::bps(1_000));
        let mut pf = PacketFactory::new();
        let t0 = SimTime::ZERO;
        let p = pf.make(FlowId(1), Bytes::new(125), t0);
        s.enqueue(t0, p);
        let tags = s.tags_of(p.uid).unwrap();
        let ev = s.observer().0.last().unwrap();
        assert_eq!((ev.start_tag, ev.finish_tag), tags);
        assert_eq!(ev.uid, p.uid);
        assert_eq!(ev.v, Ratio::ZERO);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::packet::PacketFactory;
    use proptest::prelude::*;
    use simtime::Bytes;
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};

    /// A random interleaving of operations against an SFQ scheduler.
    #[derive(Debug, Clone)]
    enum Op {
        /// Enqueue (flow index, length).
        Enq(u8, u64),
        /// Dequeue one packet and complete its transmission.
        Deq,
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec(
            prop_oneof![
                (0u8..4, 64u64..1500).prop_map(|(f, l)| Op::Enq(f, l)),
                Just(Op::Deq),
            ],
            1..200,
        )
    }

    /// The seed implementation this PR restructured away from: a single
    /// global heap holding *every* queued packet, with the same Eq. 4/5
    /// tag recurrence and the same (start, tie, uid) ordering key. Kept
    /// as a test oracle: the head-of-flow `Sfq` must reproduce its
    /// dequeue sequence bit for bit.
    struct GlobalHeapSfq {
        flows: HashMap<FlowId, (Rate, Ratio)>,
        heap: BinaryHeap<Reverse<(Key, OraclePkt)>>,
        tie: TieBreak,
        v: Ratio,
        in_service: Option<Ratio>,
        max_finish_served: Ratio,
    }

    /// Packet + finish tag with the seed's dummy uid ordering (`Key` is
    /// always distinct, so this ordering is never consulted).
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    struct OraclePkt {
        pkt: Packet,
        finish: Ratio,
    }

    impl PartialOrd for OraclePkt {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for OraclePkt {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.pkt.uid.cmp(&other.pkt.uid)
        }
    }

    impl GlobalHeapSfq {
        fn new(tie: TieBreak) -> Self {
            GlobalHeapSfq {
                flows: HashMap::new(),
                heap: BinaryHeap::new(),
                tie,
                v: Ratio::ZERO,
                in_service: None,
                max_finish_served: Ratio::ZERO,
            }
        }

        fn add_flow(&mut self, flow: FlowId, weight: Rate) {
            self.flows.insert(flow, (weight, Ratio::ZERO));
        }

        fn enqueue(&mut self, pkt: Packet) {
            let v_now = self.in_service.unwrap_or(self.v).snap_pico();
            let (weight, last_finish) = self.flows[&pkt.flow];
            let start = v_now.max(last_finish);
            let finish = start + weight.tag_span(pkt.len);
            self.flows.get_mut(&pkt.flow).unwrap().1 = finish;
            let key = Key {
                start,
                tie: self.tie.key(weight),
                uid: pkt.uid,
            };
            self.heap.push(Reverse((key, OraclePkt { pkt, finish })));
        }

        fn dequeue(&mut self) -> Option<Packet> {
            let Reverse((key, rec)) = self.heap.pop()?;
            self.in_service = Some(key.start);
            self.v = key.start;
            self.max_finish_served = self.max_finish_served.max(rec.finish);
            Some(rec.pkt)
        }

        fn on_departure(&mut self) {
            self.in_service = None;
            if self.heap.is_empty() {
                self.v = self.max_finish_served;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Structural tag invariants under arbitrary interleavings:
        /// v(t) is non-decreasing; every assigned start tag is >= the
        /// virtual time at its assignment; finish > start; dequeues
        /// come out in non-decreasing start-tag order within a busy
        /// period.
        #[test]
        fn tag_invariants(ops in ops()) {
            let mut s = Sfq::new();
            for f in 0..4u32 {
                s.add_flow(FlowId(f), Rate::bps(1_000 + 500 * f as u64));
            }
            let mut pf = PacketFactory::new();
            let t0 = SimTime::ZERO;
            let mut last_v = s.virtual_time();
            let mut last_start_in_busy: Option<Ratio> = None;
            for op in ops {
                match op {
                    Op::Enq(f, l) => {
                        let pkt = pf.make(FlowId(f as u32), Bytes::new(l), t0);
                        let v_before = s.virtual_time();
                        s.enqueue(t0, pkt);
                        let (start, finish) = s.tags_of(pkt.uid).expect("queued");
                        prop_assert!(start >= v_before, "S below v at assignment");
                        prop_assert!(finish > start, "F must exceed S");
                    }
                    Op::Deq => {
                        if let Some(pkt) = s.dequeue(t0) {
                            let v = s.virtual_time();
                            if let Some(prev) = last_start_in_busy {
                                prop_assert!(v >= prev, "start tags served out of order");
                            }
                            last_start_in_busy = Some(v);
                            let _ = pkt;
                            s.on_departure(t0);
                            if s.is_empty() {
                                last_start_in_busy = None;
                            }
                        }
                    }
                }
                let v_now = s.virtual_time();
                prop_assert!(v_now >= last_v, "virtual time went backwards");
                last_v = v_now;
            }
        }

        /// Flow finish-tag chains are strictly increasing per flow.
        #[test]
        fn per_flow_finish_chain_increases(lens in prop::collection::vec(1u64..2000, 1..50)) {
            let mut s = Sfq::new();
            s.add_flow(FlowId(1), Rate::bps(8_000));
            let mut pf = PacketFactory::new();
            let mut prev = Ratio::ZERO;
            for l in lens {
                let pkt = pf.make(FlowId(1), Bytes::new(l), SimTime::ZERO);
                s.enqueue(SimTime::ZERO, pkt);
                let f = s.flow_last_finish(FlowId(1)).expect("registered");
                prop_assert!(f > prev);
                prev = f;
            }
        }

        /// The head-of-flow restructure is observationally identical to
        /// the seed global-heap implementation: on any random operation
        /// interleaving (and any tie-break rule) both produce the same
        /// dequeue uid sequence. Also checks the two structural gains:
        /// the heap never exceeds the number of backlogged flows, and
        /// each flow's packets leave in FIFO (uid) order.
        #[test]
        fn matches_seed_global_heap_implementation(
            ops in ops(),
            tie_sel in 0u8..3,
        ) {
            let tie = match tie_sel {
                0 => TieBreak::Fifo,
                1 => TieBreak::LowWeightFirst,
                _ => TieBreak::HighWeightFirst,
            };
            let mut fast = Sfq::with_tiebreak(tie);
            let mut oracle = GlobalHeapSfq::new(tie);
            for f in 0..4u32 {
                let w = Rate::bps(1_000 + 777 * f as u64);
                fast.add_flow(FlowId(f), w);
                oracle.add_flow(FlowId(f), w);
            }
            let mut pf = PacketFactory::new();
            let t0 = SimTime::ZERO;
            let mut last_uid_per_flow: HashMap<FlowId, u64> = HashMap::new();
            for op in ops {
                match op {
                    Op::Enq(f, l) => {
                        let pkt = pf.make(FlowId(f as u32), Bytes::new(l), t0);
                        fast.enqueue(t0, pkt);
                        oracle.enqueue(pkt);
                    }
                    Op::Deq => {
                        let a = fast.dequeue(t0);
                        let b = oracle.dequeue();
                        prop_assert_eq!(
                            a.map(|p| p.uid),
                            b.map(|p| p.uid),
                            "dequeue order diverged from seed implementation"
                        );
                        if let Some(p) = a {
                            if let Some(&prev) = last_uid_per_flow.get(&p.flow) {
                                prop_assert!(p.uid > prev, "per-flow FIFO violated");
                            }
                            last_uid_per_flow.insert(p.flow, p.uid);
                            fast.on_departure(t0);
                            oracle.on_departure();
                        }
                    }
                }
                // Head-only invariant: one heap entry per backlogged
                // flow (no force-removals here, so no stale entries).
                let backlogged =
                    (0..4u32).filter(|&f| fast.backlog(FlowId(f)) > 0).count();
                prop_assert_eq!(fast.head_heap_len(), backlogged);
            }
        }
    }
}
