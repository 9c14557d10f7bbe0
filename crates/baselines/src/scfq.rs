//! Self-Clocked Fair Queuing (Golestani '94; analyzed in [8] of the
//! paper).
//!
//! SCFQ approximates the GPS virtual time with the *finish* tag of the
//! packet currently in service, making `v(t)` O(1) to compute. Packets
//! are tagged with Eqs. 4–5 (same recurrence as SFQ) but served in
//! increasing **finish**-tag order. Its fairness measure equals SFQ's
//! (`l_f^max/r_f + l_m^max/r_m`), but its maximum delay exceeds SFQ's by
//! `l_f^j/r_f^j − l_f^j/C` (Eqs. 56–57) — the gap the paper quantifies
//! as 24.4 ms for a 64 Kb/s flow with 200-byte packets on a 100 Mb/s
//! link.
//!
//! The scheduler itself is the exact-arithmetic, finish-tag
//! instantiation of `sfq-core`'s tag-scheduler core (one implementation
//! shared with `Sfq`, `SfqFast` and `ScfqFast`), re-exported here with
//! the other comparators.

pub use sfq_core::Scfq;

#[cfg(test)]
use sfq_core::{FlowId, Scheduler};
#[cfg(test)]
use simtime::{Rate, Ratio, SimTime};

#[cfg(test)]
mod tests {
    use super::*;
    use sfq_core::PacketFactory;
    use simtime::Bytes;

    #[test]
    fn serves_by_finish_tag() {
        let mut s = Scfq::new();
        s.add_flow(FlowId(1), Rate::bps(1_000));
        s.add_flow(FlowId(2), Rate::bps(2_000));
        let mut pf = PacketFactory::new();
        let t0 = SimTime::ZERO;
        let a = pf.make(FlowId(1), Bytes::new(125), t0); // F = 1
        let b = pf.make(FlowId(2), Bytes::new(125), t0); // F = 1/2
        s.enqueue(t0, a);
        s.enqueue(t0, b);
        assert_eq!(s.dequeue(t0).unwrap().uid, b.uid);
        assert_eq!(s.dequeue(t0).unwrap().uid, a.uid);
    }

    #[test]
    fn virtual_time_is_finish_tag_of_served_packet() {
        let mut s = Scfq::new();
        s.add_flow(FlowId(1), Rate::bps(1_000));
        let mut pf = PacketFactory::new();
        let t0 = SimTime::ZERO;
        let a = pf.make(FlowId(1), Bytes::new(125), t0);
        s.enqueue(t0, a);
        assert_eq!(s.virtual_time(), Ratio::ZERO);
        let _ = s.dequeue(t0);
        assert_eq!(s.virtual_time(), Ratio::ONE);
        // New arrival sees v = 1: S = max(1, F_prev=1) = 1.
        let b = pf.make(FlowId(1), Bytes::new(125), t0);
        s.enqueue(t0, b);
        assert_eq!(s.tags_of(b.uid).unwrap().0, Ratio::ONE);
    }

    #[test]
    fn scfq_delays_own_flow_behind_others_finish_tags() {
        // The SCFQ pathology: a newly arrived packet of a slow flow has
        // a large finish tag and waits behind every queued packet with a
        // smaller one, even ones that arrived later.
        let mut s = Scfq::new();
        s.add_flow(FlowId(1), Rate::bps(100)); // slow flow: span 10
        s.add_flow(FlowId(2), Rate::bps(1_000)); // fast flow: span 1
        let mut pf = PacketFactory::new();
        let t0 = SimTime::ZERO;
        let slow = pf.make(FlowId(1), Bytes::new(125), t0); // F = 10
        s.enqueue(t0, slow);
        let mut fast = Vec::new();
        for _ in 0..5 {
            let p = pf.make(FlowId(2), Bytes::new(125), t0); // F = 1..5
            s.enqueue(t0, p);
            fast.push(p.uid);
        }
        let order: Vec<u64> = std::iter::from_fn(|| s.dequeue(t0).map(|p| p.uid)).collect();
        assert_eq!(order[..5], fast[..]);
        assert_eq!(order[5], slow.uid);
    }

    #[test]
    fn empty_and_counts() {
        let mut s = Scfq::new();
        s.add_flow(FlowId(1), Rate::bps(1_000));
        assert!(s.dequeue(SimTime::ZERO).is_none());
        let mut pf = PacketFactory::new();
        s.enqueue(
            SimTime::ZERO,
            pf.make(FlowId(1), Bytes::new(10), SimTime::ZERO),
        );
        assert_eq!((s.len(), s.backlog(FlowId(1))), (1, 1));
        let _ = s.dequeue(SimTime::ZERO);
        assert!(s.is_empty());
    }

    #[test]
    fn force_remove_discards_backlog() {
        let mut s = Scfq::new();
        s.add_flow(FlowId(1), Rate::bps(1_000));
        s.add_flow(FlowId(2), Rate::bps(1_000));
        let mut pf = PacketFactory::new();
        let t0 = SimTime::ZERO;
        s.enqueue(t0, pf.make(FlowId(1), Bytes::new(125), t0));
        s.enqueue(t0, pf.make(FlowId(1), Bytes::new(125), t0));
        let b = pf.make(FlowId(2), Bytes::new(125), t0);
        s.enqueue(t0, b);
        assert_eq!(s.force_remove_flow(FlowId(1)), 2);
        assert_eq!(s.len(), 1);
        // The stale heap entry is skipped; flow 2 drains cleanly.
        assert_eq!(s.dequeue(t0).unwrap().uid, b.uid);
        assert!(s.is_empty());
        assert_eq!(s.force_remove_flow(FlowId(9)), 0);
    }
}
