//! Fixed-point fast-path SCFQ (see [`crate::fixed`] for the
//! arithmetic).
//!
//! `ScfqFast` runs the Self-Clocked Fair Queuing algorithm of
//! [`Scfq`](crate::Scfq) — the Eq. 4/5 tag recurrence served in
//! increasing **finish**-tag order, with `v(t)` = the finish tag of the
//! packet in service — over u64 [`FixedTag`](crate::FixedTag)s and
//! precomputed [`FixedInc`](crate::FixedInc) inverse rates: the
//! fixed-point, finish-tag instantiation of the shared tag-scheduler
//! core ([`crate::tagsched`]). The differential suite proves it
//! bit-identical to the exact `Scfq` on quantization-safe workloads,
//! just as `SfqFast` is to `Sfq`. Wraparound safety and the
//! quantization error bound are the same as [`crate::sfq_fast`]'s — see
//! docs/fixed_point.md.

use crate::flowq::FifoBackend;
use crate::obs::{NoopObserver, SchedObserver};
use crate::sched::{SchedError, TieBreak};
use crate::tagsched::{FinishVt, Fixed, TagSched};

#[cfg(test)]
use crate::{
    fixed::{DEFAULT_SHIFT, MAX_SHIFT},
    packet::FlowId,
    sched::Scheduler,
};
#[cfg(test)]
use simtime::{Rate, Ratio, SimTime};

/// Fixed-point Self-Clocked Fair Queuing: same algorithm and observable
/// contract as [`Scfq`](crate::Scfq), u64 tag arithmetic.
pub type ScfqFast<O = NoopObserver> = TagSched<Fixed, FinishVt, O>;

impl ScfqFast {
    /// New fixed-point SCFQ at [`DEFAULT_SHIFT`](crate::DEFAULT_SHIFT).
    pub fn new() -> Self {
        Self::with_observer(NoopObserver)
    }

    /// New fixed-point SCFQ on a custom `2^shift` tag grid; rejects
    /// `shift == 0` and `shift >` [`MAX_SHIFT`](crate::MAX_SHIFT) with
    /// [`SchedError::TagOverflow`].
    pub fn with_shift(shift: u32) -> Result<Self, SchedError> {
        Self::with_shift_observer(shift, NoopObserver)
    }
}

impl<O: SchedObserver> ScfqFast<O> {
    /// New fixed-point SCFQ reporting events to `obs` at
    /// [`DEFAULT_SHIFT`](crate::DEFAULT_SHIFT).
    pub fn with_observer(obs: O) -> Self {
        Self::from_fixed(Fixed::DEFAULT, obs, FifoBackend::default())
    }

    /// New fixed-point SCFQ with custom shift and observer.
    pub fn with_shift_observer(shift: u32, obs: O) -> Result<Self, SchedError> {
        Self::with_parts(shift, obs, FifoBackend::default())
    }

    /// New fixed-point SCFQ with every knob explicit, including the
    /// [`FifoBackend`] (owned = differential oracle).
    pub fn with_parts(shift: u32, obs: O, backend: FifoBackend) -> Result<Self, SchedError> {
        Ok(Self::from_fixed(Fixed::new(shift)?, obs, backend))
    }

    fn from_fixed(arith: Fixed, obs: O, backend: FifoBackend) -> Self {
        // SCFQ's heap key has no tie-break field, so the rule is unused.
        TagSched::from_parts("SCFQ-FAST", arith, TieBreak::Fifo, obs, backend)
    }
}

impl Default for ScfqFast {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketFactory;
    use simtime::Bytes;

    #[test]
    fn serves_by_finish_tag() {
        let mut s = ScfqFast::new();
        s.add_flow(FlowId(1), Rate::bps(1 << 10));
        s.add_flow(FlowId(2), Rate::bps(1 << 11));
        let mut pf = PacketFactory::new();
        let t0 = SimTime::ZERO;
        let a = pf.make(FlowId(1), Bytes::new(128), t0); // F = 1
        let b = pf.make(FlowId(2), Bytes::new(128), t0); // F = 1/2
        s.enqueue(t0, a);
        s.enqueue(t0, b);
        assert_eq!(s.dequeue(t0).unwrap().uid, b.uid);
        assert_eq!(s.dequeue(t0).unwrap().uid, a.uid);
    }

    #[test]
    fn virtual_time_is_finish_tag_of_served_packet() {
        let mut s = ScfqFast::new();
        s.add_flow(FlowId(1), Rate::bps(1 << 10));
        let mut pf = PacketFactory::new();
        let t0 = SimTime::ZERO;
        let a = pf.make(FlowId(1), Bytes::new(128), t0);
        s.enqueue(t0, a);
        assert_eq!(s.virtual_time(), Ratio::ZERO);
        let _ = s.dequeue(t0);
        assert_eq!(s.virtual_time(), Ratio::ONE);
        let b = pf.make(FlowId(1), Bytes::new(128), t0);
        s.enqueue(t0, b);
        assert_eq!(s.tags_of(b.uid).unwrap().0, Ratio::ONE);
    }

    #[test]
    fn matches_exact_scfq_semantics_on_grid() {
        // SCFQ pathology reproduced on the fixed grid: a slow flow's
        // packet waits behind later-arriving fast-flow packets with
        // smaller finish tags.
        let mut s = ScfqFast::new();
        s.add_flow(FlowId(1), Rate::bps(1 << 7)); // slow: span 8
        s.add_flow(FlowId(2), Rate::bps(1 << 10)); // fast: span 1
        let mut pf = PacketFactory::new();
        let t0 = SimTime::ZERO;
        let slow = pf.make(FlowId(1), Bytes::new(128), t0); // F = 8
        s.enqueue(t0, slow);
        let mut fast = Vec::new();
        for _ in 0..5 {
            let p = pf.make(FlowId(2), Bytes::new(128), t0); // F = 1..5
            s.enqueue(t0, p);
            fast.push(p.uid);
        }
        let order: Vec<u64> = std::iter::from_fn(|| s.dequeue(t0).map(|p| p.uid)).collect();
        assert_eq!(order[..5], fast[..]);
        assert_eq!(order[5], slow.uid);
    }

    #[test]
    fn rebasing_keeps_order_and_magnitude() {
        let mut plain = ScfqFast::new();
        let mut rebased = ScfqFast::new();
        rebased.enable_rebasing(0);
        for s in [&mut plain, &mut rebased] {
            s.add_flow(FlowId(1), Rate::bps(1 << 10));
            s.add_flow(FlowId(2), Rate::bps(1 << 12));
        }
        let mut pf1 = PacketFactory::new();
        let mut pf2 = PacketFactory::new();
        let t0 = SimTime::ZERO;
        for round in 0..20 {
            for _ in 0..3 {
                let l = Bytes::new(128 + 32 * round);
                let f = FlowId(1 + (round % 2) as u32);
                plain.enqueue(t0, pf1.make(f, l, t0));
                rebased.enqueue(t0, pf2.make(f, l, t0));
            }
            loop {
                let a = plain.dequeue(t0);
                let b = rebased.dequeue(t0);
                assert_eq!(a.map(|p| p.uid), b.map(|p| p.uid), "order diverged");
                if a.is_none() {
                    break;
                }
            }
        }
        assert!(rebased.rebases() > 0);
        assert!(rebased.virtual_time_fixed().magnitude_bits() <= DEFAULT_SHIFT + 1);
    }

    #[test]
    fn shift_bounds_are_enforced() {
        assert!(ScfqFast::with_shift(0).is_err());
        assert!(ScfqFast::with_shift(MAX_SHIFT + 1).is_err());
        assert!(ScfqFast::with_shift(4).is_ok());
    }

    #[test]
    fn force_remove_discards_backlog() {
        let mut s = ScfqFast::new();
        s.add_flow(FlowId(1), Rate::bps(1 << 10));
        s.add_flow(FlowId(2), Rate::bps(1 << 10));
        let mut pf = PacketFactory::new();
        let t0 = SimTime::ZERO;
        s.enqueue(t0, pf.make(FlowId(1), Bytes::new(128), t0));
        s.enqueue(t0, pf.make(FlowId(1), Bytes::new(128), t0));
        let b = pf.make(FlowId(2), Bytes::new(128), t0);
        s.enqueue(t0, b);
        assert_eq!(s.force_remove_flow(FlowId(1)), 2);
        assert_eq!(s.dequeue(t0).unwrap().uid, b.uid);
        assert!(s.is_empty());
    }
}
