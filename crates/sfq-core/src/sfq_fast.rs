//! Fixed-point fast-path SFQ (see [`crate::fixed`] for the arithmetic).
//!
//! `SfqFast` is the fixed-point, start-tag instantiation of the shared
//! tag-scheduler core ([`crate::tagsched`]): literally `Sfq`'s algorithm,
//! but every tag is a u64 [`FixedTag`](crate::FixedTag) and every
//! per-flow inverse rate a precomputed [`FixedInc`](crate::FixedInc), so
//! the per-packet tag update is one widening multiply, one shift, one
//! max and one add instead of rational gcd arithmetic.
//!
//! # Relation to the exact scheduler
//!
//! - On *quantization-safe* workloads (every `l/r` exactly representable
//!   on the `2^shift` grid — e.g. power-of-two rates `2^k`, `k ≤ shift`)
//!   the dequeue order, every assigned tag, and every observer event are
//!   **bit-identical** to `Sfq` — enforced by the `fast` conformance
//!   preset and `tests/fixed_point_identity.rs`.
//! - On arbitrary workloads tags are truncated by `< 1.5·2^-shift` per
//!   packet (module docs of [`crate::fixed`]), so a flow's tag error
//!   after `N` dequeues is `< 1.5·N·2^-shift` virtual-time units and
//!   the observed fairness watermark inflates by at most that bound —
//!   see docs/fixed_point.md for the derivation, the wraparound rule
//!   (rebasing, threshold clamped to
//!   [`MAX_REBASE_BITS`](crate::MAX_REBASE_BITS)), and when to prefer the
//!   exact scheduler.

use crate::flowq::FifoBackend;
use crate::obs::{NoopObserver, SchedObserver};
use crate::sched::{SchedError, TieBreak};
use crate::tagsched::{Fixed, StartVt, TagSched};

#[cfg(test)]
use crate::{
    fixed::{DEFAULT_SHIFT, MAX_REBASE_BITS, MAX_SHIFT},
    packet::{FlowId, Packet},
    sched::Scheduler,
};
#[cfg(test)]
use simtime::{Rate, Ratio, SimTime};

/// Fixed-point Start-time Fair Queuing: same algorithm and observable
/// contract as [`Sfq`](crate::Sfq), u64 tag arithmetic (see module
/// docs and [`crate::fixed`]).
pub type SfqFast<O = NoopObserver> = TagSched<Fixed, StartVt, O>;

impl SfqFast {
    /// New fixed-point SFQ with FIFO tie-breaking at [`DEFAULT_SHIFT`](crate::DEFAULT_SHIFT).
    pub fn new() -> Self {
        Self::with_tiebreak(TieBreak::Fifo)
    }

    /// New fixed-point SFQ with an explicit tie-break rule at
    /// [`DEFAULT_SHIFT`](crate::DEFAULT_SHIFT).
    pub fn with_tiebreak(tie: TieBreak) -> Self {
        Self::with_observer(tie, NoopObserver)
    }

    /// New fixed-point SFQ on a custom `2^shift` tag grid.
    ///
    /// Rejects `shift == 0` and `shift >` [`MAX_SHIFT`](crate::MAX_SHIFT)
    /// with [`SchedError::TagOverflow`] — the u64 overflow-freedom proof
    /// only covers that range. Small shifts are for experiments: the
    /// pinned adversarial witness in the test suite uses `shift = 4`
    /// to demonstrate the quantization bound has teeth.
    pub fn with_shift(tie: TieBreak, shift: u32) -> Result<Self, SchedError> {
        Self::with_shift_observer(tie, shift, NoopObserver)
    }
}

impl<O: SchedObserver> SfqFast<O> {
    /// New fixed-point SFQ reporting events to `obs` at
    /// [`DEFAULT_SHIFT`](crate::DEFAULT_SHIFT).
    pub fn with_observer(tie: TieBreak, obs: O) -> Self {
        TagSched::from_parts("SFQ-FAST", Fixed::DEFAULT, tie, obs, FifoBackend::default())
    }

    /// New fixed-point SFQ with custom shift and observer; see
    /// [`SfqFast::with_shift`] for the accepted shift range.
    pub fn with_shift_observer(tie: TieBreak, shift: u32, obs: O) -> Result<Self, SchedError> {
        Self::with_parts(tie, shift, obs, FifoBackend::default())
    }

    /// New fixed-point SFQ with every knob explicit, including the
    /// [`FifoBackend`] (the owned backend is the differential oracle;
    /// production callers take the pooled default).
    pub fn with_parts(
        tie: TieBreak,
        shift: u32,
        obs: O,
        backend: FifoBackend,
    ) -> Result<Self, SchedError> {
        Ok(TagSched::from_parts(
            "SFQ-FAST",
            Fixed::new(shift)?,
            tie,
            obs,
            backend,
        ))
    }
}

impl Default for SfqFast {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketFactory;
    use crate::sfq::Sfq;
    use simtime::Bytes;

    fn setup2() -> (SfqFast, PacketFactory) {
        let mut s = SfqFast::new();
        // Power-of-two weight: 1024 bps → tag span of 128B = 1 unit,
        // exactly representable on the grid.
        s.add_flow(FlowId(1), Rate::bps(1 << 10));
        s.add_flow(FlowId(2), Rate::bps(1 << 10));
        (s, PacketFactory::new())
    }

    #[test]
    fn tags_follow_eq4_eq5_on_grid() {
        let (mut s, mut pf) = setup2();
        let t0 = SimTime::ZERO;
        let p1 = pf.make(FlowId(1), Bytes::new(128), t0);
        let p2 = pf.make(FlowId(1), Bytes::new(128), t0);
        s.enqueue(t0, p1);
        s.enqueue(t0, p2);
        assert_eq!(s.tags_of(p1.uid), Some((Ratio::ZERO, Ratio::ONE)));
        assert_eq!(s.tags_of(p2.uid), Some((Ratio::ONE, Ratio::from_int(2))));
    }

    #[test]
    fn serves_in_start_tag_order_across_flows() {
        let (mut s, mut pf) = setup2();
        let t0 = SimTime::ZERO;
        let a = pf.make(FlowId(1), Bytes::new(128), t0);
        let b = pf.make(FlowId(1), Bytes::new(128), t0);
        let c = pf.make(FlowId(2), Bytes::new(128), t0);
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
    fn busy_period_end_sets_v_to_max_finish_served() {
        let (mut s, mut pf) = setup2();
        let t0 = SimTime::ZERO;
        let a = pf.make(FlowId(1), Bytes::new(128), t0);
        s.enqueue(t0, a);
        let _ = s.dequeue(t0).unwrap();
        s.on_departure(SimTime::from_secs(1));
        assert_eq!(s.virtual_time(), Ratio::ONE);
        let b = pf.make(FlowId(2), Bytes::new(128), SimTime::from_secs(5));
        s.enqueue(SimTime::from_secs(5), b);
        assert_eq!(s.tags_of(b.uid).unwrap().0, Ratio::ONE);
    }

    #[test]
    fn shift_bounds_are_enforced() {
        assert!(SfqFast::with_shift(TieBreak::Fifo, 0).is_err());
        assert!(SfqFast::with_shift(TieBreak::Fifo, MAX_SHIFT + 1).is_err());
        assert!(SfqFast::with_shift(TieBreak::Fifo, 4).is_ok());
        assert!(SfqFast::with_shift(TieBreak::Fifo, MAX_SHIFT).is_ok());
    }

    #[test]
    fn rebasing_shifts_tags_without_reordering() {
        let mut plain = SfqFast::new();
        let mut rebased = SfqFast::new();
        rebased.enable_rebasing(0); // rebase at every opportunity
        for s in [&mut plain, &mut rebased] {
            s.add_flow(FlowId(1), Rate::bps(1 << 10));
            s.add_flow(FlowId(2), Rate::bps(1 << 12));
        }
        let mut pf1 = PacketFactory::new();
        let mut pf2 = PacketFactory::new();
        let t0 = SimTime::ZERO;
        // Alternate bursts and drains so busy periods end and v grows.
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
                plain.on_departure(t0);
                rebased.on_departure(t0);
            }
        }
        assert!(rebased.rebases() > 0, "rebasing never fired");
        assert_eq!(plain.rebases(), 0);
        // The rebased scheduler's virtual time stays small.
        assert!(rebased.virtual_time_fixed().magnitude_bits() <= DEFAULT_SHIFT + 1);
    }

    #[test]
    fn rebase_threshold_is_clamped_for_u64_tags() {
        let mut s = SfqFast::new();
        // The engine's production threshold for i128 schedulers: 96
        // bits. A u64 tag can never reach it; the clamp keeps rebasing
        // live at MAX_REBASE_BITS instead.
        s.enable_rebasing(96);
        s.add_flow(FlowId(1), Rate::bps(1 << 10));
        let mut pf = PacketFactory::new();
        let t0 = SimTime::ZERO;
        // Run v(t) past 2^48 raw (2^24 virtual-time units; each 2 MB
        // packet at 2^10 bps spans 2^14 units) while keeping the queue
        // backlogged so the busy period never ends — only the *eager*
        // check, with its clamped threshold, can fire.
        let mut queued = 0u32;
        for _ in 0..1_100 {
            s.enqueue(t0, pf.make(FlowId(1), Bytes::new(2 << 20), t0));
            queued += 1;
            if queued > 1 {
                let _ = s.dequeue(t0).unwrap();
                s.on_departure(t0);
                queued -= 1;
            }
            assert!(!s.is_empty(), "queue must stay backlogged");
        }
        assert!(s.rebases() > 0, "clamped threshold must trigger rebases");
        assert!(s.virtual_time_fixed().magnitude_bits() <= MAX_REBASE_BITS + 1);
    }

    #[test]
    fn matches_exact_sfq_on_power_of_two_weights() {
        // Deterministic smoke version of the proptest identity suite:
        // interleaved enqueues/dequeues across 4 flows with 2^k
        // weights must dequeue bit-identically to the exact scheduler.
        let mut fast = SfqFast::new();
        let mut exact = Sfq::new();
        for (i, k) in [10u32, 12, 14, 17].iter().enumerate() {
            let w = Rate::bps(1 << k);
            fast.add_flow(FlowId(i as u32), w);
            exact.add_flow(FlowId(i as u32), w);
        }
        let mut pf1 = PacketFactory::new();
        let mut pf2 = PacketFactory::new();
        let t0 = SimTime::ZERO;
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for _ in 0..500 {
            let r = next();
            if r % 3 < 2 {
                let f = FlowId((next() % 4) as u32);
                let l = Bytes::new(64 + next() % 1400);
                fast.enqueue(t0, pf1.make(f, l, t0));
                exact.enqueue(t0, pf2.make(f, l, t0));
            } else {
                let a = fast.dequeue(t0);
                let b = exact.dequeue(t0);
                assert_eq!(a.map(|p| p.uid), b.map(|p| p.uid), "order diverged");
                if a.is_some() {
                    fast.on_departure(t0);
                    exact.on_departure(t0);
                }
            }
        }
        // Drain both and keep comparing.
        loop {
            let a = fast.dequeue(t0);
            let b = exact.dequeue(t0);
            assert_eq!(a.map(|p| p.uid), b.map(|p| p.uid));
            if a.is_none() {
                break;
            }
            fast.on_departure(t0);
            exact.on_departure(t0);
        }
    }

    #[test]
    fn batch_api_is_bit_identical_to_singles() {
        let mk = || {
            let mut s = SfqFast::new();
            s.add_flow(FlowId(1), Rate::bps(1 << 10));
            s.add_flow(FlowId(2), Rate::bps(1 << 13));
            s
        };
        let mut single = mk();
        let mut batched = mk();
        let mut pf1 = PacketFactory::new();
        let mut pf2 = PacketFactory::new();
        let t0 = SimTime::ZERO;
        for round in 0..10u64 {
            let pkts1: Vec<Packet> = (0..8)
                .map(|i| {
                    pf1.make(
                        FlowId(1 + ((round + i) % 2) as u32),
                        Bytes::new(100 + 37 * i),
                        t0,
                    )
                })
                .collect();
            let pkts2: Vec<Packet> = (0..8)
                .map(|i| {
                    pf2.make(
                        FlowId(1 + ((round + i) % 2) as u32),
                        Bytes::new(100 + 37 * i),
                        t0,
                    )
                })
                .collect();
            for &p in &pkts1 {
                single.enqueue(t0, p);
            }
            batched.enqueue_batch(t0, &pkts2);
            let mut out_b = Vec::new();
            let n = batched.dequeue_batch(t0, 5, &mut out_b);
            let mut out_s = Vec::new();
            for _ in 0..n {
                let p = single.dequeue(t0).unwrap();
                single.on_departure(t0);
                out_s.push(p);
            }
            assert_eq!(
                out_s.iter().map(|p| p.uid).collect::<Vec<_>>(),
                out_b.iter().map(|p| p.uid).collect::<Vec<_>>()
            );
            assert_eq!(single.virtual_time(), batched.virtual_time());
        }
    }

    #[test]
    fn force_remove_and_drop_head_work() {
        let (mut s, mut pf) = setup2();
        let t0 = SimTime::ZERO;
        let a = pf.make(FlowId(1), Bytes::new(128), t0);
        s.enqueue(t0, a);
        s.enqueue(t0, pf.make(FlowId(1), Bytes::new(128), t0));
        let b = pf.make(FlowId(2), Bytes::new(128), t0);
        s.enqueue(t0, b);
        let dropped = s.drop_head(FlowId(1)).unwrap();
        assert_eq!(dropped.uid, a.uid);
        assert_eq!(Scheduler::force_remove_flow(&mut s, FlowId(1)), 1);
        assert_eq!(s.len(), 1);
        assert_eq!(s.dequeue(t0).unwrap().uid, b.uid);
        s.on_departure(t0);
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "unregistered flow")]
    fn unregistered_flow_panics() {
        let mut s = SfqFast::new();
        let mut pf = PacketFactory::new();
        let p = pf.make(FlowId(9), Bytes::new(10), SimTime::ZERO);
        s.enqueue(SimTime::ZERO, p);
    }
}
