//! Virtual-time rebasing (see `docs/robustness.md`).
//!
//! SFQ/SCFQ tags grow monotonically with the server's lifetime: after
//! enough work the exact `i128` rationals hit their range edge and tag
//! arithmetic fails. Rebasing subtracts the *integer part* of the
//! current virtual time from every live tag at busy-period boundaries
//! (and eagerly past a magnitude threshold). Because Eqs. 4/5 are built
//! from `max`, `+`, comparisons, and the pico-grid snap — all of which
//! commute exactly with an integer shift — rebasing must be
//! *observationally invisible*: identical dequeue order and identical
//! observer-visible normalized-service metrics, bit for bit.
//!
//! Two angles:
//!  - a proptest forcing a rebase attempt on every enqueue
//!    (`threshold_bits = 0`) against an un-rebased twin,
//!  - a deterministic overflow witness: a flow mix that drives the
//!    un-rebased seed scheduler into `TagOverflow` while the rebased
//!    scheduler survives the identical input.

use proptest::prelude::*;
use sfq_core::{TagArith, TagSched, VtRule};
use sfq_repro::prelude::*;

/// Drive `sched` exactly like the single-server harness does for one
/// operation: dequeue (completing any in-flight service first).
fn serve_step<S: Scheduler>(sched: &mut S, in_service: &mut bool) -> Option<u64> {
    if *in_service {
        sched.on_departure(SimTime::ZERO);
        *in_service = false;
    }
    let p = sched.dequeue(SimTime::ZERO)?;
    *in_service = true;
    Some(p.uid)
}

fn drain<S: Scheduler>(sched: &mut S, in_service: &mut bool) -> Vec<u64> {
    let mut uids = Vec::new();
    while let Some(uid) = serve_step(sched, in_service) {
        uids.push(uid);
    }
    sched.on_departure(SimTime::ZERO);
    *in_service = false;
    uids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Forced rebasing (threshold 0: a rebase attempt on every enqueue,
    /// plus the always-on busy-period rebase) is bit-invisible: same
    /// dequeue uid sequence, same exact per-flow normalized service,
    /// same Theorem 1 pairwise spread watermarks.
    #[test]
    fn forced_rebase_is_observationally_invisible(
        ops in prop::collection::vec((0u8..5, 0u32..3, 64u64..1500), 1..120),
    ) {
        let mut plain = Sfq::with_observer(TieBreak::Fifo, FlowMetrics::new());
        let mut rebased = Sfq::with_observer(TieBreak::Fifo, FlowMetrics::new());
        rebased.enable_rebasing(0);
        for f in 0..3u32 {
            let w = Rate::bps(1_000 + 613 * f as u64);
            plain.add_flow(FlowId(f + 1), w);
            rebased.add_flow(FlowId(f + 1), w);
        }
        let mut pf_a = PacketFactory::new();
        let mut pf_b = PacketFactory::new();
        let t0 = SimTime::ZERO;
        let (mut busy_a, mut busy_b) = (false, false);

        // Prologue: complete one busy period so v(t) has a positive
        // integer part — guarantees at least one real rebase below.
        for (s, pf, busy) in [
            (&mut plain, &mut pf_a, &mut busy_a),
            (&mut rebased, &mut pf_b, &mut busy_b),
        ] {
            s.enqueue(t0, pf.make(FlowId(1), Bytes::new(250), t0));
            let _ = serve_step(s, busy);
            s.on_departure(t0);
            *busy = false;
        }

        for (kind, f, len) in ops {
            match kind {
                0..=2 => {
                    let flow = FlowId(f + 1);
                    let pa = pf_a.make(flow, Bytes::new(len), t0);
                    let pb = pf_b.make(flow, Bytes::new(len), t0);
                    prop_assert_eq!(pa.uid, pb.uid);
                    plain.enqueue(t0, pa);
                    rebased.enqueue(t0, pb);
                }
                _ => {
                    let a = serve_step(&mut plain, &mut busy_a);
                    let b = serve_step(&mut rebased, &mut busy_b);
                    prop_assert_eq!(a, b, "dequeue order diverged under rebasing");
                }
            }
            prop_assert_eq!(plain.len(), rebased.len());
        }
        let tail_a = drain(&mut plain, &mut busy_a);
        let tail_b = drain(&mut rebased, &mut busy_b);
        prop_assert_eq!(tail_a, tail_b, "drain order diverged under rebasing");
        prop_assert!(rebased.rebases() > 0, "forced rebasing never fired");
        prop_assert_eq!(plain.rebases(), 0);

        // Observer-visible metrics are bit-identical.
        let ma = plain.into_observer();
        let mb = rebased.into_observer();
        for f in 1..=3u32 {
            prop_assert_eq!(
                ma.normalized_service(FlowId(f)),
                mb.normalized_service(FlowId(f)),
                "normalized service diverged for flow {}", f
            );
        }
        for a in 1..=3u32 {
            for b in (a + 1)..=3u32 {
                prop_assert_eq!(
                    ma.worst_spread_between(FlowId(a), FlowId(b)),
                    mb.worst_spread_between(FlowId(a), FlowId(b)),
                    "Theorem 1 spread watermark diverged for pair ({}, {})", a, b
                );
            }
        }
    }

    /// SCFQ's rebasing is the same construction (finish-tag key instead
    /// of start-tag): forced rebasing must not change its dequeue order.
    #[test]
    fn scfq_forced_rebase_preserves_order(
        ops in prop::collection::vec((0u8..5, 0u32..3, 64u64..1500), 1..120),
    ) {
        let mut plain = Scfq::new();
        let mut rebased = Scfq::new();
        rebased.enable_rebasing(0);
        for f in 0..3u32 {
            let w = Rate::bps(1_000 + 613 * f as u64);
            plain.add_flow(FlowId(f + 1), w);
            rebased.add_flow(FlowId(f + 1), w);
        }
        let mut pf_a = PacketFactory::new();
        let mut pf_b = PacketFactory::new();
        let t0 = SimTime::ZERO;
        let (mut busy_a, mut busy_b) = (false, false);
        for (kind, f, len) in ops {
            match kind {
                0..=2 => {
                    let flow = FlowId(f + 1);
                    plain.enqueue(t0, pf_a.make(flow, Bytes::new(len), t0));
                    rebased.enqueue(t0, pf_b.make(flow, Bytes::new(len), t0));
                }
                _ => {
                    let a = serve_step(&mut plain, &mut busy_a);
                    let b = serve_step(&mut rebased, &mut busy_b);
                    prop_assert_eq!(a, b, "SCFQ dequeue order diverged under rebasing");
                }
            }
        }
        let tail_a = drain(&mut plain, &mut busy_a);
        let tail_b = drain(&mut rebased, &mut busy_b);
        prop_assert_eq!(tail_a, tail_b);
    }
}

/// The deterministic overflow witness. Three flows conspire against the
/// exact arithmetic:
///
///  1. a 1 b/s "driver" flow sends one 3 GB packet, pumping the
///     post-busy-period virtual time to the integer `V0 = 2.4e10`;
///  2. a flow weighted at the largest prime below `10^12` contributes a
///     coprime fractional part, so `v(t)` becomes `V0 + 1000/W2` — a
///     rational with a ~`10^12` denominator that the pico-grid snap
///     leaves untouched and a ~`2.4e22` numerator;
///  3. a flow weighted at the largest prime below `2^63` then arrives:
///     its Eq. 5 finish tag needs numerator ~`2.4e22 * 9.2e18 ≈ 2e41`,
///     which no `i128` holds.
///
/// The un-rebased seed scheduler fails exactly there — `try_enqueue`
/// reports [`SchedError::TagOverflow`] with state untouched, and the
/// panicking wrapper dies with the same message. The rebased scheduler
/// subtracts `V0` at the driver's busy-period boundary, so the same
/// arrival sequence stays ~40 bits below the edge and completes with
/// the identical service order.
#[test]
fn overflow_witness_unrebased_fails_rebased_survives() {
    const W2: u64 = 999_999_999_989; // largest prime < 10^12
    const W3: u64 = 9_223_372_036_854_775_783; // largest prime < 2^63
    let t0 = SimTime::ZERO;

    let build = |rebase: bool| {
        let mut s = Sfq::new();
        if rebase {
            s.enable_rebasing(0);
        }
        s.add_flow(FlowId(1), Rate::bps(1));
        s.add_flow(FlowId(2), Rate::bps(W2));
        s.add_flow(FlowId(3), Rate::bps(W3));
        s
    };
    let run_prefix = |s: &mut Sfq, pf: &mut PacketFactory| -> Vec<u64> {
        let mut served = Vec::new();
        // Driver: one 3 GB packet at 1 b/s => F = 8 * 3e9 = 2.4e10.
        s.enqueue(t0, pf.make(FlowId(1), Bytes::new(3_000_000_000), t0));
        served.push(s.dequeue(t0).unwrap().uid);
        s.on_departure(t0); // busy period ends: v = 2.4e10 (rebased: 0)
                            // Prime-weight flow: adds the coprime fractional part 1000/W2.
        s.enqueue(t0, pf.make(FlowId(2), Bytes::new(125), t0));
        served.push(s.dequeue(t0).unwrap().uid);
        s.on_departure(t0);
        served
    };

    // Un-rebased: the third flow's arrival overflows, fallibly...
    let mut plain = build(false);
    let mut pf = PacketFactory::new();
    let prefix_plain = run_prefix(&mut plain, &mut pf);
    let victim = pf.make(FlowId(3), Bytes::new(125), t0);
    assert_eq!(
        plain.try_enqueue(t0, victim),
        Err(SchedError::TagOverflow),
        "un-rebased scheduler must hit the i128 edge"
    );
    // ...with scheduler state untouched by the refused arrival.
    assert!(plain.is_empty());
    assert_eq!(plain.backlog(FlowId(3)), 0);
    assert_eq!(plain.flow_last_finish(FlowId(3)), Some(Ratio::ZERO));
    assert_eq!(plain.rebases(), 0);

    // ...and the panicking wrapper reports the same failure.
    let mut panicking = build(false);
    let mut pf2 = PacketFactory::new();
    let _ = run_prefix(&mut panicking, &mut pf2);
    let victim2 = pf2.make(FlowId(3), Bytes::new(125), t0);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        panicking.enqueue(t0, victim2);
    }))
    .expect_err("panicking enqueue must die at the overflow edge");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("tag arithmetic overflow"),
        "unexpected panic message: {msg}"
    );

    // Rebased: the identical arrival sequence survives, with the same
    // service order on the shared prefix.
    let mut rebased = build(true);
    let mut pf3 = PacketFactory::new();
    let prefix_rebased = run_prefix(&mut rebased, &mut pf3);
    assert_eq!(prefix_plain, prefix_rebased, "prefix order diverged");
    let survivor = pf3.make(FlowId(3), Bytes::new(125), t0);
    assert_eq!(rebased.try_enqueue(t0, survivor), Ok(()));
    assert_eq!(rebased.dequeue(t0).map(|p| p.uid), Some(survivor.uid));
    rebased.on_departure(t0);
    assert!(rebased.is_empty());
    assert!(rebased.rebases() > 0, "the driver rebase never fired");
    // Rebasing keeps the live tag state tiny: the whole 2.4e10 virtual
    // span collapsed to the sub-unit fractional residue.
    assert!(rebased.virtual_time() < Ratio::ONE);
}

/// Forced rebasing against an un-rebased twin, for any tag scheduler:
/// same dequeue uid sequence, and the prologue's busy period (one
/// 250-byte packet at 1000 b/s, two virtual-time units) guarantees the
/// rebased twin really rebases.
fn forced_rebase_keeps_order<A: TagArith, D: VtRule<A>>(
    mk: impl Fn() -> TagSched<A, D>,
    ops: &[(u8, u32, u64)],
) -> Result<(), TestCaseError> {
    let mut plain = mk();
    let mut rebased = mk();
    rebased.enable_rebasing(0);
    for f in 0..3u32 {
        let w = Rate::bps(1_000 + 613 * f as u64);
        plain.add_flow(FlowId(f + 1), w);
        rebased.add_flow(FlowId(f + 1), w);
    }
    let mut pf_a = PacketFactory::new();
    let mut pf_b = PacketFactory::new();
    let t0 = SimTime::ZERO;
    let (mut busy_a, mut busy_b) = (false, false);
    for (s, pf, busy) in [
        (&mut plain, &mut pf_a, &mut busy_a),
        (&mut rebased, &mut pf_b, &mut busy_b),
    ] {
        s.enqueue(t0, pf.make(FlowId(1), Bytes::new(250), t0));
        let _ = serve_step(s, busy);
        s.on_departure(t0);
        *busy = false;
    }
    for &(kind, f, len) in ops {
        match kind {
            0..=2 => {
                let flow = FlowId(f + 1);
                plain.enqueue(t0, pf_a.make(flow, Bytes::new(len), t0));
                rebased.enqueue(t0, pf_b.make(flow, Bytes::new(len), t0));
            }
            _ => {
                let a = serve_step(&mut plain, &mut busy_a);
                let b = serve_step(&mut rebased, &mut busy_b);
                prop_assert_eq!(
                    a,
                    b,
                    "{} dequeue order diverged under rebasing",
                    plain.name()
                );
            }
        }
    }
    let tail_a = drain(&mut plain, &mut busy_a);
    let tail_b = drain(&mut rebased, &mut busy_b);
    prop_assert_eq!(
        tail_a,
        tail_b,
        "{} drain order diverged under rebasing",
        plain.name()
    );
    prop_assert!(rebased.rebases() > 0, "forced rebasing never fired");
    prop_assert_eq!(plain.rebases(), 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fixed-point schedulers rebase with a saturating subtraction
    /// instead of the exact all-or-nothing pass — and, as engine shards,
    /// at every busy-period end — so forced rebasing must not reorder
    /// their dequeues either.
    #[test]
    fn fixed_point_forced_rebase_preserves_order(
        ops in prop::collection::vec((0u8..5, 0u32..3, 64u64..1500), 1..120),
    ) {
        forced_rebase_keeps_order(SfqFast::new, &ops)?;
        forced_rebase_keeps_order(ScfqFast::new, &ops)?;
    }
}

/// `Scheduler::try_enqueue`'s contract: a refused enqueue leaves the
/// scheduler untouched — including when the eager rebase check would
/// fire for that arrival. Each scheduler runs to `v(t) = 8` with its
/// queue still backlogged, turns on forced rebasing, and is then
/// offered a packet of an unregistered flow through every enqueue
/// entry point: the virtual time and rebase count must not move.
#[test]
fn refused_enqueue_does_not_rebase() {
    macro_rules! check {
        ($sched:expr) => {{
            let mut s = $sched;
            // 2^10 b/s: a 128-byte packet spans exactly one unit, on
            // the fixed-point grid too.
            s.add_flow(FlowId(1), Rate::bps(1 << 10));
            let mut pf = PacketFactory::new();
            let t0 = SimTime::ZERO;
            for _ in 0..12 {
                s.enqueue(t0, pf.make(FlowId(1), Bytes::new(128), t0));
            }
            while s.virtual_time() < Ratio::from_int(8) {
                s.dequeue(t0).expect("backlogged");
                s.on_departure(t0);
            }
            s.enable_rebasing(0);
            let (v, len) = (s.virtual_time(), s.len());
            let stray = pf.make(FlowId(9), Bytes::new(128), t0);
            assert_eq!(
                s.try_enqueue(t0, stray),
                Err(SchedError::UnknownFlow(FlowId(9))),
                "{}",
                s.name()
            );
            assert_eq!(
                s.try_enqueue_batch(t0, &[stray]),
                Err(SchedError::UnknownFlow(FlowId(9))),
                "{}",
                s.name()
            );
            assert_eq!(s.virtual_time(), v, "{}: refusal moved v(t)", s.name());
            assert_eq!(s.rebases(), 0, "{}: refusal rebased", s.name());
            assert_eq!(s.len(), len, "{}", s.name());
            s
        }};
    }
    let mut sfq = check!(Sfq::new());
    check!(SfqFast::new());
    check!(Scfq::new());
    check!(ScfqFast::new());
    // Eq. 36's per-packet-rate entry point shares the contract.
    let stray = PacketFactory::new().make(FlowId(9), Bytes::new(128), SimTime::ZERO);
    let v = sfq.virtual_time();
    assert_eq!(
        sfq.try_enqueue_with_rate(SimTime::ZERO, stray, Rate::bps(1 << 10)),
        Err(SchedError::UnknownFlow(FlowId(9)))
    );
    assert_eq!(sfq.virtual_time(), v);
    assert_eq!(sfq.rebases(), 0);
}
