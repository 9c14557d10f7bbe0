//! The one tag-scheduler core behind [`Sfq`](crate::Sfq),
//! [`SfqFast`](crate::SfqFast), [`Scfq`](crate::Scfq) and
//! [`ScfqFast`](crate::ScfqFast).
//!
//! SFQ and SCFQ stamp packets with the same Eq. 4/5 recurrence and
//! differ only in which tag orders service and drives `v(t)`: the start
//! tag for SFQ, the finish tag for SCFQ (the source of its extra
//! `l/r − l/C` delay, §2.3). Orthogonally, a tag is an exact `i128`
//! rational (the proof substrate) or a u64 fixed-point value (the data
//! path, see [`crate::fixed`]). [`TagSched`] is written once over
//! [`FlowFifos`] with one type parameter per axis:
//!
//! - [`TagArith`] — [`Exact`] or [`Fixed`] — owns what differs by
//!   arithmetic: the Eq. 5 span, the snap of `v(t)` at its read point
//!   (exact only), the lazy-GC horizon (`⌊v⌋` exact, `v` fixed), the
//!   rebase (exact: checked all-or-nothing; fixed: saturating, threshold
//!   clamped to [`MAX_REBASE_BITS`]), and the tie-break key width.
//! - [`VtRule`] — [`StartVt`] or [`FinishVt`] — owns which tag keys the
//!   heap (the other rides along as per-packet metadata) and becomes
//!   `v(t)` in service, where the busy period ends, and whether the key
//!   has a tie-break field.
//!
//! Everything else — tagging, single and batch enqueue/dequeue,
//! rebasing, lazy flow GC, the tag-rewrite rule of
//! [`Scheduler::try_set_weight`], force-removal,
//! head drops, telemetry and observer events — exists only here.

use crate::fixed::{FixedInc, FixedTag, DEFAULT_SHIFT, MAX_REBASE_BITS, MAX_SHIFT};
use crate::flowq::{FifoBackend, FlowFifos, GC_BUDGET};
use crate::obs::{FlowChange, NoopObserver, SchedEvent, SchedObserver};
use crate::packet::{FlowId, Packet};
use crate::pool::PoolStats;
use crate::sched::{SchedError, Scheduler, TieBreak};
use sfq_telemetry::TelemetrySink;
use simtime::{Bytes, Rate, Ratio, SimTime};
use std::cell::Cell;
use std::fmt::Debug;

/// Tag arithmetic of a [`TagSched`]: the tag type and every operation
/// whose semantics differ between exact and fixed-point tags.
pub trait TagArith: Copy + Debug {
    /// A start/finish tag (and the virtual time `v(t)`).
    type Tag: Copy + Ord + Debug;
    /// Per-flow charging state precomputed at registration.
    type Inc: Copy + Debug;
    /// The SFQ tie-break key (after the primary tag, before the uid).
    type Tie: Copy + Ord + Debug;
    /// SFQ's tie-break key as cached per flow; `()` when the key is
    /// derived per packet instead.
    type TieCache: Copy + Debug;
    /// The zero tag.
    const ZERO: Self::Tag;
    /// Whether a rebase must first verify every shifted tag fits
    /// (all-or-nothing dry pass) rather than saturate.
    const CHECKED_REBASE: bool;

    /// The per-flow charging state for `weight`.
    fn inc(self, flow: FlowId, weight: Rate) -> Result<Self::Inc, SchedError>;
    /// Eq. 5: `start + len / rate`, `None` when it leaves the tag range.
    /// Exact arithmetic charges `rate`; fixed point charges the
    /// precomputed `inc` of the flow's registered weight.
    fn finish(self, start: Self::Tag, rate: Rate, inc: Self::Inc, len: Bytes) -> Option<Self::Tag>;
    /// The virtual time as Eq. 4 reads it at an arrival.
    fn read_v(v: Self::Tag) -> Self::Tag;
    /// Drained flows whose last finish tag is at or below this horizon
    /// can be reclaimed without changing any future tag.
    fn gc_horizon(self, v: Self::Tag) -> Self::Tag;
    /// Whether `v` has outgrown the eager rebase threshold.
    fn rebase_due(v: Self::Tag, threshold_bits: u32) -> bool;
    /// The whole-unit baseline a rebase subtracts, `None` below one unit.
    fn rebase_base(self, v: Self::Tag) -> Option<Self::Tag>;
    /// `tag - base`, `None` when it does not fit.
    fn sub(tag: Self::Tag, base: Self::Tag) -> Option<Self::Tag>;
    /// The tag as an exact rational (observer events, diagnostics).
    fn to_ratio(self, tag: Self::Tag) -> Ratio;
    /// The tie key to cache for a flow of `weight`.
    fn tie_cache(rule: TieBreak, weight: Rate) -> Self::TieCache;
    /// The tie key of a packet charged at `rate` on a flow whose cached
    /// key is `cache`.
    fn tie(rule: TieBreak, rate: Rate, cache: Self::TieCache) -> Self::Tie;
}

/// Exact `i128` rational tags: the proof substrate of the theorem
/// suites.
#[derive(Clone, Copy, Debug)]
pub struct Exact;

impl TagArith for Exact {
    type Tag = Ratio;
    type Inc = ();
    type Tie = i128;
    type TieCache = ();
    const ZERO: Ratio = Ratio::ZERO;
    const CHECKED_REBASE: bool = true;

    fn inc(self, _flow: FlowId, _weight: Rate) -> Result<(), SchedError> {
        Ok(())
    }

    #[inline]
    fn finish(self, start: Ratio, rate: Rate, _inc: (), len: Bytes) -> Option<Ratio> {
        start.checked_add(rate.tag_span(len))
    }

    #[inline]
    fn read_v(v: Ratio) -> Ratio {
        // Bounds tag denominators under adversarial weight mixes (a
        // no-op at the scales the exact theorem tests run at; see
        // Ratio::snap_pico).
        v.snap_pico()
    }

    fn gc_horizon(self, v: Ratio) -> Ratio {
        // Floored because enqueues snap v(t) to the pico grid, and
        // `⌊v⌋ ≤ snap(v')` for every `v' ≥ v`.
        Ratio::from_int(v.floor())
    }

    #[inline]
    fn rebase_due(v: Ratio, threshold_bits: u32) -> bool {
        v.magnitude_bits() > threshold_bits
    }

    fn rebase_base(self, v: Ratio) -> Option<Ratio> {
        let base = Ratio::from_int(v.floor());
        base.is_positive().then_some(base)
    }

    fn sub(tag: Ratio, base: Ratio) -> Option<Ratio> {
        tag.checked_sub(base)
    }

    #[inline]
    fn to_ratio(self, tag: Ratio) -> Ratio {
        tag
    }

    fn tie_cache(_rule: TieBreak, _weight: Rate) {}

    #[inline]
    fn tie(rule: TieBreak, rate: Rate, _cache: ()) -> i128 {
        rule.key(rate)
    }
}

/// u64 fixed-point tags on a `2^shift` grid (see [`crate::fixed`]).
#[derive(Clone, Copy, Debug)]
pub struct Fixed {
    shift: u32,
}

impl Fixed {
    /// Arithmetic on the [`DEFAULT_SHIFT`] grid.
    pub(crate) const DEFAULT: Fixed = Fixed {
        shift: DEFAULT_SHIFT,
    };

    /// Arithmetic on a `2^shift` grid; rejects `shift == 0` and
    /// `shift >` [`MAX_SHIFT`] with [`SchedError::TagOverflow`] — the
    /// u64 overflow-freedom proof only covers that range.
    pub(crate) fn new(shift: u32) -> Result<Self, SchedError> {
        if shift == 0 || shift > MAX_SHIFT {
            return Err(SchedError::TagOverflow);
        }
        Ok(Fixed { shift })
    }
}

impl TagArith for Fixed {
    type Tag = FixedTag;
    type Inc = FixedInc;
    type Tie = i64;
    type TieCache = i64;
    const ZERO: FixedTag = FixedTag::ZERO;
    const CHECKED_REBASE: bool = false;

    fn inc(self, flow: FlowId, weight: Rate) -> Result<FixedInc, SchedError> {
        FixedInc::new(flow, weight, self.shift)
    }

    #[inline]
    fn finish(self, start: FixedTag, _rate: Rate, inc: FixedInc, len: Bytes) -> Option<FixedTag> {
        start.checked_add(inc.span(len).ok()?)
    }

    #[inline]
    fn read_v(v: FixedTag) -> FixedTag {
        // Fixed tags already live on the 2^-shift grid (denominator
        // ≤ 2^24 < 10^12), so the exact snap is a no-op here.
        v
    }

    fn gc_horizon(self, v: FixedTag) -> FixedTag {
        // No floor needed: fixed tags are never re-snapped at enqueue.
        v
    }

    #[inline]
    fn rebase_due(v: FixedTag, threshold_bits: u32) -> bool {
        // Clamped: a u64 tag never reaches the ~96-bit thresholds tuned
        // for the i128 schedulers, and waiting for one means wrapping.
        v.magnitude_bits() > threshold_bits.min(MAX_REBASE_BITS)
    }

    fn rebase_base(self, v: FixedTag) -> Option<FixedTag> {
        let base = v.floor_to_base(self.shift);
        (base.raw() != 0).then_some(base)
    }

    fn sub(tag: FixedTag, base: FixedTag) -> Option<FixedTag> {
        // Every tag live in the current busy period is `≥ base`, so the
        // clamp only fires on an idle flow's stale `last_finish`, where
        // zero preserves Eq. 4's `max(v, last_finish)` (the rebased `v`
        // is `≥` the rebased stale finish either way).
        Some(tag.saturating_sub(base))
    }

    fn to_ratio(self, tag: FixedTag) -> Ratio {
        tag.to_ratio(self.shift)
    }

    fn tie_cache(rule: TieBreak, weight: Rate) -> i64 {
        rule.key64(weight)
    }

    #[inline]
    fn tie(_rule: TieBreak, _rate: Rate, cache: i64) -> i64 {
        cache
    }
}

/// Which tag orders service and drives `v(t)`, and the tie-break key
/// that goes with it.
pub trait VtRule<A: TagArith>: Debug {
    /// `true` for SFQ (Section 2): serve by start tag; `v(t)` is the
    /// start tag in service, and when the departure that leaves the
    /// queue empty ends the busy period, `v(t)` becomes the largest
    /// finish tag served. `false` for SCFQ: serve by finish tag; `v(t)`
    /// is the finish tag in service, kept after service so arrivals see
    /// it, and the busy period ends at the dequeue that empties the
    /// queue.
    const BY_START: bool;
    /// The heap key's tie-break field, between the ordering tag and the
    /// packet uid (zero-sized when the rule has none).
    type Tie: Copy + Ord + Debug;
    /// Per-flow tie-break state.
    type TieCache: Copy + Debug;
    /// The tie-break state to cache for a flow of `weight`.
    fn tie_cache(rule: TieBreak, weight: Rate) -> Self::TieCache;
    /// The tie key of a packet charged at `rate`.
    fn tie(rule: TieBreak, rate: Rate, cache: Self::TieCache) -> Self::Tie;
}

/// Start-tag order with a [`TieBreak`] key: SFQ.
#[derive(Clone, Copy, Debug)]
pub struct StartVt;

impl<A: TagArith> VtRule<A> for StartVt {
    const BY_START: bool = true;
    type Tie = A::Tie;
    type TieCache = A::TieCache;

    fn tie_cache(rule: TieBreak, weight: Rate) -> A::TieCache {
        A::tie_cache(rule, weight)
    }

    #[inline]
    fn tie(rule: TieBreak, rate: Rate, cache: A::TieCache) -> A::Tie {
        A::tie(rule, rate, cache)
    }
}

/// Finish-tag order without a tie-break key: SCFQ.
#[derive(Clone, Copy, Debug)]
pub struct FinishVt;

impl<A: TagArith> VtRule<A> for FinishVt {
    const BY_START: bool = false;
    type Tie = ();
    type TieCache = ();

    fn tie_cache(_rule: TieBreak, _weight: Rate) {}

    fn tie(_rule: TieBreak, _rate: Rate, _cache: ()) {}
}

/// Heap ordering key: the ordering tag (start for SFQ, finish for
/// SCFQ), the tie-break key, then the packet uid. The other tag rides
/// along as the packet's [`FlowFifos`] metadata.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct HeapKey<T, K> {
    tag: T,
    tie: K,
    uid: u64,
}

type Key<A, D> = HeapKey<<A as TagArith>::Tag, <D as VtRule<A>>::Tie>;

/// Per-flow state: registered weight, its precomputed charging and
/// tie-break state, and `F(p_f^{j-1})` (zero before the first packet).
#[derive(Debug)]
struct FlowExt<A: TagArith, D: VtRule<A>> {
    weight: Rate,
    inc: A::Inc,
    tie: D::TieCache,
    last_finish: A::Tag,
}

// Upper bounds on memory per queued packet (heap key, metadata tag) and
// per flow (ext) for each instantiation: at a million flows every byte
// of ext is a megabyte of resident set.
const _: () = {
    use std::mem::size_of;
    assert!(size_of::<Key<Exact, StartVt>>() <= 64);
    assert!(size_of::<FlowExt<Exact, StartVt>>() <= 48);
    assert!(size_of::<Ratio>() <= 32);
    assert!(size_of::<Key<Fixed, StartVt>>() <= 24);
    assert!(size_of::<FlowExt<Fixed, StartVt>>() <= 32);
    assert!(size_of::<FixedTag>() <= 8);
    assert!(size_of::<Key<Fixed, FinishVt>>() <= 16);
    assert!(size_of::<FlowExt<Fixed, FinishVt>>() <= 24);
    assert!(size_of::<Key<Exact, FinishVt>>() <= 48);
    assert!(size_of::<FlowExt<Exact, FinishVt>>() <= 48);
};

/// A tag scheduler: the Eq. 4/5 recurrence with arithmetic `A`, service
/// order `D`, and observer `O` (see the module docs). Use it through the
/// aliases [`Sfq`](crate::Sfq), [`SfqFast`](crate::SfqFast),
/// [`Scfq`](crate::Scfq) and [`ScfqFast`](crate::ScfqFast).
///
/// Packets live in per-flow FIFOs with a heap holding one entry per
/// backlogged flow — the shared [`FlowFifos`] structure (see its module
/// docs for the soundness argument). Dequeue order, including
/// [`TieBreak`] and uid tie resolution, is identical to a heap over all
/// packets, but heap operations cost `O(log Q)` in *backlogged flows*
/// instead of `O(log N)` in *queued packets*. Every tag assignment,
/// service selection, head drop and flow change is reported to `O`
/// (default [`NoopObserver`], which compiles away; see [`crate::obs`]).
#[derive(Debug)]
pub struct TagSched<A: TagArith, D: VtRule<A>, O: SchedObserver = NoopObserver> {
    q: FlowFifos<Key<A, D>, FlowExt<A, D>, A::Tag>,
    arith: A,
    tie: TieBreak,
    /// The server virtual time `v(t)`.
    v: A::Tag,
    /// Largest finish tag of any packet served so far.
    max_finish_served: A::Tag,
    /// Virtual-time rebasing threshold in magnitude bits, or `None`
    /// when rebasing is disabled. See [`TagSched::enable_rebasing`].
    rebase_bits: Option<u32>,
    rebases: u64,
    /// Lazy flow GC armed (see [`TagSched::enable_flow_gc`]).
    gc: bool,
    obs: O,
    /// Counter-page sink (see [`TagSched::attach_telemetry`]); `None`
    /// costs one branch per operation.
    tele: Option<TelemetrySink>,
}

impl<A: TagArith, D: VtRule<A>, O: SchedObserver> TagSched<A, D, O> {
    /// An empty scheduler; `name` is what [`Scheduler::name`] reports
    /// and what prefixes panics.
    pub(crate) fn from_parts(
        name: &'static str,
        arith: A,
        tie: TieBreak,
        obs: O,
        backend: FifoBackend,
    ) -> Self {
        TagSched {
            q: FlowFifos::new_with(name, backend),
            arith,
            tie,
            v: A::ZERO,
            max_finish_served: A::ZERO,
            rebase_bits: None,
            rebases: 0,
            gc: false,
            obs,
            tele: None,
        }
    }

    /// Attach a plain-write counter-page sink: every enqueue, dequeue,
    /// head drop, and force-removal from now on is counted into the
    /// sink's [`sfq_telemetry::StatPage`] with relaxed stores (no tag
    /// conversions, no observer machinery — see `docs/telemetry.md`
    /// for when to prefer this over [`SchedObserver`]). Refusals are
    /// counted by the callers that see them (the engine coordinators
    /// and switch admission), not here.
    pub fn attach_telemetry(&mut self, sink: TelemetrySink) {
        self.tele = Some(sink);
    }

    /// The attached telemetry sink, if any.
    pub fn telemetry(&self) -> Option<&TelemetrySink> {
        self.tele.as_ref()
    }

    /// Enable lazy flow GC (pooled backend only): a flow whose backlog
    /// drains is reclaimed — id unlinked, table slot recycled — once its
    /// `last_finish` tag falls at or below the arithmetic's GC horizon
    /// (`⌊v(t)⌋` exact, `v(t)` fixed point), the point after which a
    /// revived flow starting from fresh state (Eq. 4's `max` with
    /// `F(p_f^0) = 0`) computes exactly the tags it would have computed
    /// anyway: dequeue order stays bit-identical while the flow table
    /// stays bounded by the *live* flow set under churn. A reclaimed
    /// flow must be re-registered before it can enqueue again, matching
    /// [`Scheduler::remove_flow`] semantics.
    pub fn enable_flow_gc(&mut self) {
        self.gc = true;
        self.q.enable_gc();
    }

    /// Cap the pooled backend's packet-slot footprint; see
    /// [`FlowFifos::set_pool_limit`]. Exhaustion surfaces as
    /// [`SchedError::BufferFull`] from the `try_enqueue` family.
    pub fn set_pool_limit(&mut self, limit: Option<usize>) {
        self.q.set_pool_limit(limit);
    }

    /// Pool accounting (`None` on the owned backend).
    pub fn pool_stats(&self) -> Option<PoolStats> {
        self.q.pool_stats()
    }

    /// Currently registered flows.
    pub fn live_flows(&self) -> usize {
        self.q.live_flows()
    }

    /// Enable virtual-time rebasing: at every busy-period boundary, and
    /// eagerly (at an arrival) whenever `v(t)`'s magnitude exceeds
    /// `threshold_bits`, the whole-unit part of `v(t)` is subtracted
    /// from every live start/finish tag, every flow's `last_finish`,
    /// and the virtual-time state itself.
    ///
    /// Because the baseline is an integer and Eqs. 4/5 are built from
    /// `max`, `+`, comparisons, and the pico-grid snap — all of which
    /// commute exactly with an integer shift — the rebased scheduler's
    /// dequeue order and observer-visible normalized-service lags are
    /// bit-identical to the un-rebased one, while tag magnitudes stay
    /// bounded by the active backlog's virtual span instead of the
    /// server's lifetime. `threshold_bits = 0` forces a rebase attempt
    /// on every enqueue (useful in tests); ~96 is a practical
    /// production margin for exact tags. Fixed-point tags clamp the
    /// threshold to [`MAX_REBASE_BITS`].
    pub fn enable_rebasing(&mut self, threshold_bits: u32) {
        self.rebase_bits = Some(threshold_bits);
    }

    /// Number of rebases applied so far (0 unless
    /// [`TagSched::enable_rebasing`] was called).
    pub fn rebases(&self) -> u64 {
        self.rebases
    }

    /// The attached observer.
    pub fn observer(&self) -> &O {
        &self.obs
    }

    /// The attached observer, mutably.
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.obs
    }

    /// Consume the scheduler, returning the observer (e.g. to read a
    /// trace back out after a run).
    pub fn into_observer(self) -> O {
        self.obs
    }

    /// The server virtual time `v(t)` right now, as an exact rational.
    /// SFQ: the start tag of the packet in service (or last served),
    /// the largest finish tag served once a busy period has ended.
    /// SCFQ: the finish tag of the packet in service (or last served).
    pub fn virtual_time(&self) -> Ratio {
        self.arith.to_ratio(self.v)
    }

    /// Start/finish tags assigned to a still-queued packet, if present.
    /// Diagnostic accessor (tests/telemetry): scans the per-flow FIFOs
    /// rather than taxing the enqueue/dequeue hot path with a uid index.
    pub fn tags_of(&self, uid: u64) -> Option<(Ratio, Ratio)> {
        self.q.find(uid).map(|(key, &meta)| {
            let (start, finish) = Self::tags(key, meta);
            (self.arith.to_ratio(start), self.arith.to_ratio(finish))
        })
    }

    /// The finish tag `F(p_f^{j-1})` state of a flow (0 before its first
    /// packet).
    pub fn flow_last_finish(&self, flow: FlowId) -> Option<Ratio> {
        self.q.ext(flow).map(|e| self.arith.to_ratio(e.last_finish))
    }

    /// Number of entries currently in the head-of-flow heap. Diagnostic:
    /// at most one live entry per backlogged flow (plus stale entries
    /// left by [`Scheduler::force_remove_flow`], reclaimed lazily).
    pub fn head_heap_len(&self) -> usize {
        self.q.head_heap_len()
    }

    /// Rebase immediately: subtract the whole-unit part of the current
    /// `v(t)` from every live start/finish tag, every flow's
    /// `last_finish`, and the virtual-time state. Exact tags are
    /// all-or-nothing — a dry pass verifies every subtraction fits
    /// before any state is mutated; fixed-point tags saturate (see
    /// [`crate::fixed`]). Returns the baseline subtracted: zero when
    /// `v(t)` is below one unit or the shift would not fit.
    pub fn rebase(&mut self) -> A::Tag {
        let Some(base) = self.arith.rebase_base(self.v) else {
            return A::ZERO;
        };
        // A checked rebase first runs a pass that writes nothing.
        let passes: &[bool] = if A::CHECKED_REBASE {
            &[false, true]
        } else {
            &[true]
        };
        for &apply in passes {
            let ok = Cell::new(true);
            let shift = |t: &mut A::Tag| match A::sub(*t, base) {
                Some(s) if apply => *t = s,
                Some(_) => {}
                None => ok.set(false),
            };
            shift(&mut self.v);
            shift(&mut self.max_finish_served);
            self.q.retag_all(
                |key, other| {
                    shift(&mut key.tag);
                    shift(other);
                },
                |ext| shift(&mut ext.last_finish),
            );
            if !ok.get() {
                return A::ZERO;
            }
        }
        self.rebases += 1;
        base
    }

    /// `(start, finish)` of a packet queued under `key` with metadata
    /// `other`.
    #[inline]
    fn tags(key: &Key<A, D>, other: A::Tag) -> (A::Tag, A::Tag) {
        if D::BY_START {
            (key.tag, other)
        } else {
            (other, key.tag)
        }
    }

    /// Heap key and metadata of a packet tagged `start`/`finish`,
    /// charged at `rate`.
    #[inline]
    fn stamp(
        rule: TieBreak,
        cache: D::TieCache,
        rate: Rate,
        (start, finish): (A::Tag, A::Tag),
        uid: u64,
    ) -> (Key<A, D>, A::Tag) {
        let tie = D::tie(rule, rate, cache);
        let (tag, other) = if D::BY_START {
            (start, finish)
        } else {
            (finish, start)
        };
        (HeapKey { tag, tie, uid }, other)
    }

    /// Unwrap a control-plane result for the panicking API, prefixing
    /// the error with the scheduler's name ("SFQ: unregistered flow 9").
    fn or_panic<T>(&self, r: Result<T, SchedError>) -> T {
        r.unwrap_or_else(|e| panic!("{}: {e}", self.q.name()))
    }

    /// The virtual time Eq. 4 reads for an arrival of `flow`, after the
    /// eager rebase check. A refused enqueue must leave the scheduler
    /// untouched, so on the (rare) branch where the rebase is about to
    /// fire the flow is checked first; the common path pays no extra
    /// lookup.
    fn arrival_v(&mut self, flow: FlowId) -> Result<A::Tag, SchedError> {
        if let Some(bits) = self.rebase_bits {
            if A::rebase_due(self.v, bits) {
                self.q.check_push(flow)?;
                self.rebase();
            }
        }
        Ok(A::read_v(self.v))
    }

    /// Tag and queue one packet at virtual time `v_now`, charging it at
    /// `rate` (the flow's registered weight when `None`; only exact SFQ
    /// charges per-packet rates, see Eq. 36).
    #[inline(always)]
    fn push(
        &mut self,
        now: SimTime,
        v_now: A::Tag,
        pkt: Packet,
        rate: Option<Rate>,
    ) -> Result<(), SchedError> {
        let (arith, rule) = (self.arith, self.tie);
        let (key, meta) = self.q.try_push_with(pkt, |ext| {
            let rate = rate.unwrap_or(ext.weight);
            let start = v_now.max(ext.last_finish);
            let finish = arith.finish(start, rate, ext.inc, pkt.len)?;
            ext.last_finish = finish;
            Some(Self::stamp(rule, ext.tie, rate, (start, finish), pkt.uid))
        })?;
        if let Some(t) = &self.tele {
            t.record_enqueue(pkt.len.as_u64(), self.q.len());
        }
        if self.obs.active() {
            let (start, finish) = Self::tags(&key, meta);
            let ev = event(arith, now, &pkt, start, finish, v_now);
            self.obs.on_enqueue(&ev);
        }
        Ok(())
    }

    /// The busy period just ended: SFQ's `v(t)` becomes the largest
    /// finish tag served (step 2 of the algorithm definition), and this
    /// is the cheapest rebase point (no queued packets, only per-flow
    /// `last_finish` state).
    fn end_busy_period(&mut self) {
        if D::BY_START {
            self.v = self.max_finish_served;
        }
        if self.rebase_bits.is_some() {
            self.rebase();
        }
    }

    /// Bookkeeping after a service completes (SFQ: at the departure;
    /// SCFQ: at the dequeue itself).
    fn after_service(&mut self) {
        if self.q.is_empty() {
            self.end_busy_period();
        }
        if self.gc {
            // Amortized GC: examine a few drained flows and reclaim
            // those whose tags are safely behind v(t).
            let horizon = self.arith.gc_horizon(self.v);
            self.q.gc_step(GC_BUDGET, |ext| ext.last_finish <= horizon);
        }
    }
}

/// The observer event for a packet tagged `start`/`finish` at virtual
/// time `v`.
#[inline]
fn event<A: TagArith>(
    arith: A,
    time: SimTime,
    pkt: &Packet,
    start: A::Tag,
    finish: A::Tag,
    v: A::Tag,
) -> SchedEvent {
    SchedEvent {
        time,
        flow: pkt.flow,
        uid: pkt.uid,
        len: pkt.len,
        start_tag: arith.to_ratio(start),
        finish_tag: arith.to_ratio(finish),
        v: arith.to_ratio(v),
    }
}

impl<O: SchedObserver> TagSched<Exact, StartVt, O> {
    /// Enqueue charging the packet at an explicit rate `r_f^j`
    /// (generalized SFQ, Eq. 36). The weight registered via `add_flow`
    /// is ignored for this packet's finish tag and tie-break key.
    pub fn enqueue_with_rate(&mut self, now: SimTime, pkt: Packet, rate: Rate) {
        let r = self.try_enqueue_with_rate(now, pkt, rate);
        self.or_panic(r);
    }

    /// Fallible [`TagSched::enqueue_with_rate`]:
    /// [`SchedError::UnknownFlow`] for an unregistered flow,
    /// [`SchedError::ZeroWeight`] for a zero charging rate, and
    /// [`SchedError::TagOverflow`] when the Eq. 5 finish tag would leave
    /// `i128` range — the scheduler state is untouched on every error
    /// path.
    pub fn try_enqueue_with_rate(
        &mut self,
        now: SimTime,
        pkt: Packet,
        rate: Rate,
    ) -> Result<(), SchedError> {
        if rate.as_bps() == 0 {
            return Err(SchedError::ZeroWeight(pkt.flow));
        }
        let v_now = self.arrival_v(pkt.flow)?;
        self.push(now, v_now, pkt, Some(rate))
    }
}

impl<D: VtRule<Fixed>, O: SchedObserver> TagSched<Fixed, D, O> {
    /// The tag grid's fractional bit count.
    pub fn shift(&self) -> u32 {
        self.arith.shift
    }

    /// The server virtual time `v(t)` right now, in fixed point.
    pub fn virtual_time_fixed(&self) -> FixedTag {
        self.v
    }
}

impl<A: TagArith, D: VtRule<A>, O: SchedObserver> Scheduler for TagSched<A, D, O> {
    fn add_flow(&mut self, flow: FlowId, weight: Rate) {
        let r = self.try_add_flow(flow, weight);
        self.or_panic(r);
    }

    fn try_add_flow(&mut self, flow: FlowId, weight: Rate) -> Result<(), SchedError> {
        if weight.as_bps() == 0 {
            return Err(SchedError::ZeroWeight(flow));
        }
        let inc = self.arith.inc(flow, weight)?;
        let tie = D::tie_cache(self.tie, weight);
        let ext = self.q.upsert_flow(flow, || FlowExt {
            weight,
            inc,
            tie,
            last_finish: A::ZERO,
        });
        ext.weight = weight;
        ext.inc = inc;
        ext.tie = tie;
        self.obs.on_flow_change(flow, &FlowChange::Added { weight });
        Ok(())
    }

    fn enqueue(&mut self, now: SimTime, pkt: Packet) {
        let r = self.try_enqueue(now, pkt);
        self.or_panic(r);
    }

    fn try_enqueue(&mut self, now: SimTime, pkt: Packet) -> Result<(), SchedError> {
        let v_now = self.arrival_v(pkt.flow)?;
        self.push(now, v_now, pkt, None)
    }

    fn enqueue_batch(&mut self, now: SimTime, pkts: &[Packet]) {
        let r = self.try_enqueue_batch(now, pkts);
        self.or_panic(r);
    }

    fn try_enqueue_batch(&mut self, now: SimTime, pkts: &[Packet]) -> Result<(), SchedError> {
        // v(t) changes only at dequeues, so across a pure-enqueue run
        // both the eager-rebase predicate and the snapped virtual time
        // are constants: one check (made for the first packet, exactly
        // as the per-packet loop would) and one read serve the whole
        // batch. If the check fires, the per-packet loop's later checks
        // would see the shrunk v and at most attempt a zero-baseline
        // rebase — bit-identical either way.
        let Some(first) = pkts.first() else {
            return Ok(());
        };
        let v_now = self.arrival_v(first.flow)?;
        for &pkt in pkts {
            self.push(now, v_now, pkt, None)?;
        }
        Ok(())
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
        let (pkt, key, other) = self.q.pop_min()?;
        let (start, finish) = Self::tags(&key, other);
        self.v = key.tag;
        self.max_finish_served = self.max_finish_served.max(finish);
        if let Some(t) = &self.tele {
            t.record_dequeue(pkt.flow.0, pkt.len.as_u64(), pkt.arrival, now);
        }
        if self.obs.active() {
            let ev = event(self.arith, now, &pkt, start, finish, self.v);
            self.obs.on_dequeue(&ev);
        }
        if !D::BY_START {
            self.after_service();
        }
        Some(pkt)
    }

    fn dequeue_batch(&mut self, now: SimTime, max: usize, out: &mut Vec<Packet>) -> usize {
        let TagSched {
            q,
            arith,
            v,
            max_finish_served,
            obs,
            tele,
            ..
        } = self;
        let n = q.pop_min_batch(max, |pkt, key, other| {
            let (start, finish) = Self::tags(&key, other);
            *v = key.tag;
            *max_finish_served = (*max_finish_served).max(finish);
            if let Some(t) = tele {
                t.record_dequeue(pkt.flow.0, pkt.len.as_u64(), pkt.arrival, now);
            }
            if obs.active() {
                obs.on_dequeue(&event(*arith, now, &pkt, start, finish, *v));
            }
            out.push(pkt);
        });
        if n == 0 {
            return 0;
        }
        // Every packet's departure is treated as instantaneous, and only
        // the last one can find the queue empty: the busy-period and GC
        // bookkeeping of the per-packet loop collapses to one step.
        self.after_service();
        n
    }

    fn on_departure(&mut self, _now: SimTime) {
        if D::BY_START {
            self.after_service();
        }
    }

    fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    fn len(&self) -> usize {
        self.q.len()
    }

    fn backlog(&self, flow: FlowId) -> usize {
        self.q.backlog(flow)
    }

    fn remove_flow(&mut self, flow: FlowId) -> bool {
        let removed = self.q.remove_flow(flow);
        if removed {
            self.obs.on_flow_change(flow, &FlowChange::Removed);
        }
        removed
    }

    fn force_remove_flow(&mut self, flow: FlowId) -> usize {
        let Some(dropped) = self.q.force_remove_flow(flow) else {
            return 0;
        };
        if let Some(t) = &self.tele {
            t.record_force_removed(dropped);
        }
        self.obs
            .on_flow_change(flow, &FlowChange::ForceRemoved { dropped });
        dropped
    }

    fn try_set_weight(&mut self, flow: FlowId, weight: Rate) -> Result<(), SchedError> {
        if weight.as_bps() == 0 {
            return Err(SchedError::ZeroWeight(flow));
        }
        if self.q.ext(flow).is_none() {
            return Err(SchedError::UnknownFlow(flow));
        }
        let arith = self.arith;
        let inc = arith.inc(flow, weight)?;
        let rule = self.tie;
        let tie = D::tie_cache(rule, weight);
        // The tag-rewrite rule (see the trait docs and
        // docs/robustness.md), all-or-nothing and without heap surgery:
        // the head keeps its tags, so its heap entry stays valid. The
        // first pass chains the new finish tags from the head's and only
        // verifies that every step fits; the second writes them. `tail`
        // stays `None` for an idle flow, whose `last_finish` is left alone.
        let mut tail = None;
        for apply in [false, true] {
            let prev = Cell::new(None);
            let ok = Cell::new(true);
            self.q.retag_flow(
                flow,
                |pos, pkt, key, other| {
                    if pos == 0 {
                        prev.set(Some(Self::tags(key, *other).1));
                        return;
                    }
                    let start = prev.get();
                    let finish = start.and_then(|s| arith.finish(s, weight, inc, pkt.len));
                    match (start, finish) {
                        (Some(s), Some(f)) if apply => {
                            (*key, *other) = Self::stamp(rule, tie, weight, (s, f), pkt.uid);
                        }
                        (_, None) => ok.set(false),
                        _ => {}
                    }
                    prev.set(finish);
                },
                |ext| {
                    if apply {
                        ext.weight = weight;
                        ext.inc = inc;
                        ext.tie = tie;
                        if let Some(f) = tail {
                            ext.last_finish = f;
                        }
                    }
                },
            );
            if !ok.get() {
                return Err(SchedError::TagOverflow);
            }
            tail = prev.get();
        }
        self.obs.on_flow_change(flow, &FlowChange::Added { weight });
        Ok(())
    }

    fn drop_head(&mut self, flow: FlowId) -> Option<Packet> {
        let (pkt, key, other) = self.q.drop_front(flow)?;
        if let Some(t) = &self.tele {
            t.record_head_drop();
        }
        if self.obs.active() {
            let (start, finish) = Self::tags(&key, other);
            let ev = event(self.arith, pkt.arrival, &pkt, start, finish, self.v);
            self.obs.on_drop(&ev);
        }
        Some(pkt)
    }

    fn name(&self) -> &'static str {
        self.q.name()
    }
}
