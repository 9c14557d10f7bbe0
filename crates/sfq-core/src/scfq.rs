//! Exact Self-Clocked Fair Queuing (Golestani '94), the exact-arithmetic,
//! finish-tag instantiation of the shared tag-scheduler core
//! ([`crate::tagsched`]). It lives here, beside its fixed-point twin
//! [`ScfqFast`](crate::ScfqFast), because the core's constructors must
//! sit in the crate that defines it; the `baselines` crate re-exports
//! it with the other comparators.

use crate::flowq::FifoBackend;
use crate::obs::{NoopObserver, SchedObserver};
use crate::sched::TieBreak;
use crate::tagsched::{Exact, FinishVt, TagSched};

/// The Self-Clocked Fair Queuing scheduler.
///
/// SCFQ approximates the GPS virtual time with the *finish* tag of the
/// packet currently in service, making `v(t)` O(1) to compute. Packets
/// are tagged with Eqs. 4–5 (same recurrence as SFQ) but served in
/// increasing finish-tag order from per-flow FIFOs with a head-of-flow
/// heap keyed by `(finish, uid)` — the shared
/// [`FlowFifos`](crate::flowq::FlowFifos) structure — so heap cost
/// scales with backlogged flows, not queued packets. Generic over an
/// observer (see [`crate::obs`]); the default no-op compiles away.
pub type Scfq<O = NoopObserver> = TagSched<Exact, FinishVt, O>;

impl Scfq {
    /// New SCFQ scheduler.
    pub fn new() -> Self {
        Self::with_observer(NoopObserver)
    }
}

impl<O: SchedObserver> Scfq<O> {
    /// New SCFQ scheduler reporting events to `obs`.
    pub fn with_observer(obs: O) -> Self {
        Self::with_parts(obs, FifoBackend::default())
    }

    /// New SCFQ scheduler with an explicit [`FifoBackend`] (owned =
    /// differential oracle).
    pub fn with_parts(obs: O, backend: FifoBackend) -> Self {
        // SCFQ's heap key has no tie-break field, so the rule is unused.
        TagSched::from_parts("SCFQ", Exact, TieBreak::Fifo, obs, backend)
    }
}

impl Default for Scfq {
    fn default() -> Self {
        Self::new()
    }
}
