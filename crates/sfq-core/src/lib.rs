//! # sfq-core — Start-time Fair Queuing
//!
//! Reproduction of the scheduling algorithms contributed by
//! *Start-time Fair Queuing: A Scheduling Algorithm for Integrated
//! Services Packet Switching Networks* (Goyal, Vin, Cheng; SIGCOMM '96):
//!
//! - [`Sfq`]: the SFQ scheduler of Section 2, including the generalized
//!   per-packet variable-rate form (Eq. 36) and pluggable tie-breaking
//!   (Section 2.3),
//! - [`HierSfq`]: the hierarchical link-sharing scheduler of Section 3,
//! - [`FairAirport`]: the Fair Airport combination of Appendix B,
//! - the [`Scheduler`] trait and [`Packet`] vocabulary shared with the
//!   baseline disciplines in the `baselines` crate.
//!
//! A scheduler is a pure data structure: its server (constant-rate,
//! Fluctuation Constrained, or EBF — see the `servers` crate) decides
//! *when* transmissions happen; the discipline decides *order*.
//!
//! [`Sfq`], its fixed-point twin [`SfqFast`], and the SCFQ comparator in
//! both arithmetics ([`Scfq`], [`ScfqFast`]) are one scheduler: the
//! generic [`TagSched`] core of [`tagsched`], instantiated with two hook
//! traits — [`TagArith`] (exact `simtime::Ratio` tags, so the paper's
//! fairness and delay theorems are verified as exact inequalities, or
//! u64 fixed-point tags for the data path; see [`fixed`]) and
//! [`VtRule`] (start-tag or finish-tag service order).
//!
//! Every scheduler is generic over an observer (see [`obs`]): the
//! default [`NoopObserver`] compiles away; the `sfq-obs` crate provides
//! tracing and metrics implementations.

#![warn(missing_docs)]
// Non-test code must stay panic-free on fallible paths: route failures
// through `SchedError` instead (see docs/robustness.md). Unit tests may
// unwrap freely — the cfg_attr drops the lint under `cfg(test)`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod fair_airport;
pub mod fixed;
pub mod flowq;
mod hier;
pub mod obs;
mod packet;
pub mod pool;
pub mod prefetch;
mod scfq;
mod scfq_fast;
mod sched;
mod sfq;
mod sfq_fast;
pub mod tagsched;

pub use fair_airport::{FairAirport, ServedVia};
pub use fixed::{FixedInc, FixedTag, DEFAULT_SHIFT, ISM_SHIFT, MAX_REBASE_BITS, MAX_SHIFT};
pub use flowq::FifoBackend;
pub use hier::{ClassId, HierSfq};
pub use obs::{Backpressure, FlowChange, NoopObserver, SchedEvent, SchedObserver};
pub use packet::{FlowId, Packet, PacketFactory};
pub use pool::{FlowMap, PktPool, PktRef, PoolStats, ReturnQueue, SlabPool};
pub use scfq::Scfq;
pub use scfq_fast::ScfqFast;
pub use sched::{ReconfigCmd, SchedError, Scheduler, TieBreak};
pub use sfq::Sfq;
pub use sfq_fast::SfqFast;
pub use tagsched::{Exact, FinishVt, Fixed, StartVt, TagArith, TagSched, VtRule};
// Counter-page telemetry handle the schedulers accept via
// `attach_telemetry` (see the `sfq-telemetry` crate and
// docs/telemetry.md); re-exported so scheduler users need not name the
// telemetry crate for the common attach-and-read flow.
pub use sfq_telemetry::TelemetrySink;
