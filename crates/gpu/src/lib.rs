//! SIMT GPU core model.
//!
//! A [`Core`] hosts up to 48 wavefront contexts fed by [`TraceSource`]s
//! (instruction streams produced by the `dcl1-workloads` crate or by
//! tests). Each cycle a core issues at most one wavefront instruction,
//! selected greedy-round-robin over ready wavefronts — enough fidelity to
//! reproduce the latency-hiding behaviour the paper's arguments rest on:
//! a core with many ready wavefronts tolerates long memory latency, a core
//! with few (or with most wavefronts blocked on memory) does not.
//!
//! Memory instructions carry pre-coalesced per-line accesses (see
//! [`coalesce`]); the core blocks the issuing wavefront until every access
//! of the instruction completes, which the enclosing simulator signals via
//! [`Core::complete_access`].
//!
//! Cooperative thread arrays (CTAs) are dispatched by a [`CtaDispatcher`]
//! in either greedy round-robin order (GPGPU-Sim's default) or the
//! block-distributed order the paper uses as its CTA-scheduler sensitivity
//! study (Section VIII-A).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod coalesce;
mod core_model;
mod cta;
mod instr;
pub mod metrics;
mod trace;
mod wavefront;

pub use coalesce::coalesce;
pub use core_model::{
    Core, CoreConfig, CoreStats, IssuePolicy, IssuedMem, MemBlock, StallBreakdown, MAX_WAVEFRONTS,
};
pub use cta::{CtaDispatcher, CtaPolicy};
pub use instr::{MemAccess, MemInstr, MemKind, WavefrontInstr};
pub use trace::{TraceFactory, TraceSource, VecTrace};
pub use wavefront::{Wavefront, WavefrontState};
