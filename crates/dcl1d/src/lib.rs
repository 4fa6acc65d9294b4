//! `dcl1d` — a fault-isolated, multi-tenant simulation daemon.
//!
//! The robustness primitives the workspace grew for batch sweeps —
//! panic containment with quarantine, cycle-level livelock
//! watchdogs, per-point deadlines, chaos injection, the tiered
//! single-flight result store, and crc-guarded append-only journals —
//! become *service guarantees* here:
//!
//! - **Admission control** ([`queue`]): per-tenant quotas on queued and
//!   in-flight work, deterministic priority aging so no tenant starves,
//!   bounded queues with explicit `retry_after_ms` backpressure, and
//!   shed-lowest-priority-first degradation under overload.
//! - **Fault isolation** ([`scheduler`]): every job runs under the full
//!   supervision stack with its tenant's chaos seed and deadline passed
//!   in as arguments — one tenant's crashing, hanging or overdue
//!   point is run once and quarantined without touching the worker pool
//!   or any other tenant's results.
//! - **Crash-safe queueing** ([`qjournal`]): accepts are journaled
//!   before acknowledgement; `kill -9` the daemon and a `--resume`
//!   restart re-enqueues exactly the unfinished set, served from the
//!   result-store tiers instead of recomputed.
//! - **Observability** ([`server`]): `status` always answers;
//!   `subscribe` streams the runner's JSONL progress events with
//!   per-tenant attribution, and per-tenant counter registries ride the
//!   same snapshot machinery as the sweep metrics.
//!
//! The wire protocol ([`proto`]) is line-delimited JSON over TCP — see
//! the README's "Running `dcl1d`" section for the command reference.

pub mod proto;
pub mod qjournal;
pub mod queue;
pub mod scheduler;
pub mod server;
