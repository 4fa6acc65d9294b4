//! Decoupled L1 (DC-L1) GPU cache hierarchy — the paper's contribution —
//! plus the full-system cycle-level simulator that evaluates it.
//!
//! # What this crate models
//!
//! The paper separates the L1 data cache from the GPU core into a **DC-L1
//! node** (cache + MSHRs + four queues, Fig 3), splits the NoC into
//! **NoC#1** (cores ↔ DC-L1 nodes) and **NoC#2** (DC-L1 nodes ↔
//! L2/memory), and then explores three organizations:
//!
//! * [`Design::Private`] (`PrY`) — aggregate the 80 per-core L1s into `Y`
//!   larger DC-L1s, each private to `80/Y` cores;
//! * [`Design::Shared`] (`ShY`) — interleave the address space across all
//!   `Y` DC-L1s (home-bit selection), eliminating cross-L1 replication at
//!   the cost of an 80×Y crossbar;
//! * [`Design::Clustered`] (`ShY+CZ`, optionally `+Boost`) — shared only
//!   within each of `Z` clusters, bounding replication to `Z` copies while
//!   shrinking both NoCs; small NoC#1 crossbars can then run at 2× clock.
//!
//! Comparators from the evaluation are also here: the private-L1
//! [`Design::Baseline`], the hypothetical single-L1
//! [`Design::IdealSingleL1`] of §II-A, the hierarchical-crossbar
//! [`Design::CdXbar`] of Fig 19a, and the boosted baselines of §VIII-A.
//!
//! # Quick start
//!
//! ```
//! use dcl1::{Design, GpuConfig, SimOptions, GpuSystem};
//! use dcl1_gpu::{TraceFactory, TraceSource, VecTrace, WavefrontInstr};
//!
//! #[derive(Debug)]
//! struct TinyKernel;
//! impl TraceFactory for TinyKernel {
//!     fn wavefront_trace(&self, _cta: u32, _wf: u32) -> Box<dyn TraceSource> {
//!         Box::new(VecTrace::new(vec![WavefrontInstr::Alu { latency: 1 }; 8]))
//!     }
//!     fn total_ctas(&self) -> u32 { 4 }
//!     fn wavefronts_per_cta(&self) -> u32 { 2 }
//! }
//!
//! let cfg = GpuConfig::small_test();
//! let mut sys = GpuSystem::build(&cfg, &Design::Baseline, &TinyKernel, SimOptions::default())?;
//! let stats = sys.run();
//! assert!(stats.instructions > 0);
//! # Ok::<(), dcl1_common::ConfigError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod check;
pub mod config;
pub mod design;
pub mod machine;
pub mod metrics;
mod noc2;
pub mod node;
pub mod presence;
mod shard;
mod sleep;
pub mod stats;
pub mod txn;

pub use check::SimChecker;
pub use config::GpuConfig;
pub use design::{Attachment, Design, Noc2Kind, Topology};
pub use dcl1_resilience::SimError;
pub use machine::{
    GpuSystem, ProgressHook, SimOptions, DEFAULT_PROGRESS_EVERY, DEFAULT_WATCHDOG_EPOCH,
};
pub use metrics::MachineMetrics;
pub use node::{Dcl1Node, NodeConfig, NodeStats};
pub use presence::{PresenceLog, PresenceMap, PresenceSession, PresenceSink};
pub use shard::ShardReport;
pub use dcl1_obs::metrics::{MetricsFormat, MetricsSample};
pub use dcl1_obs::Observer;
pub use stats::RunStats;
pub use txn::{Txn, TxnId};
