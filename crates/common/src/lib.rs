//! Foundational types shared by every crate in the DC-L1 simulator workspace.
//!
//! This crate deliberately contains no simulation logic. It provides:
//!
//! * [`active`] — ascending-order occupancy sets for the per-cycle walks;
//! * [`addr`] — byte addresses, cache-line addresses and sector arithmetic;
//! * [`checksum`] — stable FNV-1a content digests for crash-safe persistence;
//! * [`journal`] — append-only JSONL line framing with per-line
//!   checksums, backing `dcl1d`'s queue journal;
//! * [`ids`] — strongly-typed identifiers for cores, DC-L1 nodes, L2 slices,
//!   memory controllers and clusters;
//! * [`clock`] — cycle counting and rational frequency-domain ticking;
//! * [`flat`] — deterministic open-addressed maps/sets for hot-path state;
//! * [`invariant`] — conservation-law meters backing checked-sim mode;
//! * [`queue`] — bounded FIFO queues with occupancy/backpressure statistics;
//! * [`stats`] — counters, running means and utilization helpers;
//! * [`rng`] — a small deterministic RNG (SplitMix64) so simulations are
//!   reproducible without threading a `rand` generator everywhere;
//! * [`wheel`] — the wake wheel timed sleepers park in.
//!
//! # Examples
//!
//! ```
//! use dcl1_common::addr::{Address, LineAddr, LINE_SIZE};
//!
//! let a = Address::new(0x1234);
//! let line = a.line();
//! assert_eq!(line.base().raw(), 0x1234 / LINE_SIZE as u64 * LINE_SIZE as u64);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod active;
pub mod addr;
pub mod checksum;
pub mod clock;
mod error;
pub mod journal;
pub mod flat;
pub mod hist;
mod ids;
pub mod invariant;
pub mod queue;
pub mod rng;
pub mod stats;
mod wheel;

pub use active::ActiveSet;
pub use addr::{Address, LineAddr, LINE_SIZE};
pub use clock::{ClockDomain, Cycle};
pub use error::ConfigError;
pub use flat::{FlatMap, FlatSet};
pub use hist::Histogram;
pub use ids::{CoreId, WavefrontId};
pub use invariant::{FlowMeter, InvariantError, InvariantResult};
pub use queue::BoundedQueue;
pub use rng::SplitMix64;
pub use wheel::WakeWheel;
