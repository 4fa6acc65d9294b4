//! Cache models for the DC-L1 simulator.
//!
//! Two building blocks live here:
//!
//! * [`SetAssocCache`] — a tag-only set-associative cache with true-LRU
//!   replacement. Both the (DC-)L1 data caches and the L2 slices are
//!   instances of it; data payloads are never simulated, only presence.
//! * [`Mshr`] — miss status holding registers, merging concurrent misses to
//!   the same line so only one fill request travels down the hierarchy.
//!
//! Write policy (the paper's L1s are write-evict + no-write-allocate, the
//! L2 is write-back-ish at the granularity this model needs) is enforced by
//! the *caller*: the cache exposes `lookup`, `fill`, and `invalidate`, and
//! the L1/DC-L1/L2 controllers compose them.
//!
//! # Examples
//!
//! ```
//! use dcl1_cache::{CacheGeometry, SetAssocCache, LookupResult};
//! use dcl1_common::LineAddr;
//!
//! let geom = CacheGeometry::new(16 * 1024, 4, 128).unwrap();
//! let mut cache = SetAssocCache::new(geom);
//! assert_eq!(cache.lookup(LineAddr::new(1)), LookupResult::Miss);
//! cache.fill(LineAddr::new(1));
//! assert_eq!(cache.lookup(LineAddr::new(1)), LookupResult::Hit);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod geometry;
pub mod metrics;
mod mshr;
mod set_assoc;

pub use geometry::{CacheGeometry, SetIndexing};
pub use mshr::{Mshr, MshrAllocation};
pub use set_assoc::{CacheStats, Evicted, LookupResult, SetAssocCache};
