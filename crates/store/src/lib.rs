//! Tiered content-addressed result store.
//!
//! One [`ResultStore`] facade over three tiers, looked up in order:
//!
//! 1. **mem** — sharded in-memory LRU with a byte budget ([`mem`]);
//!    zero-allocation hit path.
//! 2. **disk** — checksummed crash-safe local tier with 256-way fan-out,
//!    optional byte budget with LRU-by-mtime GC ([`disk`]).
//! 3. **shared** — an optional read-through tier on a shared mount
//!    (e.g. NFS), so a fleet of sweep hosts dedups computation across
//!    machines; write-back is configurable.
//!
//! A hit in a lower tier is promoted into every tier above it. Misses
//! fall through to the caller, which computes under per-key
//! [single-flight](flight) so N concurrent requests for the same key run
//! the computation once.
//!
//! The store is payload-agnostic: values cross the disk boundary through
//! a caller-supplied [`Codec`], so the serialized schema (and its
//! version discipline) stays with the caller. Keys are the caller's
//! 128-bit content hashes; the store never interprets them beyond
//! routing on the leading byte.

#![expect(clippy::disallowed_types, reason = "tier latencies and entry ages are host time")]

pub mod disk;
pub mod flight;
pub mod mem;

pub use disk::{Corruption, DiskLookup, DiskTier, DiskTierConfig};
pub use flight::{Flight, FlightGuard, SingleFlight};
pub use mem::{MemTier, MemTierStats};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Encodes values to / decodes values from the disk tiers' entry bodies.
/// `decode` returning `None` marks the entry corrupt (quarantined).
pub trait Codec<V>: Send + Sync + 'static {
    /// Serializes a value to an entry body.
    fn encode(&self, value: &V) -> String;
    /// Parses an entry body; `None` = malformed.
    fn decode(&self, body: &str) -> Option<V>;
}

/// How to open a [`ResultStore`].
pub struct StoreConfig {
    /// Byte budget for the in-memory LRU tier.
    pub mem_budget_bytes: u64,
    /// In-memory shard count (rounded up to a power of two).
    pub mem_shards: usize,
    /// The local disk tier; `None` = memory-only.
    pub disk: Option<DiskTierConfig>,
    /// The shared read-through tier.
    pub shared: Option<DiskTierConfig>,
    /// Whether locally computed results are written back to the shared
    /// tier (off = read-only consumer of the fleet cache).
    pub shared_writeback: bool,
}

/// Which tier served a hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitTier {
    /// In-memory LRU.
    Mem,
    /// Local disk.
    Disk,
    /// Shared read-through tier.
    Shared,
}

impl HitTier {
    /// Short name for progress events and reports.
    pub fn name(self) -> &'static str {
        match self {
            HitTier::Mem => "memo",
            HitTier::Disk => "disk",
            HitTier::Shared => "shared",
        }
    }
}

/// Result of [`ResultStore::lookup`]: the hit (if any) plus per-tier
/// probe latencies for the caller's histograms. `disk_nanos` /
/// `shared_nanos` are `None` when the tier was not probed (an earlier
/// tier hit, or the tier is not configured).
pub struct Lookup<V> {
    /// The value and the tier that served it.
    pub hit: Option<(Arc<V>, HitTier)>,
    /// Mem-tier probe wall time.
    pub mem_nanos: u64,
    /// Disk-tier probe wall time, if probed.
    pub disk_nanos: Option<u64>,
    /// Shared-tier probe wall time, if probed.
    pub shared_nanos: Option<u64>,
}

/// Accounting snapshot across all tiers.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreStats {
    /// Lookups served by the in-memory tier.
    pub mem_hits: u64,
    /// Lookups served by the local disk tier.
    pub disk_hits: u64,
    /// Lookups served by the shared tier.
    pub shared_hits: u64,
    /// Lookups that fell through every tier.
    pub misses: u64,
    /// In-memory entries evicted to stay under the byte budget.
    pub mem_evictions: u64,
    /// Disk entries evicted by the GC budget.
    pub disk_evictions: u64,
    /// Bytes held by the in-memory tier.
    pub mem_bytes: u64,
    /// Bytes held by the local disk tier.
    pub disk_bytes: u64,
    /// Live in-memory entries.
    pub mem_entries: u64,
    /// Threads that blocked behind another thread's computation.
    pub flight_waits: u64,
    /// Legacy flat-layout entries migrated into the fan-out at open.
    pub migrated_entries: u64,
}

/// The tiered store. See the [crate docs](self) for the design.
pub struct ResultStore<V> {
    codec: Box<dyn Codec<V>>,
    mem: MemTier<V>,
    disk: Option<DiskTier>,
    shared: Option<DiskTier>,
    shared_writeback: bool,
    flight: SingleFlight,
    mem_hits: AtomicU64,
    disk_hits: AtomicU64,
    shared_hits: AtomicU64,
    misses: AtomicU64,
}

/// Per-tier write timings from [`ResultStore::insert`]; `None` = the
/// tier was not written (unconfigured, or write-back off).
pub struct Fill {
    /// Local disk write wall time.
    pub disk_nanos: Option<u64>,
    /// Shared-tier write wall time.
    pub shared_nanos: Option<u64>,
}

/// Outcome of [`ResultStore::reload_disk`] — the chaos/corruption probe.
pub enum DiskReload<V> {
    /// No local-disk entry for the key.
    Missing,
    /// An intact entry.
    Ok(V),
    /// A corrupt entry, already quarantined.
    Corrupt(Corruption),
}

#[inline]
fn elapsed_nanos(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl<V: Clone + Send + Sync + 'static> ResultStore<V> {
    /// Opens the store: builds the mem tier and opens (creating,
    /// migrating, purging) the configured disk tiers.
    pub fn open(cfg: &StoreConfig, codec: impl Codec<V>) -> ResultStore<V> {
        ResultStore {
            codec: Box::new(codec),
            mem: MemTier::new(cfg.mem_budget_bytes, cfg.mem_shards),
            disk: cfg.disk.as_ref().map(DiskTier::open),
            shared: cfg.shared.as_ref().map(DiskTier::open),
            shared_writeback: cfg.shared_writeback,
            flight: SingleFlight::new(),
            mem_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            shared_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks up `key` through mem → disk → shared, promoting hits into
    /// the tiers above. Corruption reports (already quarantined) are
    /// appended to `corruptions`; a corrupt entry degrades to a miss in
    /// that tier. The mem-tier hit path performs no allocations.
    pub fn lookup(&self, key: u128, corruptions: &mut Vec<Corruption>) -> Lookup<V> {
        let t_mem = Instant::now();
        let mem_hit = self.mem.get(key);
        let mem_nanos = elapsed_nanos(t_mem);
        if let Some(v) = mem_hit {
            self.mem_hits.fetch_add(1, Ordering::Relaxed);
            return Lookup { hit: Some((v, HitTier::Mem)), mem_nanos, disk_nanos: None, shared_nanos: None };
        }
        let mut disk_nanos = None;
        if let Some(disk) = &self.disk {
            let t = Instant::now();
            let outcome = self.decode_tier(disk, key, corruptions);
            disk_nanos = Some(elapsed_nanos(t));
            if let Some((value, body)) = outcome {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                let value = Arc::new(value);
                self.mem.insert(key, Arc::clone(&value), body.len() as u64);
                return Lookup {
                    hit: Some((value, HitTier::Disk)),
                    mem_nanos,
                    disk_nanos,
                    shared_nanos: None,
                };
            }
        }
        let mut shared_nanos = None;
        if let Some(shared) = &self.shared {
            let t = Instant::now();
            let outcome = self.decode_tier(shared, key, corruptions);
            shared_nanos = Some(elapsed_nanos(t));
            if let Some((value, body)) = outcome {
                self.shared_hits.fetch_add(1, Ordering::Relaxed);
                // Read-through promotion: the local tiers absorb the
                // entry so the next lookup never crosses the mount again.
                if let Some(disk) = &self.disk {
                    disk.store(key, &body);
                }
                let value = Arc::new(value);
                self.mem.insert(key, Arc::clone(&value), body.len() as u64);
                return Lookup {
                    hit: Some((value, HitTier::Shared)),
                    mem_nanos,
                    disk_nanos,
                    shared_nanos,
                };
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        Lookup { hit: None, mem_nanos, disk_nanos, shared_nanos }
    }

    /// Looks up `key` in the mem tier alone, counting a hit and nothing
    /// else: a miss is left for a later [`ResultStore::lookup`] to count,
    /// and no disk tier is touched. `dcl1d` answers a submit from here
    /// without any disk I/O on its connection threads.
    pub fn peek_mem(&self, key: u128) -> Option<Arc<V>> {
        let hit = self.mem.get(key)?;
        self.mem_hits.fetch_add(1, Ordering::Relaxed);
        Some(hit)
    }

    /// Loads + decodes `key` from one disk tier, quarantining entries
    /// whose body does not decode even under a valid checksum.
    fn decode_tier(
        &self,
        tier: &DiskTier,
        key: u128,
        corruptions: &mut Vec<Corruption>,
    ) -> Option<(V, String)> {
        match tier.load(key) {
            DiskLookup::Hit(body) => match self.codec.decode(&body) {
                Some(v) => Some((v, body)),
                None => {
                    corruptions.push(
                        tier.quarantine(&tier.entry_path(key), "malformed body under valid checksum"),
                    );
                    None
                }
            },
            DiskLookup::Corrupt(c) => {
                corruptions.push(c);
                None
            }
            DiskLookup::Miss => None,
        }
    }

    /// Inserts a computed value into every tier (shared only when
    /// write-back is on), returning per-tier write timings. The mem tier
    /// holds a copy; [`ResultStore::insert_arc`] shares the caller's.
    pub fn insert(&self, key: u128, value: &V) -> Fill {
        self.insert_arc(key, Arc::new(value.clone()))
    }

    /// [`ResultStore::insert`], keeping `value` itself in the mem tier, so
    /// later hits return this same `Arc`.
    pub fn insert_arc(&self, key: u128, value: Arc<V>) -> Fill {
        let body = self.codec.encode(&value);
        let mut fill = Fill { disk_nanos: None, shared_nanos: None };
        if let Some(disk) = &self.disk {
            let t = Instant::now();
            disk.store(key, &body);
            fill.disk_nanos = Some(elapsed_nanos(t));
        }
        if self.shared_writeback {
            if let Some(shared) = &self.shared {
                let t = Instant::now();
                shared.store(key, &body);
                fill.shared_nanos = Some(elapsed_nanos(t));
            }
        }
        self.mem.insert(key, value, body.len() as u64);
        fill
    }

    /// Re-persists a value to the local disk tier only — the corruption
    /// recovery path re-stores the clean result it still holds.
    pub fn store_disk(&self, key: u128, value: &V) {
        if let Some(disk) = &self.disk {
            disk.store(key, &self.codec.encode(value));
        }
    }

    /// Reads `key` straight from the local disk tier, bypassing (and not
    /// refilling) the mem tier — chaos uses this to prove a just-written
    /// entry survives, or that a damaged one is rejected and quarantined.
    pub fn reload_disk(&self, key: u128, corruptions: &mut Vec<Corruption>) -> DiskReload<V> {
        let Some(disk) = &self.disk else { return DiskReload::Missing };
        let before = corruptions.len();
        match self.decode_tier(disk, key, corruptions) {
            Some((v, _)) => DiskReload::Ok(v),
            None if corruptions.len() > before => {
                DiskReload::Corrupt(corruptions[corruptions.len() - 1].clone())
            }
            None => DiskReload::Missing,
        }
    }

    /// The canonical local-disk path for `key` (chaos scribbles here).
    pub fn disk_entry_path(&self, key: u128) -> Option<std::path::PathBuf> {
        self.disk.as_ref().map(|d| d.entry_path(key))
    }

    /// The canonical shared-tier path for `key` — `None` when no shared
    /// tier is configured. Chaos targets this alongside the local path so
    /// corruption drills cover the cross-host read path too.
    pub fn shared_entry_path(&self, key: u128) -> Option<std::path::PathBuf> {
        self.shared.as_ref().map(|d| d.entry_path(key))
    }

    /// Claims `key` for computation or waits for the current leader; see
    /// [`SingleFlight::begin`].
    pub fn begin_flight(&self, key: u128) -> Flight<'_> {
        self.flight.begin(key)
    }

    /// Accounting snapshot across all tiers.
    pub fn stats(&self) -> StoreStats {
        let mem = self.mem.stats();
        StoreStats {
            mem_hits: self.mem_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            shared_hits: self.shared_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            mem_evictions: mem.evictions,
            disk_evictions: self.disk.as_ref().map(DiskTier::evictions).unwrap_or(0),
            mem_bytes: mem.bytes,
            disk_bytes: self.disk.as_ref().map(DiskTier::bytes).unwrap_or(0),
            mem_entries: mem.entries,
            flight_waits: self.flight.waits(),
            migrated_entries: self.disk.as_ref().map(DiskTier::migrated).unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    struct U64Codec;
    impl Codec<u64> for U64Codec {
        fn encode(&self, v: &u64) -> String {
            format!("value {v}\n")
        }
        fn decode(&self, body: &str) -> Option<u64> {
            body.strip_prefix("value ")?.trim_end().parse().ok()
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dcl1-store-lib-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn disk_cfg(root: PathBuf) -> DiskTierConfig {
        DiskTierConfig { root, budget_bytes: None, migrate_flat: true, purge_stale_siblings: true }
    }

    fn store_at(dir: &std::path::Path, shared: Option<PathBuf>) -> ResultStore<u64> {
        ResultStore::open(
            &StoreConfig {
                mem_budget_bytes: 1 << 20,
                mem_shards: 4,
                disk: Some(disk_cfg(dir.join("v3"))),
                shared: shared.map(disk_cfg),
                shared_writeback: true,
            },
            U64Codec,
        )
    }

    #[test]
    fn tiers_promote_upward() {
        let dir = scratch("promote");
        let mut corr = Vec::new();
        {
            let a = store_at(&dir, None);
            let value = Arc::new(700);
            a.insert_arc(7, Arc::clone(&value));
            match a.lookup(7, &mut corr).hit {
                Some((v, HitTier::Mem)) => assert!(Arc::ptr_eq(&v, &value), "mem keeps the Arc"),
                _ => panic!("an inserted value is a mem hit"),
            }
        }
        // A fresh store (new process) has a cold mem tier: first lookup is
        // a disk hit, the next a mem hit via promotion. A mem-only peek
        // before it misses without reading the disk or counting the miss.
        let b = store_at(&dir, None);
        assert!(b.peek_mem(7).is_none());
        let first = b.lookup(7, &mut corr);
        match first.hit {
            Some((v, HitTier::Disk)) => assert_eq!(*v, 700),
            _ => panic!("cold store must hit disk"),
        }
        assert!(first.disk_nanos.is_some());
        let promoted = match b.lookup(7, &mut corr).hit {
            Some((v, HitTier::Mem)) => v,
            _ => panic!("a promoted entry is a mem hit"),
        };
        let peeked = b.peek_mem(7).expect("a promoted entry is in the mem tier");
        assert!(Arc::ptr_eq(&peeked, &promoted));
        let s = b.stats();
        assert_eq!((s.disk_hits, s.mem_hits, s.misses), (1, 2, 0));
        assert!(corr.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_tier_read_through_and_writeback() {
        let host_a = scratch("shared-a");
        let host_b = scratch("shared-b");
        let shared = scratch("shared-dir");
        let mut corr = Vec::new();

        let a = store_at(&host_a, Some(shared.join("v3")));
        a.insert(9, &900); // write-back publishes to the shared tier
        let b = store_at(&host_b, Some(shared.join("v3")));
        let hit = b.lookup(9, &mut corr);
        match hit.hit {
            Some((v, HitTier::Shared)) => assert_eq!(*v, 900),
            _ => panic!("host B must be served by the shared tier"),
        }
        // Promotion localized the entry: B's next cold-mem lookup would be
        // a local disk hit; here the mem tier already has it.
        assert!(matches!(b.lookup(9, &mut corr).hit, Some((_, HitTier::Mem))));
        assert!(b.disk_entry_path(9).unwrap().exists(), "read-through must fill local disk");
        assert_eq!(b.stats().shared_hits, 1);
        for d in [host_a, host_b, shared] {
            let _ = std::fs::remove_dir_all(&d);
        }
    }

    #[test]
    fn single_flight_stress_computes_each_key_once() {
        let dir = scratch("flight-stress");
        let store = store_at(&dir, None);
        let computed = AtomicU64::new(0);
        const THREADS: usize = 8;
        const KEYS: u128 = 5;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for key in 0..KEYS {
                        let want = u64::try_from(key).unwrap() * 10;
                        let mut corr = Vec::new();
                        let got = loop {
                            if let Some((v, _)) = store.lookup(key, &mut corr).hit {
                                break *v;
                            }
                            match store.begin_flight(key) {
                                Flight::Leader(_guard) => {
                                    // Leadership re-check: a prior leader may
                                    // have filled the store between our miss
                                    // and our claim.
                                    if let Some((v, _)) = store.lookup(key, &mut corr).hit {
                                        break *v;
                                    }
                                    computed.fetch_add(1, Ordering::Relaxed);
                                    store.insert(key, &want);
                                    break want;
                                }
                                Flight::Waited => {}
                            }
                        };
                        assert_eq!(got, want);
                    }
                });
            }
        });
        assert_eq!(
            computed.load(Ordering::Relaxed),
            u64::try_from(KEYS).unwrap(),
            "every key must be computed exactly once across {THREADS} threads"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_shared_entry_is_quarantined_and_recomputed() {
        let host_a = scratch("shcorr-a");
        let host_b = scratch("shcorr-b");
        let host_c = scratch("shcorr-c");
        let shared = scratch("shcorr-dir");

        let a = store_at(&host_a, Some(shared.join("v3")));
        a.insert(5, &500);
        // Scribble the shared copy so its checksum no longer matches.
        let entry = shared.join("v3").join("00").join(format!("{:032x}.stats", 5u128));
        let mut bytes = std::fs::read(&entry).expect("shared entry written back");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&entry, &bytes).unwrap();

        let b = store_at(&host_b, Some(shared.join("v3")));
        let mut corr = Vec::new();
        assert!(
            b.lookup(5, &mut corr).hit.is_none(),
            "a corrupt shared entry must degrade to a miss, not be served"
        );
        assert_eq!(corr.len(), 1);
        assert!(!entry.exists(), "corrupt entry must leave the shared lookup path");
        assert_eq!(
            shared.join("v3").join("quarantine").read_dir().map(Iterator::count).unwrap_or(0),
            1,
            "corrupt shared entry must be quarantined for post-mortem"
        );

        // The recompute + write-back publishes a clean copy for the fleet.
        b.insert(5, &500);
        let c = store_at(&host_c, Some(shared.join("v3")));
        let mut corr = Vec::new();
        match c.lookup(5, &mut corr).hit {
            Some((v, HitTier::Shared)) => assert_eq!(*v, 500),
            _ => panic!("republished entry must serve a third host from the shared tier"),
        }
        for d in [host_a, host_b, host_c, shared] {
            let _ = std::fs::remove_dir_all(&d);
        }
    }

    #[test]
    fn undecodable_body_is_quarantined_not_served() {
        let dir = scratch("decode");
        let a = store_at(&dir, None);
        a.insert(5, &500);
        // Rewrite the entry with a valid checksum over garbage the codec
        // cannot parse: the checksum passes, decode fails, quarantine.
        let path = a.disk_entry_path(5).unwrap();
        let body = "not a value\n";
        std::fs::write(
            &path,
            format!("checksum {}\n{body}", dcl1_common::checksum::fnv64_hex(body.as_bytes())),
        )
        .unwrap();
        let b = store_at(&dir, None);
        let mut corr = Vec::new();
        assert!(b.lookup(5, &mut corr).hit.is_none());
        assert_eq!(corr.len(), 1);
        assert!(corr[0].reason.contains("malformed body"));
        assert!(!path.exists(), "undecodable entry must leave the lookup path");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
