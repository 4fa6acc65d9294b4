//! Checksummed crash-safe disk tier with 256-way fan-out.
//!
//! Entries live under `root/<XX>/<key:032x>.stats`, where `<XX>` is the
//! leading byte of the 128-bit FNV key in hex — the same byte that picks
//! the in-memory shard. Fan-out keeps directory listings small at fleet
//! scale (a flat directory with 10^6 entries makes every create/rename a
//! linear scan on most filesystems) and gives the GC pass 256 naturally
//! sorted buckets to walk.
//!
//! The on-disk format is unchanged from the flat-directory era: a
//! `checksum <16 hex FNV-64>` header line covering the serialized body,
//! written to a private temp file and published by atomic rename. Corrupt
//! entries (bad header, bad checksum, undecodable body) are moved to
//! `root/quarantine/` so they can never satisfy another lookup while the
//! evidence survives for inspection.
//!
//! Opening a tier migrates any legacy flat-layout entries into the
//! fan-out (rename, not copy) and deletes stale sibling schema
//! directories (`v1`, `v2`, …). An optional byte budget triggers a GC
//! pass on overflow: entries are evicted oldest-mtime-first with a
//! name-sorted tie-break, so two caches with equal timestamps GC in the
//! same order. Reads touch the entry's mtime (best-effort), making the
//! policy LRU rather than FIFO.

use dcl1_common::checksum;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::SystemTime;

/// A corrupt-entry report: the tier has already moved the entry aside.
#[derive(Debug, Clone)]
pub struct Corruption {
    /// Path the corrupt entry was found at.
    pub path: String,
    /// Why it was rejected.
    pub reason: String,
}

/// Outcome of a disk lookup.
pub enum DiskLookup {
    /// No entry for the key.
    Miss,
    /// An intact entry's body (checksum verified, header stripped).
    Hit(String),
    /// A corrupt entry, already quarantined.
    Corrupt(Corruption),
}

/// How to open a [`DiskTier`].
#[derive(Debug, Clone)]
pub struct DiskTierConfig {
    /// The schema-versioned cache directory (e.g. `…/dcl1-cache/v3`).
    pub root: PathBuf,
    /// Evict oldest entries past this many bytes; `None` = unbounded.
    pub budget_bytes: Option<u64>,
    /// Move legacy flat-layout `*.stats` files into the fan-out on open.
    pub migrate_flat: bool,
    /// Delete stale sibling schema directories (`v<N>` ≠ this root) on
    /// open. Off for shared tiers: other hosts may still run an older
    /// schema, and their directories are not ours to collect.
    pub purge_stale_siblings: bool,
}

/// Distinguishes concurrent writers' temp files *within* one process;
/// combined with the PID this makes temp names unique across the whole
/// machine, so two threads (or two hosts on a shared tier) never clobber
/// each other's in-flight temp file.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// One disk tier (local or shared). All I/O is best-effort: a failing
/// filesystem degrades the tier to misses, never the caller.
pub struct DiskTier {
    root: PathBuf,
    budget: Option<u64>,
    bytes: AtomicU64,
    evictions: AtomicU64,
    migrated: u64,
    /// Serializes GC passes; concurrent stores still proceed.
    gc_lock: Mutex<()>,
}

/// Whether `name` is a fan-out bucket: exactly two lowercase hex chars.
fn is_bucket_name(name: &str) -> bool {
    name.len() == 2 && name.bytes().all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
}

/// Whether `name` is an entry file name: `<32 hex>.stats`.
fn is_entry_name(name: &str) -> bool {
    name.len() == 38
        && name.ends_with(".stats")
        && name.as_bytes()[..32].iter().all(u8::is_ascii_hexdigit)
}

/// Whether `name` is a schema directory name: `v<digits>`.
fn is_schema_dir_name(name: &str) -> bool {
    name.len() >= 2
        && name.starts_with('v')
        && name.as_bytes()[1..].iter().all(u8::is_ascii_digit)
}

impl DiskTier {
    /// Opens (creating, migrating, and purging as configured) a tier.
    /// Never fails: filesystem errors leave an empty tier that misses.
    pub fn open(cfg: &DiskTierConfig) -> DiskTier {
        let _ = std::fs::create_dir_all(&cfg.root);
        if cfg.purge_stale_siblings {
            purge_stale_siblings(&cfg.root);
        }
        let migrated = if cfg.migrate_flat { migrate_flat(&cfg.root) } else { 0 };
        let tier = DiskTier {
            root: cfg.root.clone(),
            budget: cfg.budget_bytes,
            bytes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            migrated,
            gc_lock: Mutex::new(()),
        };
        let initial: u64 = tier.walk_entries().iter().map(|e| e.len).sum();
        tier.bytes.store(initial, Ordering::Relaxed);
        tier.maybe_gc();
        tier
    }

    /// The tier's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Bytes of entries held (maintained incrementally; exact after GC).
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Entries evicted by GC since open.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Legacy flat-layout entries renamed into the fan-out at open.
    pub fn migrated(&self) -> u64 {
        self.migrated
    }

    /// The canonical entry path for `key`.
    pub fn entry_path(&self, key: u128) -> PathBuf {
        let name = format!("{key:032x}.stats");
        self.root.join(&name[..2]).join(&name)
    }

    /// Looks up `key`, verifying the checksum header. A hit refreshes the
    /// entry's mtime (best-effort) so the GC policy is LRU, not FIFO.
    pub fn load(&self, key: u128) -> DiskLookup {
        let path = self.entry_path(key);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return DiskLookup::Miss,
            Err(e) => {
                return DiskLookup::Corrupt(
                    self.quarantine(&path, &format!("unreadable: {e}")),
                );
            }
        };
        let Some(rest) = text.strip_prefix("checksum ") else {
            // The headerless pre-checksum format is no longer readable;
            // the flat→fan-out migration was the flag day for it.
            return DiskLookup::Corrupt(self.quarantine(&path, "missing checksum header"));
        };
        let Some((digest, body)) = rest.split_once('\n') else {
            return DiskLookup::Corrupt(self.quarantine(&path, "truncated checksum header"));
        };
        if !checksum::verify_hex(body.as_bytes(), digest) {
            return DiskLookup::Corrupt(self.quarantine(&path, "checksum mismatch"));
        }
        if let Ok(f) = std::fs::File::options().read(true).open(&path) {
            let _ = f.set_modified(SystemTime::now());
        }
        DiskLookup::Hit(body.to_string())
    }

    /// Persists `body` for `key`: checksum header + temp file + atomic
    /// rename, then a GC pass if the write pushed the tier over budget.
    pub fn store(&self, key: u128, body: &str) {
        let path = self.entry_path(key);
        let Some(bucket) = path.parent() else { return };
        if std::fs::create_dir_all(bucket).is_err() {
            return;
        }
        let entry = format!("checksum {}\n{body}", checksum::fnv64_hex(body.as_bytes()));
        let tmp = bucket.join(format!(
            "{key:032x}.tmp.{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        if std::fs::write(&tmp, &entry).is_ok() && std::fs::rename(&tmp, &path).is_ok() {
            self.bytes.fetch_add(entry.len() as u64, Ordering::Relaxed);
            self.maybe_gc();
        } else {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// Moves a bad entry into `root/quarantine/` (falling back to
    /// deletion) and returns the report for the recovery log.
    pub fn quarantine(&self, path: &Path, reason: &str) -> Corruption {
        let len = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        let mut moved = false;
        if let Some(name) = path.file_name() {
            let qdir = self.root.join("quarantine");
            if std::fs::create_dir_all(&qdir).is_ok() {
                moved = std::fs::rename(path, qdir.join(name)).is_ok();
            }
        }
        if !moved {
            let _ = std::fs::remove_file(path);
        }
        // Saturating: the walk that seeded `bytes` may postdate this file.
        let _ = self.bytes.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| {
            Some(b.saturating_sub(len))
        });
        Corruption { path: path.display().to_string(), reason: reason.to_string() }
    }

    /// Every live entry, bucket-by-bucket. Bucket and file names are
    /// sorted so the walk order is deterministic.
    fn walk_entries(&self) -> Vec<EntryMeta> {
        let mut out = Vec::new();
        let Ok(dir) = std::fs::read_dir(&self.root) else { return out };
        let mut buckets: Vec<PathBuf> = dir
            .flatten()
            .filter(|e| {
                e.file_name().to_str().is_some_and(is_bucket_name)
                    && e.file_type().map(|t| t.is_dir()).unwrap_or(false)
            })
            .map(|e| e.path())
            .collect();
        buckets.sort();
        for bucket in buckets {
            let Ok(files) = std::fs::read_dir(&bucket) else { continue };
            for f in files.flatten() {
                let name = f.file_name();
                let Some(name) = name.to_str() else { continue };
                if !is_entry_name(name) {
                    continue;
                }
                let Ok(meta) = f.metadata() else { continue };
                let mtime = meta
                    .modified()
                    .ok()
                    .and_then(|t| t.duration_since(SystemTime::UNIX_EPOCH).ok())
                    .map(|d| d.as_nanos())
                    .unwrap_or(0);
                out.push(EntryMeta {
                    path: f.path(),
                    name: name.to_string(),
                    mtime,
                    len: meta.len(),
                });
            }
        }
        out
    }

    /// Runs GC if a budget is set and the running byte total exceeds it.
    fn maybe_gc(&self) {
        let Some(budget) = self.budget else { return };
        if self.bytes.load(Ordering::Relaxed) > budget {
            self.gc(budget);
        }
    }

    /// Evicts entries oldest-mtime-first (name-sorted tie-break) until
    /// the tier is at or under `budget`. The walk recomputes the byte
    /// total, so the incremental counter is re-anchored to truth here.
    fn gc(&self, budget: u64) {
        let _guard = self.gc_lock.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut entries = self.walk_entries();
        let mut total: u64 = entries.iter().map(|e| e.len).sum();
        entries.sort_by(|a, b| a.mtime.cmp(&b.mtime).then_with(|| a.name.cmp(&b.name)));
        for e in &entries {
            if total <= budget {
                break;
            }
            if std::fs::remove_file(&e.path).is_ok() {
                total -= e.len;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.bytes.store(total, Ordering::Relaxed);
    }
}

struct EntryMeta {
    path: PathBuf,
    name: String,
    mtime: u128,
    len: u64,
}

/// Renames legacy flat-layout entries (`root/<key>.stats`) into their
/// fan-out buckets. Returns how many moved. Rename, not copy: the flag
/// day costs one directory operation per entry, no data I/O.
fn migrate_flat(root: &Path) -> u64 {
    let Ok(dir) = std::fs::read_dir(root) else { return 0 };
    let mut moved = 0u64;
    for e in dir.flatten() {
        let name = e.file_name();
        let Some(name) = name.to_str() else { continue };
        if !is_entry_name(name) || !e.file_type().map(|t| t.is_file()).unwrap_or(false) {
            continue;
        }
        let bucket = root.join(&name[..2]);
        if std::fs::create_dir_all(&bucket).is_ok()
            && std::fs::rename(e.path(), bucket.join(name)).is_ok()
        {
            moved += 1;
        }
    }
    moved
}

/// Deletes sibling schema directories (`v<N>`) other than `root` itself —
/// entries under a stale schema can never be read again, so they are pure
/// disk leak.
fn purge_stale_siblings(root: &Path) {
    let Some(active) = root.file_name().and_then(|n| n.to_str()) else { return };
    let Some(parent) = root.parent() else { return };
    let Ok(dir) = std::fs::read_dir(parent) else { return };
    for e in dir.flatten() {
        let name = e.file_name();
        let Some(name) = name.to_str() else { continue };
        if name != active
            && is_schema_dir_name(name)
            && e.file_type().map(|t| t.is_dir()).unwrap_or(false)
        {
            let _ = std::fs::remove_dir_all(e.path());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dcl1-store-disk-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn open(root: PathBuf, budget: Option<u64>) -> DiskTier {
        DiskTier::open(&DiskTierConfig {
            root,
            budget_bytes: budget,
            migrate_flat: true,
            purge_stale_siblings: true,
        })
    }

    #[test]
    fn store_load_roundtrip_lands_in_fanout_bucket() {
        let root = scratch("roundtrip");
        let tier = open(root.clone(), None);
        let key = 0xab00_0000_0000_0000_0000_0000_0000_0001u128;
        tier.store(key, "cycles 1\n");
        assert!(root.join("ab").join(format!("{key:032x}.stats")).exists());
        match tier.load(key) {
            DiskLookup::Hit(body) => assert_eq!(body, "cycles 1\n"),
            _ => panic!("intact entry must hit"),
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_and_headerless_entries_are_quarantined() {
        let root = scratch("corrupt");
        let tier = open(root.clone(), None);
        let key = 0x0100_0000_0000_0000_0000_0000_0000_0002u128;
        tier.store(key, "cycles 2\n");
        let path = tier.entry_path(key);
        std::fs::write(&path, "checksum 0000000000000000\ncycles 2\n").unwrap();
        match tier.load(key) {
            DiskLookup::Corrupt(c) => assert!(c.reason.contains("checksum mismatch")),
            _ => panic!("scribbled entry must be rejected"),
        }
        assert!(!path.exists());
        assert!(root.join("quarantine").join(format!("{key:032x}.stats")).exists());

        // The pre-checksum headerless format is dead: reject + quarantine.
        tier.store(key, "cycles 2\n");
        std::fs::write(&path, "cycles 2\n").unwrap();
        match tier.load(key) {
            DiskLookup::Corrupt(c) => assert!(c.reason.contains("missing checksum header")),
            _ => panic!("headerless entry must be rejected"),
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn temp_files_of_a_writer_killed_before_its_rename_are_never_read() {
        let root = scratch("killed-writer");
        let key = 0x5a00_0000_0000_0000_0000_0000_0000_0004u128;
        let body = "cycles 4\n";
        let entry = format!("checksum {}\n{body}", checksum::fnv64_hex(body.as_bytes()));
        // What `store` leaves behind when killed between write and rename:
        // its temp file, whole or cut short, and no entry.
        let bucket = root.join("5a");
        std::fs::create_dir_all(&bucket).unwrap();
        let full = bucket.join(format!("{key:032x}.tmp.{}.0", u32::MAX));
        let torn = bucket.join(format!("{key:032x}.tmp.{}.1", u32::MAX));
        std::fs::write(&full, &entry).unwrap();
        std::fs::write(&torn, &entry[..entry.len() / 2]).unwrap();

        let tier = open(root.clone(), None);
        assert!(matches!(tier.load(key), DiskLookup::Miss), "a temp file is not an entry");
        assert_eq!(tier.bytes(), 0, "temp files count toward no budget");
        assert!(tier.walk_entries().is_empty(), "the GC walk skips temp files");
        tier.gc(0);
        assert_eq!(tier.evictions(), 0);
        assert!(full.exists() && torn.exists(), "GC leaves what it does not own");

        // The rerun's store publishes and loads intact beside the debris.
        tier.store(key, body);
        match tier.load(key) {
            DiskLookup::Hit(b) => assert_eq!(b, body),
            _ => panic!("a fresh store must hit"),
        }
        assert_eq!(tier.bytes(), entry.len() as u64);
        let reopened = open(root.clone(), None);
        assert_eq!(reopened.bytes(), entry.len() as u64, "a reopen counts the entry only");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn open_migrates_flat_entries_and_purges_stale_schemas() {
        let base = scratch("migrate");
        let root = base.join("v3");
        std::fs::create_dir_all(&root).unwrap();
        // A legacy flat entry, exactly as the pre-fan-out code wrote it.
        let key = 0xcd00_0000_0000_0000_0000_0000_0000_0003u128;
        let body = "cycles 3\n";
        let entry = format!("checksum {}\n{body}", checksum::fnv64_hex(body.as_bytes()));
        std::fs::write(root.join(format!("{key:032x}.stats")), entry).unwrap();
        // Stale sibling schema dirs.
        std::fs::create_dir_all(base.join("v1")).unwrap();
        std::fs::create_dir_all(base.join("v2")).unwrap();

        let tier = open(root.clone(), None);
        assert_eq!(tier.migrated(), 1);
        assert!(root.join("cd").join(format!("{key:032x}.stats")).exists());
        assert!(!root.join(format!("{key:032x}.stats")).exists(), "renamed, not copied");
        match tier.load(key) {
            DiskLookup::Hit(b) => assert_eq!(b, body),
            _ => panic!("migrated entry must hit"),
        }
        assert!(!base.join("v1").exists(), "stale v1 must be deleted");
        assert!(!base.join("v2").exists(), "stale v2 must be deleted");
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn gc_respects_budget_boundary_with_name_sorted_ties() {
        let root = scratch("gc");
        let tier = open(root.clone(), None);
        // Three entries, identical mtimes (same instant is likely; force
        // it to make the tie-break the thing under test).
        let keys = [0x01u128, 0x02u128, 0x03u128];
        for k in keys {
            tier.store(k, "body\n");
        }
        let stamp = SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1_000_000);
        for k in keys {
            let f = std::fs::File::options().read(true).open(tier.entry_path(k)).unwrap();
            f.set_times(std::fs::FileTimes::new().set_modified(stamp)).unwrap();
        }
        let entry_len = std::fs::metadata(tier.entry_path(keys[0])).unwrap().len();

        // Exactly at budget: nothing may be evicted.
        let at = open(root.clone(), Some(entry_len * 3));
        assert_eq!(at.evictions(), 0, "at-budget tier must not evict");
        assert_eq!(at.bytes(), entry_len * 3);

        // One byte under the total: evict exactly the name-smallest entry.
        let over = open(root.clone(), Some(entry_len * 3 - 1));
        assert_eq!(over.evictions(), 1);
        assert!(!over.entry_path(keys[0]).exists(), "name-sorted tie evicts …01 first");
        assert!(over.entry_path(keys[1]).exists());
        assert!(over.entry_path(keys[2]).exists());
        assert_eq!(over.bytes(), entry_len * 2);
        let _ = std::fs::remove_dir_all(&root);
    }
}
