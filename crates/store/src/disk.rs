//! Checksummed crash-safe disk tier with 256-way fan-out.
//!
//! Entries live under `root/<XX>/<key:032x>.stats`, where `<XX>` is the
//! leading byte of the 128-bit FNV key in hex — the same byte that picks
//! the in-memory shard. Fan-out keeps directory listings small (a flat
//! directory with 10^6 entries makes every create/rename a linear scan on
//! most filesystems).
//!
//! An entry is a `checksum <16 hex FNV-64>` header line covering the
//! serialized body, written to a private temp file and published by
//! atomic rename. Corrupt entries (bad header, bad checksum, undecodable
//! body) are moved to `root/quarantine/` so they can never satisfy
//! another lookup while the evidence survives for inspection.
//!
//! Opening a tier deletes stale sibling schema directories (`v1`, `v2`,
//! …). Nothing is ever evicted: a sweep's entries are its checkpoint.

use dcl1_common::checksum;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A corrupt-entry report: the tier has already moved the entry aside.
#[derive(Debug, Clone)]
pub struct Corruption {
    /// Path the corrupt entry was found at.
    pub path: String,
    /// Why it was rejected.
    pub reason: String,
}

/// Outcome of a disk lookup.
pub(crate) enum DiskLookup {
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
    /// Must be `None`: the tier has no byte budget and evicts nothing.
    /// Kept only because the `benchmark/` ledger names the field;
    /// [`DiskTier::open`] panics on `Some`.
    pub budget_bytes: Option<u64>,
    /// Must be `false`: there is no flat-layout migration. Kept only
    /// because the `benchmark/` ledger names the field; [`DiskTier::open`]
    /// panics on `true`.
    pub migrate_flat: bool,
    /// Delete stale sibling schema directories (`v<N>` ≠ this root) on
    /// open.
    pub purge_stale_siblings: bool,
}

/// Distinguishes concurrent writers' temp files *within* one process;
/// combined with the PID this makes temp names unique across the whole
/// machine, so two threads never clobber each other's in-flight temp file.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// The local disk tier. All I/O is best-effort: a failing filesystem
/// degrades the tier to misses, never the caller.
pub(crate) struct DiskTier {
    root: PathBuf,
    bytes: AtomicU64,
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
    /// Opens (creating, and purging as configured) a tier. Never fails:
    /// filesystem errors leave an empty tier that misses.
    ///
    /// # Panics
    ///
    /// If `cfg.budget_bytes` is `Some` or `cfg.migrate_flat` is set: the
    /// tier has neither a collector nor a migration.
    pub(crate) fn open(cfg: &DiskTierConfig) -> DiskTier {
        assert!(
            cfg.budget_bytes.is_none() && !cfg.migrate_flat,
            "the disk tier has no byte budget and no flat-layout migration"
        );
        let _ = std::fs::create_dir_all(&cfg.root);
        if cfg.purge_stale_siblings {
            purge_stale_siblings(&cfg.root);
        }
        DiskTier { bytes: AtomicU64::new(entry_bytes(&cfg.root)), root: cfg.root.clone() }
    }

    /// Bytes of entries held (maintained incrementally from the walk at
    /// open).
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// The canonical entry path for `key`.
    pub(crate) fn entry_path(&self, key: u128) -> PathBuf {
        let name = format!("{key:032x}.stats");
        self.root.join(&name[..2]).join(&name)
    }

    /// Looks up `key`, verifying the checksum header.
    pub(crate) fn load(&self, key: u128) -> DiskLookup {
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
            return DiskLookup::Corrupt(self.quarantine(&path, "missing checksum header"));
        };
        let Some((digest, body)) = rest.split_once('\n') else {
            return DiskLookup::Corrupt(self.quarantine(&path, "truncated checksum header"));
        };
        if !checksum::verify_hex(body.as_bytes(), digest) {
            return DiskLookup::Corrupt(self.quarantine(&path, "checksum mismatch"));
        }
        DiskLookup::Hit(body.to_string())
    }

    /// Persists `body` for `key`: checksum header + temp file + atomic
    /// rename.
    pub(crate) fn store(&self, key: u128, body: &str) {
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
        } else {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// Moves a bad entry into `root/quarantine/` (falling back to
    /// deletion) and returns the report for the recovery log.
    pub(crate) fn quarantine(&self, path: &Path, reason: &str) -> Corruption {
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
}

/// Bytes held by the entries under `root`'s buckets. Temp files of a
/// writer killed before its rename are not entries and count for nothing.
fn entry_bytes(root: &Path) -> u64 {
    let Ok(dir) = std::fs::read_dir(root) else { return 0 };
    let mut total = 0;
    for bucket in dir.flatten() {
        if !bucket.file_name().to_str().is_some_and(is_bucket_name) {
            continue;
        }
        let Ok(files) = std::fs::read_dir(bucket.path()) else { continue };
        for f in files.flatten() {
            if f.file_name().to_str().is_some_and(is_entry_name) {
                total += f.metadata().map_or(0, |m| m.len());
            }
        }
    }
    total
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

    fn open(root: PathBuf) -> DiskTier {
        DiskTier::open(&DiskTierConfig {
            root,
            budget_bytes: None,
            migrate_flat: false,
            purge_stale_siblings: true,
        })
    }

    #[test]
    fn store_load_roundtrip_lands_in_fanout_bucket() {
        let root = scratch("roundtrip");
        let tier = open(root.clone());
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
        let tier = open(root.clone());
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

        let tier = open(root.clone());
        assert!(matches!(tier.load(key), DiskLookup::Miss), "a temp file is not an entry");
        assert_eq!(tier.bytes(), 0, "temp files are not entries");
        assert!(full.exists() && torn.exists(), "open leaves what it does not own");

        // The rerun's store publishes and loads intact beside the debris.
        tier.store(key, body);
        match tier.load(key) {
            DiskLookup::Hit(b) => assert_eq!(b, body),
            _ => panic!("a fresh store must hit"),
        }
        assert_eq!(tier.bytes(), entry.len() as u64);
        let reopened = open(root.clone());
        assert_eq!(reopened.bytes(), entry.len() as u64, "a reopen counts the entry only");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    #[should_panic(expected = "no byte budget")]
    fn a_byte_budget_is_refused() {
        let root = scratch("budget");
        let _ = DiskTier::open(&DiskTierConfig {
            root,
            budget_bytes: Some(1),
            migrate_flat: false,
            purge_stale_siblings: false,
        });
    }

    #[test]
    fn open_purges_stale_schemas() {
        let base = scratch("purge");
        let root = base.join("v3");
        std::fs::create_dir_all(base.join("v1")).unwrap();
        std::fs::create_dir_all(base.join("v2")).unwrap();
        let tier = open(root.clone());
        tier.store(0xcd, "cycles 3\n");
        assert!(!base.join("v1").exists(), "stale v1 must be deleted");
        assert!(!base.join("v2").exists(), "stale v2 must be deleted");
        let reopened = open(root);
        assert!(matches!(reopened.load(0xcd), DiskLookup::Hit(_)), "the live schema survives");
        let _ = std::fs::remove_dir_all(&base);
    }
}
