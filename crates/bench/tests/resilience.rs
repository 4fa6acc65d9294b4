//! End-to-end supervision acceptance against the real `perf_sweep`
//! binary: a killed sweep resumes from its checkpoint journal to
//! byte-identical statistics, a chaos-riddled sweep converges to the
//! fault-free bytes, and with chaos off the whole layer is a no-op
//! (clean recovery counters, unchanged on-disk cache schema).
//!
//! Each test spawns the binary with its own `DCL1_CACHE_DIR` and scratch
//! directory, so nothing here races the in-process runner tests or a
//! developer's real cache.

#![expect(clippy::disallowed_types, reason = "times the binary from outside")]

mod util;

use dcl1::{GpuConfig, SimOptions};
use dcl1_bench::{grid, runner};
use dcl1_obs::json::Json;
use dcl1_resilience::Chaos;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Stdio;
use util::{finish, num, quarantined, read, scratch, split_dump, sweep, sweep_cmd};

#[test]
fn killed_sweep_resumes_to_byte_identical_stats() {
    let dir = scratch("resume");
    let journal = dir.join("journal.jsonl");
    // The seven C- apps at the default four designs.
    const POINTS: usize = 28;

    // Reference: one uninterrupted sweep.
    let reference = sweep(&dir, "ref", &["--only=C-"]);

    // Victim: same sweep with a journal, killed once the journal shows
    // at least one checkpointed point. (If the sweep finishes before the
    // kill lands, the journal simply holds every point — the resume
    // contract below is identical.)
    let mut child = sweep_cmd(&dir)
        .args(["--only=C-", "--journal=journal.jsonl", "--json=victim.json"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn victim sweep");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    loop {
        let lines =
            std::fs::read_to_string(&journal).map(|s| s.lines().count()).unwrap_or(0);
        let exited = child.try_wait().expect("poll victim").is_some();
        if lines >= 1 || exited {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "victim never checkpointed");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let _ = child.kill();
    let _ = child.wait();
    let checkpointed = read(&journal).lines().count();
    assert!(checkpointed >= 1, "journal is empty after the kill");

    // Resume: only unfinished points are resimulated; the merged output
    // must be byte-identical to the uninterrupted reference.
    let resume = ["--only=C-", "--resume=journal.jsonl"];
    let resumed = sweep(&dir, "resumed", &resume);
    assert!(
        resumed.stderr.contains(&format!("resumed {checkpointed} point(s)")),
        "banner does not report the restored checkpoint: {}",
        resumed.stderr
    );
    assert!(reference.dump == resumed.dump, "resume changed the statistics");

    // The journal is now complete: with the cache gone (a sweep clears
    // it), every point comes back from the journal and none is simulated.
    let restored = sweep(&dir, "restored", &resume);
    assert!(
        restored.stderr.contains(&format!("resumed {POINTS} point(s)")),
        "a complete journal did not restore every point: {}",
        restored.stderr
    );
    assert_eq!(num(&restored.report, &["registry", "memo.simulated"]), 0.0);
    assert!(reference.dump == restored.dump, "a full restore changed the statistics");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Seed 1 over the whole grid injects panics, stalls and cache
/// corruption into about a quarter of the 112 points (how seeds are
/// vetted: `cargo run -p dcl1-resilience --example census`). The sweep
/// must exit 0, quarantine the persistent-panic points and only those,
/// and leave every other point byte-identical to a fault-free run.
#[test]
fn chaos_sweep_converges_to_fault_free_bytes() {
    const SEED: u64 = 1;
    let dir = scratch("chaos");
    let reference = sweep(&dir, "ref", &[] as &[&str]);
    let chaos = sweep(&dir, "chaos", &[format!("--chaos={SEED}")]);
    assert_eq!(num(&chaos.report, &["chaos_seed"]), SEED as f64);

    let (want, got) = (split_dump(&reference.dump), split_dump(&chaos.dump));
    assert_eq!(want.len(), 112);
    let lost = quarantined(&chaos.report);
    let missing: BTreeSet<&str> = want.keys().filter(|p| !got.contains_key(*p)).copied().collect();
    assert_eq!(missing, lost, "the missing points are not the quarantined ones");
    let divergent: Vec<&&str> = got.keys().filter(|p| got[*p] != want[*p]).collect();
    assert!(divergent.is_empty(), "chaos changed the statistics of {divergent:?}");

    // What was injected is what was recovered from.
    let cfg = GpuConfig::default();
    let labels: Vec<String> =
        grid::build_grid(&grid::default_designs(&cfg), &[], &cfg, SimOptions::default())
            .iter()
            .map(runner::point_label)
            .collect();
    let census = Chaos::new(SEED).census(&labels);
    assert_eq!(lost.len(), census.persistent_panics);
    assert!(census.persistent_panics >= 1 && census.stalls >= 1 && census.corruptions >= 1);
    let recovered = |what: &str| num(&chaos.report, &["recovery", what]);
    assert!(recovered("retries") >= 1.0, "no retries: faults were not injected");
    assert!(recovered("livelocks") >= 1.0, "no stall was caught by the watchdog");
    assert!(recovered("cache_corruptions") >= 1.0, "no cache corruption was detected");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flat_cache_entries_migrate_into_fanout_on_reopen() {
    let dir = scratch("migrate");
    let one_point = ["--only=C-BLK", "--design=pr4"];
    sweep(&dir, "cold", &one_point);

    // Rewind the layout to the legacy flat v3 scheme: hoist the entry out
    // of its fan-out bucket and plant stale schema dirs beside v3.
    let v3 = dir.join("cache").join("v3");
    let mut hoisted = 0;
    for bucket in std::fs::read_dir(&v3).expect("v3 exists").map(|e| e.expect("dir entry").path())
    {
        if bucket.is_dir() && bucket.file_name().is_some_and(|n| n.len() == 2) {
            for entry in
                std::fs::read_dir(&bucket).expect("bucket").map(|e| e.expect("bucket entry").path())
            {
                std::fs::rename(&entry, v3.join(entry.file_name().expect("entry name")))
                    .expect("hoist entry to flat layout");
                hoisted += 1;
            }
            std::fs::remove_dir(&bucket).expect("remove emptied bucket");
        }
    }
    assert_eq!(hoisted, 1, "the one-point sweep must have cached exactly one entry");
    for stale in ["v1", "v2"] {
        let d = dir.join("cache").join(stale);
        std::fs::create_dir_all(&d).expect("stale schema dir");
        std::fs::write(d.join("junk.stats"), "junk").expect("stale entry");
    }

    // Reopening migrates (renames) the flat entry into its bucket, purges
    // the stale schema dirs, and serves the point from disk — zero
    // resimulation. (`--keep-cache` skips the sweep's default cache clear.)
    let warm = finish(sweep_cmd(&dir).arg("--keep-cache").args(one_point), "warm");
    for (counter, want) in
        [("memo.migrated_entries", 1.0), ("memo.disk_hits", 1.0), ("memo.simulated", 0.0)]
    {
        assert_eq!(num(&warm.report, &["registry", counter]), want, "{counter}");
    }
    let flat_leftovers = std::fs::read_dir(&v3)
        .expect("v3 exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.is_file())
        .count();
    assert_eq!(flat_leftovers, 0, "flat entries must be renamed away, not copied");
    assert!(
        !dir.join("cache").join("v1").exists() && !dir.join("cache").join("v2").exists(),
        "stale schema dirs must be purged on open"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_off_supervision_is_a_no_op() {
    let dir = scratch("noop");
    let plain = sweep(&dir, "sweep", &["--only=C-BLK", "--design=pr4"]);
    assert_eq!(util::at(&plain.report, &["chaos_seed"]), &Json::Null, "chaos armed without a flag");
    for field in
        ["retries", "quarantines", "cache_corruptions", "livelocks", "deadlines", "resumed_points"]
    {
        assert_eq!(num(&plain.report, &["recovery", field]), 0.0, "{field} on a clean run");
    }
    assert!(quarantined(&plain.report).is_empty(), "quarantine list not empty");

    // Entries live under the current schema-version directory, fanned out
    // into two-hex-digit buckets, and the integrity header is the only
    // addition to the body.
    let v3 = dir.join("cache").join("v3");
    let entries: Vec<PathBuf> = std::fs::read_dir(&v3)
        .expect("v3 cache dir exists")
        .flat_map(|e| {
            let p = e.expect("dir entry").path();
            if p.is_dir() {
                std::fs::read_dir(&p)
                    .expect("bucket dir")
                    .map(|e| e.expect("bucket entry").path())
                    .collect::<Vec<_>>()
            } else {
                vec![p]
            }
        })
        .filter(|p| p.extension().is_some_and(|x| x == "stats"))
        .collect();
    assert_eq!(entries.len(), 1, "expected exactly one cached point in {}", v3.display());
    let entry = read(&entries[0]);
    let first = entry.lines().next().unwrap_or_default();
    assert!(
        first.starts_with("checksum ") && first.len() == "checksum ".len() + 16,
        "entry header is not a 16-hex checksum line: {first:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
