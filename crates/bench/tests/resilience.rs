//! End-to-end supervision acceptance against the real `perf_sweep`
//! binary: a killed sweep resumes from its disk tier to byte-identical
//! statistics, a chaos-riddled sweep converges to the
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
use dcl1_resilience::{Chaos, Fault};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Stdio;
use util::{finish, num, quarantined, read, scratch, split_dump, sweep, sweep_cmd};

/// The finished entries under a schema directory
/// (`cache/v3/<bucket>/*.stats`); an interrupted write's temp file is not
/// one.
fn stored_entries(v3: &Path) -> Vec<PathBuf> {
    let list = |dir: &Path| -> Vec<PathBuf> {
        std::fs::read_dir(dir).map(|d| d.flatten().map(|e| e.path()).collect()).unwrap_or_default()
    };
    list(v3)
        .iter()
        .flat_map(|bucket| list(bucket))
        .filter(|p| p.extension().is_some_and(|x| x == "stats"))
        .collect()
}

#[test]
fn killed_sweep_resumes_to_byte_identical_stats() {
    let dir = scratch("resume");
    let cache = dir.join("cache");
    let stored_now = || stored_entries(&cache.join("v3")).len();
    // The seven C- apps at the default four designs.
    const POINTS: f64 = 28.0;

    // Reference: one uninterrupted sweep. Its entries go, so that every
    // entry the victim is seen to hold is its own.
    let reference = sweep(&dir, "ref", &["--only=C-"]);
    std::fs::remove_dir_all(&cache).expect("remove the reference's cache");

    // Victim: the same sweep, killed once its disk tier holds at least
    // one finished point. (If the sweep finishes before the kill lands,
    // the tier simply holds every point — the contract below is the same.)
    let mut child = sweep_cmd(&dir)
        .args(["--only=C-", "--json=victim.json"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn victim sweep");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    loop {
        let exited = child.try_wait().expect("poll victim").is_some();
        if stored_now() >= 1 || exited {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "victim never stored a point");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let _ = child.kill();
    let _ = child.wait();
    let stored = stored_now();
    assert!(stored >= 1, "the disk tier is empty after the kill");

    // Rerun on the same cache: every stored point is a disk hit, only the
    // rest are simulated, and the output is byte-identical to the
    // uninterrupted reference.
    let resume = ["--only=C-", "--keep-cache"];
    let resumed = sweep(&dir, "resumed", &resume);
    let memo = |run: &util::Sweep, counter: &str| num(&run.report, &["registry", counter]);
    assert_eq!(memo(&resumed, "memo.disk_hits"), stored as f64, "stored points not served");
    assert_eq!(memo(&resumed, "memo.simulated"), POINTS - stored as f64);
    assert!(reference.dump == resumed.dump, "resume changed the statistics");

    // The tier now holds every point: a second rerun simulates none.
    let restored = sweep(&dir, "restored", &resume);
    assert_eq!(memo(&restored, "memo.simulated"), 0.0);
    assert_eq!(memo(&restored, "memo.disk_hits"), POINTS);
    assert!(reference.dump == restored.dump, "a full restore changed the statistics");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Seed 1 over the whole grid injects panics, stalls and cache
/// corruption into about a fifth of the 112 points (how seeds are
/// vetted: `cargo run -p dcl1-resilience --example census`). The sweep
/// must exit 0, quarantine the panic and stall points and only those,
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
    let chaos_at = Chaos::new(SEED);
    let census = chaos_at.census(&labels);
    assert!(census.persistent_panics >= 1 && census.stalls >= 1 && census.corruptions >= 1);
    let injected: BTreeSet<&str> = labels
        .iter()
        .filter(|p| matches!(chaos_at.fault_for(p), Some(Fault::PersistentPanic | Fault::Stall)))
        .map(String::as_str)
        .collect();
    assert_eq!(lost, injected, "the quarantined points are not the panic and stall points");
    let recovered = |what: &str| num(&chaos.report, &["recovery", what]);
    assert_eq!(recovered("quarantines"), (census.persistent_panics + census.stalls) as f64);
    assert_eq!(recovered("livelocks"), census.stalls as f64, "a stall escaped the watchdog");
    assert_eq!(recovered("cache_corruptions"), census.corruptions as f64);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Under `--check` a failed point runs a second time, and a deterministic
/// failure must repeat with the same class and error text. One seed-1
/// panic point and one seed-1 stall point therefore keep their classes;
/// neither is reported as nondeterminism.
#[test]
fn checked_chaos_failures_repeat_their_class() {
    const SEED: u64 = 1;
    let cfg = GpuConfig::default();
    let grid = |only: &[String]| {
        grid::build_grid(&grid::default_designs(&cfg), only, &cfg, SimOptions::default())
    };
    let labels: Vec<String> = grid(&[]).iter().map(runner::point_label).collect();
    // The first point of `fault` whose label, as `--only`, selects it alone.
    let pick = |fault: Fault| {
        labels
            .iter()
            .find(|p| {
                Chaos::new(SEED).fault_for(p) == Some(fault) && grid(&[(*p).clone()]).len() == 1
            })
            .unwrap_or_else(|| panic!("seed {SEED} has no lone {fault:?} point"))
            .clone()
    };
    let (panic_point, stall_point) = (pick(Fault::PersistentPanic), pick(Fault::Stall));

    let dir = scratch("check-chaos");
    let args = [
        "--check".to_string(),
        format!("--chaos={SEED}"),
        format!("--only={panic_point}"),
        format!("--only={stall_point}"),
    ];
    let run = sweep(&dir, "checked", &args);
    let mut got: Vec<(&str, &str)> = util::list(&run.report, &["quarantined"])
        .iter()
        .map(|q| (util::text(q, &["point"]), util::text(q, &["class"])))
        .collect();
    let mut want = [(panic_point.as_str(), "panic"), (stall_point.as_str(), "livelock")];
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want, "a deterministic failure changed on its rerun");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_schema_dirs_are_purged_and_entries_served_on_reopen() {
    let dir = scratch("purge");
    let one_point = ["--only=C-BLK", "--design=pr4"];
    sweep(&dir, "cold", &one_point);
    for stale in ["v1", "v2"] {
        let d = dir.join("cache").join(stale);
        std::fs::create_dir_all(&d).expect("stale schema dir");
        std::fs::write(d.join("junk.stats"), "junk").expect("stale entry");
    }

    // Reopening purges the stale schema dirs and serves the point from
    // disk — zero resimulation. (`--keep-cache` skips the sweep's default
    // cache clear.)
    let warm = finish(sweep_cmd(&dir).arg("--keep-cache").args(one_point), "warm");
    for (counter, want) in [("memo.disk_hits", 1.0), ("memo.simulated", 0.0)] {
        assert_eq!(num(&warm.report, &["registry", counter]), want, "{counter}");
    }
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
    for field in ["quarantines", "cache_corruptions", "livelocks", "deadlines"] {
        assert_eq!(num(&plain.report, &["recovery", field]), 0.0, "{field} on a clean run");
    }
    assert!(quarantined(&plain.report).is_empty(), "quarantine list not empty");

    // Entries live under the current schema-version directory, fanned out
    // into two-hex-digit buckets, and the integrity header is the only
    // addition to the body.
    let v3 = dir.join("cache").join("v3");
    let entries = stored_entries(&v3);
    assert_eq!(entries.len(), 1, "expected exactly one cached point in {}", v3.display());
    let entry = read(&entries[0]);
    let first = entry.lines().next().unwrap_or_default();
    assert!(
        first.starts_with("checksum ") && first.len() == "checksum ".len() + 16,
        "entry header is not a 16-hex checksum line: {first:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
