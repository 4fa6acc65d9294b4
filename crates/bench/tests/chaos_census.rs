//! Satellite: the chaos corruption census must land on real cache entries.
//!
//! `Chaos` aims its post-write corruption at the v3 fan-out disk layout
//! and at the shared tier's write-back copy. If the schema moves and the
//! injector keeps scribbling on paths nobody reads, the corruption
//! recovery path silently stops being tested — a green chaos suite over a
//! dead fault injector. This census closes that hole: every point the
//! engine claims to corrupt must resolve to a real bucketed v3 entry that
//! was (a) detected and quarantined locally, (b) healed by a re-store,
//! and (c) left detectably corrupt in the shared tier, whose rejection is
//! each reader's own job (healing is local-only by design).

mod util;

use dcl1::{GpuConfig, SimOptions};
use dcl1_bench::{grid, runner, Scale};
use dcl1_common::checksum;
use dcl1_resilience::Chaos;
use std::path::Path;
use util::{finish, num, scratch, sweep_cmd};

/// The apps this census sweeps, each restricted to two designs so the
/// in-test request list models the sweep's point set exactly.
const CENSUS_APPS: [&str; 4] = ["C-BLK", "C-RAY", "C-BFS", "C-NN"];

/// The exact requests `perf_sweep --only=<app> --design=pr4 --design=sh16`
/// runs (fast-forward defaults on), so `memo_key_hex` yields the same
/// keys the sweep writes under.
fn census_requests() -> Vec<runner::RunRequest> {
    let cfg = GpuConfig::default();
    let designs = grid::parse_designs(&["pr4".to_string(), "sh16".to_string()], &cfg)
        .expect("census designs parse");
    let only: Vec<String> = CENSUS_APPS.iter().map(|a| (*a).to_string()).collect();
    let opts = SimOptions { fast_forward: true, ..SimOptions::default() };
    grid::build_grid(&designs, &only, &cfg, opts)
}

/// Whether the file at `path` is an intact cache entry: a
/// `checksum <hex>` header whose digest verifies the body. Mirrors the
/// disk tier's own load-time check.
fn entry_intact(path: &Path) -> bool {
    let Ok(text) = std::fs::read_to_string(path) else { return false };
    let Some(rest) = text.strip_prefix("checksum ") else { return false };
    let Some((digest, body)) = rest.split_once('\n') else { return false };
    checksum::verify_hex(body.as_bytes(), digest)
}

#[test]
fn chaos_corruption_census_lands_on_v3_bucketed_entries() {
    let reqs = census_requests();
    let labels: Vec<String> = reqs.iter().map(runner::point_label).collect();
    assert_eq!(labels.len(), 8, "census subset is 4 apps x 2 designs");

    // A seed that corrupts at least one entry and quarantines nothing, so
    // the sweep exits 0 with every point completed and healed.
    let seed = (0..200_000u64)
        .find(|&s| {
            let c = Chaos::new(s).census(&labels);
            c.persistent_panics == 0 && c.corruptions >= 1
        })
        .expect("no corruption seed in range");
    let census = Chaos::new(seed).census(&labels);
    let victims = Chaos::new(seed).corruption_points(&labels);
    assert_eq!(victims.len(), census.corruptions, "census and point list disagree");

    let dir = scratch("census");
    let mut args: Vec<String> = CENSUS_APPS.iter().map(|a| format!("--only={a}")).collect();
    args.extend(["--design=pr4".to_string(), "--design=sh16".to_string()]);
    args.push(format!("--chaos={seed}"));
    let sweep =
        finish(sweep_cmd(&dir).env("DCL1_CACHE_SHARED_DIR", dir.join("shared")).args(&args), "sweep");

    // Every corruption the engine claims must have landed on the real
    // fan-out layout: healed local entry, still-corrupt shared copy.
    for point in &victims {
        let req = reqs
            .iter()
            .find(|r| &runner::point_label(r) == point)
            .unwrap_or_else(|| panic!("corruption point {point} not in the census grid"));
        let key = runner::memo_key_hex(req, Scale::Smoke);

        let local = dir.join("cache").join("v3").join(&key[..2]).join(format!("{key}.stats"));
        assert!(local.is_file(), "{point}: no v3 bucketed entry at {}", local.display());
        assert!(
            entry_intact(&local),
            "{point}: local entry not healed after corruption recovery"
        );

        let shared = dir.join("shared").join("v3").join(&key[..2]).join(format!("{key}.stats"));
        assert!(shared.is_file(), "{point}: no shared write-back at {}", shared.display());
        assert!(
            !entry_intact(&shared),
            "{point}: shared copy passes its checksum — the injection missed the shared tier"
        );
    }

    // The recovery ledger saw exactly the injected corruptions (each one
    // detected once, locally), and the quarantine dir holds the damaged
    // originals.
    assert_eq!(
        num(&sweep.report, &["recovery", "cache_corruptions"]),
        census.corruptions as f64,
        "seed {seed}: ledger disagrees with the census"
    );
    let qdir = dir.join("cache").join("v3").join("quarantine");
    let quarantined = std::fs::read_dir(&qdir)
        .map(|it| it.filter_map(Result::ok).count())
        .unwrap_or(0);
    assert!(
        quarantined >= census.corruptions,
        "seed {seed}: {} quarantined file(s), census says {}",
        quarantined,
        census.corruptions
    );

    let _ = std::fs::remove_dir_all(&dir);
}
