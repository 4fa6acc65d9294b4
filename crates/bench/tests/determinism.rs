//! Intra-point determinism acceptance: partitioning the machine into any
//! number of execution domains — worker threads on or off — must not move
//! a single byte of statistics, and must not change a point's memo-cache
//! identity.
//!
//! The machine-level tests build the machines directly rather than
//! through `runner::run_app` so a memoized result can never satisfy (and
//! so mask) the comparison: every leg of the grid actually simulates. The
//! sweep-level test drives `perf_sweep --workers=N` over all 112 points,
//! each run on a cleared cache.

mod util;

use dcl1::{Design, GpuConfig, GpuSystem, SimOptions};
use dcl1_bench::runner::{self, RunRequest};
use dcl1_bench::Scale;
use dcl1_workloads::by_name;
use std::collections::BTreeSet;
use std::str::FromStr;
use util::{num, quarantined, scratch, split_dump, sweep, text};

/// The designs the grid covers, with their NoC#1 cluster counts — the
/// cap on execution domains, since a domain holds whole clusters: a
/// private aggregation (4 crossbars), the fully shared design (one big
/// crossbar, so it never shards), and the clustered flagship (8).
const GRID_DESIGNS: [(&str, usize); 3] = [("pr4", 4), ("sh16", 1), ("sh16+c8+boost", 8)];

/// Simulates C-BLK at smoke scale with `shards` execution domains
/// requested (`clusters` caps what the machine grants) and returns the
/// canonical byte dump of the full `RunStats` (every field, fixed
/// formatting — the same artifact sweep CI diffs).
fn canonical(design: &Design, clusters: usize, shards: usize, force_threads: bool) -> String {
    let cfg = GpuConfig::default();
    let app = by_name("C-BLK").expect("C-BLK workload").scaled(1, 16);
    let opts =
        SimOptions { warmup_instructions: app.total_instructions() / 3, ..SimOptions::default() };
    let mut sys =
        GpuSystem::build(&cfg, design, &app, opts).unwrap_or_else(|e| panic!("build: {e}"));
    sys.set_shards(shards);
    assert_eq!(sys.shards(), shards.clamp(1, clusters), "{}: domains granted", design.name());
    if force_threads {
        sys.set_shard_threads(true);
    }
    let stats = sys.run();
    runner::canonical_stats_dump(&[(design.name(), stats)])
}

#[test]
fn sharded_stats_match_sequential_across_grid() {
    for (name, clusters) in GRID_DESIGNS {
        let design = Design::from_str(name).unwrap_or_else(|e| panic!("{name}: {e}"));
        let sequential = canonical(&design, clusters, 1, false);
        for shards in [2, 4, 8] {
            let sharded = canonical(&design, clusters, shards, false);
            assert_eq!(
                sharded, sequential,
                "{name}: stats differ between 1 and {shards} shards"
            );
        }
    }
}

#[test]
fn forced_thread_pool_matches_sequential() {
    // Threads default off on small hosts; forcing the pool on exercises
    // the real submit/barrier/merge path regardless of core count — on
    // every design that grants more than one domain.
    for (name, clusters) in GRID_DESIGNS.into_iter().filter(|&(_, clusters)| clusters > 1) {
        let design = Design::from_str(name).unwrap_or_else(|e| panic!("{name}: {e}"));
        let sequential = canonical(&design, clusters, 1, false);
        for shards in [2, 4] {
            let pooled = canonical(&design, clusters, shards, true);
            assert_eq!(pooled, sequential, "{name}: thread pool changed stats at {shards} shards");
        }
    }
}

#[test]
fn infeasible_topologies_clamp_to_one_domain() {
    let cfg = GpuConfig::default();
    let app = by_name("C-BLK").expect("C-BLK workload").scaled(1, 16);
    let mut sys = GpuSystem::build(&cfg, &Design::IdealSingleL1, &app, SimOptions::default())
        .expect("build ideal");
    sys.set_shards(8);
    assert_eq!(sys.shards(), 1, "ideal single L1 must stay sequential");
}

#[test]
fn memo_key_is_independent_of_shard_count() {
    // The shard count is an execution strategy, not a simulation input:
    // a sharded and a sequential run share one cache entry, which is only
    // sound because their stats are byte-identical (tests above).
    let design = Design::from_str("pr4").expect("pr4 parses");
    let req = RunRequest::new(by_name("C-BLK").expect("C-BLK workload"), design);
    runner::set_shard_override(1);
    let key_seq = runner::memo_key_hex(&req, Scale::Smoke);
    runner::set_shard_override(8);
    let key_sharded = runner::memo_key_hex(&req, Scale::Smoke);
    runner::set_shard_override(0);
    assert_eq!(key_seq, key_sharded, "shard override leaked into the memo key");
}

/// `--workers=4` shards every machine of the smoke grid across 4
/// execution domains (Sh40's single crossbar clamps to one; the other
/// three designs run all 4). Domains hold whole NoC#1 clusters, so the
/// shard count is an execution strategy, not a simulation input: the dump
/// must not move. A chaos-injected sharded point then shows quarantine
/// isolates a failure: S-SPMV/Sh40 persistently panics under seed 1, and
/// the clean points sharing its sweep still match the sequential bytes.
#[test]
fn four_domain_sweep_matches_the_sequential_sweep() {
    let dir = scratch("parallel");
    let seq = sweep(&dir, "seq", &["--workers=1"]);
    let par = sweep(&dir, "par", &["--workers=4"]);
    assert!(seq.dump == par.dump, "4 domains changed the statistics");
    assert_eq!(text(&seq.report, &["stats_digest"]), text(&par.report, &["stats_digest"]));
    assert_eq!(num(&seq.report, &["totals", "points"]), 112.0);
    assert_eq!(num(&seq.report, &["shards", "effective_max"]), 1.0);
    assert_eq!(num(&par.report, &["shards", "requested"]), 4.0);
    assert_eq!(num(&par.report, &["shards", "effective_max"]), 4.0);

    // `--only` is a substring filter, so Sh40 also selects the
    // Sh40+C10+Boost points; all of those run clean under seed 1.
    let chaos = sweep(
        &dir,
        "chaos-par",
        &["--chaos=1", "--workers=4", "--only=S-SPMV/Sh40", "--only=C-BLK/Sh40"],
    );
    assert_eq!(quarantined(&chaos.report), BTreeSet::from(["S-SPMV/Sh40"]));
    let (want, got) = (split_dump(&seq.dump), split_dump(&chaos.dump));
    let clean = ["C-BLK/Sh40", "C-BLK/Sh40+C10+Boost", "S-SPMV/Sh40+C10+Boost"];
    assert_eq!(got.keys().copied().collect::<Vec<_>>(), clean);
    for point in clean {
        assert!(got[point] == want[point], "clean point {point} diverged beside a quarantine");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
