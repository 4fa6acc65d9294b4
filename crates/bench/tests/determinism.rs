//! Intra-point determinism acceptance: partitioning the machine into any
//! number of execution domains must not move a single byte of statistics,
//! and must not change a point's memo-cache identity.
//!
//! The machine-level tests build the machines directly rather than
//! through a session so a memoized result can never satisfy (and so mask)
//! the comparison: every leg of the grid actually simulates. The
//! sweep-level tests run sessions in this process, each on a directory of
//! its own, so every leg simulates there too.

mod util;

use dcl1::{Design, GpuConfig, GpuSystem, RunStats, SimOptions};
use dcl1_bench::runner::{self, RunRequest};
use dcl1_bench::{grid, Scale, SweepSession};
use dcl1_workloads::by_name;
use std::str::FromStr;
use util::{scratch, split_dump};

/// The designs the grid covers, with their NoC#1 cluster counts — the
/// cap on execution domains, since a domain holds whole clusters: a
/// private aggregation (4 crossbars), the fully shared design (one big
/// crossbar, so it never shards), and the clustered flagship (8).
const GRID_DESIGNS: [(&str, usize); 3] = [("pr4", 4), ("sh16", 1), ("sh16+c8+boost", 8)];

/// Simulates C-BLK at smoke scale with `shards` execution domains
/// requested (`clusters` caps what the machine grants) and returns the
/// canonical byte dump of the full `RunStats` (every field, fixed
/// formatting — the same artifact sweep CI diffs).
fn canonical(design: &Design, clusters: usize, shards: usize) -> String {
    let cfg = GpuConfig::default();
    let app = by_name("C-BLK").expect("C-BLK workload").scaled(1, 16);
    let opts =
        SimOptions { warmup_instructions: app.total_instructions() / 3, ..SimOptions::default() };
    let mut sys =
        GpuSystem::build(&cfg, design, &app, opts).unwrap_or_else(|e| panic!("build: {e}"));
    sys.set_shards(shards);
    assert_eq!(sys.shards(), shards.clamp(1, clusters), "{}: domains granted", design.name());
    let stats = sys.run();
    runner::canonical_stats_dump(&[(design.name(), stats)])
}

#[test]
fn sharded_stats_match_sequential_across_grid() {
    for (name, clusters) in GRID_DESIGNS {
        let design = Design::from_str(name).unwrap_or_else(|e| panic!("{name}: {e}"));
        let sequential = canonical(&design, clusters, 1);
        for shards in [2, 4, 8] {
            let sharded = canonical(&design, clusters, shards);
            assert_eq!(
                sharded, sequential,
                "{name}: stats differ between 1 and {shards} shards"
            );
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

/// The smoke grid's requests, as `perf_sweep` builds them, restricted to
/// the points whose label contains one of `only` (all of them when empty).
fn grid_points(only: &[&str]) -> Vec<RunRequest> {
    let cfg = GpuConfig::default();
    let only: Vec<String> = only.iter().map(|s| (*s).to_string()).collect();
    let opts = SimOptions { fast_forward: true, ..SimOptions::default() };
    grid::build_grid(&grid::default_designs(&cfg), &only, &cfg, opts)
}

/// The four points of the chaos leg (`--only` is a substring filter, so
/// Sh40 also selects Sh40+C10+Boost). Under seed 1, S-SPMV/Sh40 panics
/// and the other three run clean.
const CHAOS_POINTS: [&str; 2] = ["S-SPMV/Sh40", "C-BLK/Sh40"];
const CLEAN_BESIDE_CHAOS: [&str; 3] = ["C-BLK/Sh40", "C-BLK/Sh40+C10+Boost", "S-SPMV/Sh40+C10+Boost"];

/// `reqs` swept on `session`: the canonical dump of the completed points
/// and the labels of the quarantined ones.
fn sweep(session: &SweepSession, reqs: &[RunRequest]) -> (String, Vec<String>) {
    let outcome = session.run_points(reqs, Scale::Smoke);
    let done: Vec<(String, RunStats)> = reqs
        .iter()
        .zip(outcome.results)
        .filter_map(|(req, r)| r.map(|s| (runner::point_label(req), s)))
        .collect();
    (runner::canonical_stats_dump(&done), outcome.quarantined.into_iter().map(|q| q.point).collect())
}

/// `chaos`'s dump holds exactly the clean points of the chaos leg, each
/// with the bytes `clean` has for it.
fn assert_clean_points_match(chaos: &str, clean: &str) {
    let (got, want) = (split_dump(chaos), split_dump(clean));
    assert_eq!(got.keys().copied().collect::<Vec<_>>(), CLEAN_BESIDE_CHAOS);
    for point in CLEAN_BESIDE_CHAOS {
        assert!(got[point] == want[point], "clean point {point} diverged beside a quarantine");
    }
}

#[test]
fn memo_key_is_independent_of_shard_count() {
    // The shard count is an execution strategy, not a simulation input:
    // a 4-domain session on a 1-domain session's directory is served every
    // point by the disk tier, which is only sound because their stats are
    // byte-identical (tests above and below).
    let dir = scratch("memo-key");
    let reqs = grid_points(&["C-BLK/"]);
    let (cold, _) = sweep(&SweepSession::open(&dir), &reqs);
    let warm = SweepSession::open(&dir).with_shards(4);
    let (dump, quarantined) = sweep(&warm, &reqs);
    assert!(quarantined.is_empty() && dump == cold, "the warm 4-domain sweep moved");
    let m = warm.memo_stats();
    assert_eq!((m.simulated, m.disk_hits), (0, reqs.len() as u64), "shard count leaked into the key");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A 4-domain session sweeps every machine of the smoke grid across 4
/// execution domains (Sh40's single crossbar clamps to one; the other
/// three designs run all 4). Domains hold whole NoC#1 clusters, so the
/// shard count is an execution strategy, not a simulation input: the dump
/// must not move. A chaos-injected 4-domain session then shows quarantine
/// isolates a failure: S-SPMV/Sh40 persistently panics under seed 1, and
/// the clean points sharing its sweep still match the sequential bytes.
#[test]
fn four_domain_sweep_matches_the_sequential_sweep() {
    let dir = scratch("domains");
    let reqs = grid_points(&[]);
    let seq = SweepSession::open(&dir.join("seq"));
    let par = SweepSession::open(&dir.join("par")).with_shards(4);
    let (seq_dump, seq_quarantined) = sweep(&seq, &reqs);
    let (par_dump, par_quarantined) = sweep(&par, &reqs);
    assert!(seq_quarantined.is_empty() && par_quarantined.is_empty());
    assert!(seq_dump == par_dump, "4 domains changed the statistics");
    assert_eq!((seq.memo_stats().simulated, par.memo_stats().simulated), (112, 112));
    assert_eq!((seq.shard_stats().shards, par.shard_stats().shards), (1, 4));

    let chaos = SweepSession::open(&dir.join("chaos")).with_shards(4).with_chaos(Some(1));
    let (dump, quarantined) = sweep(&chaos, &grid_points(&CHAOS_POINTS));
    assert_eq!(quarantined, ["S-SPMV/Sh40"]);
    assert_clean_points_match(&dump, &seq_dump);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two sessions on two threads of this process, each on its own
/// directory, one clean and one under chaos seed 1, sweep the same four
/// points. Chaos is the session's, so the clean session sees no fault and
/// matches the same sweep run alone; the chaotic one quarantines only its
/// persistent panic, and its other points are the clean session's bytes.
#[test]
fn concurrent_sessions_keep_their_chaos_to_themselves() {
    let dir = scratch("side-by-side");
    let reqs = grid_points(&CHAOS_POINTS);
    let (solo, _) = sweep(&SweepSession::open(&dir.join("solo")), &reqs);
    let (clean, chaos) = (dir.join("clean"), dir.join("chaos"));
    let (clean, chaotic) = std::thread::scope(|s| {
        let clean = s.spawn(|| sweep(&SweepSession::open(&clean), &reqs));
        let chaotic = s.spawn(|| sweep(&SweepSession::open(&chaos).with_chaos(Some(1)), &reqs));
        (clean.join().expect("clean session"), chaotic.join().expect("chaos session"))
    });
    assert!(clean.1.is_empty(), "the clean session quarantined {:?}", clean.1);
    assert!(clean.0 == solo, "the clean session moved beside a chaotic one");
    assert_eq!(chaotic.1, ["S-SPMV/Sh40"]);
    assert_clean_points_match(&chaotic.0, &clean.0);
    let _ = std::fs::remove_dir_all(&dir);
}
