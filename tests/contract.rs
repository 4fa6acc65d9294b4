//! The contract: the statistics this simulator produces for its pinned
//! point sets, as digests of the canonical dump. Everything else in the
//! repository may change; a change that moves one of these either fixes a
//! modelling bug (and says so, with the new value) or is a regression.
//!
//! Every sweep here simulates: the runner's store is pointed at an empty
//! private directory first, and stepping and fast-forward differ in their
//! memo keys.

mod util;

use dcl1::{GpuConfig, RunStats, SimOptions};
use dcl1_bench::runner::{self, RunRequest};
use dcl1_bench::{grid, Scale};
use std::sync::OnceLock;

/// 28 apps × the default four designs at smoke scale.
const GRID_DIGEST: &str = "18859340e85217ad";
const GRID_CYCLES: u64 = 1_531_136;

/// The three apps that carry 55 % of the grid's cycles (`benchmark/`'s
/// `shard_pair` point set).
const HEAVY_APPS: [&str; 3] = ["P-GEMM/", "C-RAY/", "P-3MM/"];
const HEAVY_DIGEST: &str = "de0ebeec97771a72";
const HEAVY_CYCLES: u64 = 842_816;

/// What the grid never builds: `Single` NoC#2 with ideal ports and under
/// 2× clock / 4× flits, `Sliced{2}` / `Sliced{16}`, and the two-stage
/// CDXBar at all three clockings — 13 designs × 5 apps.
const ALL_SHAPES_DESIGNS: [&str; 13] = [
    "ideal",
    "cdxbar",
    "cdxbar+2xnoc1",
    "cdxbar+2xnoc",
    "baseline+2xnoc",
    "baseline+4xflit",
    "baseline+2xl1",
    "pr4",
    "sh16",
    "sh16+c8+boost",
    "pr80",
    "sh80",
    "sh40+c10",
];
const ALL_SHAPES_APPS: [&str; 5] = ["C-BLK", "P-GEMM", "S-SPMV", "T-AlexNet", "C-RAY"];
const ALL_SHAPES_DIGEST: &str = "0354cff3c9a15ccd";
const ALL_SHAPES_CYCLES: u64 = 1_955_328;

fn strings(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| (*s).to_string()).collect()
}

/// The requests `perf_sweep --design=.. --only=..` builds.
fn requests(designs: &[&str], only: &[&str], fast_forward: bool) -> Vec<RunRequest> {
    let cfg = GpuConfig::default();
    let designs = grid::parse_designs(&strings(designs), &cfg).expect("designs parse");
    let opts = SimOptions { fast_forward, ..SimOptions::default() };
    grid::build_grid(&designs, &strings(only), &cfg, opts)
}

/// Sweeps `reqs` at smoke scale; every point must complete.
fn sweep(reqs: &[RunRequest]) -> Vec<(String, RunStats)> {
    let outcome = runner::run_apps_supervised(reqs, Scale::Smoke, runner::effective_workers());
    assert!(outcome.quarantined.is_empty(), "quarantined: {:?}", outcome.quarantined);
    reqs.iter().map(runner::point_label).zip(outcome.results.into_iter().flatten()).collect()
}

/// A failure shows the point count, total cycles and digest together.
fn assert_pinned(points: &[(String, RunStats)], count: usize, cycles: u64, digest: &str) {
    let simulated: u64 = points.iter().map(|(_, s)| s.cycles).sum();
    assert_eq!(
        (points.len(), simulated, runner::stats_digest(points).as_str()),
        (count, cycles, digest)
    );
}

/// The 112-point grid with fast-forward on, simulated once per process.
fn smoke_grid() -> &'static [(String, RunStats)] {
    static GRID: OnceLock<Vec<(String, RunStats)>> = OnceLock::new();
    GRID.get_or_init(|| sweep(&requests(&[], &[], true)))
}

#[test]
fn smoke_grid_digest() {
    let _store = util::private_store();
    assert_pinned(smoke_grid(), 112, GRID_CYCLES, GRID_DIGEST);
}

/// A component outside its occupancy set is not clocked; on wake it is
/// caught up with the calls whole-machine fast-forward uses. So the grid
/// stepped cycle by cycle must dump the same bytes.
#[test]
fn stepping_and_fast_forward_dump_the_same_bytes() {
    let _store = util::private_store();
    let stepped = sweep(&requests(&[], &[], false));
    assert!(
        runner::canonical_stats_dump(&stepped) == runner::canonical_stats_dump(smoke_grid()),
        "stepped digest {} != fast-forward digest {}",
        runner::stats_digest(&stepped),
        runner::stats_digest(smoke_grid())
    );
}

/// The heavy set is a subset of the grid: served from the store the grid
/// filled, so this also pins the memo round trip.
#[test]
fn heavy_points_digest() {
    let _store = util::private_store();
    smoke_grid();
    let heavy = sweep(&requests(&[], &HEAVY_APPS, true));
    assert_pinned(&heavy, 12, HEAVY_CYCLES, HEAVY_DIGEST);
}

#[test]
fn all_shapes_digest() {
    let _store = util::private_store();
    let shapes = sweep(&requests(&ALL_SHAPES_DESIGNS, &ALL_SHAPES_APPS, true));
    assert_pinned(&shapes, 65, ALL_SHAPES_CYCLES, ALL_SHAPES_DIGEST);
}

/// With no sharding asked for, every machine runs as one domain with no
/// shard pool (4 default shards × nproc point threads once ran the grid
/// 80–800× slow).
#[test]
fn default_configuration_is_one_domain_with_no_barrier() {
    let _store = util::private_store();
    smoke_grid();
    assert_eq!(runner::effective_shards(), 1);
    let shards = runner::shard_sweep_stats();
    assert_eq!(shards.shards, 1, "a point ran on more than one domain");
    assert_eq!(shards.barrier_wait_nanos, 0, "one domain has no barrier to wait at");
}
