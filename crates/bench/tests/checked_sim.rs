//! `--check` acceptance: over the three CI design points, a run under the
//! conservation-invariant harness (a) completes with every epoch sweep
//! passing and (b) produces statistics byte-identical to an unchecked run
//! of the same point — on one domain and on two with the shard pool
//! forced on, so the laws are swept over the pooled region pipeline too.
//!
//! Builds the machines directly rather than through `runner::run_app` so
//! the test neither flips the process-global check mode (which would race
//! with other tests in this binary) nor touches the on-disk memo.

use dcl1::{Design, GpuConfig, GpuSystem, RunStats, SimOptions};
use dcl1_workloads::by_name;
use std::str::FromStr;

/// The design points the CI smoke job exercises with `--check`.
const CI_POINTS: [&str; 3] = ["pr4", "sh16", "sh16+c8+boost"];

/// Simulates C-BLK at smoke scale (1/16 traces, warmup over the first
/// third — the same shaping `runner::run_app` applies) on up to `shards`
/// domains (pooled when more than one), optionally under the invariant
/// harness. Returns the stats and the epochs checked.
fn simulate(design: &Design, check: bool, shards: usize) -> (RunStats, u64) {
    let cfg = GpuConfig::default();
    let app = by_name("C-BLK").expect("C-BLK workload").scaled(1, 16);
    let opts =
        SimOptions { warmup_instructions: app.total_instructions() / 3, ..SimOptions::default() };
    let mut sys =
        GpuSystem::build(&cfg, design, &app, opts).unwrap_or_else(|e| panic!("build: {e}"));
    sys.set_shards(shards);
    sys.set_shard_threads(true);
    if check {
        sys.enable_check();
    }
    let stats = sys.run();
    let epochs = sys.checker().map_or(0, |ck| ck.epochs_checked);
    (stats, epochs)
}

#[test]
fn checked_runs_are_byte_identical_and_sweep_invariants() {
    for name in CI_POINTS {
        let design = Design::from_str(name).unwrap_or_else(|e| panic!("{name}: {e}"));
        let (plain, _) = simulate(&design, false, 1);
        for shards in [1, 2] {
            let (checked, epochs) = simulate(&design, true, shards);
            assert_eq!(checked, plain, "{name}: --check at {shards} shard(s) changed the statistics");
            // At least the drain sweep must have run; real runs also cross
            // many epoch boundaries.
            assert!(epochs > 0, "{name}: invariant harness never swept");
        }
    }
}
