//! A seed may change the order in which work is submitted and nothing
//! else: two seeds must pass the same pinned-digest gate and report the
//! same exact counts. Runs every workload traced at the shortest length
//! (`--seconds 1`: one pass over each point set, 10 warm tenant rounds),
//! so it also checks the attribution rules that need a real run to check.
//!
//! One test function on purpose: the runs are timed and sized for the
//! whole machine, so they must not run side by side.

use dcl1_benchmark::compare::exact_count;
use dcl1_benchmark::json::{self, Json};
use std::collections::BTreeMap;
use std::process::Command;

/// Runs one traced workload through the real binary and returns its
/// metrics by name.
fn traced_run(workload: &str, seed: u64) -> BTreeMap<String, f64> {
    let out = Command::new(env!("CARGO_BIN_EXE_dcl1-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
            "--trace",
            "1",
        ])
        // The harness reads BENCHMARK.json from the root of the checkout.
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("start the benchmark binary");
    assert!(
        out.status.success(),
        "{workload} seed {seed} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let doc =
        Json::parse(stdout.lines().last().expect("a result line")).expect("result line is JSON");
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(json::get_u64(&doc, "failed").unwrap(), 0);
    json::members(doc.get("metrics").expect("metrics"), "metrics")
        .unwrap()
        .iter()
        .map(|(name, m)| (name.clone(), json::get_f64(m, "value").unwrap()))
        .collect()
}

#[test]
fn two_seeds_give_identical_digests_and_exact_counts() {
    let mut by_workload = BTreeMap::new();
    for workload in ["sweep_cold", "shard_pair", "daemon_cold", "daemon_warm"] {
        // Passing the run at all means both seeds matched the pinned
        // digests; the counts are compared here.
        let (a, b) = (traced_run(workload, 11), traced_run(workload, 12));
        assert_eq!(a.keys().collect::<Vec<_>>(), b.keys().collect::<Vec<_>>());
        let mut exact = 0;
        for (name, value) in &a {
            if exact_count(workload, name) {
                assert_eq!(value, &b[name], "{workload}: {name} differs between seeds");
                exact += 1;
            }
        }
        assert!(
            exact >= 11,
            "{workload}: only {exact} exact counts were compared"
        );
        by_workload.insert(workload, a);
    }

    let (cold, pair, dcold, warm) = (
        &by_workload["sweep_cold"],
        &by_workload["shard_pair"],
        &by_workload["daemon_cold"],
        &by_workload["daemon_warm"],
    );
    // The same 112 points run through the sweep and through the daemon.
    for name in [
        "dcl1.steps",
        "dcl1.sim_cycles",
        "gpu.instructions",
        "noc.noc1_flits",
        "cache.mshr_allocs",
    ] {
        assert!(cold[name] > 0.0, "{name} is 0 on sweep_cold");
        assert_eq!(cold[name], dcold[name], "{name}: sweep vs daemon");
        assert_eq!(
            warm[name], 0.0,
            "{name}: the kernel must be idle on daemon_warm"
        );
    }
    assert_eq!(cold["dcl1.sim_cycles"], 1_531_136.0);

    // The four kernel phases account for the profiled time of a cold sweep.
    let shares = cold["gpu.issue_share"]
        + cold["noc.noc1_share"]
        + cold["mem.noc2_mem_share"]
        + cold["dcl1.exchange_share"];
    assert!(shares >= 0.97, "kernel phase shares sum to {shares}");
    // Barrier wait exists only where shard threads do.
    assert_eq!(cold["dcl1.barrier_wait_s"], 0.0);
    assert_eq!(cold["dcl1.barrier_wait_share"], 0.0);
    assert!(pair["dcl1.barrier_wait_s"] > 0.0);
    assert!(pair["dcl1.default_cfg_slowdown_x"] > 1.0);

    // Warm: every job is a store hit, the first touch of each key from disk.
    assert_eq!(warm["store.disk_hits"], 112.0);
    assert_eq!(warm["store.mem_hits"], 10.0 * 112.0 - 112.0);
    assert_eq!(warm["bench.points_simulated"], 0.0);
    assert_eq!(warm["dcl1d.jobs_accepted"], 1120.0);
    assert_eq!(warm["dcl1d.status_samples"], 10.0);
    // Cold daemon: 56 duplicate jobs are served by the store, never resimulated.
    assert_eq!(dcold["bench.points_simulated"], 112.0);
    assert_eq!(dcold["store.mem_hits"], 56.0);
}
