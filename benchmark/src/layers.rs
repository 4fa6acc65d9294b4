//! Per-layer numbers pulled, from outside, out of what the runner already
//! exposes: the sweep phase profile, the sweep registry, memo and shard
//! statistics. Layer = crate name. Nothing here touches the crates'
//! internals; a traced child calls this once, after its measured work.

use dcl1_bench::runner;
use dcl1_obs::profiler::Phase;
use std::collections::BTreeMap;

pub type Metrics = BTreeMap<String, f64>;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Fills `out` with every metric derived from the runner's process-wide
/// statistics. Counts are exact and must repeat across seeds; times are
/// host time.
pub fn pull_runner(out: &mut Metrics) {
    let profile = runner::sweep_phase_profile();
    let reg = runner::sweep_registry_snapshot();
    let memo = runner::memo_stats();
    let shard = runner::shard_sweep_stats();
    let recovery = runner::recovery_log();

    let secs = |p: Phase| profile.nanos(p) as f64 / 1e9;
    let count = |name: &str| reg.get(name).unwrap_or(0) as f64;
    let mut put = |name: &str, v: f64| {
        out.insert(name.to_string(), v);
    };

    let instructions = count("gpu.instructions");
    put("gpu.issue_s", secs(Phase::Issue));
    put("gpu.issue_share", profile.share(Phase::Issue));
    put("gpu.instructions", instructions);
    put(
        "gpu.ns_per_instr",
        ratio(profile.nanos(Phase::Issue) as f64, instructions),
    );

    let (noc1_flits, noc2_flits) = (count("noc.noc1_flits"), count("noc.noc2_flits"));
    put("noc.noc1_s", secs(Phase::Noc1));
    put("noc.noc1_share", profile.share(Phase::Noc1));
    put("noc.noc1_flits", noc1_flits);
    put("noc.noc2_flits", noc2_flits);
    put(
        "noc.ns_per_flit",
        ratio(profile.nanos(Phase::Noc1) as f64, noc1_flits + noc2_flits),
    );

    let l2_accesses = count("mem.l2_accesses");
    put("mem.noc2_mem_s", secs(Phase::Mem));
    put("mem.noc2_mem_share", profile.share(Phase::Mem));
    put("mem.l2_accesses", l2_accesses);
    put("mem.dram_reads", count("mem.dram_reads"));
    put(
        "mem.ns_per_l2_access",
        ratio(profile.nanos(Phase::Mem) as f64, l2_accesses),
    );
    put("cache.mshr_allocs", count("cache.mshr_allocs"));

    // One Issue lap per machine step; two Exchange laps per step.
    let steps = profile.count(Phase::Issue) as f64;
    let kernel_nanos: u64 = [Phase::Issue, Phase::Noc1, Phase::Mem, Phase::Exchange]
        .iter()
        .map(|p| profile.nanos(*p))
        .sum();
    put("dcl1.steps", steps);
    put("dcl1.sim_cycles", memo.sim_cycles as f64);
    put("dcl1.ns_per_step", ratio(kernel_nanos as f64, steps));
    put("dcl1.exchanges", profile.count(Phase::Exchange) as f64);
    put("dcl1.exchange_s", secs(Phase::Exchange));
    put("dcl1.exchange_share", profile.share(Phase::Exchange));
    put("dcl1.barrier_wait_s", shard.barrier_wait_nanos as f64 / 1e9);
    put("dcl1.barrier_wait_share", profile.share(Phase::BarrierWait));

    put(
        "bench.sim_khz",
        ratio(memo.sim_cycles as f64, memo.wall_nanos as f64 / 1e9) / 1e3,
    );
    put("bench.cache_io_s", secs(Phase::CacheIo));
    put("bench.journal_write_s", secs(Phase::JournalWrite));
    put("bench.points_simulated", memo.simulated as f64);
    put("bench.points_from_store", memo.total_hits() as f64);
    put("bench.retries", recovery.retries as f64);
    put("bench.quarantined", recovery.quarantines as f64);

    put("store.mem_hits", memo.mem_hits as f64);
    put("store.disk_hits", memo.disk_hits as f64);
    put("store.misses", memo.misses as f64);
    put("store.flight_waits", memo.flight_waits as f64);
    put("store.mem_evictions", memo.mem_evictions as f64);
}
