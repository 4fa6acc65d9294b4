//! Lazy stall credit is exact: a parked core is owed the idle / port-stall
//! cycles it skipped, and whoever reads `core_stats()` sees them — at any
//! cycle, not only on the 64-cycle idle probe or at drain. Per core,
//! `instructions + idle + mem-stall == measured cycles` must hold at every
//! read, and reading often (which settles every sleeper each time) must
//! give the same numbers as reading rarely.

#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]

mod util;

use dcl1::{GpuSystem, SimOptions};
use dcl1_gpu::CoreStats;
use util::{congested, machines};

/// Reads the per-core stats and checks the stall partition on each.
fn read(sys: &mut GpuSystem<'_>, ctx: &str) -> Vec<CoreStats> {
    let stats = sys.core_stats();
    let cycles = sys.measured_cycles();
    for (core, cs) in stats.iter().enumerate() {
        let (instr, idle, stall) =
            (cs.instructions.get(), cs.idle_cycles.get(), cs.mem_stall_cycles.get());
        assert_eq!(
            instr + idle + stall,
            cycles,
            "{ctx} core {core} at cycle {}: {instr} instr + {idle} idle + {stall} mem-stall",
            sys.now()
        );
        assert_eq!(cs.stall.total(), idle + stall, "{ctx} core {core}: breakdown");
    }
    stats
}

#[test]
fn reads_at_odd_cycles_match_settling_every_step() {
    let kernel = congested();
    let (mut noc_stalls, mut l1_stalls) = (0, 0);
    for (cfg, design) in machines() {
        for shards in [1, 2] {
            let ctx = format!("{design:?} x{shards}");
            let opts = SimOptions { max_cycles: 200_000, ..SimOptions::default() };
            let build = || {
                let mut sys = GpuSystem::build(&cfg, &design, &kernel, opts).unwrap();
                sys.set_shards(shards);
                sys
            };
            // `rare` is read every 37 cycles (never a multiple of 64 twice
            // running), `often` every cycle.
            let (mut rare, mut often) = (build(), build());
            for step in 1..=6_000u64 {
                rare.step();
                often.step();
                let every = read(&mut often, &ctx);
                if step == 1_777 {
                    // The warm-up reset, at a cycle of our choosing: what
                    // sleepers were owed goes with the discarded window.
                    rare.reset_statistics();
                    often.reset_statistics();
                } else if step % 37 == 0 {
                    let sparse = read(&mut rare, &ctx);
                    assert_eq!(format!("{sparse:?}"), format!("{every:?}"), "{ctx} step {step}");
                }
            }
            let last = read(&mut rare, &ctx);
            noc_stalls += last.iter().map(|c| c.stall.mem_noc.get()).sum::<u64>();
            l1_stalls += last.iter().map(|c| c.stall.mem_l1_queue.get()).sum::<u64>();
        }
    }
    // The lazily credited port-stall classes were actually exercised.
    assert!(noc_stalls > 0 && l1_stalls > 0, "noc {noc_stalls}, l1 queue {l1_stalls}");
}

#[test]
fn pooled_run_stopped_at_an_odd_cycle_agrees_with_stepping() {
    let kernel = congested();
    for (cfg, design) in machines() {
        for cap in [501u64, 1_003, 2_007] {
            // No fast-forward: `run` is then `cap` plain steps.
            let opts = SimOptions { max_cycles: cap, fast_forward: false, ..SimOptions::default() };
            let mut pooled = GpuSystem::build(&cfg, &design, &kernel, opts).unwrap();
            pooled.set_shards(2);
            pooled.set_shard_threads(true);
            let _ = pooled.run();
            let mut stepped = GpuSystem::build(&cfg, &design, &kernel, opts).unwrap();
            for _ in 0..cap {
                stepped.step();
                stepped.core_stats();
            }
            let ctx = format!("{design:?} pooled, cap {cap}");
            assert_eq!(pooled.now(), cap, "{ctx}: ran dry before the cap");
            assert_eq!(
                format!("{:?}", read(&mut pooled, &ctx)),
                format!("{:?}", read(&mut stepped, &ctx)),
                "{ctx}"
            );
        }
    }
}

#[test]
fn repartitioning_a_drained_machine_keeps_parked_cores_exact() {
    let kernel = congested();
    for (cfg, design) in machines() {
        let ctx = format!("{design:?} repartitioned");
        let opts = SimOptions { max_cycles: 2_000_000, ..SimOptions::default() };
        let mut sys = GpuSystem::build(&cfg, &design, &kernel, opts).unwrap();
        let stats = sys.run();
        assert!(stats.cycles < 2_000_000, "{ctx}: did not drain");
        // Drained: every core is parked, owed nothing yet. Idle on for a
        // while, then re-cut the machine with the debt outstanding.
        for _ in 0..45 {
            sys.step();
        }
        sys.set_shards(2);
        for _ in 0..45 {
            sys.step();
        }
        let drained: u64 = read(&mut sys, &ctx).iter().map(|c| c.stall.drained.get()).sum();
        assert!(drained >= 90 * cfg.cores as u64, "{ctx}: idle tail not credited");
        sys.set_shards(1);
        sys.step();
        read(&mut sys, &ctx);
    }
}
