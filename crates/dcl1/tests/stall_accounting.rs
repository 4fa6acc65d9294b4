//! Stall-attribution invariants: over any measured window, every core
//! cycle is either an issued instruction or exactly one classified stall,
//! so the per-core breakdown sums to the non-issue cycle count with no
//! cycle lost or double-counted — for every design point, with and
//! without fast-forward.

#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]

mod util;

use dcl1::{GpuConfig, GpuSystem, SimOptions};
use dcl1_common::SplitMix64;
use util::{KernelParams, RandomKernel, DESIGNS};

#[test]
fn stall_breakdown_partitions_every_core_cycle() {
    let mut rng = SplitMix64::new(0x57A1_1CAFE);
    for case in 0..16u64 {
        let p = KernelParams::draw(&mut rng);
        let design = DESIGNS[rng.next_below(DESIGNS.len() as u64) as usize];
        let kernel = RandomKernel(p.clone());
        let cfg = GpuConfig::small_test();
        let fast_forward = case % 2 == 0;
        let opts = SimOptions { max_cycles: 3_000_000, fast_forward, ..SimOptions::default() };
        let mut sys = GpuSystem::build(&cfg, &design, &kernel, opts).expect("build");
        let stats = sys.run();
        let cycles = sys.measured_cycles();
        assert_eq!(stats.cycles, cycles);

        let mut total_instr = 0;
        let mut total_stall = 0;
        for (core, cs) in sys.core_stats().iter().enumerate() {
            let instr = cs.instructions.get();
            let stall = cs.stall.total();
            // The six classes partition the core's non-issue cycles.
            assert_eq!(
                stall,
                cs.idle_cycles.get() + cs.mem_stall_cycles.get(),
                "case {case} ({design:?}) core {core}: breakdown vs legacy counters"
            );
            // And every cycle is exactly one of: issue, stall.
            assert_eq!(
                instr + stall,
                cycles,
                "case {case} ({design:?}) core {core}: {instr} instr + {stall} stall != {cycles} cycles"
            );
            total_instr += instr;
            total_stall += stall;
        }
        assert_eq!(total_instr, stats.instructions);
        assert_eq!(
            total_stall,
            stats.total_stall_cycles(),
            "case {case}: RunStats stall rollup disagrees with per-core sums"
        );
    }
}

/// Every wavefront runs ALU instructions only, 12 cycles each: no memory
/// traffic, so a core with nothing ready is waiting on ALU latencies alone.
#[derive(Debug)]
struct AluOnly;

impl dcl1_gpu::TraceFactory for AluOnly {
    fn wavefront_trace(&self, _cta: u32, _wf: u32) -> Box<dyn dcl1_gpu::TraceSource> {
        Box::new(dcl1_gpu::VecTrace::new(vec![
            dcl1_gpu::WavefrontInstr::Alu {
                latency: 12
            };
            20
        ]))
    }
    fn total_ctas(&self) -> u32 {
        8
    }
    fn wavefronts_per_cta(&self) -> u32 {
        2
    }
}

/// A core whose wavefronts are all ALU-busy parks until the earliest
/// expiry, and is credited the stalls stepping it would have counted: its
/// stall breakdown equals that of a run whose cores are woken every cycle.
#[test]
fn a_core_waiting_on_alu_latencies_parks_with_the_stepped_breakdown() {
    let cfg = GpuConfig::small_test();
    let opts = SimOptions {
        fast_forward: false,
        ..SimOptions::default()
    };
    let build = |opts| GpuSystem::build(&cfg, &dcl1::Design::Baseline, &AluOnly, opts).unwrap();
    let mut parked = build(opts);
    parked.run();
    let cycles = parked.now();
    let snapshot = parked.debug_snapshot();
    let line = snapshot.lines().last().unwrap();
    let parks = line
        .split_whitespace()
        .find_map(|f| f.strip_prefix("parked_cores="))
        .unwrap();
    let parks: u64 = parks.parse().unwrap();
    assert!(parks > 0, "no core parked: {line}");

    let mut polled = build(SimOptions {
        max_cycles: cycles,
        ..opts
    });
    for _ in 0..cycles {
        polled.step();
        polled.wake_all();
    }
    polled.run();
    let (want, got) = (polled.core_stats(), parked.core_stats());
    assert_eq!(format!("{got:?}"), format!("{want:?}"));
    for cs in &got {
        assert_eq!(cs.instructions.get(), 2 * 20, "{cs:?}");
        assert!(
            cs.stall.alu_busy.get() > 0 && cs.stall.fill_wait.get() == 0,
            "{cs:?}"
        );
    }
}
