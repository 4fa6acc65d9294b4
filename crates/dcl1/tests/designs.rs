//! End-to-end integration tests: every design runs a small kernel with
//! real memory traffic to completion, retires the same instruction count,
//! and shows the qualitative behaviour the paper reports (shared designs
//! kill replication; clustering bounds it).

use dcl1::{Design, GpuConfig, GpuSystem, SimOptions};
use dcl1_common::{LineAddr, SplitMix64};
use dcl1_gpu::{
    MemAccess, MemInstr, MemKind, TraceFactory, TraceSource, WavefrontInstr,
};

/// A kernel whose wavefronts alternate ALU work with loads from a shared
/// region (re-read by every CTA → replication across private L1s) and a
/// per-wavefront streaming region.
#[derive(Debug)]
struct SharedRegionKernel {
    ctas: u32,
    wf_per_cta: u32,
    instrs: u32,
    shared_lines: u64,
    store_every: u32,
}

impl Default for SharedRegionKernel {
    fn default() -> Self {
        SharedRegionKernel { ctas: 16, wf_per_cta: 2, instrs: 64, shared_lines: 128, store_every: 0 }
    }
}

#[derive(Debug)]
struct SharedRegionTrace {
    rng: SplitMix64,
    left: u32,
    wf_uid: u64,
    cursor: u64,
    shared_lines: u64,
    store_every: u32,
    issued: u32,
}

impl TraceSource for SharedRegionTrace {
    fn next_instr(&mut self) -> WavefrontInstr {
        if self.left == 0 {
            return WavefrontInstr::Done;
        }
        self.left -= 1;
        self.issued += 1;
        match self.issued % 4 {
            0 | 2 => WavefrontInstr::Alu { latency: 1 },
            1 => {
                // Shared-region load: same lines for every wavefront.
                let line = self.rng.next_below(self.shared_lines);
                WavefrontInstr::Mem(MemInstr {
                    kind: MemKind::Load,
                    accesses: vec![MemAccess { line: LineAddr::new(line), bytes: 128 }],
                })
            }
            _ => {
                // Private streaming load (or periodic store).
                let line = 1_000_000 + self.wf_uid * 4096 + self.cursor;
                self.cursor += 1;
                let kind = if self.store_every > 0 && self.issued.is_multiple_of(self.store_every) {
                    MemKind::Store
                } else {
                    MemKind::Load
                };
                WavefrontInstr::Mem(MemInstr {
                    kind,
                    accesses: vec![MemAccess { line: LineAddr::new(line), bytes: 32 }],
                })
            }
        }
    }
}

impl TraceFactory for SharedRegionKernel {
    fn wavefront_trace(&self, cta: u32, wf: u32) -> Box<dyn TraceSource> {
        let uid = (cta as u64) * self.wf_per_cta as u64 + wf as u64;
        Box::new(SharedRegionTrace {
            rng: SplitMix64::new(0xD0C5_1A11).split(uid),
            left: self.instrs,
            wf_uid: uid,
            cursor: 0,
            shared_lines: self.shared_lines,
            store_every: self.store_every,
            issued: 0,
        })
    }
    fn total_ctas(&self) -> u32 {
        self.ctas
    }
    fn wavefronts_per_cta(&self) -> u32 {
        self.wf_per_cta
    }
}

fn run(design: Design, kernel: &SharedRegionKernel) -> dcl1::RunStats {
    let cfg = GpuConfig::small_test();
    let opts = SimOptions { max_cycles: 2_000_000, ..SimOptions::default() };
    let mut sys = GpuSystem::build(&cfg, &design, kernel, opts).expect("valid design");
    let stats = sys.run();
    assert!(
        stats.cycles < 2_000_000,
        "{} did not drain (cycles = {})",
        stats.design,
        stats.cycles
    );
    stats
}

/// The byte-pinned part of a run of the default [`SharedRegionKernel`]:
/// `(cycles, noc_flits, l2_accesses, dram_requests, p99_load_rtt,
/// [stall_fill_wait, stall_drained, stall_mem_noc, stall_mem_l1_queue])`.
/// Every flit to or from the L2 crosses NoC#2, so any change in how a NoC#2
/// shape routes, arbitrates or clocks moves at least one of the first five;
/// the stall classes are the ones a parked core is credited lazily, so a
/// miscounted sleep moves the last four.
type Golden = (u64, &'static [u64], u64, u64, u64, [u64; 4]);

fn assert_golden(stats: &dcl1::RunStats, want: Golden) {
    let got = (
        stats.cycles,
        &stats.noc_flits[..],
        stats.l2_accesses,
        stats.dram_requests,
        stats.p99_load_rtt,
        [stats.stall_fill_wait, stats.stall_drained, stats.stall_mem_noc, stats.stall_mem_l1_queue],
    );
    assert_eq!(got, want, "{}: golden moved", stats.design);
}

/// Every design the 8-core, 4-slice test machine resolves, with its golden
/// and the NoC#2 shape it pins (no sweep digest covers ideal ports).
fn all_designs() -> Vec<(Design, Golden)> {
    use dcl1::design::BaselineBoost;
    vec![
        // Single, 8×4.
        (Design::Baseline, (12800, &[5970], 995, 647, 1280, [98660, 1680, 0, 0])),
        (Design::BoostedBaseline(BaselineBoost::Cache2x), (12800, &[5814], 969, 647, 1280, [98656, 1682, 0, 0])),
        (Design::BoostedBaseline(BaselineBoost::NocFreq2x), (12736, &[5994], 999, 647, 1280, [97838, 1990, 0, 0])),
        (Design::BoostedBaseline(BaselineBoost::Flit4x), (12800, &[2982], 994, 649, 1280, [98476, 1864, 0, 0])),
        // Single with ideal ports: one node, one NoC#2 port per core.
        (Design::IdealSingleL1, (12800, &[4932], 822, 650, 1280, [98112, 2230, 0, 0])),
        // Sliced{1}: one clusters×4 crossbar.
        (Design::Private { nodes: 8 }, (12800, &[4608, 5964], 994, 648, 1280, [98580, 1760, 0, 0])),
        (Design::Private { nodes: 4 }, (12864, &[4608, 5772], 962, 650, 1280, [98334, 2520, 0, 0])),
        // Sliced{4}: four 1×1 crossbars.
        (Design::Shared { nodes: 4 }, (12480, &[4608, 4884], 814, 651, 1024, [95890, 1884, 0, 0])),
        // Sliced{2}: two 2×2 crossbars.
        (
            Design::Clustered { nodes: 4, clusters: 2, boost: false },
            (12736, &[4608, 5514], 919, 648, 1280, [98098, 1728, 0, 0]),
        ),
        (
            Design::Clustered { nodes: 4, clusters: 2, boost: true },
            (12864, &[4608, 5532], 922, 647, 1280, [98664, 2188, 0, 0]),
        ),
    ]
}

#[test]
fn every_design_runs_to_completion_with_identical_work() {
    let kernel = SharedRegionKernel::default();
    let expected = (kernel.ctas * kernel.wf_per_cta * kernel.instrs) as u64;
    for (design, golden) in all_designs() {
        let stats = run(design, &kernel);
        assert_eq!(
            stats.instructions, expected,
            "{}: wrong instruction count",
            stats.design
        );
        assert!(stats.l1_accesses > 0, "{}: no L1 traffic", stats.design);
        assert!(stats.ipc() > 0.0, "{}: zero IPC", stats.design);
        assert_golden(&stats, golden);
    }
}

#[test]
fn cdxbar_runs_with_ten_core_machine() {
    // CDXBar needs cores divisible by 10.
    let mut cfg = GpuConfig::small_test();
    cfg.cores = 10;
    let kernel = SharedRegionKernel::default();
    // TwoStage at all three clockings (no sweep digest covers this shape).
    for (design, golden) in [
        (
            Design::CdXbar { stage1_mult: 1, stage2_mult: 1 },
            (12864, &[6006u64, 6006][..], 1001, 651, 1280, [121231, 5348, 0, 0]),
        ),
        (
            Design::CdXbar { stage1_mult: 2, stage2_mult: 1 },
            (12800, &[5994, 5994][..], 999, 649, 1280, [120598, 5342, 0, 0]),
        ),
        (
            Design::CdXbar { stage1_mult: 2, stage2_mult: 2 },
            (12800, &[6000, 6000][..], 1000, 650, 1280, [120598, 5340, 0, 0]),
        ),
    ] {
        let opts = SimOptions { max_cycles: 2_000_000, ..SimOptions::default() };
        let mut sys = GpuSystem::build(&cfg, &design, &kernel, opts).unwrap();
        let stats = sys.run();
        assert!(stats.cycles < 2_000_000, "{} did not drain", stats.design);
        assert_eq!(
            stats.instructions,
            (kernel.ctas * kernel.wf_per_cta * kernel.instrs) as u64
        );
        assert_golden(&stats, golden);
    }
}

#[test]
fn shared_design_eliminates_replicated_misses() {
    let kernel = SharedRegionKernel { instrs: 128, ..SharedRegionKernel::default() };
    let base = run(Design::Baseline, &kernel);
    let shared = run(Design::Shared { nodes: 4 }, &kernel);
    assert!(
        base.replication_ratio() > 0.1,
        "baseline should see replicated misses (got {})",
        base.replication_ratio()
    );
    assert!(
        shared.replication_ratio() < 0.01,
        "shared design must not see replicated misses (got {})",
        shared.replication_ratio()
    );
    // The shared aggregate capacity covers the shared region: miss rate
    // must drop substantially.
    assert!(
        shared.l1_miss_rate() < base.l1_miss_rate(),
        "shared {} !< base {}",
        shared.l1_miss_rate(),
        base.l1_miss_rate()
    );
}

#[test]
fn clustering_bounds_replication_between_private_and_shared() {
    let kernel = SharedRegionKernel { instrs: 128, ..SharedRegionKernel::default() };
    let privat = run(Design::Private { nodes: 4 }, &kernel);
    let clustered = run(Design::Clustered { nodes: 4, clusters: 2, boost: false }, &kernel);
    let shared = run(Design::Shared { nodes: 4 }, &kernel);
    // Miss rates should be ordered shared <= clustered <= private.
    assert!(
        shared.l1_miss_rate() <= clustered.l1_miss_rate() + 0.02,
        "shared {} vs clustered {}",
        shared.l1_miss_rate(),
        clustered.l1_miss_rate()
    );
    assert!(
        clustered.l1_miss_rate() <= privat.l1_miss_rate() + 0.02,
        "clustered {} vs private {}",
        clustered.l1_miss_rate(),
        privat.l1_miss_rate()
    );
    // Replica bound: at most `clusters` copies under clustering.
    assert!(clustered.mean_replicas <= 2.0 + 0.1);
}

#[test]
fn perfect_l1_never_misses() {
    let kernel = SharedRegionKernel::default();
    let cfg = GpuConfig::small_test();
    let opts = SimOptions { perfect_l1: true, max_cycles: 2_000_000, ..SimOptions::default() };
    let mut sys = GpuSystem::build(&cfg, &Design::Private { nodes: 4 }, &kernel, opts).unwrap();
    let stats = sys.run();
    assert!(stats.cycles < 2_000_000);
    assert_eq!(stats.l1_misses, 0);
    assert_eq!(stats.l1_miss_rate(), 0.0);
}

#[test]
fn latency_override_slows_the_machine() {
    let kernel = SharedRegionKernel::default();
    let cfg = GpuConfig::small_test();
    let mut fast = GpuSystem::build(
        &cfg,
        &Design::Baseline,
        &kernel,
        SimOptions { l1_latency_override: Some(0), max_cycles: 2_000_000, ..SimOptions::default() },
    )
    .unwrap();
    let mut slow = GpuSystem::build(
        &cfg,
        &Design::Baseline,
        &kernel,
        SimOptions { l1_latency_override: Some(64), max_cycles: 2_000_000, ..SimOptions::default() },
    )
    .unwrap();
    let f = fast.run();
    let s = slow.run();
    assert!(f.cycles <= s.cycles, "zero-latency L1 ran slower: {} vs {}", f.cycles, s.cycles);
}

#[test]
fn stores_and_bypasses_flow_through_all_designs() {
    #[derive(Debug)]
    struct MixedKernel;
    #[derive(Debug)]
    struct MixedTrace {
        i: u32,
    }
    impl TraceSource for MixedTrace {
        fn next_instr(&mut self) -> WavefrontInstr {
            self.i += 1;
            if self.i > 32 {
                return WavefrontInstr::Done;
            }
            let kind = match self.i % 4 {
                0 => MemKind::Load,
                1 => MemKind::Store,
                2 => MemKind::Atomic,
                _ => MemKind::Aux,
            };
            WavefrontInstr::Mem(MemInstr {
                kind,
                accesses: vec![MemAccess { line: LineAddr::new(self.i as u64 * 3), bytes: 32 }],
            })
        }
    }
    impl TraceFactory for MixedKernel {
        fn wavefront_trace(&self, _c: u32, _w: u32) -> Box<dyn TraceSource> {
            Box::new(MixedTrace { i: 0 })
        }
        fn total_ctas(&self) -> u32 {
            4
        }
        fn wavefronts_per_cta(&self) -> u32 {
            2
        }
    }

    let cfg = GpuConfig::small_test();
    for (design, _) in all_designs() {
        let opts = SimOptions { max_cycles: 2_000_000, ..SimOptions::default() };
        let mut sys = GpuSystem::build(&cfg, &design, &MixedKernel, opts).unwrap();
        let stats = sys.run();
        assert!(stats.cycles < 2_000_000, "{} hung on mixed traffic", stats.design);
        assert_eq!(stats.instructions, 4 * 2 * 32, "{}", stats.design);
        assert!(stats.l2_accesses > 0, "{}: atomics/aux must reach L2", stats.design);
    }
}

#[test]
fn distributed_cta_policy_completes() {
    use dcl1_gpu::CtaPolicy;
    let kernel = SharedRegionKernel::default();
    let cfg = GpuConfig::small_test();
    let opts = SimOptions {
        cta_policy: CtaPolicy::DistributedBlocks,
        max_cycles: 2_000_000,
        ..SimOptions::default()
    };
    let mut sys = GpuSystem::build(&cfg, &Design::Baseline, &kernel, opts).unwrap();
    let stats = sys.run();
    assert!(stats.cycles < 2_000_000);
    assert_eq!(stats.instructions, (kernel.ctas * kernel.wf_per_cta * kernel.instrs) as u64);
}
