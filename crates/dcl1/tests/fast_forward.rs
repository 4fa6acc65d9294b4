//! Golden bit-identity tests for the idle fast-forward: a run with
//! `fast_forward: true` must produce `RunStats` *exactly* equal — every
//! counter, every floating-point field, bit for bit — to the same run
//! stepped cycle by cycle. The skip is an optimization, never a model
//! change.

mod util;

use dcl1::{Design, GpuConfig, GpuSystem, RunStats, SimOptions};
use dcl1_common::SplitMix64;
use util::{KernelParams, RandomKernel, DESIGNS};

fn run(design: &Design, kernel: &RandomKernel, opts: SimOptions) -> RunStats {
    let cfg = GpuConfig::small_test();
    let mut sys = GpuSystem::build(&cfg, design, kernel, opts).expect("build");
    sys.run()
}

fn assert_bit_identical(a: &RunStats, b: &RunStats, label: &str) {
    // PartialEq compares f64 fields by value; == on f64 is bitwise for
    // everything the simulator can produce (no NaNs, no -0.0 vs 0.0
    // ambiguity from sums of non-negative terms). Spell the float fields
    // out anyway so a mismatch names the culprit.
    assert_eq!(a.cycles, b.cycles, "{label}: cycles");
    assert_eq!(a.instructions, b.instructions, "{label}: instructions");
    assert_eq!(a.mean_replicas.to_bits(), b.mean_replicas.to_bits(), "{label}: mean_replicas");
    assert_eq!(a.mean_load_rtt.to_bits(), b.mean_load_rtt.to_bits(), "{label}: mean_load_rtt");
    assert_eq!(
        a.max_reply_link_utilization.to_bits(),
        b.max_reply_link_utilization.to_bits(),
        "{label}: max_reply_link_utilization"
    );
    assert_eq!(a.noc_flits, b.noc_flits, "{label}: noc_flits");
    assert_eq!(a, b, "{label}: full RunStats");
}

#[test]
fn fast_forward_is_bit_identical_across_designs() {
    let mut rng = SplitMix64::new(0x0FA5_7F0D);
    for (case, design) in DESIGNS.iter().enumerate() {
        let p = KernelParams::draw(&mut rng);
        let kernel = RandomKernel(p);
        let base = SimOptions { max_cycles: 3_000_000, ..SimOptions::default() };
        let stepped = run(design, &kernel, SimOptions { fast_forward: false, ..base });
        let jumped = run(design, &kernel, SimOptions { fast_forward: true, ..base });
        assert_bit_identical(&stepped, &jumped, &format!("case {case} ({design:?})"));
    }
}

/// The 12 heavy points at two domains, with the runner's warm-up (a third
/// of the kernel's instructions): the jump lands where stepping does.
#[test]
fn fast_forward_is_bit_identical_on_the_heavy_points_at_two_domains() {
    let cfg = GpuConfig::default();
    for (label, kernel, design) in util::heavy_points() {
        let total = kernel.spec().total_instructions();
        let run = |fast_forward| {
            let opts = SimOptions {
                warmup_instructions: total / 3,
                fast_forward,
                ..SimOptions::default()
            };
            let mut sys = GpuSystem::build(&cfg, &design, &kernel, opts).expect("build");
            sys.set_shards(2);
            sys.run()
        };
        assert_bit_identical(&run(false), &run(true), &label);
    }
}

#[test]
fn fast_forward_respects_warmup_and_sampling_boundaries() {
    // Warmup resets fire on 64-cycle probes and replica samples on
    // interval multiples; the jump must not slide either. A small interval
    // makes every skip hit the sampling cap.
    let mut rng = SplitMix64::new(0x5A_0B0A);
    for (case, design) in
        [Design::Baseline, Design::Shared { nodes: 8 }, Design::Clustered { nodes: 8, clusters: 2, boost: true }]
            .iter()
            .enumerate()
    {
        let p = KernelParams::draw(&mut rng);
        let total = p.ctas as u64 * p.wf_per_cta as u64 * p.instrs as u64;
        let kernel = RandomKernel(p);
        let base = SimOptions {
            max_cycles: 3_000_000,
            warmup_instructions: total / 2,
            replica_sample_interval: 96,
            ..SimOptions::default()
        };
        let stepped = run(design, &kernel, SimOptions { fast_forward: false, ..base });
        let jumped = run(design, &kernel, SimOptions { fast_forward: true, ..base });
        assert_bit_identical(&stepped, &jumped, &format!("warmup case {case} ({design:?})"));
    }
}

#[test]
fn fast_forward_respects_the_cycle_cap() {
    // A kernel that cannot finish within the cap must stop at exactly the
    // same cycle either way.
    let mut rng = SplitMix64::new(0xCA9);
    let p = KernelParams { instrs: 2000, ctas: 8, ..KernelParams::draw(&mut rng) };
    let kernel = RandomKernel(p);
    let base = SimOptions { max_cycles: 2_000, ..SimOptions::default() };
    for design in [Design::Baseline, Design::Private { nodes: 8 }] {
        let stepped = run(&design, &kernel, SimOptions { fast_forward: false, ..base });
        let jumped = run(&design, &kernel, SimOptions { fast_forward: true, ..base });
        assert_eq!(stepped.cycles, base.max_cycles, "cap must bind ({design:?})");
        assert_bit_identical(&stepped, &jumped, &format!("capped ({design:?})"));
    }
}
