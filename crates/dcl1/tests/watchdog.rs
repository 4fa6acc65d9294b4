//! Supervision tests for the progress watchdog and chaos stall hook.
//!
//! Three properties keep the watchdog honest:
//!
//! 1. a frozen machine (chaos stall) is reported as `SimError::Livelock`
//!    with a diagnostic dump instead of spinning to the cycle cap;
//! 2. a deadline converts a runaway run into `SimError::Deadline`;
//! 3. on a healthy run, arming the watchdog changes *nothing* — the
//!    statistics are bit-identical to an unsupervised run, because the
//!    probe only reads gauges.

mod util;

use dcl1::{Design, GpuConfig, GpuSystem, RunStats, SimError, SimOptions};
use dcl1_common::SplitMix64;
use util::{KernelParams, RandomKernel, DESIGNS};

fn build<'w>(design: &Design, kernel: &'w RandomKernel, opts: SimOptions) -> GpuSystem<'w> {
    let cfg = GpuConfig::small_test();
    GpuSystem::build(&cfg, design, kernel, opts).expect("build")
}

fn kernel(seed: u64) -> RandomKernel {
    let mut rng = SplitMix64::new(seed);
    RandomKernel(KernelParams::draw(&mut rng))
}

#[test]
fn stalled_machine_is_reported_as_livelock_with_dump() {
    let k = kernel(0xDEAD_0001);
    for design in DESIGNS.iter().take(3) {
        let opts = SimOptions { max_cycles: 10_000_000, ..SimOptions::default() };
        let mut sys = build(design, &k, opts);
        sys.set_watchdog(4096);
        sys.inject_stall_from(200);
        match sys.run_result() {
            Err(SimError::Livelock { cycle, dump }) => {
                assert!(cycle >= 200, "fired before the stall: cycle {cycle}");
                assert!(
                    cycle < 200 + 3 * 4096,
                    "watchdog took too long: cycle {cycle} for epoch 4096"
                );
                assert!(!dump.is_empty(), "livelock must carry a state dump");
                assert!(dump.contains("node_mshr_waiters"), "dump missing MSHR line:\n{dump}");
            }
            other => panic!("{design:?}: expected livelock, got {other:?}"),
        }
    }
}

#[test]
fn deadline_fires_on_a_stalled_run() {
    let k = kernel(0xDEAD_0002);
    let opts = SimOptions { max_cycles: u64::MAX, ..SimOptions::default() };
    let mut sys = build(&DESIGNS[0], &k, opts);
    // A zero-second budget is exceeded by any positive wall time, so the
    // first probe reports Deadline; the stall keeps the machine from
    // finishing before that probe. The probe checks the deadline before
    // the progress signature, so this must be Deadline, not Livelock.
    sys.set_watchdog(1024);
    sys.set_deadline_secs(0);
    sys.inject_stall_from(100);
    match sys.run_result() {
        Err(SimError::Deadline { limit_secs, .. }) => assert_eq!(limit_secs, 0),
        other => panic!("expected deadline, got {other:?}"),
    }
}

#[test]
fn watchdog_on_a_healthy_run_is_bit_identical_and_succeeds() {
    let mut rng = SplitMix64::new(0xDEAD_0003);
    for (case, design) in DESIGNS.iter().enumerate() {
        let k = RandomKernel(KernelParams::draw(&mut rng));
        let opts = SimOptions { max_cycles: 3_000_000, ..SimOptions::default() };

        let plain: RunStats = build(design, &k, opts).run();

        let mut sys = build(design, &k, opts);
        sys.set_watchdog(dcl1::DEFAULT_WATCHDOG_EPOCH);
        sys.set_deadline_secs(3600);
        let watched = sys.run_result().expect("healthy run must pass supervision");

        assert_eq!(plain, watched, "case {case} ({design:?}): watchdog changed stats");
    }
}

#[test]
fn run_panics_with_the_diagnostic_when_unsupervised() {
    let k = kernel(0xDEAD_0004);
    let opts = SimOptions { max_cycles: 10_000_000, ..SimOptions::default() };
    #[expect(clippy::disallowed_methods, reason = "the test asserts that the panic propagates")]
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut sys = build(&DESIGNS[0], &k, opts);
        sys.set_watchdog(2048);
        sys.inject_stall_from(50);
        sys.run()
    }));
    let payload = caught.expect_err("stalled run() must panic");
    let msg = dcl1_resilience::supervisor::panic_message(payload.as_ref());
    assert!(msg.contains("livelock"), "panic must carry the livelock report: {msg}");
}
