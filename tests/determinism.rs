//! End-to-end determinism: a run is a pure function of
//! (app, design, config, options, scale).
//!
//! Two direct machine builds must produce bit-identical [`RunStats`], and
//! the parallel runner must return the same results regardless of worker
//! count — with its memoized values matching a fresh simulation.

mod util;

use dcl1::{Design, GpuConfig, GpuSystem, RunStats, SimOptions};
use dcl1_bench::runner::RunRequest;
use dcl1_bench::Scale;
use dcl1_workloads::by_name;

/// Simulates one point directly, bypassing the runner's memo layers.
/// Mirrors the runner's scaling and default-warmup policy so results are
/// comparable with the memoized path.
fn simulate_fresh(req: &RunRequest, scale: Scale) -> RunStats {
    let (num, den) = scale.ratio();
    let app = req.app.scaled(num, den);
    let mut opts = req.opts;
    if opts.warmup_instructions == 0 {
        opts.warmup_instructions = app.total_instructions() / 3;
    }
    let mut sys =
        GpuSystem::build(&req.cfg, &req.design, &app, opts).expect("design resolves");
    sys.run()
}

#[test]
fn same_seed_same_stats_across_two_runs() {
    let app = by_name("C-BLK").expect("catalog app");
    for design in [
        Design::Baseline,
        Design::Shared { nodes: 40 },
        Design::flagship(&GpuConfig::default()),
    ] {
        let req = RunRequest::new(app, design);
        let a = simulate_fresh(&req, Scale::Smoke);
        let b = simulate_fresh(&req, Scale::Smoke);
        assert_eq!(a, b, "{}: two identical runs diverged", a.design);
        assert!(a.instructions > 0, "{}: empty run", a.design);
    }
}

#[test]
fn fast_forward_does_not_change_stats() {
    let app = by_name("C-BFS").expect("catalog app");
    let mut req = RunRequest::new(app, Design::Shared { nodes: 40 });
    req.opts = SimOptions { fast_forward: false, ..SimOptions::default() };
    let stepped = simulate_fresh(&req, Scale::Smoke);
    req.opts.fast_forward = true;
    let ff = simulate_fresh(&req, Scale::Smoke);
    assert_eq!(stepped, ff, "idle fast-forward changed results");
}

#[test]
fn worker_count_does_not_change_stats() {
    let reqs: Vec<RunRequest> = ["C-BLK", "C-BFS", "P-GEMM"]
        .iter()
        .map(|n| RunRequest::new(by_name(n).expect("catalog app"), Design::Baseline))
        .collect();

    // Each leg on a fresh session of its own, so both simulate every point
    // and neither can be served the other's results.
    let sweep = |workers: usize| {
        let session = util::fresh_session(&format!("workers-{workers}")).with_workers(workers);
        let stats = session.run_points(&reqs, Scale::Smoke).unwrap_all();
        assert_eq!(session.memo_stats().simulated, 3, "{workers} worker(s) were served from a store");
        stats
    };
    let serial = sweep(1);
    let parallel = sweep(4);
    assert_eq!(serial, parallel, "worker count changed results");

    for (req, got) in reqs.iter().zip(&serial) {
        let fresh = simulate_fresh(req, Scale::Smoke);
        assert_eq!(&fresh, got, "{}: memoized result differs from a fresh run", got.design);
    }
}
