//! Tiered-store acceptance over the whole smoke grid, against the real
//! `perf_sweep`: a second sweep over the same cache directory is served
//! from the mem + disk tiers with the digest unchanged, at 1 and at 4
//! shard domains; and two hosts sharing one `DCL1_CACHE_SHARED_DIR`
//! simulate each of the 112 points exactly once between them.

mod util;

use util::{finish, num, scratch, sweep_cmd, text, Sweep};

const GRID_DIGEST: &str = "18859340e85217ad";
const POINTS: f64 = 112.0;

fn memo(sweep: &Sweep, counter: &str) -> f64 {
    num(&sweep.report, &["registry", counter])
}

#[test]
fn warm_sweeps_are_tier_served_and_two_hosts_simulate_each_point_once() {
    let dir = scratch("warm");
    let host = |name: &str, shared: bool, args: &[&str]| {
        let mut cmd = sweep_cmd(&dir);
        cmd.env("DCL1_CACHE_DIR", dir.join(format!("cache-{name}"))).args(args);
        if shared {
            cmd.env("DCL1_CACHE_SHARED_DIR", dir.join("shared"));
        }
        cmd
    };

    // Host A, cold: simulates everything, fills its own tiers and
    // publishes to the shared one.
    let a = finish(&mut host("a", true, &["--workers=1"]), "host-a");
    assert_eq!(text(&a.report, &["stats_digest"]), GRID_DIGEST);
    assert_eq!(num(&a.report, &["totals", "points"]), POINTS);
    assert_eq!(memo(&a, "memo.simulated"), POINTS);

    // Host A again, warm, without the shared tier.
    for (name, workers) in [("warm1", "--workers=1"), ("warm4", "--workers=4")] {
        let warm = finish(&mut host("a", false, &[workers, "--keep-cache"]), name);
        assert_eq!(text(&warm.report, &["stats_digest"]), GRID_DIGEST, "{name}: digest moved");
        assert!(warm.dump == a.dump, "{name}: dump moved");
        assert_eq!(num(&warm.report, &["totals", "points"]), POINTS);
        let served = memo(&warm, "memo.mem_hits") + memo(&warm, "memo.disk_hits");
        assert!(served >= 0.99 * POINTS, "{name}: only {served} served from mem+disk");
        let simulated = memo(&warm, "memo.simulated");
        assert!(simulated <= 0.01 * POINTS, "{name}: {simulated} point(s) resimulated");
    }

    // Host B, its own empty cache: everything comes from what A published.
    let b = finish(&mut host("b", true, &["--workers=1"]), "host-b");
    assert_eq!(text(&b.report, &["stats_digest"]), GRID_DIGEST);
    assert_eq!(memo(&b, "memo.simulated"), 0.0, "host B resimulated");
    assert_eq!(memo(&b, "memo.shared_hits"), POINTS);
    let _ = std::fs::remove_dir_all(&dir);
}
