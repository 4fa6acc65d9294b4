//! Tiered-store acceptance over the whole smoke grid, against the real
//! `perf_sweep`: a second sweep over the same cache directory is served
//! from the mem + disk tiers with the digest unchanged (at 4 shard domains
//! too: `determinism.rs::memo_key_is_independent_of_shard_count`); and two
//! hosts sharing one `DCL1_CACHE_SHARED_DIR` simulate each of the 112
//! points exactly once between them.

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
    let a = finish(&mut host("a", true, &[]), "host-a");
    assert_eq!(text(&a.report, &["stats_digest"]), GRID_DIGEST);
    assert_eq!(num(&a.report, &["totals", "points"]), POINTS);
    assert_eq!(memo(&a, "memo.simulated"), POINTS);

    // Host A again, warm, without the shared tier.
    let warm = finish(&mut host("a", false, &["--keep-cache"]), "warm");
    assert_eq!(text(&warm.report, &["stats_digest"]), GRID_DIGEST, "digest moved");
    assert!(warm.dump == a.dump, "dump moved");
    assert_eq!(num(&warm.report, &["totals", "points"]), POINTS);
    let served = memo(&warm, "memo.mem_hits") + memo(&warm, "memo.disk_hits");
    assert!(served >= 0.99 * POINTS, "only {served} served from mem+disk");
    let simulated = memo(&warm, "memo.simulated");
    assert!(simulated <= 0.01 * POINTS, "{simulated} point(s) resimulated");

    // Host B, its own empty cache: everything comes from what A published.
    let b = finish(&mut host("b", true, &[]), "host-b");
    assert_eq!(text(&b.report, &["stats_digest"]), GRID_DIGEST);
    assert_eq!(memo(&b, "memo.simulated"), 0.0, "host B resimulated");
    assert_eq!(memo(&b, "memo.shared_hits"), POINTS);
    let _ = std::fs::remove_dir_all(&dir);
}
