//! Tiered-store acceptance over the whole smoke grid, against the real
//! `perf_sweep`: a second sweep over the same cache directory is served
//! from the mem + disk tiers with the digest unchanged (at 4 shard domains
//! too: `determinism.rs::memo_key_is_independent_of_shard_count`).

mod util;

use util::{finish, num, scratch, sweep_cmd, text, Sweep};

const GRID_DIGEST: &str = "18859340e85217ad";
const POINTS: f64 = 112.0;

fn memo(sweep: &Sweep, counter: &str) -> f64 {
    num(&sweep.report, &["registry", counter])
}

#[test]
fn a_warm_sweep_is_tier_served_with_the_same_digest() {
    let dir = scratch("warm");

    // Cold: simulates everything and fills the tiers.
    let cold = finish(&mut sweep_cmd(&dir), "cold");
    assert_eq!(text(&cold.report, &["stats_digest"]), GRID_DIGEST);
    assert_eq!(num(&cold.report, &["totals", "points"]), POINTS);
    assert_eq!(memo(&cold, "memo.simulated"), POINTS);

    // Warm, over the same cache directory.
    let warm = finish(sweep_cmd(&dir).arg("--keep-cache"), "warm");
    assert_eq!(text(&warm.report, &["stats_digest"]), GRID_DIGEST, "digest moved");
    assert!(warm.dump == cold.dump, "dump moved");
    assert_eq!(num(&warm.report, &["totals", "points"]), POINTS);
    let served = memo(&warm, "memo.mem_hits") + memo(&warm, "memo.disk_hits");
    assert!(served >= 0.99 * POINTS, "only {served} served from mem+disk");
    let simulated = memo(&warm, "memo.simulated");
    assert!(simulated <= 0.01 * POINTS, "{simulated} point(s) resimulated");
    let _ = std::fs::remove_dir_all(&dir);
}
