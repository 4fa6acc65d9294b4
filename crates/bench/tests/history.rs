//! `BENCH_history.jsonl`, the committed performance trajectory: one row per
//! PR, every key present on every row, so a metric that stops being
//! recorded fails here instead of vanishing from the record.

use dcl1_obs::json::Json;

const HISTORY_WORKLOADS: [&str; 4] = ["sweep_cold", "shard_pair", "daemon_cold", "daemon_warm"];
const HISTORY_METRICS: [&str; 3] = ["wall_s", "jobs_per_s", "peak_rss_mb"];
/// Per-row kernel numbers from the traced `sweep_cold` run (and the
/// `dbg --census` visit tally).
const HISTORY_KERNEL: [&str; 3] = ["sim_khz", "ns_per_step", "visits_per_step"];

/// One `BENCH_history.jsonl` row: every key present; a metric is a
/// positive number, or `null` where the PR did not record it. Returns
/// the row's PR number.
fn check_history_row(line: &str) -> Result<u64, String> {
    let row = Json::parse(line)?;
    let need = |key: &str| row.get(key).ok_or_else(|| format!("missing key {key:?}"));
    let pr = need("pr")?.as_f64().filter(|p| p.fract() == 0.0 && *p > 0.0).ok_or("bad pr")?;
    let digest = need("grid_digest")?.as_str().ok_or("grid_digest is not a string")?;
    if digest.len() != 16 || !digest.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(format!("pr {pr}: grid_digest {digest:?} is not 16 hex digits"));
    }
    if !need("loc_crates_src")?.as_f64().is_some_and(|n| n > 0.0) {
        return Err(format!("pr {pr}: bad loc_crates_src"));
    }
    let metric = |name: String, v: Option<&Json>| match v {
        Some(Json::Null) => Ok(()),
        Some(v) if v.as_f64().is_some_and(|x| x.is_finite() && x > 0.0) => Ok(()),
        Some(v) => Err(format!("pr {pr}: {name} = {v:?}")),
        None => Err(format!("pr {pr}: missing {name}")),
    };
    for k in HISTORY_KERNEL {
        metric(k.to_string(), row.get(k))?;
    }
    let workloads = need("workloads")?;
    for w in HISTORY_WORKLOADS {
        let wl = workloads.get(w).ok_or_else(|| format!("pr {pr}: missing workload {w}"))?;
        for m in HISTORY_METRICS {
            metric(format!("{w}.{m}"), wl.get(m))?;
        }
    }
    #[expect(clippy::cast_possible_truncation, clippy::cast_sign_loss)] // checked above
    Ok(pr as u64)
}

#[test]
fn bench_history_rows_are_complete_and_ordered() {
    let text = include_str!("../../../BENCH_history.jsonl");
    let prs: Vec<u64> = text
        .lines()
        .map(|l| check_history_row(l).unwrap_or_else(|e| panic!("BENCH_history.jsonl: {e}")))
        .collect();
    assert!(prs.len() >= 4 && prs.windows(2).all(|w| w[0] < w[1]), "{prs:?}");
    // The newest row is measured, not transcribed: nothing is null.
    assert!(!text.lines().last().expect("rows").contains("null"));

    // Absence fails, not only a bad value.
    let row = text.lines().next().expect("rows");
    for key in [
        "\"grid_digest\"",
        "\"loc_crates_src\"",
        "\"shard_pair\"",
        "\"peak_rss_mb\"",
        "\"sim_khz\"",
        "\"ns_per_step\"",
        "\"visits_per_step\"",
    ] {
        let renamed = row.replacen(key, "\"x\"", 1);
        assert_ne!(renamed, row, "{key} not in the row");
        assert!(check_history_row(&renamed).is_err(), "a row without {key} passed");
    }
}
