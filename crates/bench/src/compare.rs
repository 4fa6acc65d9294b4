//! The performance-regression gate behind `perf_sweep --compare`.
//!
//! Diffs a freshly produced `BENCH_sweep.json` against a committed
//! baseline: the canonical stats digest must match exactly (determinism
//! is not noisy), aggregate simulation throughput must stay within a
//! noise threshold, pipeline-phase shares must not drift, and — when both
//! reports embed an alloc-probe fragment — steady-state allocation counts
//! must not grow. Everything else (memo hit rates, wall clock) is
//! reported as a note, never a failure.

use dcl1_obs::json::Json;
use std::fmt;

/// Maximum absolute drift allowed in any phase's share of total profiled
/// wall time (phase shares are wall-clock derived, so this is deliberately
/// generous — it catches a phase doubling, not scheduler jitter).
pub const PHASE_DRIFT_LIMIT: f64 = 0.25;

/// Default minimum acceptable `current/baseline` throughput ratio.
pub const DEFAULT_THROUGHPUT_THRESHOLD: f64 = 0.5;

/// Outcome of one baseline comparison.
#[derive(Debug, Clone, Default)]
pub struct CompareReport {
    /// Regressions that should fail the gate.
    pub failures: Vec<String>,
    /// Informational observations (matched digests, skipped legs, …).
    pub notes: Vec<String>,
}

impl CompareReport {
    /// True when no leg regressed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

impl fmt::Display for CompareReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for n in &self.notes {
            writeln!(f, "note: {n}")?;
        }
        for x in &self.failures {
            writeln!(f, "FAIL: {x}")?;
        }
        if self.passed() {
            writeln!(f, "compare: PASS ({} leg note(s))", self.notes.len())?;
        } else {
            writeln!(f, "compare: FAIL ({} regression(s))", self.failures.len())?;
        }
        Ok(())
    }
}

fn str_field<'a>(doc: &'a Json, key: &str) -> Option<&'a str> {
    doc.get(key).and_then(Json::as_str)
}

fn num_field(doc: &Json, path: &[&str]) -> Option<f64> {
    let mut cur = doc;
    for key in path {
        cur = cur.get(key)?;
    }
    cur.as_f64()
}

/// Extracts `(phase name, nanos)` pairs from a report's `profile` array.
fn phases(doc: &Json) -> Vec<(String, f64)> {
    doc.get("profile")
        .and_then(Json::as_arr)
        .map(|arr| {
            arr.iter()
                .filter_map(|p| {
                    let name = p.get("phase")?.as_str()?.to_string();
                    let nanos = p.get("nanos")?.as_f64()?;
                    Some((name, nanos))
                })
                .collect()
        })
        .unwrap_or_default()
}

fn share_of(phases: &[(String, f64)], name: &str) -> f64 {
    let total: f64 = phases.iter().map(|(_, n)| n).sum();
    if total <= 0.0 {
        return 0.0;
    }
    phases.iter().find(|(p, _)| p == name).map_or(0.0, |(_, n)| n / total)
}

fn compare_digest(cur: &Json, base: &Json, report: &mut CompareReport) {
    let (cs, bs) = (str_field(cur, "scale"), str_field(base, "scale"));
    if cs != bs {
        report.notes.push(format!(
            "scales differ ({} vs {}) — digest comparison skipped",
            cs.unwrap_or("?"),
            bs.unwrap_or("?")
        ));
        return;
    }
    match (str_field(cur, "stats_digest"), str_field(base, "stats_digest")) {
        (Some(c), Some(b)) if c == b => {
            report.notes.push(format!("stats digest matches baseline ({c})"));
        }
        (Some(c), Some(b)) => {
            report.failures.push(format!(
                "stats digest changed: {c} (current) vs {b} (baseline) — simulator semantics \
                 moved; regenerate the baseline in the same change if this is intentional"
            ));
        }
        _ => report.notes.push("stats digest missing in one report — skipped".to_string()),
    }
}

fn compare_throughput(cur: &Json, base: &Json, threshold: f64, report: &mut CompareReport) {
    let (c, b) = (
        num_field(cur, &["totals", "sim_khz"]),
        num_field(base, &["totals", "sim_khz"]),
    );
    match (c, b) {
        (Some(c), Some(b)) if b > 0.0 => {
            let ratio = c / b;
            if ratio < threshold {
                report.failures.push(format!(
                    "throughput regressed: {c:.1} KHz vs baseline {b:.1} KHz \
                     (ratio {ratio:.3} < threshold {threshold:.3})"
                ));
            } else {
                report.notes.push(format!(
                    "throughput {c:.1} KHz vs baseline {b:.1} KHz (ratio {ratio:.3})"
                ));
            }
        }
        _ => report.notes.push("sim_khz missing in one report — throughput skipped".to_string()),
    }
}

fn compare_phases(cur: &Json, base: &Json, report: &mut CompareReport) {
    let (cp, bp) = (phases(cur), phases(base));
    if cp.is_empty() || bp.is_empty() {
        report.notes.push("phase profile missing in one report — skipped".to_string());
        return;
    }
    let mut names: Vec<&str> = cp.iter().chain(&bp).map(|(n, _)| n.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    for name in names {
        let (c, b) = (share_of(&cp, name), share_of(&bp, name));
        let drift = (c - b).abs();
        if drift > PHASE_DRIFT_LIMIT {
            report.failures.push(format!(
                "phase `{name}` share drifted {drift:.2} (current {c:.2} vs baseline {b:.2}, \
                 limit {PHASE_DRIFT_LIMIT:.2})"
            ));
        }
    }
    report.notes.push(format!("phase shares within ±{PHASE_DRIFT_LIMIT:.2} across {} phase(s)", cp.len()));
}

fn compare_allocs(cur: &Json, base: &Json, threshold: f64, report: &mut CompareReport) {
    let (ca, ba) = (cur.get("allocs"), base.get("allocs"));
    let (Some(ca), Some(ba)) = (ca, ba) else {
        report.notes.push("alloc fragment missing in one report — skipped".to_string());
        return;
    };
    if let Some(probes) = ca.get("probes").and_then(Json::as_arr) {
        for p in probes {
            let name = p.get("name").and_then(Json::as_str).unwrap_or("?");
            let allocs = p.get("allocs").and_then(Json::as_f64).unwrap_or(0.0);
            let base_allocs = ba
                .get("probes")
                .and_then(Json::as_arr)
                .and_then(|arr| {
                    arr.iter().find(|b| b.get("name").and_then(Json::as_str) == Some(name))
                })
                .and_then(|b| b.get("allocs"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            if base_allocs == 0.0 && allocs > 0.0 {
                report.failures.push(format!(
                    "steady-state probe `{name}` now allocates ({allocs} allocs; baseline 0)"
                ));
            }
        }
    }
    match (
        num_field(ca, &["system", "per_step"]),
        num_field(ba, &["system", "per_step"]),
    ) {
        (Some(c), Some(b)) if b > 0.0 => {
            // A throughput threshold of r tolerates a 1/r growth here.
            let limit = b / threshold.max(f64::MIN_POSITIVE);
            if c > limit {
                report.failures.push(format!(
                    "system allocs/step grew: {c:.2} vs baseline {b:.2} (limit {limit:.2})"
                ));
            } else {
                report.notes.push(format!("system allocs/step {c:.2} vs baseline {b:.2}"));
            }
        }
        _ => report.notes.push("system alloc rate missing in one report — skipped".to_string()),
    }
}

/// The memo-tier registry counters every sweep report must carry; the
/// gate fails when one disappears (a silent telemetry regression).
const MEMO_FIELDS: [&str; 5] =
    ["memo.mem_hits", "memo.disk_hits", "memo.shared_hits", "memo.misses", "memo.simulated"];

fn compare_memo(cur: &Json, report: &mut CompareReport) {
    let Some(reg) = cur.get("registry") else {
        report.notes.push("registry missing in current report — memo schema skipped".to_string());
        return;
    };
    let mut vals = [0.0; MEMO_FIELDS.len()];
    for (i, field) in MEMO_FIELDS.iter().enumerate() {
        match reg.get(field).and_then(Json::as_f64) {
            Some(v) => vals[i] = v,
            None => {
                report
                    .failures
                    .push(format!("registry lost `{field}` — memo telemetry regressed"));
                return;
            }
        }
    }
    // Every sweep point must be accounted for: served by a tier, actually
    // simulated, or quarantined by the supervisor. An undercount means a
    // tier stopped reporting. (`totals.points` is the planned grid size;
    // the `points` array lists only the simulated ones.)
    let points = num_field(cur, &["totals", "points"]).unwrap_or(0.0);
    let quarantined = reg.get("memo.quarantined_points").and_then(Json::as_f64).unwrap_or(0.0);
    let served = vals[0] + vals[1] + vals[2] + vals[4] + quarantined;
    if points > 0.0 && served < points {
        report.failures.push(format!(
            "memo accounting undercounts: {served} hits+simulated+quarantined \
             for {points} point(s)"
        ));
    } else {
        report.notes.push(format!(
            "memo telemetry intact ({} field(s); {served} served for {points} point(s))",
            MEMO_FIELDS.len()
        ));
    }
}

/// Diffs two `BENCH_sweep.json` documents (current vs committed baseline).
///
/// # Errors
///
/// Returns a message when either document fails to parse as JSON.
pub fn compare_reports(
    current: &str,
    baseline: &str,
    threshold: f64,
) -> Result<CompareReport, String> {
    let cur = Json::parse(current).map_err(|e| format!("current report: {e}"))?;
    let base = Json::parse(baseline).map_err(|e| format!("baseline report: {e}"))?;
    let mut report = CompareReport::default();
    compare_digest(&cur, &base, &mut report);
    compare_throughput(&cur, &base, threshold, &mut report);
    compare_phases(&cur, &base, &mut report);
    compare_allocs(&cur, &base, threshold, &mut report);
    compare_memo(&cur, &mut report);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(digest: &str, khz: f64, issue_nanos: f64, mem_nanos: f64) -> String {
        format!(
            "{{\"scale\": \"Smoke\", \"stats_digest\": \"{digest}\", \
             \"totals\": {{\"sim_khz\": {khz}}}, \
             \"profile\": [{{\"phase\": \"issue\", \"nanos\": {issue_nanos}, \"count\": 1}}, \
                           {{\"phase\": \"mem\", \"nanos\": {mem_nanos}, \"count\": 1}}]}}"
        )
    }

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

    #[test]
    fn identical_reports_pass() {
        let d = doc("abc123", 500.0, 60.0, 40.0);
        let r = compare_reports(&d, &d, DEFAULT_THROUGHPUT_THRESHOLD).unwrap();
        assert!(r.passed(), "{r}");
        assert!(r.notes.iter().any(|n| n.contains("digest matches")));
    }

    #[test]
    fn digest_change_fails() {
        let cur = doc("aaaa", 500.0, 60.0, 40.0);
        let base = doc("bbbb", 500.0, 60.0, 40.0);
        let r = compare_reports(&cur, &base, 0.5).unwrap();
        assert!(!r.passed());
        assert!(r.failures[0].contains("stats digest changed"));
    }

    #[test]
    fn throughput_regression_fails_but_noise_passes() {
        let base = doc("d", 1000.0, 60.0, 40.0);
        let slow = doc("d", 400.0, 60.0, 40.0);
        let r = compare_reports(&slow, &base, 0.5).unwrap();
        assert!(r.failures.iter().any(|f| f.contains("throughput regressed")), "{r}");

        let noisy = doc("d", 800.0, 60.0, 40.0);
        let r = compare_reports(&noisy, &base, 0.5).unwrap();
        assert!(r.passed(), "{r}");
    }

    #[test]
    fn phase_share_drift_fails() {
        let base = doc("d", 500.0, 90.0, 10.0);
        let drifted = doc("d", 500.0, 10.0, 90.0);
        let r = compare_reports(&drifted, &base, 0.5).unwrap();
        assert!(r.failures.iter().any(|f| f.contains("phase `issue` share drifted")), "{r}");
    }

    #[test]
    fn scale_mismatch_skips_digest_not_throughput() {
        let cur = doc("aaaa", 500.0, 60.0, 40.0).replace("Smoke", "Quarter");
        let base = doc("bbbb", 500.0, 60.0, 40.0);
        let r = compare_reports(&cur, &base, 0.5).unwrap();
        assert!(r.passed(), "{r}");
        assert!(r.notes.iter().any(|n| n.contains("scales differ")));
    }

    #[test]
    fn alloc_growth_fails() {
        let mut cur = doc("d", 500.0, 60.0, 40.0);
        let mut base = cur.clone();
        base.insert_str(
            base.len() - 1,
            ", \"allocs\": {\"probes\": [{\"name\": \"mshr\", \"allocs\": 0, \"bytes\": 0}], \
             \"system\": {\"per_step\": 4.0}}",
        );
        cur.insert_str(
            cur.len() - 1,
            ", \"allocs\": {\"probes\": [{\"name\": \"mshr\", \"allocs\": 7, \"bytes\": 64}], \
             \"system\": {\"per_step\": 40.0}}",
        );
        let r = compare_reports(&cur, &base, 0.5).unwrap();
        assert!(r.failures.iter().any(|f| f.contains("probe `mshr` now allocates")), "{r}");
        assert!(r.failures.iter().any(|f| f.contains("allocs/step grew")), "{r}");
    }

    #[test]
    fn missing_memo_field_fails_the_schema_leg() {
        let base = doc("d", 500.0, 60.0, 40.0);
        let mut cur = base.clone();
        // Registry present but memo.shared_hits dropped.
        cur.insert_str(
            cur.len() - 1,
            ", \"registry\": {\"memo.mem_hits\": 1, \"memo.disk_hits\": 2, \
             \"memo.misses\": 0, \"memo.simulated\": 3}, \"points\": []",
        );
        let r = compare_reports(&cur, &base, 0.5).unwrap();
        assert!(
            r.failures.iter().any(|f| f.contains("registry lost `memo.shared_hits`")),
            "{r}"
        );
    }

    #[test]
    fn memo_undercount_fails_and_full_accounting_passes() {
        let base = doc("d", 500.0, 60.0, 40.0);
        let with_reg = |mem: u64, sim: u64| {
            let mut s = base.clone().replace("\"totals\": {", "\"totals\": {\"points\": 2, ");
            s.insert_str(
                s.len() - 1,
                &format!(
                    ", \"registry\": {{\"memo.mem_hits\": {mem}, \"memo.disk_hits\": 0, \
                     \"memo.shared_hits\": 0, \"memo.misses\": {sim}, \
                     \"memo.simulated\": {sim}}}"
                ),
            );
            s
        };
        let r = compare_reports(&with_reg(0, 1), &base, 0.5).unwrap();
        assert!(r.failures.iter().any(|f| f.contains("memo accounting undercounts")), "{r}");
        let r = compare_reports(&with_reg(1, 1), &base, 0.5).unwrap();
        assert!(r.passed(), "{r}");
        assert!(r.notes.iter().any(|n| n.contains("memo telemetry intact")));
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(compare_reports("{", "{}", 0.5).is_err());
    }
}
