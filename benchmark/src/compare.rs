//! Compares two results files metric by metric, workload by workload.
//!
//! For an end-to-end metric the question is whether the new median is
//! worse than the baseline median by more than the metric's bound. When
//! the run-to-run spread of either side is wider than the bound the answer
//! cannot be read off two medians, and the row says `unresolved` instead
//! of `unchanged` — unless every new run beats every baseline run.
//! Per-layer metrics carry no bound: they are listed, exact counts are
//! checked for identity on request, and a missing one fails.

use crate::json::Json;
use crate::manifest::{Manifest, MetricDecl};
use crate::results::{self, RunRecord};
use crate::stats;
use std::fmt;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and the spread is narrow enough to say so.
    Unchanged,
    /// Better by more than the bound.
    Improved,
    /// Worse by more than the bound.
    Regressed,
    /// The spread is wider than the bound: no claim either way.
    Unresolved,
    /// Present on one side only.
    Missing,
    /// A per-layer metric: reported, not judged.
    Info,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "MISSING",
            Verdict::Info => "",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub base: f64,
    pub new: f64,
    /// Relative change in the *bad* direction (positive = worse).
    pub worse_by: f64,
    pub bound: Option<f64>,
    /// Widest inter-quartile share of the two sides, when each has at
    /// least two runs.
    pub spread: Option<f64>,
    pub verdict: Verdict,
}

#[derive(Debug, Clone, Default)]
pub struct Comparison {
    pub rows: Vec<Row>,
    /// Workloads whose failed share rose, with both shares.
    pub fail_share_rises: Vec<(String, f64, f64)>,
}

impl Comparison {
    /// No regression, nothing missing, no rise in failures. `unresolved`
    /// rows do not fail the comparison; they are not evidence either way
    /// and [`Comparison::unresolved`] counts them.
    pub fn passed(&self) -> bool {
        self.fail_share_rises.is_empty()
            && !self
                .rows
                .iter()
                .any(|r| matches!(r.verdict, Verdict::Regressed | Verdict::Missing))
    }

    pub fn unresolved(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.verdict == Verdict::Unresolved)
            .count()
    }
}

fn samples(runs: &[RunRecord], workload: &str, decl: &MetricDecl) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && r.kind == decl.kind)
        .filter_map(|r| r.metrics.get(&decl.name).map(|(v, _)| *v))
        .collect()
}

fn fail_share(runs: &[RunRecord], workload: &str) -> f64 {
    let (failed, attempted) = runs
        .iter()
        .filter(|r| r.workload == workload)
        .fold((0u64, 0u64), |(f, a), r| (f + r.failed, a + r.attempted));
    failed as f64 / attempted.max(1) as f64
}

fn judge(decl: &MetricDecl, base: &[f64], new: &[f64]) -> (f64, Option<f64>, Verdict) {
    let (b, n) = (stats::median(base), stats::median(new));
    let toward_worse = if decl.higher_is_better { b - n } else { n - b };
    let worse_by = if b != 0.0 {
        toward_worse / b.abs()
    } else {
        0.0
    };
    let spread = match (stats::iqr_share(base), stats::iqr_share(new)) {
        (Some(x), Some(y)) => Some(x.max(y)),
        _ => None,
    };
    let Some(bound) = decl.bound else {
        return (worse_by, spread, Verdict::Info);
    };
    let every_new_beats_every_base = if decl.higher_is_better {
        new.iter().copied().fold(f64::INFINITY, f64::min)
            > base.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    } else {
        new.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            < base.iter().copied().fold(f64::INFINITY, f64::min)
    };
    let verdict = if worse_by > bound {
        Verdict::Regressed
    } else if spread.is_some_and(|s| s > bound) && !every_new_beats_every_base {
        Verdict::Unresolved
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (worse_by, spread, verdict)
}

/// Compares `new` against `base`, both results documents.
pub fn compare(manifest: &Manifest, base: &Json, new: &Json) -> Result<Comparison, String> {
    let base = results::runs(base).map_err(|e| format!("baseline: {e}"))?;
    let new = results::runs(new).map_err(|e| format!("new: {e}"))?;
    let mut out = Comparison::default();
    for workload in &manifest.workloads {
        for decl in &manifest.metrics {
            let (b, n) = (
                samples(&base, workload, decl),
                samples(&new, workload, decl),
            );
            if b.is_empty() && n.is_empty() {
                // Neither file ran this workload in this mode.
                continue;
            }
            let (worse_by, spread, verdict) = if b.is_empty() || n.is_empty() {
                (0.0, None, Verdict::Missing)
            } else {
                judge(decl, &b, &n)
            };
            out.rows.push(Row {
                workload: workload.clone(),
                metric: decl.name.clone(),
                unit: decl.unit.clone(),
                base: stats::median(&b),
                new: stats::median(&n),
                worse_by,
                bound: decl.bound,
                spread,
                verdict,
            });
        }
        let (fb, fn_) = (fail_share(&base, workload), fail_share(&new, workload));
        if fn_ > fb {
            out.fail_share_rises.push((workload.clone(), fb, fn_));
        }
    }
    if out.rows.is_empty() {
        return Err("the two files share no workload".to_string());
    }
    Ok(out)
}

/// Counts of simulated work: identical on every run of a build, whatever
/// the seed, the shard count or the path (sweep or daemon) that ran the
/// points.
const EXACT_EVERYWHERE: [&str; 11] = [
    "gpu.instructions",
    "noc.noc1_flits",
    "noc.noc2_flits",
    "mem.l2_accesses",
    "mem.dram_reads",
    "cache.mshr_allocs",
    "dcl1.steps",
    "dcl1.sim_cycles",
    "dcl1.exchanges",
    "bench.points_simulated",
    "bench.points_from_store",
];

/// Store and admission counts, exact only where no two jobs race for one
/// key: on `daemon_cold` a duplicate job either waits on the flight or
/// hits the store, depending on timing.
const EXACT_WITHOUT_RACES: [&str; 8] = [
    "store.mem_hits",
    "store.disk_hits",
    "store.misses",
    "store.flight_waits",
    "store.mem_evictions",
    "dcl1d.jobs_accepted",
    "dcl1d.jobs_rejected",
    "dcl1d.jobs_shed",
];

/// Whether `metric` must read exactly the same on every run of `workload`.
pub fn exact_count(workload: &str, metric: &str) -> bool {
    EXACT_EVERYWHERE.contains(&metric)
        || (workload != "daemon_cold" && EXACT_WITHOUT_RACES.contains(&metric))
}

/// Exact-count metrics whose medians differ between the two sides:
/// simulated work must not depend on the run.
pub fn count_mismatches(cmp: &Comparison) -> Vec<String> {
    cmp.rows
        .iter()
        .filter(|r| exact_count(&r.workload, &r.metric) && r.base != r.new)
        .map(|r| format!("{} {}: {} vs {}", r.workload, r.metric, r.base, r.new))
        .collect()
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<12} {:<32} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
            "workload", "metric", "base", "new", "worse%", "bound%", "iqr%"
        )?;
        for r in &self.rows {
            let pct = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{:.1}", 100.0 * v));
            writeln!(
                f,
                "{:<12} {:<32} {:>14.4} {:>14.4} {:>8.1} {:>7} {:>7}  {}",
                r.workload,
                format!("{} [{}]", r.metric, r.unit),
                r.base,
                r.new,
                100.0 * r.worse_by,
                pct(r.bound),
                pct(r.spread),
                r.verdict.label()
            )?;
        }
        for (w, before, after) in &self.fail_share_rises {
            writeln!(f, "{w}: fail_share ROSE from {before:.4} to {after:.4}")?;
        }
        writeln!(
            f,
            "{}; {} unresolved",
            if self.passed() {
                "no regression found"
            } else {
                "REGRESSION"
            },
            self.unresolved()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::tests::{e2e, fabricate, manifest};

    /// A file of `walls.len()` untraced `sweep_cold` runs.
    fn file(walls: &[f64]) -> Json {
        let runs: Vec<_> = walls
            .iter()
            .map(|w| ("sweep_cold", 0u8, 0u64, e2e(*w)))
            .collect();
        fabricate(&runs)
    }

    fn verdict(cmp: &Comparison, metric: &str) -> Verdict {
        cmp.rows
            .iter()
            .find(|r| r.metric == metric)
            .map(|r| r.verdict)
            .expect("row present")
    }

    const STEADY: [f64; 5] = [10.0, 10.05, 9.95, 10.02, 9.98];

    #[test]
    fn ten_percent_slower_wall_is_flagged() {
        let slower: Vec<f64> = STEADY.iter().map(|w| w * 1.12).collect();
        let cmp = compare(&manifest(), &file(&STEADY), &file(&slower)).unwrap();
        assert_eq!(verdict(&cmp, "wall_s"), Verdict::Regressed);
        // Throughput is the inverse: it regresses too, in its own direction.
        assert_eq!(verdict(&cmp, "jobs_per_s"), Verdict::Regressed);
        assert!(!cmp.passed());
    }

    #[test]
    fn five_percent_slower_passes() {
        let slower: Vec<f64> = STEADY.iter().map(|w| w * 1.05).collect();
        let cmp = compare(&manifest(), &file(&STEADY), &file(&slower)).unwrap();
        assert_eq!(verdict(&cmp, "wall_s"), Verdict::Unchanged);
        assert!(cmp.passed());
        assert_eq!(cmp.unresolved(), 0);
    }

    #[test]
    fn a_faster_run_is_an_improvement_not_a_failure() {
        let faster: Vec<f64> = STEADY.iter().map(|w| w * 0.8).collect();
        let cmp = compare(&manifest(), &file(&STEADY), &file(&faster)).unwrap();
        assert_eq!(verdict(&cmp, "wall_s"), Verdict::Improved);
        assert!(cmp.passed());
    }

    #[test]
    fn a_missing_metric_fails() {
        let mut metrics = e2e(10.0);
        metrics.retain(|(n, _, _)| *n != "jobs_per_s");
        let new = fabricate(&[("sweep_cold", 0, 0, metrics)]);
        let cmp = compare(&manifest(), &file(&[10.0]), &new).unwrap();
        assert_eq!(verdict(&cmp, "jobs_per_s"), Verdict::Missing);
        assert!(!cmp.passed());
    }

    #[test]
    fn a_fail_share_rise_fails_even_with_equal_timings() {
        let new = fabricate(&[("sweep_cold", 0, 3, e2e(10.0))]);
        let cmp = compare(&manifest(), &file(&[10.0]), &new).unwrap();
        assert_eq!(cmp.fail_share_rises.len(), 1);
        assert!(!cmp.passed());
        assert!(cmp.to_string().contains("fail_share ROSE"));
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy = [8.0, 10.0, 12.0, 9.0, 11.5];
        let cmp = compare(
            &manifest(),
            &file(&noisy),
            &file(&[8.2, 10.1, 12.3, 9.1, 11.0]),
        )
        .unwrap();
        assert_eq!(verdict(&cmp, "wall_s"), Verdict::Unresolved);
        assert!(cmp.passed(), "unresolved is reported, not failed");
        assert_eq!(cmp.unresolved(), 2);
        // ... unless every new run beats every baseline run.
        let cmp = compare(
            &manifest(),
            &file(&noisy),
            &file(&[5.0, 7.0, 6.0, 7.5, 5.5]),
        )
        .unwrap();
        assert_eq!(verdict(&cmp, "wall_s"), Verdict::Improved);
    }

    #[test]
    fn per_layer_rows_are_listed_and_counts_checked_for_identity() {
        let layers = |steps: f64| vec![("dcl1.steps", steps, "count"), ("noc.noc1_s", 6.9, "s")];
        let base = fabricate(&[("sweep_cold", 1, 0, layers(2_089_071.0))]);
        let same = compare(&manifest(), &base, &base).unwrap();
        assert_eq!(verdict(&same, "dcl1.steps"), Verdict::Info);
        assert!(count_mismatches(&same).is_empty());
        let moved = fabricate(&[("sweep_cold", 1, 0, layers(2_089_072.0))]);
        let cmp = compare(&manifest(), &base, &moved).unwrap();
        assert_eq!(count_mismatches(&cmp).len(), 1);
        assert!(exact_count("daemon_warm", "store.mem_hits"));
        assert!(!exact_count("daemon_cold", "store.misses"));
        assert!(!exact_count("sweep_cold", "noc.noc1_s"));
    }

    #[test]
    fn files_without_a_common_workload_are_an_error() {
        let other = fabricate(&[("nowhere", 0, 0, e2e(10.0))]);
        assert!(compare(&manifest(), &other, &other).is_err());
    }
}
