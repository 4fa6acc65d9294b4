//! The results file: every run of a session with the host it ran on, and
//! the validator that fails on what is *absent*, not only on what moved.
//! An analyzer that reads the wrong field hides an effect for as long as
//! nobody notices the field is missing; so every metric `BENCHMARK.json`
//! declares must be in every run of its kind, finite, in its unit, and
//! nothing undeclared may appear.

use crate::harness::RunOutcome;
use crate::host::Host;
use crate::json::{self, Json};
use crate::manifest::{valid_name, Kind, Manifest};
use std::collections::BTreeMap;

/// Builds the results document for a set of runs.
pub fn document(host: &Host, runs: &[RunOutcome]) -> Json {
    json::obj([
        ("benchmark", json::text("dcl1-benchmark")),
        ("host", host.to_json()),
        (
            "runs",
            Json::Arr(runs.iter().map(RunOutcome::to_json).collect()),
        ),
    ])
}

/// One run as a results file records it.
#[derive(Debug, Clone)]
pub struct RunRecord {
    pub workload: String,
    pub kind: Kind,
    pub attempted: u64,
    pub failed: u64,
    /// Name -> (value, unit).
    pub metrics: BTreeMap<String, (f64, String)>,
}

/// Reads the runs of a results document, checking its shape only.
pub fn runs(doc: &Json) -> Result<Vec<RunRecord>, String> {
    json::get_arr(doc, "runs")?
        .iter()
        .enumerate()
        .map(|(i, run)| {
            let ctx = |e: String| format!("run {i}: {e}");
            let kind = match json::get_u64(run, "trace").map_err(ctx)? {
                0 => Kind::EndToEnd,
                1 => Kind::PerLayer,
                other => return Err(format!("run {i}: trace must be 0 or 1, not {other}")),
            };
            let members = json::members(
                run.get("metrics")
                    .ok_or_else(|| format!("run {i}: no metrics"))?,
                "metrics",
            )
            .map_err(ctx)?;
            let mut metrics = BTreeMap::new();
            for (name, m) in members {
                // A non-numeric value is recorded as NaN so the validator
                // reports it per metric instead of rejecting the file.
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = m
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                metrics.insert(name.clone(), (value, unit));
            }
            Ok(RunRecord {
                workload: json::get_str(run, "workload").map_err(ctx)?.to_string(),
                kind,
                attempted: json::get_u64(run, "attempted").map_err(ctx)?,
                failed: json::get_u64(run, "failed").map_err(ctx)?,
                metrics,
            })
        })
        .collect()
}

/// Every way `doc` falls short of `manifest`; empty means valid.
pub fn validate(manifest: &Manifest, doc: &Json) -> Vec<String> {
    let records = match runs(doc) {
        Ok(r) => r,
        Err(e) => return vec![e],
    };
    let mut problems = Vec::new();
    if records.is_empty() {
        problems.push("no runs".to_string());
    }
    for (i, run) in records.iter().enumerate() {
        let at = format!(
            "run {i} ({} trace={})",
            run.workload,
            u8::from(run.kind == Kind::PerLayer)
        );
        if !manifest.workloads.contains(&run.workload) {
            problems.push(format!("{at}: workload is not declared"));
        }
        if run.attempted == 0 {
            problems.push(format!("{at}: attempted is 0"));
        }
        for decl in manifest.of_kind(run.kind) {
            match run.metrics.get(&decl.name) {
                None => problems.push(format!("{at}: declared metric {} is absent", decl.name)),
                Some((value, unit)) => {
                    if !value.is_finite() {
                        problems.push(format!("{at}: {} is not a finite number", decl.name));
                    }
                    if *unit != decl.unit {
                        problems.push(format!(
                            "{at}: {} has unit {unit:?}, declared {:?}",
                            decl.name, decl.unit
                        ));
                    }
                    if run.kind == Kind::EndToEnd && *value <= 0.0 {
                        problems.push(format!(
                            "{at}: end-to-end metric {} is not positive",
                            decl.name
                        ));
                    }
                }
            }
        }
        for name in run.metrics.keys() {
            if !valid_name(name) {
                problems.push(format!("{at}: metric name {name:?} is malformed"));
            }
            if manifest.decl(name).is_none_or(|d| d.kind != run.kind) {
                problems.push(format!(
                    "{at}: emitted metric {name} is not declared for this kind of run"
                ));
            }
        }
    }
    problems
}

#[cfg(test)]
pub mod tests {
    use super::*;

    pub const MANIFEST: &str = r#"{
        "command": ["x"], "paths": ["benchmark"], "run_seconds": 20,
        "workloads": [{"name": "sweep_cold", "why": "w"}, {"name": "daemon_warm", "why": "w"}],
        "end_to_end": [
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
            {"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}
        ],
        "per_layer": [
            {"name": "dcl1.steps", "unit": "count", "better": "lower"},
            {"name": "noc.noc1_s", "unit": "s", "better": "lower"}
        ]
    }"#;

    pub fn manifest() -> Manifest {
        Manifest::parse(&Json::parse(MANIFEST).unwrap()).unwrap()
    }

    /// `(metric, value, unit)`.
    pub type FakeMetric = (&'static str, f64, &'static str);

    /// A fabricated results file: `runs` of `(workload, trace, failed,
    /// metrics)`.
    pub fn fabricate(runs: &[(&str, u8, u64, Vec<FakeMetric>)]) -> Json {
        let runs = runs
            .iter()
            .map(|(workload, trace, failed, metrics)| {
                let metrics = metrics
                    .iter()
                    .map(|(n, v, u)| {
                        (
                            (*n).to_string(),
                            json::obj([("value", json::num(*v)), ("unit", json::text(u))]),
                        )
                    })
                    .collect();
                json::obj([
                    ("workload", json::text(workload)),
                    ("trace", json::num(f64::from(*trace))),
                    ("attempted", json::num(224.0)),
                    ("failed", json::num(*failed as f64)),
                    ("metrics", Json::Obj(metrics)),
                ])
            })
            .collect();
        json::obj([("runs", Json::Arr(runs))])
    }

    pub fn e2e(wall: f64) -> Vec<FakeMetric> {
        vec![
            ("setup_s", 0.05, "s"),
            ("wall_s", wall, "s"),
            ("jobs_per_s", 224.0 / wall, "1/s"),
        ]
    }

    fn layers() -> Vec<FakeMetric> {
        vec![
            ("dcl1.steps", 2_089_071.0, "count"),
            ("noc.noc1_s", 6.9, "s"),
        ]
    }

    #[test]
    fn a_complete_file_is_valid() {
        let doc = fabricate(&[
            ("sweep_cold", 0, 0, e2e(10.0)),
            ("sweep_cold", 1, 0, layers()),
        ]);
        assert_eq!(validate(&manifest(), &doc), Vec::<String>::new());
    }

    #[test]
    fn an_absent_metric_fails_even_though_nothing_drifted() {
        let mut metrics = e2e(10.0);
        metrics.retain(|(n, _, _)| *n != "jobs_per_s");
        let problems = validate(&manifest(), &fabricate(&[("sweep_cold", 0, 0, metrics)]));
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("jobs_per_s is absent"));
    }

    #[test]
    fn undeclared_misplaced_malformed_and_non_finite_metrics_fail() {
        let mut metrics = e2e(10.0);
        metrics.push(("dcl1.steps", 1.0, "count")); // per-layer metric in an end-to-end run
        metrics.push(("new metric!", 1.0, "s"));
        metrics[1].1 = f64::NAN;
        let doc = fabricate(&[("sweep_cold", 0, 0, metrics)]);
        let problems = validate(&manifest(), &doc).join("\n");
        assert!(
            problems.contains("wall_s is not a finite number"),
            "{problems}"
        );
        assert!(
            problems.contains("dcl1.steps is not declared for this kind"),
            "{problems}"
        );
        assert!(
            problems.contains("\"new metric!\" is malformed"),
            "{problems}"
        );
    }

    #[test]
    fn wrong_unit_unknown_workload_and_zero_values_fail() {
        let mut metrics = e2e(10.0);
        metrics[1] = ("wall_s", 0.0, "ms");
        let problems = validate(&manifest(), &fabricate(&[("mystery", 0, 0, metrics)])).join("\n");
        assert!(problems.contains("workload is not declared"), "{problems}");
        assert!(problems.contains("wall_s has unit \"ms\""), "{problems}");
        assert!(problems.contains("wall_s is not positive"), "{problems}");
        assert_eq!(
            validate(&manifest(), &fabricate(&[])),
            vec!["no runs".to_string()]
        );
    }
}
