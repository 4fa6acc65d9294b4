//! `BENCHMARK.json`: the one declaration of workloads, metrics, units,
//! directions and bounds. The harness emits against it, the validator
//! checks against it, and the comparer takes its bounds from it.

use crate::json::{self, Json};
use std::path::Path;

/// Which of the two runs of a workload reports a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// From the untraced run; carries a regression bound.
    EndToEnd,
    /// From the traced run; no bound.
    PerLayer,
}

#[derive(Debug, Clone)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
    pub kind: Kind,
}

#[derive(Debug, Clone)]
pub struct Manifest {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub metrics: Vec<MetricDecl>,
}

/// Names are what the driver and every consumer key on.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn parse_metrics(doc: &Json, key: &str, kind: Kind) -> Result<Vec<MetricDecl>, String> {
    json::get_arr(doc, key)?
        .iter()
        .map(|m| {
            let name = json::get_str(m, "name")?.to_string();
            if !valid_name(&name) {
                return Err(format!("bad metric name {name:?}"));
            }
            let higher_is_better = match json::get_str(m, "better")? {
                "higher" => true,
                "lower" => false,
                other => {
                    return Err(format!(
                        "{name}: better must be higher|lower, not {other:?}"
                    ))
                }
            };
            let bound = match kind {
                Kind::EndToEnd => Some(json::get_f64(m, "bound")?),
                Kind::PerLayer => None,
            };
            Ok(MetricDecl {
                name,
                unit: json::get_str(m, "unit")?.to_string(),
                higher_is_better,
                bound,
                kind,
            })
        })
        .collect()
}

impl Manifest {
    pub fn parse(doc: &Json) -> Result<Manifest, String> {
        let workloads = json::get_arr(doc, "workloads")?
            .iter()
            .map(|w| json::get_str(w, "name").map(String::from))
            .collect::<Result<Vec<_>, _>>()?;
        let mut metrics = parse_metrics(doc, "end_to_end", Kind::EndToEnd)?;
        metrics.extend(parse_metrics(doc, "per_layer", Kind::PerLayer)?);
        for (i, m) in metrics.iter().enumerate() {
            if metrics[..i].iter().any(|p| p.name == m.name) {
                return Err(format!("metric {:?} declared twice", m.name));
            }
        }
        Ok(Manifest {
            run_seconds: json::get_u64(doc, "run_seconds")?,
            workloads,
            metrics,
        })
    }

    pub fn load(path: &Path) -> Result<Manifest, String> {
        Manifest::parse(&json::read_file(path)?).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn of_kind(&self, kind: Kind) -> impl Iterator<Item = &MetricDecl> {
        self.metrics.iter().filter(move |m| m.kind == kind)
    }

    pub fn decl(&self, name: &str) -> Option<&MetricDecl> {
        self.metrics.iter().find(|m| m.name == name)
    }
}
