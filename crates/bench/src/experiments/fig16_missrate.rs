//! **Fig 16**: (DC-)L1 miss rate of each proposed design normalized to
//! baseline, plus the mean replica counts the paper quotes (7.7 baseline
//! / 5.7 Pr40 / 2.8 Sh40+C10+Boost / 0 replicas ≙ 1 copy under Sh40).

use crate::experiments::proposed_designs;
use crate::runner::{RunRequest, Scale, SweepSession};
use crate::table::Table;
use dcl1::Design;
use dcl1_common::stats::mean;
use dcl1_workloads::replication_sensitive;

/// Runs the miss-rate / replica-count study.
pub fn run(session: &SweepSession, scale: Scale) -> Vec<Table> {
    let apps = replication_sensitive();
    let designs = proposed_designs();
    let mut reqs = Vec::new();
    for app in &apps {
        reqs.push(RunRequest::new(*app, Design::Baseline));
        for d in &designs {
            reqs.push(RunRequest::new(*app, *d));
        }
    }
    let stats = session.run_points(&reqs, scale).unwrap_all();
    let per = 1 + designs.len();

    let mut t = Table::new(
        "Fig 16: L1 miss rate normalized to baseline (replication-sensitive apps)",
        &["app", "Pr40", "Sh40", "Sh40+C10", "Sh40+C10+Boost"],
    );
    let mut cols = vec![Vec::new(); designs.len()];
    for (i, app) in apps.iter().enumerate() {
        let base = &stats[i * per];
        let mut row = Vec::new();
        for j in 0..designs.len() {
            let m = stats[i * per + 1 + j].l1_miss_rate() / base.l1_miss_rate().max(1e-9);
            row.push(m);
            cols[j].push(m);
        }
        t.row_f64(app.name, &row);
    }
    t.row_geomean("GEOMEAN", &cols);

    // Mean replica counts (copies per distinct resident line).
    let mut reps = Table::new(
        "Fig 16 (replicas): mean copies per distinct resident line",
        &["config", "mean_replicas"],
    );
    let base_reps: Vec<f64> = (0..apps.len()).map(|i| stats[i * per].mean_replicas).collect();
    reps.row_f64("Baseline", &[mean(&base_reps)]);
    for (j, d) in designs.iter().enumerate() {
        let v: Vec<f64> =
            (0..apps.len()).map(|i| stats[i * per + 1 + j].mean_replicas).collect();
        reps.row_f64(d.name(), &[mean(&v)]);
    }
    vec![t, reps]
}
