//! **Fig 15**: speedup S-curves — per-app speedups of each proposed
//! design over all 28 applications, sorted ascending per design.

use crate::experiments::proposed_designs;
use crate::runner::{RunRequest, Scale, SweepSession};
use crate::table::Table;
use dcl1::Design;
use dcl1_workloads::all_apps;

/// Runs the S-curve study.
pub fn run(session: &SweepSession, scale: Scale) -> Vec<Table> {
    let apps = all_apps();
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

    // Per design: speedups sorted ascending (the S-curve's x axis is the
    // sorted rank, so app identity differs per column — as in the paper).
    let mut curves: Vec<Vec<f64>> = Vec::new();
    for j in 0..designs.len() {
        let mut col: Vec<f64> = (0..apps.len())
            .map(|i| stats[i * per + 1 + j].ipc() / stats[i * per].ipc())
            .collect();
        col.sort_by(f64::total_cmp);
        curves.push(col);
    }

    let mut t = Table::new(
        "Fig 15: speedup S-curves (sorted ascending per design; rank rows)",
        &["rank", "Pr40", "Sh40", "Sh40+C10", "Sh40+C10+Boost"],
    );
    for r in 0..apps.len() {
        let row: Vec<f64> = curves.iter().map(|c| c[r]).collect();
        t.row_f64(format!("{:02}", r + 1), &row);
    }
    vec![t]
}
