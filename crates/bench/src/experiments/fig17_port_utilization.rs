//! **Fig 17**: DC-L1 data-port utilization S-curves for every proposed
//! design over all 28 applications.

use crate::experiments::proposed_designs;
use crate::runner::{RunRequest, Scale, SweepSession};
use crate::table::Table;
use dcl1::Design;
use dcl1_workloads::all_apps;

/// Runs the port-utilization study.
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

    // Ascending S-curves per design (including baseline).
    let mut curves: Vec<Vec<f64>> = Vec::new();
    for j in 0..per {
        let mut col: Vec<f64> =
            (0..apps.len()).map(|i| stats[i * per + j].max_port_utilization).collect();
        col.sort_by(f64::total_cmp);
        curves.push(col);
    }

    let mut t = Table::new(
        "Fig 17: max (DC-)L1 data-port utilization S-curves (sorted per design)",
        &["rank", "Baseline", "Pr40", "Sh40", "Sh40+C10", "Sh40+C10+Boost"],
    );
    for r in 0..apps.len() {
        let row: Vec<f64> = curves.iter().map(|c| c[r]).collect();
        t.row_f64(format!("{:02}", r + 1), &row);
    }
    vec![t]
}
