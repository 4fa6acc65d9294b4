//! **Fig 14**: IPC of all four proposed designs over the
//! replication-sensitive applications, plus class and overall means.

use crate::experiments::proposed_designs;
use crate::runner::{RunRequest, Scale, SweepSession};
use crate::table::Table;
use dcl1::Design;
use dcl1_workloads::all_apps;

/// Runs the headline comparison.
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

    let mut t = Table::new(
        "Fig 14: IPC normalized to baseline (replication-sensitive apps + class means)",
        &["app", "Pr40", "Sh40", "Sh40+C10", "Sh40+C10+Boost"],
    );
    let mut sens = vec![Vec::new(); designs.len()];
    let mut insens = vec![Vec::new(); designs.len()];
    let mut all = vec![Vec::new(); designs.len()];
    for (i, app) in apps.iter().enumerate() {
        let base = &stats[i * per];
        let mut row = Vec::new();
        for j in 0..designs.len() {
            let r = stats[i * per + 1 + j].ipc() / base.ipc();
            row.push(r);
            all[j].push(r);
            if app.replication_sensitive {
                sens[j].push(r);
            } else {
                insens[j].push(r);
            }
        }
        if app.replication_sensitive {
            t.row_f64(app.name, &row);
        }
    }
    t.row_geomean("GEOMEAN(sensitive)", &sens);
    t.row_geomean("GEOMEAN(insensitive)", &insens);
    t.row_geomean("GEOMEAN(all 28)", &all);
    vec![t]
}
