//! **Fig 9**: Sh40 on the replication-insensitive applications,
//! highlighting the five poor performers.

use crate::runner::{RunRequest, Scale, SweepSession};
use crate::table::Table;
use dcl1::Design;
use dcl1_workloads::replication_insensitive;

/// Runs the insensitive-application study.
pub fn run(session: &SweepSession, scale: Scale) -> Vec<Table> {
    let apps = replication_insensitive();
    let mut reqs = Vec::new();
    for app in &apps {
        reqs.push(RunRequest::new(*app, Design::Baseline));
        reqs.push(RunRequest::new(*app, Design::Shared { nodes: 40 }));
    }
    let stats = session.run_points(&reqs, scale).unwrap_all();

    let mut t = Table::new(
        "Fig 9: Sh40 on replication-insensitive apps (IPC normalized to baseline)",
        &["app", "ipc_norm", "poor_performer"],
    );
    let mut rows: Vec<(usize, f64)> = (0..apps.len())
        .map(|i| (i, stats[2 * i + 1].ipc() / stats[2 * i].ipc()))
        .collect();
    rows.sort_by(|a, b| a.1.total_cmp(&b.1));
    let mut all = Vec::new();
    for (i, ratio) in rows {
        all.push(ratio);
        t.row(
            apps[i].name,
            vec![
                format!("{ratio:.3}"),
                if apps[i].poor_performing { "yes".into() } else { "".into() },
            ],
        );
    }
    t.row_geomean("GEOMEAN", &[&all]);
    vec![t]
}
