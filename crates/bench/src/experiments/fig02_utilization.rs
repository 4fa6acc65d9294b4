//! **Fig 2**: baseline per-core L1 data-port utilization and reply-link
//! utilization, both as ascending S-curves over the 28 applications.

use crate::runner::{RunRequest, Scale, SweepSession};
use crate::table::Table;
use dcl1::Design;
use dcl1_workloads::all_apps;

/// Runs the utilization study.
pub fn run(session: &SweepSession, scale: Scale) -> Vec<Table> {
    let apps = all_apps();
    let reqs: Vec<RunRequest> =
        apps.iter().map(|a| RunRequest::new(*a, Design::Baseline)).collect();
    let stats = session.run_points(&reqs, scale).unwrap_all();

    let mut rows: Vec<(usize, f64)> =
        (0..apps.len()).map(|i| (i, stats[i].max_port_utilization)).collect();
    rows.sort_by(|a, b| a.1.total_cmp(&b.1));

    let mut t = Table::new(
        "Fig 2: max L1 data-port and L2->core reply-link utilization (ascending)",
        &["app", "port_util", "reply_link_util"],
    );
    for (i, _) in rows {
        t.row_f64(
            apps[i].name,
            &[stats[i].max_port_utilization, stats[i].max_reply_link_utilization],
        );
    }
    let max_port =
        stats.iter().map(|s| s.max_port_utilization).fold(0.0, f64::max);
    let max_link =
        stats.iter().map(|s| s.max_reply_link_utilization).fold(0.0, f64::max);
    t.row_f64("MAX", &[max_port, max_link]);
    vec![t]
}
