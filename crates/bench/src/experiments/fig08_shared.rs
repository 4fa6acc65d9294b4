//! **Fig 8**: the fully-shared Sh40 design on the replication-sensitive
//! applications — DC-L1 miss rate and IPC, normalized to baseline.

use crate::runner::{RunRequest, Scale, SweepSession};
use crate::table::Table;
use dcl1::Design;
use dcl1_workloads::replication_sensitive;

/// Runs the shared DC-L1 study.
pub fn run(session: &SweepSession, scale: Scale) -> Vec<Table> {
    let apps = replication_sensitive();
    let mut reqs = Vec::new();
    for app in &apps {
        reqs.push(RunRequest::new(*app, Design::Baseline));
        reqs.push(RunRequest::new(*app, Design::Shared { nodes: 40 }));
    }
    let stats = session.run_points(&reqs, scale).unwrap_all();

    let mut t = Table::new(
        "Fig 8: Sh40 on replication-sensitive apps (normalized to baseline)",
        &["app", "miss_norm", "ipc_norm"],
    );
    let mut misses = Vec::new();
    let mut ipcs = Vec::new();
    for (i, app) in apps.iter().enumerate() {
        let base = &stats[2 * i];
        let sh = &stats[2 * i + 1];
        let m = sh.l1_miss_rate() / base.l1_miss_rate().max(1e-9);
        let p = sh.ipc() / base.ipc();
        misses.push(m);
        ipcs.push(p);
        t.row_f64(app.name, &[m, p]);
    }
    t.row_geomean("GEOMEAN", &[&misses, &ipcs]);
    vec![t]
}
