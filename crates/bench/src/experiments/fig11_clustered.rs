//! **Fig 11**: cluster-count sweep (C1 = Sh40 … C40 = Pr40) on the
//! replication-sensitive applications — L1 miss rate and IPC.

use crate::experiments::cluster_sweep;
use crate::runner::{RunRequest, Scale, SweepSession};
use crate::table::Table;
use dcl1::Design;
use dcl1_workloads::replication_sensitive;

/// Runs the clustered shared DC-L1 sweep.
pub fn run(session: &SweepSession, scale: Scale) -> Vec<Table> {
    let apps = replication_sensitive();
    let sweep = cluster_sweep();
    let mut reqs = Vec::new();
    for app in &apps {
        reqs.push(RunRequest::new(*app, Design::Baseline));
        for (_, d) in &sweep {
            reqs.push(RunRequest::new(*app, *d));
        }
    }
    let stats = session.run_points(&reqs, scale).unwrap_all();
    let per = 1 + sweep.len();

    let labels: Vec<&str> = sweep.iter().map(|(l, _)| l.as_str()).collect();
    let mut hdr = vec!["app"];
    hdr.extend(&labels);
    let mut miss = Table::new("Fig 11 (top): L1 miss rate normalized to baseline", &hdr);
    let mut ipc = Table::new("Fig 11 (bottom): IPC normalized to baseline", &hdr);

    let mut miss_cols = vec![Vec::new(); sweep.len()];
    let mut ipc_cols = vec![Vec::new(); sweep.len()];
    for (i, app) in apps.iter().enumerate() {
        let base = &stats[i * per];
        let mut mrow = Vec::new();
        let mut irow = Vec::new();
        for j in 0..sweep.len() {
            let s = &stats[i * per + 1 + j];
            let m = s.l1_miss_rate() / base.l1_miss_rate().max(1e-9);
            let p = s.ipc() / base.ipc();
            mrow.push(m);
            irow.push(p);
            miss_cols[j].push(m);
            ipc_cols[j].push(p);
        }
        miss.row_f64(app.name, &mrow);
        ipc.row_f64(app.name, &irow);
    }
    miss.row_geomean("GEOMEAN", &miss_cols);
    ipc.row_geomean("GEOMEAN", &ipc_cols);
    vec![miss, ipc]
}
