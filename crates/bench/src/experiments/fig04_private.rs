//! **Fig 4**: private DC-L1 aggregation (Pr80/Pr40/Pr20/Pr10) on the
//! replication-sensitive applications — IPC, DC-L1 miss rate, and the
//! perfect-cache limit study.

use crate::runner::{RunRequest, Scale, SweepSession};
use crate::table::Table;
use dcl1::{Design, SimOptions};
use dcl1_common::stats::geomean;
use dcl1_workloads::replication_sensitive;

const NODE_COUNTS: [usize; 4] = [80, 40, 20, 10];

/// Runs the private DC-L1 study.
pub fn run(session: &SweepSession, scale: Scale) -> Vec<Table> {
    let apps = replication_sensitive();

    let mut reqs = Vec::new();
    for app in &apps {
        reqs.push(RunRequest::new(*app, Design::Baseline));
        for y in NODE_COUNTS {
            reqs.push(RunRequest::new(*app, Design::Private { nodes: y }));
        }
    }
    let stats = session.run_points(&reqs, scale).unwrap_all();
    let per = 1 + NODE_COUNTS.len();

    let mut ipc = Table::new(
        "Fig 4a: IPC of private DC-L1 designs (normalized to baseline)",
        &["app", "Pr80", "Pr40", "Pr20", "Pr10"],
    );
    let mut miss = Table::new(
        "Fig 4b: DC-L1 miss rate (normalized to baseline L1 miss rate)",
        &["app", "Pr80", "Pr40", "Pr20", "Pr10"],
    );
    let mut ipc_cols = vec![Vec::new(); NODE_COUNTS.len()];
    let mut miss_cols = vec![Vec::new(); NODE_COUNTS.len()];
    for (i, app) in apps.iter().enumerate() {
        let base = &stats[i * per];
        let mut ipc_row = Vec::new();
        let mut miss_row = Vec::new();
        for (j, _) in NODE_COUNTS.iter().enumerate() {
            let s = &stats[i * per + 1 + j];
            let r_ipc = s.ipc() / base.ipc();
            let r_miss = s.l1_miss_rate() / base.l1_miss_rate().max(1e-9);
            ipc_row.push(r_ipc);
            miss_row.push(r_miss);
            ipc_cols[j].push(r_ipc);
            miss_cols[j].push(r_miss);
        }
        ipc.row_f64(app.name, &ipc_row);
        miss.row_f64(app.name, &miss_row);
    }
    ipc.row_geomean("GEOMEAN", &ipc_cols);
    miss.row_geomean("GEOMEAN", &miss_cols);

    // Fig 4c: normal vs perfect DC-L1$ (plus the perfect private baseline).
    let mut reqs = Vec::new();
    let perfect = SimOptions { perfect_l1: true, ..SimOptions::default() };
    for app in &apps {
        reqs.push(RunRequest::new(*app, Design::Baseline));
        reqs.push(RunRequest { opts: perfect, ..RunRequest::new(*app, Design::Baseline) });
        for y in NODE_COUNTS {
            reqs.push(RunRequest {
                opts: perfect,
                ..RunRequest::new(*app, Design::Private { nodes: y })
            });
        }
    }
    let pstats = session.run_points(&reqs, scale).unwrap_all();
    let pper = 2 + NODE_COUNTS.len();
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 1 + NODE_COUNTS.len()];
    for i in 0..apps.len() {
        let base = &pstats[i * pper];
        cols[0].push(pstats[i * pper + 1].ipc() / base.ipc());
        for j in 0..NODE_COUNTS.len() {
            cols[1 + j].push(pstats[i * pper + 2 + j].ipc() / base.ipc());
        }
    }
    let mut fig4c = Table::new(
        "Fig 4c: mean IPC with perfect (100% hit) caches, normalized to baseline",
        &["config", "perfect_ipc_norm"],
    );
    fig4c.row_f64("Base(perfect L1)", &[geomean(&cols[0])]);
    for (j, y) in NODE_COUNTS.iter().enumerate() {
        fig4c.row_f64(format!("Pr{y}(perfect)"), &[geomean(&cols[1 + j])]);
    }
    vec![ipc, miss, fig4c]
}
