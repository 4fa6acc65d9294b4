//! **Extension (paper §VIII-A, closing remark)**: "our proposed designs
//! are expected to improve performance with larger DC-L1s or boosted NoC
//! resources." This experiment checks that expectation by sweeping the
//! total L1 budget (1×/2×/4×) under both the private baseline and the
//! flagship `Sh40+C10+Boost`, on the replication-sensitive applications.

use crate::runner::{RunRequest, Scale, SweepSession};
use crate::table::Table;
use dcl1::{Design, GpuConfig};
use dcl1_common::stats::geomean;
use dcl1_workloads::replication_sensitive;

/// Runs the capacity-scaling extension.
pub fn run(session: &SweepSession, scale: Scale) -> Vec<Table> {
    let apps = replication_sensitive();
    let budgets = [1usize, 2, 4];
    let mut reqs = Vec::new();
    for app in &apps {
        for mult in budgets {
            let cfg = GpuConfig {
                l1_bytes: 16 * 1024 * mult,
                ..GpuConfig::default()
            };
            reqs.push(RunRequest {
                cfg: cfg.clone(),
                ..RunRequest::new(*app, Design::Baseline)
            });
            reqs.push(RunRequest {
                cfg: cfg.clone(),
                ..RunRequest::new(*app, Design::flagship(&cfg))
            });
        }
    }
    let stats = session.run_points(&reqs, scale).unwrap_all();
    let per = budgets.len() * 2;

    let mut t = Table::new(
        "Extension: L1-budget scaling (geomean IPC over repl-sensitive apps, normalized to 1x baseline)",
        &["budget", "Baseline", "Sh40+C10+Boost", "flagship_advantage"],
    );
    for (k, mult) in budgets.iter().enumerate() {
        let base: Vec<f64> = (0..apps.len())
            .map(|i| stats[i * per + 2 * k].ipc() / stats[i * per].ipc())
            .collect();
        let flag: Vec<f64> = (0..apps.len())
            .map(|i| stats[i * per + 2 * k + 1].ipc() / stats[i * per].ipc())
            .collect();
        let (gb, gf) = (geomean(&base), geomean(&flag));
        t.row_f64(format!("{mult}x L1"), &[gb, gf, gf / gb]);
    }
    vec![t]
}
