//! Ablations of this reproduction's own design choices (DESIGN.md §3).
//!
//! Not a paper figure: these quantify how much each modelling decision
//! matters, on three contrasting workloads (streaming C-BLK, sharing
//! T-AlexNet, camped P-2MM) under the flagship `Sh40+C10+Boost` design.

use crate::runner::{RunRequest, Scale, SweepSession};
use crate::table::Table;
use dcl1::{Design, GpuConfig};
use dcl1_workloads::by_name;

const APPS: [&str; 3] = ["C-BLK", "T-AlexNet", "P-2MM"];

/// Runs the ablation suite.
pub fn run(session: &SweepSession, scale: Scale) -> Vec<Table> {
    let base_cfg = GpuConfig::default();
    let variants: Vec<(&str, GpuConfig)> = vec![
        ("default", base_cfg.clone()),
        // Router VCs → pure-FIFO inputs (head-of-line blocking).
        ("no-VCs (FIFO inputs)", GpuConfig { noc_vcs: 1, ..base_cfg.clone() }),
        // FR-FCFS starvation cap removed: pure row-hit-first.
        ("no DRAM age cap", {
            let mut c = base_cfg.clone();
            c.dram.t_starvation = u64::MAX;
            c
        }),
        // Quarter the MSHRs: outstanding-miss bound.
        ("16 MSHRs/core", GpuConfig { l1_mshr_entries: 16, ..base_cfg.clone() }),
        // Halve the DC-L1 node queues.
        ("2-entry node queues", GpuConfig { node_queue_entries: 2, ..base_cfg.clone() }),
        // Double the node queues.
        ("8-entry node queues", GpuConfig { node_queue_entries: 8, ..base_cfg.clone() }),
        // GPGPU-Sim's greedy-then-oldest wavefront scheduler.
        ("GTO issue policy", GpuConfig {
            issue_policy: dcl1_gpu::IssuePolicy::GreedyThenOldest,
            ..base_cfg.clone()
        }),
    ];

    let mut reqs = Vec::new();
    for app_name in APPS {
        let app = by_name(app_name).expect("catalog app");
        for (_, cfg) in &variants {
            reqs.push(RunRequest {
                cfg: cfg.clone(),
                ..RunRequest::new(app, Design::flagship(cfg))
            });
        }
    }
    let stats = session.run_points(&reqs, scale).unwrap_all();
    let per = variants.len();

    let mut t = Table::new(
        "Ablations: Sh40+C10+Boost IPC under modelling variants (normalized to default)",
        &["variant", "C-BLK", "T-AlexNet", "P-2MM"],
    );
    for (j, (name, _)) in variants.iter().enumerate() {
        let row: Vec<f64> = (0..APPS.len())
            .map(|i| stats[i * per + j].ipc() / stats[i * per].ipc())
            .collect();
        t.row_f64(*name, &row);
    }
    vec![t]
}
