//! **Fig 1 + §II-A**: per-application replication ratio, raw L1 miss
//! rate, IPC improvement under a 16× L1, and the hypothetical
//! no-replication single L1.

use crate::runner::{RunRequest, Scale, SweepSession};
use crate::table::Table;
use dcl1::{Design, GpuConfig};
use dcl1_workloads::{all_apps, replication_sensitive};

/// Runs the motivation study.
pub fn run(session: &SweepSession, scale: Scale) -> Vec<Table> {
    let apps = all_apps();

    // Baseline + 16×-capacity baseline for every app.
    let cfg16 = GpuConfig { l1_bytes: 16 * 16 * 1024, ..GpuConfig::default() };
    let mut reqs = Vec::new();
    for app in &apps {
        reqs.push(RunRequest::new(*app, Design::Baseline));
        reqs.push(RunRequest {
            cfg: cfg16.clone(),
            ..RunRequest::new(*app, Design::Baseline)
        });
    }
    let stats = session.run_points(&reqs, scale).unwrap_all();

    // Sorted ascending by replication ratio, as in the paper's Fig 1.
    let mut rows: Vec<(usize, f64)> = (0..apps.len())
        .map(|i| (i, stats[2 * i].replication_ratio()))
        .collect();
    rows.sort_by(|a, b| a.1.total_cmp(&b.1));

    let mut fig1 = Table::new(
        "Fig 1: replication ratio, L1 miss rate, IPC at 16x L1 (ascending replication)",
        &["app", "repl_ratio", "miss_rate", "ipc_16x", "sensitive"],
    );
    for (i, _) in rows {
        let base = &stats[2 * i];
        let big = &stats[2 * i + 1];
        fig1.row(
            apps[i].name,
            vec![
                format!("{:.3}", base.replication_ratio()),
                format!("{:.3}", base.l1_miss_rate()),
                format!("{:.3}", big.ipc() / base.ipc()),
                if apps[i].replication_sensitive { "yes".into() } else { "".into() },
            ],
        );
    }

    // §II-A hypothetical: one L1, total capacity and bandwidth, on the
    // replication-sensitive subset.
    let sens = replication_sensitive();
    let mut reqs = Vec::new();
    for app in &sens {
        reqs.push(RunRequest::new(*app, Design::Baseline));
        reqs.push(RunRequest::new(*app, Design::IdealSingleL1));
    }
    let istats = session.run_points(&reqs, scale).unwrap_all();
    let mut hypo = Table::new(
        "SecII-A: hypothetical single L1 (no replication) on replication-sensitive apps",
        &["app", "miss_base", "miss_ideal", "miss_reduction", "ipc_norm"],
    );
    let mut reductions = Vec::new();
    let mut speedups = Vec::new();
    for (i, app) in sens.iter().enumerate() {
        let base = &istats[2 * i];
        let ideal = &istats[2 * i + 1];
        let red = 1.0 - ideal.l1_miss_rate() / base.l1_miss_rate().max(1e-9);
        reductions.push(red);
        speedups.push(ideal.ipc() / base.ipc());
        hypo.row_f64(
            app.name,
            &[base.l1_miss_rate(), ideal.l1_miss_rate(), red, ideal.ipc() / base.ipc()],
        );
    }
    hypo.row_f64(
        "MEAN",
        &[
            f64::NAN,
            f64::NAN,
            dcl1_common::stats::mean(&reductions),
            dcl1_common::stats::mean(&speedups),
        ],
    );
    vec![fig1, hypo]
}
