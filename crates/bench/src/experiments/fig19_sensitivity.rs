//! **Fig 19 + §VIII-A**: sensitivity studies — hierarchical crossbar
//! (CDXBar) comparison, L1 access-latency sweep, CTA scheduler, system
//! size, and boosted baselines.

use crate::runner::{RunRequest, Scale, SweepSession};
use crate::table::Table;
use dcl1::design::BaselineBoost;
use dcl1::{Design, GpuConfig, SimOptions};
use dcl1_common::stats::geomean;
use dcl1_gpu::CtaPolicy;
use dcl1_workloads::{all_apps, replication_sensitive};

/// Runs the full sensitivity suite.
pub fn run(session: &SweepSession, scale: Scale) -> Vec<Table> {
    vec![
        cdxbar(session, scale),
        latency_sweep(session, scale),
        cta_scheduler(session, scale),
        system_size(session, scale),
        boosted_baselines(session, scale),
    ]
}

fn geomean_ratio(stats: &[dcl1::RunStats], per: usize, j: usize, pick: &[bool]) -> f64 {
    let vals: Vec<f64> = (0..pick.len())
        .filter(|&i| pick[i])
        .map(|i| stats[i * per + 1 + j].ipc() / stats[i * per].ipc())
        .collect();
    geomean(&vals)
}

/// Fig 19a: CDXBar / +2xNoC1 / +2xNoC vs Sh40+C10+Boost.
fn cdxbar(session: &SweepSession, scale: Scale) -> Table {
    let apps = all_apps();
    let designs = [
        Design::CdXbar { stage1_mult: 1, stage2_mult: 1 },
        Design::CdXbar { stage1_mult: 2, stage2_mult: 1 },
        Design::CdXbar { stage1_mult: 2, stage2_mult: 2 },
        Design::Clustered { nodes: 40, clusters: 10, boost: true },
    ];
    let mut reqs = Vec::new();
    for app in &apps {
        reqs.push(RunRequest::new(*app, Design::Baseline));
        for d in &designs {
            reqs.push(RunRequest::new(*app, *d));
        }
    }
    let stats = session.run_points(&reqs, scale).unwrap_all();
    let per = 1 + designs.len();
    let sens: Vec<bool> = apps.iter().map(|a| a.replication_sensitive).collect();
    let insens: Vec<bool> = apps.iter().map(|a| !a.replication_sensitive).collect();

    let mut t = Table::new(
        "Fig 19a: hierarchical crossbar (CDXBar) vs Sh40+C10+Boost (geomean IPC)",
        &["class", "CDXBar", "CDXBar+2xNoC1", "CDXBar+2xNoC", "Sh40+C10+Boost"],
    );
    t.row_f64(
        "repl-sensitive",
        &(0..4).map(|j| geomean_ratio(&stats, per, j, &sens)).collect::<Vec<_>>(),
    );
    t.row_f64(
        "repl-insensitive",
        &(0..4).map(|j| geomean_ratio(&stats, per, j, &insens)).collect::<Vec<_>>(),
    );
    t
}

/// Fig 19b: L1/DC-L1 access-latency sweep (0..64 cycles).
fn latency_sweep(session: &SweepSession, scale: Scale) -> Table {
    let apps = replication_sensitive();
    let lats = [0u32, 16, 28, 48, 64];
    let flagship = Design::flagship(&GpuConfig::default());
    let mut reqs = Vec::new();
    for app in &apps {
        for lat in lats {
            let opts = SimOptions { l1_latency_override: Some(lat), ..SimOptions::default() };
            reqs.push(RunRequest { opts, ..RunRequest::new(*app, Design::Baseline) });
            reqs.push(RunRequest { opts, ..RunRequest::new(*app, flagship) });
        }
    }
    let stats = session.run_points(&reqs, scale).unwrap_all();
    let mut t = Table::new(
        "Fig 19b: Sh40+C10+Boost vs its own-latency baseline (geomean IPC, repl-sensitive)",
        &["l1_latency", "ipc_norm"],
    );
    for (k, lat) in lats.iter().enumerate() {
        let vals: Vec<f64> = (0..apps.len())
            .map(|i| {
                let base = &stats[(i * lats.len() + k) * 2];
                let boost = &stats[(i * lats.len() + k) * 2 + 1];
                boost.ipc() / base.ipc()
            })
            .collect();
        t.row_f64(format!("{lat}cyc"), &[geomean(&vals)]);
    }
    t
}

/// §VIII-A: distributed CTA scheduler.
fn cta_scheduler(session: &SweepSession, scale: Scale) -> Table {
    let apps = replication_sensitive();
    let flagship = Design::flagship(&GpuConfig::default());
    let mut reqs = Vec::new();
    for app in &apps {
        for policy in [CtaPolicy::GreedyRoundRobin, CtaPolicy::DistributedBlocks] {
            let opts = SimOptions { cta_policy: policy, ..SimOptions::default() };
            reqs.push(RunRequest { opts, ..RunRequest::new(*app, Design::Baseline) });
            reqs.push(RunRequest { opts, ..RunRequest::new(*app, flagship) });
        }
    }
    let stats = session.run_points(&reqs, scale).unwrap_all();
    let mut t = Table::new(
        "SecVIII-A: CTA scheduler sensitivity (geomean IPC of Sh40+C10+Boost vs baseline)",
        &["scheduler", "ipc_norm"],
    );
    for (k, name) in ["greedy-round-robin", "distributed-blocks"].iter().enumerate() {
        let vals: Vec<f64> = (0..apps.len())
            .map(|i| {
                let base = &stats[(i * 2 + k) * 2];
                let boost = &stats[(i * 2 + k) * 2 + 1];
                boost.ipc() / base.ipc()
            })
            .collect();
        t.row_f64(*name, &[geomean(&vals)]);
    }
    t
}

/// §VIII-A: 120-core system (Sh60+C10+Boost).
fn system_size(session: &SweepSession, scale: Scale) -> Table {
    let apps = replication_sensitive();
    let cfg = GpuConfig::scaled_120();
    let flagship = Design::flagship(&cfg);
    let mut reqs = Vec::new();
    for app in &apps {
        reqs.push(RunRequest { cfg: cfg.clone(), ..RunRequest::new(*app, Design::Baseline) });
        reqs.push(RunRequest { cfg: cfg.clone(), ..RunRequest::new(*app, flagship) });
    }
    let stats = session.run_points(&reqs, scale).unwrap_all();
    let vals: Vec<f64> =
        (0..apps.len()).map(|i| stats[2 * i + 1].ipc() / stats[2 * i].ipc()).collect();
    let mut t = Table::new(
        "SecVIII-A: 120-core scaling (Sh60+C10+Boost, geomean IPC, repl-sensitive)",
        &["system", "ipc_norm"],
    );
    t.row_f64("120 cores / 60 DC-L1 / 48 L2 / 24 MC", &[geomean(&vals)]);
    t
}

/// §VIII-A: boosted baselines.
fn boosted_baselines(session: &SweepSession, scale: Scale) -> Table {
    let apps = replication_sensitive();
    let designs = [
        Design::BoostedBaseline(BaselineBoost::Cache2x),
        Design::BoostedBaseline(BaselineBoost::NocFreq2x),
        Design::BoostedBaseline(BaselineBoost::Flit4x),
        Design::Clustered { nodes: 40, clusters: 10, boost: true },
    ];
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
        "SecVIII-A: boosted baselines (geomean IPC vs baseline, repl-sensitive)",
        &["config", "ipc_norm"],
    );
    for (j, d) in designs.iter().enumerate() {
        let vals: Vec<f64> = (0..apps.len())
            .map(|i| stats[i * per + 1 + j].ipc() / stats[i * per].ipc())
            .collect();
        t.row_f64(d.name(), &[geomean(&vals)]);
    }
    t
}
