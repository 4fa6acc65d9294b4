//! Qualitative paper-claim checks on the real 80-core machine, at an
//! eighth of each application's trace length.

#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]

use dcl1_repro::dcl1::{Design, GpuConfig, GpuSystem, RunStats, SimOptions};
use dcl1_repro::workloads::by_name;

fn run(app: &str, design: Design) -> RunStats {
    let spec = by_name(app).unwrap().scaled(1, 8);
    let cfg = GpuConfig::default();
    let opts = SimOptions {
        warmup_instructions: spec.total_instructions() / 3,
        ..SimOptions::default()
    };
    let mut sys = GpuSystem::build(&cfg, &design, &spec, opts).expect("build");
    let stats = sys.run();
    assert!(stats.cycles < opts.max_cycles, "{app} on {} hung", stats.design);
    stats
}

/// Paper Fig 1: Tango's AlexNet has ~95% replication ratio; BlackScholes
/// has none.
#[test]
fn replication_ratio_extremes_match_fig1() {
    let alex = run("T-AlexNet", Design::Baseline);
    assert!(alex.replication_ratio() > 0.8, "AlexNet repl {}", alex.replication_ratio());
    let blk = run("C-BLK", Design::Baseline);
    assert!(blk.replication_ratio() < 0.05, "C-BLK repl {}", blk.replication_ratio());
}

/// Paper §V-B: the shared organization eliminates cross-L1 replication
/// and collapses the miss rate of replication-sensitive apps.
#[test]
fn sh40_eliminates_replication_and_cuts_misses() {
    let base = run("T-AlexNet", Design::Baseline);
    let sh = run("T-AlexNet", Design::Shared { nodes: 40 });
    assert!(sh.replication_ratio() < 0.01);
    assert!(
        sh.l1_miss_rate() < 0.5 * base.l1_miss_rate(),
        "Sh40 miss {} vs base {}",
        sh.l1_miss_rate(),
        base.l1_miss_rate()
    );
    assert!(sh.ipc() > 1.3 * base.ipc(), "Sh40 should speed AlexNet up");
}

/// Paper §VI: clustering bounds replicas to the cluster count.
#[test]
fn clustering_bounds_replicas() {
    let c10 = run("T-AlexNet", Design::Clustered { nodes: 40, clusters: 10, boost: false });
    assert!(c10.mean_replicas <= 10.0 + 0.5, "replicas {}", c10.mean_replicas);
    let base = run("T-AlexNet", Design::Baseline);
    assert!(base.mean_replicas > c10.mean_replicas);
}

/// Paper Fig 13a / §VI-C: the bandwidth-sensitive poor performer
/// (P-2DCONV) drops under the clustered design and recovers with Boost.
#[test]
fn boost_recovers_bandwidth_sensitive_apps()
{
    let base = run("P-2DCONV", Design::Baseline);
    let c10 = run("P-2DCONV", Design::Clustered { nodes: 40, clusters: 10, boost: false });
    let boost = run("P-2DCONV", Design::Clustered { nodes: 40, clusters: 10, boost: true });
    assert!(c10.ipc() < 0.8 * base.ipc(), "C10 should hurt P-2DCONV");
    assert!(boost.ipc() > 1.2 * c10.ipc(), "Boost should recover P-2DCONV");
}

/// Paper §V-B: partition camping — the camped striped apps collapse under
/// the fully shared design but not at baseline, and clustering relieves
/// the hotspot.
#[test]
fn partition_camping_story() {
    let base = run("P-GEMM", Design::Baseline);
    let sh = run("P-GEMM", Design::Shared { nodes: 40 });
    let c10 = run("P-GEMM", Design::Clustered { nodes: 40, clusters: 10, boost: true });
    assert!(sh.ipc() < 0.7 * base.ipc(), "Sh40 must camp P-GEMM");
    assert!(c10.ipc() > sh.ipc(), "clustering must relieve camping");
    // The load imbalance across nodes is visibly worse under Sh40.
    assert!(sh.node_load_imbalance() > 2.0, "imbalance {}", sh.node_load_imbalance());
}

/// Paper Table I / Fig 4a: Pr80 performs close to baseline despite the
/// 4× peak-bandwidth drop (latency tolerance).
#[test]
fn pr80_close_to_baseline() {
    let base = run("C-BLK", Design::Baseline);
    let pr80 = run("C-BLK", Design::Private { nodes: 80 });
    let ratio = pr80.ipc() / base.ipc();
    assert!(ratio > 0.9, "Pr80/baseline {ratio}");
}
