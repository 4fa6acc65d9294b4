//! Runs every experiment module in one process (sharing the memoized
//! simulation cache across figures) and prints all tables.
//!
//! Usage: `DCL1_SCALE=full cargo run --release -p dcl1-bench --bin experiments [figNN ...]`
//!
//! `--workers=N` sets intra-point parallelism: each machine is sharded
//! across N execution domains and available/N points run concurrently
//! (default: 1 domain, one point-thread per available core). Statistics
//! are byte-identical at any setting.
//!
//! Observability: `--trace[=PATH]`, `--metrics[=PATH]`,
//! `--metrics-interval=N` and `--observe=APP/DESIGN` additionally run one
//! instrumented point and print its stall-attribution table;
//! `--progress[=PATH]` streams per-point lifecycle events as JSONL (see
//! `dcl1_bench::ObsCli`).
//!
//! Supervision: `--journal[=PATH]` checkpoints each completed point,
//! `--resume[=PATH]` preloads the journal so a killed run resimulates
//! only unfinished points, and `--chaos=SEED` / `--deadline=SECS` /
//! `--watchdog=CYCLES` configure fault injection and hang detection (see
//! `dcl1_bench::ResCli`).

use dcl1_bench::experiments as ex;
use dcl1_bench::{ObsCli, ResCli, Scale, Table};

/// One experiment entry point.
type Experiment = fn(Scale) -> Vec<Table>;

const USAGE: &str = "usage: experiments [tab1|figNN|ablations|ext_scaling].. [--workers=N] \
[--check] [--journal[=PATH]] [--resume[=PATH]] [--chaos=SEED] [--deadline=SECS] \
[--watchdog=CYCLES] [--retry-backoff-ms=N] [--trace[=PATH]] [--trace-sample=N] \
[--metrics[=PATH]] [--metrics-interval=N] [--observe=APP/DESIGN] [--progress[=PATH]]   \
(scale: DCL1_SCALE)";

fn main() {
    let mut filter: Vec<String> = std::env::args().skip(1).collect();
    dcl1_bench::exit_on_help(&filter, USAGE);
    let scale = Scale::from_env();
    let obs = ObsCli::parse(&mut filter);
    let res = ResCli::parse(&mut filter);
    eprintln!("[experiments] {}", res.banner());
    obs.install_progress();
    dcl1_bench::apply_workers_flag("experiments", &mut filter);
    let all: Vec<(&str, Experiment)> = vec![
        ("tab1", ex::tab1_private_configs::run),
        ("fig01", ex::fig01_motivation::run),
        ("fig02", ex::fig02_utilization::run),
        ("fig04", ex::fig04_private::run),
        ("fig06", ex::fig06_noc_area::run),
        ("fig08", ex::fig08_shared::run),
        ("fig09", ex::fig09_shared_insensitive::run),
        ("fig11", ex::fig11_clustered::run),
        ("fig12", ex::fig12_clustered_noc::run),
        ("fig13", ex::fig13_boost::run),
        ("fig14", ex::fig14_final::run),
        ("fig15", ex::fig15_scurve::run),
        ("fig16", ex::fig16_missrate::run),
        ("fig17", ex::fig17_port_utilization::run),
        ("fig18", ex::fig18_energy_area::run),
        ("fig19", ex::fig19_sensitivity::run),
        ("ablations", ex::ablations::run),
        ("ext_scaling", ex::ext_scaling::run),
    ];
    // What is left must name experiments: a typo would otherwise select
    // nothing, silently.
    if let Some(arg) = filter.iter().find(|f| !all.iter().any(|(name, _)| f == name)) {
        dcl1_bench::reject_unknown_arg("experiments", USAGE, arg);
    }
    obs.run_if_enabled(scale);
    let t0 = std::time::Instant::now();
    for (name, run) in all {
        if !filter.is_empty() && !filter.iter().any(|f| f == name) {
            continue;
        }
        let t = std::time::Instant::now();
        for table in run(scale) {
            println!("{table}");
        }
        eprintln!("[{name}] done in {:.1?} (total {:.1?})", t.elapsed(), t0.elapsed());
    }
    println!("{}", dcl1_bench::runner::throughput_summary());
    let recovery = dcl1_bench::runner::recovery_log();
    if !recovery.is_clean() {
        eprintln!(
            "[experiments] recovery: {} retries, {} quarantines, {} cache corruptions, \
             {} livelocks, {} deadlines, {} resumed",
            recovery.retries,
            recovery.quarantines,
            recovery.cache_corruptions,
            recovery.livelocks,
            recovery.deadlines,
            recovery.resumed_points
        );
        for line in recovery.events() {
            eprintln!("[experiments]   {line}");
        }
    }
}
