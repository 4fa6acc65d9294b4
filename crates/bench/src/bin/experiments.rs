//! Regenerates the paper's tables and figures in one process, sharing
//! the memoized simulations across them; `--help` lists the options.

#![expect(clippy::disallowed_types, reason = "reports its own wall time")]

use dcl1_bench::cli::Cli;
use dcl1_bench::experiments as ex;
use dcl1_bench::sweepcli::{self, SweepCli};
use dcl1_bench::{Scale, SweepSession, Table};

/// One experiment entry point.
type Experiment = fn(&SweepSession, Scale) -> Vec<Table>;

const CLI: Cli = Cli {
    bin: "experiments",
    about: "Prints the named experiments' tables (tab1, fig01..fig19, ablations, \
            ext_scaling), or all of them. Finished points stay in the result cache, so a killed \
            run resumes when rerun. Scale: DCL1_SCALE=full|quarter|smoke (default quarter).",
    positionals: Some("EXPERIMENT"),
    flags: &[sweepcli::FLAGS],
};

fn main() {
    let args = CLI.parse(std::env::args().skip(1));
    let shared = SweepCli::from_args(&args);
    let filter = args.positionals();
    let scale = Scale::from_env();
    let all: Vec<(&str, Experiment)> = vec![
        ("tab1", |_, scale| ex::tab1_private_configs::run(scale)),
        ("fig01", ex::fig01_motivation::run),
        ("fig02", ex::fig02_utilization::run),
        ("fig04", ex::fig04_private::run),
        ("fig06", |_, scale| ex::fig06_noc_area::run(scale)),
        ("fig08", ex::fig08_shared::run),
        ("fig09", ex::fig09_shared_insensitive::run),
        ("fig11", ex::fig11_clustered::run),
        ("fig12", |_, scale| ex::fig12_clustered_noc::run(scale)),
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
    // Every positional must name an experiment: a typo would otherwise
    // select nothing, silently.
    if let Some(arg) = filter.iter().find(|f| !all.iter().any(|(name, _)| f == name)) {
        args.fail(&format!("unknown argument {arg:?}"));
    }
    let (session, banner) = shared.open_session();
    eprintln!("[experiments] {banner}");
    shared.run_observed(scale);
    let t0 = std::time::Instant::now();
    for (name, run) in all {
        if !filter.is_empty() && !filter.iter().any(|f| f == name) {
            continue;
        }
        let t = std::time::Instant::now();
        for table in run(&session, scale) {
            println!("{table}");
        }
        eprintln!("[{name}] done in {:.1?} (total {:.1?})", t.elapsed(), t0.elapsed());
    }
    println!("{}", session.throughput_summary());
    let recovery = session.recovery_log();
    if !recovery.is_clean() {
        eprintln!(
            "[experiments] recovery: {} quarantines, {} cache corruptions, {} livelocks, \
             {} deadlines",
            recovery.quarantines,
            recovery.cache_corruptions,
            recovery.livelocks,
            recovery.deadlines
        );
        for line in recovery.events() {
            eprintln!("[experiments]   {line}");
        }
    }
}
