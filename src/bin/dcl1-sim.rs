//! `dcl1-sim` — command-line front end to the simulator; `--help` lists
//! the options.

use dcl1_repro::bench::cli::Kind::{Repeated, Switch, Value};
use dcl1_repro::bench::cli::{Cli, Flag};
use dcl1_repro::bench::{Scale, Table};
use dcl1_repro::dcl1::{Design, GpuConfig, GpuSystem, RunStats, SimOptions};
use dcl1_repro::gpu::{CtaPolicy, IssuePolicy, TraceFactory};
use dcl1_repro::workloads::{all_apps, by_name, FileTraceFactory, SharedSpec};

const CLI: Cli = Cli {
    bin: "dcl1-sim",
    about: "Runs one workload on a set of designs and prints a table, the first design \
            the IPC reference. Scale: DCL1_SCALE=full|quarter|smoke (default quarter).",
    positionals: None,
    flags: &[&[
        Flag::new("list-apps", Switch, "print the catalog and exit"),
        Flag::new("app", Value("NAME"), "workload from the 28-app catalog (default T-AlexNet)"),
        Flag::new("replay", Value("FILE"), "replay a recorded .dcl1trc trace instead (from cold)"),
        Flag::new(
            "design",
            Repeated("NAME"),
            "baseline | ideal | prY | shY | shY+cZ | shY+cZ+boost | cdxbar[+2xnoc1|+2xnoc] | \
             baseline+2xl1 | baseline+2xnoc | baseline+4xflit (default baseline, sh40+c10+boost)",
        ),
        Flag::new("cores", Value("N"), "core count (default 80)"),
        Flag::new("l1-kb", Value("N"), "per-core L1 KiB (default 16)"),
        Flag::new("latency", Value("N"), "L1/DC-L1 access latency override"),
        Flag::new("perfect", Switch, "perfect (always-hit) L1s"),
        Flag::new("gto", Switch, "greedy-then-oldest wavefront scheduler"),
        Flag::new("distributed-ctas", Switch, "block-distributed CTA scheduler"),
        Flag::new("no-warmup", Switch, "measure from cold (default: warm over the first third)"),
        Flag::new("csv", Switch, "CSV instead of a table"),
    ]],
};

fn main() {
    let args = CLI.parse(std::env::args().skip(1));
    if args.switch("list-apps") {
        for app in all_apps() {
            println!(
                "{:14} {:10} {}",
                app.name,
                format!("{:?}", app.suite),
                if app.replication_sensitive { "replication-sensitive" } else { "" }
            );
        }
        return;
    }
    let mut cfg = GpuConfig::default();
    cfg.cores = args.value("cores").unwrap_or(cfg.cores);
    cfg.l1_bytes = args.value::<usize>("l1-kb").map_or(cfg.l1_bytes, |kb| kb * 1024);
    if args.switch("gto") {
        cfg.issue_policy = IssuePolicy::GreedyThenOldest;
    }
    let mut opts = SimOptions {
        l1_latency_override: args.value("latency"),
        perfect_l1: args.switch("perfect"),
        ..SimOptions::default()
    };
    if args.switch("distributed-ctas") {
        opts.cta_policy = CtaPolicy::DistributedBlocks;
    }
    let mut designs: Vec<Design> = args.values("design");
    if designs.is_empty() {
        designs = vec![Design::Baseline, Design::flagship(&cfg)];
    }

    // Resolve the workload.
    let replay;
    let spec;
    let (name, factory): (String, &dyn TraceFactory) = match args.value::<String>("replay") {
        Some(p) => {
            replay = FileTraceFactory::load(&p)
                .unwrap_or_else(|e| args.fail(&format!("cannot load trace {p}: {e}")));
            (p, &replay)
        }
        None => {
            let name = args.value("app").unwrap_or_else(|| "T-AlexNet".to_string());
            let (num, den) = Scale::from_env().ratio();
            spec = SharedSpec::new(
                by_name(&name)
                    .unwrap_or_else(|| args.fail(&format!("unknown app {name}; try --list-apps")))
                    .scaled(num, den),
            );
            if !args.switch("no-warmup") {
                opts.warmup_instructions = spec.spec().total_instructions() / 3;
            }
            (name, &spec)
        }
    };

    let mut table = Table::new(
        format!("{name}: {} designs on {} cores", designs.len(), cfg.cores),
        &["design", "cycles", "IPC", "miss", "repl", "rtt_p50", "rtt_p95", "dram"],
    );
    let mut base_ipc: Option<f64> = None;
    for design in &designs {
        let mut sys = GpuSystem::build(&cfg, design, factory, opts)
            .unwrap_or_else(|e| args.fail(&format!("{}: {e}", design.name())));
        let stats: RunStats = sys.run();
        let ipc = stats.ipc();
        let norm = ipc / *base_ipc.get_or_insert(ipc);
        table.row(
            stats.design.clone(),
            vec![
                stats.cycles.to_string(),
                format!("{ipc:.2} ({norm:.2}x)"),
                format!("{:.3}", stats.l1_miss_rate()),
                format!("{:.3}", stats.replication_ratio()),
                stats.p50_load_rtt.to_string(),
                stats.p95_load_rtt.to_string(),
                stats.dram_requests.to_string(),
            ],
        );
    }
    if args.switch("csv") {
        print!("{}", table.to_csv());
    } else {
        println!("{table}");
    }
}
