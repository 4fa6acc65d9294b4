//! Performance-debugging tool: runs (app, design) points outside the memo
//! layers and dumps the machine's internal pressure counters; `--help`
//! lists the options.

// Debugging tool, not sim state: panics and small casts are acceptable.
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
#![expect(clippy::disallowed_types, reason = "reports its own wall time")]

use dcl1::{GpuConfig, SimOptions};
use dcl1_bench::cli::{Cli, Flag, Kind};
use dcl1_bench::runner::{self, RunRequest};
use dcl1_bench::{grid, Scale};
use std::collections::BTreeMap;

const CLI: Cli = Cli {
    bin: "dbg",
    about: "Prints each APP:DESIGN point's statistics and debug snapshot (default \
            P-2MM:baseline P-2MM:sh40). Scale: DCL1_SCALE=full|quarter|smoke (default quarter).",
    positionals: Some("APP:DESIGN"),
    flags: &[&[Flag::new(
        "census",
        Kind::Switch,
        "instead, visits per step by component class over the 112-point grid: moved state, \
         did nothing, parked (EXPERIMENTS.md \"Where a step goes\")",
    )]],
};

/// Resolves `APP:DESIGN` on the default machine.
fn point(arg: &str, cfg: &GpuConfig) -> Result<RunRequest, String> {
    let (app, design) = arg.split_once(':').ok_or("a point is APP:DESIGN")?;
    Ok(RunRequest {
        app: dcl1_workloads::by_name(app).ok_or_else(|| format!("unknown app {app:?}"))?,
        design: design.parse().map_err(|e| format!("{e}"))?,
        cfg: cfg.clone(),
        opts: SimOptions::default(),
    })
}

/// Runs a point outside every store: its statistics and the machine's
/// debug snapshot.
fn snapshot(req: &RunRequest, scale: Scale) -> (dcl1::RunStats, String) {
    runner::with_point(req, scale, 1, |sys, _| Ok((sys.run_result()?, sys.debug_snapshot()))).unwrap()
}

fn main() {
    let args = CLI.parse(std::env::args().skip(1));
    let cfg = GpuConfig::default();
    let mut points: Vec<RunRequest> = args
        .positionals()
        .iter()
        .map(|p| point(p, &cfg).unwrap_or_else(|e| args.fail(&format!("bad point {p:?}: {e}"))))
        .collect();
    let scale = Scale::from_env();
    if args.switch("census") {
        // Sum every counter of the snapshot's last line (`steps=`,
        // `visit*=`, `acted_*=`, `parked_*=`) over the grid.
        let mut census: BTreeMap<String, u64> = BTreeMap::new();
        let designs = grid::default_designs(&cfg);
        for req in grid::build_grid(&designs, &[], &cfg, SimOptions::default()) {
            let (_, snapshot) = snapshot(&req, scale);
            for field in snapshot.lines().last().unwrap().split_whitespace() {
                let (key, value) = field.split_once('=').unwrap();
                *census.entry(key.to_string()).or_default() += value.parse::<u64>().unwrap();
            }
        }
        let steps = census["steps"];
        let per_step = |n: u64| n as f64 / steps as f64;
        println!("steps {steps}");
        println!(
            "{:10} {:>12} {:>9} {:>12} {:>12} {:>12}",
            "class", "visits", "per step", "moved state", "did nothing", "parked"
        );
        for (key, &made) in census.iter().filter(|(key, _)| key.starts_with("visit_")) {
            let class = &key["visit_".len()..];
            let (acted, parked) = (census[&format!("acted_{class}")], census[&format!("parked_{class}")]);
            let idle = made - acted;
            println!("{class:10} {made:12} {:9.2} {acted:12} {idle:12} {parked:12}", per_step(made));
        }
        println!("visits {} = {:.2} per step", census["visits"], per_step(census["visits"]));
        return;
    }
    if points.is_empty() {
        points = ["P-2MM:baseline", "P-2MM:sh40"].map(|p| point(p, &cfg).unwrap()).into();
    }
    for req in points {
        let t0 = std::time::Instant::now();
        let (s, snapshot) = snapshot(&req, scale);
        let wall = t0.elapsed();
        let app = req.app.name;
        println!(
            "{app:12} {:16} cycles={:9} instr={:9} ipc={:5.2} miss={:.2} rtt={:6.1} wall={wall:?}",
            s.design,
            s.cycles,
            s.instructions,
            s.ipc(),
            s.l1_miss_rate(),
            s.mean_load_rtt
        );
        println!("{snapshot}---");
    }
}
