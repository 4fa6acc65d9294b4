//! Performance-debugging tool: runs (app, design) points outside the memo
//! layers and dumps the machine's internal pressure counters.
//!
//! Usage:
//!   DCL1_SCALE=smoke cargo run --release -p dcl1-bench --bin dbg [APP:DESIGN ...]
//!                           # each point's `debug_snapshot` (default:
//!                           # P-2MM on the baseline and on sh40)
//!   ... --bin dbg -- --census
//!                           # the 112-point grid; prints only the visit
//!                           # census summed over it — what a step costs,
//!                           # per component class, split into visits
//!                           # that moved state and visits that did not,
//!                           # and how often a component that still held
//!                           # something was let sleep (EXPERIMENTS.md
//!                           # "Where a step goes")

// Debugging tool, not sim state: panics and small casts are acceptable.
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]

use dcl1::{GpuConfig, GpuSystem, SimOptions};
use dcl1_bench::runner::RunRequest;
use dcl1_bench::{grid, Scale};
use std::collections::BTreeMap;

/// Runs one point the way the sweep runner does (same scaling, same
/// warm-up) and returns its statistics and the machine's snapshot.
fn run(req: &RunRequest, scale: Scale) -> (dcl1::RunStats, String, std::time::Duration) {
    let (num, den) = scale.ratio();
    let spec = req.app.scaled(num, den);
    let opts = SimOptions { warmup_instructions: spec.total_instructions() / 3, ..req.opts };
    let mut sys = GpuSystem::build(&req.cfg, &req.design, &spec, opts).unwrap();
    let t0 = std::time::Instant::now();
    let stats = sys.run();
    (stats, sys.debug_snapshot(), t0.elapsed())
}

fn main() {
    let scale = Scale::from_env();
    let cfg = GpuConfig::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--census") {
        // Sum every counter of the snapshot's last line (`steps=`,
        // `visit*=`, `acted_*=`, `parked_*=`) over the grid.
        let mut census: BTreeMap<String, u64> = BTreeMap::new();
        let designs = grid::default_designs(&cfg);
        for req in grid::build_grid(&designs, &[], &cfg, SimOptions::default()) {
            let (_, snapshot, _) = run(&req, scale);
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
    let points = if args.is_empty() {
        vec!["P-2MM:baseline".to_string(), "P-2MM:sh40".to_string()]
    } else {
        args
    };
    for point in points {
        let (app, design) = point.split_once(':').expect("a point is APP:DESIGN");
        let req = RunRequest {
            app: dcl1_workloads::by_name(app).expect("an app from the catalog"),
            design: design.parse().expect("a design name"),
            cfg: cfg.clone(),
            opts: SimOptions::default(),
        };
        let (s, snapshot, wall) = run(&req, scale);
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
