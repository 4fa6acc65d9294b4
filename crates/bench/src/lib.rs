//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation.
//!
//! Each `experiments::figNN` module exposes a `run(scale) -> Vec<Table>`
//! function that executes the required simulations and returns
//! paper-style tables; the `experiments` binary prints them (all, or the
//! ones named on its command line). `scale` shrinks per-wavefront trace
//! length (grids stay full so occupancy is realistic); EXPERIMENTS.md
//! records a `Scale::Quarter` pass, and `Scale::Full` reproduces the
//! same shapes with longer traces.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod grid;
pub mod ledger;
pub mod obscli;
pub mod rescli;
pub mod runner;
pub mod table;

pub use obscli::ObsCli;
pub use rescli::ResCli;
pub use runner::{
    run_app, run_app_observed, run_app_result, run_apps, run_apps_supervised, RunRequest, Scale,
    SweepOutcome,
};
pub use table::Table;

/// With `--help` / `-h` anywhere on the command line, prints `usage` and
/// exits 0 — before a bench binary parses, opens or clears anything.
pub fn exit_on_help(args: &[String], usage: &str) {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{usage}");
        std::process::exit(0);
    }
}

/// Refuses a command line with an argument no parser claimed: reports it
/// with the usage line and exits 2, so a typo never runs (or clears the
/// cache for) something other than what was asked.
pub fn reject_unknown_arg(bin: &str, usage: &str, arg: &str) -> ! {
    eprintln!("{bin}: unknown argument {arg:?}\n{usage}");
    std::process::exit(2);
}

/// Applies and removes every `--workers=N` in `args`. `N` is intra-point
/// parallelism: N shard domains inside each machine, with the point-level
/// fan-out shrunk to available/N so the two layers together never
/// oversubscribe the host. Anything but a positive integer exits 2.
pub fn apply_workers_flag(bin: &str, args: &mut Vec<String>) {
    args.retain(|a| {
        let Some(w) = a.strip_prefix("--workers=") else { return true };
        match w.parse::<usize>() {
            Ok(n) if n > 0 => {
                runner::set_shard_override(n);
                runner::set_worker_override((runner::available_cores() / n).max(1));
            }
            _ => {
                eprintln!("{bin}: bad --workers={w}: expected a positive integer");
                std::process::exit(2);
            }
        }
        false
    });
}
