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
#![expect(clippy::disallowed_types, reason = "a sweep harness times its own runs")]

pub mod cli;
pub mod experiments;
pub mod grid;
pub mod ledger;
pub mod runner;
pub mod sweepcli;
pub mod table;

pub use runner::{
    run_app, run_app_observed, run_app_result, run_apps, run_apps_supervised, RunRequest, Scale,
    SweepOutcome,
};
pub use table::Table;
