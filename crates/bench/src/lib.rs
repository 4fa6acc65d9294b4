//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation.
//!
//! Each `experiments::figNN` module exposes a `run(session, scale) ->
//! Vec<Table>` function that executes the required simulations on the
//! [`SweepSession`] and returns paper-style tables (the analytic ones take
//! no session); the `experiments` binary prints them (all, or the
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
mod table;

pub use runner::{RunRequest, Scale, SweepOutcome, SweepSession};
pub use table::Table;
