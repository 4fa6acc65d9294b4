//! Analytical area, power and frequency models.
//!
//! The paper evaluates NoC area/power with **DSENT** (22 nm) and cache area
//! with **CACTI 6.5**. Neither tool is available here, so this crate
//! provides closed-form stand-ins calibrated against the *relative* numbers
//! the paper prints, which are the only quantities its arguments use:
//!
//! * NoC area of Pr40 / Pr20 / Pr10 = −28% / −54% / −67% vs baseline
//!   (Fig 6), Sh40 = +69% (Section V-B), clustered C5 / C10 / C20 =
//!   −45% / −50% / −45% (Fig 12);
//! * NoC static power: Pr40 ≈ −4%, Sh40 strongly up, C10 ≈ −16%;
//! * maximum crossbar frequency falling with radix (Fig 13b): big 80×32 /
//!   80×40 crossbars cannot reach 2× the 700 MHz interconnect clock, while
//!   2×1 and 8×4 crossbars can;
//! * SRAM area where 40 DC-L1 banks beat 80 half-size banks by ~8% and the
//!   4×4×128 B node queues cost 6.25% of the L1 budget (Fig 18b).
//!
//! Calibration-fit tests live in each module.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cacti;
mod dsent;
mod energy;

pub use cacti::SramModel;
pub use dsent::{CrossbarModel, NocSpec, XbarSpec};
pub use energy::{EnergyReport, NocPowerBreakdown};
