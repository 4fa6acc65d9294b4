//! Checked-simulation mode: the machine's conservation-invariant harness.
//!
//! When enabled (`GpuSystem::enable_check`, surfaced as `--check` on the
//! bench binaries), the machine verifies its conservation laws every
//! [`EPOCH_CYCLES`] cycles and once more at drain:
//!
//! * **Transactions** — every coalesced request issued by a core is retired
//!   back at a core exactly once. The ledger is *per execution domain*
//!   ([`FlowMeter`] on each shard), so the law holds shard-locally and —
//!   because a transaction issues and retires in the same domain — globally
//!   by summation; zero in flight at drain, in every domain.
//! * **Crossbars** — lifetime flits injected == flits delivered + flits
//!   held; the O(1) occupancy counters match a ground-truth recount.
//! * **Queues** — every Q1..Q4 / L2-input queue conserves its items and
//!   stays within capacity.
//! * **MSHRs** — allocations == frees + live entries; no waiter lost.
//! * **Stall attribution** — per core, `instructions + stalls == cycles`
//!   over the measured window (the stall-accounting test's identity,
//!   checked continuously instead of once at exit).
//!
//! Checking costs one pass over the component gauges per epoch and never
//! touches a statistic, so a checked run produces byte-identical stats to
//! an unchecked one (proven by `crates/bench/tests/checked_sim.rs`). Any
//! violation panics with the failing site and cycle.
//!
//! [`FlowMeter`]: dcl1_common::invariant::FlowMeter

/// Cycles between invariant sweeps. A power of two so the machine's
/// `is_multiple_of` probe is a mask; idle fast-forward may jump over a
/// boundary, which is sound — quiescent state cannot break conservation.
pub(crate) const EPOCH_CYCLES: u64 = 1024;

/// Per-run state of the checked-sim harness.
///
/// The transaction ledgers themselves live on the machine's shard domains
/// (one `FlowMeter` each, maintained unconditionally so the sharded and
/// sequential paths share one accounting surface); the checker holds only
/// the sweep cadence bookkeeping.
#[derive(Debug, Default)]
pub struct SimChecker {
    /// Invariant sweeps completed (reported by the bench binaries).
    pub epochs_checked: u64,
}

impl SimChecker {
    /// A fresh harness.
    pub fn new() -> Self {
        SimChecker { epochs_checked: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcl1_common::invariant::{FlowMeter, InvariantResult};

    /// The per-domain transaction law the machine's sweep applies to each
    /// shard: retirement never overtakes issue, and the ledger's implied
    /// in-flight count is self-consistent.
    fn domain_flow_law(flow: &FlowMeter) -> InvariantResult {
        flow.check(flow.in_flight())
    }

    #[test]
    fn drained_domain_ledger_is_clean() {
        let mut flow = FlowMeter::new("txns");
        flow.produce(5);
        for _ in 0..5 {
            flow.consume(1);
        }
        assert!(domain_flow_law(&flow).is_ok());
        assert!(flow.check_drained().is_ok());
    }

    #[test]
    fn outstanding_txns_fail_drain_check() {
        let mut flow = FlowMeter::new("txns");
        flow.produce(2);
        flow.consume(1);
        assert!(domain_flow_law(&flow).is_ok(), "in-flight is legal mid-run");
        let err = flow.check_drained().unwrap_err();
        assert!(err.detail.contains("leak"), "{err}");
    }

    #[test]
    fn checker_counts_epochs_only() {
        let mut ck = SimChecker::new();
        assert_eq!(ck.epochs_checked, 0);
        ck.epochs_checked += 1;
        assert_eq!(ck.epochs_checked, 1);
    }
}
