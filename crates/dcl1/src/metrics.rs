//! `dcl1.*` / `shard.*` registry namespaces plus [`MachineMetrics`], the
//! machine-owned bundle that wires every subsystem namespace into one
//! [`Registry`].
//!
//! The machine snapshots the registry **pull-style** at epoch boundaries:
//! `record` walks components in global order (the same order
//! `collect_stats` uses), so a 1-shard and an 8-shard run of the same
//! point produce byte-identical snapshots. Registration happens once at
//! enable time; every snapshot after that is index arithmetic — no
//! allocation, no hashing, no simulation-visible side effects.

use crate::node::NodeStats;
use dcl1_obs::registry::{f64_to_micros, CounterId, GaugeId, HistogramId, Registry};

/// Registered ids for the `dcl1.*` namespace (DC-L1 node behaviour —
/// the paper's replication and stall figures).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Dcl1Metrics {
    cycles: CounterId,
    l1_accesses: CounterId,
    l1_hits: CounterId,
    l1_misses: CounterId,
    l1_replicated_misses: CounterId,
    l1_bypasses: CounterId,
    l1_stall_cycles: CounterId,
    l1_mshr_stall_cycles: CounterId,
    l1_q3_stall_cycles: CounterId,
    mean_replicas_micros: GaugeId,
    node_accesses: HistogramId,
}

impl Dcl1Metrics {
    /// Registers the `dcl1.*` namespace.
    pub(crate) fn register(reg: &mut Registry) -> Dcl1Metrics {
        Dcl1Metrics {
            cycles: reg.counter("dcl1.cycles"),
            l1_accesses: reg.counter("dcl1.l1_accesses"),
            l1_hits: reg.counter("dcl1.l1_hits"),
            l1_misses: reg.counter("dcl1.l1_misses"),
            l1_replicated_misses: reg.counter("dcl1.l1_replicated_misses"),
            l1_bypasses: reg.counter("dcl1.l1_bypasses"),
            l1_stall_cycles: reg.counter("dcl1.l1_stall_cycles"),
            l1_mshr_stall_cycles: reg.counter("dcl1.l1_mshr_stall_cycles"),
            l1_q3_stall_cycles: reg.counter("dcl1.l1_q3_stall_cycles"),
            mean_replicas_micros: reg.gauge("dcl1.mean_replicas_micros"),
            node_accesses: reg.histogram("dcl1.node_accesses"),
        }
    }

    /// Snapshots node statistics summed in the order supplied (global
    /// node order) plus the presence map's mean replication factor. The
    /// per-node access histogram is rebuilt from scratch each snapshot.
    pub(crate) fn record(
        self,
        reg: &mut Registry,
        cycles: u64,
        nodes: impl Iterator<Item = NodeStats>,
        mean_replicas: f64,
    ) {
        let mut accesses = 0;
        let mut hits = 0;
        let mut misses = 0;
        let mut replicated = 0;
        let mut bypasses = 0;
        let mut stall = 0;
        let mut mshr_stall = 0;
        let mut q3_stall = 0;
        reg.clear_histogram(self.node_accesses);
        for n in nodes {
            accesses += n.accesses.get();
            hits += n.hits.get();
            misses += n.misses.get();
            replicated += n.replicated_misses.get();
            bypasses += n.bypasses.get();
            stall += n.stall_cycles.get();
            mshr_stall += n.mshr_stall_cycles.get();
            q3_stall += n.q3_stall_cycles.get();
            reg.observe(self.node_accesses, n.accesses.get());
        }
        reg.set_counter(self.cycles, cycles);
        reg.set_counter(self.l1_accesses, accesses);
        reg.set_counter(self.l1_hits, hits);
        reg.set_counter(self.l1_misses, misses);
        reg.set_counter(self.l1_replicated_misses, replicated);
        reg.set_counter(self.l1_bypasses, bypasses);
        reg.set_counter(self.l1_stall_cycles, stall);
        reg.set_counter(self.l1_mshr_stall_cycles, mshr_stall);
        reg.set_counter(self.l1_q3_stall_cycles, q3_stall);
        reg.set(self.mean_replicas_micros, f64_to_micros(mean_replicas));
    }
}

/// Registered ids for the `shard.*` namespace (execution partitioning and
/// transaction-flow conservation).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardMetrics {
    txns_produced: CounterId,
    txns_consumed: CounterId,
    txns_in_flight: GaugeId,
    presence_lines: GaugeId,
}

impl ShardMetrics {
    /// Registers the `shard.*` namespace.
    pub(crate) fn register(reg: &mut Registry) -> ShardMetrics {
        ShardMetrics {
            txns_produced: reg.counter("shard.txns_produced"),
            txns_consumed: reg.counter("shard.txns_consumed"),
            txns_in_flight: reg.gauge("shard.txns_in_flight"),
            presence_lines: reg.gauge("shard.presence_lines"),
        }
    }

    /// Snapshots partitioning and flow-conservation state.
    ///
    /// `txns_produced`/`txns_consumed` are set as snapshot values (not
    /// accumulated); `txns_in_flight` is their difference at snapshot
    /// time. All are summed over domains by the caller in domain order,
    /// and only partition-independent values are recorded (never the
    /// domain count itself) so 1-shard and N-shard snapshots match.
    pub(crate) fn record(self, reg: &mut Registry, produced: u64, consumed: u64, presence_lines: u64) {
        reg.set_counter(self.txns_produced, produced);
        reg.set_counter(self.txns_consumed, consumed);
        reg.set(self.txns_in_flight, produced.saturating_sub(consumed));
        reg.set(self.presence_lines, presence_lines);
    }
}

/// The machine's registry bundle: one [`Registry`] plus the registered id
/// sets for every subsystem namespace. Boxed inside the machine so the
/// disabled case is a single null-check.
#[derive(Debug, Clone)]
pub struct MachineMetrics {
    /// The backing registry; snapshots render from here.
    pub(crate) reg: Registry,
    /// `gpu.*` ids.
    pub(crate) gpu: dcl1_gpu::metrics::GpuMetrics,
    /// `noc.*` ids.
    pub(crate) noc: dcl1_noc::metrics::NocMetrics,
    /// `mem.*` ids.
    pub(crate) mem: dcl1_mem::metrics::MemMetrics,
    /// `cache.*` ids.
    pub(crate) cache: dcl1_cache::metrics::CacheMetrics,
    /// `dcl1.*` ids.
    pub(crate) dcl1: Dcl1Metrics,
    /// `shard.*` ids.
    pub(crate) shard: ShardMetrics,
}

impl MachineMetrics {
    /// Registers every subsystem namespace into a fresh registry.
    #[must_use]
    pub fn new() -> MachineMetrics {
        let mut reg = Registry::new();
        MachineMetrics {
            gpu: dcl1_gpu::metrics::GpuMetrics::register(&mut reg),
            noc: dcl1_noc::metrics::NocMetrics::register(&mut reg),
            mem: dcl1_mem::metrics::MemMetrics::register(&mut reg),
            cache: dcl1_cache::metrics::CacheMetrics::register(&mut reg),
            dcl1: Dcl1Metrics::register(&mut reg),
            shard: ShardMetrics::register(&mut reg),
            reg,
        }
    }

    /// Read access to the backing registry.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.reg
    }
}

impl Default for MachineMetrics {
    fn default() -> MachineMetrics {
        MachineMetrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_namespaces_register_without_collision() {
        let mm = MachineMetrics::new();
        let names: Vec<&str> = mm.registry().names().collect();
        assert!(names.len() > 30, "expected a broad namespace, got {}", names.len());
        for ns in ["gpu.", "noc.", "mem.", "cache.", "dcl1.", "shard."] {
            assert!(
                names.iter().any(|n| n.starts_with(ns)),
                "namespace {ns} missing from {names:?}"
            );
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric names");
    }

    #[test]
    fn dcl1_record_builds_histogram_and_gauge() {
        let mut reg = Registry::new();
        let ids = Dcl1Metrics::register(&mut reg);
        let mut a = NodeStats::default();
        a.accesses.add(7);
        a.hits.add(5);
        a.misses.add(2);
        a.replicated_misses.add(1);
        let mut b = NodeStats::default();
        b.accesses.add(1);
        b.bypasses.add(4);
        ids.record(&mut reg, 1000, [a, b].into_iter(), 1.25);
        assert_eq!(reg.get("dcl1.cycles"), Some(1000));
        assert_eq!(reg.get("dcl1.l1_accesses"), Some(8));
        assert_eq!(reg.get("dcl1.l1_replicated_misses"), Some(1));
        assert_eq!(reg.get("dcl1.l1_bypasses"), Some(4));
        assert_eq!(reg.get("dcl1.mean_replicas_micros"), Some(1_250_000));
        assert_eq!(reg.get("dcl1.node_accesses"), Some(2), "one observation per node");
        // Re-record with one node: histogram rebuilt, not accumulated.
        ids.record(&mut reg, 2000, [a].into_iter(), 1.0);
        assert_eq!(reg.get("dcl1.node_accesses"), Some(1));
    }

    #[test]
    fn shard_record_derives_in_flight() {
        let mut reg = Registry::new();
        let ids = ShardMetrics::register(&mut reg);
        ids.record(&mut reg, 100, 97, 512);
        assert_eq!(reg.get("shard.txns_produced"), Some(100));
        assert_eq!(reg.get("shard.txns_consumed"), Some(97));
        assert_eq!(reg.get("shard.txns_in_flight"), Some(3));
        assert_eq!(reg.get("shard.presence_lines"), Some(512));
    }
}
