//! Machine-level run statistics — everything the paper's figures plot.


/// Aggregate results of one simulated run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Design name the run used.
    pub design: String,
    /// Core cycles simulated.
    pub cycles: u64,
    /// Wavefront instructions retired across all cores.
    pub instructions: u64,
    /// (DC-)L1 demand accesses across all nodes.
    pub l1_accesses: u64,
    /// (DC-)L1 demand hits.
    pub l1_hits: u64,
    /// (DC-)L1 demand misses.
    pub l1_misses: u64,
    /// Misses whose line was resident in another same-level cache.
    pub l1_replicated_misses: u64,
    /// Time-sampled mean copies per distinct resident line (Fig 16).
    pub mean_replicas: f64,
    /// Highest per-node data-port utilization (accesses / cycles, Fig 2/17).
    pub max_port_utilization: f64,
    /// Mean per-node data-port utilization.
    pub mean_port_utilization: f64,
    /// Highest reply-network link utilization toward the L1 level (Fig 2).
    pub max_reply_link_utilization: f64,
    /// Mean round-trip time of load transactions, in core cycles.
    pub mean_load_rtt: f64,
    /// Median load round-trip time (core cycles).
    pub p50_load_rtt: u64,
    /// 95th-percentile load round-trip time (core cycles).
    pub p95_load_rtt: u64,
    /// 99th-percentile load round-trip time (core cycles).
    pub p99_load_rtt: u64,
    /// L2 accesses across all slices.
    pub l2_accesses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// DRAM reads + writes serviced.
    pub dram_requests: u64,
    /// DRAM row-buffer hit rate.
    pub dram_row_hit_rate: f64,
    /// Flits moved per NoC group, aligned with
    /// [`Topology::noc_spec`](crate::Topology::noc_spec) entry order
    /// (request + reply directions summed) — input to the dynamic-power
    /// model.
    pub noc_flits: Vec<u64>,
    /// Per-node demand access counts (partition-camping visibility).
    pub per_node_accesses: Vec<u64>,
    /// Core cycles spent idle with zero resident wavefronts (summed over
    /// cores; part of the stall attribution, with
    /// [`stall_alu_busy`](RunStats::stall_alu_busy) through
    /// [`stall_mem_noc`](RunStats::stall_mem_noc) the six classes
    /// partition every non-issuing core cycle).
    pub stall_drained: u64,
    /// Idle cycles where wavefronts were resident but none ready (all
    /// inside ALU busy intervals, none waiting on memory).
    pub stall_alu_busy: u64,
    /// Idle cycles where at least one wavefront was waiting on an
    /// outstanding memory access (fill wait).
    pub stall_fill_wait: u64,
    /// Memory-stall cycles where a ready memory instruction could not
    /// issue because the core's outbox still held a prior transaction.
    pub stall_mem_outbox: u64,
    /// Memory-stall cycles blocked on a full L1/DC-L1 input queue.
    pub stall_mem_l1_queue: u64,
    /// Memory-stall cycles blocked on NoC#1 injection backpressure.
    pub stall_mem_noc: u64,
    /// Node-side structural stalls charged to a full MSHR file (entry or
    /// merge exhaustion), summed over nodes.
    pub l1_mshr_stall_cycles: u64,
    /// Node-side structural stalls charged to full Q2/Q3/Q4 queues or a
    /// busy port, summed over nodes.
    pub l1_queue_stall_cycles: u64,
}

impl RunStats {
    /// Instructions per cycle, the paper's performance metric.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// (DC-)L1 demand miss rate.
    pub fn l1_miss_rate(&self) -> f64 {
        if self.l1_accesses == 0 {
            0.0
        } else {
            self.l1_misses as f64 / self.l1_accesses as f64
        }
    }

    /// Fraction of L1 misses that another same-level cache could have
    /// served (paper Fig 1's replication ratio).
    pub fn replication_ratio(&self) -> f64 {
        if self.l1_misses == 0 {
            0.0
        } else {
            self.l1_replicated_misses as f64 / self.l1_misses as f64
        }
    }

    /// Load imbalance across nodes: max over mean per-node accesses
    /// (1.0 = perfectly balanced; large = partition camping).
    pub fn node_load_imbalance(&self) -> f64 {
        if self.per_node_accesses.is_empty() {
            return 0.0;
        }
        let max = *self.per_node_accesses.iter().max().expect("nonempty") as f64;
        let mean = self.per_node_accesses.iter().sum::<u64>() as f64
            / self.per_node_accesses.len() as f64;
        if mean == 0.0 {
            0.0
        } else {
            max / mean
        }
    }

    /// Run length in seconds at the given core clock.
    pub fn seconds(&self, core_mhz: u64) -> f64 {
        self.cycles as f64 / (core_mhz as f64 * 1e6)
    }

    /// Total attributed non-issue core cycles: the six stall classes
    /// partition every core cycle that did not issue an instruction, so
    /// summed over cores `instructions + total_stall_cycles ==
    /// cores × cycles` holds exactly.
    pub fn total_stall_cycles(&self) -> u64 {
        self.stall_drained
            + self.stall_alu_busy
            + self.stall_fill_wait
            + self.stall_mem_outbox
            + self.stall_mem_l1_queue
            + self.stall_mem_noc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let s = RunStats {
            cycles: 100,
            instructions: 250,
            l1_accesses: 80,
            l1_hits: 60,
            l1_misses: 20,
            l1_replicated_misses: 5,
            l2_accesses: 20,
            l2_misses: 10,
            per_node_accesses: vec![10, 30, 20, 20],
            ..RunStats::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        assert!((s.l1_miss_rate() - 0.25).abs() < 1e-12);
        assert!((s.replication_ratio() - 0.25).abs() < 1e-12);
        assert!((s.node_load_imbalance() - 1.5).abs() < 1e-12);
        assert!((s.seconds(1400) - 100.0 / 1.4e9).abs() < 1e-18);
    }

    #[test]
    fn zero_denominators_are_safe() {
        let s = RunStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.l1_miss_rate(), 0.0);
        assert_eq!(s.replication_ratio(), 0.0);
        assert_eq!(s.node_load_imbalance(), 0.0);
    }
}
