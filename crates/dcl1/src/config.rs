//! Machine configuration (paper Table II).

use dcl1_common::ConfigError;
use dcl1_gpu::IssuePolicy;
use dcl1_mem::{DramConfig, L2Config};
use dcl1_noc::CrossbarConfig;

/// Full-machine configuration. Defaults reproduce the paper's Table II
/// (80 cores, 16 KB 4-way write-evict L1s, 32 L2 slices, 16 GDDR5 MCs);
/// deviations from the garbled table entries are documented in DESIGN.md.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct GpuConfig {
    /// GPU cores (paper: 80; the scaling study uses 120).
    pub cores: usize,
    /// Core clock in MHz (1400).
    pub core_mhz: u64,
    /// Interconnect (NoC#2 / baseline NoC) clock in MHz (700).
    pub noc_mhz: u64,
    /// Memory command clock in MHz (924).
    pub mem_mhz: u64,
    /// Per-core baseline L1 capacity in bytes (16 KB).
    pub l1_bytes: usize,
    /// L1 associativity (4).
    pub l1_assoc: usize,
    /// L1/DC-L1 access latency in core cycles (28).
    pub l1_latency: u32,
    /// Extra DC-L1 access latency per capacity doubling (paper §VIII:
    /// a 2× DC-L1 runs at 30 vs 28 cycles, i.e. +2 per doubling).
    pub l1_latency_per_doubling: u32,
    /// Per-core MSHR entries (aggregated into DC-L1 nodes pro rata).
    /// 64 keeps streaming kernels memory-bandwidth-bound rather than
    /// outstanding-miss-bound even at DC-L1 round-trip times.
    pub l1_mshr_entries: usize,
    /// Merges per MSHR entry.
    pub l1_mshr_merges: usize,
    /// DC-L1 node queue capacity in entries (paper Fig 3 / §VIII: 4).
    pub node_queue_entries: usize,
    /// Maximum wavefronts per core (48).
    pub max_wavefronts: usize,
    /// Maximum resident CTAs per core.
    pub max_ctas_per_core: usize,
    /// L2 slices (32).
    pub l2_slices: usize,
    /// Per-slice L2 configuration.
    pub l2: L2Config,
    /// Memory controllers (16).
    pub mcs: usize,
    /// Per-channel DRAM configuration.
    pub dram: DramConfig,
    /// Cache line size in bytes (128).
    pub line_bytes: usize,
    /// NoC flit size in bytes (32).
    pub flit_bytes: u32,
    /// Router virtual channels, modelled as allocation lookahead depth
    /// (paper Table II: 4 VCs per port). 1 = pure FIFO inputs.
    pub noc_vcs: usize,
    /// Wavefront issue policy (greedy round-robin, or GPGPU-Sim's GTO).
    pub issue_policy: IssuePolicy,
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig {
            cores: 80,
            core_mhz: 1400,
            noc_mhz: 700,
            mem_mhz: 924,
            l1_bytes: 16 * 1024,
            l1_assoc: 4,
            l1_latency: 28,
            l1_latency_per_doubling: 2,
            l1_mshr_entries: 64,
            l1_mshr_merges: 8,
            node_queue_entries: 4,
            max_wavefronts: 48,
            max_ctas_per_core: 6,
            l2_slices: 32,
            l2: L2Config::default(),
            mcs: 16,
            dram: DramConfig::default(),
            line_bytes: 128,
            flit_bytes: 32,
            noc_vcs: 4,
            issue_policy: IssuePolicy::GreedyRoundRobin,
        }
    }
}

impl GpuConfig {
    /// The 120-core scaling configuration of §VIII-A: 120 cores, 60 DC-L1
    /// nodes (designs pick the node count), 48 L2 slices, 24 channels.
    pub fn scaled_120() -> Self {
        GpuConfig {
            cores: 120,
            l2_slices: 48,
            mcs: 24,
            ..GpuConfig::default()
        }
    }

    /// A deliberately tiny machine for unit/integration tests: 8 cores,
    /// 4 L2 slices, 2 memory channels, small caches, shallow latency.
    pub fn small_test() -> Self {
        GpuConfig {
            cores: 8,
            l1_bytes: 2 * 1024,
            l1_latency: 4,
            l1_mshr_entries: 8,
            max_wavefronts: 8,
            max_ctas_per_core: 2,
            l2_slices: 4,
            l2: L2Config {
                size_bytes: 16 * 1024,
                latency: 8,
                ..L2Config::default()
            },
            mcs: 2,
            ..GpuConfig::default()
        }
    }

    /// Validates cross-field constraints shared by every design.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when slice/MC counts don't divide evenly or
    /// any structural parameter is zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cores == 0 || self.l2_slices == 0 || self.mcs == 0 {
            return Err(ConfigError::new("cores, L2 slices and MCs must be nonzero"));
        }
        if !self.l2_slices.is_multiple_of(self.mcs) {
            return Err(ConfigError::new(format!(
                "L2 slices ({}) must be a multiple of MCs ({})",
                self.l2_slices, self.mcs
            )));
        }
        if self.line_bytes == 0 || self.flit_bytes == 0 {
            return Err(ConfigError::new("line and flit sizes must be nonzero"));
        }
        if !self.l1_bytes.is_multiple_of(self.l1_assoc * self.line_bytes) {
            return Err(ConfigError::new("L1 size must be a multiple of assoc × line size"));
        }
        Ok(())
    }

    /// Total L1 capacity across the GPU — held constant by every DC-L1
    /// design (paper §IV-A).
    pub fn total_l1_bytes(&self) -> usize {
        self.cores * self.l1_bytes
    }

    /// L2 slices per memory controller.
    pub(crate) fn slices_per_mc(&self) -> usize {
        self.l2_slices / self.mcs
    }

    /// Router configuration of an `inputs×outputs` crossbar of this
    /// machine (either NoC), with the configured VC lookahead.
    pub(crate) fn xbar_config(&self, inputs: usize, outputs: usize) -> CrossbarConfig {
        CrossbarConfig {
            vc_lookahead: self.noc_vcs.max(1),
            ..CrossbarConfig::new(inputs, outputs).expect("nonzero ports")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_ii() {
        let c = GpuConfig::default();
        assert_eq!(c.cores, 80);
        assert_eq!(c.l2_slices, 32);
        assert_eq!(c.mcs, 16);
        assert_eq!(c.l1_latency, 28);
        assert_eq!(c.total_l1_bytes(), 80 * 16 * 1024);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn scaled_config_valid() {
        let c = GpuConfig::scaled_120();
        assert!(c.validate().is_ok());
        assert_eq!(c.slices_per_mc(), 2);
    }

    #[test]
    fn invalid_slice_mc_ratio_rejected() {
        let c = GpuConfig { l2_slices: 30, ..GpuConfig::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn small_test_config_valid() {
        assert!(GpuConfig::small_test().validate().is_ok());
    }
}
