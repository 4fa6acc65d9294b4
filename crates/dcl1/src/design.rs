//! The paper's cache-hierarchy designs and their resolved topologies.

use crate::config::GpuConfig;
use dcl1_common::ConfigError;
use dcl1_power::{NocSpec, XbarSpec};

/// Which boosted-baseline sensitivity variant (paper §VIII-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaselineBoost {
    /// 2× per-core L1 capacity.
    Cache2x,
    /// 2× NoC frequency (the paper notes the 80×32 crossbar cannot
    /// actually be clocked that fast; evaluated anyway as an upper bound).
    NocFreq2x,
    /// 4× flit size.
    Flit4x,
}

/// A cache-hierarchy design under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Design {
    /// Conventional GPU: private per-core L1s, one `cores×slices`
    /// crossbar to the L2 partitions.
    Baseline,
    /// Baseline with one resource boosted (sensitivity study).
    BoostedBaseline(BaselineBoost),
    /// §II-A hypothetical: one L1 of total capacity, accessed by every
    /// core with per-core ports (no replication, undiminished bandwidth).
    IdealSingleL1,
    /// `PrY`: `nodes` DC-L1s, each private to `cores/nodes` cores.
    Private {
        /// DC-L1 node count `Y`.
        nodes: usize,
    },
    /// `ShY`: `nodes` DC-L1s shared by all cores via home-bit
    /// interleaving.
    Shared {
        /// DC-L1 node count `Y`.
        nodes: usize,
    },
    /// `ShY+CZ`: `clusters` clusters, each sharing `nodes/clusters`
    /// DC-L1s among `cores/clusters` cores. `boost` doubles NoC#1 clock.
    Clustered {
        /// DC-L1 node count `Y`.
        nodes: usize,
        /// Cluster count `Z`.
        clusters: usize,
        /// Whether NoC#1 runs at 2× (the `+Boost` design).
        boost: bool,
    },
    /// Hierarchical two-stage crossbar comparator (Fig 19a), over the
    /// baseline private-L1 machine. Stage 1 concentrates groups of cores;
    /// stage 2 is a narrower crossbar to the slices. The frequency
    /// multipliers realise `CDXBar`, `CDXBar+2xNoC1` and `CDXBar+2xNoC`.
    CdXbar {
        /// Stage-1 clock multiplier over the interconnect clock.
        stage1_mult: u64,
        /// Stage-2 clock multiplier over the interconnect clock.
        stage2_mult: u64,
    },
}

impl Design {
    /// The paper's name for this design.
    pub fn name(&self) -> String {
        match self {
            Design::Baseline => "Baseline".into(),
            Design::BoostedBaseline(BaselineBoost::Cache2x) => "Baseline+2xL1".into(),
            Design::BoostedBaseline(BaselineBoost::NocFreq2x) => "Baseline+2xNoC".into(),
            Design::BoostedBaseline(BaselineBoost::Flit4x) => "Baseline+4xFlit".into(),
            Design::IdealSingleL1 => "IdealSingleL1".into(),
            Design::Private { nodes } => format!("Pr{nodes}"),
            Design::Shared { nodes } => format!("Sh{nodes}"),
            Design::Clustered { nodes, clusters, boost } => {
                let b = if *boost { "+Boost" } else { "" };
                format!("Sh{nodes}+C{clusters}{b}")
            }
            Design::CdXbar { stage1_mult, stage2_mult } => match (stage1_mult, stage2_mult) {
                (1, 1) => "CDXBar".into(),
                (2, 1) => "CDXBar+2xNoC1".into(),
                (2, 2) => "CDXBar+2xNoC".into(),
                (a, b) => format!("CDXBar+{a}x/{b}x"),
            },
        }
    }

    /// The paper's headline configuration: `Sh40+C10+Boost` scaled to the
    /// machine (half as many nodes as cores, 10 clusters).
    pub fn flagship(cfg: &GpuConfig) -> Design {
        Design::Clustered { nodes: cfg.cores / 2, clusters: 10, boost: true }
    }

    /// Resolves this design against a machine configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the design's divisibility constraints do
    /// not hold (e.g. node count must divide core count).
    pub fn topology(&self, cfg: &GpuConfig) -> Result<Topology, ConfigError> {
        cfg.validate()?;
        let x = cfg.cores;
        let l = cfg.l2_slices;
        let base = Topology {
            name: self.name(),
            cores: x,
            nodes: x,
            clusters: x,
            attachment: Attachment::Direct,
            noc2: Noc2Kind::Single,
            noc2_freq_mult: 1,
            l1_size_mult: 1,
            flit_mult: 1,
            ideal_ports: false,
        };
        // PrY is Y clusters of one node and ShY one cluster of Y nodes:
        // both resolve as the clustered design they are, under their own
        // names.
        let (nodes, clusters, boost) = match *self {
            Design::Baseline => return Ok(base),
            Design::BoostedBaseline(BaselineBoost::Cache2x) => {
                return Ok(Topology { l1_size_mult: 2, ..base })
            }
            Design::BoostedBaseline(BaselineBoost::NocFreq2x) => {
                return Ok(Topology { noc2_freq_mult: 2, ..base })
            }
            Design::BoostedBaseline(BaselineBoost::Flit4x) => {
                return Ok(Topology { flit_mult: 4, ..base })
            }
            Design::IdealSingleL1 => {
                return Ok(Topology { nodes: 1, clusters: 1, ideal_ports: true, ..base })
            }
            Design::CdXbar { stage1_mult, stage2_mult } => {
                check_div(x, 10, "cores", "stage-1 groups")?;
                return Ok(Topology {
                    noc2: Noc2Kind::TwoStage {
                        groups: 10,
                        uplinks: 2,
                        stage1_mult,
                        stage2_mult,
                    },
                    ..base
                });
            }
            Design::Private { nodes } => (nodes, nodes, false),
            Design::Shared { nodes } => (nodes, 1, false),
            Design::Clustered { nodes, clusters, boost } => (nodes, clusters, boost),
        };
        check_div(x, nodes, "cores", "nodes")?;
        check_div(nodes, clusters, "nodes", "clusters")?;
        check_div(x, clusters, "cores", "clusters")?;
        Ok(Topology {
            nodes,
            clusters,
            attachment: Attachment::Noc1 { ticks_per_cycle: if boost { 2 } else { 1 } },
            noc2: Noc2Kind::for_nodes_per_cluster(nodes / clusters, l),
            ..base
        })
    }
}

impl std::str::FromStr for Design {
    type Err = ConfigError;

    /// Parses the paper's design names, case-insensitively:
    /// `baseline`, `ideal`, `prY` (e.g. `pr40`), `shY` (e.g. `sh40`),
    /// `shY+cZ` (e.g. `sh40+c10`), `shY+cZ+boost`, `cdxbar`,
    /// `cdxbar+2xnoc1`, `cdxbar+2xnoc`, `baseline+2xl1`,
    /// `baseline+2xnoc`, `baseline+4xflit`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for unrecognized names or malformed
    /// numbers.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let t = s.trim().to_ascii_lowercase();
        let num = |x: &str| -> Result<usize, ConfigError> {
            x.parse().map_err(|_| ConfigError::new(format!("bad number in design name: {s}")))
        };
        match t.as_str() {
            "baseline" => return Ok(Design::Baseline),
            "ideal" | "idealsinglel1" => return Ok(Design::IdealSingleL1),
            "baseline+2xl1" => return Ok(Design::BoostedBaseline(BaselineBoost::Cache2x)),
            "baseline+2xnoc" => return Ok(Design::BoostedBaseline(BaselineBoost::NocFreq2x)),
            "baseline+4xflit" => return Ok(Design::BoostedBaseline(BaselineBoost::Flit4x)),
            "cdxbar" => return Ok(Design::CdXbar { stage1_mult: 1, stage2_mult: 1 }),
            "cdxbar+2xnoc1" => return Ok(Design::CdXbar { stage1_mult: 2, stage2_mult: 1 }),
            "cdxbar+2xnoc" => return Ok(Design::CdXbar { stage1_mult: 2, stage2_mult: 2 }),
            _ => {}
        }
        if let Some(rest) = t.strip_prefix("pr") {
            return Ok(Design::Private { nodes: num(rest)? });
        }
        if let Some(rest) = t.strip_prefix("sh") {
            let mut parts = rest.split('+');
            let nodes = num(parts.next().unwrap_or_default())?;
            match (parts.next(), parts.next(), parts.next()) {
                (None, _, _) => return Ok(Design::Shared { nodes }),
                (Some(c), boost, None) if c.starts_with('c') => {
                    let clusters = num(&c[1..])?;
                    let boost = match boost {
                        None => false,
                        Some("boost") => true,
                        Some(other) => {
                            return Err(ConfigError::new(format!(
                                "unknown design suffix '{other}' in {s}"
                            )))
                        }
                    };
                    return Ok(Design::Clustered { nodes, clusters, boost });
                }
                _ => {}
            }
        }
        Err(ConfigError::new(format!("unknown design name: {s}")))
    }
}

fn check_div(a: usize, b: usize, an: &str, bn: &str) -> Result<(), ConfigError> {
    if b == 0 || !a.is_multiple_of(b) {
        Err(ConfigError::new(format!("{an} ({a}) must be divisible by {bn} ({b})")))
    } else {
        Ok(())
    }
}

/// How cores reach their DC-L1 node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attachment {
    /// The L1 sits inside the core (baseline designs): accesses do not
    /// serialize over a NoC and replies are full-width.
    Direct,
    /// Through NoC#1 crossbars with 32 B flits.
    Noc1 {
        /// NoC#1 ticks per core cycle (1 normally, 2 under `+Boost`;
        /// NoC#1 runs at the core clock — the assignment that reproduces
        /// Table I's peak-bandwidth arithmetic).
        ticks_per_cycle: u64,
    },
}

/// Structure of NoC#2 (DC-L1 nodes / cores ↔ L2 slices).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Noc2Kind {
    /// One `sources×slices` crossbar (baseline, PrY, and ShY when the
    /// per-cluster node count exceeds the slice count).
    Single,
    /// `m` disjoint crossbars: home-slot `k`'s nodes (one per cluster)
    /// reach only the `slices/m` slices serving slot `k`'s address range
    /// (paper Fig 10).
    Sliced {
        /// Number of address-range groups (= nodes per cluster).
        groups: usize,
    },
    /// The hierarchical CDXBar comparator: stage 1 concentrates
    /// `cores/groups` cores onto `uplinks` ports, stage 2 connects
    /// `groups·uplinks` ports to all slices.
    TwoStage {
        /// Stage-1 crossbar count.
        groups: usize,
        /// Uplinks per stage-1 crossbar.
        uplinks: usize,
        /// Stage-1 clock multiplier.
        stage1_mult: u64,
        /// Stage-2 clock multiplier.
        stage2_mult: u64,
    },
}

impl Noc2Kind {
    /// Chooses the paper's NoC#2 structure for `m` nodes per cluster and
    /// `l` slices: `m` address-range crossbars when `m` divides `l`,
    /// otherwise one big crossbar (the Sh40 case, m=40 > l=32).
    pub(crate) fn for_nodes_per_cluster(m: usize, l: usize) -> Self {
        if m <= l && l.is_multiple_of(m) {
            Noc2Kind::Sliced { groups: m }
        } else {
            Noc2Kind::Single
        }
    }
}

/// A design resolved against a machine: everything the simulator and the
/// power model need to instantiate hardware.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// Design name.
    pub name: String,
    /// Core count `X`.
    pub cores: usize,
    /// DC-L1 node count `Y` (= `X` for baseline designs).
    pub nodes: usize,
    /// Cluster count `Z` (`Y` for private designs, 1 for fully shared).
    pub clusters: usize,
    /// Core ↔ node attachment.
    pub attachment: Attachment,
    /// NoC#2 structure.
    pub noc2: Noc2Kind,
    /// NoC#2 clock multiplier (boosted-baseline sensitivity only).
    pub noc2_freq_mult: u64,
    /// L1 capacity multiplier (16× study, cache-boosted baseline).
    pub l1_size_mult: usize,
    /// Flit-size multiplier (flit-boosted baseline).
    pub flit_mult: u32,
    /// Whether the node has one data port per core (ideal single L1).
    pub ideal_ports: bool,
}

impl Topology {
    /// Cores per cluster.
    pub fn cores_per_cluster(&self) -> usize {
        self.cores / self.clusters
    }

    /// Nodes per cluster (`M`).
    pub fn nodes_per_cluster(&self) -> usize {
        self.nodes / self.clusters
    }

    /// The cluster a core belongs to.
    pub fn cluster_of_core(&self, core: usize) -> usize {
        core / self.cores_per_cluster()
    }

    /// Home node (global index) for `line` accessed by `core`: lines
    /// interleave by home bits over the nodes of the core's cluster (paper
    /// §V-A, §VI-A: `⌈log2(Y/Z)⌉` home bits). A cluster of one node (every
    /// private and baseline design) homes every line there.
    pub fn home_node(&self, core: usize, line: dcl1_common::LineAddr) -> usize {
        let m = self.nodes_per_cluster();
        self.cluster_of_core(core) * m + line.interleave(m)
    }

    /// Per-node DC-L1 capacity in bytes: total L1 budget divided evenly
    /// (paper §IV-A), times any baseline-boost multiplier.
    pub fn node_bytes(&self, cfg: &GpuConfig) -> usize {
        cfg.total_l1_bytes() * self.l1_size_mult / self.nodes
    }

    /// DC-L1 access latency: base latency plus the paper's ~7% per
    /// capacity doubling (§VIII: 30 vs 28 cycles at 2×).
    pub(crate) fn node_latency(&self, cfg: &GpuConfig) -> u32 {
        let ratio = self.node_bytes(cfg) / cfg.l1_bytes.max(1);
        let doublings = if ratio > 1 { ratio.ilog2() } else { 0 };
        cfg.l1_latency + doublings * cfg.l1_latency_per_doubling
    }

    /// Peak aggregate L1 bandwidth in bytes per core cycle (Table I).
    ///
    /// Direct-attached L1s deliver a full line per cycle per cache; NoC#1
    /// designs are limited by their 32 B reply links at the NoC#1 rate.
    pub fn peak_l1_bandwidth(&self, cfg: &GpuConfig) -> f64 {
        match self.attachment {
            Attachment::Direct => (self.nodes * cfg.line_bytes) as f64,
            Attachment::Noc1 { ticks_per_cycle } => {
                (self.nodes as f64)
                    * (cfg.flit_bytes * self.flit_mult) as f64
                    * ticks_per_cycle as f64
            }
        }
    }

    /// NoC#1 tick multiplier (0 when direct-attached).
    pub(crate) fn noc1_ticks_per_cycle(&self) -> u64 {
        match self.attachment {
            Attachment::Direct => 0,
            Attachment::Noc1 { ticks_per_cycle } => ticks_per_cycle,
        }
    }

    /// The DSENT-style NoC description of this topology (one direction),
    /// used for area/power analysis. Entry order: NoC#1 crossbars first
    /// (if any), then NoC#2.
    pub fn noc_spec(&self, cfg: &GpuConfig) -> NocSpec {
        let noc_mhz = (cfg.noc_mhz * self.noc2_freq_mult) as f64;
        let noc1_mhz = (cfg.core_mhz * self.noc1_ticks_per_cycle()) as f64;
        let wm = self.flit_mult as f64;
        let mut xbars = Vec::new();
        if let Attachment::Noc1 { .. } = self.attachment {
            xbars.push(
                XbarSpec::new(
                    self.cores_per_cluster(),
                    self.nodes_per_cluster(),
                    self.clusters,
                    // Intra-cluster links are short only when the cluster
                    // is localized; the fully-shared design wires every
                    // core to every node across the die.
                    if self.clusters > 1 { 3.3 } else { 12.3 },
                    noc1_mhz,
                )
                .with_width_mult(wm),
            );
        }
        match self.noc2 {
            Noc2Kind::Single => xbars.push(
                XbarSpec::new(self.nodes, cfg.l2_slices, 1, 12.3, noc_mhz).with_width_mult(wm),
            ),
            Noc2Kind::Sliced { groups } => xbars.push(
                XbarSpec::new(self.clusters, cfg.l2_slices / groups, groups, 12.3, noc_mhz)
                    .with_width_mult(wm),
            ),
            Noc2Kind::TwoStage { groups, uplinks, stage1_mult, stage2_mult } => {
                xbars.push(
                    XbarSpec::new(
                        self.cores / groups,
                        uplinks,
                        groups,
                        3.3,
                        (cfg.noc_mhz * stage1_mult) as f64,
                    )
                    .with_width_mult(wm),
                );
                xbars.push(
                    XbarSpec::new(
                        groups * uplinks,
                        cfg.l2_slices,
                        1,
                        12.3,
                        (cfg.noc_mhz * stage2_mult) as f64,
                    )
                    .with_width_mult(wm),
                );
            }
        }
        NocSpec::new(self.name.clone(), xbars)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcl1_common::LineAddr;

    fn cfg() -> GpuConfig {
        GpuConfig::default()
    }

    #[test]
    fn names_match_paper() {
        let c = cfg();
        assert_eq!(Design::Baseline.name(), "Baseline");
        assert_eq!(Design::Private { nodes: 40 }.name(), "Pr40");
        assert_eq!(Design::Shared { nodes: 40 }.name(), "Sh40");
        assert_eq!(
            Design::Clustered { nodes: 40, clusters: 10, boost: true }.name(),
            "Sh40+C10+Boost"
        );
        assert_eq!(Design::CdXbar { stage1_mult: 2, stage2_mult: 2 }.name(), "CDXBar+2xNoC");
        assert_eq!(Design::flagship(&c).name(), "Sh40+C10+Boost");
    }

    #[test]
    fn design_names_parse_round_trip() {
        for d in [
            Design::Baseline,
            Design::IdealSingleL1,
            Design::Private { nodes: 40 },
            Design::Shared { nodes: 40 },
            Design::Clustered { nodes: 40, clusters: 10, boost: false },
            Design::Clustered { nodes: 40, clusters: 10, boost: true },
            Design::CdXbar { stage1_mult: 1, stage2_mult: 1 },
            Design::CdXbar { stage1_mult: 2, stage2_mult: 2 },
            Design::BoostedBaseline(BaselineBoost::Cache2x),
            Design::BoostedBaseline(BaselineBoost::Flit4x),
        ] {
            let parsed: Design = d.name().parse().unwrap_or_else(|e| panic!("{}: {e}", d.name()));
            assert_eq!(parsed, d, "round trip of {}", d.name());
        }
        assert!("sh40+c10+turbo".parse::<Design>().is_err());
        assert!("frobnicate".parse::<Design>().is_err());
        assert!("prX".parse::<Design>().is_err());
    }

    #[test]
    fn pr40_topology() {
        let t = Design::Private { nodes: 40 }.topology(&cfg()).unwrap();
        assert_eq!(t.clusters, 40);
        assert_eq!(t.cores_per_cluster(), 2);
        assert_eq!(t.nodes_per_cluster(), 1);
        assert_eq!(t.node_bytes(&cfg()), 32 * 1024); // double capacity
        assert_eq!(t.node_latency(&cfg()), 30); // paper §VIII
        // Both cores of cluster 3 use node 3 for any line.
        assert_eq!(t.home_node(6, LineAddr::new(12345)), 3);
        assert_eq!(t.home_node(7, LineAddr::new(999)), 3);
        assert!(matches!(t.noc2, Noc2Kind::Sliced { groups: 1 }));
    }

    #[test]
    fn sh40_topology() {
        let t = Design::Shared { nodes: 40 }.topology(&cfg()).unwrap();
        assert_eq!(t.clusters, 1);
        assert!(matches!(t.noc2, Noc2Kind::Single)); // 40 > 32 slices
        // Home by interleave over all 40 nodes, same for every core.
        let l = LineAddr::new(87);
        assert_eq!(t.home_node(0, l), 87 % 40);
        assert_eq!(t.home_node(79, l), 87 % 40);
    }

    #[test]
    fn clustered_topology_matches_fig10() {
        let t = Design::Clustered { nodes: 40, clusters: 10, boost: false }
            .topology(&cfg())
            .unwrap();
        assert_eq!(t.cores_per_cluster(), 8);
        assert_eq!(t.nodes_per_cluster(), 4);
        assert!(matches!(t.noc2, Noc2Kind::Sliced { groups: 4 })); // four 10×8 xbars
        // Core 9 (cluster 1) with line ≡ 2 mod 4 → node 1*4 + 2 = 6.
        assert_eq!(t.home_node(9, LineAddr::new(6)), 6);
        // Same line from cluster 0 stays in cluster 0 → replication of at
        // most `clusters` copies, the paper's bound.
        assert_eq!(t.home_node(0, LineAddr::new(6)), 2);
    }

    #[test]
    fn peak_bandwidth_matches_table_i() {
        let c = cfg();
        let base = Design::Baseline.topology(&c).unwrap().peak_l1_bandwidth(&c);
        assert_eq!(base, (80 * 128) as f64);
        let ratios: Vec<(Design, f64)> = vec![
            (Design::Private { nodes: 80 }, 4.0),
            (Design::Private { nodes: 40 }, 8.0),
            (Design::Private { nodes: 20 }, 16.0),
            (Design::Private { nodes: 10 }, 32.0),
        ];
        for (d, want) in ratios {
            let bw = d.topology(&c).unwrap().peak_l1_bandwidth(&c);
            assert!((base / bw - want).abs() < 1e-9, "{}: {}", d.name(), base / bw);
        }
        // Boost halves the drop: Sh40+C10+Boost is 4× below baseline.
        let boosted = Design::flagship(&c).topology(&c).unwrap().peak_l1_bandwidth(&c);
        assert!((base / boosted - 4.0).abs() < 1e-9);
    }

    #[test]
    fn divisibility_errors() {
        let c = cfg();
        assert!(Design::Private { nodes: 7 }.topology(&c).is_err());
        assert!(Design::Clustered { nodes: 40, clusters: 3, boost: false }.topology(&c).is_err());
        assert!(Design::Clustered { nodes: 40, clusters: 0, boost: false }.topology(&c).is_err());
    }

    #[test]
    fn noc_specs_match_paper_structures() {
        let c = cfg();
        let t = Design::Clustered { nodes: 40, clusters: 10, boost: true }.topology(&c).unwrap();
        let spec = t.noc_spec(&c);
        assert_eq!(spec.xbars.len(), 2);
        // Ten 8×4 crossbars at 2× core clock.
        assert_eq!((spec.xbars[0].inputs, spec.xbars[0].outputs, spec.xbars[0].count), (8, 4, 10));
        assert_eq!(spec.xbars[0].freq_mhz, 2800.0);
        // Four 10×8 crossbars at the interconnect clock.
        assert_eq!((spec.xbars[1].inputs, spec.xbars[1].outputs, spec.xbars[1].count), (10, 8, 4));
        assert_eq!(spec.xbars[1].freq_mhz, 700.0);

        let base = Design::Baseline.topology(&c).unwrap().noc_spec(&c);
        assert_eq!(base.xbars.len(), 1);
        assert_eq!((base.xbars[0].inputs, base.xbars[0].outputs), (80, 32));
    }

    #[test]
    fn ideal_single_l1_topology() {
        let t = Design::IdealSingleL1.topology(&cfg()).unwrap();
        assert_eq!(t.nodes, 1);
        assert!(t.ideal_ports);
        assert_eq!(t.node_bytes(&cfg()), 80 * 16 * 1024);
        assert_eq!(t.peak_l1_bandwidth(&cfg()), 128.0); // one port... but ideal_ports widens it
    }

    #[test]
    fn scaled_120_flagship_is_sh60_c10() {
        let c = GpuConfig::scaled_120();
        let d = Design::flagship(&c);
        assert_eq!(d.name(), "Sh60+C10+Boost");
        let t = d.topology(&c).unwrap();
        assert_eq!(t.nodes, 60);
        assert_eq!(t.nodes_per_cluster(), 6);
        assert!(matches!(t.noc2, Noc2Kind::Sliced { groups: 6 })); // 48/6 = 8 slices per group
    }
}
