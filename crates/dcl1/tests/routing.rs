//! Deterministic sweep tests for home-node selection and the sliced NoC#2
//! port mapping (paper Fig 10): the invariants the machine's routing
//! relies on.

#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]

use dcl1::{Design, GpuConfig, Noc2Kind};
use dcl1_common::{LineAddr, SplitMix64};

/// (nodes, clusters) combos valid on the 80-core / 32-slice machine.
const VALID_CLUSTERED: [(usize, usize); 9] = [
    (40, 1),
    (40, 2),
    (40, 5),
    (40, 10),
    (40, 20),
    (40, 40),
    (80, 10),
    (20, 10),
    (16, 4),
];

fn design_for(nodes: usize, clusters: usize) -> Design {
    if clusters == 1 {
        Design::Shared { nodes }
    } else if clusters == nodes {
        Design::Private { nodes }
    } else {
        Design::Clustered { nodes, clusters, boost: false }
    }
}

/// The home node always lies inside the requesting core's cluster,
/// and within a cluster the mapping depends only on the line.
#[test]
fn home_node_stays_in_cluster() {
    let cfg = GpuConfig::default();
    let mut rng = SplitMix64::new(0x40A3);
    for &(nodes, clusters) in &VALID_CLUSTERED {
        let topo = design_for(nodes, clusters).topology(&cfg).unwrap();
        for _ in 0..200 {
            let core = rng.next_below(80) as usize;
            let line = LineAddr::new(rng.next_below(1_000_000));
            let home = topo.home_node(core, line);
            assert!(home < nodes);
            let cluster = topo.cluster_of_core(core);
            let m = topo.nodes_per_cluster();
            assert_eq!(home / m, cluster, "home escaped the cluster");
            // Every core of the same cluster maps the line identically.
            let buddy = cluster * topo.cores_per_cluster();
            assert_eq!(topo.home_node(buddy, line), home);
        }
    }
}

/// Under a sliced NoC#2, a node's home slot and a line's L2 slice are
/// congruent modulo the group count — the property that lets each
/// address-range crossbar connect only `Z × (L/M)` ports (Fig 10).
#[test]
fn sliced_noc2_slot_slice_congruence() {
    let cfg = GpuConfig::default();
    let mut rng = SplitMix64::new(0x511CED);
    for &(nodes, clusters) in &VALID_CLUSTERED {
        let topo = design_for(nodes, clusters).topology(&cfg).unwrap();
        let Noc2Kind::Sliced { groups } = topo.noc2 else { continue };
        for _ in 0..200 {
            let core = rng.next_below(80) as usize;
            let line = LineAddr::new(rng.next_below(1_000_000));
            // Only lines this node actually owns matter: route from a core.
            let home = topo.home_node(core, line);
            let slot = home % topo.nodes_per_cluster();
            let slice = line.interleave(cfg.l2_slices);
            assert_eq!(
                slice % groups,
                slot % groups,
                "slot/slice congruence broken: slot {slot} slice {slice} groups {groups}"
            );
            // The per-group crossbar output port is always in range.
            assert!(slice / groups < cfg.l2_slices / groups);
        }
    }
}
