//! One module per paper table/figure. Each exposes
//! `run(scale) -> Vec<Table>`; the `experiments` binary prints the results
//! and EXPERIMENTS.md records them against the paper's numbers.

pub mod ablations;
pub mod ext_scaling;
pub mod fig01_motivation;
pub mod fig02_utilization;
pub mod fig04_private;
pub mod fig06_noc_area;
pub mod fig08_shared;
pub mod fig09_shared_insensitive;
pub mod fig11_clustered;
pub mod fig12_clustered_noc;
pub mod fig13_boost;
pub mod fig14_final;
pub mod fig15_scurve;
pub mod fig16_missrate;
pub mod fig17_port_utilization;
pub mod fig18_energy_area;
pub mod fig19_sensitivity;
pub mod tab1_private_configs;

use dcl1::Design;

/// The four proposed designs of the paper's final evaluation (§VIII),
/// for the default 80-core machine.
pub fn proposed_designs() -> Vec<Design> {
    vec![
        Design::Private { nodes: 40 },
        Design::Shared { nodes: 40 },
        Design::Clustered { nodes: 40, clusters: 10, boost: false },
        Design::Clustered { nodes: 40, clusters: 10, boost: true },
    ]
}

/// The paper's cluster-count sweep (Fig 11): C1 = Sh40 … C40 = Pr40.
pub fn cluster_sweep() -> Vec<(String, Design)> {
    [1usize, 5, 10, 20, 40]
        .into_iter()
        .map(|z| {
            let d = match z {
                1 => Design::Shared { nodes: 40 },
                40 => Design::Private { nodes: 40 },
                z => Design::Clustered { nodes: 40, clusters: z, boost: false },
            };
            (format!("C{z}"), d)
        })
        .collect()
}
