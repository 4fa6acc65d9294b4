//! Synthetic GPGPU workloads calibrated to the 28 applications the paper
//! evaluates (CUDA-SDK `C-*`, Rodinia `R-*`, SHOC `S-*`, PolyBench `P-*`,
//! Tango `T-*`).
//!
//! # Why synthetic traces reproduce the paper
//!
//! Every result in the paper is driven by a small set of memory-stream
//! properties, not by instruction semantics:
//!
//! * **replication ratio** — how often a missed line is resident in
//!   another L1, set here by the fraction of accesses aimed at a region
//!   *shared* by all CTAs;
//! * **capacity sensitivity** — whether the shared/hot region fits in one
//!   L1 (16 KB = 128 lines), an aggregated DC-L1 (256 lines), a cluster's
//!   DC-L1s (1024 lines under `Sh40+C10`) or only the full L1 budget
//!   (10240 lines) — region sizes below are chosen against these
//!   capacities to produce each paper behaviour class;
//! * **partition camping** — skew of accesses toward one home slot,
//!   modelled with a hot address stride (see [`STRIPE_LINES`]);
//! * **latency tolerance** — occupancy (CTAs × wavefronts) and memory
//!   intensity;
//! * **bandwidth sensitivity** — memory intensity × hit rate, which
//!   saturates the L1 data port / NoC#1 instead of the L2.
//!
//! The per-app parameter vectors are **calibrations, not measurements**:
//! apps the paper names inherit its Fig 1 characterization; apps the text
//! never details are plausible members of the same suites and are marked
//! [`AppSpec::synthetic`].
//!
//! # Examples
//!
//! ```
//! use dcl1_workloads::{all_apps, by_name};
//!
//! assert_eq!(all_apps().len(), 28);
//! let alexnet = by_name("T-AlexNet").unwrap();
//! assert!(alexnet.replication_sensitive);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod gen;
mod spec;
mod tracefile;

pub use gen::{AppTrace, SharedSpec};
pub use spec::{AppSpec, Suite, STRIPE_LINES};
pub use tracefile::{record_trace, FileTraceFactory};

/// All 28 evaluated applications, in suite order.
pub fn all_apps() -> Vec<AppSpec> {
    spec::catalog()
}

/// Looks up an application by its paper name (e.g. `"T-AlexNet"`).
pub fn by_name(name: &str) -> Option<AppSpec> {
    all_apps().into_iter().find(|a| a.name == name)
}

/// The 12 replication-sensitive applications (paper Fig 1 criteria:
/// replication ratio > 25%, L1 miss rate > 50%, > 5% speedup at 16×
/// capacity).
pub fn replication_sensitive() -> Vec<AppSpec> {
    all_apps().into_iter().filter(|a| a.replication_sensitive).collect()
}

/// The 16 replication-insensitive applications.
pub fn replication_insensitive() -> Vec<AppSpec> {
    all_apps().into_iter().filter(|a| !a.replication_sensitive).collect()
}

/// The five replication-insensitive applications that suffer most under
/// the fully-shared Sh40 design (paper Fig 9/13a).
pub fn poor_performing() -> Vec<AppSpec> {
    all_apps().into_iter().filter(|a| a.poor_performing).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_28_apps_with_unique_names() {
        let apps = all_apps();
        assert_eq!(apps.len(), 28);
        let mut names: Vec<&str> = apps.iter().map(|a| a.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 28, "duplicate app names");
    }

    #[test]
    fn classification_counts_match_paper() {
        assert_eq!(replication_sensitive().len(), 12);
        assert_eq!(replication_insensitive().len(), 16);
        assert_eq!(poor_performing().len(), 5);
        // Poor performers are a subset of the insensitive class.
        assert!(poor_performing().iter().all(|a| !a.replication_sensitive));
    }

    #[test]
    fn paper_named_apps_present() {
        for name in [
            "C-BLK", "C-RAY", "C-BFS", "C-NN", "T-AlexNet", "T-ResNet", "T-SqueezeNet",
            "P-2MM", "P-3MM", "P-GEMM", "P-SYRK", "P-2DCONV", "P-3DCONV", "R-LUD", "R-SC",
            "S-Reduction",
        ] {
            let app = by_name(name).unwrap_or_else(|| panic!("{name} missing"));
            assert!(!app.synthetic, "{name} is named by the paper");
        }
    }

    #[test]
    fn poor_performers_match_fig9() {
        let names: Vec<&str> = poor_performing().iter().map(|a| a.name).collect();
        for n in ["C-NN", "C-RAY", "P-3MM", "P-GEMM", "P-2DCONV"] {
            assert!(names.contains(&n), "{n} should be poor-performing");
        }
    }
}
