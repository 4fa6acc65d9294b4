//! The pinned point sets and the only thing a seed is allowed to change:
//! the order in which they are submitted.

use dcl1::{GpuConfig, RunStats, SimOptions};
use dcl1_bench::grid;
use dcl1_bench::runner::{self, RunRequest};
use dcl1_common::SplitMix64;

/// The three applications that carry 55 % of the grid's simulated cycles.
pub const HEAVY_APPS: [&str; 3] = ["P-GEMM", "C-RAY", "P-3MM"];

/// The single cheap point the default-configuration probe runs.
pub const PROBE_POINT: &str = "C-NN/Baseline";

/// Tenants of the warm daemon workload; tenant `i` owns apps `7i..7i+7`.
pub const WARM_TENANTS: [&str; 4] = ["t0", "t1", "t2", "t3"];

/// Apps per warm tenant (28 apps over 4 tenants).
pub const WARM_SLICE_APPS: usize = 7;

/// Apps in tenant `beta`'s overlapping submission on the cold daemon
/// workload (the first 14 apps of the grid, 56 jobs).
pub const BETA_APPS: usize = 14;

/// Designs per app in the canonical grid.
pub const DESIGNS: usize = 4;

/// Which pinned set a sweep child runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointSet {
    /// The canonical 112-point grid.
    Grid,
    /// The 12 heavy points.
    Heavy,
    /// [`PROBE_POINT`] alone.
    Probe,
}

impl PointSet {
    pub fn parse(s: &str) -> Result<PointSet, String> {
        match s {
            "grid" => Ok(PointSet::Grid),
            "heavy" => Ok(PointSet::Heavy),
            "probe" => Ok(PointSet::Probe),
            other => Err(format!("unknown point set {other:?}")),
        }
    }

    pub fn arg(self) -> &'static str {
        match self {
            PointSet::Grid => "grid",
            PointSet::Heavy => "heavy",
            PointSet::Probe => "probe",
        }
    }

    /// Points in the set.
    pub fn point_count(self) -> u64 {
        match self {
            PointSet::Grid => 112,
            PointSet::Heavy => 12,
            PointSet::Probe => 1,
        }
    }

    /// The set's requests in canonical order (apps outermost), built the
    /// way `perf_sweep` and `dcl1d` build them so memo keys agree.
    pub fn requests(self) -> Vec<RunRequest> {
        let only: Vec<String> = match self {
            PointSet::Grid => Vec::new(),
            PointSet::Heavy => HEAVY_APPS.iter().map(|a| format!("{a}/")).collect(),
            PointSet::Probe => vec![PROBE_POINT.to_string()],
        };
        let cfg = GpuConfig::default();
        let opts = SimOptions {
            fast_forward: true,
            ..SimOptions::default()
        };
        grid::build_grid(&grid::default_designs(&cfg), &only, &cfg, opts)
    }
}

/// Fisher-Yates shuffle driven by `seed`; the same seed gives the same
/// order.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = SplitMix64::new(seed);
    for i in (1..items.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// The `(label, stats)` pairs `runner::stats_digest` hashes, from requests
/// and their results in matching order.
pub fn labeled(reqs: &[RunRequest], results: &[Option<RunStats>]) -> Vec<(String, RunStats)> {
    reqs.iter()
        .zip(results)
        .filter_map(|(req, r)| r.as_ref().map(|s| (runner::point_label(req), s.clone())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_sets_have_their_pinned_sizes() {
        for set in [PointSet::Grid, PointSet::Heavy, PointSet::Probe] {
            assert_eq!(set.requests().len() as u64, set.point_count());
        }
        assert_eq!(WARM_TENANTS.len() * WARM_SLICE_APPS * DESIGNS, 112);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let base: Vec<u32> = (0..112).collect();
        let (mut a, mut b, mut c) = (base.clone(), base.clone(), base.clone());
        shuffle(&mut a, 7);
        shuffle(&mut b, 7);
        shuffle(&mut c, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, base);
        a.sort_unstable();
        assert_eq!(a, base);
    }
}
