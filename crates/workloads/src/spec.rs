//! Per-application specifications.


/// Benchmark suite an application belongs to (paper §VII).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// NVIDIA CUDA SDK samples (`C-*`).
    CudaSdk,
    /// Rodinia (`R-*`).
    Rodinia,
    /// SHOC (`S-*`).
    Shoc,
    /// PolyBench/GPU (`P-*`).
    PolyBench,
    /// Tango DNN suite (`T-*`).
    Tango,
}

/// Hot-stripe stride, in lines, used to model **partition camping**.
///
/// Lines congruent modulo `STRIPE_LINES` map to the same home DC-L1 slot
/// under every configuration the paper evaluates on the 80-core machine:
/// 320 is a common multiple of the 40-node interleave (Sh40), the 4-slot
/// per-cluster interleave (Sh40+C10) and the 32-slice L2 interleave, so a
/// workload whose hot lines share a residue class camps on one home node
/// — and on one node *per cluster* under the clustered design, which is
/// exactly the relief mechanism of paper §VI-B.
pub const STRIPE_LINES: u64 = 320;

/// A synthetic application: CTA geometry plus a memory-stream
/// characterization (see the [crate docs](crate) for the model).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppSpec {
    /// Paper name, e.g. `"T-AlexNet"`.
    pub name: &'static str,
    /// Suite.
    pub suite: Suite,
    /// Grid size in CTAs.
    pub ctas: u32,
    /// Wavefronts per CTA.
    pub wavefronts_per_cta: u32,
    /// Instructions per wavefront (before imbalance scaling).
    pub instrs_per_wavefront: u32,
    /// Probability an instruction is a memory instruction.
    pub mem_fraction: f64,
    /// Of memory instructions: fraction that are stores.
    pub store_fraction: f64,
    /// Of memory instructions: fraction that are non-L1 (texture/const/
    /// instruction) fetches, which bypass the DC-L1.
    pub aux_fraction: f64,
    /// Of memory instructions: fraction that are atomics (L2-serviced).
    pub atomic_fraction: f64,
    /// ALU latency in cycles (issue slot excluded).
    pub alu_latency: u32,
    /// Of data accesses: fraction aimed at the globally shared region.
    pub shared_fraction: f64,
    /// Shared-region size in lines (vs 128-line L1s, 1024-line clusters,
    /// 10240-line total budget).
    pub shared_lines: u64,
    /// Of data accesses: fraction aimed at the per-CTA hot region.
    pub private_hot_fraction: f64,
    /// Per-CTA hot-region size in lines.
    pub private_hot_lines: u64,
    /// Fraction of shared accesses confined to the hot stripe
    /// (partition camping severity).
    pub home_skew: f64,
    /// Whether per-CTA hot regions are stripe-aligned (camping without
    /// sharing — the C-RAY / P-GEMM pattern).
    pub striped_private: bool,
    /// Maximum coalesced transactions per memory instruction (1 =
    /// fully coalesced, 4 = scattered/irregular).
    pub access_span: u32,
    /// Bytes requested per transaction (what NoC#1 replies carry).
    pub bytes_per_txn: u32,
    /// Per-CTA length multiplier spread (R-SC's work imbalance): CTA
    /// `i`'s wavefronts run `1 + imbalance·(i mod 5)/4` times the base
    /// instruction count.
    pub imbalance: f64,
    /// Paper classification: replication-sensitive.
    pub replication_sensitive: bool,
    /// Paper classification: suffers badly under the fully-shared Sh40.
    pub poor_performing: bool,
    /// True when the paper's text never details this app and the spec is
    /// a plausible stand-in from the same suite.
    pub synthetic: bool,
}

/// Hashes every field so [`AppSpec`] can key a structured memo cache;
/// `f64` fields hash by their exact bit pattern (`to_bits`), matching the
/// bit-reproducibility contract of the simulator. Not derivable because
/// `f64: !Hash`.
impl std::hash::Hash for AppSpec {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let AppSpec {
            name,
            suite,
            ctas,
            wavefronts_per_cta,
            instrs_per_wavefront,
            mem_fraction,
            store_fraction,
            aux_fraction,
            atomic_fraction,
            alu_latency,
            shared_fraction,
            shared_lines,
            private_hot_fraction,
            private_hot_lines,
            home_skew,
            striped_private,
            access_span,
            bytes_per_txn,
            imbalance,
            replication_sensitive,
            poor_performing,
            synthetic,
        } = self;
        name.hash(state);
        suite.hash(state);
        ctas.hash(state);
        wavefronts_per_cta.hash(state);
        instrs_per_wavefront.hash(state);
        mem_fraction.to_bits().hash(state);
        store_fraction.to_bits().hash(state);
        aux_fraction.to_bits().hash(state);
        atomic_fraction.to_bits().hash(state);
        alu_latency.hash(state);
        shared_fraction.to_bits().hash(state);
        shared_lines.hash(state);
        private_hot_fraction.to_bits().hash(state);
        private_hot_lines.hash(state);
        home_skew.to_bits().hash(state);
        striped_private.hash(state);
        access_span.hash(state);
        bytes_per_txn.hash(state);
        imbalance.to_bits().hash(state);
        replication_sensitive.hash(state);
        poor_performing.hash(state);
        synthetic.hash(state);
    }
}

impl AppSpec {
    /// Returns this spec with per-wavefront work scaled by `num/den`
    /// (at least 16 instructions) — used to shrink runs for tests.
    ///
    /// The CTA grid is left untouched so machine occupancy and sharing
    /// degree stay representative; only trace length shrinks.
    pub fn scaled(mut self, num: u32, den: u32) -> Self {
        self.instrs_per_wavefront = (self.instrs_per_wavefront * num / den).max(16);
        self
    }

    /// Total wavefront instructions this app retires (accounting for the
    /// imbalance multiplier), used to sanity-check runs.
    pub fn total_instructions(&self) -> u64 {
        (0..self.ctas)
            .map(|cta| {
                let per_wf = self.instrs_for_cta(cta);
                per_wf as u64 * self.wavefronts_per_cta as u64
            })
            .sum()
    }

    /// Instructions per wavefront of CTA `cta` (imbalance-scaled).
    // imbalance-scaled per-wavefront count: small f64, rounds into u32.
    #[expect(clippy::cast_possible_truncation)]
    pub(crate) fn instrs_for_cta(&self, cta: u32) -> u32 {
        let mult = 1.0 + self.imbalance * (cta % 5) as f64 / 4.0;
        (self.instrs_per_wavefront as f64 * mult).round() as u32
    }
}

/// Shorthand constructor covering the common fields.
#[allow(clippy::too_many_arguments)]
const fn app(
    name: &'static str,
    suite: Suite,
    mem_fraction: f64,
    shared_fraction: f64,
    shared_lines: u64,
    private_hot_fraction: f64,
    private_hot_lines: u64,
    replication_sensitive: bool,
) -> AppSpec {
    AppSpec {
        name,
        suite,
        // 480 CTAs × 8 wavefronts fill all 80 cores to their 48-wavefront
        // limit — full occupancy, i.e. the latency tolerance GPGPU kernels
        // actually have.
        ctas: 480,
        wavefronts_per_cta: 8,
        instrs_per_wavefront: 160,
        mem_fraction,
        store_fraction: 0.10,
        aux_fraction: 0.02,
        atomic_fraction: 0.0,
        alu_latency: 2,
        shared_fraction,
        shared_lines,
        private_hot_fraction,
        private_hot_lines,
        home_skew: 0.0,
        striped_private: false,
        access_span: 1,
        bytes_per_txn: 128,
        imbalance: 0.0,
        replication_sensitive,
        poor_performing: false,
        synthetic: true,
    }
}

/// The 28-application catalog.
pub(crate) fn catalog() -> Vec<AppSpec> {
    use Suite::*;
    vec![
        // ------------------------- CUDA SDK -------------------------
        // C-BLK: BlackScholes — pure streaming, zero replication (Fig 1's
        // left end).
        AppSpec { synthetic: false, store_fraction: 0.25, ..app("C-BLK", CudaSdk, 0.45, 0.0, 0, 0.0, 0, false) },
        // C-BFS: graph traversal — scattered accesses over a frontier
        // shared by all CTAs; strongly replication-sensitive.
        AppSpec {
            synthetic: false,
            access_span: 3,
            bytes_per_txn: 32,
            ..app("C-BFS", CudaSdk, 0.50, 0.70, 1500, 0.05, 16, true)
        },
        // C-NN: small network, high L1 hit rate, low occupancy → low
        // latency tolerance; hurt by decoupling (poor performer).
        AppSpec {
            synthetic: false,
            ctas: 240,
            wavefronts_per_cta: 4, // deliberately low occupancy: latency-sensitive
            poor_performing: true,
            bytes_per_txn: 64,
            store_fraction: 0.05,
            ..app("C-NN", CudaSdk, 0.60, 0.0, 0, 0.90, 10, false)
        },
        // C-RAY: ray tracing — low replication but hot-spot addresses
        // (stripe-aligned BVH root) camp on one home node.
        AppSpec {
            synthetic: false,
            striped_private: true,
            home_skew: 0.65,
            bytes_per_txn: 64,
            poor_performing: true,
            ..app("C-RAY", CudaSdk, 0.55, 0.0, 0, 0.75, 12, false)
        },
        // C-CONV: separable convolution — mild per-CTA reuse.
        app("C-CONV", CudaSdk, 0.50, 0.10, 96, 0.45, 12, false),
        // C-HIST: histogram — atomic-heavy with a small shared table.
        AppSpec { atomic_fraction: 0.15, ..app("C-HIST", CudaSdk, 0.40, 0.40, 64, 0.10, 16, false) },
        // C-SP: scalar product — streaming with small shared vector.
        app("C-SP", CudaSdk, 0.45, 0.15, 100, 0.10, 16, false),
        // -------------------------- Rodinia -------------------------
        // R-LUD: LU decomposition — tile reuse, latency-tolerant.
        AppSpec { synthetic: false, ..app("R-LUD", Rodinia, 0.45, 0.10, 110, 0.55, 12, false) },
        // R-SC: streamcluster — CTA-length imbalance (paper §V-B: Sh40
        // mitigates the resulting L1 access imbalance).
        AppSpec {
            synthetic: false,
            imbalance: 1.5,
            ..app("R-SC", Rodinia, 0.50, 0.25, 400, 0.10, 24, false)
        },
        // R-BP: backprop — weight matrix re-read by all CTAs.
        app("R-BP", Rodinia, 0.50, 0.60, 900, 0.10, 24, true),
        // R-HS: hotspot — stencil with per-CTA tiles.
        app("R-HS", Rodinia, 0.45, 0.10, 100, 0.55, 12, false),
        // R-KMN: k-means — centroid table shared by everyone.
        AppSpec { atomic_fraction: 0.05, ..app("R-KMN", Rodinia, 0.55, 0.70, 600, 0.05, 16, true) },
        // R-NW: Needleman-Wunsch — diagonal wavefront, streaming-ish.
        app("R-NW", Rodinia, 0.45, 0.15, 120, 0.30, 32, false),
        // R-PF: pathfinder — row streaming with small halo reuse.
        app("R-PF", Rodinia, 0.40, 0.10, 90, 0.35, 32, false),
        // R-SRAD: SRAD — image re-read across CTAs each iteration.
        app("R-SRAD", Rodinia, 0.50, 0.55, 1100, 0.15, 24, true),
        // --------------------------- SHOC ---------------------------
        // S-Reduction: tree reduction over an input shared across CTAs;
        // the region exceeds a cluster's capacity, so only the fully
        // shared Sh40 eliminates its replication (paper Fig 14 note).
        AppSpec {
            synthetic: false,
            atomic_fraction: 0.05,
            ..app("S-Reduction", Shoc, 0.55, 0.75, 5000, 0.0, 0, true)
        },
        // S-Scan: prefix scan — streaming with modest shared flags.
        app("S-Scan", Shoc, 0.50, 0.15, 120, 0.15, 24, false),
        // S-SPMV: sparse matrix-vector — irregular gathers from a shared
        // dense vector.
        AppSpec {
            access_span: 2,
            bytes_per_txn: 32,
            ..app("S-SPMV", Shoc, 0.55, 0.65, 1200, 0.05, 16, true)
        },
        // S-MD: molecular dynamics — neighbour lists, mixed locality.
        app("S-MD", Shoc, 0.45, 0.20, 200, 0.40, 12, false),
        // ------------------------- PolyBench ------------------------
        // P-2DCONV: 2D convolution — bandwidth-bound: high memory
        // intensity with high per-CTA hit rate saturates the L1 ports
        // (paper: most sensitive to the DC-L1 peak-bandwidth drop).
        AppSpec {
            synthetic: false,
            poor_performing: true,
            store_fraction: 0.07,
            ..app("P-2DCONV", PolyBench, 0.70, 0.0, 0, 0.92, 10, false)
        },
        // P-3DCONV: 3D convolution — bandwidth-bound *and*
        // replication-sensitive (only +Boost helps, paper Fig 14).
        AppSpec {
            synthetic: false,
            store_fraction: 0.15,
            ..app("P-3DCONV", PolyBench, 0.65, 0.50, 900, 0.30, 32, true)
        },
        // P-2MM: matrix-multiply chain — shared operand tiles with a
        // camped address stripe (paper: partition camping under Sh40,
        // relieved by clustering).
        AppSpec {
            synthetic: false,
            home_skew: 0.12,
            bytes_per_txn: 64,
            ..app("P-2MM", PolyBench, 0.55, 0.75, 1000, 0.05, 16, true)
        },
        // P-3MM: like P-2MM but classified insensitive; camping hurts it
        // under Sh40 (paper Fig 9).
        AppSpec {
            synthetic: false,
            striped_private: true,
            home_skew: 0.6,
            bytes_per_txn: 64,
            poor_performing: true,
            ..app("P-3MM", PolyBench, 0.55, 0.0, 0, 0.78, 14, false)
        },
        // P-GEMM: GEMM — tile-resident, camped (paper Fig 9).
        AppSpec {
            synthetic: false,
            striped_private: true,
            home_skew: 0.6,
            bytes_per_txn: 64,
            poor_performing: true,
            ..app("P-GEMM", PolyBench, 0.55, 0.0, 0, 0.80, 12, false)
        },
        // P-SYRK: rank-k update — shared region beyond cluster reach
        // (2.4× under Sh40 but only 13% under Sh40+C10+Boost).
        AppSpec { synthetic: false, ..app("P-SYRK", PolyBench, 0.55, 0.80, 4000, 0.0, 0, true) },
        // --------------------------- Tango --------------------------
        // The CNN suite re-reads layer weights from every core: the
        // paper's extreme replication cases (95% replication ratio,
        // Fig 1; ~99% miss-rate reduction under Sh40, §II-A).
        AppSpec {
            synthetic: false,
            ..app("T-AlexNet", Tango, 0.55, 0.95, 800, 0.0, 0, true)
        },
        AppSpec {
            synthetic: false,
            ..app("T-ResNet", Tango, 0.50, 0.90, 950, 0.03, 8, true)
        },
        AppSpec {
            synthetic: false,
            ..app("T-SqueezeNet", Tango, 0.50, 0.90, 700, 0.03, 8, true)
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_are_sane() {
        for a in catalog() {
            assert!((0.0..=1.0).contains(&a.mem_fraction), "{}", a.name);
            let region = a.shared_fraction + a.private_hot_fraction;
            assert!((0.0..=1.0).contains(&region), "{}: region fractions {region}", a.name);
            let kinds = a.store_fraction + a.aux_fraction + a.atomic_fraction;
            assert!(kinds < 1.0, "{}: kind fractions {kinds}", a.name);
            assert!(a.access_span >= 1, "{}", a.name);
            assert!(a.bytes_per_txn >= 32 && a.bytes_per_txn <= 128, "{}", a.name);
            if a.shared_fraction > 0.0 {
                assert!(a.shared_lines > 0, "{}: shared region empty", a.name);
            }
            if a.home_skew > 0.0 && !a.striped_private {
                assert!(
                    a.shared_lines >= STRIPE_LINES,
                    "{}: skewed region smaller than a stripe",
                    a.name
                );
            }
        }
    }

    #[test]
    fn scaling_shortens_traces_not_grid() {
        let a = catalog()[0];
        let s = a.scaled(1, 4);
        assert_eq!(s.ctas, a.ctas, "grid must stay full for occupancy realism");
        assert_eq!(s.instrs_per_wavefront, a.instrs_per_wavefront / 4);
        // Never collapses below the floor.
        assert_eq!(a.scaled(1, 1000).instrs_per_wavefront, 16);
    }

    #[test]
    fn imbalance_lengthens_some_ctas() {
        let sc = catalog().into_iter().find(|a| a.name == "R-SC").unwrap();
        assert!(sc.instrs_for_cta(4) > sc.instrs_for_cta(0));
        let even = catalog()[0];
        assert_eq!(even.instrs_for_cta(0), even.instrs_for_cta(4));
    }

    #[test]
    fn total_instructions_counts_imbalance() {
        let mut a = catalog()[0];
        a.ctas = 5;
        a.imbalance = 0.0;
        assert_eq!(
            a.total_instructions(),
            5 * a.wavefronts_per_cta as u64 * a.instrs_per_wavefront as u64
        );
    }

    #[test]
    fn capacity_classes_are_distinct() {
        // The Tango regions fit a Sh40+C10 cluster (1024 lines) but not a
        // single L1 (128); the Sh40-only winners exceed a cluster.
        let alex = catalog().into_iter().find(|a| a.name == "T-AlexNet").unwrap();
        assert!(alex.shared_lines > 128 && alex.shared_lines <= 1024);
        let red = catalog().into_iter().find(|a| a.name == "S-Reduction").unwrap();
        assert!(red.shared_lines > 1024);
    }
}
