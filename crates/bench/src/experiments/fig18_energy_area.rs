//! **Fig 18 + §VIII latency analysis**: NoC power breakdown, energy
//! efficiency, area breakdown, and round-trip-time statistics for
//! Sh40+C10+Boost vs the private baseline.

use crate::runner::{RunRequest, Scale, SweepSession};
use crate::table::Table;
use dcl1::{Design, GpuConfig};
use dcl1_common::stats::mean;
use dcl1_power::{CrossbarModel, EnergyReport, SramModel};
use dcl1_workloads::all_apps;

/// Runs the energy/area/latency analysis.
pub fn run(session: &SweepSession, scale: Scale) -> Vec<Table> {
    let cfg = GpuConfig::default();
    let apps = all_apps();
    let flagship = Design::flagship(&cfg);
    let mut reqs = Vec::new();
    for app in &apps {
        reqs.push(RunRequest::new(*app, Design::Baseline));
        reqs.push(RunRequest::new(*app, flagship));
    }
    let stats = session.run_points(&reqs, scale).unwrap_all();

    let model = CrossbarModel::default();
    let base_spec = Design::Baseline.topology(&cfg).expect("resolves").noc_spec(&cfg);
    let boost_spec = flagship.topology(&cfg).expect("resolves").noc_spec(&cfg);

    // Per-app power/energy, then mean ratios (paper reports averages).
    let mut static_ratio = Vec::new();
    let mut dynamic_ratio = Vec::new();
    let mut total_ratio = Vec::new();
    let mut energy_ratio = Vec::new();
    let mut perf_watt_ratio = Vec::new();
    let mut perf_energy_ratio = Vec::new();
    let mut rtt_ratio = Vec::new();
    for i in 0..apps.len() {
        let b = &stats[2 * i];
        let f = &stats[2 * i + 1];
        let rb = EnergyReport::new(
            &model,
            &base_spec,
            &b.noc_flits,
            b.seconds(cfg.core_mhz),
            b.instructions,
        );
        let rf = EnergyReport::new(
            &model,
            &boost_spec,
            &f.noc_flits,
            f.seconds(cfg.core_mhz),
            f.instructions,
        );
        static_ratio.push(rf.power.static_mw / rb.power.static_mw);
        dynamic_ratio.push(rf.power.dynamic_mw / rb.power.dynamic_mw.max(1e-9));
        total_ratio.push(rf.power.total_mw() / rb.power.total_mw());
        energy_ratio.push(rf.energy_mj / rb.energy_mj);
        perf_watt_ratio.push(rf.perf_per_watt() / rb.perf_per_watt());
        perf_energy_ratio.push(rf.perf_per_energy() / rb.perf_per_energy());
        rtt_ratio.push(f.mean_load_rtt / b.mean_load_rtt.max(1e-9));
    }

    let mut fig18a = Table::new(
        "Fig 18a: Sh40+C10+Boost NoC power & energy (mean ratio vs baseline)",
        &["metric", "ratio_vs_baseline"],
    );
    fig18a.row_f64("static_power", &[mean(&static_ratio)]);
    fig18a.row_f64("dynamic_power", &[mean(&dynamic_ratio)]);
    fig18a.row_f64("total_power", &[mean(&total_ratio)]);
    fig18a.row_f64("noc_energy", &[mean(&energy_ratio)]);
    fig18a.row_f64("perf_per_watt", &[mean(&perf_watt_ratio)]);
    fig18a.row_f64("perf_per_energy", &[mean(&perf_energy_ratio)]);

    // Fig 18b: area breakdown (analytic).
    let sram = SramModel::default();
    let total_l1 = cfg.total_l1_bytes();
    let base_cache = sram.area_mm2(cfg.cores, total_l1 / cfg.cores);
    let dcl1_cache = sram.area_mm2(40, total_l1 / 40);
    let queues = 40.0 * sram.node_queues_mm2(cfg.node_queue_entries, cfg.line_bytes);
    let base_noc = model.noc_area_mm2(&base_spec);
    let boost_noc = model.noc_area_mm2(&boost_spec);
    let mut fig18b = Table::new(
        "Fig 18b: area breakdown of Sh40+C10+Boost vs baseline",
        &["component", "baseline_mm2", "dcl1_mm2", "delta_vs_baseline_l1_or_noc"],
    );
    fig18b.row(
        "node queues",
        vec![
            "0.000".into(),
            format!("{queues:.3}"),
            format!("+{:.1}% of L1 area", 100.0 * queues / base_cache),
        ],
    );
    fig18b.row(
        "L1/DC-L1 caches",
        vec![
            format!("{base_cache:.3}"),
            format!("{dcl1_cache:.3}"),
            format!("{:+.1}%", 100.0 * (dcl1_cache / base_cache - 1.0)),
        ],
    );
    fig18b.row(
        "NoC",
        vec![
            format!("{base_noc:.3}"),
            format!("{boost_noc:.3}"),
            format!("{:+.1}%", 100.0 * (boost_noc / base_noc - 1.0)),
        ],
    );

    // §VIII latency analysis.
    let mut lat = Table::new(
        "SecVIII latency: load round-trip time (core cycles)",
        &["metric", "value"],
    );
    let rtt_base = mean(&stats.iter().step_by(2).map(|s| s.mean_load_rtt).collect::<Vec<_>>());
    let rtt_boost =
        mean(&stats.iter().skip(1).step_by(2).map(|s| s.mean_load_rtt).collect::<Vec<_>>());
    lat.row_f64("mean_rtt_baseline", &[rtt_base]);
    lat.row_f64("mean_rtt_boost", &[rtt_boost]);
    lat.row_f64("mean_rtt_ratio(boost/baseline)", &[mean(&rtt_ratio)]);
    vec![fig18a, fig18b, lat]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_breakdown_matches_paper_without_simulation() {
        // Queue overhead ≈ 6.25% of L1 area; DC-L1 caches ≈ −8%; NoC −50%.
        let cfg = GpuConfig::default();
        let sram = SramModel::default();
        let total_l1 = cfg.total_l1_bytes();
        let base_cache = sram.area_mm2(cfg.cores, total_l1 / cfg.cores);
        let queues = 40.0 * sram.node_queues_mm2(4, 128);
        assert!((queues / base_cache - 0.0625).abs() < 0.01);
        let dcl1_cache = sram.area_mm2(40, total_l1 / 40);
        assert!((dcl1_cache / base_cache - 0.92).abs() < 0.01);
        let model = CrossbarModel::default();
        let base = Design::Baseline.topology(&cfg).unwrap().noc_spec(&cfg);
        let boost = Design::flagship(&cfg).topology(&cfg).unwrap().noc_spec(&cfg);
        let ratio = model.noc_area_mm2(&boost) / model.noc_area_mm2(&base);
        assert!((ratio - 0.50).abs() < 0.04, "NoC ratio {ratio}");
    }
}
