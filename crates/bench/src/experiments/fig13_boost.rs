//! **Fig 13**: (a) the poor-performing applications under Sh40, Sh40+C10
//! and Sh40+C10+Boost; (b) maximum crossbar operating frequency vs radix
//! (analytic).

use crate::runner::{RunRequest, Scale, SweepSession};
use crate::table::Table;
use dcl1::Design;
use dcl1_power::CrossbarModel;
use dcl1_workloads::poor_performing;

/// Runs the frequency-boost study.
pub fn run(session: &SweepSession, scale: Scale) -> Vec<Table> {
    let apps = poor_performing();
    let designs = [
        Design::Shared { nodes: 40 },
        Design::Clustered { nodes: 40, clusters: 10, boost: false },
        Design::Clustered { nodes: 40, clusters: 10, boost: true },
    ];
    let mut reqs = Vec::new();
    for app in &apps {
        reqs.push(RunRequest::new(*app, Design::Baseline));
        for d in &designs {
            reqs.push(RunRequest::new(*app, *d));
        }
    }
    let stats = session.run_points(&reqs, scale).unwrap_all();
    let per = 1 + designs.len();

    let mut fig13a = Table::new(
        "Fig 13a: poor performers (IPC normalized to baseline)",
        &["app", "Sh40", "Sh40+C10", "Sh40+C10+Boost"],
    );
    let mut cols = vec![Vec::new(); designs.len()];
    for (i, app) in apps.iter().enumerate() {
        let base = &stats[i * per];
        let mut row = Vec::new();
        for j in 0..designs.len() {
            let r = stats[i * per + 1 + j].ipc() / base.ipc();
            row.push(r);
            cols[j].push(r);
        }
        fig13a.row_f64(app.name, &row);
    }
    fig13a.row_geomean("GEOMEAN", &cols);

    // Fig 13b: DSENT-like max frequency per crossbar radix.
    let model = CrossbarModel::default();
    let mut fig13b = Table::new(
        "Fig 13b: maximum crossbar operating frequency (DSENT-like model)",
        &["crossbar", "fmax_mhz", "can_run_2x_core(2800MHz)"],
    );
    for (i, o) in [(80usize, 32usize), (80, 40), (40, 32), (16, 8), (10, 8), (8, 4), (2, 1)] {
        let f = model.max_frequency_mhz(i, o);
        fig13b.row(
            format!("{i}x{o}"),
            vec![format!("{f:.0}"), if f >= 2800.0 { "yes".into() } else { "no".into() }],
        );
    }
    vec![fig13a, fig13b]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmax_model_tells_the_boost_story() {
        // Checked directly against the model (running the simulations in
        // a debug-build test would be too slow).
        let m = CrossbarModel::default();
        assert!(m.max_frequency_mhz(80, 32) < 2800.0);
        assert!(m.max_frequency_mhz(80, 40) < 2800.0);
        assert!(m.max_frequency_mhz(8, 4) >= 2800.0);
        assert!(m.max_frequency_mhz(2, 1) >= 2800.0);
    }
}
