//! The flags `perf_sweep` and `experiments` share — checked mode,
//! supervision, observability — read from the command line, the
//! [`SweepSession`] they open, and the observed-run report both binaries
//! print.

use crate::cli::Kind::{Optional, Switch, Value};
use crate::cli::{Args, Flag};
use crate::runner::{self, RunRequest, Scale, SweepSession};
use crate::table::Table;
use dcl1::{Design, GpuConfig, MetricsFormat, Observer, RunStats, SimOptions};
use dcl1_obs::progress::ProgressSink;
use dcl1_workloads::by_name;
use std::fs::File;
use std::path::PathBuf;
use std::sync::Arc;

/// The shared flag table.
pub const FLAGS: &[Flag] = &[
    Flag::new("check", Switch, "run every point under the invariant harness (memo bypassed)"),
    Flag::new("chaos", Value("SEED"), "inject deterministic faults (panics, stalls, corruption)"),
    Flag::new("trace", Optional("PATH", "dcl1-trace.json"), "Chrome trace of the --observe point"),
    Flag::new("metrics", Optional("PATH", "dcl1-metrics.jsonl"), "its time series (CSV if .csv)"),
    Flag::new("metrics-interval", Value("N"), "cycles between samples (default 1024)"),
    Flag::new("observe", Value("APP/DESIGN"), "the traced point (default C-BLK/flagship)"),
    Flag::new("progress", Optional("PATH", "BENCH_progress.jsonl"), "per-point events as JSONL"),
];

/// What the shared flags asked for. Reading it validates every value;
/// nothing is opened until [`SweepCli::open_session`].
#[derive(Debug)]
pub struct SweepCli {
    check: bool,
    /// Chaos seed, when fault injection was requested.
    pub chaos_seed: Option<u64>,
    trace: Option<PathBuf>,
    metrics: Option<PathBuf>,
    metrics_interval: u64,
    observe: RunRequest,
    progress: Option<PathBuf>,
}

impl SweepCli {
    /// Reads the shared flags; a malformed one exits 2 (see [`Args::fail`]).
    #[must_use]
    pub fn from_args(args: &Args<'_>) -> SweepCli {
        let observe = args.value::<String>("observe");
        let observe = observe_request(observe.as_deref().unwrap_or("C-BLK/flagship"))
            .unwrap_or_else(|e| args.fail(&format!("bad --observe: {e}")));
        SweepCli {
            check: args.switch("check"),
            chaos_seed: args.value("chaos"),
            trace: args.value("trace"),
            metrics: args.value("metrics"),
            metrics_interval: args.value("metrics-interval").unwrap_or(1024),
            observe,
            progress: args.value("progress"),
        }
    }

    /// Opens the session the flags ask for on the host's cache
    /// ([`SweepSession::from_env`]), with a one-line banner of the
    /// supervision in force.
    ///
    /// # Panics
    ///
    /// Panics when the progress stream cannot be opened.
    #[must_use]
    pub fn open_session(&self) -> (SweepSession, String) {
        let session = SweepSession::from_env().with_check(self.check).with_chaos(self.chaos_seed);
        let banner = match self.chaos_seed {
            Some(seed) => format!("supervision: chaos seed={seed}"),
            None => "supervision: defaults".to_string(),
        };
        if let Some(path) = &self.progress {
            session.set_progress_sink(Some(Arc::new(ProgressSink::new(Box::new(create(path))))));
            eprintln!("[progress] streaming point events to {}", path.display());
        }
        (session, banner)
    }

    /// With `--trace` or `--metrics`: runs the `--observe` point with the
    /// sinks attached and prints its stall-attribution report.
    ///
    /// # Panics
    ///
    /// Panics when an output file cannot be created or the run fails.
    pub fn run_observed(&self, scale: Scale) {
        if self.trace.is_none() && self.metrics.is_none() {
            return;
        }
        let req = &self.observe;
        let mut obs = Observer::disabled();
        let mut sinks = String::new();
        if let Some(path) = &self.trace {
            obs = obs
                .with_trace(Box::new(create(path)), 1)
                .unwrap_or_else(|e| panic!("cannot start trace: {e}"));
            sinks.push_str(&format!(" trace={}", path.display()));
        }
        if let Some(path) = &self.metrics {
            let format = if path.extension().is_some_and(|e| e == "csv") {
                MetricsFormat::Csv
            } else {
                MetricsFormat::Jsonl
            };
            obs = obs.with_metrics(Box::new(create(path)), self.metrics_interval, format);
            let interval = self.metrics_interval;
            sinks.push_str(&format!(" metrics={}(interval {interval})", path.display()));
        }
        eprintln!("[observe] simulating {}{sinks}", runner::point_label(req));
        let stats = runner::with_point(req, scale, 1, |sys, _| {
            sys.attach_observer(obs);
            sys.run_result()
        });
        let stats = stats.unwrap_or_else(|e| panic!("{e}"));
        println!("{}", stall_report(req, &stats));
        eprintln!("[observe] written:{sinks}");
    }
}

fn create(path: &std::path::Path) -> File {
    File::create(path).unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()))
}

/// Resolves an `APP/DESIGN` selector against the default machine.
fn observe_request(selector: &str) -> Result<RunRequest, String> {
    let (app, design) = selector
        .split_once('/')
        .ok_or_else(|| format!("expected APP/DESIGN, got {selector:?}"))?;
    let cfg = GpuConfig::default();
    Ok(RunRequest {
        app: by_name(app).ok_or_else(|| format!("unknown app {app:?}"))?,
        design: parse_design(design, &cfg).ok_or_else(|| format!("unknown design {design:?}"))?,
        cfg,
        opts: SimOptions::default(),
    })
}

/// Resolves a design selector: `flagship`, or any design name
/// `Design::from_str` accepts (e.g. `pr40`, `sh16+c8+boost`).
fn parse_design(name: &str, cfg: &GpuConfig) -> Option<Design> {
    if name.eq_ignore_ascii_case("flagship") {
        return Some(Design::flagship(cfg));
    }
    name.parse().ok()
}

/// The stall-attribution table printed alongside IPC for an observed run:
/// where every non-issuing core cycle went, as absolute cycles and as a
/// share of the core-cycle budget (`cores × cycles`).
pub(crate) fn stall_report(req: &RunRequest, stats: &RunStats) -> Table {
    let budget = stats.cycles.saturating_mul(req.cfg.cores as u64);
    let pct = |v: u64| {
        if budget == 0 {
            "0.0%".to_string()
        } else {
            format!("{:.1}%", 100.0 * v as f64 / budget as f64)
        }
    };
    let mut t = Table::new(
        format!(
            "Stall attribution: {}/{} (IPC {:.3}, {} cycles)",
            req.app.name,
            stats.design,
            stats.ipc(),
            stats.cycles
        ),
        &["class", "cycles", "share of core-cycles"],
    );
    t.row("issued instruction", vec![stats.instructions.to_string(), pct(stats.instructions)]);
    for (label, v) in [
        ("idle: core drained", stats.stall_drained),
        ("idle: all wavefronts ALU-busy", stats.stall_alu_busy),
        ("idle: waiting on memory fill", stats.stall_fill_wait),
        ("mem stall: outbox draining", stats.stall_mem_outbox),
        ("mem stall: L1 queue full", stats.stall_mem_l1_queue),
        ("mem stall: NoC backpressure", stats.stall_mem_noc),
    ] {
        t.row(label, vec![v.to_string(), pct(v)]);
    }
    t.row(
        "node structural: MSHR full",
        vec![stats.l1_mshr_stall_cycles.to_string(), "-".to_string()],
    );
    t.row(
        "node structural: queue/port",
        vec![stats.l1_queue_stall_cycles.to_string(), "-".to_string()],
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_selectors_resolve() {
        let cfg = GpuConfig::default();
        assert_eq!(parse_design("baseline", &cfg), Some(Design::Baseline));
        assert_eq!(parse_design("pr40", &cfg), Some(Design::Private { nodes: 40 }));
        assert_eq!(parse_design("Sh20", &cfg), Some(Design::Shared { nodes: 20 }));
        assert_eq!(parse_design("flagship", &cfg), Some(Design::flagship(&cfg)));
        assert_eq!(parse_design("bogus", &cfg), None);
    }

    #[test]
    fn observe_selectors_name_what_is_wrong() {
        let req = observe_request("C-BLK/sh40").unwrap();
        assert_eq!(runner::point_label(&req), "C-BLK/Sh40");
        for (bad, why) in [
            ("C-BLK", "expected APP/DESIGN"),
            ("NOPE/sh40", "unknown app"),
            ("C-BLK/x", "unknown design"),
        ] {
            assert!(observe_request(bad).unwrap_err().contains(why), "{bad}");
        }
    }

    #[test]
    fn stall_report_shows_every_class() {
        let req = RunRequest::new(by_name("C-BLK").unwrap(), Design::Baseline);
        let stats = RunStats {
            design: "Baseline".to_string(),
            cycles: 100,
            instructions: 50,
            stall_fill_wait: 30,
            stall_mem_noc: 20,
            ..RunStats::default()
        };
        let t = stall_report(&req, &stats);
        assert_eq!(t.cell("issued instruction", "cycles"), Some("50"));
        assert_eq!(t.cell("idle: waiting on memory fill", "cycles"), Some("30"));
        assert_eq!(t.cell("mem stall: NoC backpressure", "cycles"), Some("20"));
        assert!(t.title.contains("IPC 0.500"));
    }
}
