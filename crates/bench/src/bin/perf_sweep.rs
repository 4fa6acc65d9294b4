//! Cold-cache throughput sweep over the 112-point grid; `--help` lists
//! the options.
//!
//! The sweep is supervised: worker panics and watchdog-detected hangs are
//! retried and, on exhaustion, quarantined — the sweep completes, the
//! quarantined points are listed in the JSON report, and the exit code is
//! nonzero only when a point failed without fault injection armed, or
//! when the memo accounting undercounts (every planned point must have
//! been served by a tier, simulated, or quarantined).

#![expect(clippy::disallowed_types, reason = "reports its own wall time")]

use dcl1::{GpuConfig, SimOptions};
use dcl1_bench::cli::Kind::{Repeated, Switch, Value};
use dcl1_bench::cli::{Cli, Flag};
use dcl1_bench::runner::{self, SweepOutcome};
use dcl1_bench::sweepcli::{self, SweepCli};
use dcl1_bench::{grid, Scale, Table};
use dcl1_obs::json::escape;
use std::fmt::Write as _;

const CLI: Cli = Cli {
    bin: "perf_sweep",
    about: "Clears the result cache, simulates every app on the default four designs, prints \
            per-point timings and throughput, and writes BENCH_sweep.json. \
            Scale: DCL1_SCALE=full|quarter|smoke (default quarter).",
    positionals: None,
    flags: &[FLAGS, sweepcli::FLAGS],
};

const FLAGS: &[Flag] = &[
    Flag::new("no-fast-forward", Switch, "step every cycle (the fast-forward's reference)"),
    Flag::new("keep-cache", Switch, "keep the cache (measure warm behaviour)"),
    Flag::new("json", Value("PATH"), "the report (default BENCH_sweep.json)"),
    Flag::new("stats-out", Value("PATH"), "also write the byte-comparable per-point stats dump"),
    Flag::new("only", Repeated("SUBSTR"), "keep the points whose APP/DESIGN contains SUBSTR"),
    Flag::new("design", Repeated("NAME"), "sweep NAME (pr4, sh16+c8+boost, ...), not the four"),
];

/// Renders the sweep report as a JSON document.
#[expect(clippy::too_many_arguments)] // a report has many independent facts
fn sweep_json(
    scale: Scale,
    fast_forward: bool,
    timings: &[runner::PointTiming],
    outcome: &SweepOutcome,
    total_points: usize,
    total_sim_cycles: u64,
    end_to_end_wall: f64,
    chaos_seed: Option<u64>,
    digest: &str,
) -> String {
    let m = runner::memo_stats();
    let sim_wall = m.wall_nanos as f64 / 1e9;
    let khz = if sim_wall > 0.0 { m.sim_cycles as f64 / sim_wall / 1e3 } else { 0.0 };
    let recovery = runner::recovery_log();
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"scale\": \"{scale:?}\",\n  \"fast_forward\": {fast_forward},\n  \"workers\": {},\n  \"shards\": {{\n    \"requested\": {},\n    \"effective_max\": {}\n  }},\n  \"chaos_seed\": {},\n  \"stats_digest\": \"{digest}\",\n  \"totals\": {{\n    \"points\": {total_points},\n    \"points_simulated\": {},\n    \"points_from_memo\": {},\n    \"sim_cycles\": {total_sim_cycles},\n    \"sim_wall_seconds\": {sim_wall:.6},\n    \"sim_khz\": {khz:.3},\n    \"end_to_end_wall_seconds\": {end_to_end_wall:.6}\n  }},\n  \"recovery\": {{ {} }},\n  \"quarantined\": [",
        runner::effective_workers(),
        runner::effective_shards(),
        runner::shard_sweep_stats().shards,
        chaos_seed.map_or("null".to_string(), |s| s.to_string()),
        m.simulated,
        m.total_hits(),
        recovery.json_fields(),
    );
    for (i, q) in outcome.quarantined.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n    {{\"point\": \"{}\", \"attempts\": {}, \"class\": \"{}\", \"error\": \"{}\"}}",
            if i == 0 { "" } else { "," },
            escape(&q.point),
            q.attempts,
            escape(&q.class),
            escape(&q.error),
        );
    }
    out.push_str("\n  ],\n  \"profile\": ");
    runner::sweep_phase_profile().render_json_into(&mut out);
    out.push_str(",\n  \"registry\": {");
    runner::sweep_registry_snapshot().render_json_into(&mut out);
    out.push_str("},\n  \"points\": [");
    for (i, t) in timings.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n    {{\"app\": \"{}\", \"design\": \"{}\", \"sim_cycles\": {}, \"wall_seconds\": {:.6}, \"khz\": {:.3}, \"phases\": ",
            if i == 0 { "" } else { "," },
            escape(t.app),
            escape(&t.design),
            t.sim_cycles,
            t.wall_seconds,
            t.khz()
        );
        t.profile.render_json_into(&mut out);
        out.push('}');
    }
    out.push_str("\n  ]\n}\n");
    out
}

fn main() {
    let args = CLI.parse(std::env::args().skip(1));
    let shared = SweepCli::from_args(&args);
    let fast_forward = !args.switch("no-fast-forward");
    let json_path = args.value("json").unwrap_or_else(|| "BENCH_sweep.json".to_string());
    let stats_out: Option<String> = args.value("stats-out");
    let only: Vec<String> = args.values("only");
    let cfg = GpuConfig::default();
    let designs = grid::parse_designs(&args.values::<String>("design"), &cfg)
        .unwrap_or_else(|e| args.fail(&e));
    let scale = Scale::from_env();

    // Everything is read and valid; only now touch the cache.
    let banner = shared.apply();
    if !args.switch("keep-cache") {
        runner::clear_disk_cache();
    }
    eprintln!("[perf_sweep] {banner}");
    let opts = SimOptions { fast_forward, ..SimOptions::default() };
    let reqs = grid::build_grid(&designs, &only, &cfg, opts);

    let t0 = std::time::Instant::now();
    let outcome = runner::run_apps_supervised(&reqs, scale, runner::effective_workers());
    let wall = t0.elapsed();

    let mut per_point = Table::new(
        format!("Per-point timings ({scale:?}, fast_forward={fast_forward})"),
        &["point", "sim-cycles", "wall s", "KHz"],
    );
    let timings = runner::point_timings();
    for t in &timings {
        per_point.row(
            format!("{}/{}", t.app, t.design),
            vec![
                t.sim_cycles.to_string(),
                format!("{:.3}", t.wall_seconds),
                format!("{:.0}", t.khz()),
            ],
        );
    }
    println!("{per_point}");
    println!("{}", runner::throughput_summary());
    let completed = outcome.completed();
    let total: u64 = completed.iter().map(|s| s.cycles).sum();
    println!(
        "sweep: {} points ({} quarantined), {total} sim-cycles, {:.2} s end-to-end wall",
        reqs.len(),
        outcome.quarantined.len(),
        wall.as_secs_f64()
    );
    let recovery = runner::recovery_log();
    if !recovery.is_clean() {
        eprintln!(
            "[perf_sweep] recovery: {} retries, {} quarantines, {} cache corruptions, \
             {} livelocks, {} deadlines, {} resumed",
            recovery.retries,
            recovery.quarantines,
            recovery.cache_corruptions,
            recovery.livelocks,
            recovery.deadlines,
            recovery.resumed_points
        );
        for line in recovery.events() {
            eprintln!("[perf_sweep]   {line}");
        }
    }

    // Canonical per-point stats: the byte-comparable artifact
    // `crates/bench/tests/resilience.rs` diffs against a fault-free
    // reference run, and `scripts/ci.sh release-digests` stepping against
    // fast-forward.
    let labeled: Vec<(String, dcl1::RunStats)> = reqs
        .iter()
        .zip(&outcome.results)
        .filter_map(|(req, r)| r.as_ref().map(|s| (runner::point_label(req), s.clone())))
        .collect();
    let digest = runner::stats_digest(&labeled);
    if let Some(path) = &stats_out {
        match std::fs::write(path, runner::canonical_stats_dump(&labeled)) {
            Ok(()) => eprintln!("[perf_sweep] wrote {path}"),
            Err(e) => eprintln!("[perf_sweep] cannot write {path}: {e}"),
        }
    }

    let report = sweep_json(
        scale,
        fast_forward,
        &timings,
        &outcome,
        reqs.len(),
        total,
        wall.as_secs_f64(),
        shared.chaos_seed,
        &digest,
    );
    match std::fs::write(&json_path, &report) {
        Ok(()) => eprintln!("[perf_sweep] wrote {json_path}"),
        Err(e) => eprintln!("[perf_sweep] cannot write {json_path}: {e}"),
    }

    shared.run_observed(scale);

    // Every planned point is accounted for: served by a tier, simulated,
    // or quarantined. An undercount means a tier stopped reporting.
    let m = runner::memo_stats();
    let served = m.total_hits() + m.simulated + recovery.quarantines;
    if served < reqs.len() as u64 {
        eprintln!(
            "[perf_sweep] memo accounting undercounts: {served} hits+simulated+quarantined \
             for {} point(s)",
            reqs.len()
        );
        std::process::exit(1);
    }

    // Under chaos, quarantines are injected on purpose (persistent-panic
    // points); the proof of robustness is the byte-identical digest plus
    // the quarantine report, so the sweep still exits 0. Without chaos, a
    // quarantined point is a genuine failure.
    if !outcome.quarantined.is_empty() && shared.chaos_seed.is_none() {
        eprintln!("[perf_sweep] {} point(s) failed supervision", outcome.quarantined.len());
        std::process::exit(1);
    }
}
