//! Cold-cache throughput benchmark: the all-apps × four-design sweep used
//! to score simulator performance work.
//!
//! Clears the on-disk memo first so every point is actually simulated,
//! then prints per-point timings and the aggregate throughput table, and
//! writes the same data machine-readably to `BENCH_sweep.json`.
//!
//! The sweep is supervised: worker panics and watchdog-detected hangs are
//! retried with deterministic backoff and, on exhaustion, quarantined —
//! the sweep completes, the quarantined points are listed in the JSON
//! report, and the exit code is nonzero only when a point failed without
//! fault injection armed.
//!
//! Usage:
//!   DCL1_SCALE=smoke cargo run --release -p dcl1-bench --bin perf_sweep
//!   ... --no-fast-forward   # disable the idle fast-forward (A/B baseline)
//!   ... --keep-cache        # skip the cache clear (measure warm behavior)
//!   ... --json=PATH         # where to write the JSON report
//!   ... --stats-out=PATH    # also write the canonical per-point stats
//!                           # dump (byte-comparable across runs)
//!   ... --only=SUBSTR       # keep only points whose "APP/DESIGN" name
//!                           # contains SUBSTR (repeatable)
//!   ... --workers=N         # intra-point parallelism: shard each machine
//!                           # across N execution domains and run
//!                           # available/N points concurrently (default:
//!                           # 1 domain, one point-thread per available
//!                           # core); recorded in the JSON
//!   ... --design=NAME       # sweep these designs instead of the default
//!                           # four (repeatable; names per Design::from_str,
//!                           # e.g. pr4, sh16, sh16+c8+boost)
//!   ... --journal[=PATH] --resume[=PATH] --chaos=SEED --deadline=SECS
//!                           # supervision knobs (see ResCli)
//!   ... --trace[=PATH] --metrics[=PATH] --metrics-interval=N --progress[=PATH]
//!                           # observability sinks (see ObsCli)
//!
//! Exits 1 when the memo accounting undercounts: every planned point must
//! have been served by a tier, simulated, or quarantined.

use dcl1::{GpuConfig, SimOptions};
use dcl1_bench::runner::{self, SweepOutcome};
use dcl1_bench::{grid, ObsCli, ResCli, Scale, Table};
use dcl1_obs::json::escape;
use std::fmt::Write as _;

const USAGE: &str = "usage: perf_sweep [--no-fast-forward] [--keep-cache] [--json=PATH] \
[--stats-out=PATH] [--only=SUBSTR].. [--design=NAME].. [--workers=N] [--check] \
[--journal[=PATH]] [--resume[=PATH]] [--chaos=SEED] [--deadline=SECS] [--watchdog=CYCLES] \
[--retry-backoff-ms=N] [--trace[=PATH]] [--trace-sample=N] [--metrics[=PATH]] \
[--metrics-interval=N] [--observe=APP/DESIGN] [--progress[=PATH]]   (scale: DCL1_SCALE)";

/// This binary's own arguments (`ObsCli` / `ResCli` / `--workers=` are
/// already taken).
fn is_own_arg(arg: &str) -> bool {
    const VALUED: [&str; 4] = ["--json=", "--stats-out=", "--only=", "--design="];
    arg == "--no-fast-forward" || arg == "--keep-cache" || VALUED.iter().any(|p| arg.starts_with(p))
}

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
    let sh = runner::shard_sweep_stats();
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"scale\": \"{scale:?}\",\n  \"fast_forward\": {fast_forward},\n  \"workers\": {},\n  \"shards\": {{\n    \"requested\": {},\n    \"effective_max\": {},\n    \"barrier_stall_seconds\": {:.6}\n  }},\n  \"chaos_seed\": {},\n  \"stats_digest\": \"{digest}\",\n  \"totals\": {{\n    \"points\": {total_points},\n    \"points_simulated\": {},\n    \"points_from_memo\": {},\n    \"sim_cycles\": {total_sim_cycles},\n    \"sim_wall_seconds\": {sim_wall:.6},\n    \"sim_khz\": {khz:.3},\n    \"end_to_end_wall_seconds\": {end_to_end_wall:.6}\n  }},\n  \"recovery\": {{ {} }},\n  \"quarantined\": [",
        runner::effective_workers(),
        runner::effective_shards(),
        sh.shards,
        sh.barrier_wait_nanos as f64 / 1e9,
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
    out.push_str("},\n  \"simcheck\": ");
    match simcheck_provenance() {
        Some((rules, findings, suppressed)) => {
            let _ = write!(
                out,
                "{{\"rules\": {rules}, \"findings\": {findings}, \"suppressed\": {suppressed}}}"
            );
        }
        None => out.push_str("null"),
    }
    out.push_str(",\n  \"points\": [");
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

/// The sweep's lint pedigree: rule census size, finding count (0 on a
/// healthy tree — the simcheck-clean gate), and suppression count, from
/// a fresh lint of the enclosing workspace. `None` when the sweep runs
/// outside a workspace checkout (e.g. a deployed binary).
fn simcheck_provenance() -> Option<(usize, usize, usize)> {
    let root = simcheck::workspace::find_root(None).ok()?;
    let report = simcheck::run_lint(&root).ok()?;
    Some((report.rules, report.findings.len(), report.suppressed))
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    dcl1_bench::exit_on_help(&args, USAGE);
    let obs = ObsCli::parse(&mut args);
    let res = ResCli::parse(&mut args);
    dcl1_bench::apply_workers_flag("perf_sweep", &mut args);
    // Before the cache is cleared on the strength of a typo.
    if let Some(arg) = args.iter().find(|a| !is_own_arg(a)) {
        dcl1_bench::reject_unknown_arg("perf_sweep", USAGE, arg);
    }
    let fast_forward = !args.iter().any(|a| a == "--no-fast-forward");
    let keep_cache = args.iter().any(|a| a == "--keep-cache");
    let json_path = args
        .iter()
        .find_map(|a| a.strip_prefix("--json="))
        .unwrap_or("BENCH_sweep.json")
        .to_string();
    let stats_out = args.iter().find_map(|a| a.strip_prefix("--stats-out=")).map(String::from);
    let only: Vec<String> =
        args.iter().filter_map(|a| a.strip_prefix("--only=")).map(String::from).collect();
    let scale = Scale::from_env();

    if !keep_cache {
        runner::clear_disk_cache();
    }
    eprintln!("[perf_sweep] {}", res.banner());
    obs.install_progress();
    let cfg = GpuConfig::default();
    let design_names: Vec<String> =
        args.iter().filter_map(|a| a.strip_prefix("--design=")).map(String::from).collect();
    let designs = grid::parse_designs(&design_names, &cfg).unwrap_or_else(|e| {
        eprintln!("perf_sweep: {e}");
        std::process::exit(2);
    });
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
        res.chaos_seed,
        &digest,
    );
    match std::fs::write(&json_path, &report) {
        Ok(()) => eprintln!("[perf_sweep] wrote {json_path}"),
        Err(e) => eprintln!("[perf_sweep] cannot write {json_path}: {e}"),
    }

    obs.run_if_enabled(scale);

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
    if !outcome.quarantined.is_empty() && res.chaos_seed.is_none() {
        eprintln!("[perf_sweep] {} point(s) failed supervision", outcome.quarantined.len());
        std::process::exit(1);
    }
}
