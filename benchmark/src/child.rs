//! Child-process entry points. The runner's store, counters and profile
//! are process-wide, so "an empty store" and "this run's counters" both
//! mean "a fresh process": every measured round is one child, started by
//! the harness with its own `DCL1_CACHE_DIR` and `DCL1_SCALE=smoke`.
//!
//! A child prints `READY` once its set-up is done and `RESULT <json>` when
//! its measured work is, both on stdout. It never leaves the runner's
//! shard or worker defaults in place unless asked to (`--shards 0`, the
//! default-configuration probe).

use crate::args::Args;
use crate::client::{self, Ack, LineConn, Stage};
use crate::json::{self, num, num_map, obj, text, Json};
use crate::layers::{self, Metrics};
use crate::points::{self, PointSet};
use crate::trace::{self, Open, Tracer};
use crate::{host, micro, stats};
use dcl1::RunStats;
use dcl1_bench::runner::{self, RunRequest, Scale};
use dcl1_obs::progress::ProgressSink;
use dcl1d::queue::Quotas;
use dcl1d::scheduler::DaemonConfig;
use dcl1d::server::Server;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A child that is still running after this long has hung; it exits
/// non-zero rather than let the harness overrun the driver's time limit.
const CHILD_DEADLINE: Duration = Duration::from_secs(150);

/// Where a traced child leaves its spans, inside its scratch directory.
pub const SPANS_FILE: &str = "spans.jsonl";

/// Gap between `status` polls while the cold daemon workload runs.
const STATUS_EVERY: Duration = Duration::from_millis(250);

pub fn main(args: &[String]) -> Result<(), String> {
    let (mode, rest) = args.split_first().ok_or("child: missing mode")?;
    let args = Args::parse(rest)?;
    std::thread::spawn(|| {
        std::thread::sleep(CHILD_DEADLINE);
        eprintln!("[dcl1-benchmark] child exceeded {CHILD_DEADLINE:?}; giving up");
        std::process::exit(3);
    });
    let result = match mode.as_str() {
        "sweep" => sweep(&args)?,
        "daemon" => daemon(&args)?,
        other => return Err(format!("child: unknown mode {other:?}")),
    };
    if let Some(result) = result {
        println!("RESULT {}", json::render(&result)?);
    }
    Ok(())
}

fn ready() {
    println!("READY");
    let _ = std::io::stdout().flush();
}

/// Pins the runner's two parallelism knobs; `0` leaves that knob at the
/// runner's default.
fn pin_runner(shards: usize, workers: usize) {
    runner::set_shard_override(shards);
    runner::set_worker_override(workers);
}

// ---------------------------------------------------------------------------
// Sweep child
// ---------------------------------------------------------------------------

/// Progress lines captured in memory with their arrival time.
#[derive(Clone, Default)]
struct Capture {
    lines: Arc<Mutex<Vec<(Instant, String)>>>,
}

impl Write for Capture {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        // `ProgressSink` writes one whole line per call.
        if let Ok(mut lines) = self.lines.lock() {
            lines.push((
                Instant::now(),
                String::from_utf8_lossy(buf).trim_end().to_string(),
            ));
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn sweep(args: &Args) -> Result<Option<Json>, String> {
    args.only(&[
        "points",
        "shards",
        "workers",
        "seed",
        "trace",
        "setup-only",
        "scratch",
    ])?;
    let set = PointSet::parse(args.required("points")?)?;
    let shards: usize = args.get("shards", 1)?;
    let workers: usize = args.get("workers", 1)?;
    let seed: u64 = args.get("seed", 0)?;
    let traced = args.get("trace", 0u8)? == 1;
    let scratch = PathBuf::from(args.required("scratch")?);

    let mut reqs = set.requests();
    points::shuffle(&mut reqs, seed);
    pin_runner(shards, workers);
    // First memo use opens the store (and its disk tier): part of set-up.
    let opened = runner::memo_stats();
    if opened.simulated != 0 {
        return Err("fresh process already simulated points".to_string());
    }
    ready();
    if args.has("setup-only") {
        return Ok(None);
    }

    let mut tracer = Tracer::new(traced);
    let capture = Capture::default();
    if traced {
        runner::set_progress_sink(Some(Arc::new(ProgressSink::new(Box::new(capture.clone())))));
    }
    let root = tracer.enter("bench.run_apps_supervised", "sweep", None);
    let t0 = Instant::now();
    let outcome = runner::run_apps_supervised(&reqs, Scale::Smoke, runner::effective_workers());
    let wall_s = t0.elapsed().as_secs_f64();
    tracer.exit(root);
    runner::set_progress_sink(None);

    let labeled = points::labeled(&reqs, &outcome.results);
    let memo = runner::memo_stats();
    let mut result = BTreeMap::from([
        ("wall_s".to_string(), num(wall_s)),
        ("peak_rss_mb".to_string(), num(host::peak_rss_mb())),
        ("attempted".to_string(), num(reqs.len() as f64)),
        ("failed".to_string(), num(outcome.quarantined.len() as f64)),
        ("digest".to_string(), text(&runner::stats_digest(&labeled))),
        (
            "sim_cycles".to_string(),
            num(labeled.iter().map(|(_, s)| s.cycles).sum::<u64>() as f64),
        ),
        ("simulated".to_string(), num(memo.simulated as f64)),
        (
            "shards_effective".to_string(),
            num(runner::shard_sweep_stats().shards as f64),
        ),
    ]);

    if traced {
        let mut m = Metrics::new();
        layers::pull_runner(&mut m);
        let lines = capture.lines.lock().map_err(|_| "capture lock poisoned")?;
        m.insert("obs.progress_events".to_string(), lines.len() as f64);
        point_spans(&mut tracer, root, &lines)?;
        drop(lines);
        let stored = reqs.first().ok_or("empty point set")?;
        m.insert(
            "bench.point_overhead_us_p50".to_string(),
            micro::point_overhead_us_p50(stored)?,
        );
        micro::run_legs(&mut m, &scratch.join("micro"))?;
        if set == PointSet::Grid {
            m.insert(
                "obs.instrument_overhead_pct".to_string(),
                micro::instrument_overhead_pct()?,
            );
        }
        result.insert("layers".to_string(), num_map(&m));
        trace::write_jsonl(&scratch.join(SPANS_FILE), &tracer.into_spans())?;
    }
    Ok(Some(Json::Obj(result)))
}

/// One `bench.point` span per simulated point, from the arrival times of
/// its `started` and `completed` progress events.
fn point_spans(tracer: &mut Tracer, root: Open, lines: &[(Instant, String)]) -> Result<(), String> {
    let mut started: BTreeMap<String, Instant> = BTreeMap::new();
    for (t, line) in lines {
        let ev = client::parse_event(line)?;
        match ev.stage {
            Stage::Started => {
                started.insert(ev.point, *t);
            }
            Stage::Completed | Stage::Quarantined => {
                if let Some(s) = started.remove(&ev.point) {
                    let (a, b) = (tracer.at(s), tracer.at(*t));
                    tracer.record("bench.point", &ev.point, root.span(), a, b);
                }
            }
            Stage::Other => {}
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Daemon child
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DaemonMode {
    /// Empty store; `alpha` submits the grid, `beta` an overlapping half.
    Cold,
    /// Pre-filled store; four tenants resubmit their slices every round.
    Warm,
}

/// What one tenant submits (every round, on the warm workload).
struct TenantPlan {
    name: &'static str,
    priority: u8,
    reqs: Vec<RunRequest>,
}

/// Everything the client measures while it drives the daemon.
struct ClientLog {
    tracer: Tracer,
    acks: Ack,
    submit_ack_ms: Vec<f64>,
    status_ms: Vec<f64>,
    status_us_per_completed: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    service_ms: Vec<f64>,
    first_result: Option<Instant>,
    events: u64,
    quarantined: u64,
}

/// Per-round bookkeeping of jobs in flight, keyed by point label (within
/// a round every label that is tracked belongs to exactly one tenant).
#[derive(Default)]
struct InFlight {
    /// Label -> (tenant, ack arrival, submit span).
    acked: BTreeMap<String, (String, Instant, Option<u32>)>,
    started: BTreeMap<String, Instant>,
    /// Tenant-attributed completions still expected.
    outstanding: u64,
}

struct Session {
    ctl: LineConn,
    events: LineConn,
    log: ClientLog,
}

impl Session {
    /// Writes one tenant's submit, reads the ack, and registers the
    /// tenant's trackable labels. Returns when the line was written.
    fn submit(
        &mut self,
        round: u32,
        plan: &TenantPlan,
        seed: u64,
        track: impl Fn(&str) -> bool,
        flight: &mut InFlight,
    ) -> Result<Instant, String> {
        let mut reqs = plan.reqs.clone();
        points::shuffle(&mut reqs, seed);
        let wire: Vec<(String, String)> = reqs.iter().map(client::wire_point).collect();
        let line = client::submit_line(plan.name, plan.priority, &wire);
        let id = format!("r{round}/{}", plan.name);
        let span = self.log.tracer.enter("client.submit", &id, None);
        self.ctl.send(&line)?;
        let written = Instant::now();
        let ack = client::parse_ack(&self.ctl.recv()?)?;
        let acked = Instant::now();
        self.log.tracer.exit(span);
        self.log
            .submit_ack_ms
            .push(acked.duration_since(written).as_secs_f64() * 1e3);
        self.log.acks.accepted += ack.accepted;
        self.log.acks.shed += ack.shed;
        self.log.acks.rejected += ack.rejected;
        flight.outstanding += ack.accepted;
        for req in &reqs {
            let label = runner::point_label(req);
            if track(&label) {
                flight
                    .acked
                    .insert(label, (plan.name.to_string(), acked, span.span()));
            }
        }
        Ok(written)
    }

    fn on_event(&mut self, line: &str, round: u32, flight: &mut InFlight) -> Result<(), String> {
        let now = Instant::now();
        self.log.events += 1;
        let ev = client::parse_event(line)?;
        match (ev.stage, ev.tenant) {
            // The runner's point-level `started` carries no tenant; it is
            // matched by label, which is why only single-owner labels are
            // tracked.
            (Stage::Started, None) => {
                if let Some((tenant, acked, span)) = flight.acked.get(&ev.point) {
                    if !flight.started.contains_key(&ev.point) {
                        flight.started.insert(ev.point.clone(), now);
                        self.log
                            .queue_wait_ms
                            .push(now.duration_since(*acked).as_secs_f64() * 1e3);
                        if self.log.tracer.enabled() {
                            let id = format!("r{round}/{tenant}/{}", ev.point);
                            let (a, b) = (self.log.tracer.at(*acked), self.log.tracer.at(now));
                            self.log.tracer.record("dcl1d.queue_wait", &id, *span, a, b);
                        }
                    }
                }
            }
            (Stage::Completed | Stage::Quarantined, Some(tenant)) => {
                if ev.stage == Stage::Quarantined {
                    self.log.quarantined += 1;
                } else if self.log.first_result.is_none() {
                    self.log.first_result = Some(now);
                }
                flight.outstanding = flight.outstanding.saturating_sub(1);
                if let (Some(started), Some((owner, _, span))) = (
                    flight.started.remove(&ev.point),
                    flight.acked.get(&ev.point),
                ) {
                    if *owner == tenant {
                        self.log
                            .service_ms
                            .push(now.duration_since(started).as_secs_f64() * 1e3);
                        if self.log.tracer.enabled() {
                            let id = format!("r{round}/{tenant}/{}", ev.point);
                            let (a, b) = (self.log.tracer.at(started), self.log.tracer.at(now));
                            self.log.tracer.record("dcl1d.service", &id, *span, a, b);
                        }
                        flight.acked.remove(&ev.point);
                    }
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Reads events until every accepted job of the round has resolved,
    /// polling `status` every `poll` when given.
    fn await_round(
        &mut self,
        round: u32,
        flight: &mut InFlight,
        poll: Option<Duration>,
    ) -> Result<(), String> {
        let mut next_poll = poll.map(|p| Instant::now() + p);
        let mut last_progress = Instant::now();
        while flight.outstanding > 0 {
            let lost_at = last_progress + client::LOST_AFTER;
            let deadline = next_poll.map_or(lost_at, |p| p.min(lost_at));
            match self.events.recv_until(deadline)? {
                Some(line) => {
                    last_progress = Instant::now();
                    self.on_event(&line, round, flight)?;
                }
                None if Instant::now() >= lost_at => {
                    return Err(format!(
                        "{} job(s) lost: no event for {:?}",
                        flight.outstanding,
                        client::LOST_AFTER
                    ));
                }
                None => {
                    self.status(round)?;
                    next_poll = poll.map(|p| Instant::now() + p);
                }
            }
        }
        Ok(())
    }

    /// One timed `status` round trip.
    fn status(&mut self, round: u32) -> Result<(), String> {
        let span = self
            .log
            .tracer
            .enter("client.status", &format!("r{round}"), None);
        let t = Instant::now();
        let reply = self.ctl.roundtrip("{\"cmd\":\"status\"}")?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.log.tracer.exit(span);
        self.log.status_ms.push(ms);
        if !reply.starts_with("{\"ok\":true") {
            return Err(format!("status refused: {reply}"));
        }
        if !self.log.tracer.enabled() {
            // Parsing the reply costs the client milliseconds (the
            // workspace parser is quadratic in the document); only the
            // traced run needs what is inside.
            return Ok(());
        }
        let doc = Json::parse(&reply).map_err(|e| format!("bad status reply: {e}"))?;
        let completed: u64 = json::members(
            doc.get("tenants").ok_or("status without tenants")?,
            "tenants",
        )?
        .values()
        .map(|t| json::get_u64(t, "completed"))
        .sum::<Result<u64, String>>()?;
        if completed > 0 {
            self.log
                .status_us_per_completed
                .push(ms * 1e3 / completed as f64);
        }
        Ok(())
    }
}

fn daemon(args: &Args) -> Result<Option<Json>, String> {
    args.only(&[
        "mode",
        "tenant-rounds",
        "workers",
        "seed",
        "trace",
        "setup-only",
        "scratch",
    ])?;
    let mode = match args.required("mode")? {
        "cold" => DaemonMode::Cold,
        "warm" => DaemonMode::Warm,
        other => return Err(format!("unknown daemon mode {other:?}")),
    };
    let tenant_rounds: u32 = args.get("tenant-rounds", 1)?;
    let workers: usize = args.get("workers", 2)?;
    let seed: u64 = args.get("seed", 0)?;
    let traced = args.get("trace", 0u8)? == 1;
    let scratch = PathBuf::from(args.required("scratch")?);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;

    // --- set-up: one machine per job thread, the daemon, two connections.
    let grid = PointSet::Grid.requests();
    let plans: Vec<TenantPlan> = match mode {
        DaemonMode::Cold => vec![
            TenantPlan {
                name: "alpha",
                priority: 2,
                reqs: grid.clone(),
            },
            TenantPlan {
                name: "beta",
                priority: 1,
                reqs: grid[..points::BETA_APPS * points::DESIGNS].to_vec(),
            },
        ],
        DaemonMode::Warm => points::WARM_TENANTS
            .iter()
            .zip(grid.chunks(points::WARM_SLICE_APPS * points::DESIGNS))
            .map(|(name, slice)| TenantPlan {
                name,
                priority: 2,
                reqs: slice.to_vec(),
            })
            .collect(),
    };
    pin_runner(1, workers);
    let journal = scratch.join("queue.jsonl");
    let cfg = DaemonConfig {
        workers,
        scale: Scale::Smoke,
        quotas: Quotas::default(),
        journal: Some(journal.clone()),
        resume: false,
    };
    let server =
        Arc::new(Server::launch("127.0.0.1:0", cfg).map_err(|e| format!("launch dcl1d: {e}"))?);
    let addr = server
        .local_addr()
        .map_err(|e| format!("daemon address: {e}"))?;
    let serving = {
        let server = Arc::clone(&server);
        std::thread::Builder::new()
            .name("bench-serve".to_string())
            .spawn(move || server.serve())
            .map_err(|e| format!("spawn accept loop: {e}"))?
    };
    let mut events = LineConn::connect(addr)?;
    let sub = events.roundtrip("{\"cmd\":\"subscribe\"}")?;
    if !sub.contains("\"subscribed\":true") {
        return Err(format!("subscribe refused: {sub}"));
    }
    let ctl = LineConn::connect(addr)?;
    ready();
    if args.has("setup-only") {
        let mut ctl = ctl;
        ctl.roundtrip("{\"cmd\":\"drain\"}")?;
        serving.join().map_err(|_| "accept loop panicked")?;
        return Ok(None);
    }

    // --- measured: submit, follow the event stream, poll status, drain.
    let mut s = Session {
        ctl,
        events,
        log: ClientLog {
            tracer: Tracer::new(traced),
            acks: Ack::default(),
            submit_ack_ms: Vec::new(),
            status_ms: Vec::new(),
            status_us_per_completed: Vec::new(),
            queue_wait_ms: Vec::new(),
            service_ms: Vec::new(),
            first_result: None,
            events: 0,
            quarantined: 0,
        },
    };
    let mut first_written: Option<Instant> = None;
    match mode {
        DaemonMode::Cold => {
            // `alpha`'s `started` events can only be told from `beta`'s on
            // the labels `beta` never submits.
            let shared: Vec<String> = plans[1].reqs.iter().map(runner::point_label).collect();
            let mut flight = InFlight::default();
            for (i, plan) in plans.iter().enumerate() {
                let alone =
                    |label: &str| plan.name == "alpha" && !shared.iter().any(|l| l == label);
                let written = s.submit(0, plan, seed.wrapping_add(i as u64), alone, &mut flight)?;
                first_written.get_or_insert(written);
            }
            s.await_round(0, &mut flight, Some(STATUS_EVERY))?;
        }
        DaemonMode::Warm => {
            for round in 0..tenant_rounds {
                let mut order: Vec<usize> = (0..plans.len()).collect();
                let round_seed = seed
                    .wrapping_mul(0x9E37_79B9)
                    .wrapping_add(u64::from(round));
                points::shuffle(&mut order, round_seed);
                let mut flight = InFlight::default();
                for t in order {
                    let written = s.submit(
                        round,
                        &plans[t],
                        round_seed ^ ((t as u64 + 1) << 32),
                        |_| true,
                        &mut flight,
                    )?;
                    first_written.get_or_insert(written);
                }
                s.await_round(round, &mut flight, None)?;
                s.status(round)?;
            }
        }
    }
    let drain_span = s.log.tracer.enter("client.drain", "drain", None);
    let final_status = s.ctl.roundtrip("{\"cmd\":\"drain\"}")?;
    let drained = Instant::now();
    s.log.tracer.exit(drain_span);
    serving.join().map_err(|_| "accept loop panicked")?;
    let first_written = first_written.ok_or("nothing was submitted")?;
    let wall_s = drained.duration_since(first_written).as_secs_f64();
    let peak_rss_mb = host::peak_rss_mb();
    let log = s.log;

    // --- verification inputs: what the daemon says, and what the store holds.
    let status = Json::parse(&final_status).map_err(|e| format!("bad drain reply: {e}"))?;
    let tenants = status.get("tenants").ok_or("drain reply without tenants")?;
    let mut layer_metrics = Metrics::new();
    if traced {
        // Before the digest recomputation below adds its own store hits.
        layers::pull_runner(&mut layer_metrics);
    }
    let memo = runner::memo_stats();
    let singles: Vec<(String, RunStats)> = grid
        .iter()
        .map(|req| (runner::point_label(req), runner::run_app(req, Scale::Smoke)))
        .collect();
    if runner::memo_stats().simulated != memo.simulated {
        return Err("a point the daemon completed was missing from the store".to_string());
    }
    let copies = match mode {
        DaemonMode::Cold => 1,
        DaemonMode::Warm => tenant_rounds as usize,
    };
    let mut tenant_docs = BTreeMap::new();
    let mut completed_total = 0u64;
    for plan in &plans {
        let t = tenants
            .get(plan.name)
            .ok_or_else(|| format!("no status for tenant {}", plan.name))?;
        let labels: Vec<String> = plan.reqs.iter().map(runner::point_label).collect();
        let mut multiset = Vec::with_capacity(labels.len() * copies);
        for pair in singles.iter().filter(|(l, _)| labels.contains(l)) {
            multiset.extend(std::iter::repeat_n(pair.clone(), copies));
        }
        let completed = json::get_u64(t, "completed")?;
        completed_total += completed;
        tenant_docs.insert(
            plan.name.to_string(),
            obj([
                ("completed", num(completed as f64)),
                (
                    "quarantined",
                    num(json::get_arr(t, "quarantined")?.len() as f64),
                ),
                ("digest", text(json::get_str(t, "digest")?)),
                ("recomputed", text(&runner::stats_digest(&multiset))),
            ]),
        );
    }
    let attempted: u64 = plans.iter().map(|p| p.reqs.len() as u64).sum::<u64>() * copies as u64;
    let lost = log
        .acks
        .accepted
        .saturating_sub(completed_total + log.quarantined);
    let mut result = BTreeMap::from([
        ("wall_s".to_string(), num(wall_s)),
        ("peak_rss_mb".to_string(), num(peak_rss_mb)),
        ("attempted".to_string(), num(attempted as f64)),
        (
            "failed".to_string(),
            num((log.quarantined + log.acks.rejected + log.acks.shed + lost) as f64),
        ),
        ("digest".to_string(), text(&runner::stats_digest(&singles))),
        (
            "sim_cycles".to_string(),
            num(singles.iter().map(|(_, s)| s.cycles).sum::<u64>() as f64),
        ),
        ("simulated".to_string(), num(memo.simulated as f64)),
        ("tenants".to_string(), Json::Obj(tenant_docs)),
    ]);

    if traced {
        let m = &mut layer_metrics;
        let mut put = |name: &str, v: f64| {
            m.insert(name.to_string(), v);
        };
        let first_result = log
            .first_result
            .ok_or("no tenant-attributed completion was seen")?;
        put(
            "dcl1d.first_result_ms",
            first_result.duration_since(first_written).as_secs_f64() * 1e3,
        );
        put("dcl1d.submit_ack_ms_p50", stats::median(&log.submit_ack_ms));
        put("dcl1d.queue_wait_ms_p50", stats::median(&log.queue_wait_ms));
        put(
            "dcl1d.queue_wait_ms_p95",
            stats::percentile(&log.queue_wait_ms, 95.0),
        );
        put("dcl1d.service_ms_p50", stats::median(&log.service_ms));
        put("dcl1d.status_ms_p50", stats::median(&log.status_ms));
        put(
            "dcl1d.status_ms_p95",
            stats::percentile(&log.status_ms, 95.0),
        );
        put("dcl1d.status_samples", log.status_ms.len() as f64);
        put(
            "dcl1d.status_us_per_completed",
            stats::median(&log.status_us_per_completed),
        );
        put("dcl1d.jobs_accepted", log.acks.accepted as f64);
        put("dcl1d.jobs_rejected", log.acks.rejected as f64);
        put("dcl1d.jobs_shed", log.acks.shed as f64);
        put("obs.progress_events", log.events as f64);
        let journal_bytes = std::fs::metadata(&journal)
            .map_err(|e| format!("stat {}: {e}", journal.display()))?
            .len();
        put(
            "dcl1d.journal_bytes_per_job",
            journal_bytes as f64 / log.acks.accepted.max(1) as f64,
        );
        put(
            "dcl1d.qjournal_replay_ms",
            replay_ms(&journal, log.acks.accepted)?,
        );
        put(
            "bench.point_overhead_us_p50",
            micro::point_overhead_us_p50(&grid[0])?,
        );
        micro::run_legs(m, &scratch.join("micro"))?;
        result.insert("layers".to_string(), num_map(m));
        trace::write_jsonl(&scratch.join(SPANS_FILE), &log.tracer.into_spans())?;
    }
    Ok(Some(Json::Obj(result)))
}

/// Replays the queue journal the run just wrote, timing it, and checks
/// that it accounts for every accepted job and leaves none pending.
fn replay_ms(journal: &Path, accepted: u64) -> Result<f64, String> {
    let t = Instant::now();
    let plan = dcl1d::qjournal::replay(journal);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    if plan.accepted as u64 != accepted || !plan.pending.is_empty() || plan.torn != 0 {
        return Err(format!(
            "queue journal disagrees with the run: {} accepted (client saw {accepted}), {} pending, {} torn",
            plan.accepted,
            plan.pending.len(),
            plan.torn
        ));
    }
    Ok(ms)
}
