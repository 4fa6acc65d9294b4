//! The parent side of a run: plans the rounds, starts one child process
//! per round with a hermetic environment, checks every child's output
//! against the pinned digests and counts, and folds the rounds into the
//! metrics `BENCHMARK.json` declares.

use crate::child;
use crate::host::Host;
use crate::json::{self, Json};
use crate::manifest::{Kind, Manifest};
use crate::points::{self, PointSet};
use crate::stats;
use crate::trace::{self, Tracer};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Set-up repetitions on top of the measured rounds' own, so `setup_s`
/// is a median of several samples.
const SETUP_PROBES: usize = 7;

/// Environment a child must not inherit: each would silently change what
/// the store does.
const SCRUBBED_ENV: [&str; 4] = [
    "DCL1_CACHE_SHARED_DIR",
    "DCL1_CACHE_SHARED_WRITEBACK",
    "DCL1_CACHE_MEM_BUDGET_BYTES",
    "DCL1_CACHE_BUDGET_BYTES",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `runner::run_apps_supervised` over a pinned point set.
    Sweep { set: PointSet, shards: usize },
    /// An in-process `dcl1d` server driven over loopback TCP.
    Daemon { warm: bool },
}

/// One pinned workload. Round counts are the canonical ones, run when
/// `--seconds` equals the manifest's `run_seconds`.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    /// Child processes (each a full pass over the workload's points).
    pub rounds: u32,
    /// Submission rounds inside one warm-daemon child.
    pub tenant_rounds: u32,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sweep_cold",
        shape: Shape::Sweep {
            set: PointSet::Grid,
            shards: 1,
        },
        rounds: 2,
        tenant_rounds: 0,
    },
    Workload {
        name: "shard_pair",
        shape: Shape::Sweep {
            set: PointSet::Heavy,
            shards: 2,
        },
        rounds: 2,
        tenant_rounds: 0,
    },
    Workload {
        name: "daemon_cold",
        shape: Shape::Daemon { warm: false },
        rounds: 2,
        tenant_rounds: 0,
    },
    Workload {
        name: "daemon_warm",
        shape: Shape::Daemon { warm: true },
        rounds: 2,
        tenant_rounds: 200,
    },
];

pub fn workload(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (have: {})", names.join(", "))
    })
}

/// The digests and counts every run is checked against.
#[derive(Debug, Clone)]
pub struct Expected {
    pub grid_digest: String,
    pub grid_sim_cycles: u64,
    pub heavy_digest: String,
    pub heavy_sim_cycles: u64,
    pub beta_digest: String,
    /// Tenant rounds the warm digests below were taken at.
    pub warm_tenant_rounds: u32,
    pub warm_digests: BTreeMap<String, String>,
}

impl Expected {
    pub fn load(path: &Path) -> Result<Expected, String> {
        let doc = json::read_file(path)?;
        let part = |key: &str| {
            doc.get(key)
                .ok_or_else(|| format!("{}: missing {key:?}", path.display()))
        };
        let warm = part("daemon_warm")?;
        let warm_digests =
            json::members(warm.get("digests").ok_or("daemon_warm.digests")?, "digests")?
                .iter()
                .map(|(k, v)| {
                    Ok((
                        k.clone(),
                        v.as_str().ok_or("digest is not a string")?.to_string(),
                    ))
                })
                .collect::<Result<_, String>>()?;
        Ok(Expected {
            grid_digest: json::get_str(part("grid")?, "digest")?.to_string(),
            grid_sim_cycles: json::get_u64(part("grid")?, "sim_cycles")?,
            heavy_digest: json::get_str(part("heavy")?, "digest")?.to_string(),
            heavy_sim_cycles: json::get_u64(part("heavy")?, "sim_cycles")?,
            beta_digest: json::get_str(part("daemon_cold")?, "beta_digest")?.to_string(),
            warm_tenant_rounds: u32::try_from(json::get_u64(warm, "tenant_rounds")?)
                .map_err(|_| "daemon_warm.tenant_rounds out of range")?,
            warm_digests,
        })
    }
}

/// Everything a run needs that does not depend on the workload.
pub struct Ctx {
    pub manifest: Manifest,
    pub expected: Expected,
    pub host: Host,
    /// This executable, re-invoked as `child ...`.
    pub exe: PathBuf,
    /// Scratch kept across runs of one checkout (the warm fixture, span
    /// files); lives in the build directory.
    pub work: PathBuf,
    /// Seconds the harness spent loading the above.
    pub prep_s: f64,
}

impl Ctx {
    /// Loads the manifest and pins from the current directory, which must
    /// be the root of a checkout.
    pub fn load() -> Result<Ctx, String> {
        let t = Instant::now();
        let manifest = Manifest::load(Path::new("BENCHMARK.json"))?;
        let expected = Expected::load(Path::new("benchmark/expected.json"))?;
        let host = Host::probe()?;
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("target"), PathBuf::from);
        let work = std::env::current_dir()
            .map_err(|e| format!("cannot read the current directory: {e}"))?
            .join(target)
            .join("dcl1-benchmark");
        std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
        Ok(Ctx {
            manifest,
            expected,
            host,
            exe,
            work,
            prep_s: t.elapsed().as_secs_f64(),
        })
    }
}

/// One emitted metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
    /// Samples behind the value (rounds, polls, or 1 for a count).
    pub n: usize,
}

/// The outcome of one run of one workload.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    pub workload: String,
    pub traced: bool,
    pub seed: u64,
    pub seconds: u64,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Metric>,
}

impl RunOutcome {
    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The metrics as `name -> {value, unit}`, with the sample count `n`
    /// when asked for.
    fn metrics_json(&self, with_n: bool) -> Json {
        let metric = |m: &Metric| {
            let mut doc = BTreeMap::from([
                ("value".to_string(), json::num(m.value)),
                ("unit".to_string(), json::text(&m.unit)),
            ]);
            if with_n {
                doc.insert("n".to_string(), json::num(m.n as f64));
            }
            Json::Obj(doc)
        };
        Json::Obj(
            self.metrics
                .iter()
                .map(|(name, m)| (name.clone(), metric(m)))
                .collect(),
        )
    }

    /// The record a results file holds for this run.
    pub fn to_json(&self) -> Json {
        json::obj([
            ("workload", json::text(&self.workload)),
            ("trace", json::num(if self.traced { 1.0 } else { 0.0 })),
            ("seed", json::num(self.seed as f64)),
            ("seconds", json::num(self.seconds as f64)),
            ("correct", Json::Bool(true)),
            ("attempted", json::num(self.attempted as f64)),
            ("failed", json::num(self.failed as f64)),
            ("metrics", self.metrics_json(true)),
        ])
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, each metric exactly `value` and `unit`.
    pub fn contract_line(&self) -> Result<String, String> {
        json::render(&json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", json::num(self.attempted as f64)),
            ("failed", json::num(self.failed as f64)),
            ("metrics", self.metrics_json(false)),
        ]))
    }
}

/// Round counts for a run of `seconds`: the canonical counts scaled by
/// `seconds / run_seconds`, never below one. Fixed work per `--seconds`
/// value, not a stopwatch, so exact counts repeat from run to run.
fn scaled(canonical: u32, seconds: u64, run_seconds: u64) -> u32 {
    let exact = f64::from(canonical) * seconds as f64 / run_seconds.max(1) as f64;
    (exact.round() as u32).max(1)
}

/// What one child reported.
struct ChildOutput {
    setup_s: f64,
    result: Option<Json>,
}

struct Runner<'a> {
    ctx: &'a Ctx,
    w: &'static Workload,
    seed: u64,
    tenant_rounds: u32,
    /// Scratch of this run only; removed when the run ends.
    run_dir: PathBuf,
    tracer: Tracer,
}

impl Runner<'_> {
    fn threads(&self) -> (usize, usize) {
        match self.w.shape {
            Shape::Sweep { shards, .. } => (self.ctx.host.nproc / shards, shards),
            Shape::Daemon { .. } => (self.ctx.host.nproc, 1),
        }
    }

    /// Starts one child in a fresh directory and waits for it.
    fn child(&mut self, tag: &str, traced: bool, setup_only: bool) -> Result<ChildOutput, String> {
        let dir = self.run_dir.join(tag);
        let cache = fresh_cache(&dir)?;
        let (point_threads, _) = self.threads();
        let mut cmd = match self.w.shape {
            Shape::Sweep { set, shards } => sweep_cmd(self.ctx, set, shards, point_threads, &dir),
            Shape::Daemon { warm } => {
                if warm {
                    copy_tree(&fixture(self.ctx)?.join("cache"), &cache)?;
                }
                let mut cmd = Command::new(&self.ctx.exe);
                cmd.args([
                    "child",
                    "daemon",
                    "--mode",
                    if warm { "warm" } else { "cold" },
                ])
                .args(["--tenant-rounds", &self.tenant_rounds.to_string()])
                .args(["--workers", &point_threads.to_string()])
                .arg("--scratch")
                .arg(&dir);
                cmd
            }
        };
        cmd.args(["--seed", &self.seed.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }]);
        if setup_only {
            cmd.arg("--setup-only");
        }
        run_child(cmd, &cache)
    }
}

/// Creates `dir` with an empty `cache/` inside and returns the latter.
fn fresh_cache(dir: &Path) -> Result<PathBuf, String> {
    let cache = dir.join("cache");
    std::fs::create_dir_all(&cache).map_err(|e| format!("create {}: {e}", cache.display()))?;
    Ok(cache)
}

/// The command line of a sweep child over `set`; `0` shards or workers
/// leaves that knob at the runner's default.
fn sweep_cmd(ctx: &Ctx, set: PointSet, shards: usize, workers: usize, dir: &Path) -> Command {
    let mut cmd = Command::new(&ctx.exe);
    cmd.args(["child", "sweep", "--points", set.arg()])
        .args(["--shards", &shards.to_string()])
        .args(["--workers", &workers.to_string()])
        .arg("--scratch")
        .arg(dir);
    cmd
}

/// Runs a prepared child command with the hermetic environment, reading
/// `READY` and `RESULT` from its stdout. The set-up sample runs from just
/// before the process is started to its `READY` line: the system's own
/// set-up, without the harness's directory shuffling before it (copying
/// the 200-entry warm fixture alone takes 10-80 ms on the recording host,
/// more than everything it would be added to).
fn run_child(mut cmd: Command, cache: &Path) -> Result<ChildOutput, String> {
    cmd.env("DCL1_CACHE_DIR", cache)
        .env("DCL1_SCALE", "smoke")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    for var in SCRUBBED_ENV {
        cmd.env_remove(var);
    }
    let t0 = Instant::now();
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot start a child process: {e}"))?;
    let stdout = child.stdout.take().ok_or("child has no stdout")?;
    let mut setup_s = None;
    let mut result = None;
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("reading child output: {e}"))?;
        if line == "READY" {
            setup_s.get_or_insert(t0.elapsed().as_secs_f64());
        } else if let Some(doc) = line.strip_prefix("RESULT ") {
            result = Some(Json::parse(doc).map_err(|e| format!("bad child result: {e}"))?);
        }
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for child: {e}"))?;
    if !status.success() {
        return Err(format!("child process failed ({status})"));
    }
    Ok(ChildOutput {
        setup_s: setup_s.ok_or("child never reported READY")?,
        result,
    })
}

fn copy_tree(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read {}: {e}", from.display()))?;
        let (src, dst) = (entry.path(), to.join(entry.file_name()));
        if entry
            .file_type()
            .map_err(|e| format!("stat {}: {e}", src.display()))?
            .is_dir()
        {
            copy_tree(&src, &dst)?;
        } else {
            std::fs::copy(&src, &dst).map_err(|e| format!("copy {}: {e}", src.display()))?;
        }
    }
    Ok(())
}

/// The pre-filled store the warm daemon workload starts from: the disk
/// tier a cold grid sweep of this build leaves behind. Simulating it takes
/// as long as a whole `sweep_cold` round, so it is built once per checkout,
/// like the executable, and copied into each round's own directory.
fn fixture(ctx: &Ctx) -> Result<PathBuf, String> {
    let dir = ctx.work.join("warm-fixture");
    if dir.join("cache").is_dir() {
        return Ok(dir);
    }
    let t0 = Instant::now();
    let tmp = ctx
        .work
        .join(format!("warm-fixture.tmp{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let cache = fresh_cache(&tmp)?;
    let cmd = sweep_cmd(ctx, PointSet::Grid, 1, ctx.host.nproc, &tmp);
    let out = run_child(cmd, &cache)?
        .result
        .ok_or("fixture sweep produced no result")?;
    let (digest, cycles) = (&ctx.expected.grid_digest, ctx.expected.grid_sim_cycles);
    check_sweep(&out, digest, cycles, PointSet::Grid.point_count(), 1)?;
    // Another run may have finished the same fixture meanwhile; either
    // copy is the same bytes.
    if std::fs::rename(&tmp, &dir).is_err() {
        let _ = std::fs::remove_dir_all(&tmp);
    }
    eprintln!(
        "[dcl1-benchmark] built the warm-store fixture in {:.1} s (once per checkout, not part of setup_s)",
        t0.elapsed().as_secs_f64()
    );
    Ok(dir)
}

fn check_eq<T: PartialEq + std::fmt::Display>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("correctness: {what} is {got}, expected {want}"))
    }
}

fn check_sweep(
    out: &Json,
    digest: &str,
    sim_cycles: u64,
    points: u64,
    shards: u64,
) -> Result<(), String> {
    check_eq("stats digest", json::get_str(out, "digest")?, digest)?;
    check_eq("sim_cycles", json::get_u64(out, "sim_cycles")?, sim_cycles)?;
    check_eq("points simulated", json::get_u64(out, "simulated")?, points)?;
    check_eq("points attempted", json::get_u64(out, "attempted")?, points)?;
    check_eq("points quarantined", json::get_u64(out, "failed")?, 0)?;
    check_eq(
        "effective shards",
        json::get_u64(out, "shards_effective")?,
        shards,
    )
}

fn check_daemon(
    out: &Json,
    expected: &Expected,
    warm: bool,
    tenant_rounds: u32,
) -> Result<(), String> {
    // What the store holds must be the pinned grid, whoever computed it.
    check_eq(
        "store grid digest",
        json::get_str(out, "digest")?,
        expected.grid_digest.as_str(),
    )?;
    check_eq(
        "store grid sim_cycles",
        json::get_u64(out, "sim_cycles")?,
        expected.grid_sim_cycles,
    )?;
    check_eq("jobs failed", json::get_u64(out, "failed")?, 0)?;
    // Cold: single-flight must have simulated each point once although
    // `beta` resubmits half of them. Warm: the kernel must stay idle.
    check_eq(
        "points simulated",
        json::get_u64(out, "simulated")?,
        if warm { 0 } else { 112 },
    )?;
    let tenants = out.get("tenants").ok_or("daemon result without tenants")?;
    let tenant = |name: &str| {
        tenants
            .get(name)
            .ok_or_else(|| format!("no result for tenant {name}"))
    };
    let check_tenant = |name: &str, completed: u64, pinned: Option<&str>| -> Result<(), String> {
        let t = tenant(name)?;
        check_eq(
            &format!("{name} completed"),
            json::get_u64(t, "completed")?,
            completed,
        )?;
        check_eq(
            &format!("{name} quarantined"),
            json::get_u64(t, "quarantined")?,
            0,
        )?;
        let digest = json::get_str(t, "digest")?;
        check_eq(
            &format!("{name} digest vs store"),
            digest,
            json::get_str(t, "recomputed")?,
        )?;
        match pinned {
            Some(p) => check_eq(&format!("{name} digest"), digest, p),
            None => Ok(()),
        }
    };
    if warm {
        let per_round = (points::WARM_SLICE_APPS * points::DESIGNS) as u64;
        for name in points::WARM_TENANTS {
            let pinned = (tenant_rounds == expected.warm_tenant_rounds)
                .then(|| expected.warm_digests.get(name).map(String::as_str))
                .flatten();
            check_tenant(name, per_round * u64::from(tenant_rounds), pinned)?;
        }
        Ok(())
    } else {
        check_tenant("alpha", 112, Some(&expected.grid_digest))?;
        check_tenant(
            "beta",
            (points::BETA_APPS * points::DESIGNS) as u64,
            Some(&expected.beta_digest),
        )
    }
}

/// Per-layer metrics a workload does not measure and reports as 0: the
/// contract wants every declared name in every traced run.
fn not_measured(w: &Workload, name: &str) -> bool {
    const CLIENT_SIDE: [&str; 14] = [
        "dcl1d.first_result_ms",
        "dcl1d.submit_ack_ms_p50",
        "dcl1d.queue_wait_ms_p50",
        "dcl1d.queue_wait_ms_p95",
        "dcl1d.service_ms_p50",
        "dcl1d.status_ms_p50",
        "dcl1d.status_ms_p95",
        "dcl1d.status_samples",
        "dcl1d.status_us_per_completed",
        "dcl1d.jobs_accepted",
        "dcl1d.jobs_rejected",
        "dcl1d.jobs_shed",
        "dcl1d.journal_bytes_per_job",
        "dcl1d.qjournal_replay_ms",
    ];
    match name {
        "obs.instrument_overhead_pct" => w.name != "sweep_cold",
        "dcl1.default_cfg_slowdown_x" => w.name != "shard_pair",
        _ => matches!(w.shape, Shape::Sweep { .. }) && CLIENT_SIDE.contains(&name),
    }
}

/// `dcl1.default_cfg_slowdown_x`: the probe point's wall time with the
/// runner's shard and worker defaults left untouched, over its wall time
/// pinned to one shard and one thread. The only place the benchmark runs
/// an unpinned configuration, and it does so on purpose: more runnable
/// threads than cores is the defect being measured.
fn default_cfg_slowdown(r: &Runner<'_>) -> Result<f64, String> {
    // (wall_s, digest) with both knobs pinned to 1, then both left alone.
    let mut runs = Vec::new();
    for (tag, knob) in [("probe-pinned", 1), ("probe-default", 0)] {
        let dir = r.run_dir.join(tag);
        let cache = fresh_cache(&dir)?;
        let out = run_child(sweep_cmd(r.ctx, PointSet::Probe, knob, knob, &dir), &cache)?
            .result
            .ok_or("probe produced no result")?;
        check_eq(
            "probe points quarantined",
            json::get_u64(&out, "failed")?,
            0,
        )?;
        runs.push((
            json::get_f64(&out, "wall_s")?,
            json::get_str(&out, "digest")?.to_string(),
        ));
    }
    check_eq(
        "default-configuration probe digest",
        runs[1].1.as_str(),
        runs[0].1.as_str(),
    )?;
    Ok(runs[1].0 / runs[0].0)
}

/// Runs `w` once: set-up probes, the measured rounds, verification, and
/// aggregation into the declared metrics of the run's kind.
pub fn run_workload(
    ctx: &Ctx,
    w: &'static Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<RunOutcome, String> {
    let rounds = scaled(w.rounds, seconds, ctx.manifest.run_seconds);
    let tenant_rounds = scaled(w.tenant_rounds, seconds, ctx.manifest.run_seconds);
    let run_dir = ctx.work.join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);
    let mut r = Runner {
        ctx,
        w,
        seed,
        tenant_rounds,
        run_dir,
        tracer: Tracer::new(traced),
    };
    let (point_threads, shards) = r.threads();
    ctx.host.check_threads(w.name, point_threads, shards)?;
    let outcome = run_rounds(&mut r, rounds, seconds, traced);
    let spans = std::mem::replace(&mut r.tracer, Tracer::new(false)).into_spans();
    if traced && outcome.is_ok() {
        trace::write_jsonl(&ctx.work.join(format!("spans-{}.jsonl", w.name)), &spans)?;
    }
    let _ = std::fs::remove_dir_all(&r.run_dir);
    outcome
}

fn run_rounds(
    r: &mut Runner<'_>,
    rounds: u32,
    seconds: u64,
    traced: bool,
) -> Result<RunOutcome, String> {
    let (ctx, w) = (r.ctx, r.w);
    ctx.host.warm_up();
    let mut setup = Vec::new();
    for i in 0..SETUP_PROBES {
        let span = r
            .tracer
            .enter("harness.setup_probe", &format!("probe{i}"), None);
        setup.push(r.child(&format!("probe{i}"), false, true)?.setup_s);
        r.tracer.exit(span);
    }

    // A traced run keeps round 0 untraced: it is the reference the traced
    // rounds' wall time is set against.
    let children = if traced { rounds.max(2) } else { rounds };
    let mut reference_wall = None;
    let (mut wall, mut rate, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut layer_samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for i in 0..children {
        let child_traced = traced && i > 0;
        let span = r.tracer.enter("harness.round", &format!("round{i}"), None);
        let out = r.child(&format!("round{i}"), child_traced, false)?;
        let ready_ns = r.tracer.now_ns();
        r.tracer.exit(span);
        setup.push(out.setup_s);
        let result = out.result.ok_or("round produced no result")?;
        match w.shape {
            Shape::Sweep { set, shards } => {
                let (digest, cycles) = match set {
                    PointSet::Heavy => (&ctx.expected.heavy_digest, ctx.expected.heavy_sim_cycles),
                    _ => (&ctx.expected.grid_digest, ctx.expected.grid_sim_cycles),
                };
                check_sweep(&result, digest, cycles, set.point_count(), shards as u64)?;
            }
            Shape::Daemon { warm } => check_daemon(&result, &ctx.expected, warm, r.tenant_rounds)?,
        }
        let round_wall = json::get_f64(&result, "wall_s")?;
        eprintln!(
            "[dcl1-benchmark] {} round {i}{}: {round_wall:.3} s",
            w.name,
            if child_traced { " (traced)" } else { "" }
        );
        if traced && i == 0 {
            reference_wall = Some(round_wall);
            continue;
        }
        let (a, f) = (
            json::get_u64(&result, "attempted")?,
            json::get_u64(&result, "failed")?,
        );
        attempted += a;
        failed += f;
        wall.push(round_wall);
        rate.push((a - f) as f64 / round_wall);
        rss.push(json::get_f64(&result, "peak_rss_mb")?);
        if child_traced {
            for (name, v) in json::members(
                result.get("layers").ok_or("traced round without layers")?,
                "layers",
            )? {
                layer_samples
                    .entry(name.clone())
                    .or_default()
                    .push(v.as_f64().ok_or("layer value")?);
            }
            // The child's clock starts when its set-up ends; place its
            // spans so they end where the round's span does.
            let child_spans =
                trace::read_jsonl(&r.run_dir.join(format!("round{i}")).join(child::SPANS_FILE))?;
            let child_end = child_spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
            let offset = ready_ns.saturating_sub(child_end);
            let parent = span.span();
            let base = r.tracer.span_count();
            for s in child_spans {
                r.tracer.adopt(s, base, parent, offset);
            }
        }
    }

    let mut values: BTreeMap<String, (f64, usize)> = BTreeMap::new();
    if traced {
        for (name, samples) in &layer_samples {
            values.insert(name.clone(), (stats::median(samples), samples.len()));
        }
        let reference = reference_wall.ok_or("traced run without a reference round")?;
        values.insert(
            "trace_overhead_pct".to_string(),
            (
                100.0 * (stats::median(&wall) - reference) / reference,
                wall.len(),
            ),
        );
        if w.name == "shard_pair" {
            values.insert(
                "dcl1.default_cfg_slowdown_x".to_string(),
                (default_cfg_slowdown(r)?, 1),
            );
        }
        for decl in ctx.manifest.of_kind(Kind::PerLayer) {
            if not_measured(w, &decl.name) {
                values.entry(decl.name.clone()).or_insert((0.0, 0));
            }
        }
    } else {
        values.insert(
            "setup_s".to_string(),
            (ctx.prep_s + stats::median(&setup), setup.len()),
        );
        // Best round, not the median: what disturbs a round on a shared
        // host (see README, "Host noise") only ever adds time, and comes
        // in episodes about as long as a run, so with two rounds the
        // median is disturbed whenever either round is and the best only
        // when both are.
        values.insert(
            "wall_s".to_string(),
            (
                wall.iter().copied().fold(f64::INFINITY, f64::min),
                wall.len(),
            ),
        );
        values.insert(
            "jobs_per_s".to_string(),
            (rate.iter().copied().fold(0.0, f64::max), rate.len()),
        );
        values.insert("peak_rss_mb".to_string(), (stats::median(&rss), rss.len()));
    }

    // The emitted set must be exactly the declared set of this kind: a
    // metric that silently stops being produced is the failure this
    // ledger exists to prevent.
    let kind = if traced {
        Kind::PerLayer
    } else {
        Kind::EndToEnd
    };
    let mut metrics = BTreeMap::new();
    for decl in ctx.manifest.of_kind(kind) {
        let (value, n) = values
            .remove(&decl.name)
            .ok_or_else(|| format!("{}: declared metric {} was not measured", w.name, decl.name))?;
        metrics.insert(
            decl.name.clone(),
            Metric {
                value,
                unit: decl.unit.clone(),
                n,
            },
        );
    }
    if let Some(extra) = values.keys().next() {
        return Err(format!(
            "{}: measured metric {extra} is not declared in BENCHMARK.json",
            w.name
        ));
    }
    Ok(RunOutcome {
        workload: w.name.to_string(),
        traced,
        seed: r.seed,
        seconds,
        attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_counts_scale_with_seconds_and_never_reach_zero() {
        assert_eq!(scaled(2, 20, 20), 2);
        assert_eq!(scaled(200, 20, 20), 200);
        assert_eq!(scaled(200, 10, 20), 100);
        assert_eq!(scaled(2, 1, 20), 1);
        assert_eq!(scaled(200, 1, 20), 10);
        assert_eq!(scaled(2, 40, 20), 4);
    }

    #[test]
    fn workload_lookup_names_the_choices() {
        assert_eq!(workload("shard_pair").unwrap().rounds, 2);
        assert!(workload("nope").unwrap_err().contains("sweep_cold"));
    }
}
