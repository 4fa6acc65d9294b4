//! Simulation execution: a [`SweepSession`] owns everything a sweep
//! configures and accumulates, and runs single points and supervised
//! parallel sweeps.
//!
//! Results are memoized in a tiered [`dcl1_store::ResultStore`], keyed by
//! a structured hash of the full (app, design, config, options, scale)
//! point: a sharded in-memory LRU of 256 MiB over an unbounded fan-out
//! checksummed disk tier under the session's directory. Concurrent
//! requests for the same uncomputed key are deduplicated by per-key
//! single-flight: one thread simulates, the rest wait and read the
//! published result.
//!
//! Sweeps run under supervision ([`SweepSession::run_points`]): each point
//! runs once behind panic containment ([`dcl1_resilience::contain`]), hangs
//! are converted into structured livelock/deadline errors by the machine's
//! progress watchdog, and a point that fails is *quarantined* — reported in
//! the sweep outcome while every other point completes. The simulator is
//! deterministic, so a failed point is not retried; under `--check` it runs
//! once more, and a rerun that does not fail the same way is reported as
//! nondeterminism ([`dcl1_resilience::rerun_verdict`]). On-disk cache
//! entries carry a content checksum and are written via temp-file + atomic
//! rename (safe for concurrent writers); a corrupt entry is moved to a
//! `quarantine/` subdir and transparently recomputed. The disk tier is also
//! the sweep's checkpoint: a point is stored there before its run returns,
//! so a rerun over the same directory after a kill serves every finished
//! point from disk and simulates only the rest. Deterministic fault injection
//! ([`SweepSession::with_chaos`], or one point's [`TenantScope`]) exists
//! to prove all of the above actually works.
//!
//! Sessions share nothing but what their directories share, so two of
//! them run side by side in one process.

use crate::ledger::ResultLedger;
use dcl1::{Design, GpuConfig, GpuSystem, ProgressHook, RunStats, SimError, SimOptions};
use dcl1_common::checksum::Fnv128;
use dcl1_obs::profiler::{Phase, PhaseProfiler};
use dcl1_obs::progress::{ProgressEvent, ProgressSink, ProgressStage};
use dcl1_obs::recovery::RecoveryLog;
use dcl1_obs::registry::{CounterId, GaugeId, HistogramId, Registry};
use dcl1_resilience::{contain, rerun_verdict, Chaos, QuarantineRecord};
use dcl1_store::{
    Codec, Corruption, DiskReload, DiskTierConfig, Flight, ResultStore, StoreConfig, StoreStats,
};
use dcl1_workloads::AppSpec;
use std::cell::Cell;
use std::fmt::Write as _;
use std::hash::Hash;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// How much of each wavefront's trace to simulate (CTA grids stay full,
/// so machine occupancy is always realistic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Full-length traces.
    Full,
    /// Quarter-length traces — what EXPERIMENTS.md records.
    Quarter,
    /// Sixteenth-length traces — smoke tests.
    Smoke,
}

impl Scale {
    /// Numerator/denominator applied to the per-wavefront trace length.
    pub fn ratio(self) -> (u32, u32) {
        match self {
            Scale::Full => (1, 1),
            Scale::Quarter => (1, 4),
            Scale::Smoke => (1, 16),
        }
    }

    /// Reads the scale from the `DCL1_SCALE` environment variable
    /// (`full` / `quarter` / `smoke`, any case). Unset means `Quarter`, so
    /// an unconfigured run finishes in minutes; a value that is set but
    /// not one of the three would silently run a different experiment, so
    /// it ends the process (exit status 2) naming the accepted spellings.
    #[expect(clippy::disallowed_methods, reason = "DCL1_SCALE is the one scale knob")]
    pub fn from_env() -> Scale {
        let Some(raw) = std::env::var_os("DCL1_SCALE") else { return Scale::Quarter };
        raw.to_string_lossy().parse().unwrap_or_else(|e| {
            eprintln!("DCL1_SCALE: {e}");
            std::process::exit(2)
        })
    }
}

impl std::str::FromStr for Scale {
    type Err = String;

    /// Parses `full` / `quarter` / `smoke`, case-insensitively.
    fn from_str(s: &str) -> Result<Scale, String> {
        match s.to_ascii_lowercase().as_str() {
            "full" => Ok(Scale::Full),
            "quarter" => Ok(Scale::Quarter),
            "smoke" => Ok(Scale::Smoke),
            _ => Err(format!("unknown scale '{s}': expected full, quarter or smoke")),
        }
    }
}

/// One (application, design, options) point to simulate.
#[derive(Debug, Clone)]
pub struct RunRequest {
    /// Application to run.
    pub app: AppSpec,
    /// Hierarchy design.
    pub design: Design,
    /// Machine configuration.
    pub cfg: GpuConfig,
    /// Simulation options.
    pub opts: SimOptions,
}

impl RunRequest {
    /// A request with the default machine and options.
    pub fn new(app: AppSpec, design: Design) -> Self {
        RunRequest { app, design, cfg: GpuConfig::default(), opts: SimOptions::default() }
    }
}

// ---------------------------------------------------------------------------
// Memo key
// ---------------------------------------------------------------------------

/// Bump when the meaning of cached results changes (simulator semantics,
/// `RunStats` fields, trace generation, …) so stale on-disk entries are
/// never read back. The version is part of the cache directory name.
///
/// v2: `RunStats` grew the stall-attribution fields.
///
/// v3: the sharded machine changed transaction-id assignment, RTT-meter
/// merge order, and presence accounting to be partition-independent, which
/// moves some floating-point statistics relative to the v2 machine.
const CACHE_SCHEMA_VERSION: u32 = 3;

/// The full structured identity of a simulation point.
#[derive(Hash)]
struct MemoKey<'a> {
    schema: u32,
    app: &'a AppSpec,
    design: &'a Design,
    cfg: &'a GpuConfig,
    opts: &'a SimOptions,
    scale: Scale,
}

fn memo_key(req: &RunRequest, scale: Scale) -> u128 {
    let key = MemoKey {
        schema: CACHE_SCHEMA_VERSION,
        app: &req.app,
        design: &req.design,
        cfg: &req.cfg,
        opts: &req.opts,
        scale,
    };
    let mut h = Fnv128::default();
    key.hash(&mut h);
    h.value()
}

/// The memo key of a request as a fixed-width hex string — the identity
/// under which its result is cached. The shard count is not part of it: a
/// sharded and a sequential run of the same point share one cache entry,
/// which is only sound because their stats are byte-identical.
pub fn memo_key_hex(req: &RunRequest, scale: Scale) -> String {
    format!("{:032x}", memo_key(req, scale))
}

// ---------------------------------------------------------------------------
// On-disk cache
// ---------------------------------------------------------------------------

/// Appends the schema-version component to a cache base directory.
/// Entries from other schema versions live in sibling `v<N>` directories
/// and are never read back — stale results cannot leak across a bump.
fn versioned_cache_dir(base: &Path) -> PathBuf {
    base.join(format!("v{CACHE_SCHEMA_VERSION}"))
}

/// The host's cache base directory: `$DCL1_CACHE_DIR` if set, else
/// `target/dcl1-cache/` in the workspace.
#[expect(clippy::disallowed_methods, reason = "where the cache lives is the host's choice")]
fn host_cache_dir() -> PathBuf {
    std::env::var_os("DCL1_CACHE_DIR").map(PathBuf::from).unwrap_or_else(|| {
        std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target")))
            .join("dcl1-cache")
    })
}

/// Deletes every result persisted in the host's cache (all schema
/// versions). Call it before opening a session on that cache.
pub fn clear_disk_cache() {
    let _ = std::fs::remove_dir_all(host_cache_dir());
}

/// One serialised `RunStats` field, borrowed so the same table both reads
/// and writes it.
enum Field<'a> {
    Count(&'a mut u64),
    /// Written as its exact bit pattern, so a disk round-trip is
    /// bit-identical (decimal formatting would not be).
    Real(&'a mut f64),
    Counts(&'a mut Vec<u64>),
    /// Free-form rest of the line.
    Text(&'a mut String),
}

impl std::fmt::Display for Field<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Field::Count(v) => write!(f, "{v}"),
            Field::Real(v) => write!(f, "{:016x}", v.to_bits()),
            Field::Counts(v) => {
                for (i, x) in v.iter().enumerate() {
                    write!(f, "{}{x}", if i == 0 { "" } else { "," })?;
                }
                Ok(())
            }
            Field::Text(v) => f.write_str(v),
        }
    }
}

impl Field<'_> {
    fn parse(&mut self, s: &str) -> Option<()> {
        match self {
            Field::Count(v) => **v = s.parse().ok()?,
            Field::Real(v) => **v = f64::from_bits(u64::from_str_radix(s, 16).ok()?),
            Field::Counts(v) if s.is_empty() => v.clear(),
            Field::Counts(v) => **v = s.split(',').map(|x| x.parse().ok()).collect::<Option<_>>()?,
            Field::Text(v) => **v = s.to_string(),
        }
        Some(())
    }
}

/// The on-disk stats schema: every `RunStats` field under its key, in file
/// order. Serialise, deserialise and the every-key-once check all read
/// this one table. The destructuring has no `..`, so a field added to
/// `RunStats` does not compile until it has a key here, and
/// `tests::stats_schema_is_pinned_to_its_version` fails until
/// `CACHE_SCHEMA_VERSION` moves with the key list. The order is the
/// file's, so it is part of every stored entry and every digest.
fn stats_fields(s: &mut RunStats) -> [(&'static str, Field<'_>); 29] {
    use Field::{Count, Counts, Real, Text};
    let RunStats {
        design, cycles, instructions, l1_accesses, l1_hits, l1_misses, l1_replicated_misses,
        mean_replicas, max_port_utilization, mean_port_utilization, max_reply_link_utilization,
        mean_load_rtt, p50_load_rtt, p95_load_rtt, p99_load_rtt, l2_accesses, l2_misses,
        dram_requests, dram_row_hit_rate, noc_flits, per_node_accesses, stall_drained,
        stall_alu_busy, stall_fill_wait, stall_mem_outbox, stall_mem_l1_queue, stall_mem_noc,
        l1_mshr_stall_cycles, l1_queue_stall_cycles,
    } = s;
    [
        ("cycles", Count(cycles)),
        ("instructions", Count(instructions)),
        ("l1_accesses", Count(l1_accesses)),
        ("l1_hits", Count(l1_hits)),
        ("l1_misses", Count(l1_misses)),
        ("l1_replicated_misses", Count(l1_replicated_misses)),
        ("mean_replicas", Real(mean_replicas)),
        ("max_port_utilization", Real(max_port_utilization)),
        ("mean_port_utilization", Real(mean_port_utilization)),
        ("max_reply_link_utilization", Real(max_reply_link_utilization)),
        ("mean_load_rtt", Real(mean_load_rtt)),
        ("p50_load_rtt", Count(p50_load_rtt)),
        ("p95_load_rtt", Count(p95_load_rtt)),
        ("p99_load_rtt", Count(p99_load_rtt)),
        ("l2_accesses", Count(l2_accesses)),
        ("l2_misses", Count(l2_misses)),
        ("dram_requests", Count(dram_requests)),
        ("dram_row_hit_rate", Real(dram_row_hit_rate)),
        ("noc_flits", Counts(noc_flits)),
        ("per_node_accesses", Counts(per_node_accesses)),
        ("stall_drained", Count(stall_drained)),
        ("stall_alu_busy", Count(stall_alu_busy)),
        ("stall_fill_wait", Count(stall_fill_wait)),
        ("stall_mem_outbox", Count(stall_mem_outbox)),
        ("stall_mem_l1_queue", Count(stall_mem_l1_queue)),
        ("stall_mem_noc", Count(stall_mem_noc)),
        ("l1_mshr_stall_cycles", Count(l1_mshr_stall_cycles)),
        ("l1_queue_stall_cycles", Count(l1_queue_stall_cycles)),
        ("design", Text(design)),
    ]
}

pub(crate) fn serialize_stats(s: &RunStats) -> String {
    let mut s = s.clone();
    let mut out = String::new();
    for (key, field) in stats_fields(&mut s) {
        let _ = writeln!(out, "{key} {field}");
    }
    out
}

/// Parses a body [`serialize_stats`] wrote. Every key must appear exactly
/// once: a truncated write, a stale schema or a doctored body whose line
/// count happens to match is rejected, never half-parsed.
fn deserialize_stats(text: &str) -> Option<RunStats> {
    let mut s = RunStats::default();
    let mut fields = stats_fields(&mut s);
    let mut seen = [false; 29];
    for line in text.lines() {
        let (k, v) = line.split_once(' ')?;
        let i = fields.iter().position(|(key, _)| *key == k)?;
        if std::mem::replace(&mut seen[i], true) {
            return None;
        }
        fields[i].1.parse(v)?;
    }
    seen.iter().all(|&x| x).then_some(s)
}

/// Bridges `RunStats` across the store's disk boundary. The serialized
/// schema (and `CACHE_SCHEMA_VERSION`) stays in this file, pinned by
/// `tests::stats_schema_is_pinned_to_its_version`, while the store
/// handles framing, checksums, atomic writes, fan-out, and quarantine.
struct StatsCodec;

impl Codec<RunStats> for StatsCodec {
    fn encode(&self, value: &RunStats) -> String {
        serialize_stats(value)
    }

    fn decode(&self, body: &str) -> Option<RunStats> {
        deserialize_stats(body)
    }
}

/// In-memory tier budget: 256 MiB holds ~500k smoke-scale entries —
/// effectively "everything" for today's sweeps while bounding a `dcl1d`
/// daemon's resident set.
const MEM_BUDGET_BYTES: u64 = 256 << 20;

/// In-memory LRU shard count: enough that a 16-worker sweep rarely
/// contends on one shard lock, small enough that per-shard budgets stay
/// meaningful.
const MEM_SHARDS: usize = 8;

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

/// Wall-time/throughput record for one actually-simulated point.
#[derive(Debug, Clone)]
pub struct PointTiming {
    /// Application name.
    pub app: &'static str,
    /// Design name.
    pub design: String,
    /// Core cycles the run simulated.
    pub sim_cycles: u64,
    /// Wall-clock seconds the simulation took.
    pub wall_seconds: f64,
    /// Pipeline-phase wall-time breakdown for this point.
    pub profile: PhaseProfiler,
}

impl PointTiming {
    /// Simulated kilo-cycles per wall second.
    pub fn khz(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.sim_cycles as f64 / self.wall_seconds / 1e3
        }
    }
}

/// A session's sweep-throughput counters: the tier breakdown of its result
/// store plus the simulate-side totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemoStats {
    /// Points served from the in-memory LRU tier.
    pub mem_hits: u64,
    /// Points served from the on-disk tier.
    pub disk_hits: u64,
    /// Lookups that fell through both tiers.
    pub misses: u64,
    /// Points actually simulated.
    pub simulated: u64,
    /// In-memory entries evicted to stay under the byte budget.
    pub mem_evictions: u64,
    /// Bytes held by the in-memory tier.
    pub mem_bytes: u64,
    /// Bytes held by the disk tier.
    pub disk_bytes: u64,
    /// Threads that blocked behind another thread computing the same key.
    pub flight_waits: u64,
    /// Core cycles across simulated points.
    pub sim_cycles: u64,
    /// Wall nanoseconds across simulated points.
    pub wall_nanos: u64,
}

impl MemoStats {
    /// Points served without simulating, from either tier.
    pub fn total_hits(&self) -> u64 {
        self.mem_hits + self.disk_hits
    }

    /// Fraction of accounted points served without simulating: hits
    /// against hits + simulated points.
    pub(crate) fn hit_rate(&self) -> f64 {
        let total = self.total_hits() + self.simulated;
        if total == 0 {
            0.0
        } else {
            self.total_hits() as f64 / total as f64
        }
    }
}

/// A session's intra-point sharding diagnostics.
#[derive(Debug, Clone, Copy)]
pub struct ShardSweepStats {
    /// Largest effective shard count any simulated point ran with.
    pub shards: u64,
    /// Always 0: a machine steps its domains on its own thread, so nothing
    /// waits at a barrier. Kept only because the `benchmark/` ledger reads
    /// it.
    pub barrier_wait_nanos: u64,
}

/// The registry every simulated point's machine registry is absorbed
/// into, plus the ids of the runner's own `memo.*` namespace (cache-layer
/// sweep counters, refreshed at snapshot time).
struct SweepRegistry {
    reg: Registry,
    mem_hits: CounterId,
    disk_hits: CounterId,
    misses: CounterId,
    simulated: CounterId,
    mem_evictions: CounterId,
    flight_waits: CounterId,
    cache_corruptions: CounterId,
    quarantined_points: CounterId,
    mem_bytes: GaugeId,
    disk_bytes: GaugeId,
    mem_lookup_nanos: HistogramId,
    disk_lookup_nanos: HistogramId,
    fill_nanos: HistogramId,
}

impl SweepRegistry {
    /// Registers the `memo.*` namespace into `reg`.
    fn new(mut reg: Registry) -> SweepRegistry {
        SweepRegistry {
            mem_hits: reg.counter("memo.mem_hits"),
            disk_hits: reg.counter("memo.disk_hits"),
            misses: reg.counter("memo.misses"),
            simulated: reg.counter("memo.simulated"),
            mem_evictions: reg.counter("memo.mem_evictions"),
            flight_waits: reg.counter("memo.flight_waits"),
            cache_corruptions: reg.counter("memo.cache_corruptions"),
            quarantined_points: reg.counter("memo.quarantined_points"),
            mem_bytes: reg.gauge("memo.mem_bytes"),
            disk_bytes: reg.gauge("memo.disk_bytes"),
            mem_lookup_nanos: reg.histogram("memo.mem_lookup_nanos"),
            disk_lookup_nanos: reg.histogram("memo.disk_lookup_nanos"),
            fill_nanos: reg.histogram("memo.fill_nanos"),
            reg,
        }
    }
}

// ---------------------------------------------------------------------------
// Supervision configuration
// ---------------------------------------------------------------------------

/// Human-readable `APP/DESIGN` label of a request — the identity used by
/// quarantine reports and chaos fault assignment.
pub fn point_label(req: &RunRequest) -> String {
    format!("{}/{}", req.app.name, req.design.name())
}

/// Watchdog epoch used for chaos-injected stalls: small enough that the
/// livelock is detected in milliseconds, large enough to be a real epoch.
const CHAOS_STALL_EPOCH: u64 = 1 << 14;

/// Cycle at which a chaos stall freezes the machine — early enough that
/// even the shortest smoke-scale point (~1.2k cycles) is still mid-kernel,
/// so every injected stall actually engages the watchdog.
const CHAOS_STALL_CYCLE: u64 = 512;

/// What one point brings beyond its request: `dcl1d` passes its tenant's
/// chaos seed and deadline, which reach no other tenant's runs, even ones
/// sharing the point's memo key.
#[derive(Debug, Clone, Copy, Default)]
pub struct TenantScope {
    /// Chaos seed for this point, overriding the session's.
    pub chaos: Option<u64>,
    /// Wall-clock deadline in whole seconds (`0` = none): a point that
    /// exceeds it fails with `SimError::Deadline`.
    pub deadline_secs: Option<u64>,
}

/// A completed point and the tier that served it.
#[derive(Debug, Clone)]
pub struct Served {
    /// The point's statistics: the `Arc` the store holds for the point (a
    /// checked run, which bypasses the store, gets one of its own).
    pub stats: Arc<RunStats>,
    /// `"simulated"`, or the store tier that held it: `"memo"` or
    /// `"disk"`.
    pub source: &'static str,
}

/// The outcome of a supervised sweep: per-point results in input order
/// (`None` where the point was quarantined) plus the quarantine records.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// One slot per request, input order; `None` marks a quarantined point.
    pub results: Vec<Option<RunStats>>,
    /// Points that failed, in input order.
    pub quarantined: Vec<QuarantineRecord>,
}

impl SweepOutcome {
    /// Every point's statistics, input order.
    ///
    /// # Panics
    ///
    /// Panics — naming every quarantined point — if any point failed. The
    /// sweep has run to completion by then, so the panic reports every
    /// failing point, not just the first.
    #[must_use]
    pub fn unwrap_all(self) -> Vec<RunStats> {
        if !self.quarantined.is_empty() {
            let list: Vec<String> = self.quarantined.iter().map(ToString::to_string).collect();
            panic!(
                "sweep completed with {} unrecovered point(s):\n  {}",
                self.quarantined.len(),
                list.join("\n  ")
            );
        }
        self.results.into_iter().map(|r| r.expect("no quarantines, so every slot is filled")).collect()
    }
}

// ---------------------------------------------------------------------------
// The session
// ---------------------------------------------------------------------------

/// Everything one sweep configures and accumulates: the result store
/// opened on its cache directory; the point threads, shard domains, chaos,
/// check mode and progress sink it runs with; and the counters,
/// timings, registry, phase profile and recovery log of the points it ran.
///
/// Every lock in it is held for a bookkeeping step, never across a
/// simulation, so the workers of [`SweepSession::run_points`] (or of a
/// `dcl1d` pool sharing one session) simulate concurrently.
#[expect(missing_debug_implementations, reason = "a store of results, nothing to print")]
pub struct SweepSession {
    tiers: StoreConfig,
    /// Opened from `tiers` on first use, so a session that runs no point
    /// never touches its directory.
    store: OnceLock<ResultStore<RunStats>>,
    /// Point threads for [`SweepSession::run_points`]; 0 = one per core.
    workers: AtomicUsize,
    /// Execution domains asked of every machine.
    shards: AtomicUsize,
    /// Run under [`dcl1::GpuSystem::enable_check`], bypassing the store.
    check: bool,
    chaos: Option<Chaos>,
    progress: Mutex<Option<Arc<ProgressSink>>>,
    simulated: AtomicU64,
    sim_cycles: AtomicU64,
    wall_nanos: AtomicU64,
    /// Largest domain count any simulated point ran with.
    shards_max: AtomicU64,
    timings: Mutex<Vec<PointTiming>>,
    registry: Mutex<SweepRegistry>,
    profiler: Mutex<PhaseProfiler>,
    recovery: Mutex<RecoveryLog>,
}

impl SweepSession {
    /// A session whose disk tier lives under `dir` (in its
    /// schema-versioned `v<N>` subdirectory; stale siblings are purged
    /// when the store opens, at first use),
    /// with one domain per machine, one point thread per core, and no
    /// chaos, check mode or progress sink.
    #[must_use]
    pub fn open(dir: &Path) -> SweepSession {
        let tiers = StoreConfig {
            mem_budget_bytes: MEM_BUDGET_BYTES,
            mem_shards: MEM_SHARDS,
            disk: Some(DiskTierConfig {
                root: versioned_cache_dir(dir),
                budget_bytes: None,
                migrate_flat: false,
                purge_stale_siblings: true,
            }),
            shared: None,
            shared_writeback: false,
        };
        SweepSession {
            tiers,
            store: OnceLock::new(),
            workers: AtomicUsize::new(0),
            shards: AtomicUsize::new(1),
            check: false,
            chaos: None,
            progress: Mutex::default(),
            simulated: AtomicU64::new(0),
            sim_cycles: AtomicU64::new(0),
            wall_nanos: AtomicU64::new(0),
            shards_max: AtomicU64::new(0),
            timings: Mutex::default(),
            registry: Mutex::new(SweepRegistry::new(Registry::new())),
            profiler: Mutex::new(PhaseProfiler::new()),
            recovery: Mutex::new(RecoveryLog::new()),
        }
    }

    /// A session on the host's cache: `$DCL1_CACHE_DIR`, else
    /// `target/dcl1-cache/` in the workspace.
    #[must_use]
    pub fn from_env() -> SweepSession {
        SweepSession::open(&host_cache_dir())
    }

    /// Runs [`SweepSession::run_points`] on `workers` threads (0 = one per
    /// core).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> SweepSession {
        *self.workers.get_mut() = workers;
        self
    }

    /// Partitions every machine into `shards` execution domains (the
    /// machine may clamp it — see [`dcl1::GpuSystem::set_shards`]).
    /// Statistics are byte-identical at any count, and the domains step
    /// one after another on the point's thread.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> SweepSession {
        *self.shards.get_mut() = shards.max(1);
        self
    }

    /// Runs every point under the machine's conservation-invariant
    /// harness, which panics on any violation. Checked runs bypass the
    /// store in both directions; their statistics are byte-identical.
    #[must_use]
    pub(crate) fn with_check(mut self, check: bool) -> SweepSession {
        self.check = check;
        self
    }

    /// Arms deterministic fault injection for every point; see
    /// [`dcl1_resilience::Chaos`] for the fault classes. The same seed
    /// faults the same points every run.
    #[must_use]
    pub fn with_chaos(mut self, seed: Option<u64>) -> SweepSession {
        self.chaos = seed.map(Chaos::new);
        self
    }

    fn store(&self) -> &ResultStore<RunStats> {
        self.store.get_or_init(|| ResultStore::open(&self.tiers, StatsCodec))
    }

    /// Attaches (or with `None` detaches) the streaming progress sink every
    /// later run of this session reports lifecycle events to: one JSONL
    /// line per queued/started/progress/quarantined/completed
    /// transition, flushed as it happens.
    pub fn set_progress_sink(&self, sink: Option<Arc<ProgressSink>>) {
        *self.progress.lock().expect("progress lock") = sink;
    }

    /// The point-thread count [`SweepSession::run_points`] uses: the one
    /// asked for, else the number of cores this process may run on (1 when
    /// the host will not say).
    pub fn workers(&self) -> usize {
        match self.workers.load(Ordering::Relaxed) {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            n => n,
        }
    }

    // -- what the session accumulated -------------------------------------

    /// The session's sweep-throughput counters.
    pub fn memo_stats(&self) -> MemoStats {
        let s: StoreStats = self.store().stats();
        MemoStats {
            mem_hits: s.mem_hits,
            disk_hits: s.disk_hits,
            misses: s.misses,
            simulated: self.simulated.load(Ordering::Relaxed),
            mem_evictions: s.mem_evictions,
            mem_bytes: s.mem_bytes,
            disk_bytes: s.disk_bytes,
            flight_waits: s.flight_waits,
            sim_cycles: self.sim_cycles.load(Ordering::Relaxed),
            wall_nanos: self.wall_nanos.load(Ordering::Relaxed),
        }
    }

    /// Per-point timing records for every point this session simulated.
    pub fn point_timings(&self) -> Vec<PointTiming> {
        self.timings.lock().expect("timings lock").clone()
    }

    /// The end-of-sweep throughput table the bench binaries print: total
    /// simulated cycles, wall time, aggregate simulation speed, and how
    /// many points the memo layers absorbed.
    pub fn throughput_summary(&self) -> crate::Table {
        let m = self.memo_stats();
        let wall = m.wall_nanos as f64 / 1e9;
        let khz = if wall > 0.0 { m.sim_cycles as f64 / wall / 1e3 } else { 0.0 };
        let mut t = crate::Table::new("Sweep throughput", &["metric", "value"]);
        t.row("points simulated", vec![m.simulated.to_string()]);
        t.row("points from memo (RAM)", vec![m.mem_hits.to_string()]);
        t.row("points from memo (disk)", vec![m.disk_hits.to_string()]);
        t.row("memo evictions (RAM)", vec![m.mem_evictions.to_string()]);
        t.row("memo hit rate", vec![format!("{:.1}%", 100.0 * m.hit_rate())]);
        t.row("sim-cycles", vec![m.sim_cycles.to_string()]);
        t.row("sim wall seconds", vec![format!("{wall:.2}")]);
        t.row("sim speed (KHz)", vec![format!("{khz:.0}")]);
        t
    }

    /// A deterministic snapshot of the session's counter registry: every
    /// subsystem namespace summed over the points it actually simulated
    /// (store hits contribute nothing — their machines never ran), plus
    /// the live `memo.*` tier counters, byte gauges, and lookup/fill
    /// latency histograms. This is the fragment `BENCH_sweep.json` embeds.
    #[must_use]
    pub fn registry_snapshot(&self) -> Registry {
        let m = self.memo_stats();
        let log = self.recovery_log();
        let mut state = self.registry.lock().expect("sweep registry lock");
        let counters = [
            (state.mem_hits, m.mem_hits),
            (state.disk_hits, m.disk_hits),
            (state.misses, m.misses),
            (state.simulated, m.simulated),
            (state.mem_evictions, m.mem_evictions),
            (state.flight_waits, m.flight_waits),
            (state.cache_corruptions, log.cache_corruptions),
            (state.quarantined_points, log.quarantines),
        ];
        for (id, v) in counters {
            state.reg.set_counter(id, v);
        }
        let gauges = [(state.mem_bytes, m.mem_bytes), (state.disk_bytes, m.disk_bytes)];
        for (id, v) in gauges {
            state.reg.set(id, v);
        }
        state.reg.clone()
    }

    /// Machine pipeline regions summed over every point the session
    /// simulated, plus the runner's own memo-cache I/O time.
    #[must_use]
    pub fn phase_profile(&self) -> PhaseProfiler {
        *self.profiler.lock().expect("sweep profiler lock")
    }

    /// A snapshot of the session's recovery ledger: quarantines,
    /// cache corruptions, watchdog firings. All zeros
    /// unless something actually went wrong.
    pub fn recovery_log(&self) -> RecoveryLog {
        self.recovery.lock().expect("recovery lock").clone()
    }

    /// The session's sharding diagnostics.
    pub fn shard_stats(&self) -> ShardSweepStats {
        ShardSweepStats { shards: self.shards_max.load(Ordering::Relaxed), barrier_wait_nanos: 0 }
    }

    // -- running points ---------------------------------------------------

    /// Runs one point under full supervision on the *current* thread, with
    /// `scope`'s chaos seed and deadline applying to this point alone.
    /// Returns the statistics and the tier that served them.
    ///
    /// # Errors
    ///
    /// The [`QuarantineRecord`] of a point that failed.
    pub fn run_point(
        &self,
        req: &RunRequest,
        scale: Scale,
        scope: TenantScope,
    ) -> Result<Served, QuarantineRecord> {
        self.supervise_point(req, scale, scope)
    }

    /// The statistics the memory tier already holds for `req`, counted as a
    /// mem hit: what [`SweepSession::run_point`] would return from that
    /// tier, without running, emitting or touching a disk. `None` on a
    /// miss, and always under `--check` or when chaos is armed for the
    /// point, where a run must actually happen.
    pub fn lookup_memo(
        &self,
        req: &RunRequest,
        scale: Scale,
        scope: TenantScope,
    ) -> Option<Arc<RunStats>> {
        if self.check || self.chaos_for(scope).is_some() {
            return None;
        }
        self.store().peek_mem(memo_key(req, scale))
    }

    /// Runs many points across [`SweepSession::workers`] threads under full
    /// supervision: each point runs once behind panic containment, and a
    /// point that fails (a panic, a watchdog livelock) is quarantined —
    /// recorded in the outcome while the rest of the sweep completes.
    /// Input order is preserved in the output.
    pub fn run_points(&self, reqs: &[RunRequest], scale: Scale) -> SweepOutcome {
        self.sweep(reqs, scale, self.workers())
    }

    fn sweep(&self, reqs: &[RunRequest], scale: Scale, workers: usize) -> SweepOutcome {
        let scope = TenantScope::default();
        let results: Vec<Mutex<Option<RunStats>>> = reqs.iter().map(|_| Mutex::new(None)).collect();
        let quarantined: Mutex<Vec<(usize, QuarantineRecord)>> = Mutex::new(Vec::new());
        let next = AtomicUsize::new(0);
        for req in reqs {
            self.emit(&ProgressEvent::new(ProgressStage::Queued, &point_label(req)));
        }
        std::thread::scope(|s| {
            for _ in 0..workers.max(1).min(reqs.len().max(1)) {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = reqs.get(i) else { break };
                    match self.supervise_point(req, scale, scope) {
                        Ok(served) => {
                            *results[i].lock().expect("result lock") =
                                Some(Arc::unwrap_or_clone(served.stats));
                        }
                        Err(record) => quarantined.lock().expect("quarantine lock").push((i, record)),
                    }
                });
            }
        });
        let mut quarantined = quarantined.into_inner().expect("quarantine lock");
        quarantined.sort_by_key(|(i, _)| *i);
        SweepOutcome {
            results: results.into_iter().map(|m| m.into_inner().expect("result lock")).collect(),
            quarantined: quarantined.into_iter().map(|(_, r)| r).collect(),
        }
    }

    /// The chaos engine a point runs under: its tenant's, else the
    /// session's.
    fn chaos_for(&self, scope: TenantScope) -> Option<Chaos> {
        scope.chaos.map(Chaos::new).or(self.chaos)
    }

    /// Shared per-point supervision wiring: started event, one contained
    /// run (two under `--check` when the first fails), and the quarantine's
    /// recovery-log accounting.
    fn supervise_point(
        &self,
        req: &RunRequest,
        scale: Scale,
        scope: TenantScope,
    ) -> Result<Served, QuarantineRecord> {
        let point = point_label(req);
        self.emit(&ProgressEvent::new(ProgressStage::Started, &point));
        let run = || self.attempt(req, scale, scope);
        // A checked run bypasses the store, so the rerun simulates again.
        let outcome = contain(&point, run).map_err(|first| {
            if self.check {
                rerun_verdict(first, contain(&point, run))
            } else {
                first
            }
        });
        if let Err(record) = &outcome {
            self.record_quarantine(record);
        }
        outcome
    }

    /// Runs a point once, memoized in the session's store (see the module
    /// docs).
    ///
    /// Fails with [`SimError::Config`] when the design does not resolve,
    /// and [`SimError::Livelock`] / [`SimError::Deadline`] when the armed
    /// watchdog aborts the run. Cache corruption never surfaces here: a
    /// corrupt entry is quarantined, recorded in the recovery log, and the
    /// point is recomputed.
    fn attempt(
        &self,
        req: &RunRequest,
        scale: Scale,
        scope: TenantScope,
    ) -> Result<Served, SimError> {
        let point = point_label(req);
        let chaos = self.chaos_for(scope);
        if chaos.is_some_and(|c| c.should_panic(&point)) {
            panic!("chaos: injected worker panic at {point}");
        }
        // A stalled point hangs whatever the store holds, so it simulates.
        let stall = chaos.is_some_and(|c| c.should_stall(&point));
        let key = memo_key(req, scale);
        // Checked mode bypasses the memo in both directions: the point of
        // `--check` is to actually execute the machine under its invariant
        // harness, and a checked run must not be served from (or poison) the
        // cache shared with unchecked runs — even though its stats are
        // required to be byte-identical.
        //
        // Everyone else loops lookup → claim: a tier hit (corruption degrades
        // to a miss in that tier) returns immediately; otherwise the thread
        // either becomes the single-flight leader for the key and falls
        // through to simulate, or waits for the current leader and re-checks
        // the tiers — a leader that died never strands its waiters, they just
        // elect a successor.
        let mut flight_guard = None;
        if !self.check && !stall {
            loop {
                if let Some(served) = self.store_lookup(&point, key) {
                    return Ok(served);
                }
                match self.store().begin_flight(key) {
                    Flight::Leader(guard) => {
                        // Leadership re-check: a prior leader may have filled
                        // the tiers between our miss and our claim, and the
                        // exactly-once contract demands we serve that hit
                        // rather than resimulate.
                        if let Some(served) = self.store_lookup(&point, key) {
                            return Ok(served);
                        }
                        flight_guard = Some(guard);
                        break;
                    }
                    Flight::Waited => {}
                }
            }
        }
        let start = Instant::now();
        let sink = self.progress.lock().expect("progress lock").clone();
        let (stats, wall, profile) =
            with_point(req, scale, self.shards.load(Ordering::Relaxed), |sys, total| {
                // Registry and profiler are pull-only diagnostics: statistics
                // are byte-identical with them on (the determinism suite pins
                // this), so every supervised run carries them.
                sys.enable_registry();
                sys.enable_profiler();
                if let Some(sink) = sink {
                    let label = point.clone();
                    let total = total.max(1);
                    let hook_start = Instant::now();
                    sys.set_progress_hook(ProgressHook::new(move |cycle, retired| {
                        let secs = hook_start.elapsed().as_secs_f64();
                        let khz = if secs > 0.0 { cycle as f64 / secs / 1e3 } else { 0.0 };
                        let ev = ProgressEvent::new(ProgressStage::Progress, &label)
                            .pct((100 * retired / total).min(100))
                            .cycles(cycle)
                            .khz(khz);
                        sink.emit(&ev);
                    }));
                }
                if self.check {
                    sys.enable_check();
                }
                if let Some(secs) = scope.deadline_secs.filter(|&s| s > 0) {
                    sys.set_deadline_secs(secs);
                }
                if stall {
                    // Freeze progress mid-run and tighten the epoch so the
                    // watchdog converts the hang into a livelock within
                    // milliseconds instead of the default ~1M cycles.
                    sys.inject_stall_from(CHAOS_STALL_CYCLE);
                    sys.set_watchdog(CHAOS_STALL_EPOCH);
                }
                let stats = sys.run_result()?;
                let wall = start.elapsed();
                self.shards_max.fetch_max(sys.shards() as u64, Ordering::Relaxed);
                let profile = sys.take_profiler().unwrap_or_default();
                if let Some(mm) = sys.take_metrics() {
                    self.registry.lock().expect("sweep registry lock").reg.absorb(mm.registry());
                }
                Ok((stats, wall, profile))
            })?;
        self.profiler.lock().expect("sweep profiler lock").absorb(&profile);

        self.simulated.fetch_add(1, Ordering::Relaxed);
        self.sim_cycles.fetch_add(stats.cycles, Ordering::Relaxed);
        let wall_nanos = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
        self.wall_nanos.fetch_add(wall_nanos, Ordering::Relaxed);
        let timing = PointTiming {
            app: req.app.name,
            design: stats.design.clone(),
            sim_cycles: stats.cycles,
            wall_seconds: wall.as_secs_f64(),
            profile,
        };
        let done = ProgressEvent::new(ProgressStage::Completed, &point)
            .source("simulated")
            .cycles(stats.cycles)
            .khz(timing.khz());
        self.emit(&done);
        self.timings.lock().expect("timings lock").push(timing);

        let stats = Arc::new(stats);
        if !self.check {
            let t_fill = Instant::now();
            self.store().insert_arc(key, Arc::clone(&stats));
            let fill_nanos = u64::try_from(t_fill.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let mut state = self.registry.lock().expect("sweep registry lock");
            let id = state.fill_nanos;
            state.reg.observe(id, fill_nanos);
            drop(state);
            self.note_phase(Phase::CacheIo, fill_nanos);
            if let Some(c) = &chaos {
                if c.should_corrupt(&point) {
                    // Damage the entry we just wrote, then read it back: the
                    // checksum rejects it, the file is quarantined, and the
                    // clean result is re-persisted — the full corruption
                    // recovery path, exercised in-sweep.
                    self.chaos_corrupt_disk_entry(c, &point, key);
                    let mut corruptions = Vec::new();
                    if let DiskReload::Corrupt(c) = self.store().reload_disk(key, &mut corruptions) {
                        self.record_cache_corruption(&point, &c.path, &c.reason);
                        self.store().store_disk(key, &stats);
                    }
                }
            }
        }
        // Release single-flight leadership only after the tiers hold the
        // result, so a woken waiter's re-lookup always hits.
        drop(flight_guard);
        Ok(Served { stats, source: "simulated" })
    }

    /// One pass through the store tiers for `point`/`key`: records
    /// corruption reports, latency histograms, and phase attribution, and
    /// emits the completion progress event on a hit. A hit returns the
    /// store's own `Arc`.
    fn store_lookup(&self, point: &str, key: u128) -> Option<Served> {
        let mut corruptions: Vec<Corruption> = Vec::new();
        let lookup = self.store().lookup(key, &mut corruptions);
        for c in &corruptions {
            // Already quarantined by the store; surface it in the recovery
            // ledger — corruption degrades to a miss, never an error.
            self.record_cache_corruption(point, &c.path, &c.reason);
        }
        let mut state = self.registry.lock().expect("sweep registry lock");
        let (id_mem, id_disk) = (state.mem_lookup_nanos, state.disk_lookup_nanos);
        state.reg.observe(id_mem, lookup.mem_nanos);
        if let Some(n) = lookup.disk_nanos {
            state.reg.observe(id_disk, n);
        }
        drop(state);
        if let Some(n) = lookup.disk_nanos {
            self.note_phase(Phase::CacheIo, n);
        }
        let (stats, tier) = lookup.hit?;
        let done = ProgressEvent::new(ProgressStage::Completed, point)
            .source(tier.name())
            .cycles(stats.cycles);
        self.emit(&done);
        Some(Served { stats, source: tier.name() })
    }

    // -- bookkeeping ------------------------------------------------------

    fn emit(&self, ev: &ProgressEvent<'_>) {
        let sink = self.progress.lock().expect("progress lock").clone();
        if let Some(sink) = sink {
            sink.emit(ev);
        }
    }

    fn note_phase(&self, phase: Phase, nanos: u64) {
        self.profiler.lock().expect("sweep profiler lock").add(phase, nanos);
    }

    fn record_quarantine(&self, rec: &QuarantineRecord) {
        let mut log = self.recovery.lock().expect("recovery lock");
        log.quarantines += 1;
        match rec.class.as_str() {
            "livelock" => log.livelocks += 1,
            "deadline" => log.deadlines += 1,
            _ => {}
        }
        let line = rec.to_string();
        log.note(line.clone());
        drop(log);
        self.emit(&ProgressEvent::new(ProgressStage::Quarantined, &rec.point).detail(&line));
    }

    fn record_cache_corruption(&self, point: &str, path: &str, reason: &str) {
        let mut log = self.recovery.lock().expect("recovery lock");
        log.cache_corruptions += 1;
        log.note(format!("cache entry for {point} quarantined ({reason}): {path}"));
    }

    /// Damages the on-disk cache entry for `key` the way `chaos` dictates
    /// for `point` — called right after a store so the corruption-recovery
    /// path (checksum reject → quarantine → recompute/re-store) runs
    /// in-sweep. The entry lives in its two-hex-digit bucket under the
    /// disk tier.
    fn chaos_corrupt_disk_entry(&self, chaos: &Chaos, point: &str, key: u128) {
        let Some(path) = self.store().disk_entry_path(key) else { return };
        let Ok(mut bytes) = std::fs::read(&path) else { return };
        chaos.corrupt(point, &mut bytes);
        let _ = std::fs::write(&path, bytes);
    }
}

// ---------------------------------------------------------------------------
// Runs outside every store
// ---------------------------------------------------------------------------

/// Builds the machine of one point and hands it to `run` with the scaled
/// kernel's instruction count — the only place a run's machine is built:
/// the app scaled, caches warmed over the first third of the kernel
/// (standard methodology; keeps short scaled runs from being dominated by
/// cold misses) unless the request sets its own warm-up, `shards`
/// execution domains, and the progress watchdog armed (it only reads
/// gauges, so statistics do not change).
///
/// Sessions call it to simulate; called directly, it runs outside every
/// store — what an observed run (`--trace` / `--metrics`, whose output is
/// a side effect of actually simulating) and `dbg` need.
///
/// # Errors
///
/// Returns [`SimError::Config`] when the design fails to resolve, and
/// whatever `run` returns.
pub fn with_point<T>(
    req: &RunRequest,
    scale: Scale,
    shards: usize,
    run: impl FnOnce(&mut GpuSystem<'_>, u64) -> Result<T, SimError>,
) -> Result<T, SimError> {
    let (num, den) = scale.ratio();
    let app = req.app.scaled(num, den);
    let mut opts = req.opts;
    if opts.warmup_instructions == 0 {
        opts.warmup_instructions = app.total_instructions() / 3;
    }
    let mut sys = GpuSystem::build(&req.cfg, &req.design, &app, opts)
        .map_err(|e| SimError::Config(format!("{}: {e}", req.design.name())))?;
    sys.set_shards(shards);
    sys.set_watchdog(dcl1::DEFAULT_WATCHDOG_EPOCH);
    run(&mut sys, app.total_instructions())
}

/// Renders completed points as one canonical, byte-stable document: each
/// `(label, stats)` pair sorted by label, serialized exactly as the disk
/// cache serializes stats (f64 as bit patterns). Two sweeps over the same
/// points produced identical statistics iff their dumps are byte-equal —
/// the artifact `crates/bench/tests/resilience.rs` (a killed and rerun
/// sweep, a chaos sweep) and `scripts/ci.sh release-digests` diff. Order
/// and framing are [`ResultLedger`]'s.
#[must_use]
pub fn canonical_stats_dump(points: &[(String, RunStats)]) -> String {
    ResultLedger::of(points).dump()
}

/// The FNV-1a digest of [`canonical_stats_dump`], as fixed-width hex —
/// what `BENCH_sweep.json` records so two runs can be compared without
/// keeping both dumps.
#[must_use]
pub fn stats_digest(points: &[(String, RunStats)]) -> String {
    ResultLedger::of(points).digest()
}

// ---------------------------------------------------------------------------
// The process session, for `benchmark/`
// ---------------------------------------------------------------------------

/// The process session, opened [`SweepSession::from_env`] on first use.
/// It exists because `benchmark/src/{child,layers,micro}.rs`, which cannot
/// change before the ledger's own PR, drive a sweep or `dcl1d`'s
/// `Server::launch` and then read the counters back in the same process,
/// through the one-line delegations below. Nothing else calls them.
pub fn process_session() -> &'static Arc<SweepSession> {
    static PROCESS: OnceLock<Arc<SweepSession>> = OnceLock::new();
    PROCESS.get_or_init(|| Arc::new(SweepSession::from_env()))
}

// The tier that served this thread's last `run_point_supervised`: it exists
// because `benchmark/src/micro.rs` reads it back through `take_last_source`.
thread_local!(static LAST_SOURCE: Cell<Option<&'static str>> = const { Cell::new(None) });

/// For `benchmark/src/child.rs`: [`SweepSession::run_points`] on the
/// process session, on `workers` threads.
pub fn run_apps_supervised(reqs: &[RunRequest], scale: Scale, workers: usize) -> SweepOutcome {
    process_session().sweep(reqs, scale, workers)
}

/// For `benchmark/src/micro.rs`: [`SweepSession::run_point`] on the
/// process session, the serving tier kept for [`take_last_source`].
pub fn run_point_supervised(req: &RunRequest, scale: Scale) -> Result<RunStats, QuarantineRecord> {
    let out = process_session().run_point(req, scale, TenantScope::default());
    LAST_SOURCE.set(out.as_ref().ok().map(|s| s.source));
    out.map(|s| Arc::unwrap_or_clone(s.stats))
}

/// For `benchmark/src/child.rs`: one unsupervised run on the process
/// session, panicking if it fails.
pub fn run_app(req: &RunRequest, scale: Scale) -> RunStats {
    let out = process_session().attempt(req, scale, TenantScope::default());
    out.map_or_else(|e| panic!("{e}"), |s| Arc::unwrap_or_clone(s.stats))
}

/// For `benchmark/src/micro.rs`: the tier that served this thread's last
/// [`run_point_supervised`], clearing the slot.
pub fn take_last_source() -> Option<&'static str> {
    LAST_SOURCE.take()
}

/// For `benchmark/src/{child,layers}.rs`: [`SweepSession::memo_stats`].
pub fn memo_stats() -> MemoStats {
    process_session().memo_stats()
}

/// For `benchmark/src/layers.rs`: [`SweepSession::recovery_log`].
pub fn recovery_log() -> RecoveryLog {
    process_session().recovery_log()
}

/// For `benchmark/src/layers.rs`: [`SweepSession::phase_profile`].
#[must_use]
pub fn sweep_phase_profile() -> PhaseProfiler {
    process_session().phase_profile()
}

/// For `benchmark/src/{layers,micro}.rs`: [`SweepSession::registry_snapshot`].
#[must_use]
pub fn sweep_registry_snapshot() -> Registry {
    process_session().registry_snapshot()
}

/// For `benchmark/src/{child,layers}.rs`: [`SweepSession::shard_stats`].
pub fn shard_sweep_stats() -> ShardSweepStats {
    process_session().shard_stats()
}

/// For `benchmark/src/child.rs`: [`SweepSession::with_shards`] on the
/// process session (`0` means one domain).
pub fn set_shard_override(shards: usize) {
    process_session().shards.store(shards.max(1), Ordering::Relaxed);
}

/// For `benchmark/src/child.rs`: [`SweepSession::with_workers`] on the
/// process session (`0` means one per core).
pub fn set_worker_override(workers: usize) {
    process_session().workers.store(workers, Ordering::Relaxed);
}

/// For `benchmark/src/child.rs`: [`SweepSession::workers`].
pub fn effective_workers() -> usize {
    process_session().workers()
}

/// For `benchmark/src/child.rs`: [`SweepSession::set_progress_sink`].
pub fn set_progress_sink(sink: Option<Arc<ProgressSink>>) {
    process_session().set_progress_sink(sink);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcl1_resilience::supervisor::panic_message;
    use dcl1_workloads::by_name;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// An empty directory of this test's own.
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dcl1-runner-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn scale_ratios() {
        assert_eq!(Scale::Full.ratio(), (1, 1));
        assert_eq!(Scale::Smoke.ratio(), (1, 16));
    }

    #[test]
    fn scale_parsing_rejects_what_it_does_not_know() {
        assert_eq!("full".parse(), Ok(Scale::Full));
        assert_eq!("quarter".parse(), Ok(Scale::Quarter));
        assert_eq!("Smoke".parse(), Ok(Scale::Smoke));
        for typo in ["smok", "1/16", "", " smoke", "smoke,full"] {
            let err = typo.parse::<Scale>().expect_err(typo);
            assert!(
                ["full", "quarter", "smoke"].iter().all(|ok| err.contains(ok)),
                "{typo:?}: {err}"
            );
        }
    }

    #[test]
    fn parallel_runner_preserves_order() {
        let dir = scratch("order");
        let app = by_name("C-BLK").unwrap();
        let reqs = vec![
            RunRequest::new(app, Design::Baseline),
            RunRequest::new(app, Design::Private { nodes: 40 }),
        ];
        let out = SweepSession::open(&dir).run_points(&reqs, Scale::Smoke).unwrap_all();
        assert_eq!(out[0].design, "Baseline");
        assert_eq!(out[1].design, "Pr40");
        assert!(out.iter().all(|s| s.instructions > 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_panic_names_the_failing_point() {
        let dir = scratch("panic");
        let session = SweepSession::open(&dir);
        let app = by_name("C-BLK").unwrap();
        // An invalid node count fails Design::topology at build time.
        let bad = RunRequest::new(app, Design::Shared { nodes: 77 });
        #[expect(clippy::disallowed_methods, reason = "the test asserts that the panic propagates")]
        let err = catch_unwind(AssertUnwindSafe(|| {
            session.run_points(&[bad], Scale::Smoke).unwrap_all()
        }))
        .expect_err("must propagate the worker panic");
        let msg = panic_message(err.as_ref());
        assert!(msg.contains("C-BLK"), "missing app name: {msg}");
        assert!(msg.contains("Sh77"), "missing design name: {msg}");
        assert_eq!(session.recovery_log().quarantines, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memo_names_collide_with_no_machine_namespace() {
        // The sweep registry absorbs machine registries by name, so a
        // `memo.*` name a machine also registers would be summed silently.
        // In one registry, registration panics on the shared name instead.
        let _ = SweepRegistry::new(dcl1::MachineMetrics::new().registry().clone());
    }

    #[test]
    fn memo_key_is_pinned() {
        // Every stored result is filed under this hash: if it moves, the
        // whole store is orphaned without an error. A deliberate change
        // bumps CACHE_SCHEMA_VERSION and this pin together.
        let req = RunRequest::new(by_name("C-BLK").unwrap(), Design::Baseline);
        assert_eq!(memo_key_hex(&req, Scale::Smoke), "04782f8fa19b17f2213abf0264080a01");
    }

    #[test]
    fn memo_key_distinguishes_points() {
        let app = by_name("C-BLK").unwrap();
        let a = RunRequest::new(app, Design::Baseline);
        let b = RunRequest::new(app, Design::Private { nodes: 40 });
        assert_ne!(memo_key(&a, Scale::Smoke), memo_key(&b, Scale::Smoke));
        assert_ne!(memo_key(&a, Scale::Smoke), memo_key(&a, Scale::Quarter));
        assert_eq!(memo_key(&a, Scale::Smoke), memo_key(&a, Scale::Smoke));
    }

    #[test]
    fn stats_roundtrip_is_bit_identical() {
        let s = RunStats {
            design: "Sh40+C10+Boost".to_string(),
            cycles: 123_456,
            instructions: 789,
            l1_accesses: 10,
            l1_hits: 7,
            l1_misses: 3,
            l1_replicated_misses: 1,
            mean_replicas: 1.234_567_890_123,
            max_port_utilization: 0.1 + 0.2, // deliberately non-representable
            mean_port_utilization: f64::MIN_POSITIVE,
            max_reply_link_utilization: 0.999,
            mean_load_rtt: 312.25,
            p50_load_rtt: 300,
            p95_load_rtt: 400,
            p99_load_rtt: 500,
            l2_accesses: 9,
            l2_misses: 4,
            dram_requests: 4,
            dram_row_hit_rate: 0.75,
            noc_flits: vec![1, 2, 3],
            per_node_accesses: vec![4, 5],
            stall_drained: 11,
            stall_alu_busy: 22,
            stall_fill_wait: 33,
            stall_mem_outbox: 44,
            stall_mem_l1_queue: 55,
            stall_mem_noc: 66,
            l1_mshr_stall_cycles: 77,
            l1_queue_stall_cycles: 88,
        };
        let back = deserialize_stats(&serialize_stats(&s)).expect("parse");
        assert_eq!(back, s);
        // Truncated files are rejected, not half-parsed.
        let text = serialize_stats(&s);
        let truncated = &text[..text.len() / 2];
        assert!(deserialize_stats(truncated).is_none());
    }

    #[test]
    fn stats_schema_is_pinned_to_its_version() {
        // Renaming, adding, dropping or reordering a serialised key changes
        // what old entries mean: bump CACHE_SCHEMA_VERSION, then this pin.
        let keys = stats_fields(&mut RunStats::default()).map(|(key, _)| key).join(" ");
        assert_eq!(CACHE_SCHEMA_VERSION, 3);
        assert_eq!(
            keys,
            "cycles instructions l1_accesses l1_hits l1_misses l1_replicated_misses \
             mean_replicas max_port_utilization mean_port_utilization max_reply_link_utilization \
             mean_load_rtt p50_load_rtt p95_load_rtt p99_load_rtt l2_accesses l2_misses \
             dram_requests dram_row_hit_rate noc_flits per_node_accesses stall_drained \
             stall_alu_busy stall_fill_wait stall_mem_outbox stall_mem_l1_queue stall_mem_noc \
             l1_mshr_stall_cycles l1_queue_stall_cycles design"
        );
    }

    #[test]
    fn a_body_missing_a_key_is_rejected_even_at_the_right_line_count() {
        let good = serialize_stats(&RunStats { cycles: 7, instructions: 9, ..RunStats::default() });
        // `cycles` twice, `instructions` never: still 29 lines.
        let doctored = good.replace("instructions 9\n", "cycles 7\n");
        assert_eq!(doctored.lines().count(), good.lines().count());
        assert!(deserialize_stats(&good).is_some());
        assert!(deserialize_stats(&doctored).is_none());
    }

    #[test]
    fn stats_codec_round_trips_through_the_store_boundary() {
        // Entry framing (checksum header, quarantine, fan-out) lives in
        // `dcl1-store`; what this file owns is the codec the store calls
        // across that boundary.
        let stats = RunStats { design: "Baseline".to_string(), cycles: 42, ..RunStats::default() };
        let body = StatsCodec.encode(&stats);
        assert_eq!(StatsCodec.decode(&body).unwrap(), stats);
        // Truncation (a torn write, a short read) must not parse.
        assert!(StatsCodec.decode(&body[..body.len() / 2]).is_none());
    }

    #[test]
    fn canonical_dump_is_sorted_and_digest_is_stable() {
        let a = ("B-APP/Pr4".to_string(), RunStats { cycles: 2, ..RunStats::default() });
        let b = ("A-APP/Sh16".to_string(), RunStats { cycles: 1, ..RunStats::default() });
        let d1 = canonical_stats_dump(&[a.clone(), b.clone()]);
        let d2 = canonical_stats_dump(&[b.clone(), a.clone()]);
        assert_eq!(d1, d2, "dump must not depend on completion order");
        assert!(d1.find("A-APP").unwrap() < d1.find("B-APP").unwrap());
        assert_eq!(stats_digest(&[a.clone(), b.clone()]), stats_digest(&[b, a]));
    }

    #[test]
    fn stale_schema_dirs_are_ignored() {
        // The active directory carries the current schema version…
        let base = PathBuf::from("/some/cache/base");
        assert_eq!(versioned_cache_dir(&base), base.join(format!("v{CACHE_SCHEMA_VERSION}")));

        // …so an entry persisted under a stale sibling (a previous
        // schema's v1/) can never satisfy a lookup, even for the same key
        // — and the store's open pass deletes such siblings outright
        // (covered in `dcl1-store`'s purge test). Even a direct read
        // of a stale payload fails the field-count guard rather than
        // half-parsing.
        let pre_v2 = "cycles 1\ninstructions 2\ndesign Baseline\n";
        assert!(deserialize_stats(pre_v2).is_none());
    }
}
