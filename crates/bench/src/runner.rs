//! Simulation execution: single runs and supervised parallel sweeps.
//!
//! Results are memoized in a tiered [`dcl1_store::ResultStore`], keyed by
//! a structured hash of the full (app, design, config, options, scale)
//! point: a sharded in-memory LRU of 256 MiB, an unbounded fan-out
//! checksummed disk tier under `target/dcl1-cache/` (or `DCL1_CACHE_DIR`),
//! and an optional shared read-through, write-back tier
//! (`DCL1_CACHE_SHARED_DIR`). Experiment modules that
//! share points (e.g. every figure's baseline runs) pay for them once per
//! machine — or, with a shared tier, once per fleet. Concurrent requests
//! for the same uncomputed key are deduplicated by per-key single-flight:
//! one thread simulates, the rest wait and read the published result.
//!
//! Sweeps run under supervision ([`run_apps_supervised`]): each point is
//! executed behind panic containment with retry-and-deterministic-backoff
//! ([`dcl1_resilience::supervise`]), hangs are converted into structured
//! livelock/deadline errors by the machine's progress watchdog, and a point
//! that exhausts its retry budget is *quarantined* — reported in the sweep
//! outcome while every other point completes. On-disk cache entries carry a
//! content checksum and are written via temp-file + atomic rename (safe for
//! concurrent writers); a corrupt entry is moved to a `quarantine/` subdir
//! and transparently recomputed. An optional append-only checkpoint journal
//! ([`set_journal`] / [`resume_from_journal`]) makes long sweeps resumable
//! after a kill, and deterministic fault injection ([`set_chaos`]) exists
//! to prove all of the above actually works.

use crate::ledger::ResultLedger;
use dcl1::{Design, GpuConfig, GpuSystem, ProgressHook, RunStats, SimError, SimOptions};
use dcl1_common::checksum::Fnv128;
use dcl1_common::journal;
use dcl1_obs::profiler::{Phase, PhaseProfiler};
use dcl1_obs::progress::{ProgressEvent, ProgressSink, ProgressStage};
use dcl1_obs::recovery::RecoveryLog;
use dcl1_obs::registry::{CounterId, GaugeId, HistogramId, Registry};
use dcl1_resilience::{
    supervise, Chaos, QuarantineRecord, RetryPolicy, SupervisionEvent,
};
use dcl1_store::{
    Codec, Corruption, DiskReload, DiskTierConfig, Flight, ResultStore, StoreConfig, StoreStats,
};
use dcl1_workloads::AppSpec;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::hash::Hash;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
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
/// under which its result is cached. Exposed so determinism tests can
/// assert that the shard count is *not* part of a point's identity (a
/// sharded and a sequential run of the same point must share one cache
/// entry, which is only sound because their stats are byte-identical).
pub fn memo_key_hex(req: &RunRequest, scale: Scale) -> String {
    format!("{:032x}", memo_key(req, scale))
}

// ---------------------------------------------------------------------------
// On-disk cache
// ---------------------------------------------------------------------------

/// Appends the schema-version component to a cache base directory.
/// Entries from other schema versions live in sibling `v<N>` directories
/// and are never read back — stale results cannot leak across a bump.
fn versioned_cache_dir(base: PathBuf) -> PathBuf {
    base.join(format!("v{CACHE_SCHEMA_VERSION}"))
}

/// Directory holding persisted results: `$DCL1_CACHE_DIR` if set, else
/// `target/dcl1-cache/v<schema>/` in the workspace.
#[expect(clippy::disallowed_methods, reason = "where the cache lives is the host's choice")]
pub fn disk_cache_dir() -> PathBuf {
    let base = std::env::var_os("DCL1_CACHE_DIR").map(PathBuf::from).unwrap_or_else(|| {
        std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| {
                PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target"))
            })
            .join("dcl1-cache")
    });
    versioned_cache_dir(base)
}

/// Deletes every persisted result (all schema versions).
pub fn clear_disk_cache() {
    if let Some(parent) = disk_cache_dir().parent() {
        let _ = std::fs::remove_dir_all(parent);
    }
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

/// The process-wide tiered result store, built lazily from the
/// environment on first memo use:
///
/// * mem tier — [`MEM_BUDGET_BYTES`];
/// * disk tier — [`disk_cache_dir`], unbounded, flat-layout entries
///   migrated and stale `v<N>` siblings purged on open;
/// * shared tier — `DCL1_CACHE_SHARED_DIR` (schema-versioned subdir is
///   appended), read-through with write-back. Never migrated or purged:
///   other hosts of the fleet may still be on an older schema.
#[expect(clippy::disallowed_methods, reason = "the shared tier's mount is the host's choice")]
fn store() -> &'static ResultStore<RunStats> {
    static STORE: std::sync::OnceLock<ResultStore<RunStats>> = std::sync::OnceLock::new();
    STORE.get_or_init(|| {
        let shared = std::env::var_os("DCL1_CACHE_SHARED_DIR").map(|dir| DiskTierConfig {
            root: versioned_cache_dir(PathBuf::from(dir)),
            budget_bytes: None,
            migrate_flat: false,
            purge_stale_siblings: false,
        });
        ResultStore::open(
            &StoreConfig {
                mem_budget_bytes: MEM_BUDGET_BYTES,
                mem_shards: MEM_SHARDS,
                disk: Some(DiskTierConfig {
                    root: disk_cache_dir(),
                    budget_bytes: None,
                    migrate_flat: true,
                    purge_stale_siblings: true,
                }),
                shared,
                shared_writeback: true,
            },
            StatsCodec,
        )
    })
}

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

/// Aggregate sweep-throughput counters for this process: the tier
/// breakdown of the result store plus the simulate-side totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemoStats {
    /// Points served from the in-memory LRU tier.
    pub mem_hits: u64,
    /// Points served from the local on-disk tier.
    pub disk_hits: u64,
    /// Points served from the shared read-through tier.
    pub shared_hits: u64,
    /// Lookups that fell through every tier.
    pub misses: u64,
    /// Points actually simulated.
    pub simulated: u64,
    /// In-memory entries evicted to stay under the byte budget.
    pub mem_evictions: u64,
    /// Disk entries evicted by the GC budget.
    pub disk_evictions: u64,
    /// Bytes held by the in-memory tier.
    pub mem_bytes: u64,
    /// Bytes held by the local disk tier.
    pub disk_bytes: u64,
    /// Threads that blocked behind another thread computing the same key.
    pub flight_waits: u64,
    /// Legacy flat-layout entries migrated into the fan-out at open.
    pub migrated_entries: u64,
    /// Core cycles across simulated points.
    pub sim_cycles: u64,
    /// Wall nanoseconds across simulated points.
    pub wall_nanos: u64,
}

impl MemoStats {
    /// Points served without simulating, across every tier.
    pub fn total_hits(&self) -> u64 {
        self.mem_hits + self.disk_hits + self.shared_hits
    }

    /// Fraction of accounted points served without simulating. Counts
    /// every tier (shared hits included — omitting them once let the
    /// printed rate exceed 100%) against hits + simulated points.
    pub fn hit_rate(&self) -> f64 {
        let total = self.total_hits() + self.simulated;
        if total == 0 {
            0.0
        } else {
            self.total_hits() as f64 / total as f64
        }
    }
}

static SIMULATED: AtomicU64 = AtomicU64::new(0);
static SIM_CYCLES: AtomicU64 = AtomicU64::new(0);
static WALL_NANOS: AtomicU64 = AtomicU64::new(0);

/// Returns this process's sweep-throughput counters.
pub fn memo_stats() -> MemoStats {
    let s: StoreStats = store().stats();
    MemoStats {
        mem_hits: s.mem_hits,
        disk_hits: s.disk_hits,
        shared_hits: s.shared_hits,
        misses: s.misses,
        simulated: SIMULATED.load(Ordering::Relaxed),
        mem_evictions: s.mem_evictions,
        disk_evictions: s.disk_evictions,
        mem_bytes: s.mem_bytes,
        disk_bytes: s.disk_bytes,
        flight_waits: s.flight_waits,
        migrated_entries: s.migrated_entries,
        sim_cycles: SIM_CYCLES.load(Ordering::Relaxed),
        wall_nanos: WALL_NANOS.load(Ordering::Relaxed),
    }
}

/// Per-point timing records for every point simulated by this process.
pub fn point_timings() -> Vec<PointTiming> {
    timings().lock().expect("timings lock").clone()
}

/// Builds the end-of-sweep throughput table the `experiments` binary
/// prints: total simulated cycles, wall time, aggregate simulation speed,
/// and how many points the memo layers absorbed.
pub fn throughput_summary() -> crate::Table {
    let m = memo_stats();
    let wall = m.wall_nanos as f64 / 1e9;
    let khz = if wall > 0.0 { m.sim_cycles as f64 / wall / 1e3 } else { 0.0 };
    let mut t = crate::Table::new("Sweep throughput", &["metric", "value"]);
    t.row("points simulated", vec![m.simulated.to_string()]);
    t.row("points from memo (RAM)", vec![m.mem_hits.to_string()]);
    t.row("points from memo (disk)", vec![m.disk_hits.to_string()]);
    t.row("points from memo (shared)", vec![m.shared_hits.to_string()]);
    t.row("memo evictions (RAM/disk)", vec![format!("{}/{}", m.mem_evictions, m.disk_evictions)]);
    t.row("memo hit rate", vec![format!("{:.1}%", 100.0 * m.hit_rate())]);
    t.row("sim-cycles", vec![m.sim_cycles.to_string()]);
    t.row("sim wall seconds", vec![format!("{wall:.2}")]);
    t.row("sim speed (KHz)", vec![format!("{khz:.0}")]);
    t
}

fn timings() -> &'static Mutex<Vec<PointTiming>> {
    static TIMINGS: std::sync::OnceLock<Mutex<Vec<PointTiming>>> = std::sync::OnceLock::new();
    TIMINGS.get_or_init(|| Mutex::new(Vec::new()))
}

// ---------------------------------------------------------------------------
// Sweep-wide registry, phase profile, and progress stream
// ---------------------------------------------------------------------------

/// The process-wide registry every simulated point's machine registry is
/// absorbed into, plus the ids of the runner's own `memo.*` namespace
/// (cache-layer sweep counters, refreshed at snapshot time).
struct SweepRegistry {
    reg: Registry,
    mem_hits: CounterId,
    disk_hits: CounterId,
    shared_hits: CounterId,
    misses: CounterId,
    simulated: CounterId,
    mem_evictions: CounterId,
    disk_evictions: CounterId,
    flight_waits: CounterId,
    migrated_entries: CounterId,
    cache_corruptions: CounterId,
    retries: CounterId,
    quarantined_points: CounterId,
    mem_bytes: GaugeId,
    disk_bytes: GaugeId,
    mem_lookup_nanos: HistogramId,
    disk_lookup_nanos: HistogramId,
    shared_lookup_nanos: HistogramId,
    fill_nanos: HistogramId,
}

impl SweepRegistry {
    /// Registers the `memo.*` namespace into `reg`.
    fn new(mut reg: Registry) -> SweepRegistry {
        SweepRegistry {
            mem_hits: reg.counter("memo.mem_hits"),
            disk_hits: reg.counter("memo.disk_hits"),
            shared_hits: reg.counter("memo.shared_hits"),
            misses: reg.counter("memo.misses"),
            simulated: reg.counter("memo.simulated"),
            mem_evictions: reg.counter("memo.mem_evictions"),
            disk_evictions: reg.counter("memo.disk_evictions"),
            flight_waits: reg.counter("memo.flight_waits"),
            migrated_entries: reg.counter("memo.migrated_entries"),
            cache_corruptions: reg.counter("memo.cache_corruptions"),
            retries: reg.counter("memo.retries"),
            quarantined_points: reg.counter("memo.quarantined_points"),
            mem_bytes: reg.gauge("memo.mem_bytes"),
            disk_bytes: reg.gauge("memo.disk_bytes"),
            mem_lookup_nanos: reg.histogram("memo.mem_lookup_nanos"),
            disk_lookup_nanos: reg.histogram("memo.disk_lookup_nanos"),
            shared_lookup_nanos: reg.histogram("memo.shared_lookup_nanos"),
            fill_nanos: reg.histogram("memo.fill_nanos"),
            reg,
        }
    }
}

fn sweep_registry() -> &'static Mutex<SweepRegistry> {
    static REG: std::sync::OnceLock<Mutex<SweepRegistry>> = std::sync::OnceLock::new();
    REG.get_or_init(|| Mutex::new(SweepRegistry::new(Registry::new())))
}

/// A deterministic snapshot of the sweep-wide counter registry: every
/// subsystem namespace summed over the points this process actually
/// simulated (memo hits contribute nothing — their machines never ran),
/// plus the live `memo.*` tier counters, byte gauges, and lookup/fill
/// latency histograms. This is the fragment `BENCH_sweep.json` embeds.
#[must_use]
pub fn sweep_registry_snapshot() -> Registry {
    let m = memo_stats();
    let log = recovery_log();
    let mut state = sweep_registry().lock().expect("sweep registry lock");
    let counters = [
        (state.mem_hits, m.mem_hits),
        (state.disk_hits, m.disk_hits),
        (state.shared_hits, m.shared_hits),
        (state.misses, m.misses),
        (state.simulated, m.simulated),
        (state.mem_evictions, m.mem_evictions),
        (state.disk_evictions, m.disk_evictions),
        (state.flight_waits, m.flight_waits),
        (state.migrated_entries, m.migrated_entries),
        (state.cache_corruptions, log.cache_corruptions),
        (state.retries, log.retries),
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

/// Folds one lookup's per-tier latencies into the sweep histograms.
fn note_lookup_latencies(mem: u64, disk: Option<u64>, shared: Option<u64>) {
    let mut state = sweep_registry().lock().expect("sweep registry lock");
    let (id_mem, id_disk, id_shared) =
        (state.mem_lookup_nanos, state.disk_lookup_nanos, state.shared_lookup_nanos);
    state.reg.observe(id_mem, mem);
    if let Some(n) = disk {
        state.reg.observe(id_disk, n);
    }
    if let Some(n) = shared {
        state.reg.observe(id_shared, n);
    }
}

/// Records one store-fill wall time into the sweep histograms.
fn note_fill_latency(nanos: u64) {
    let mut state = sweep_registry().lock().expect("sweep registry lock");
    let id = state.fill_nanos;
    state.reg.observe(id, nanos);
}

fn sweep_profiler() -> &'static Mutex<PhaseProfiler> {
    static PROF: std::sync::OnceLock<Mutex<PhaseProfiler>> = std::sync::OnceLock::new();
    PROF.get_or_init(|| Mutex::new(PhaseProfiler::new()))
}

/// The process-wide phase profile: machine pipeline regions summed over
/// every simulated point, plus the runner's own memo-cache I/O and
/// journal-write time.
#[must_use]
pub fn sweep_phase_profile() -> PhaseProfiler {
    *sweep_profiler().lock().expect("sweep profiler lock")
}

fn note_phase(phase: Phase, nanos: u64) {
    sweep_profiler().lock().expect("sweep profiler lock").add(phase, nanos);
}

/// Times one runner-side operation into the sweep phase profile.
fn timed<T>(phase: Phase, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    note_phase(phase, u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
    out
}

fn progress_slot() -> &'static Mutex<Option<Arc<ProgressSink>>> {
    static SINK: std::sync::OnceLock<Mutex<Option<Arc<ProgressSink>>>> = std::sync::OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

/// Attaches (or with `None` detaches) the streaming progress sink every
/// subsequent run in this process reports lifecycle events to: one JSONL
/// line per queued/started/progress/retry/quarantined/completed
/// transition, flushed as it happens. Supervision recovery events share
/// the same stream.
pub fn set_progress_sink(sink: Option<Arc<ProgressSink>>) {
    *progress_slot().lock().expect("progress lock") = sink;
}

fn active_progress_sink() -> Option<Arc<ProgressSink>> {
    progress_slot().lock().expect("progress lock").clone()
}

fn emit_progress(ev: &ProgressEvent<'_>) {
    if let Some(sink) = active_progress_sink() {
        sink.emit(ev);
    }
}

// ---------------------------------------------------------------------------
// Supervision configuration
// ---------------------------------------------------------------------------

/// Three attempts, attempt `n` sleeping `n × 50` ms first — or not at all
/// while chaos is armed (on this thread or process-wide): a chaos sweep
/// recovers dozens of injected faults, and sleeping through a backoff on
/// each would dominate its run time without making the proof stronger.
fn retry_policy() -> RetryPolicy {
    let policy = RetryPolicy::default();
    if active_chaos().is_some() {
        RetryPolicy { backoff: std::time::Duration::ZERO, ..policy }
    } else {
        policy
    }
}

/// Human-readable `APP/DESIGN` label of a request — the identity used by
/// quarantine reports, the journal, and chaos fault assignment.
pub fn point_label(req: &RunRequest) -> String {
    format!("{}/{}", req.app.name, req.design.name())
}

// ---------------------------------------------------------------------------
// Chaos (deterministic fault injection)
// ---------------------------------------------------------------------------

/// Watchdog epoch used for chaos-injected stalls: small enough that the
/// livelock is detected in milliseconds, large enough to be a real epoch.
const CHAOS_STALL_EPOCH: u64 = 1 << 14;

/// Cycle at which a chaos stall freezes the machine — early enough that
/// even the shortest smoke-scale point (~1.2k cycles) is still mid-kernel,
/// so every injected stall actually engages the watchdog.
const CHAOS_STALL_CYCLE: u64 = 512;

fn chaos_slot() -> &'static Mutex<Option<Chaos>> {
    static CHAOS: std::sync::OnceLock<Mutex<Option<Chaos>>> = std::sync::OnceLock::new();
    CHAOS.get_or_init(|| Mutex::new(None))
}

thread_local! {
    /// Per-thread chaos override — `dcl1d` scopes fault injection to one
    /// tenant by arming it only on the worker thread running that
    /// tenant's job, leaving every other tenant's runs fault-free.
    static THREAD_CHAOS: std::cell::Cell<Option<Chaos>> = const { std::cell::Cell::new(None) };
    /// Per-thread deadline (per-job deadlines in `dcl1d`).
    static THREAD_DEADLINE: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
    /// Tier that served the last completed point on this thread.
    static LAST_SOURCE: std::cell::Cell<Option<&'static str>> = const { std::cell::Cell::new(None) };
}

/// Arms (or with `None` disarms) deterministic fault injection for every
/// subsequent supervised run in this process. See [`dcl1_resilience::Chaos`]
/// for the fault classes; the same seed faults the same points every run.
pub fn set_chaos(seed: Option<u64>) {
    *chaos_slot().lock().expect("chaos lock") = seed.map(Chaos::new);
}

/// Arms (or with `None` disarms) fault injection for runs on *this thread
/// only*, overriding the process-wide engine. `dcl1d` uses this to scope a
/// tenant's requested chaos seed to that tenant's jobs: a worker thread
/// arms the seed before the job and disarms it after, so concurrent jobs
/// from other tenants — even ones sharing the same memo key — never see
/// an injected fault.
pub fn set_thread_chaos(seed: Option<u64>) {
    THREAD_CHAOS.with(|c| c.set(seed.map(Chaos::new)));
}

/// Sets (or with `None` clears) a wall-clock deadline, in whole seconds,
/// for subsequent runs on this thread (`0` = none): a point that exceeds
/// it fails the attempt with `SimError::Deadline`. `dcl1d` maps per-job
/// deadlines onto this.
pub fn set_thread_deadline_secs(secs: Option<u64>) {
    THREAD_DEADLINE.with(|d| d.set(secs));
}

/// The tier that served the most recent completed point on this thread
/// (`"simulated"`, `"memo"`, `"disk"`, or `"shared"`), clearing the slot.
/// Worker loops that attribute tier traffic per tenant (the `dcl1d`
/// scheduler) read this right after each job; it is thread-local, so
/// concurrent workers never see each other's attribution.
pub fn take_last_source() -> Option<&'static str> {
    LAST_SOURCE.with(std::cell::Cell::take)
}

fn note_source(source: &'static str) {
    LAST_SOURCE.with(|s| s.set(Some(source)));
}

/// Serializes tests that mutate process-global supervision state (chaos,
/// backoff, journal) against each other — without it, a concurrently
/// running sweep test could absorb another test's injected faults.
#[cfg(test)]
pub(crate) fn test_env_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The currently armed chaos engine, if any: the thread-scoped override
/// first (see [`set_thread_chaos`]), then the process-wide engine.
pub fn active_chaos() -> Option<Chaos> {
    if let Some(c) = THREAD_CHAOS.with(std::cell::Cell::get) {
        return Some(c);
    }
    *chaos_slot().lock().expect("chaos lock")
}

/// Damages the on-disk cache entries for `key` the way `chaos` dictates
/// for `point` — called right after a store so the corruption-recovery
/// path (checksum reject → quarantine → recompute/re-store) runs
/// in-sweep. Aimed at the v3 fan-out layout: the entry lives in its
/// two-hex-digit bucket under the local tier, and, when a shared tier is
/// configured, the write-back copy there is damaged too, so the shared
/// tier's independent checksum rejection is exercised alongside the local
/// one.
fn chaos_corrupt_disk_entry(chaos: &Chaos, point: &str, key: u128) {
    let targets = [store().disk_entry_path(key), store().shared_entry_path(key)];
    for path in targets.into_iter().flatten() {
        let Ok(mut bytes) = std::fs::read(&path) else { continue };
        chaos.corrupt(point, &mut bytes);
        let _ = std::fs::write(&path, bytes);
    }
}

// ---------------------------------------------------------------------------
// Recovery telemetry
// ---------------------------------------------------------------------------

fn recovery() -> &'static Mutex<RecoveryLog> {
    static RECOVERY: std::sync::OnceLock<Mutex<RecoveryLog>> = std::sync::OnceLock::new();
    RECOVERY.get_or_init(|| Mutex::new(RecoveryLog::new()))
}

/// A snapshot of this process's recovery ledger: retries, quarantines,
/// cache corruptions, watchdog firings, journal resumes. All zeros unless
/// something actually went wrong (chaos off on a healthy sweep keeps it
/// clean — that's what the no-op test asserts).
pub fn recovery_log() -> RecoveryLog {
    recovery().lock().expect("recovery lock").clone()
}

fn record_supervision_event(point: &str, event: &SupervisionEvent) {
    let mut log = recovery().lock().expect("recovery lock");
    match event {
        SupervisionEvent::Retrying { attempt, error, .. } => {
            log.retries += 1;
            match error {
                SimError::Livelock { .. } => log.livelocks += 1,
                SimError::Deadline { .. } => log.deadlines += 1,
                _ => {}
            }
            log.note(format!("retry {point} after attempt {attempt}: [{}] {error}", error.class()));
            drop(log);
            let detail = format!("[{}] {error}", error.class());
            let ev =
                ProgressEvent::new(ProgressStage::Retry, point).attempt(*attempt).detail(&detail);
            emit_progress(&ev);
        }
        SupervisionEvent::Quarantined(rec) => {
            log.quarantines += 1;
            if rec.class == "livelock" {
                log.livelocks += 1;
            } else if rec.class == "deadline" {
                log.deadlines += 1;
            }
            log.note(rec.to_string());
            drop(log);
            let detail = rec.to_string();
            let ev = ProgressEvent::new(ProgressStage::Quarantined, point).detail(&detail);
            emit_progress(&ev);
        }
    }
}

fn record_cache_corruption(point: &str, path: &str, reason: &str) {
    let mut log = recovery().lock().expect("recovery lock");
    log.cache_corruptions += 1;
    log.note(format!("cache entry for {point} quarantined ({reason}): {path}"));
}

// ---------------------------------------------------------------------------
// Checkpoint journal
// ---------------------------------------------------------------------------

struct JournalState {
    writer: Option<journal::JournalWriter>,
    /// Keys already appended this process, so shared points (every
    /// figure's baselines) produce one line each, not one per sweep.
    written: BTreeSet<u128>,
}

fn journal_state() -> &'static Mutex<JournalState> {
    static JOURNAL: std::sync::OnceLock<Mutex<JournalState>> = std::sync::OnceLock::new();
    JOURNAL.get_or_init(|| Mutex::new(JournalState { writer: None, written: BTreeSet::new() }))
}

/// Opens (appending) the checkpoint journal at `path`; every point
/// completed by a supervised sweep from now on is recorded there, one
/// flushed JSONL line per point, so a killed process loses at most the
/// line being written.
///
/// # Errors
///
/// Returns [`SimError::Io`] when the journal file cannot be opened.
pub fn set_journal(path: &Path) -> Result<(), SimError> {
    let writer = journal::JournalWriter::open(path).map_err(|e| SimError::Io {
        context: format!("opening journal {}", path.display()),
        message: e.to_string(),
    })?;
    let mut state = journal_state().lock().expect("journal lock");
    state.writer = Some(writer);
    Ok(())
}

/// Stops journaling (the already-written file is left intact).
pub fn clear_journal() {
    journal_state().lock().expect("journal lock").writer = None;
}

/// Preloads the in-process memo from an existing checkpoint journal:
/// every intact line becomes a memo hit, so a re-run of the same sweep
/// resimulates only the points the killed run never finished. Torn or
/// corrupt lines are skipped, not fatal. Returns `(restored, skipped)`.
pub fn resume_from_journal(path: &Path) -> (usize, usize) {
    let (entries, mut skipped) = journal::read_entries(path);
    let mut restored = 0usize;
    for e in entries {
        match deserialize_stats(&e.payload) {
            Some(stats) => {
                // Mem-tier only: a resumed point must not rewrite (or
                // re-publish to a shared tier) entries this process never
                // computed.
                store().insert_mem_only(e.key, &stats);
                journal_state().lock().expect("journal lock").written.insert(e.key);
                restored += 1;
            }
            None => skipped += 1,
        }
    }
    if restored > 0 || skipped > 0 {
        let mut log = recovery().lock().expect("recovery lock");
        log.resumed_points += restored as u64;
        log.note(format!(
            "resumed {restored} point(s) from {} ({skipped} line(s) skipped)",
            path.display()
        ));
    }
    (restored, skipped)
}

fn journal_append(key: u128, point: &str, stats: &RunStats) {
    let mut state = journal_state().lock().expect("journal lock");
    if state.writer.is_none() || state.written.contains(&key) {
        return;
    }
    let payload = serialize_stats(stats);
    let result = state
        .writer
        .as_mut()
        .map(|w| w.append(key, point, &payload))
        .unwrap_or(Ok(()));
    state.written.insert(key);
    drop(state);
    if let Err(e) = result {
        // A failing journal degrades resumability, never the sweep.
        recovery()
            .lock()
            .expect("recovery lock")
            .note(format!("journal append failed for {point}: {e}"));
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Runs one simulation point at the given scale, memoized in-process and
/// on disk (see the module docs). `attempt` is the 0-based retry index —
/// chaos keys its per-attempt faults on it; unsupervised callers pass 0.
///
/// # Errors
///
/// Returns [`SimError::Config`] when the design fails to resolve, and
/// [`SimError::Livelock`] / [`SimError::Deadline`] when the armed watchdog
/// aborts the run. Cache corruption never surfaces here: a corrupt entry
/// is quarantined, recorded in the [`recovery_log`], and the point is
/// recomputed.
pub fn run_app_result(req: &RunRequest, scale: Scale, attempt: u32) -> Result<RunStats, SimError> {
    let point = point_label(req);
    let chaos = active_chaos();
    if let Some(c) = &chaos {
        if c.should_panic(&point, attempt) {
            panic!("chaos: injected worker panic at {point} (attempt {attempt})");
        }
    }
    let checked = check_mode();
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
    if !checked {
        loop {
            if let Some(stats) = store_lookup(&point, key) {
                return Ok(stats);
            }
            match store().begin_flight(key) {
                Flight::Leader(guard) => {
                    // Leadership re-check: a prior leader may have filled
                    // the tiers between our miss and our claim, and the
                    // exactly-once contract demands we serve that hit
                    // rather than resimulate.
                    if let Some(stats) = store_lookup(&point, key) {
                        return Ok(stats);
                    }
                    flight_guard = Some(guard);
                    break;
                }
                Flight::Waited => {}
            }
        }
    }
    let start = Instant::now();
    let (stats, wall, profile) = with_point(req, scale, |sys, total| {
        // Registry and profiler are pull-only diagnostics: statistics are
        // byte-identical with them on (the determinism suite pins this), so
        // every supervised run carries them.
        sys.enable_registry();
        sys.enable_profiler();
        if let Some(sink) = active_progress_sink() {
            let label = point.clone();
            let total = total.max(1);
            let hook_start = Instant::now();
            sys.set_progress_hook(ProgressHook::new(move |cycle, retired| {
                let secs = hook_start.elapsed().as_secs_f64();
                let khz = if secs > 0.0 { cycle as f64 / secs / 1e3 } else { 0.0 };
                let ev = ProgressEvent::new(ProgressStage::Progress, &label)
                    .attempt(attempt)
                    .pct((100 * retired / total).min(100))
                    .cycles(cycle)
                    .khz(khz);
                sink.emit(&ev);
            }));
        }
        if checked {
            sys.enable_check();
        }
        if let Some(secs) = THREAD_DEADLINE.with(std::cell::Cell::get).filter(|&s| s > 0) {
            sys.set_deadline_secs(secs);
        }
        if let Some(c) = &chaos {
            if c.should_stall(&point, attempt) {
                // Freeze progress mid-run and tighten the epoch so the
                // watchdog converts the hang into a livelock within
                // milliseconds instead of the default ~1M cycles.
                sys.inject_stall_from(CHAOS_STALL_CYCLE);
                sys.set_watchdog(CHAOS_STALL_EPOCH);
            }
        }
        let stats = sys.run_result()?;
        let wall = start.elapsed();
        note_shards(sys.shards());
        let profile = sys.take_profiler().unwrap_or_default();
        if let Some(mm) = sys.take_metrics() {
            sweep_registry().lock().expect("sweep registry lock").reg.absorb(mm.registry());
        }
        Ok((stats, wall, profile))
    })?;
    sweep_profiler().lock().expect("sweep profiler lock").absorb(&profile);

    SIMULATED.fetch_add(1, Ordering::Relaxed);
    SIM_CYCLES.fetch_add(stats.cycles, Ordering::Relaxed);
    WALL_NANOS.fetch_add(u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX), Ordering::Relaxed);
    let timing = PointTiming {
        app: req.app.name,
        design: stats.design.clone(),
        sim_cycles: stats.cycles,
        wall_seconds: wall.as_secs_f64(),
        profile,
    };
    note_source("simulated");
    let done = ProgressEvent::new(ProgressStage::Completed, &point)
        .attempt(attempt)
        .source("simulated")
        .cycles(stats.cycles)
        .khz(timing.khz());
    emit_progress(&done);
    timings().lock().expect("timings lock").push(timing);

    if !checked {
        let t_fill = Instant::now();
        let fill = store().insert(key, &stats);
        let fill_nanos = u64::try_from(t_fill.elapsed().as_nanos()).unwrap_or(u64::MAX);
        note_fill_latency(fill_nanos);
        if let Some(n) = fill.shared_nanos {
            note_phase(Phase::SharedIo, n);
            note_phase(Phase::CacheIo, fill_nanos.saturating_sub(n));
        } else {
            note_phase(Phase::CacheIo, fill_nanos);
        }
        if let Some(c) = &chaos {
            if c.should_corrupt(&point) {
                // Damage the entry we just wrote, then read it back: the
                // checksum rejects it, the file is quarantined, and the
                // clean result is re-persisted — the full corruption
                // recovery path, exercised in-sweep.
                chaos_corrupt_disk_entry(c, &point, key);
                let mut corruptions = Vec::new();
                if let DiskReload::Corrupt(c) = store().reload_disk(key, &mut corruptions) {
                    record_cache_corruption(&point, &c.path, &c.reason);
                    store().store_disk(key, &stats);
                }
            }
        }
    }
    // Release single-flight leadership only after the tiers hold the
    // result, so a woken waiter's re-lookup always hits.
    drop(flight_guard);
    Ok(stats)
}

/// One pass through the store tiers for `point`/`key`: records
/// corruption reports, latency histograms, and phase attribution, and
/// emits the completion progress event on a hit. The mem-tier hit path
/// allocates only the returned `RunStats` clone.
fn store_lookup(point: &str, key: u128) -> Option<RunStats> {
    let mut corruptions: Vec<Corruption> = Vec::new();
    let lookup = store().lookup(key, &mut corruptions);
    for c in &corruptions {
        // Already quarantined by the store; surface it in the recovery
        // ledger — corruption degrades to a miss, never an error.
        record_cache_corruption(point, &c.path, &c.reason);
    }
    note_lookup_latencies(lookup.mem_nanos, lookup.disk_nanos, lookup.shared_nanos);
    if let Some(n) = lookup.disk_nanos {
        note_phase(Phase::CacheIo, n);
    }
    if let Some(n) = lookup.shared_nanos {
        note_phase(Phase::SharedIo, n);
    }
    let (stats, tier) = lookup.hit?;
    note_source(tier.name());
    let done = ProgressEvent::new(ProgressStage::Completed, point)
        .source(tier.name())
        .cycles(stats.cycles);
    emit_progress(&done);
    Some((*stats).clone())
}

/// Runs one simulation point at the given scale, memoized in-process and
/// on disk (see the module docs).
///
/// # Panics
///
/// Panics if the design fails to resolve (an experiment-definition bug)
/// or an armed watchdog reports a hang — supervised sweeps use
/// [`run_app_result`] and recover instead.
pub fn run_app(req: &RunRequest, scale: Scale) -> RunStats {
    run_app_result(req, scale, 0).unwrap_or_else(|e| panic!("{e}"))
}

/// Whether checked-sim mode is on (see [`set_check_mode`]).
pub fn check_mode() -> bool {
    CHECK_MODE.load(Ordering::Relaxed)
}

/// Turns checked-sim mode on or off for every subsequent [`run_app`] in
/// this process. Checked runs attach the machine's conservation-invariant
/// harness ([`dcl1::GpuSystem::enable_check`]), panic on any violation,
/// and bypass both memo layers in both directions; their statistics are
/// byte-identical to unchecked runs.
pub fn set_check_mode(enabled: bool) {
    CHECK_MODE.store(enabled, Ordering::Relaxed);
}

static CHECK_MODE: AtomicBool = AtomicBool::new(false);

/// Builds the machine of one point and hands it to `run` with the scaled
/// kernel's instruction count — the only place a run's machine is built:
/// the app scaled, caches warmed over the first third of the kernel
/// (standard methodology; keeps short scaled runs from being dominated by
/// cold misses) unless the request sets its own warm-up, the runner's
/// shard count, and the progress watchdog armed (it only reads gauges, so
/// statistics do not change).
fn with_point<T>(
    req: &RunRequest,
    scale: Scale,
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
    sys.set_shards(effective_shards());
    sys.set_watchdog(dcl1::DEFAULT_WATCHDOG_EPOCH);
    run(&mut sys, app.total_instructions())
}

/// Runs one simulation point with observability sinks attached.
///
/// Bypasses both memo layers in both directions: tracing and metrics are
/// side effects of actually simulating, so a cached result would produce
/// empty output files — and an observed run is never written back, keeping
/// the cache free of runs the observer may have slowed down.
///
/// # Errors
///
/// Returns [`SimError::Config`] when the design fails to resolve, and
/// watchdog errors when the run hangs.
pub fn run_app_observed(
    req: &RunRequest,
    scale: Scale,
    obs: dcl1::Observer,
) -> Result<RunStats, SimError> {
    with_point(req, scale, |sys, _| {
        sys.attach_observer(obs);
        let out = sys.run_result();
        note_shards(sys.shards());
        out
    })
}

/// Runs one point outside the memo and the sweep's bookkeeping, built as
/// every run is, and returns its statistics with the machine's
/// [`GpuSystem::debug_snapshot`] — what `dbg` prints.
///
/// # Errors
///
/// As [`run_app_observed`].
pub fn run_app_snapshot(req: &RunRequest, scale: Scale) -> Result<(RunStats, String), SimError> {
    with_point(req, scale, |sys, _| Ok((sys.run_result()?, sys.debug_snapshot())))
}

/// Renders completed points as one canonical, byte-stable document: each
/// `(label, stats)` pair sorted by label, serialized exactly as the disk
/// cache serializes stats (f64 as bit patterns). Two sweeps over the same
/// points produced identical statistics iff their dumps are byte-equal —
/// the artifact `crates/bench/tests/resilience.rs` (a killed and resumed
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

/// The outcome of a supervised sweep: per-point results in input order
/// (`None` where the point was quarantined) plus the quarantine records.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// One slot per request, input order; `None` marks a quarantined point.
    pub results: Vec<Option<RunStats>>,
    /// Points the supervisor gave up on, in input order.
    pub quarantined: Vec<QuarantineRecord>,
}

impl SweepOutcome {
    /// The completed statistics, skipping quarantined slots.
    #[must_use]
    pub fn completed(&self) -> Vec<&RunStats> {
        self.results.iter().flatten().collect()
    }
}

/// Shared per-point supervision wiring: started event, retry/quarantine
/// via [`supervise`], recovery-log accounting, and the checkpoint-journal
/// append on success.
fn supervise_point(
    req: &RunRequest,
    scale: Scale,
    policy: &RetryPolicy,
) -> Result<RunStats, QuarantineRecord> {
    let point = point_label(req);
    emit_progress(&ProgressEvent::new(ProgressStage::Started, &point));
    let outcome = supervise(
        &point,
        policy,
        |attempt| run_app_result(req, scale, attempt),
        |event| record_supervision_event(&point, event),
    );
    if let Ok(stats) = &outcome {
        timed(Phase::JournalWrite, || {
            journal_append(memo_key(req, scale), &point, stats);
        });
    }
    outcome
}

/// Runs one point under full supervision on the *current* thread. The
/// `dcl1d` scheduler calls this from its own worker pool so the
/// thread-scoped chaos and deadline overrides ([`set_thread_chaos`],
/// [`set_thread_deadline_secs`]) armed for the owning tenant apply to the
/// run — [`run_apps_supervised`] would move the work onto fresh threads
/// and out of the tenant's fault scope.
pub fn run_point_supervised(
    req: &RunRequest,
    scale: Scale,
) -> Result<RunStats, QuarantineRecord> {
    supervise_point(req, scale, &retry_policy())
}

/// Runs many simulation points across `workers` threads under full
/// supervision: each point executes behind panic containment, transient
/// failures (panics, watchdog livelocks/deadlines, I/O) are retried with
/// deterministic backoff, and a point that exhausts its budget is
/// quarantined — recorded in the outcome while the rest of the sweep
/// completes. Input order is preserved in the output.
pub fn run_apps_supervised(reqs: &[RunRequest], scale: Scale, workers: usize) -> SweepOutcome {
    let policy = retry_policy();
    let results: Vec<Mutex<Option<RunStats>>> = reqs.iter().map(|_| Mutex::new(None)).collect();
    let quarantined: Mutex<Vec<(usize, QuarantineRecord)>> = Mutex::new(Vec::new());
    let next = AtomicUsize::new(0);
    for req in reqs {
        emit_progress(&ProgressEvent::new(ProgressStage::Queued, &point_label(req)));
    }
    std::thread::scope(|s| {
        for _ in 0..workers.max(1).min(reqs.len().max(1)) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= reqs.len() {
                    break;
                }
                let req = &reqs[i];
                match supervise_point(req, scale, &policy) {
                    Ok(stats) => {
                        *results[i].lock().expect("result lock") = Some(stats);
                    }
                    Err(record) => {
                        quarantined.lock().expect("quarantine lock").push((i, record));
                    }
                }
            });
        }
    });
    let mut quarantined = quarantined.into_inner().expect("quarantine lock");
    quarantined.sort_by_key(|(i, _)| *i);
    SweepOutcome {
        results: results
            .into_iter()
            .map(|m| m.into_inner().expect("result lock"))
            .collect(),
        quarantined: quarantined.into_iter().map(|(_, r)| r).collect(),
    }
}

/// Runs many simulation points across `workers` threads, preserving input
/// order in the output.
///
/// # Panics
///
/// Panics — naming every quarantined point — if any point failed all its
/// supervised attempts. Unlike the pre-supervision runner the sweep runs
/// to completion first, so the panic reports every failing point, not
/// just the first.
pub fn run_apps_with_workers(reqs: &[RunRequest], scale: Scale, workers: usize) -> Vec<RunStats> {
    let outcome = run_apps_supervised(reqs, scale, workers);
    if !outcome.quarantined.is_empty() {
        let list: Vec<String> = outcome.quarantined.iter().map(ToString::to_string).collect();
        panic!(
            "sweep completed with {} unrecovered point(s):\n  {}",
            outcome.quarantined.len(),
            list.join("\n  ")
        );
    }
    outcome
        .results
        .into_iter()
        .map(|r| r.expect("no quarantines, so every slot is filled"))
        .collect()
}

static WORKER_OVERRIDE: AtomicUsize = AtomicUsize::new(0);
static SHARD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);
static SHARDS_MAX: AtomicU64 = AtomicU64::new(0);

/// Execution domains requested for every machine built by [`run_app`]
/// when no override is set: one. Partitioning is determinism-neutral
/// (stats are byte-identical at any shard count) and buys no speed — a
/// machine steps its domains one after another on one thread
/// (EXPERIMENTS.md, "Intra-point parallel scaling") — so it is the opt-in
/// behind `--workers=N` / [`set_shard_override`].
pub const DEFAULT_SHARDS: usize = 1;

/// Pins the intra-point shard count used for every subsequent
/// [`run_app`] in this process; `0` restores [`DEFAULT_SHARDS`].
/// Orthogonal to [`set_worker_override`], which controls how many points
/// run concurrently: `--workers=N` on the bench binaries maps to `N`
/// shards inside each point and leaves the point count alone.
pub fn set_shard_override(shards: usize) {
    SHARD_OVERRIDE.store(shards, Ordering::Relaxed);
}

/// The shard count [`run_app`] will request from each machine (the
/// machine may clamp it — see [`dcl1::GpuSystem::set_shards`]).
pub fn effective_shards() -> usize {
    match SHARD_OVERRIDE.load(Ordering::Relaxed) {
        0 => DEFAULT_SHARDS,
        n => n,
    }
}

/// Aggregate intra-point sharding diagnostics for this process.
#[derive(Debug, Clone, Copy)]
pub struct ShardSweepStats {
    /// Largest effective shard count any simulated point ran with.
    pub shards: u64,
    /// Always 0: a machine steps its domains on its own thread, so nothing
    /// waits at a barrier. Kept only because the `benchmark/` ledger reads
    /// it.
    pub barrier_wait_nanos: u64,
}

/// Returns this process's accumulated sharding diagnostics.
pub fn shard_sweep_stats() -> ShardSweepStats {
    ShardSweepStats { shards: SHARDS_MAX.load(Ordering::Relaxed), barrier_wait_nanos: 0 }
}

/// Folds one machine's domain count into the process maximum.
fn note_shards(shards: usize) {
    SHARDS_MAX.fetch_max(shards as u64, Ordering::Relaxed);
}

/// Pins the worker-thread count used by [`run_apps`] for every subsequent
/// call in this process; `0` restores the default (one thread per
/// available core). Benchmark drivers expose this as `--workers=N` so
/// throughput numbers taken on shared machines are reproducible.
pub fn set_worker_override(workers: usize) {
    WORKER_OVERRIDE.store(workers, Ordering::Relaxed);
}

/// The worker-thread count [`run_apps`] will use: the override if one is
/// set, otherwise the number of cores this process may run on (1 when the
/// host will not say).
pub fn effective_workers() -> usize {
    match WORKER_OVERRIDE.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        n => n,
    }
}

/// Runs many simulation points across [`effective_workers`] threads,
/// preserving input order in the output.
///
/// # Panics
///
/// Re-panics with the failing request's app/design name if any worker
/// panics.
pub fn run_apps(reqs: &[RunRequest], scale: Scale) -> Vec<RunStats> {
    run_apps_with_workers(reqs, scale, effective_workers())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcl1_resilience::supervisor::panic_message;
    use dcl1_workloads::by_name;
    use std::panic::{catch_unwind, AssertUnwindSafe};

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
        let _guard = test_env_lock();
        let app = by_name("C-BLK").unwrap();
        let reqs = vec![
            RunRequest::new(app, Design::Baseline),
            RunRequest::new(app, Design::Private { nodes: 40 }),
        ];
        let out = run_apps(&reqs, Scale::Smoke);
        assert_eq!(out[0].design, "Baseline");
        assert_eq!(out[1].design, "Pr40");
        assert!(out.iter().all(|s| s.instructions > 0));
    }

    #[test]
    fn worker_panic_names_the_failing_point() {
        // Holds the lock because the quarantine it provokes lands in the
        // process-wide recovery log other tests difference.
        let _guard = test_env_lock();
        let app = by_name("C-BLK").unwrap();
        // An invalid node count fails Design::topology at build time.
        let bad = RunRequest::new(app, Design::Shared { nodes: 77 });
        #[expect(clippy::disallowed_methods, reason = "the test asserts that the panic propagates")]
        let err = catch_unwind(AssertUnwindSafe(|| run_apps(&[bad], Scale::Smoke)))
            .expect_err("must propagate the worker panic");
        let msg = panic_message(err.as_ref());
        assert!(msg.contains("C-BLK"), "missing app name: {msg}");
        assert!(msg.contains("Sh77"), "missing design name: {msg}");
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
        // Truncation (a torn journal line, a short read) must not parse.
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
    fn chaos_transient_faults_recover_within_a_supervised_sweep() {
        // Pick a seed whose fault for this point is a transient panic, so
        // the supervised sweep must retry exactly once and then succeed
        // with byte-identical stats.
        let app = by_name("C-BLK").unwrap();
        let req = RunRequest::new(app, Design::Baseline);
        let point = point_label(&req);
        let seed = (0u64..10_000)
            .find(|s| {
                Chaos::new(*s).fault_for(&point) == Some(dcl1_resilience::Fault::TransientPanic)
            })
            .expect("some seed assigns a transient panic");

        let _guard = test_env_lock();
        let clean = run_apps(std::slice::from_ref(&req), Scale::Smoke);
        let before = recovery_log();
        set_chaos(Some(seed));
        // Bypass the memo (the clean run filled it) by dropping the key:
        // chaos panics fire before the memo lookup, so the retry still
        // exercises the full path; the memo then serves the clean result.
        let outcome = run_apps_supervised(&[req], Scale::Smoke, 1);
        set_chaos(None);

        assert!(outcome.quarantined.is_empty(), "{:?}", outcome.quarantined);
        assert_eq!(outcome.results[0].as_ref().unwrap(), &clean[0], "retry changed stats");
        let after = recovery_log();
        assert_eq!(after.retries, before.retries + 1, "exactly one retry");
        assert_eq!(after.quarantines, before.quarantines);
    }

    #[test]
    fn stale_schema_dirs_are_ignored() {
        // The active directory carries the current schema version…
        let base = PathBuf::from("/some/cache/base");
        assert_eq!(
            versioned_cache_dir(base.clone()),
            base.join(format!("v{CACHE_SCHEMA_VERSION}"))
        );
        assert_eq!(
            disk_cache_dir().file_name().unwrap().to_str().unwrap(),
            format!("v{CACHE_SCHEMA_VERSION}")
        );

        // …so an entry persisted under a stale sibling (a previous
        // schema's v1/) can never satisfy a lookup, even for the same key
        // — and the store's open pass deletes such siblings outright
        // (covered in `dcl1-store`'s migration test). Even a direct read
        // of a stale payload fails the field-count guard rather than
        // half-parsing.
        let pre_v2 = "cycles 1\ninstructions 2\ndesign Baseline\n";
        assert!(deserialize_stats(pre_v2).is_none());
    }
}
