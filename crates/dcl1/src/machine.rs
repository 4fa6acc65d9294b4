//! The full-system cycle-level simulator.
//!
//! [`GpuSystem::build`] instantiates a machine from a [`GpuConfig`], a
//! [`Design`] and a workload's [`TraceFactory`]; [`GpuSystem::run`]
//! executes the kernel to completion and returns [`RunStats`].
//!
//! ## Per-cycle pipeline
//!
//! Components communicate only through bounded queues and crossbar ports,
//! so the phase order below introduces at most single-cycle skews:
//!
//! 1. CTA dispatch to cores with free slots;
//! 2. **Issue region** (per shard domain): core issue (one instruction per
//!    core per cycle) into per-core transaction outboxes, then each outbox
//!    head moves into the domain's own NoC#1 crossbar / node Q1, with
//!    back-pressure memoized for stall attribution;
//! 3. **NoC#1 region** (per shard domain): NoC#1 ticks
//!    (1× or 2× per core cycle) with ejection into node Q1 / completion
//!    at cores;
//! 4. **NoC#2** (machine-wide; `noc2.rs`): node Q3 heads and stashed
//!    L2 replies are injected, then the fabric ticks in its own clock
//!    domain(s), ejecting into L2 input queues / node Q4. Which of the
//!    three shapes the design resolves to, and how a flit is routed
//!    through it, is that module's business alone — this file only walks
//!    its crossbars, injects into it and ticks it;
//! 5. **Mem region** (per shard domain): L2 slice ticks, DC-L1 node ticks
//!    (presence reads the cycle-start snapshot, writes a domain log) and
//!    the node-reply drain;
//! 6. **memory exchange** (machine-wide): presence-log replay in domain
//!    order, L2 ↔ DRAM moves, DRAM ticks in the 924 MHz domain.
//!
//! ## Sharded determinism
//!
//! The machine partitions its cores, DC-L1 nodes, NoC#1 clusters and L2
//! slices into [`ShardDomain`]s ([`GpuSystem::set_shards`]), always on
//! cluster boundaries, so core ↔ DC-L1 traffic never leaves a domain.
//! Every region runs on the machine's own thread, domain after domain in
//! domain order, and touches one domain's state only; what does cross
//! domains (NoC#2, DRAM, presence) is stepped between regions in global
//! component order. The partition is chosen so results do not depend on
//! the shard count: transaction ids come from per-core sequence counters,
//! RTT meters are per core and merged in global core order, and presence
//! updates are logged and replayed in node order.
//!
//! [`ShardDomain`]: crate::shard::ShardDomain

use crate::check::{SimChecker, EPOCH_CYCLES};
use crate::config::GpuConfig;
use crate::design::{Attachment, Design, Topology};
use crate::metrics::MachineMetrics;
use crate::noc2::Noc2;
use crate::node::{Dcl1Node, NodeConfig, NodeStats};
use crate::presence::PresenceMap;
use crate::shard::{self, CoreMeter, MachineCtx, Region, ShardDomain};
use crate::sleep::{self, Alarm, Census, Visit};
use crate::stats::RunStats;
use crate::txn::Txn;
use dcl1_cache::CacheStats;
use dcl1_common::checksum;
use dcl1_common::stats::RunningMean;
use dcl1_common::{ActiveSet, ClockDomain, ConfigError, CoreId, Cycle, FlowMeter, WakeWheel};
use dcl1_gpu::{Core, CoreConfig, CoreStats, CtaDispatcher, CtaPolicy, TraceFactory};
use dcl1_mem::{DramAccess, L2Slice, MemoryController};
use dcl1_noc::Crossbar;
use dcl1_obs::metrics::MetricsSample;
use dcl1_obs::profiler::{Phase, PhaseProfiler, LAP_STRIDE};
use dcl1_obs::registry::Registry;
use dcl1_obs::Observer;
use dcl1_resilience::SimError;
use std::collections::VecDeque;
use std::sync::Arc;
#[expect(clippy::disallowed_types, reason = "deadline watchdog and phase profiler only")]
use std::time::Instant;

/// Default cycles between progress-watchdog checks once
/// [`GpuSystem::set_watchdog`] arms it: long enough that any real traffic
/// (load RTTs are hundreds of cycles) advances the progress signature many
/// times over, so a firing is a genuine hang, not a slow point.
pub const DEFAULT_WATCHDOG_EPOCH: u64 = 1 << 20;

/// Cycles between registry snapshots while a run is in flight (a
/// multiple of the checker's [`EPOCH_CYCLES`], so snapshots land on
/// invariant-epoch boundaries). Pull snapshots overwrite — the final
/// snapshot at drain is what reports read — so this cadence only bounds
/// how stale a mid-run [`GpuSystem::registry`] view can be.
pub(crate) const REGISTRY_RECORD_CYCLES: u64 = 1 << 16;

/// Cycles between progress-hook callbacks (idle fast-forward clamps to
/// this boundary so the cadence stays live through quiescent stretches).
pub(crate) const DEFAULT_PROGRESS_EVERY: u64 = 1 << 18;

/// A periodic liveness callback: invoked with `(cycle,
/// instructions_retired)` every [`DEFAULT_PROGRESS_EVERY`] cycles (see
/// [`GpuSystem::set_progress_hook`]). Diagnostic only — the machine never
/// reads anything back through it, so statistics are byte-identical with
/// or without a hook attached.
pub struct ProgressHook<'w>(Box<dyn FnMut(u64, u64) + 'w>);

impl<'w> ProgressHook<'w> {
    /// Wraps a callback.
    pub fn new(f: impl FnMut(u64, u64) + 'w) -> ProgressHook<'w> {
        ProgressHook(Box::new(f))
    }
}

impl std::fmt::Debug for ProgressHook<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressHook").finish_non_exhaustive()
    }
}

/// Run-level options orthogonal to the design (the paper's sensitivity
/// knobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimOptions {
    /// Perfect-(DC-)L1 mode: every lookup hits (Fig 4c).
    pub perfect_l1: bool,
    /// Overrides the L1/DC-L1 access latency (Fig 19b sweeps 0..64).
    pub l1_latency_override: Option<u32>,
    /// CTA scheduling policy (§VIII-A sensitivity).
    pub cta_policy: CtaPolicy,
    /// Hard cycle cap (defends against pathological configurations).
    pub max_cycles: u64,
    /// Cycles between replica-count samples.
    pub replica_sample_interval: u64,
    /// Instructions to retire before statistics start counting
    /// (cache-warmup fast-forward, as simulation methodology requires;
    /// 0 = measure from cold).
    pub warmup_instructions: u64,
    /// Idle fast-forward: when every component is quiescent except
    /// fixed-latency timers (ALU busy intervals, cache-hit pipes, L2 reply
    /// latencies, DRAM bursts), jump the clock to the next event instead of
    /// stepping cycle by cycle. Bit-identical to stepping — the golden
    /// tests compare both paths — so there is no reason to disable it
    /// outside of those tests.
    pub fast_forward: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            perfect_l1: false,
            l1_latency_override: None,
            cta_policy: CtaPolicy::GreedyRoundRobin,
            max_cycles: 20_000_000,
            replica_sample_interval: 2048,
            warmup_instructions: 0,
            fast_forward: true,
        }
    }
}

/// Where each domain's component ranges start: cut `i`..cut `i+1` is
/// domain `i`'s slice of the global component vector.
struct PartitionCuts {
    core: Vec<usize>,
    node: Vec<usize>,
    cluster: Vec<usize>,
    slice: Vec<usize>,
}

impl PartitionCuts {
    /// Cut points for (up to) `requested` domains. A pure function of
    /// `(topology, requested)`, so a given request always yields the same
    /// partition. Domains hold whole clusters — a cluster's cores, its
    /// nodes and both of its NoC#1 crossbars — so the request clamps to
    /// the cluster count: a fully shared design (`ShY`, one crossbar)
    /// and the ideal single L1 (one node) stay one domain, while
    /// private-L1 machines (one core + one L1 per "cluster") cut anywhere.
    fn plan(topo: &Topology, l2_slices: usize, requested: usize) -> Self {
        let n = requested.clamp(1, topo.clusters);
        let even = |total: usize| -> Vec<usize> { (0..=n).map(|i| i * total / n).collect() };
        let unit = even(topo.clusters);
        PartitionCuts {
            core: unit.iter().map(|k| k * topo.cores_per_cluster()).collect(),
            node: unit.iter().map(|k| k * topo.nodes_per_cluster()).collect(),
            cluster: match topo.attachment {
                Attachment::Direct => vec![0; n + 1],
                Attachment::Noc1 { .. } => unit,
            },
            slice: even(l2_slices),
        }
    }

    /// Number of domains the plan produces.
    fn domains(&self) -> usize {
        self.core.len() - 1
    }
}

/// The assembled machine.
#[derive(Debug)]
pub struct GpuSystem<'w> {
    cfg: GpuConfig,
    topo: Topology,
    opts: SimOptions,
    factory: &'w dyn TraceFactory,
    dispatcher: CtaDispatcher,

    /// Execution domains: every core, outbox, DC-L1 node, NoC#1 crossbar
    /// and L2 slice lives in exactly one (sequential = one domain).
    shards: Vec<ShardDomain>,
    /// Immutable facts shared by the domains and NoC#2.
    rctx: Arc<MachineCtx>,

    /// Replica-presence map. Read-only during the Mem region (cycle-start
    /// snapshot); the domain logs are replayed into it after the region.
    presence: PresenceMap,

    /// NoC#2: both directions, their clocks and the reply stash
    /// (stepped between regions; the shape lives in `noc2.rs`).
    noc2: Noc2,
    /// DRAM access popped from a slice but not yet accepted by its MC.
    dram_stash: Vec<Option<DramAccess>>,
    /// Slices whose stashed DRAM access found the controller's queue full:
    /// offered again once the controller dequeues.
    dram_wait: ActiveSet,
    mcs: Vec<MemoryController<usize>>,
    /// Channels with a queued request, or a read completing within a tick;
    /// a channel outside sleeps until `exchange_memory` enqueues into it or
    /// its alarm in `dram_wheel` (by memory tick) rings.
    channels_live: ActiveSet,
    dram_wheel: WakeWheel,
    dram_clock: ClockDomain,

    /// Observability sinks (tracing + metrics); `Observer::disabled()` by
    /// default, in which case every hook below is an inlined early return.
    obs: Observer,

    /// Typed counter registry bundle; `None` (the default) skips every
    /// snapshot. Pull-only: components never see it, so enabling it
    /// cannot perturb simulation results.
    metrics: Option<Box<MachineMetrics>>,
    /// Phase profiler; `None` (the default) skips all lap timing.
    /// Wall-clock diagnostics only, never fed back into simulation.
    profiler: Option<Box<PhaseProfiler>>,
    /// Periodic liveness callback; `None` (the default) is a skipped
    /// branch per cycle.
    progress: Option<ProgressHook<'w>>,
    /// Cycles between progress-hook callbacks.
    progress_every: u64,
    /// Origin of the profiler lap in progress (`None` with the profiler
    /// off, or on a step it does not time).
    #[expect(clippy::disallowed_types, reason = "phase profiler only, never feeds stats")]
    lap_t: Option<Instant>,

    /// Checked-sim harness (`--check`); `None` by default, in which case
    /// every invariant hook is a skipped branch and no epoch sweeps run.
    checker: Option<Box<SimChecker>>,

    /// Progress-watchdog epoch in cycles; `None` (the default) disables
    /// the watchdog, so [`run`](GpuSystem::run) keeps its historical
    /// never-fails behavior.
    watchdog_epoch: Option<u64>,
    /// Wall-clock budget for one run, in whole seconds (`None` = none).
    deadline_secs: Option<u64>,
    /// Chaos/testing hook: freeze every pipeline phase from this cycle on
    /// so the watchdog observes a genuine no-progress window.
    stall_from: Option<Cycle>,
    /// Cycle of the last watchdog probe.
    watch_cycle: Cycle,
    /// Progress signature at the last watchdog probe.
    watch_sig: u64,

    now: Cycle,
    /// Steps executed (diagnostic: with the domains' visit tallies,
    /// `debug_snapshot`'s visits per step).
    steps: u64,
    /// Cycle at which statistics were last reset (end of warmup).
    stat_base_cycle: Cycle,
    warmup_done: bool,
    replica_samples: RunningMean,
}

impl<'w> GpuSystem<'w> {
    /// Builds a machine for `design` running `factory`'s kernel.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the design does not resolve against the
    /// configuration (divisibility constraints, cache geometry).
    pub fn build(
        cfg: &GpuConfig,
        design: &Design,
        factory: &'w dyn TraceFactory,
        opts: SimOptions,
    ) -> Result<Self, ConfigError> {
        let topo = design.topology(cfg)?;
        let node_cfg = NodeConfig {
            size_bytes: topo.node_bytes(cfg),
            assoc: cfg.l1_assoc,
            line_bytes: cfg.line_bytes,
            latency: opts.l1_latency_override.unwrap_or_else(|| topo.node_latency(cfg)),
            mshr_entries: (cfg.l1_mshr_entries * cfg.cores / topo.nodes).max(1),
            mshr_merges: cfg.l1_mshr_merges * (cfg.cores / topo.nodes).max(1),
            queue_entries: if topo.ideal_ports {
                cfg.node_queue_entries * cfg.cores
            } else {
                cfg.node_queue_entries
            },
            ports: if topo.ideal_ports { cfg.cores } else { 1 },
            perfect: opts.perfect_l1,
        };
        let nodes = (0..topo.nodes)
            .map(|_| Dcl1Node::new(node_cfg))
            .collect::<Result<Vec<_>, _>>()?;

        let cores: Vec<Core> = (0..cfg.cores)
            .map(|c| {
                Core::new(
                    CoreId::new(c),
                    CoreConfig {
                        max_wavefronts: cfg.max_wavefronts,
                        max_ctas: cfg.max_ctas_per_core,
                        issue_policy: cfg.issue_policy,
                    },
                )
            })
            .collect();

        // NoC#1.
        let (noc1_req, noc1_rep) = match topo.attachment {
            Attachment::Direct => (Vec::new(), Vec::new()),
            Attachment::Noc1 { .. } => {
                let cpc = topo.cores_per_cluster();
                let m = topo.nodes_per_cluster();
                let make = |i: usize, o: usize| Crossbar::new(cfg.xbar_config(i, o));
                let req = (0..topo.clusters).map(|_| make(cpc, m)).collect();
                let rep = (0..topo.clusters).map(|_| make(m, cpc)).collect();
                (req, rep)
            }
        };

        let rctx = Arc::new(MachineCtx {
            cpc: topo.cores_per_cluster(),
            m: topo.nodes_per_cluster(),
            topo: topo.clone(),
            cores_total: cfg.cores as u64,
            flit_bytes: cfg.flit_bytes * topo.flit_mult,
        });
        let l = cfg.l2_slices;
        let l2 = (0..l)
            .map(|_| L2Slice::new(cfg.l2))
            .collect::<Result<Vec<_>, _>>()?;
        let mcs = (0..cfg.mcs).map(|_| MemoryController::new(cfg.dram)).collect();

        let domain =
            ShardDomain::new((0, 0, 0, 0), cores, nodes, noc1_req, noc1_rep, l2, FlowMeter::new("txns"));

        Ok(GpuSystem {
            dispatcher: CtaDispatcher::new(opts.cta_policy, factory.total_ctas(), cfg.cores),
            noc2: Noc2::build(cfg, &rctx),
            rctx,
            shards: vec![domain],
            // Distinct presence-tracked lines are bounded by the level's
            // aggregate capacity; pre-sizing means the map never re-hashes.
            presence: PresenceMap::with_capacity(
                node_cfg.size_bytes / cfg.line_bytes.max(1) * topo.nodes,
            ),
            dram_stash: (0..l).map(|_| None).collect(),
            dram_wait: ActiveSet::new(l),
            channels_live: ActiveSet::full(cfg.mcs),
            dram_wheel: WakeWheel::new(),
            dram_clock: ClockDomain::new(cfg.mem_mhz, cfg.core_mhz),
            cfg: cfg.clone(),
            topo,
            opts,
            factory,
            mcs,
            obs: Observer::disabled(),
            metrics: None,
            profiler: None,
            progress: None,
            progress_every: DEFAULT_PROGRESS_EVERY,
            lap_t: None,
            checker: None,
            watchdog_epoch: None,
            deadline_secs: None,
            stall_from: None,
            watch_cycle: 0,
            watch_sig: 0,
            now: 0,
            steps: 0,
            stat_base_cycle: 0,
            warmup_done: false,
            replica_samples: RunningMean::default(),
        })
    }

    // ---------------------------------------------------------------
    // Partitioning
    // ---------------------------------------------------------------

    /// Partitions the machine into (up to) `n` execution domains, merging
    /// and re-cutting every per-domain vector in global component order.
    /// Only legal at a quiescent point (no transaction in flight —
    /// asserted in debug builds): before a run, or at the start of a
    /// traced run.
    ///
    /// Statistics are independent of the shard count by construction:
    /// domains hold whole clusters — a core, the NoC#1 crossbars it
    /// injects into and every DC-L1 node it can reach — so core ↔ DC-L1
    /// traffic is domain-local, everything that does span domains (NoC#2,
    /// DRAM, presence replay) is stepped between regions in global
    /// component order, and per-core counters (transaction sequencing, RTT
    /// meters) merge in global core order. The request clamps to the
    /// cluster count: fully shared designs (`ShY`, one crossbar) and the
    /// ideal single L1 stay at one domain.
    pub fn set_shards(&mut self, n: usize) {
        let cuts = PartitionCuts::plan(&self.topo, self.cfg.l2_slices, n);
        let n = cuts.domains();
        if self.shards.len() == n {
            return;
        }

        // Every component starts the new partition awake (sleepers are
        // clocked through `now`); what can sleep drifts off again.
        let total_cores = self.topo.cores;
        let mut produced = 0u64;
        let mut consumed = 0u64;
        let mut visits = Census::default();
        let mut cores = Vec::with_capacity(total_cores);
        let mut txn_seq = Vec::with_capacity(total_cores);
        let mut meters = Vec::with_capacity(total_cores);
        let mut nodes = Vec::with_capacity(self.topo.nodes);
        let mut noc1_req = Vec::new();
        let mut noc1_rep = Vec::new();
        let mut l2 = Vec::with_capacity(self.cfg.l2_slices);
        for mut d in self.shards.drain(..) {
            debug_assert!(d.plog.is_empty(), "set_shards with unapplied presence deltas");
            d.wake_all(self.now, &self.rctx);
            produced += d.flow.produced();
            consumed += d.flow.consumed();
            visits.merge(&d.visits);
            cores.extend(d.cores);
            txn_seq.extend(d.txn_seq);
            meters.extend(d.meters);
            nodes.extend(d.nodes);
            noc1_req.extend(d.noc1_req);
            noc1_rep.extend(d.noc1_rep);
            l2.extend(d.l2);
        }
        // Per-core in-flight counts cannot be reconstructed from domain
        // aggregates, so the ledgers only merge when nothing is in flight
        // (every outbox is then empty and starts fresh); the merged
        // history lands on domain 0.
        debug_assert_eq!(produced, consumed, "set_shards with transactions in flight");

        let mut cores = cores.into_iter();
        let mut txn_seq = txn_seq.into_iter();
        let mut meters = meters.into_iter();
        let mut nodes = nodes.into_iter();
        let mut noc1_req = noc1_req.into_iter();
        let mut noc1_rep = noc1_rep.into_iter();
        let mut l2 = l2.into_iter();
        let mut shards = Vec::with_capacity(n);
        for i in 0..n {
            let nc = cuts.core[i + 1] - cuts.core[i];
            let clusters = cuts.cluster[i + 1] - cuts.cluster[i];
            let mut flow = FlowMeter::new("txns");
            if i == 0 {
                flow.produce(produced);
                flow.consume(consumed);
            }
            let mut d = ShardDomain::new(
                (cuts.core[i], cuts.node[i], cuts.cluster[i], cuts.slice[i]),
                cores.by_ref().take(nc).collect(),
                nodes.by_ref().take(cuts.node[i + 1] - cuts.node[i]).collect(),
                noc1_req.by_ref().take(clusters).collect(),
                noc1_rep.by_ref().take(clusters).collect(),
                l2.by_ref().take(cuts.slice[i + 1] - cuts.slice[i]).collect(),
                flow,
            );
            d.txn_seq = txn_seq.by_ref().take(nc).collect();
            d.meters = meters.by_ref().take(nc).collect();
            if i == 0 {
                d.visits = visits;
            }
            shards.push(d);
        }
        self.shards = shards;
    }

    /// Number of execution domains the machine is currently partitioned
    /// into (1 = sequential).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Does nothing: every domain runs on the machine's own thread. Kept
    /// only because the `benchmark/` ledger's kernel micro-legs call it.
    pub fn set_shard_threads(&mut self, _on: bool) {}

    // ---------------------------------------------------------------
    // Accessors and small helpers
    // ---------------------------------------------------------------

    /// The resolved topology this machine implements.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Attaches observability sinks (transaction tracing and/or periodic
    /// metrics). The machine drives them from its pipeline phases and
    /// finalizes them at the end of [`run`](GpuSystem::run).
    pub fn attach_observer(&mut self, obs: Observer) {
        self.obs = obs;
    }

    /// Turns on checked-sim mode: conservation invariants are verified
    /// every [`EPOCH_CYCLES`] cycles and at drain, panicking on the first
    /// violation. Checking reads gauges only — statistics stay
    /// byte-identical to an unchecked run.
    pub fn enable_check(&mut self) {
        self.checker = Some(Box::new(SimChecker::new()));
    }

    /// The checked-sim harness, when enabled (epoch counts).
    pub fn checker(&self) -> Option<&SimChecker> {
        self.checker.as_deref()
    }

    /// Turns on the typed counter registry: every subsystem namespace
    /// (`gpu.*`, `noc.*`, `mem.*`, `cache.*`, `dcl1.*`, `shard.*`) is
    /// registered once, then snapshotted pull-style every
    /// [`REGISTRY_RECORD_CYCLES`] and at drain. Snapshots walk components
    /// in global order, so they are byte-identical across shard counts,
    /// and never feed back into the simulation.
    pub fn enable_registry(&mut self) {
        if self.metrics.is_none() {
            self.metrics = Some(Box::new(MachineMetrics::new()));
        }
    }

    /// The counter registry, when enabled (values are as of the most
    /// recent snapshot; call [`record_registry`](GpuSystem::record_registry)
    /// first for a live view).
    pub fn registry(&self) -> Option<&Registry> {
        self.metrics.as_ref().map(|m| m.registry())
    }

    /// Takes a fresh registry snapshot now. No-op when the registry is
    /// disabled.
    pub fn record_registry(&mut self) {
        // Take/put-back so `record_into` can borrow `self` shared while
        // the bundle is borrowed mutably.
        let Some(mut mm) = self.metrics.take() else { return };
        self.settle();
        self.record_into(&mut mm);
        self.metrics = Some(mm);
    }

    /// Detaches the registry bundle after a final snapshot, leaving the
    /// machine with registry recording disabled. `None` if it was never
    /// enabled.
    pub fn take_metrics(&mut self) -> Option<Box<MachineMetrics>> {
        self.record_registry();
        self.metrics.take()
    }

    /// One registry snapshot: sums component statistics in global
    /// instance order (the same order `collect_stats` uses) and
    /// overwrites the registry's values.
    fn record_into(&self, mm: &mut MachineMetrics) {
        let MachineMetrics { reg, gpu, noc, mem, cache, dcl1, shard } = mm;
        gpu.record(reg, self.iter_cores().map(|c| *c.stats()));
        let noc1 = dcl1_noc::metrics::totals(self.iter_noc1().map(Crossbar::stats));
        let noc2 = dcl1_noc::metrics::totals(self.noc2.xbars().map(Crossbar::stats));
        noc.record(reg, noc1, noc2);
        mem.record(
            reg,
            self.iter_l2().map(|s| *s.stats()),
            self.mcs.iter().map(|m| *m.stats()),
        );
        cache.record(
            reg,
            self.iter_nodes().map(|n| *n.cache().stats()),
            self.iter_nodes().map(Dcl1Node::mshr_allocs).sum(),
            self.iter_nodes().map(Dcl1Node::mshr_frees).sum(),
        );
        dcl1.record(
            reg,
            self.measured_cycles(),
            self.iter_nodes().map(|n| *n.stats()),
            self.presence.mean_replicas(),
        );
        shard.record(
            reg,
            self.shards.iter().map(|d| d.flow.produced()).sum(),
            self.shards.iter().map(|d| d.flow.consumed()).sum(),
            self.presence.distinct_lines() as u64,
        );
    }

    /// Turns on the hierarchical phase profiler: per-cycle pipeline
    /// laps (issue, interconnect, memory, exchange) are counted on every
    /// step and timed with the wall clock on one step in
    /// [`LAP_STRIDE`]. Diagnostic only — results never reach simulation
    /// state, so statistics stay byte-identical.
    pub fn enable_profiler(&mut self) {
        if self.profiler.is_none() {
            self.profiler = Some(Box::<PhaseProfiler>::default());
        }
    }

    /// Detaches the accumulated phase profile, disabling further
    /// profiling. `None` if the profiler was never enabled.
    pub fn take_profiler(&mut self) -> Option<PhaseProfiler> {
        self.profiler.take().map(|p| *p)
    }

    /// Attaches a liveness callback invoked with `(cycle,
    /// instructions_retired)` every [`DEFAULT_PROGRESS_EVERY`] cycles.
    /// Idle fast-forward clamps to the callback boundary, so the cadence
    /// holds even through fully quiescent stretches.
    pub fn set_progress_hook(&mut self, hook: ProgressHook<'w>) {
        self.progress = Some(hook);
    }

    /// Counts one pipeline lap when the profiler is enabled and, on a timed
    /// step, times it, re-basing the lap origin so consecutive calls
    /// partition the cycle.
    fn lap(&mut self, phase: Phase) {
        let Some(p) = self.profiler.as_deref_mut() else {
            return;
        };
        let nanos = self.lap_t.as_mut().map(|t0| {
            #[expect(clippy::disallowed_types, reason = "phase profiler only, never feeds stats")]
            let now = Instant::now();
            let nanos = u64::try_from(now.duration_since(*t0).as_nanos()).unwrap_or(u64::MAX);
            *t0 = now;
            nanos
        });
        p.add_sampled(phase, nanos);
    }

    /// Arms the cycle-level progress watchdog: every `epoch_cycles`, the
    /// machine compares a signature of its forward-progress counters
    /// (transactions issued, instructions retired, CTAs dispatched, L2 and
    /// DRAM traffic, flits moved) against the previous probe. No change
    /// while the machine is not idle means a livelock, and
    /// [`run_result`](GpuSystem::run_result) returns
    /// [`SimError::Livelock`] with a state dump instead of spinning to the
    /// cycle cap. The probe reads gauges only — statistics of a
    /// non-livelocked run are byte-identical with the watchdog on or off.
    pub fn set_watchdog(&mut self, epoch_cycles: u64) {
        self.watchdog_epoch = Some(epoch_cycles.max(1));
    }

    /// Sets a wall-clock budget for one [`run_result`](GpuSystem::run_result)
    /// call; checked at watchdog-epoch granularity, so arming the watchdog
    /// is what makes the deadline live. Exceeding it returns
    /// [`SimError::Deadline`].
    pub fn set_deadline_secs(&mut self, secs: u64) {
        self.deadline_secs = Some(secs);
    }

    /// Chaos/testing hook: from `cycle` on, every step advances the clock
    /// without doing any pipeline work, freezing all forward progress so
    /// the watchdog provably fires. Never enabled outside fault injection.
    pub fn inject_stall_from(&mut self, cycle: Cycle) {
        self.stall_from = Some(cycle);
    }

    /// True when the chaos stall is active at the current cycle.
    fn stalled(&self) -> bool {
        self.stall_from.is_some_and(|c| self.now >= c)
    }

    fn iter_cores(&self) -> impl Iterator<Item = &Core> {
        self.shards.iter().flat_map(|d| d.cores.iter())
    }

    fn iter_nodes(&self) -> impl Iterator<Item = &Dcl1Node> {
        self.shards.iter().flat_map(|d| d.nodes.iter())
    }

    fn iter_l2(&self) -> impl Iterator<Item = &L2Slice<Txn>> {
        self.shards.iter().flat_map(|d| d.l2.iter())
    }

    fn iter_noc1(&self) -> impl Iterator<Item = &Crossbar<Txn>> {
        self.shards.iter().flat_map(|d| d.noc1_req.iter().chain(d.noc1_rep.iter()))
    }

    fn iter_outbox(&self) -> impl Iterator<Item = &VecDeque<Txn>> {
        self.shards.iter().flat_map(|d| d.outbox.iter())
    }

    /// All per-core RTT meters folded in global core order (so the merge
    /// order — and therefore every floating-point mean — is independent of
    /// the partition).
    fn merged_meters(&self) -> CoreMeter {
        let mut m = CoreMeter::default();
        for d in &self.shards {
            for cm in &d.meters {
                m.load_rtt.merge(&cm.load_rtt);
                m.hit_rtt.merge(&cm.hit_rtt);
                m.miss_rtt.merge(&cm.miss_rtt);
                m.rtt_hist.merge(&cm.rtt_hist);
            }
        }
        m
    }

    /// Credits every sleeper what it is owed, so a reader sees the counters
    /// ticking every component would have produced (per core `instructions
    /// + stalls == measured cycles`, per crossbar its ticks) at any cycle.
    ///
    /// A chaos-stalled machine last stepped the cycle before its stall, so
    /// its sleepers are clocked through that cycle only: clocking them on
    /// would skip the wake-ups the frozen steps never ran.
    fn settle(&mut self) {
        let through = self.stall_from.map_or(self.now, |c| self.now.min(c.saturating_sub(1)));
        let GpuSystem { shards, rctx, noc2, .. } = self;
        shards.iter_mut().for_each(|d| d.settle(through, rctx));
        noc2.settle();
    }

    /// Wakes every sleeper, clocked and credited through the current cycle:
    /// the next step polls every component, as a machine that never slept
    /// would. Called every cycle, the reference tests hold sleeping to.
    pub fn wake_all(&mut self) {
        let GpuSystem { shards, rctx, noc2, mcs, channels_live, dram_clock, now, .. } = self;
        shards.iter_mut().for_each(|d| d.wake_all(*now, rctx));
        noc2.wake_all();
        for (i, mc) in mcs.iter_mut().enumerate() {
            if channels_live.insert(i) { mc.skip_idle_ticks(dram_clock.total_ticks() - mc.now()) }
        }
    }

    /// Per-core statistics (stall breakdowns alongside issue counts).
    pub fn core_stats(&mut self) -> Vec<CoreStats> {
        self.settle();
        self.iter_cores().map(|c| *c.stats()).collect()
    }

    /// Per node, its statistics and its tag array's; per crossbar (NoC#1,
    /// then NoC#2), the ticks it has been through.
    pub fn component_stats(&mut self) -> (Vec<(NodeStats, CacheStats)>, Vec<u64>) {
        self.settle();
        let nodes = self.iter_nodes().map(|n| (*n.stats(), *n.cache().stats())).collect();
        (nodes, self.iter_noc1().chain(self.noc2.xbars()).map(|x| x.stats().ticks).collect())
    }

    /// Cycles elapsed since statistics last reset (the measured window).
    pub fn measured_cycles(&self) -> u64 {
        self.now - self.stat_base_cycle
    }

    /// A stable digest of every counter that advances when the machine
    /// makes forward progress. Cheap (one pass over component stats) and
    /// only computed once per watchdog epoch.
    fn progress_signature(&self) -> u64 {
        let mut sig = checksum::FNV64_OFFSET;
        let mut mix = |v: u64| {
            sig ^= v;
            sig = sig.wrapping_mul(checksum::FNV64_PRIME);
        };
        mix(self.shards.iter().flat_map(|d| d.txn_seq.iter()).sum());
        mix(u64::from(self.dispatcher.remaining()));
        mix(self.iter_cores().map(|c| c.stats().instructions.get()).sum());
        mix(self.iter_nodes().map(|n| n.stats().accesses.get()).sum());
        mix(self.iter_l2().map(|s| s.stats().accesses.get()).sum());
        mix(self.mcs.iter().map(|m| m.stats().reads.get() + m.stats().writes.get()).sum());
        mix(self.iter_noc1().map(|x| x.stats().total_flits()).sum());
        mix(self.noc2.xbars().map(|x| x.stats().total_flits()).sum());
        mix(u64::from(self.warmup_done));
        sig
    }

    /// One watchdog probe: deadline first (cheap), then the no-progress
    /// check. On success, re-bases the probe window.
    #[expect(clippy::disallowed_types, reason = "deadline check only, never feeds stats")]
    fn watchdog_probe(&mut self, started: Option<Instant>) -> Result<(), SimError> {
        if let (Some(limit), Some(t0)) = (self.deadline_secs, started) {
            let elapsed = t0.elapsed();
            if elapsed > std::time::Duration::from_secs(limit) {
                return Err(SimError::Deadline {
                    elapsed_secs: elapsed.as_secs(),
                    limit_secs: limit,
                });
            }
        }
        let sig = self.progress_signature();
        if sig == self.watch_sig && !self.all_idle() {
            return Err(SimError::Livelock { cycle: self.now, dump: self.watchdog_dump() });
        }
        self.watch_cycle = self.now;
        self.watch_sig = sig;
        Ok(())
    }

    /// The diagnostic state dump attached to a livelock report: the
    /// pressure-point snapshot (queue depths, in-flight flits, stall
    /// counters) plus MSHR occupancy and the per-domain transaction
    /// flow-meter balance.
    fn watchdog_dump(&mut self) -> String {
        use std::fmt::Write;
        let mut s = self.debug_snapshot();
        let waiters: usize = self.iter_nodes().map(Dcl1Node::mshr_waiters).sum();
        writeln!(s, "node_mshr_waiters={waiters}").ok();
        let produced: u64 = self.shards.iter().map(|d| d.flow.produced()).sum();
        let consumed: u64 = self.shards.iter().map(|d| d.flow.consumed()).sum();
        writeln!(
            s,
            "txn_flow produced={produced} consumed={consumed} in_flight={} shards={}",
            produced - consumed,
            self.shards.len()
        )
        .ok();
        s
    }

    // ---------------------------------------------------------------
    // Per-cycle phases
    // ---------------------------------------------------------------

    fn dispatch_ctas(&mut self) {
        if self.dispatcher.remaining() == 0 {
            return;
        }
        // Deal CTAs one per core per round (GPGPU-Sim's round-robin issue
        // order), so small grids spread across all cores instead of
        // saturating the first few.
        let wpc = self.factory.wavefronts_per_cta();
        loop {
            let mut progress = false;
            for c in 0..self.cfg.cores {
                let d = shard::domain_of_core(&mut self.shards, c);
                let i = c - d.core0;
                if d.cores[i].can_host_cta(wpc as usize) {
                    let Some(cta) = self.dispatcher.fetch(CoreId::new(c)) else { continue };
                    let traces =
                        (0..wpc).map(|w| self.factory.wavefront_trace(cta, w)).collect();
                    // Dispatch precedes the cycle's issue pass.
                    d.wake_core(i, self.now - 1);
                    d.cores[i].add_cta(cta, traces);
                    progress = true;
                }
            }
            if !progress || self.dispatcher.remaining() == 0 {
                break;
            }
        }
    }

    /// Runs each of `regions` over every domain in domain order, closing
    /// a profiler lap per region. Regions touch only their own domain.
    fn run_regions(&mut self, regions: &[Region]) {
        for &region in regions {
            let GpuSystem { shards, rctx, presence, obs, now, .. } = self;
            for d in shards.iter_mut() {
                d.run_region(region, *now, rctx, presence, obs);
            }
            self.lap(region.phase());
        }
    }

    /// Replays every domain's presence log into the map, in domain
    /// (= global node) order.
    fn apply_presence(&mut self) {
        for d in &mut self.shards {
            d.plog.apply_to(&mut self.presence);
        }
    }

    /// L2 ↔ DRAM moves and DRAM ticks (machine-wide: memory controllers
    /// serve slices from every domain, in global slice order), over the
    /// slices with a DRAM access on offer and the channels with work. A
    /// refused access waits for the controller's next dequeue. A channel
    /// with only a read completing two or more ticks away sleeps to that
    /// tick.
    fn exchange_memory(&mut self) {
        let GpuSystem {
            shards,
            mcs,
            channels_live,
            dram_stash,
            dram_wait,
            dram_wheel,
            dram_clock,
            cfg,
            now,
            ..
        } = self;
        let spm = cfg.slices_per_mc();
        for d in shards.iter_mut() {
            let ShardDomain {
                slices,
                l2,
                slice0,
                visits,
                ..
            } = d;
            let mut offering = std::mem::take(&mut slices.dram);
            offering.retain(|i| {
                let (s, l2) = (*slice0 + i, &mut l2[i]);
                // L2 → DRAM (via stash).
                if dram_stash[s].is_none() {
                    dram_stash[s] = l2.pop_dram();
                }
                let offered = dram_stash[s];
                if let Some(acc) = offered {
                    let mc = s / spm;
                    if mcs[mc].can_accept() {
                        if channels_live.insert(mc) {
                            // Enqueues precede the cycle's DRAM ticks.
                            let slept = dram_clock.total_ticks() - mcs[mc].now();
                            mcs[mc].skip_idle_ticks(slept);
                        }
                        let payload = if acc.is_write { None } else { Some(s) };
                        mcs[mc]
                            .try_enqueue(acc.line, acc.is_write, payload)
                            .unwrap_or_else(|_| unreachable!("checked room"));
                        dram_stash[s] = None;
                    } else {
                        dram_wait.insert(s);
                    }
                }
                visits.visit(Visit::Slices, offered.is_some() && dram_stash[s].is_none());
                // Another access queued, none refused: on offer next cycle.
                let offers = dram_stash[s].is_none() && l2.dram_out_len() > 0;
                let idle = l2.is_idle() && dram_stash[s].is_none();
                visits.park(Visit::Slices, !offers && slices.on_no_walk(i), idle);
                offers
            });
            slices.dram = offering;
        }
        // DRAM domain.
        let ticks = dram_clock.total_ticks();
        for tick in ticks + 1..=ticks + u64::from(dram_clock.advance()) {
            while let Some(mc) = dram_wheel.pop_due(tick) {
                if channels_live.insert(mc as usize) {
                    let mc = &mut mcs[mc as usize];
                    mc.skip_idle_ticks(tick - 1 - mc.now());
                }
            }
            for mc in channels_live.iter() {
                let issued = mcs[mc].tick();
                let mut acted = issued;
                while let Some((line, slice)) = mcs[mc].pop_reply() {
                    // Fills follow the cycle's slice ticks.
                    shard::slice_filled(shards, slice, line, *now);
                    acted = true;
                }
                // So does the queue slot a dequeue frees.
                for s in (mc * spm..(mc + 1) * spm).filter(|_| issued) {
                    if dram_wait.contains(s) {
                        dram_wait.remove(s);
                        shard::retry_dram(shards, s);
                    }
                }
                shards[0].visits.visit(Visit::Channels, acted);
            }
        }
        let ticks = dram_clock.total_ticks();
        channels_live.retain(|mc| {
            let timed = mcs[mc].quiescent_horizon().filter(|h| (2..u64::MAX).contains(h));
            if let Some(h) = timed {
                dram_wheel.schedule(ticks, ticks + h, sleep::wheel_id(mc));
            }
            !shards[0].visits.park(Visit::Channels, timed.is_some() || mcs[mc].is_idle(), timed.is_none())
        });
    }

    // ---------------------------------------------------------------
    // Invariants, supervision, and the run loop
    // ---------------------------------------------------------------

    fn sweep_invariants(&mut self, at_drain: bool) {
        let Some(mut ck) = self.checker.take() else { return };
        ck.epochs_checked += 1;
        if let Err(e) = self.invariant_sweep(at_drain) {
            panic!(
                "checked-sim violation at cycle {}{}: {e}",
                self.now,
                if at_drain { " (drain)" } else { "" }
            );
        }
        self.checker = Some(ck);
    }

    /// The full conservation sweep (see [`crate::check`] for the laws).
    fn invariant_sweep(&self, at_drain: bool) -> dcl1_common::InvariantResult {
        use dcl1_common::InvariantError;
        // Transactions: the ledger is per execution domain (a request
        // issues and retires in the same domain), so the law is checked
        // shard-locally; the global law follows by summation.
        for (i, d) in self.shards.iter().enumerate() {
            d.flow.check(d.flow.in_flight()).map_err(|e| {
                InvariantError::new(format!("shard{i}.{}", e.site), e.detail)
            })?;
            if at_drain {
                d.flow.check_drained().map_err(|e| {
                    InvariantError::new(format!("shard{i}.{}", e.site), e.detail)
                })?;
            }
        }
        for (i, n) in self.iter_nodes().enumerate() {
            n.check_invariants(&format!("node{i}"))?;
        }
        for (i, s) in self.iter_l2().enumerate() {
            s.check_invariants(&format!("l2_{i}"))?;
        }
        for d in &self.shards {
            for (i, x) in d.noc1_req.iter().enumerate() {
                x.check_conservation(&format!("noc1_req{}", d.cluster0 + i))?;
            }
            for (i, x) in d.noc1_rep.iter().enumerate() {
                x.check_conservation(&format!("noc1_rep{}", d.cluster0 + i))?;
            }
        }
        for (i, x) in self.noc2.req_xbars().enumerate() {
            x.check_conservation(&format!("noc2_req{i}"))?;
        }
        for (i, x) in self.noc2.rep_xbars().enumerate() {
            x.check_conservation(&format!("noc2_rep{i}"))?;
        }
        // Occupancy sets: a component outside its set can do nothing, has
        // the event that ends that armed, and a clock no later than the
        // machine's.
        self.noc2.check_sleepers(&self.shards)?;
        let unarmed = |site: String| Err(InvariantError::new(site, "asleep with no wake armed"));
        for d in &self.shards {
            d.check_sleepers(self.now, &self.rctx)?;
            d.check_offers()?;
        }
        self.check_slices(self.now)?;
        let ticks = self.dram_clock.total_ticks();
        for (i, mc) in self.mcs.iter().enumerate() {
            match mc.quiescent_horizon().filter(|_| mc.now() <= ticks) {
                _ if self.channels_live.contains(i) => {}
                None => return Err(InvariantError::new(format!("mc{i}"), "asleep with work pending")),
                Some(h) if h == u64::MAX || self.dram_wheel.is_set(ticks, mc.now() + h, sleep::wheel_id(i)) => {}
                Some(_) => return unarmed(format!("mc{i}")),
            }
            if mc.queue_len() > self.cfg.dram.queue_depth {
                return Err(InvariantError::new(
                    format!("mc{i}"),
                    format!(
                        "queue occupancy {} exceeds depth {}",
                        mc.queue_len(),
                        self.cfg.dram.queue_depth
                    ),
                ));
            }
        }
        // Stall attribution: every measured core cycle is exactly one of
        // issue / classified stall / owed to a parked core — continuously,
        // not just at exit.
        let cycles = self.measured_cycles();
        let owed = self.shards.iter().flat_map(|d| {
            (0..d.cores.len())
                .map(|i| if d.cores_live.contains(i) { 0 } else { self.now - d.parked_at[i] })
        });
        for (i, (c, owed)) in self.iter_cores().zip(owed).enumerate() {
            let cs = c.stats();
            let instr = cs.instructions.get();
            let stall = cs.stall.total();
            if instr + stall + owed != cycles {
                return Err(InvariantError::new(
                    format!("core{i}"),
                    format!(
                        "stall partition: {instr} instructions + {stall} stalls \
                         + {owed} owed != {cycles} measured cycles"
                    ),
                ));
            }
            if stall != cs.idle_cycles.get() + cs.mem_stall_cycles.get() {
                return Err(InvariantError::new(
                    format!("core{i}"),
                    format!(
                        "stall breakdown {stall} != idle {} + mem-stall {}",
                        cs.idle_cycles.get(),
                        cs.mem_stall_cycles.get()
                    ),
                ));
            }
        }
        Ok(())
    }

    /// The coordinator's half of `ShardDomain::check_offers`, for the
    /// slices: one off the L2 → DRAM walk has nothing queued for DRAM, or
    /// a stashed access the controller refused; one off the reply walk has
    /// a stashed reply the fabric refused, or none stashed and no head
    /// reply that pops at the next inject (which sees the slices clocked
    /// through `clock`), with the alarm of the cycle after it is ready set
    /// if one brews.
    ///
    /// # Errors
    ///
    /// Returns the first slice found with something to offer off a walk,
    /// or a brewing reply with no alarm.
    fn check_slices(&self, clock: Cycle) -> dcl1_common::InvariantResult {
        for d in &self.shards {
            for (i, l2) in d.l2.iter().enumerate() {
                let s = d.slice0 + i;
                let dram = match self.dram_stash[s] {
                    Some(_) => !self.dram_wait.contains(s),
                    None => l2.dram_out_len() > 0,
                };
                if dram && !d.slices.dram.contains(i) {
                    return Err(sleep::off_walk(format!("l2_{s}")));
                }
                if d.slices.reply.contains(i) {
                    continue;
                }
                let head = match self.noc2.stash_offers(s) {
                    Some(offers) => offers.then_some(clock),
                    None => l2.next_reply_in().map(|h| l2.now() + h),
                };
                let alarm = |ready: Cycle| {
                    d.wheel
                        .is_set(self.now, ready + 1, sleep::alarm_id(Alarm::Slice, i))
                };
                match head {
                    Some(ready) if ready <= clock => {
                        return Err(sleep::off_walk(format!("l2_{s}")))
                    }
                    Some(ready) if !alarm(ready) => {
                        let site = format!("l2_{s}");
                        return Err(dcl1_common::InvariantError::new(
                            site,
                            "asleep with no wake armed",
                        ));
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }

    fn all_idle(&self) -> bool {
        self.dispatcher.remaining() == 0
            && self.iter_cores().all(Core::is_drained)
            && self.iter_outbox().all(VecDeque::is_empty)
            && self.iter_nodes().all(Dcl1Node::is_idle)
            && self.iter_noc1().all(Crossbar::is_idle)
            && self.noc2.is_idle()
            && self.iter_l2().all(L2Slice::is_idle)
            && self.dram_stash.iter().all(Option::is_none)
            && self.mcs.iter().all(MemoryController::is_idle)
    }

    /// Runs the kernel to completion (or the cycle cap) and returns the
    /// collected statistics.
    ///
    /// Historical never-fails entry point: with the watchdog disarmed
    /// (the default) [`run_result`](GpuSystem::run_result) cannot fail,
    /// and an armed watchdog firing here means a genuine hang — panicking
    /// with the diagnostic is strictly better than spinning to the cycle
    /// cap. Supervised callers use `run_result` and recover instead.
    pub fn run(&mut self) -> RunStats {
        self.run_result().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs the kernel to completion (or the cycle cap) under the
    /// supervision configured by [`set_watchdog`](GpuSystem::set_watchdog)
    /// and [`set_deadline_secs`](GpuSystem::set_deadline_secs).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Livelock`] when an armed watchdog observes a
    /// full epoch with no forward progress while the machine is not idle,
    /// and [`SimError::Deadline`] when the wall-clock budget is exceeded.
    /// With neither configured, this never fails.
    pub fn run_result(&mut self) -> Result<RunStats, SimError> {
        // A tracing observer records per-transaction hops in phase order;
        // keep that stream identical to the historical one-domain machine
        // by running tracing runs on one domain.
        if self.obs.tracing() && self.shards.len() > 1 {
            self.set_shards(1);
        }
        #[expect(clippy::disallowed_types, reason = "deadline check only, never feeds stats")]
        let started = self.deadline_secs.map(|_| Instant::now());
        self.watch_cycle = self.now;
        self.watch_sig = self.progress_signature();
        while self.now < self.opts.max_cycles {
            self.step();
            if !self.warmup_done && self.opts.warmup_instructions > 0 && self.now.is_multiple_of(64) {
                let retired: u64 =
                    self.iter_cores().map(|c| c.stats().instructions.get()).sum();
                if retired >= self.opts.warmup_instructions {
                    self.reset_statistics();
                }
            }
            if self.now.is_multiple_of(64) && self.all_idle() {
                break;
            }
            if let Some(epoch) = self.watchdog_epoch {
                if self.now.saturating_sub(self.watch_cycle) >= epoch {
                    self.watchdog_probe(started)?;
                }
            }
            if self.opts.fast_forward {
                self.fast_forward();
            }
        }
        if self.checker.is_some() && self.all_idle() {
            self.sweep_invariants(true);
        }
        if !self.obs.is_off() {
            if let Err(e) = self.obs.finish(self.now) {
                eprintln!("warning: failed to flush observability sinks: {e}");
            }
        }
        // Final pull snapshot at drain — this is the one reports read.
        self.settle();
        self.record_registry();
        Ok(self.collect_stats())
    }

    /// Advances exactly one core cycle.
    pub fn step(&mut self) {
        self.now += 1;
        if self.stalled() {
            // Chaos stall: the clock runs but no phase does work, which is
            // exactly the no-progress shape the watchdog must catch.
            return;
        }
        self.steps += 1;
        // The profiler reads the clock on the last step of each stride
        // only (not the first: a point's first step dispatches every core's
        // CTAs into cold caches), and counts every step's laps.
        let timed = self.profiler.is_some() && self.steps.is_multiple_of(LAP_STRIDE);
        #[expect(clippy::disallowed_types, reason = "phase profiler only, never feeds stats")]
        let lap_t = timed.then(Instant::now);
        self.lap_t = lap_t;
        self.dispatch_ctas();
        self.run_regions(match self.topo.attachment {
            Attachment::Noc1 { .. } => &[Region::Issue, Region::Noc1],
            Attachment::Direct => &[Region::Issue],
        });
        debug_assert_eq!(self.check_slices(self.now - 1), Ok(()));
        let GpuSystem { noc2, shards, obs, now, .. } = self;
        noc2.inject_requests(shards, obs, *now);
        noc2.inject_replies(shards, obs, *now);
        noc2.tick(shards, obs, *now);
        self.lap(Phase::Noc1);
        self.run_regions(&[Region::Mem]);
        self.apply_presence();
        self.exchange_memory();
        self.lap(Phase::Exchange);
        if self.now.is_multiple_of(self.opts.replica_sample_interval)
            && self.presence.distinct_lines() > 0
        {
            self.replica_samples.record(self.presence.mean_replicas());
        }
        if let Some(ivl) = self.obs.metrics_interval() {
            if self.now.is_multiple_of(ivl) {
                let sample = self.metrics_sample();
                self.obs.record_metrics(&sample);
            }
        }
        if self.metrics.is_some() && self.now.is_multiple_of(REGISTRY_RECORD_CYCLES) {
            self.record_registry();
        }
        if self.progress.is_some() && self.now.is_multiple_of(self.progress_every) {
            let retired: u64 = self.iter_cores().map(|c| c.stats().instructions.get()).sum();
            let now = self.now;
            if let Some(h) = &mut self.progress {
                (h.0)(now, retired);
            }
        }
        if self.checker.is_some() && self.now.is_multiple_of(EPOCH_CYCLES) {
            self.sweep_invariants(false);
        }
    }

    /// When the whole machine is quiescent — no queued or staged
    /// transaction anywhere, no ready wavefront, no dispatchable CTA — the
    /// only thing [`step`](GpuSystem::step) does is advance clocks until a
    /// fixed-latency timer fires: an ALU busy interval expires, a cache hit
    /// matures in a node's hit pipe, an L2 reply's latency elapses, or a
    /// DRAM burst completes. This jumps `now` directly to the cycle before
    /// the earliest such event (the event cycle itself is then stepped
    /// normally), advancing every component clock by exactly the amount
    /// that many do-nothing steps would have.
    ///
    /// The jump never crosses a replica-sample cycle, a pending warmup
    /// probe, or the cycle cap, so statistics are bit-identical to
    /// stepping.
    fn fast_forward(&mut self) {
        if self.stalled() {
            // Chaos stall: never jump the clock past the no-progress
            // window the watchdog is supposed to observe.
            return;
        }
        // `horizon` = steps until the earliest event fires (that step must
        // execute normally). Only a component in a set can hold work or a
        // timer. Cheapest tests first, so active phases bail out fast.
        // A crossbar awake holds a packet — as does any crossbar a sleeper
        // awaits a grant from.
        if self.noc2.awake() {
            return;
        }
        let mut horizon = u64::MAX;
        for d in &self.shards {
            // A slice with anything on offer has work next cycle; a
            // brewing reply's alarm is in the wheel.
            let offers = [
                &d.outbox_wait,
                &d.xbars_live,
                &d.slices.tick,
                &d.slices.reply,
                &d.slices.dram,
            ];
            if offers.iter().any(|set| !set.is_empty()) {
                return;
            }
            for ni in d.nodes_live.iter() {
                match d.nodes[ni].quiescent_horizon() {
                    None => return,
                    Some(h) => horizon = horizon.min(h),
                }
            }
        }
        for mc in self.channels_live.iter() {
            match self.mcs[mc].quiescent_horizon() {
                None => return,
                Some(u64::MAX) => {}
                // A mature reply (t = 0) is picked up at the next DRAM
                // tick, so it still needs one more tick's worth of cycles.
                Some(t) => horizon = horizon.min(self.dram_clock.cycles_until_ticks(t.max(1))),
            }
        }
        let now = self.now;
        for d in &mut self.shards {
            for i in d.cores_live.iter() {
                if !d.outbox[i].is_empty() {
                    return;
                }
                match d.cores[i].blocked_until(now) {
                    None => return,
                    Some(Cycle::MAX) => {}
                    Some(until) => horizon = horizon.min(until - now),
                }
            }
        }
        if self.dispatcher.remaining() > 0 {
            let wpc = self.factory.wavefronts_per_cta() as usize;
            if self.iter_cores().any(|c| c.can_host_cta(wpc)) {
                return;
            }
        }
        // The timed sleepers: the step an alarm rings in must execute.
        for at in self.shards.iter().filter_map(|d| d.wheel.next_due(self.now)) {
            horizon = horizon.min(at - self.now);
        }
        let ticks = self.dram_clock.total_ticks();
        if let Some(at) = self.dram_wheel.next_due(ticks) {
            horizon = horizon.min(self.dram_clock.cycles_until_ticks(at - ticks));
        }

        let mut skip = if horizon == u64::MAX {
            // No timer pending anywhere: everything left is drained (or
            // wedged, which the cycle cap bounds). Land the next step on
            // the 64-cycle idle probe so `run` can exit.
            63 - self.now % 64
        } else {
            horizon - 1
        };
        // Never jump over a cycle that does observable work.
        skip = skip.min(self.opts.max_cycles - 1 - self.now);
        let ivl = self.opts.replica_sample_interval;
        skip = skip.min(ivl - 1 - self.now % ivl);
        if let Some(mivl) = self.obs.metrics_interval() {
            // The sampler is itself a timer event: land the next step on the
            // sampling boundary so quiescent snapshots are still recorded.
            skip = skip.min(mivl - 1 - self.now % mivl);
        }
        if !self.warmup_done && self.opts.warmup_instructions > 0 {
            skip = skip.min(63 - self.now % 64);
        }
        if self.progress.is_some() {
            // Keep the liveness callback cadence alive through quiescent
            // stretches (a skipped cycle does no work, so the snapshot at
            // the boundary is bit-identical to stepping there).
            let every = self.progress_every;
            skip = skip.min(every - 1 - self.now % every);
        }
        if skip == 0 {
            return;
        }

        // Sleepers — every crossbar among them — are left behind; whoever
        // wakes one clocks it through.
        self.now += skip;
        for d in &mut self.shards {
            for i in d.cores_live.iter() {
                d.cores[i].add_idle_cycles(skip);
            }
            for ni in d.nodes_live.iter() {
                d.nodes[ni].skip_cycles(skip);
            }
        }
        self.noc2.skip_idle_cycles(skip);
        let tm = self.dram_clock.advance_by(skip);
        for mc in self.channels_live.iter() {
            self.mcs[mc].skip_idle_ticks(tm);
        }
    }

    /// Ends the warmup phase: zeroes every statistic while leaving all
    /// architectural state (cache contents, queues, in-flight traffic)
    /// intact, so the measured phase starts from a warm machine. The
    /// transaction flow meters and sequence counters are architectural
    /// (conservation spans warmup), so they are deliberately not reset.
    pub fn reset_statistics(&mut self) {
        self.warmup_done = true;
        self.stat_base_cycle = self.now;
        // What a sleeper was owed belongs to the discarded window.
        self.settle();
        for d in &mut self.shards {
            for c in &mut d.cores {
                c.reset_stats();
            }
            for n in &mut d.nodes {
                n.reset_stats();
            }
            for x in d.noc1_req.iter_mut().chain(d.noc1_rep.iter_mut()) {
                x.reset_stats();
            }
            for l2 in &mut d.l2 {
                l2.reset_stats();
            }
            for m in &mut d.meters {
                *m = CoreMeter::default();
            }
        }
        self.noc2.reset_stats();
        for mc in &mut self.mcs {
            mc.reset_stats();
        }
        self.replica_samples = RunningMean::default();
    }

    /// Snapshots every machine-wide occupancy gauge for the metrics stream.
    fn metrics_sample(&self) -> MetricsSample {
        MetricsSample {
            cycle: self.now,
            outbox_depth: self.iter_outbox().map(VecDeque::len).sum::<usize>() as u64,
            node_q1: self.iter_nodes().map(Dcl1Node::q1_len).sum::<usize>() as u64,
            node_q2: self.iter_nodes().map(Dcl1Node::q2_len).sum::<usize>() as u64,
            node_q3: self.iter_nodes().map(Dcl1Node::q3_len).sum::<usize>() as u64,
            node_q4: self.iter_nodes().map(Dcl1Node::q4_len).sum::<usize>() as u64,
            node_mshr: self.iter_nodes().map(Dcl1Node::mshr_waiters).sum::<usize>() as u64,
            node_hit_pipe: self.iter_nodes().map(Dcl1Node::hit_pipe_len).sum::<usize>() as u64,
            noc1_req_inflight: self
                .shards
                .iter()
                .flat_map(|d| d.noc1_req.iter())
                .map(Crossbar::in_flight)
                .sum::<usize>() as u64,
            noc1_rep_inflight: self
                .shards
                .iter()
                .flat_map(|d| d.noc1_rep.iter())
                .map(Crossbar::in_flight)
                .sum::<usize>() as u64,
            noc2_req_inflight: self.noc2.req_xbars().map(Crossbar::in_flight).sum::<usize>() as u64,
            noc2_rep_inflight: self.noc2.rep_xbars().map(Crossbar::in_flight).sum::<usize>() as u64,
            noc1_flits: self.iter_noc1().map(|x| x.stats().total_flits()).sum(),
            noc2_flits: self.noc2.xbars().map(|x| x.stats().total_flits()).sum(),
            l2_input: self.iter_l2().map(L2Slice::input_len).sum::<usize>() as u64,
            l2_mshr: self.iter_l2().map(L2Slice::mshr_len).sum::<usize>() as u64,
            l2_replies: self.iter_l2().map(L2Slice::replies_pending).sum::<usize>() as u64,
            dram_queue: self.mcs.iter().map(MemoryController::queue_len).sum::<usize>() as u64,
            dram_replies: self.mcs.iter().map(MemoryController::replies_pending).sum::<usize>()
                as u64,
            active_wavefronts: self.iter_cores().map(Core::resident_wavefronts).sum::<usize>()
                as u64,
            waiting_wavefronts: self.iter_cores().map(Core::waiting_wavefronts).sum::<usize>()
                as u64,
            instructions: self.iter_cores().map(|c| c.stats().instructions.get()).sum(),
            shards: self.shards.len() as u64,
        }
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// A human-readable dump of internal pressure points (stall counters,
    /// queue rejections, in-flight packets) for performance debugging.
    pub fn debug_snapshot(&mut self) -> String {
        use std::fmt::Write;
        self.settle();
        let mut s = String::new();
        let idle: u64 = self.iter_cores().map(|c| c.stats().idle_cycles.get()).sum();
        let mstall: u64 = self.iter_cores().map(|c| c.stats().mem_stall_cycles.get()).sum();
        let instr: u64 = self.iter_cores().map(|c| c.stats().instructions.get()).sum();
        writeln!(s, "cycle={} instr={} core_idle={} core_mem_stall={}", self.now, instr, idle, mstall).ok();
        let stall = |f: fn(&dcl1_gpu::StallBreakdown) -> u64| -> u64 {
            self.iter_cores().map(|c| f(&c.stats().stall)).sum()
        };
        writeln!(
            s,
            "stall drained={} alu_busy={} fill_wait={} mem_outbox={} mem_l1_queue={} mem_noc={}",
            stall(|b| b.drained.get()),
            stall(|b| b.alu_busy.get()),
            stall(|b| b.fill_wait.get()),
            stall(|b| b.mem_outbox.get()),
            stall(|b| b.mem_l1_queue.get()),
            stall(|b| b.mem_noc.get())
        )
        .ok();
        let nstall: u64 = self.iter_nodes().map(|n| n.stats().stall_cycles.get()).sum();
        let nacc: u64 = self.iter_nodes().map(|n| n.stats().accesses.get()).sum();
        writeln!(s, "node_accesses={} node_stalls={} outbox_pending={}", nacc, nstall,
            self.iter_outbox().map(VecDeque::len).sum::<usize>()).ok();
        let n1r: usize =
            self.shards.iter().flat_map(|d| d.noc1_req.iter()).map(Crossbar::in_flight).sum();
        let n1p: usize =
            self.shards.iter().flat_map(|d| d.noc1_rep.iter()).map(Crossbar::in_flight).sum();
        writeln!(s, "noc1_req_inflight={} noc1_rep_inflight={}", n1r, n1p).ok();
        let n2r: usize = self.noc2.req_xbars().map(Crossbar::in_flight).sum();
        let n2p: usize = self.noc2.rep_xbars().map(Crossbar::in_flight).sum();
        writeln!(s, "noc2_req_inflight={} noc2_rep_inflight={}", n2r, n2p).ok();
        let l2acc: u64 = self.iter_l2().map(|x| x.stats().accesses.get()).sum();
        let l2miss: u64 = self.iter_l2().map(|x| x.stats().misses.get()).sum();
        writeln!(s, "l2_accesses={} l2_misses={} reply_stash={} dram_stash={}", l2acc, l2miss,
            self.noc2.stashed_replies(),
            self.dram_stash.iter().filter(|o| o.is_some()).count()).ok();
        let l2q: usize = self.iter_l2().map(L2Slice::input_len).sum();
        let l2m: usize = self.iter_l2().map(L2Slice::mshr_len).sum();
        let l2d: usize = self.iter_l2().map(L2Slice::dram_out_len).sum();
        let l2p: usize = self.iter_l2().map(L2Slice::replies_pending).sum();
        let dq: usize = self.mcs.iter().map(MemoryController::queue_len).sum();
        let dp: usize = self.mcs.iter().map(MemoryController::replies_pending).sum();
        writeln!(s, "l2_input={} l2_mshr={} l2_dram_out={} l2_replies={} dram_q={} dram_replies={}",
            l2q, l2m, l2d, l2p, dq, dp).ok();
        let dr: u64 = self.mcs.iter().map(|m| m.stats().reads.get() + m.stats().writes.get()).sum();
        let meters = self.merged_meters();
        writeln!(
            s,
            "dram_reqs={} mean_load_rtt={:.1} hit_rtt={:.1}({}) miss_rtt={:.1}({})",
            dr,
            meters.load_rtt.mean(),
            meters.hit_rtt.mean(),
            meters.hit_rtt.count(),
            meters.miss_rtt.mean(),
            meters.miss_rtt.count()
        )
        .ok();
        // What a step costs: component visits the walks made, by class,
        // and how many of them moved anything.
        let mut v = Census::default();
        self.shards.iter().for_each(|d| v.merge(&d.visits));
        write!(s, "steps={} visits={}", self.steps, v.made.iter().sum::<u64>()).ok();
        // `Visit` order.
        for (i, class) in ["cores", "outboxes", "xbars", "nodes", "slices", "channels"].iter().enumerate() {
            write!(s, " visit_{class}={} acted_{class}={} parked_{class}={}", v.made[i], v.acted[i], v.parked[i])
                .ok();
        }
        s.push('\n');
        s
    }

    fn collect_stats(&self) -> RunStats {
        let cycles = self.now - self.stat_base_cycle;
        let instructions =
            self.iter_cores().map(|c| c.stats().instructions.get()).sum::<u64>();
        let l1_accesses = self.iter_nodes().map(|n| n.stats().accesses.get()).sum();
        let l1_hits = self.iter_nodes().map(|n| n.stats().hits.get()).sum();
        let l1_misses = self.iter_nodes().map(|n| n.stats().misses.get()).sum();
        let l1_replicated_misses =
            self.iter_nodes().map(|n| n.stats().replicated_misses.get()).sum();
        let per_node_accesses: Vec<u64> =
            self.iter_nodes().map(|n| n.stats().accesses.get()).collect();
        let utils: Vec<f64> = per_node_accesses
            .iter()
            .map(|&a| if cycles == 0 { 0.0 } else { a as f64 / cycles as f64 })
            .collect();
        let max_port_utilization = utils.iter().copied().fold(0.0, f64::max);
        let mean_port_utilization = dcl1_common::stats::mean(&utils);

        // Reply-link utilization toward the L1 level (Fig 2 / Fig 17).
        let max_reply_link_utilization = self.noc2.max_reply_link_utilization();

        let l2_accesses = self.iter_l2().map(|s| s.stats().accesses.get()).sum();
        let l2_misses = self.iter_l2().map(|s| s.stats().misses.get()).sum();
        let dram_requests = self
            .mcs
            .iter()
            .map(|m| m.stats().reads.get() + m.stats().writes.get())
            .sum();
        let dram_hits: u64 = self.mcs.iter().map(|m| m.stats().row_hits.get()).sum();
        let dram_row_hit_rate =
            if dram_requests == 0 { 0.0 } else { dram_hits as f64 / dram_requests as f64 };

        // Flit counts aligned with Topology::noc_spec entry order.
        let mut noc_flits = Vec::new();
        if matches!(self.topo.attachment, Attachment::Noc1 { .. }) {
            let f: u64 = self.iter_noc1().map(|x| x.stats().total_flits()).sum();
            noc_flits.push(f);
        }
        noc_flits.extend(self.noc2.flits_per_spec_entry());

        let meters = self.merged_meters();
        RunStats {
            design: self.topo.name.clone(),
            cycles,
            instructions,
            l1_accesses,
            l1_hits,
            l1_misses,
            l1_replicated_misses,
            mean_replicas: self.replica_samples.mean(),
            max_port_utilization,
            mean_port_utilization,
            max_reply_link_utilization,
            mean_load_rtt: meters.load_rtt.mean(),
            p50_load_rtt: meters.rtt_hist.percentile(0.5),
            p95_load_rtt: meters.rtt_hist.percentile(0.95),
            p99_load_rtt: meters.rtt_hist.percentile(0.99),
            l2_accesses,
            l2_misses,
            dram_requests,
            dram_row_hit_rate,
            noc_flits,
            per_node_accesses,
            stall_drained: self.iter_cores().map(|c| c.stats().stall.drained.get()).sum(),
            stall_alu_busy: self.iter_cores().map(|c| c.stats().stall.alu_busy.get()).sum(),
            stall_fill_wait: self.iter_cores().map(|c| c.stats().stall.fill_wait.get()).sum(),
            stall_mem_outbox: self.iter_cores().map(|c| c.stats().stall.mem_outbox.get()).sum(),
            stall_mem_l1_queue: self
                .iter_cores()
                .map(|c| c.stats().stall.mem_l1_queue.get())
                .sum(),
            stall_mem_noc: self.iter_cores().map(|c| c.stats().stall.mem_noc.get()).sum(),
            l1_mshr_stall_cycles: self
                .iter_nodes()
                .map(|n| n.stats().mshr_stall_cycles.get())
                .sum(),
            l1_queue_stall_cycles: self
                .iter_nodes()
                .map(|n| n.stats().q3_stall_cycles.get())
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcl1_gpu::{TraceSource, VecTrace};

    #[derive(Debug)]
    struct NoKernel;

    impl TraceFactory for NoKernel {
        fn wavefront_trace(&self, _cta: u32, _wf: u32) -> Box<dyn TraceSource> {
            Box::new(VecTrace::new(Vec::new()))
        }
        fn total_ctas(&self) -> u32 {
            0
        }
        fn wavefronts_per_cta(&self) -> u32 {
            1
        }
    }

    /// The partition contract every region relies on: whatever shard count
    /// is requested, each cluster's cores, nodes and both NoC#1 crossbars
    /// land in one domain, so issue-side injection, NoC#1 ejection and the
    /// reply drain never reach outside their own domain.
    #[test]
    fn every_cluster_lands_in_one_domain() {
        let cfg = GpuConfig::default();
        let catalog = [
            "baseline", "baseline+2xl1", "baseline+2xnoc", "baseline+4xflit", "ideal", "cdxbar",
            "cdxbar+2xnoc", "pr80", "pr40", "pr20", "pr10", "pr4", "sh40", "sh16", "sh40+c5",
            "sh40+c10", "sh40+c10+boost", "sh40+c20", "sh16+c8+boost",
        ];
        for name in catalog {
            let design: Design = name.parse().unwrap_or_else(|e| panic!("{name}: {e}"));
            let mut sys = GpuSystem::build(&cfg, &design, &NoKernel, SimOptions::default())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let topo = sys.topology().clone();
            let (cpc, m) = (topo.cores_per_cluster(), topo.nodes_per_cluster());
            for n in 1..=8 {
                sys.set_shards(n);
                assert_eq!(sys.shards(), n.min(topo.clusters), "{name} at {n}: domain count");
                for k in 0..topo.clusters {
                    let d = shard::domain_of_core(&mut sys.shards, k * cpc);
                    let within =
                        |lo: usize, hi: usize, d0: usize, len: usize| d0 <= lo && hi <= d0 + len;
                    assert!(
                        within(k * cpc, (k + 1) * cpc, d.core0, d.cores.len()),
                        "{name} at {n}: cluster {k}'s cores span domains"
                    );
                    assert!(
                        within(k * m, (k + 1) * m, d.node0, d.nodes.len()),
                        "{name} at {n}: cluster {k}'s nodes left its cores' domain"
                    );
                    let xbars = match topo.attachment {
                        Attachment::Noc1 { .. } => within(k, k + 1, d.cluster0, d.noc1_req.len()),
                        Attachment::Direct => d.noc1_req.is_empty(),
                    };
                    assert!(
                        xbars && d.noc1_req.len() == d.noc1_rep.len(),
                        "{name} at {n}: cluster {k}'s crossbars left its cores' domain"
                    );
                }
            }
        }
    }
}
