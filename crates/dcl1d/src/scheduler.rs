//! The daemon core: admission, and a worker pool over the multi-tenant
//! job queue.
//!
//! A submitted point whose result the session's memory tier already holds
//! completes at admission, inside its own [`Daemon::submit_jobs`]: the
//! connection thread looks it up before taking the core lock, then, under
//! the lock, gives it a job id, journals its accept and done records,
//! counts it against its tenant and files it in the tenant's ledger — the
//! same `Core::record_completion` a worker's job goes through. It takes
//! no queue slot and no worker, so priorities and quotas, which ration
//! those, do not apply to it; it reaches the progress stream as a
//! `started` and a tenant `completed` line. A point that must actually
//! run — the session is in check mode, or chaos is armed for it — is
//! never answered this way, and a miss goes to the queue.
//!
//! Fault isolation is the organizing principle of the rest. Each job runs
//! under the full supervision stack (`dcl1_resilience::contain` via
//! `SweepSession::run_point`) *on the worker's own thread*, with the
//! owning tenant's chaos seed and deadline passed in as the job's
//! `TenantScope` — so one tenant's injected faults, livelocks, or
//! panics are contained to that tenant's jobs and can never leak into
//! another tenant's runs or take a worker down. Workers survive
//! quarantines: a job that panics, livelocks or passes its deadline is
//! run once, recorded against its tenant as failed, and the worker moves
//! on.
//!
//! Every accept is journaled before it is acknowledged — a submit's
//! records in one write — so a `kill -9` resumes exactly the
//! accepted-but-unfinished set on restart; re-run jobs are served from the
//! result-store tiers rather than recomputed.

use crate::qjournal::{self, QueueJournal, QueueOp};
use crate::queue::{JobQueue, JobSpec, Quotas, Verdict};
use dcl1::{Design, GpuConfig, RunStats, SimOptions};
use dcl1_bench::ledger::ResultLedger;
use dcl1_bench::runner::{RunRequest, Served, SweepSession, TenantScope};
use dcl1_bench::Scale;
use dcl1_obs::json::escape;
use dcl1_obs::progress::{ProgressEvent, ProgressSink, ProgressStage};
use dcl1_obs::registry::{CounterId, GaugeId, Registry};
use dcl1_resilience::QuarantineRecord;
use dcl1_workloads::by_name;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Daemon configuration, fixed at launch.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Simulation scale every job runs at.
    pub scale: Scale,
    /// Admission quotas.
    pub quotas: Quotas,
    /// Queue-journal path; `None` disables crash-safe queueing.
    pub journal: Option<PathBuf>,
    /// Replay the journal at launch and re-enqueue unfinished jobs.
    pub resume: bool,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            workers: 2,
            scale: Scale::from_env(),
            quotas: Quotas::default(),
            journal: None,
            resume: false,
        }
    }
}

/// What a journal replay recovered, surfaced in `status` replies.
#[derive(Debug, Default, Clone)]
pub struct ResumeSummary {
    /// Intact accept records seen.
    pub accepted: usize,
    /// Jobs that had already finished — not re-run.
    pub done: usize,
    /// Jobs cancelled before the crash.
    pub cancelled: usize,
    /// Jobs re-enqueued for execution.
    pub pending: usize,
    /// Torn or corrupt journal lines skipped.
    pub torn: usize,
}

/// Per-tenant counter ids in the tenant's private [`Registry`].
struct TenantCounters {
    completed: CounterId,
    quarantined: CounterId,
    simulated: CounterId,
    mem_hits: CounterId,
    disk_hits: CounterId,
    shared_hits: CounterId,
    shed: CounterId,
    rejected: CounterId,
    cancelled: CounterId,
    resumed: CounterId,
    queued: GaugeId,
    inflight: GaugeId,
}

/// Everything the daemon tracks about one tenant. Registries are
/// per-tenant so counter namespaces cannot bleed across tenants. The
/// ledger owns the tenant's results as dump chunks, and shares the
/// store's `Arc` of each label's latest result rather than copying it.
struct TenantState {
    registry: Registry,
    ids: TenantCounters,
    ledger: ResultLedger,
    quarantined: Vec<QuarantineRecord>,
    inflight: usize,
}

impl TenantState {
    fn fresh() -> TenantState {
        let mut registry = Registry::new();
        let ids = TenantCounters {
            completed: registry.counter("tenant.completed"),
            quarantined: registry.counter("tenant.quarantined"),
            simulated: registry.counter("tenant.simulated"),
            mem_hits: registry.counter("tenant.mem_hits"),
            disk_hits: registry.counter("tenant.disk_hits"),
            shared_hits: registry.counter("tenant.shared_hits"),
            shed: registry.counter("tenant.shed"),
            rejected: registry.counter("tenant.rejected"),
            cancelled: registry.counter("tenant.cancelled"),
            resumed: registry.counter("tenant.resumed"),
            queued: registry.gauge("tenant.queued"),
            inflight: registry.gauge("tenant.inflight"),
        };
        TenantState {
            registry,
            ids,
            ledger: ResultLedger::default(),
            quarantined: Vec::new(),
            inflight: 0,
        }
    }
}

/// Mutable daemon state, guarded by the core mutex.
struct Core {
    queue: JobQueue,
    tenants: BTreeMap<String, TenantState>,
    inflight_total: usize,
    accepted_total: u64,
    draining: bool,
    shutdown: bool,
    journal: Option<QueueJournal>,
    resume: ResumeSummary,
}

impl Core {
    fn tenant_mut(&mut self, name: &str) -> &mut TenantState {
        // Looked up before `entry`, which would allocate the key each time.
        if !self.tenants.contains_key(name) {
            self.tenants.insert(name.to_string(), TenantState::fresh());
        }
        self.tenants.get_mut(name).expect("inserted above")
    }

    /// Stages one journal record; [`Core::commit_journal`] writes it.
    fn log(&mut self, op: QueueOp, id: u64, payload: &str) {
        if let Some(j) = &mut self.journal {
            j.stage(op, id, payload);
        }
    }

    /// Writes every staged journal record in one write. Called before the
    /// lock is released, so the file's order is the order of decisions.
    fn commit_journal(&mut self) {
        if let Some(j) = &mut self.journal {
            // An unwritable journal must not wedge the queue; the loss is
            // only of crash-resume fidelity, and the daemon keeps serving.
            let _ = j.commit();
        }
    }

    /// Files one finished job — a worker's, or a hit answered at
    /// admission: its `done` record, its tenant's counters, and its
    /// statistics in the tenant's ledger or its quarantine record in the
    /// tenant's list.
    fn record_completion(
        &mut self,
        id: u64,
        tenant: &str,
        label: &str,
        outcome: Result<Served, QuarantineRecord>,
    ) {
        match outcome {
            Ok(served) => {
                self.log(QueueOp::Done, id, "completed");
                let state = self.tenant_mut(tenant);
                let c = state.ids.completed;
                state.registry.inc(c);
                let provenance = match served.source {
                    "memo" => Some(state.ids.mem_hits),
                    "disk" => Some(state.ids.disk_hits),
                    "shared" => Some(state.ids.shared_hits),
                    "simulated" => Some(state.ids.simulated),
                    _ => None,
                };
                if let Some(cid) = provenance {
                    state.registry.inc(cid);
                }
                state.ledger.push(label, &served.stats);
            }
            Err(rec) => {
                self.log(QueueOp::Done, id, &format!("quarantined:{}", rec.class));
                let state = self.tenant_mut(tenant);
                let c = state.ids.quarantined;
                state.registry.inc(c);
                state.quarantined.push(rec);
            }
        }
    }

    fn refresh_gauges(&mut self, tenant: &str) {
        let depth = self.queue.tenant_depth(tenant);
        let state = self.tenant_mut(tenant);
        let (q, f) = (state.ids.queued, state.ids.inflight);
        state.registry.set(q, depth as u64);
        state.registry.set(f, state.inflight as u64);
    }
}

/// The daemon: shared core behind a mutex, the two condition variables
/// that sequence dispatch (`work_ready`) and drain (`all_idle`), and the
/// session every job runs on.
pub struct Daemon {
    core: Mutex<Core>,
    work_ready: Condvar,
    all_idle: Condvar,
    cfg: DaemonConfig,
    sink: Option<Arc<ProgressSink>>,
    session: Arc<SweepSession>,
}

impl Daemon {
    /// Builds the daemon on `session`, replays the journal when resuming,
    /// and spawns the worker pool (detached threads; they exit on
    /// shutdown). `sink` becomes the session's progress sink too, so the
    /// runner's point events and the daemon's job events share a stream.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the journal cannot be
    /// opened for appending.
    pub fn launch(
        cfg: DaemonConfig,
        sink: Option<Arc<ProgressSink>>,
        session: Arc<SweepSession>,
    ) -> io::Result<Arc<Daemon>> {
        session.set_progress_sink(sink.clone());
        let mut queue = JobQueue::fresh();
        let mut tenants: BTreeMap<String, TenantState> = BTreeMap::new();
        let mut resume = ResumeSummary::default();

        if let (Some(path), true) = (&cfg.journal, cfg.resume) {
            let plan = qjournal::replay(path);
            resume = ResumeSummary {
                accepted: plan.accepted,
                done: plan.done,
                cancelled: plan.cancelled,
                pending: plan.pending.len(),
                torn: plan.torn,
            };
            queue.reserve_ids(plan.next_id);
            for (id, spec) in plan.pending {
                let state = tenants.entry(spec.tenant.clone()).or_insert_with(TenantState::fresh);
                let resumed = state.ids.resumed;
                state.registry.inc(resumed);
                queue.restore(id, spec);
            }
        }
        let journal = match &cfg.journal {
            Some(path) => Some(QueueJournal::open_append(path)?),
            None => None,
        };

        let core = Core {
            queue,
            tenants,
            inflight_total: 0,
            accepted_total: 0,
            draining: false,
            shutdown: false,
            journal,
            resume,
        };
        let daemon = Arc::new(Daemon {
            core: Mutex::new(core),
            work_ready: Condvar::new(),
            all_idle: Condvar::new(),
            cfg,
            sink,
            session,
        });
        for n in 0..daemon.cfg.workers.max(1) {
            let d = Arc::clone(&daemon);
            std::thread::Builder::new()
                .name(format!("dcl1d-worker-{n}"))
                .spawn(move || worker_loop(&d))?;
        }
        Ok(daemon)
    }

    fn lock_core(&self) -> MutexGuard<'_, Core> {
        // Sim panics are contained by `contain`'s catch_unwind before
        // they can unwind through a lock-holding frame, so poisoning here
        // means a daemon bug, not a tenant fault.
        self.core.lock().expect("daemon core lock poisoned")
    }

    /// Offers a batch of jobs, journaling each accept before it is
    /// acknowledged. A job whose result the memory tier already holds
    /// completes here (see the [module docs](crate::scheduler)); the rest
    /// are offered to the queue. Returns one verdict per spec, input order.
    pub fn submit_jobs(&self, specs: Vec<JobSpec>) -> Vec<Verdict> {
        // A hit is a hash probe, taken before the lock; a miss costs
        // nothing more here.
        let hits: Vec<Option<Arc<RunStats>>> =
            specs.iter().map(|spec| self.lookup_memo(spec)).collect();
        let mut admitted: Vec<(String, String, u64)> = Vec::new();
        let mut queued = false;
        let mut core = self.lock_core();
        let mut verdicts = Vec::with_capacity(specs.len());
        for (spec, hit) in specs.into_iter().zip(hits) {
            if core.draining || core.shutdown {
                verdicts.push(Verdict::Rejected {
                    retry_after_ms: crate::queue::backpressure_retry_ms(core.queue.depth()),
                    reason: "daemon draining".to_string(),
                });
                continue;
            }
            if let Some(stats) = hit {
                let id = core.queue.allocate_id();
                core.accepted_total += 1;
                core.log(QueueOp::Accept, id, &spec.encode());
                let (label, cycles) = (spec.label(), stats.cycles);
                let served = Served { stats, source: "memo" };
                core.record_completion(id, &spec.tenant, &label, Ok(served));
                admitted.push((label, spec.tenant, cycles));
                verdicts.push(Verdict::Accepted { id });
                continue;
            }
            let tenant = spec.tenant.clone();
            let encoded = spec.encode();
            let verdict = core.queue.offer(spec, &self.cfg.quotas);
            match &verdict {
                Verdict::Accepted { id } => {
                    queued = true;
                    core.accepted_total += 1;
                    core.log(QueueOp::Accept, *id, &encoded);
                }
                Verdict::Shed { id, shed_id, shed_tenant } => {
                    queued = true;
                    core.accepted_total += 1;
                    let (shed_id, shed_tenant) = (*shed_id, shed_tenant.clone());
                    core.log(QueueOp::Accept, *id, &encoded);
                    core.log(QueueOp::Cancel, shed_id, "shed");
                    let victim = core.tenant_mut(&shed_tenant);
                    let c = victim.ids.shed;
                    victim.registry.inc(c);
                    core.refresh_gauges(&shed_tenant);
                }
                Verdict::Rejected { .. } => {
                    let state = core.tenant_mut(&tenant);
                    let c = state.ids.rejected;
                    state.registry.inc(c);
                }
            }
            core.refresh_gauges(&tenant);
            verdicts.push(verdict);
        }
        core.commit_journal();
        drop(core);
        if let Some(sink) = &self.sink {
            let mut events = Vec::with_capacity(2 * admitted.len());
            for (label, tenant, cycles) in &admitted {
                events.push(ProgressEvent::new(ProgressStage::Started, label));
                events.push(
                    ProgressEvent::new(ProgressStage::Completed, label)
                        .tenant(tenant)
                        .source("memo")
                        .cycles(*cycles),
                );
            }
            sink.emit_all(&events);
        }
        if queued {
            self.work_ready.notify_all();
        }
        verdicts
    }

    /// The memory tier's statistics for `spec`, if it holds them and the
    /// job may be answered from there (no `--check`, no chaos). A spec
    /// that names no known point is a miss: a worker quarantines it.
    fn lookup_memo(&self, spec: &JobSpec) -> Option<Arc<RunStats>> {
        let req = build_request(spec).ok()?;
        self.session.lookup_memo(&req, self.cfg.scale, scope_of(spec))
    }

    /// Withdraws `job` (or every queued job) belonging to `tenant`.
    /// Returns the number of jobs cancelled. In-flight jobs are not
    /// interrupted — supervision owns them until they resolve.
    pub fn cancel_tenant(&self, tenant: &str, job: Option<u64>) -> usize {
        let mut core = self.lock_core();
        let withdrawn = core.queue.withdraw(tenant, job);
        for j in &withdrawn {
            core.log(QueueOp::Cancel, j.id, "");
        }
        core.commit_journal();
        let n = withdrawn.len();
        let state = core.tenant_mut(tenant);
        let c = state.ids.cancelled;
        state.registry.add(c, n as u64);
        core.refresh_gauges(tenant);
        drop(core);
        self.all_idle.notify_all();
        n
    }

    /// Renders a status reply: global queue/drain state, the resume
    /// summary, and a per-tenant block (counters, digest, quarantines) —
    /// optionally filtered to one tenant. Under the core lock it costs
    /// O(tenants × labels) formatting plus one multiply-add per completed
    /// job for the digests: no result is re-serialised and no dump is
    /// built, so it answers even under full overload.
    #[must_use]
    pub fn status_json(&self, tenant: Option<&str>) -> String {
        let mut core = self.lock_core();
        let core = &mut *core;
        // ~1.1 KB of daemon block and `memo` counters, ~0.4 KB per tenant.
        let mut out = String::with_capacity(1536 + 512 * core.tenants.len());
        // Writing to a `String` cannot fail.
        let _ = write!(
            out,
            "{{\"ok\":true,\"daemon\":{{\"queued\":{},\"inflight\":{},\"accepted_total\":{},\"draining\":{},\"workers\":{}",
            core.queue.depth(),
            core.inflight_total,
            core.accepted_total,
            core.draining,
            self.cfg.workers,
        );
        let r = &core.resume;
        let _ = write!(
            out,
            ",\"resume\":{{\"accepted\":{},\"done\":{},\"cancelled\":{},\"pending\":{},\"torn\":{}}},\"memo\":",
            r.accepted, r.done, r.cancelled, r.pending, r.torn
        );
        self.session.registry_snapshot().render_json_object_into(&mut out);
        out.push_str("},\"tenants\":{");
        let mut first = true;
        for (name, state) in &mut core.tenants {
            if tenant.is_some_and(|t| t != name) {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\"{}\":{{\"queued\":{},\"inflight\":{},\"completed\":{},\"quarantined\":[",
                escape(name),
                core.queue.tenant_depth(name),
                state.inflight,
                state.ledger.completed(),
            );
            for (i, q) in state.quarantined.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"point\":\"{}\",\"class\":\"{}\"}}",
                    escape(&q.point),
                    escape(&q.class)
                );
            }
            let _ = write!(out, "],\"digest\":\"{}\",\"counters\":", state.ledger.digest());
            state.registry.render_json_object_into(&mut out);
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// Blocks until the queue is empty and no job is in flight, then
    /// shuts the worker pool down. Returns the final status reply.
    /// Submissions arriving during the drain are rejected with a
    /// retry-after hint.
    pub fn handle_drain(&self) -> String {
        {
            let mut core = self.lock_core();
            core.draining = true;
            while core.queue.depth() > 0 || core.inflight_total > 0 {
                core = self.all_idle.wait(core).expect("daemon core lock poisoned");
            }
            core.shutdown = true;
        }
        self.work_ready.notify_all();
        self.status_json(None)
    }

    /// True once drain has completed and workers are exiting.
    #[must_use]
    pub fn is_shutdown(&self) -> bool {
        self.lock_core().shutdown
    }

    fn emit(&self, ev: &ProgressEvent<'_>) {
        if let Some(sink) = &self.sink {
            sink.emit(ev);
        }
    }
}

/// Builds the simulation request for a job spec. Failure here (a spec
/// replayed from an old journal naming a workload or design this build
/// no longer has) quarantines the job with class `config` instead of
/// killing the worker.
fn build_request(spec: &JobSpec) -> Result<RunRequest, QuarantineRecord> {
    let bad = |what: &str| QuarantineRecord {
        point: spec.label(),
        class: "config".to_string(),
        error: format!("unknown {what}"),
    };
    let app = by_name(&spec.app).ok_or_else(|| bad("workload"))?;
    let design: Design = spec.design.parse().map_err(|_| bad("design"))?;
    // Match `perf_sweep`'s defaults exactly: the memo key covers config
    // and options, so any divergence would fork the cache namespace and
    // the isolation proof's digest comparison.
    let opts = SimOptions { fast_forward: true, ..SimOptions::default() };
    Ok(RunRequest { app, design, cfg: GpuConfig::default(), opts })
}

/// One worker: pick → run supervised in the tenant's scope → record.
fn worker_loop(daemon: &Daemon) {
    loop {
        let job = {
            let mut core = daemon.lock_core();
            loop {
                if core.shutdown {
                    return;
                }
                let c = &mut *core;
                let (queue, tenants) = (&mut c.queue, &c.tenants);
                let cap = daemon.cfg.quotas.tenant_inflight;
                let pick = queue
                    .take_next_job(|t| tenants.get(t).map_or(0, |s| s.inflight) < cap);
                if let Some(job) = pick {
                    core.inflight_total += 1;
                    let state = core.tenant_mut(&job.spec.tenant);
                    state.inflight += 1;
                    core.refresh_gauges(&job.spec.tenant);
                    break job;
                }
                core = daemon.work_ready.wait(core).expect("daemon core lock poisoned");
            }
        };

        let tenant = job.spec.tenant.clone();
        let label = job.spec.label();
        self_contained_run(daemon, &job.spec, &label, &tenant, job.id);
    }
}

/// A job's chaos seed and deadline. They travel with the job, not the
/// process, so faults injected for one tenant cannot reach another
/// tenant's runs.
fn scope_of(spec: &JobSpec) -> TenantScope {
    TenantScope { chaos: spec.chaos, deadline_secs: spec.deadline_secs }
}

/// Runs one dispatched job start-to-finish on the current thread and
/// records its outcome.
fn self_contained_run(daemon: &Daemon, spec: &JobSpec, label: &str, tenant: &str, id: u64) {
    let outcome = build_request(spec)
        .and_then(|req| daemon.session.run_point(&req, daemon.cfg.scale, scope_of(spec)));
    let source = outcome.as_ref().map_or("", |served| served.source);
    let class = outcome.as_ref().err().map(|rec| rec.class.clone());

    let mut core = daemon.lock_core();
    core.record_completion(id, tenant, label, outcome);
    core.commit_journal();
    drop(core);
    let event = match &class {
        None => ProgressEvent::new(ProgressStage::Completed, label).source(source),
        Some(class) => ProgressEvent::new(ProgressStage::Quarantined, label).detail(class),
    };
    daemon.emit(&event.tenant(tenant));

    let mut core = daemon.lock_core();
    core.inflight_total -= 1;
    let state = core.tenant_mut(tenant);
    state.inflight -= 1;
    core.refresh_gauges(tenant);
    drop(core);
    // A finished job may unblock its tenant's next queued job, and may
    // have been the last thing a drain was waiting on.
    daemon.work_ready.notify_all();
    daemon.all_idle.notify_all();
}
