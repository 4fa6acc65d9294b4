//! Multi-tenant job queue: admission control, deterministic priority
//! aging, and graceful shedding under overload.
//!
//! The queue is pure bookkeeping — no I/O, no clocks. Time is a logical
//! tick that advances once per dispatch decision, so aging (and therefore
//! starvation-freedom) is a deterministic function of the request
//! sequence, not of host scheduling. All containers are `BTreeMap`s so
//! every scan and report iterates in one reproducible order.

use std::collections::BTreeMap;

/// Dispatch decisions per one-step priority promotion: a queued job's
/// effective priority improves by one class every `AGING_PERIOD` picks,
/// so even the lowest class reaches top priority after a bounded wait —
/// no tenant starves behind a high-priority flood.
pub const AGING_PERIOD: u64 = 8;

/// Everything needed to (re)run one job — small enough to journal, rich
/// enough to rebuild the simulation request after a restart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Owning tenant.
    pub tenant: String,
    /// Workload name (`dcl1_workloads::by_name`).
    pub app: String,
    /// Design name (`Design::from_str`; `Design::name()` round-trips).
    pub design: String,
    /// Base priority class: 0 is most urgent. Defaults to 2.
    pub priority: u8,
    /// Per-job wall-clock deadline in seconds, if any.
    pub deadline_secs: Option<u64>,
    /// Tenant-scoped chaos seed, if fault injection was requested.
    pub chaos: Option<u64>,
}

impl JobSpec {
    /// The `APP/DESIGN` point label this job simulates.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}/{}", self.app, self.design)
    }

    /// Serializes the spec for the queue journal: six newline-separated
    /// fields (`-` marks an unset option). The journal hex-encodes the
    /// payload, so embedded newlines are safe.
    #[must_use]
    pub fn encode(&self) -> String {
        format!(
            "{}\n{}\n{}\n{}\n{}\n{}",
            self.tenant,
            self.app,
            self.design,
            self.priority,
            self.deadline_secs.map_or_else(|| "-".to_string(), |d| d.to_string()),
            self.chaos.map_or_else(|| "-".to_string(), |c| c.to_string()),
        )
    }

    /// Parses [`JobSpec::encode`] output; `None` on any malformed field.
    #[must_use]
    pub fn decode(text: &str) -> Option<JobSpec> {
        let mut it = text.split('\n');
        let tenant = it.next()?.to_string();
        let app = it.next()?.to_string();
        let design = it.next()?.to_string();
        let priority = it.next()?.parse().ok()?;
        let opt = |f: &str| -> Option<Option<u64>> {
            if f == "-" {
                Some(None)
            } else {
                f.parse().ok().map(Some)
            }
        };
        let deadline_secs = opt(it.next()?)?;
        let chaos = opt(it.next()?)?;
        if it.next().is_some() || tenant.is_empty() || app.is_empty() || design.is_empty() {
            return None;
        }
        Some(JobSpec { tenant, app, design, priority, deadline_secs, chaos })
    }
}

/// One accepted, not-yet-dispatched job.
#[derive(Debug, Clone)]
pub struct Job {
    /// Daemon-wide id, also the journal key. Monotonic, never reused.
    pub id: u64,
    /// The job spec.
    pub spec: JobSpec,
    /// Logical tick at which the job entered the queue (for aging).
    pub enqueue_tick: u64,
}

impl Job {
    /// Effective priority after aging at logical time `tick`: the base
    /// class improves (numerically drops) one step per [`AGING_PERIOD`]
    /// dispatch decisions spent waiting.
    #[must_use]
    pub fn effective_priority(&self, tick: u64) -> u8 {
        let waited = tick.saturating_sub(self.enqueue_tick) / AGING_PERIOD;
        self.spec.priority.saturating_sub(u8::try_from(waited.min(255)).unwrap_or(255))
    }
}

/// Admission quotas. The global cap bounds daemon memory; the per-tenant
/// caps stop one tenant from monopolizing the queue or the worker pool.
#[derive(Debug, Clone, Copy)]
pub struct Quotas {
    /// Total queued jobs across every tenant.
    pub max_queued: usize,
    /// Queued jobs per tenant.
    pub tenant_queued: usize,
    /// Concurrently running jobs per tenant.
    pub tenant_inflight: usize,
}

impl Default for Quotas {
    fn default() -> Quotas {
        Quotas { max_queued: 1024, tenant_queued: 512, tenant_inflight: 2 }
    }
}

/// Outcome of offering one job to the queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Admitted under quota.
    Accepted {
        /// The new job's id.
        id: u64,
    },
    /// Admitted by shedding a lower-priority queued job (overload path).
    Shed {
        /// The new job's id.
        id: u64,
        /// The job evicted to make room.
        shed_id: u64,
        /// The evicted job's tenant (for accounting and events).
        shed_tenant: String,
    },
    /// Refused; the client should retry after the hint.
    Rejected {
        /// Deterministic backpressure hint, derived from queue depth.
        retry_after_ms: u64,
        /// Which quota refused the job.
        reason: String,
    },
}

/// Deterministic backpressure hint: deeper queue, longer suggested wait.
/// Pure function of depth — no wall clock anywhere near the daemon core.
#[must_use]
pub fn backpressure_retry_ms(depth: usize) -> u64 {
    100 + 25 * (depth as u64).min(4000)
}

/// The queue proper. Jobs are keyed by id (insertion order); picking
/// scans for the best `(effective_priority, id)` pair, which is O(n) but
/// deterministic and cheap at the quota-bounded sizes involved.
#[derive(Debug, Default)]
pub struct JobQueue {
    jobs: BTreeMap<u64, Job>,
    queued_by_tenant: BTreeMap<String, usize>,
    next_id: u64,
    clock: u64,
}

impl JobQueue {
    /// An empty queue; ids start at 1.
    #[must_use]
    pub fn fresh() -> JobQueue {
        JobQueue { next_id: 1, ..JobQueue::default() }
    }

    /// Total queued jobs.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.jobs.len()
    }

    /// Queued jobs owned by `tenant`.
    #[must_use]
    pub fn tenant_depth(&self, tenant: &str) -> usize {
        self.queued_by_tenant.get(tenant).copied().unwrap_or(0)
    }

    /// Offers one job. Per-tenant quota violations always reject; when
    /// only the global cap is hit, a strictly lower-priority queued job
    /// is shed to make room (graceful degradation: the queue sheds the
    /// least important work first, and never grows without bound).
    pub fn offer(&mut self, spec: JobSpec, quotas: &Quotas) -> Verdict {
        if self.tenant_depth(&spec.tenant) >= quotas.tenant_queued {
            return Verdict::Rejected {
                retry_after_ms: backpressure_retry_ms(self.depth()),
                reason: format!("tenant {} queue quota ({})", spec.tenant, quotas.tenant_queued),
            };
        }
        if self.depth() >= quotas.max_queued {
            // Overload: shed the worst queued job only if the incoming
            // one genuinely outranks it.
            let victim = self
                .jobs
                .values()
                .max_by_key(|j| (j.effective_priority(self.clock), j.id))
                .map(|j| (j.id, j.effective_priority(self.clock), j.spec.tenant.clone()));
            match victim {
                Some((vid, vprio, vtenant)) if spec.priority < vprio => {
                    self.unlink(vid);
                    let id = self.link(spec);
                    return Verdict::Shed { id, shed_id: vid, shed_tenant: vtenant };
                }
                _ => {
                    return Verdict::Rejected {
                        retry_after_ms: backpressure_retry_ms(self.depth()),
                        reason: format!("queue full ({})", quotas.max_queued),
                    }
                }
            }
        }
        let id = self.link(spec);
        Verdict::Accepted { id }
    }

    /// Advances the id allocator past every id the journal has ever
    /// issued, so fresh accepts never collide with journaled history —
    /// even when the replayed jobs all finished before the crash.
    pub fn reserve_ids(&mut self, next_id: u64) {
        self.next_id = self.next_id.max(next_id);
    }

    /// Re-enqueues a journal-recovered job under its *original* id, so a
    /// restart resumes exactly the accepted set (ids stay stable across
    /// the crash and `next_id` never collides with a replayed id).
    pub fn restore(&mut self, id: u64, spec: JobSpec) {
        self.next_id = self.next_id.max(id + 1);
        *self.queued_by_tenant.entry(spec.tenant.clone()).or_default() += 1;
        self.jobs.insert(id, Job { id, spec, enqueue_tick: self.clock });
    }

    /// Dispatches the best runnable job: minimal `(effective_priority,
    /// id)` among jobs whose tenant `may_run` (inflight quota not
    /// exhausted). Advances the logical clock on success.
    pub fn take_next_job(&mut self, may_run: impl Fn(&str) -> bool) -> Option<Job> {
        let best = self
            .jobs
            .values()
            .filter(|j| may_run(&j.spec.tenant))
            .min_by_key(|j| (j.effective_priority(self.clock), j.id))
            .map(|j| j.id)?;
        self.clock += 1;
        self.unlink(best)
    }

    /// Removes `job` (or every queued job) belonging to `tenant`,
    /// returning the withdrawn jobs in id order.
    pub fn withdraw(&mut self, tenant: &str, job: Option<u64>) -> Vec<Job> {
        let victims: Vec<u64> = self
            .jobs
            .values()
            .filter(|j| j.spec.tenant == tenant && job.is_none_or(|id| j.id == id))
            .map(|j| j.id)
            .collect();
        victims.into_iter().filter_map(|id| self.unlink(id)).collect()
    }

    /// Allocates the next job id without queueing anything: the id of a job
    /// that completes at admission. Ids stay one sequence across queued
    /// and admitted jobs.
    pub(crate) fn allocate_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn link(&mut self, spec: JobSpec) -> u64 {
        let id = self.allocate_id();
        *self.queued_by_tenant.entry(spec.tenant.clone()).or_default() += 1;
        self.jobs.insert(id, Job { id, spec, enqueue_tick: self.clock });
        id
    }

    fn unlink(&mut self, id: u64) -> Option<Job> {
        let job = self.jobs.remove(&id)?;
        if let Some(n) = self.queued_by_tenant.get_mut(&job.spec.tenant) {
            *n = n.saturating_sub(1);
        }
        Some(job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(tenant: &str, prio: u8) -> JobSpec {
        JobSpec {
            tenant: tenant.to_string(),
            app: "C-BLK".to_string(),
            design: "Pr4".to_string(),
            priority: prio,
            deadline_secs: None,
            chaos: None,
        }
    }

    #[test]
    fn spec_encode_round_trips() {
        let s = JobSpec {
            tenant: "team-a".into(),
            app: "T-AlexNet".into(),
            design: "Sh20+C10+Boost".into(),
            priority: 1,
            deadline_secs: Some(30),
            chaos: Some(7),
        };
        assert_eq!(JobSpec::decode(&s.encode()), Some(s.clone()));
        let bare = spec("b", 2);
        assert_eq!(JobSpec::decode(&bare.encode()), Some(bare));
        assert_eq!(JobSpec::decode("only\ntwo"), None);
    }

    #[test]
    fn per_tenant_quota_rejects_before_global() {
        let mut q = JobQueue::fresh();
        let quotas = Quotas { max_queued: 100, tenant_queued: 2, tenant_inflight: 1 };
        assert!(matches!(q.offer(spec("a", 2), &quotas), Verdict::Accepted { .. }));
        assert!(matches!(q.offer(spec("a", 2), &quotas), Verdict::Accepted { .. }));
        let v = q.offer(spec("a", 0), &quotas);
        let Verdict::Rejected { retry_after_ms, reason } = v else {
            panic!("expected rejection, got {v:?}");
        };
        assert!(reason.contains("tenant a"), "{reason}");
        assert_eq!(retry_after_ms, backpressure_retry_ms(2));
        // Another tenant is unaffected.
        assert!(matches!(q.offer(spec("b", 2), &quotas), Verdict::Accepted { .. }));
    }

    #[test]
    fn overload_sheds_lowest_priority_first_and_rejects_equal() {
        let mut q = JobQueue::fresh();
        let quotas = Quotas { max_queued: 2, tenant_queued: 10, tenant_inflight: 1 };
        let Verdict::Accepted { id: low } = q.offer(spec("a", 3), &quotas) else { panic!() };
        assert!(matches!(q.offer(spec("b", 1), &quotas), Verdict::Accepted { .. }));
        // Equal priority to the worst queued job: reject, don't churn.
        assert!(matches!(q.offer(spec("c", 3), &quotas), Verdict::Rejected { .. }));
        // Strictly better: the lowest-priority job is shed.
        match q.offer(spec("c", 0), &quotas) {
            Verdict::Shed { shed_id, shed_tenant, .. } => {
                assert_eq!(shed_id, low);
                assert_eq!(shed_tenant, "a");
            }
            v => panic!("expected shed, got {v:?}"),
        }
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn aging_prevents_starvation() {
        let mut q = JobQueue::fresh();
        let quotas = Quotas::default();
        let Verdict::Accepted { id: old_low } = q.offer(spec("slow", 3), &quotas) else {
            panic!()
        };
        // A stream of urgent work arrives; after enough dispatches the old
        // low-priority job ages to the front.
        let mut picked_old = None;
        for round in 0..40u64 {
            assert!(matches!(q.offer(spec("fast", 0), &quotas), Verdict::Accepted { .. }));
            let job = q.take_next_job(|_| true).expect("queue not empty");
            if job.id == old_low {
                picked_old = Some(round);
                break;
            }
        }
        let round = picked_old.expect("aged job never dispatched: starvation");
        // Three classes of deficit × AGING_PERIOD picks per class.
        assert!(round <= 3 * AGING_PERIOD + 1, "aged too slowly: round {round}");
    }

    #[test]
    fn pick_respects_inflight_gate_and_orders_by_priority_then_id() {
        let mut q = JobQueue::fresh();
        let quotas = Quotas::default();
        let Verdict::Accepted { id: a1 } = q.offer(spec("a", 1), &quotas) else { panic!() };
        let Verdict::Accepted { id: b0 } = q.offer(spec("b", 0), &quotas) else { panic!() };
        let Verdict::Accepted { id: a0 } = q.offer(spec("a", 0), &quotas) else { panic!() };
        // b is saturated: best among a's jobs is the priority-0 one.
        let j = q.take_next_job(|t| t != "b").expect("job");
        assert_eq!(j.id, a0);
        // Now everyone may run: b's 0 beats a's 1; id breaks the next tie.
        assert_eq!(q.take_next_job(|_| true).expect("job").id, b0);
        assert_eq!(q.take_next_job(|_| true).expect("job").id, a1);
        assert!(q.take_next_job(|_| true).is_none());
    }

    #[test]
    fn withdraw_and_restore_keep_counts_consistent() {
        let mut q = JobQueue::fresh();
        let quotas = Quotas::default();
        q.offer(spec("a", 2), &quotas);
        q.offer(spec("a", 2), &quotas);
        q.offer(spec("b", 2), &quotas);
        assert_eq!(q.withdraw("a", None).len(), 2);
        assert_eq!(q.tenant_depth("a"), 0);
        assert_eq!(q.depth(), 1);

        q.restore(77, spec("c", 1));
        assert_eq!(q.tenant_depth("c"), 1);
        // New ids never collide with a restored id.
        let Verdict::Accepted { id } = q.offer(spec("c", 1), &quotas) else { panic!() };
        assert!(id > 77, "id {id} collides with restored id space");
    }
}
