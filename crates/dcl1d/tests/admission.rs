//! Warm hits answered at admission, in-process: a point the session's
//! memory tier holds completes inside its own `submit_jobs` — counted,
//! journaled and streamed before the call returns — unless chaos is armed
//! for it or the daemon is draining.
//!
//! Every daemon here runs on a session of its own over a scratch
//! directory, warmed in this process.

mod util;

use dcl1::{GpuConfig, SimOptions};
use dcl1_bench::runner::{self, RunRequest};
use dcl1_bench::{grid, Scale, SweepSession};
use dcl1_obs::json::Json;
use dcl1_obs::progress::ProgressSink;
use dcl1_resilience::Chaos;
use dcl1d::qjournal::{self, QueueOp};
use dcl1d::queue::{JobSpec, Quotas, Verdict};
use dcl1d::scheduler::{Daemon, DaemonConfig};
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use util::{at, num, scratch};

/// A sink writer that keeps each write it is given as one string.
#[derive(Clone, Default)]
struct Writes(Arc<Mutex<Vec<String>>>);

impl Write for Writes {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        let text = String::from_utf8(data.to_vec()).expect("progress lines are UTF-8");
        self.0.lock().expect("writes lock").push(text);
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Writes {
    fn taken(&self) -> Vec<String> {
        std::mem::take(&mut *self.0.lock().expect("writes lock"))
    }
}

/// The grid as the daemon builds its requests.
fn grid_requests() -> Vec<RunRequest> {
    let cfg = GpuConfig::default();
    let opts = SimOptions { fast_forward: true, ..SimOptions::default() };
    grid::build_grid(&grid::default_designs(&cfg), &[], &cfg, opts)
}

fn spec_of(tenant: &str, req: &RunRequest, chaos: Option<u64>) -> JobSpec {
    JobSpec {
        tenant: tenant.to_string(),
        app: req.app.name.to_string(),
        design: req.design.name(),
        priority: 2,
        deadline_secs: None,
        chaos,
    }
}

/// A session over `dir` whose memory tier holds `reqs`.
fn warmed(dir: &Path, reqs: &[RunRequest]) -> Arc<SweepSession> {
    let session = SweepSession::open(&dir.join("cache"));
    let outcome = session.run_points(reqs, Scale::Smoke);
    assert!(outcome.quarantined.is_empty(), "{:?}", outcome.quarantined);
    Arc::new(session)
}

fn launch(
    session: &Arc<SweepSession>,
    quotas: Quotas,
    journal: Option<&Path>,
    sink: Option<Arc<ProgressSink>>,
) -> Arc<Daemon> {
    let cfg = DaemonConfig {
        workers: 1,
        scale: Scale::Smoke,
        quotas,
        journal: journal.map(Path::to_path_buf),
        resume: false,
    };
    Daemon::launch(cfg, sink, Arc::clone(session)).expect("daemon launches")
}

fn status(daemon: &Daemon, tenant: &str) -> Json {
    let reply = daemon.status_json(Some(tenant));
    Json::parse(&reply).unwrap_or_else(|e| panic!("{reply}: {e}"))
}

#[test]
fn warm_hits_complete_inside_their_submit() {
    const SUBMITS: usize = 3;
    let dir = scratch("admission-warm");
    let reqs: Vec<RunRequest> =
        grid_requests().into_iter().filter(|r| r.app.name == "C-NN").collect();
    assert_eq!(reqs.len(), 4);
    let session = warmed(&dir, &reqs);
    let simulated = session.memo_stats().simulated;
    let writes = Writes::default();
    let sink = Arc::new(ProgressSink::new(Box::new(writes.clone())));
    let daemon = launch(&session, Quotas::default(), None, Some(sink));
    let specs: Vec<JobSpec> = reqs.iter().map(|r| spec_of("t", r, None)).collect();

    let mut seq = 0.0;
    for round in 1..=SUBMITS {
        let verdicts = daemon.submit_jobs(specs.clone());
        assert!(verdicts.iter().all(|v| matches!(v, Verdict::Accepted { .. })), "{verdicts:?}");

        // (a) Done by the time the call returns: nothing queued or in
        // flight, and nothing simulated.
        let doc = status(&daemon, "t");
        assert_eq!(num(&doc, &["daemon", "queued"]), 0.0);
        assert_eq!(num(&doc, &["daemon", "inflight"]), 0.0);
        assert_eq!(num(&doc, &["tenants", "t", "queued"]), 0.0);
        assert_eq!(num(&doc, &["tenants", "t", "inflight"]), 0.0);
        assert_eq!(num(&doc, &["tenants", "t", "completed"]), (round * specs.len()) as f64);
        assert_eq!(num(&doc, &["daemon", "memo", "memo.simulated"]), simulated as f64);
        let counters = at(&doc, &["tenants", "t", "counters"]);
        assert_eq!(num(counters, &["tenant.mem_hits"]), (round * specs.len()) as f64);

        // (b) One write per submit: a `started` and a tenant `completed`
        // line per hit, `seq` contiguous across submits.
        let [write] = writes.taken().try_into().expect("exactly one write per submit");
        let lines: Vec<Json> =
            write.lines().map(|l| Json::parse(l).expect("a progress line")).collect();
        assert_eq!(lines.len(), 2 * specs.len(), "{write}");
        for (pair, (req, spec)) in lines.chunks(2).zip(reqs.iter().zip(&specs)) {
            for line in pair {
                seq += 1.0;
                assert_eq!(num(line, &["seq"]), seq);
                assert_eq!(at(line, &["point"]).as_str(), Some(spec.label().as_str()));
            }
            let (started, completed) = (&pair[0], &pair[1]);
            assert_eq!(at(started, &["event"]).as_str(), Some("started"));
            assert!(started.get("tenant").is_none(), "{started:?}");
            assert_eq!(at(completed, &["event"]).as_str(), Some("completed"));
            assert_eq!(at(completed, &["tenant"]).as_str(), Some("t"));
            assert_eq!(at(completed, &["source"]).as_str(), Some("memo"));
            let stats = session.lookup_memo(req, Scale::Smoke, Default::default());
            let cycles = stats.expect("a warmed point").cycles;
            assert_eq!(num(completed, &["cycles"]), cycles as f64);
        }
    }
    daemon.handle_drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_chaos_submit_is_never_answered_at_admission() {
    const SEED: u64 = 1;
    let dir = scratch("admission-chaos");
    let chaos = Chaos::new(SEED);
    let label = |r: &RunRequest| runner::point_label(r);
    let grid = grid_requests();
    let panics: Vec<&RunRequest> = grid.iter().filter(|r| chaos.should_panic(&label(r))).collect();
    let clean: Vec<&RunRequest> =
        grid.iter().filter(|r| chaos.fault_for(&label(r)).is_none()).collect();
    assert!(panics.len() >= 2 && clean.len() >= 2, "seed {SEED} faults too few points");
    let reqs: Vec<RunRequest> = [&panics[..2], &clean[..2]].concat().into_iter().cloned().collect();
    let session = warmed(&dir, &reqs);
    let writes = Writes::default();
    let sink = Arc::new(ProgressSink::new(Box::new(writes.clone())));
    let daemon = launch(&session, Quotas::default(), None, Some(sink));

    let specs: Vec<JobSpec> = reqs.iter().map(|r| spec_of("mallory", r, Some(SEED))).collect();
    let verdicts = daemon.submit_jobs(specs.clone());
    assert!(verdicts.iter().all(|v| matches!(v, Verdict::Accepted { .. })), "{verdicts:?}");
    let fin = Json::parse(&daemon.handle_drain()).expect("drain reply parses");

    // The panic points ran, under the tenant's seed, and quarantined.
    let quarantined = at(&fin, &["tenants", "mallory", "quarantined"]).as_arr().expect("a list");
    let points: Vec<&str> =
        quarantined.iter().map(|q| at(q, &["point"]).as_str().expect("a point")).collect();
    assert_eq!(points, [label(panics[0]), label(panics[1])]);
    assert!(quarantined.iter().all(|q| at(q, &["class"]).as_str() == Some("panic")));
    assert_eq!(num(&fin, &["tenants", "mallory", "completed"]), 2.0);
    // The clean points went through a worker too: the runner's own
    // untenanted `completed` line is there, which an admitted hit has not.
    let stream = writes.taken().concat();
    for req in &clean[..2] {
        let runner_done = stream.lines().filter(|l| {
            l.contains("\"event\": \"completed\"")
                && l.contains(&format!("\"point\": \"{}\"", label(req)))
                && !l.contains("\"tenant\"")
        });
        assert_eq!(runner_done.count(), 1, "{} was answered at admission:\n{stream}", label(req));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_submit_during_a_drain_is_rejected_hits_included() {
    let dir = scratch("admission-drain");
    let grid = grid_requests();
    let session = warmed(&dir, &grid[..2]);
    // No tenant may run a job, so a queued miss holds the drain open until
    // it is cancelled. Hits take no worker, so the quota does not stop them.
    let quotas = Quotas { tenant_inflight: 0, ..Quotas::default() };
    let daemon = launch(&session, quotas, None, None);
    let hits: Vec<JobSpec> = grid[..2].iter().map(|r| spec_of("t", r, None)).collect();
    assert!(daemon.submit_jobs(hits.clone()).iter().all(|v| matches!(v, Verdict::Accepted { .. })));
    let miss = spec_of("t", &grid[2], None);
    assert!(matches!(daemon.submit_jobs(vec![miss])[..], [Verdict::Accepted { .. }]));
    assert_eq!(num(&status(&daemon, "t"), &["tenants", "t", "completed"]), 2.0);

    std::thread::scope(|s| {
        let drain = s.spawn(|| daemon.handle_drain());
        while !daemon.status_json(None).contains("\"draining\":true") {
            std::thread::yield_now();
        }
        let verdicts = daemon.submit_jobs(hits.clone());
        for v in &verdicts {
            assert!(
                matches!(v, Verdict::Rejected { reason, .. } if reason == "daemon draining"),
                "{verdicts:?}"
            );
        }
        let doc = status(&daemon, "t");
        assert_eq!(num(&doc, &["tenants", "t", "completed"]), 2.0);
        assert_eq!(num(&doc, &["daemon", "accepted_total"]), 3.0);
        assert_eq!(daemon.cancel_tenant("t", None), 1);
        drain.join().expect("drain returns once the queue is empty");
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_journal_with_admitted_hits_replays_to_nothing_pending() {
    let dir = scratch("admission-journal");
    let journal = dir.join("queue.jsonl");
    let grid = grid_requests();
    let session = warmed(&dir, &grid[..2]);
    let daemon = launch(&session, Quotas::default(), Some(&journal), None);

    // Hit, miss, hit, miss: ids interleave across admitted and queued jobs.
    let order = [&grid[0], &grid[2], &grid[1], &grid[3]];
    let specs: Vec<JobSpec> = order.iter().map(|r| spec_of("t", r, None)).collect();
    let ids: Vec<u64> = daemon
        .submit_jobs(specs)
        .iter()
        .map(|v| match v {
            Verdict::Accepted { id } => *id,
            other => panic!("expected an accept, got {other:?}"),
        })
        .collect();
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ids:?}");
    let fin = Json::parse(&daemon.handle_drain()).expect("drain reply parses");
    let counters = at(&fin, &["tenants", "t", "counters"]);
    assert_eq!(num(counters, &["tenant.mem_hits"]), 2.0);
    assert_eq!(num(counters, &["tenant.simulated"]), 2.0);

    let (records, torn) = qjournal::read_records(&journal);
    assert_eq!(torn, 0);
    let accepts: Vec<u64> =
        records.iter().filter(|r| r.op == QueueOp::Accept).map(|r| r.id).collect();
    assert_eq!(accepts, ids, "accepts are journaled in id order");
    let plan = qjournal::replay(&journal);
    assert_eq!((plan.accepted, plan.done, plan.torn), (4, 4, 0));
    assert!(plan.pending.is_empty(), "{plan:?}");

    // A `--resume` over that journal enqueues nothing.
    let cfg = DaemonConfig {
        workers: 1,
        scale: Scale::Smoke,
        quotas: Quotas::default(),
        journal: Some(journal.clone()),
        resume: true,
    };
    let revived = Daemon::launch(cfg, None, Arc::clone(&session)).expect("daemon resumes");
    let doc = Json::parse(&revived.status_json(None)).expect("status parses");
    assert_eq!(num(&doc, &["daemon", "resume", "pending"]), 0.0);
    assert_eq!(num(&doc, &["daemon", "resume", "done"]), 4.0);
    assert_eq!(num(&doc, &["daemon", "queued"]), 0.0);
    revived.handle_drain();
    let _ = std::fs::remove_dir_all(&dir);
}
