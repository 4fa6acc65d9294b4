//! The `status` reply, in-process: its bytes for a known daemon state are
//! the ones the pre-ledger daemon rendered, and a tenant's digest covers
//! every completion of a sweep resubmitted many times over.
//!
//! One test, because it points this process's result store at a scratch
//! directory and reads process-wide sweep counters.

mod util;

use dcl1::{GpuConfig, SimOptions};
use dcl1_bench::runner::{self, RunRequest};
use dcl1_bench::{grid, Scale};
use dcl1_obs::json::Json;
use dcl1d::queue::{JobSpec, Quotas, Verdict};
use dcl1d::scheduler::{Daemon, DaemonConfig};

/// The reply with the `memo` object cut out: it carries this process's
/// store-latency histograms, which no two runs share.
fn without_memo(reply: &str) -> String {
    let start = reply.find("\"memo\":").expect("memo object") + "\"memo\":".len();
    let end = reply.find("},\"tenants\":{").expect("tenants follow the daemon block");
    format!("{}…{}", &reply[..start], &reply[end..])
}

fn spec(tenant: &str, app: &str, design: &str) -> JobSpec {
    JobSpec {
        tenant: tenant.to_string(),
        app: app.to_string(),
        design: design.to_string(),
        priority: 2,
        deadline_secs: None,
        chaos: None,
    }
}

/// Captured from `status_json` at the parent of the ledger change (one
/// worker, so the first run of each label simulates and the rest are
/// memory hits).
const GOLDEN_ALL: &str = r#"{"ok":true,"daemon":{"queued":0,"inflight":0,"accepted_total":201,"draining":true,"workers":1,"resume":{"accepted":0,"done":0,"cancelled":0,"pending":0,"torn":0},"memo":…},"tenants":{"carol":{"queued":0,"inflight":0,"completed":200,"quarantined":[],"digest":"72dba76cd0aef001","counters":{"tenant.cancelled": 0, "tenant.completed": 200, "tenant.disk_hits": 0, "tenant.inflight": 0, "tenant.mem_hits": 196, "tenant.quarantined": 0, "tenant.queued": 0, "tenant.rejected": 0, "tenant.resumed": 0, "tenant.shared_hits": 0, "tenant.shed": 0, "tenant.simulated": 4}},"q\"t":{"queued":0,"inflight":0,"completed":0,"quarantined":[{"point":"NO-SUCH-APP/Baseline","class":"config","attempts":0}],"digest":"cbf29ce484222325","counters":{"tenant.cancelled": 0, "tenant.completed": 0, "tenant.disk_hits": 0, "tenant.inflight": 0, "tenant.mem_hits": 0, "tenant.quarantined": 1, "tenant.queued": 0, "tenant.rejected": 0, "tenant.resumed": 0, "tenant.shared_hits": 0, "tenant.shed": 0, "tenant.simulated": 0}}}}"#;
const GOLDEN_ONE: &str = r#"{"ok":true,"daemon":{"queued":0,"inflight":0,"accepted_total":201,"draining":true,"workers":1,"resume":{"accepted":0,"done":0,"cancelled":0,"pending":0,"torn":0},"memo":…},"tenants":{"q\"t":{"queued":0,"inflight":0,"completed":0,"quarantined":[{"point":"NO-SUCH-APP/Baseline","class":"config","attempts":0}],"digest":"cbf29ce484222325","counters":{"tenant.cancelled": 0, "tenant.completed": 0, "tenant.disk_hits": 0, "tenant.inflight": 0, "tenant.mem_hits": 0, "tenant.quarantined": 1, "tenant.queued": 0, "tenant.rejected": 0, "tenant.resumed": 0, "tenant.shared_hits": 0, "tenant.shed": 0, "tenant.simulated": 0}}}}"#;

#[test]
fn resubmitted_sweep_digest_and_golden_reply() {
    let dir = util::scratch("status");
    std::env::set_var("DCL1_CACHE_DIR", dir.join("cache"));

    let cfg = GpuConfig::default();
    let sweep: Vec<JobSpec> = grid::default_designs(&cfg)
        .iter()
        .map(|d| spec("carol", "C-NN", &d.name()))
        .collect();
    assert_eq!(sweep.len(), 4);

    let daemon = Daemon::launch(
        DaemonConfig {
            workers: 1,
            scale: Scale::Smoke,
            quotas: Quotas::default(),
            journal: None,
            resume: false,
        },
        None,
    )
    .expect("daemon launches");
    for _ in 0..50 {
        let verdicts = daemon.submit_jobs(sweep.clone());
        assert!(verdicts.iter().all(|v| matches!(v, Verdict::Accepted { .. })), "{verdicts:?}");
    }
    // A second tenant, whose only job names no known workload and
    // quarantines with class `config`; its name needs escaping.
    daemon.submit_jobs(vec![spec("q\"t", "NO-SUCH-APP", "Baseline")]);
    let reply = daemon.handle_drain();

    // The digest is `stats_digest` of the expanded 200-entry multiset.
    let mut multiset = Vec::new();
    for job in &sweep {
        let req = RunRequest {
            app: dcl1_workloads::by_name(&job.app).expect("workload"),
            design: job.design.parse().expect("design"),
            cfg: cfg.clone(),
            opts: SimOptions { fast_forward: true, ..SimOptions::default() },
        };
        let pair = (job.label(), runner::run_app(&req, Scale::Smoke));
        multiset.extend(std::iter::repeat_n(pair, 50));
    }
    let doc = Json::parse(&reply).expect("reply parses");
    let carol = doc.get("tenants").and_then(|t| t.get("carol")).expect("carol's block");
    assert_eq!(carol.get("completed").and_then(Json::as_f64), Some(200.0));
    assert_eq!(
        carol.get("digest").and_then(Json::as_str),
        Some(runner::stats_digest(&multiset).as_str())
    );

    assert_eq!(without_memo(&reply), GOLDEN_ALL);
    assert_eq!(without_memo(&daemon.status_json(Some("q\"t"))), GOLDEN_ONE);
    let _ = std::fs::remove_dir_all(&dir);
}
