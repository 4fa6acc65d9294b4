//! End-to-end daemon acceptance against the real `dcl1d` binary, every
//! tenant sweeping the whole 112-point smoke grid.
//!
//! 1. **Tenant isolation under chaos**: three tenants sweep the grid
//!    concurrently, one of them with fault injection armed. The chaotic
//!    tenant's persistent panics end in quarantine records scoped to that
//!    tenant; the other two complete fully, on the fault-free digest.
//! 2. **Crash-safe queueing**: `kill -9` mid-sweep, restart with
//!    `--resume`, and every accepted job is completed exactly once —
//!    with the resumed work served from the warm result cache, not
//!    recomputed (`memo.simulated == 0` in the restarted process).
//! 3. **The ledger digest**: a grid resubmitted five times over a warm
//!    store digests to what a byte-at-a-time FNV-1a makes of the dump.

mod util;

use dcl1::{GpuConfig, RunStats, SimOptions};
use dcl1_bench::{grid, runner, Scale};
use dcl1_obs::json::Json;
use dcl1_resilience::Chaos;
use std::time::{Duration, Instant};
use util::{at, num, rpc, scratch, start_daemon, submit_grid};

const GRID_DIGEST: &str = "18859340e85217ad";
const JOBS: f64 = 112.0;

/// The grid as `perf_sweep` and the daemon build it.
fn grid_requests() -> Vec<runner::RunRequest> {
    let cfg = GpuConfig::default();
    let opts = SimOptions { fast_forward: true, ..SimOptions::default() };
    grid::build_grid(&grid::default_designs(&cfg), &[], &cfg, opts)
}

fn quarantined<'a>(status: &'a Json, tenant: &str) -> &'a [Json] {
    at(status, &["tenants", tenant, "quarantined"]).as_arr().expect("quarantined is a list")
}

#[test]
fn tenants_are_isolated_under_chaos() {
    // Seed 1's persistent panics (8 of the 112 points) must visibly
    // quarantine for the chaotic tenant while the others stay untouched.
    const SEED: u64 = 1;
    let labels: Vec<String> = grid_requests().iter().map(runner::point_label).collect();
    let expected_quarantines = Chaos::new(SEED).census(&labels).persistent_panics;
    assert!(expected_quarantines >= 1, "seed {SEED} injects no persistent panic");

    let dir = scratch("isolation");
    let (mut child, mut ctl) = start_daemon(&dir, "iso", &["--workers=4"]);
    for (tenant, chaos) in [("alice", None), ("bob", None), ("mallory", Some(SEED))] {
        assert_eq!(submit_grid(&mut ctl, tenant, chaos), JOBS, "{tenant} not fully accepted");
    }

    // `status` must answer while the sweep runs (graceful-degradation
    // contract: status is never starved by load).
    let live = rpc(&mut ctl, "{\"cmd\":\"status\"}");
    assert_eq!(at(&live, &["ok"]), &Json::Bool(true), "status wedged during the sweep");

    // Drain blocks until every queued and in-flight job resolves.
    let fin = rpc(&mut ctl, "{\"cmd\":\"drain\"}");
    for tenant in ["alice", "bob"] {
        assert_eq!(num(&fin, &["tenants", tenant, "completed"]), JOBS, "{tenant} lost work");
        assert!(quarantined(&fin, tenant).is_empty(), "{tenant} caught mallory's faults");
        assert_eq!(
            at(&fin, &["tenants", tenant, "digest"]).as_str(),
            Some(GRID_DIGEST),
            "{tenant}'s digest moved"
        );
    }
    assert_eq!(quarantined(&fin, "mallory").len(), expected_quarantines);
    assert_eq!(
        num(&fin, &["tenants", "mallory", "completed"]),
        JOBS - expected_quarantines as f64,
        "mallory's recoverable faults did not recover"
    );

    child.wait().expect("daemon exits after drain");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill9_resume_completes_exactly_once_from_cache() {
    let dir = scratch("resume");
    let journal_arg = "--journal=queue.jsonl";
    let done_in_journal = || {
        let (records, _) = dcl1d::qjournal::read_records(&dir.join("queue.jsonl"));
        records.iter().filter(|r| r.op == dcl1d::qjournal::QueueOp::Done).count() as f64
    };

    // Phase 1: warm the result cache — a tenant completes the whole
    // grid, then the daemon drains cleanly.
    let (mut warm, mut ctl) = start_daemon(&dir, "warm", &["--workers=2", "--journal=warm.jsonl"]);
    assert_eq!(submit_grid(&mut ctl, "warmup", None), JOBS);
    let status = rpc(&mut ctl, "{\"cmd\":\"drain\"}");
    assert_eq!(num(&status, &["tenants", "warmup", "completed"]), JOBS);
    warm.wait().expect("warm daemon exits");

    // Phase 2: same cache, fresh journal. Kill -9 as soon as the journal
    // shows the first completion, leaving accepted-but-unfinished jobs
    // behind. (If the daemon finishes everything before the kill lands,
    // the resume set is empty and the contract below still holds.)
    let (mut victim, mut ctl) = start_daemon(&dir, "victim", &["--workers=1", journal_arg]);
    assert_eq!(submit_grid(&mut ctl, "dora", None), JOBS);
    let deadline = Instant::now() + Duration::from_secs(120);
    while done_in_journal() < 1.0 {
        assert!(Instant::now() < deadline, "victim never completed a job");
        std::thread::sleep(Duration::from_millis(1));
    }
    victim.kill().expect("kill -9 the victim");
    victim.wait().expect("reap the victim");
    let done_before = done_in_journal();
    assert!(done_before >= 1.0, "journal lost the completion that triggered the kill");

    // Phase 3: restart with --resume. Exactly the unfinished jobs run
    // again, all served from the warm cache: zero recomputation.
    let (mut revived, mut ctl) =
        start_daemon(&dir, "revived", &["--workers=4", journal_arg, "--resume"]);
    let fin = rpc(&mut ctl, "{\"cmd\":\"drain\"}");
    let resume = |what: &str| num(&fin, &["daemon", "resume", what]);
    assert_eq!(resume("accepted"), JOBS);
    assert_eq!(resume("done"), done_before, "resume summary disagrees with the journal");
    let pending = resume("pending");
    assert_eq!(pending, JOBS - done_before);

    // Exactly-once: jobs finished before the kill are not re-enqueued,
    // jobs accepted but unfinished all complete now.
    let completed_after =
        if pending > 0.0 { num(&fin, &["tenants", "dora", "completed"]) } else { 0.0 };
    assert_eq!(done_before + completed_after, JOBS, "accepted jobs not completed exactly once");

    // No duplicate compute: every resumed job is a cache hit (the cache
    // was fully warmed in phase 1), so the revived process simulated
    // nothing.
    assert_eq!(num(&fin, &["daemon", "memo", "memo.simulated"]), 0.0, "resume recomputed");

    revived.wait().expect("revived daemon exits after drain");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The grid resubmitted five times over a warm store: the tenant's
/// ledger digest (run-length blocks, memoised per block) against a third
/// implementation of FNV-1a-64 — neither the ledger's block map nor
/// `checksum::fnv64` — over the dump with every `=== ` chunk repeated five
/// times in place.
#[test]
fn resubmitted_grid_digest_matches_a_naive_fnv1a() {
    const COPIES: usize = 5;
    let dir = scratch("resubmit");

    // Warm the store in this process (the only runner use in this test
    // binary, so the store it builds on first use is this directory),
    // which also yields the dump.
    std::env::set_var("DCL1_CACHE_DIR", dir.join("cache"));
    let reqs = grid_requests();
    let outcome = runner::run_apps_supervised(&reqs, Scale::Smoke, runner::effective_workers());
    let points: Vec<(String, RunStats)> =
        reqs.iter().map(runner::point_label).zip(outcome.results.into_iter().flatten()).collect();
    assert_eq!(points.len(), 112);
    let dump = runner::canonical_stats_dump(&points);
    let mut chunks: Vec<String> = Vec::new();
    for line in dump.split_inclusive('\n') {
        if line.starts_with("=== ") {
            chunks.push(String::new());
        }
        chunks.last_mut().expect("a dump starts with a label line").push_str(line);
    }
    assert_eq!(chunks.len(), 112);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in chunks {
        for _ in 0..COPIES {
            for b in chunk.bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    let want = format!("{h:016x}");

    let (mut child, mut ctl) = start_daemon(&dir, "carol", &["--workers=4"]);
    let simulated = |status: &Json| num(status, &["daemon", "memo", "memo.simulated"]);
    assert_eq!(simulated(&rpc(&mut ctl, "{\"cmd\":\"status\"}")), 0.0);
    for round in 1..=COPIES {
        assert_eq!(submit_grid(&mut ctl, "carol", None), JOBS, "round {round}");
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let status = rpc(&mut ctl, "{\"cmd\":\"status\",\"tenant\":\"carol\"}");
            if num(&status, &["tenants", "carol", "completed"]) == JOBS * round as f64 {
                break;
            }
            assert!(Instant::now() < deadline, "round {round} stuck: {status:?}");
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    let fin = rpc(&mut ctl, "{\"cmd\":\"drain\"}");
    assert_eq!(num(&fin, &["tenants", "carol", "completed"]), JOBS * COPIES as f64);
    assert!(quarantined(&fin, "carol").is_empty());
    assert_eq!(at(&fin, &["tenants", "carol", "digest"]).as_str(), Some(want.as_str()));
    assert_eq!(simulated(&fin), 0.0, "a warm resubmission simulated");

    child.wait().expect("daemon exits after drain");
    let _ = std::fs::remove_dir_all(&dir);
}
