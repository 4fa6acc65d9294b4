//! Satellite: queue-journal torn-write recovery.
//!
//! A `kill -9` can cut the queue journal at *any* byte. The daemon must
//! treat every possible truncation the same way: keep the intact prefix,
//! skip the torn record, and accept the lost job again on resubmission —
//! never crash, never double-accept, never resurrect a finished job.

mod util;

use dcl1_bench::SweepSession;
use dcl1d::qjournal::{render_record, replay, QueueOp};
use dcl1d::queue::{JobSpec, Quotas, Verdict};
use dcl1d::scheduler::{Daemon, DaemonConfig};
use std::sync::Arc;
use util::scratch;

fn spec(tenant: &str, app: &str) -> JobSpec {
    JobSpec {
        tenant: tenant.to_string(),
        app: app.to_string(),
        design: "baseline".to_string(),
        priority: 2,
        deadline_secs: None,
        chaos: None,
    }
}

/// Truncate the journal at every byte boundary of its final record and
/// replay each prefix. The intact prefix must always survive, the torn
/// tail must always be skipped, and the pending set must flip from
/// "lost" to "recovered" exactly when the record's last brace is on
/// disk (the trailing newline is not part of the record's integrity).
#[test]
fn replay_recovers_at_every_truncation_boundary() {
    let dir = scratch("boundaries");
    let path = dir.join("queue.jsonl");

    let prefix = format!(
        "{}{}",
        render_record(QueueOp::Accept, 1, &spec("t", "C-BLK").encode()),
        render_record(QueueOp::Done, 1, "completed"),
    );
    let last = render_record(QueueOp::Accept, 2, &spec("t", "C-BFS").encode());

    // The record is recoverable once every field — crucially the
    // crc-guarded payload, whose closing quote is the line's last one —
    // is on disk; the trailing `}` and newline are framing only.
    let intact_from = last.rfind('"').expect("record has a payload quote") + 1;

    for cut in 0..=last.len() {
        std::fs::write(&path, format!("{prefix}{}", &last[..cut])).expect("write journal");
        let plan = replay(&path);

        // The intact prefix always survives, whatever happened to the tail.
        assert_eq!(plan.done, 1, "cut={cut}");
        assert!(plan.accepted >= 1, "cut={cut}");

        if cut >= intact_from {
            // Recovered — and byte-exact, never a mangled spec.
            assert_eq!(plan.torn, 0, "cut={cut}");
            assert_eq!(plan.pending, vec![(2, spec("t", "C-BFS"))], "cut={cut}");
            assert_eq!(plan.next_id, 3, "cut={cut}");
        } else {
            // Torn — skipped entirely, never resurrected in part.
            assert_eq!(plan.torn, usize::from(cut > 0), "cut={cut}");
            assert!(plan.pending.is_empty(), "cut={cut}: torn record must not resurrect");
            assert_eq!(plan.next_id, 2, "cut={cut}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// End-to-end over the scheduler: restart on a torn journal, then
/// re-submit the lost job. The daemon must come up cleanly, report the
/// torn line in its resume summary, accept the job again (exactly once),
/// and run it to completion.
#[test]
fn daemon_restarts_on_torn_journal_and_reaccepts() {
    let dir = scratch("daemon");
    let path = dir.join("queue.jsonl");

    // Journal: job 1 accepted and finished; job 2's accept torn mid-line.
    let torn = render_record(QueueOp::Accept, 2, &spec("t", "C-BFS").encode());
    std::fs::write(
        &path,
        format!(
            "{}{}{}",
            render_record(QueueOp::Accept, 1, &spec("t", "C-BLK").encode()),
            render_record(QueueOp::Done, 1, "completed"),
            &torn[..torn.len() / 2],
        ),
    )
    .expect("write journal");

    let cfg = DaemonConfig {
        workers: 1,
        scale: dcl1_bench::Scale::Smoke,
        quotas: Quotas::default(),
        journal: Some(path.clone()),
        resume: true,
    };
    // The one job this test runs is a single smoke-scale point, kept in
    // this test's directory.
    let session = Arc::new(SweepSession::open(&dir.join("cache")));
    let daemon = Daemon::launch(cfg, None, session).expect("daemon launches on torn journal");

    let status = daemon.status_json(None);
    assert!(status.contains("\"resume\":{\"accepted\":1,\"done\":1,\"cancelled\":0,\"pending\":0,\"torn\":1}"),
        "unexpected resume summary in {status}");

    // Re-submit the lost job: accepted exactly once, under a fresh id
    // that does not collide with any journaled id.
    let verdicts = daemon.submit_jobs(vec![spec("t", "C-BFS")]);
    let [Verdict::Accepted { id }] = verdicts.as_slice() else {
        panic!("expected one accept, got {verdicts:?}");
    };
    assert!(*id >= 2, "fresh id {id} collides with journaled history");

    let final_status = daemon.handle_drain();
    assert!(
        final_status.contains("\"completed\":1"),
        "re-accepted job did not complete: {final_status}"
    );

    // The journal now records the re-accept and its completion: a second
    // restart has nothing left to resume.
    let plan = replay(&path);
    assert!(plan.pending.is_empty(), "resume after clean drain must be empty: {plan:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
