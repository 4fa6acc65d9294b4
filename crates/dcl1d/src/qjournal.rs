//! Crash-safe queue journal: the daemon's exactly-once accept log.
//!
//! Every queue state transition is appended as one crc-guarded JSON line
//! *before* the daemon acknowledges it to the client, so a `kill -9` at
//! any instant loses at most a record the client never saw accepted.
//! Replay reconstructs the accepted-but-unfinished job set: `accept`
//! minus `done` minus `cancel`, keyed by job id. Completed jobs are never
//! re-run (their results live in the result-store tiers); pending jobs
//! are re-enqueued under their original ids, and re-running them hits the
//! disk cache rather than recomputing.
//!
//! Line shape (`dcl1_common::journal`'s framing, headed by an `op`
//! discriminator and the job id):
//!
//! ```json
//! {"v":1,"op":"accept","id":7,"crc":"<16 hex>","payload":"<hex>"}
//! ```

use crate::queue::JobSpec;
use dcl1_common::journal::{field, frame, read_intact, unframe, JournalWriter};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// A queue state transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueOp {
    /// Job admitted; payload is the encoded [`JobSpec`].
    Accept,
    /// Job finished (completed or quarantined); payload is the outcome.
    Done,
    /// Job withdrawn by its tenant before running; payload is empty.
    Cancel,
}

impl QueueOp {
    fn tag(self) -> &'static str {
        match self {
            QueueOp::Accept => "accept",
            QueueOp::Done => "done",
            QueueOp::Cancel => "cancel",
        }
    }

    fn from_tag(tag: &str) -> Option<QueueOp> {
        match tag {
            "accept" => Some(QueueOp::Accept),
            "done" => Some(QueueOp::Done),
            "cancel" => Some(QueueOp::Cancel),
            _ => None,
        }
    }
}

/// One intact journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueRecord {
    /// The transition.
    pub op: QueueOp,
    /// The job id the transition applies to.
    pub id: u64,
    /// Op-specific payload (spec encoding, outcome tag, or empty).
    pub payload: String,
}

/// Appends queue transitions. Records are staged and then committed in
/// one write, which the daemon does before it acknowledges anything they
/// record, so an acknowledged accept survives any subsequent crash.
#[derive(Debug)]
pub struct QueueJournal {
    writer: JournalWriter,
    staged: String,
}

impl QueueJournal {
    /// Opens `path` for appending, creating it if absent.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the file cannot be opened.
    pub fn open_append(path: &Path) -> io::Result<QueueJournal> {
        JournalWriter::open(path).map(|writer| QueueJournal { writer, staged: String::new() })
    }

    /// Appends one record and flushes it to the OS.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error on a failed write.
    pub fn append_record(&mut self, op: QueueOp, id: u64, payload: &str) -> io::Result<()> {
        self.stage(op, id, payload);
        self.commit()
    }

    /// Stages one record for the next [`QueueJournal::commit`]; nothing
    /// reaches the file before then.
    pub(crate) fn stage(&mut self, op: QueueOp, id: u64, payload: &str) {
        self.staged.push_str(&render_record(op, id, payload));
    }

    /// Writes every staged record in one write and flushes it to the OS.
    /// The staged records are gone afterwards, written or not.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error on a failed write.
    pub(crate) fn commit(&mut self) -> io::Result<()> {
        if self.staged.is_empty() {
            return Ok(());
        }
        let written = self.writer.append_frames(&self.staged);
        self.staged.clear();
        written
    }
}

/// The head fields of a record's line.
fn head(op: QueueOp, id: u64) -> String {
    format!("\"op\":\"{}\",\"id\":{id}", op.tag())
}

/// Renders one journal line (exposed for tests and tooling).
#[must_use]
pub fn render_record(op: QueueOp, id: u64, payload: &str) -> String {
    frame(&head(op, id), payload)
}

/// Parses one line; `None` when the line is malformed, unversioned, has
/// an unknown op, or fails its checksum.
#[must_use]
pub(crate) fn parse_record(line: &str) -> Option<QueueRecord> {
    let payload = unframe(line)?;
    let op = QueueOp::from_tag(&field(line, "op")?)?;
    let id = field(line, "id")?.parse().ok()?;
    Some(QueueRecord { op, id, payload })
}

/// Reads every intact record from `path`, skipping torn or corrupt lines.
/// Returns the records plus the number of lines skipped; a missing file
/// is an empty journal, not an error.
#[must_use]
pub fn read_records(path: &Path) -> (Vec<QueueRecord>, usize) {
    read_intact(path, parse_record)
}

/// The queue state a journal replay reconstructs.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ResumePlan {
    /// Accepted jobs with no matching `done`/`cancel`, in id order, ready
    /// to re-enqueue under their original ids.
    pub pending: Vec<(u64, JobSpec)>,
    /// Accepted records seen (intact lines only).
    pub accepted: usize,
    /// Jobs that finished before the crash — never re-run.
    pub done: usize,
    /// Jobs cancelled before the crash.
    pub cancelled: usize,
    /// Torn or corrupt lines skipped during replay.
    pub torn: usize,
    /// One past the highest job id seen, so fresh ids never collide.
    pub next_id: u64,
}

/// Replays the journal at `path` into a [`ResumePlan`]. `accept` records
/// whose payload fails to decode as a [`JobSpec`] count as torn — they
/// cannot be re-run, and counting them keeps the skip visible.
#[must_use]
pub fn replay(path: &Path) -> ResumePlan {
    let (records, skipped) = read_records(path);
    let mut plan = ResumePlan { torn: skipped, next_id: 1, ..ResumePlan::default() };
    let mut open: BTreeMap<u64, JobSpec> = BTreeMap::new();
    for rec in records {
        plan.next_id = plan.next_id.max(rec.id + 1);
        match rec.op {
            QueueOp::Accept => match JobSpec::decode(&rec.payload) {
                Some(spec) => {
                    plan.accepted += 1;
                    open.insert(rec.id, spec);
                }
                None => plan.torn += 1,
            },
            QueueOp::Done => {
                plan.done += 1;
                open.remove(&rec.id);
            }
            QueueOp::Cancel => {
                plan.cancelled += 1;
                open.remove(&rec.id);
            }
        }
    }
    plan.pending = open.into_iter().collect();
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(tenant: &str) -> JobSpec {
        JobSpec {
            tenant: tenant.to_string(),
            app: "C-BLK".to_string(),
            design: "baseline".to_string(),
            priority: 2,
            deadline_secs: None,
            chaos: None,
        }
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dcl1d-qj-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn record_round_trips_all_ops() {
        for (op, payload) in [
            (QueueOp::Accept, spec("a").encode()),
            (QueueOp::Done, "completed".to_string()),
            (QueueOp::Cancel, String::new()),
        ] {
            let line = render_record(op, 42, &payload);
            let rec = parse_record(line.trim_end()).expect("intact line parses");
            assert_eq!(rec, QueueRecord { op, id: 42, payload: payload.clone() });
        }
        assert!(parse_record("{\"v\":2,\"op\":\"accept\",\"id\":1,\"crc\":\"0\",\"payload\":\"\"}")
            .is_none());
        assert!(parse_record("{\"v\":1,\"op\":\"defer\",\"id\":1,\"crc\":\"0\",\"payload\":\"\"}")
            .is_none());
    }

    #[test]
    fn replay_reconstructs_pending_set() {
        let dir = scratch("replay");
        let path = dir.join("queue.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut j = QueueJournal::open_append(&path).unwrap();
        j.append_record(QueueOp::Accept, 1, &spec("a").encode()).unwrap();
        j.append_record(QueueOp::Accept, 2, &spec("b").encode()).unwrap();
        j.append_record(QueueOp::Accept, 3, &spec("a").encode()).unwrap();
        j.append_record(QueueOp::Done, 1, "completed").unwrap();
        j.append_record(QueueOp::Cancel, 3, "").unwrap();
        drop(j);

        let plan = replay(&path);
        assert_eq!(plan.accepted, 3);
        assert_eq!(plan.done, 1);
        assert_eq!(plan.cancelled, 1);
        assert_eq!(plan.torn, 0);
        assert_eq!(plan.next_id, 4);
        assert_eq!(plan.pending, vec![(2, spec("b"))]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_skipped_not_fatal() {
        let dir = scratch("torn");
        let path = dir.join("queue.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut j = QueueJournal::open_append(&path).unwrap();
        j.append_record(QueueOp::Accept, 1, &spec("a").encode()).unwrap();
        j.append_record(QueueOp::Done, 1, "completed").unwrap();
        drop(j);
        // A kill mid-append: half of a third line.
        let good = std::fs::read_to_string(&path).unwrap();
        let torn = render_record(QueueOp::Accept, 2, &spec("b").encode());
        std::fs::write(&path, format!("{good}{}", &torn[..torn.len() / 2])).unwrap();

        let (records, skipped) = read_records(&path);
        assert_eq!(skipped, 1);
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].op, QueueOp::Done);
        let plan = replay(&path);
        assert_eq!(plan.torn, 1);
        assert!(plan.pending.is_empty());
        assert_eq!(plan.done, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn record_failing_its_checksum_is_skipped() {
        let dir = scratch("scribbled");
        let path = dir.join("queue.jsonl");
        let good = render_record(QueueOp::Accept, 1, &spec("a").encode());
        // Flip one payload digit: the line still parses, its crc does not.
        let mut bad = render_record(QueueOp::Accept, 2, &spec("b").encode());
        let at = bad.rfind('0').expect("the hex payload has a zero digit");
        bad.replace_range(at..=at, "1");
        assert!(parse_record(bad.trim_end()).is_none(), "a scribbled line must not parse");
        std::fs::write(&path, format!("{good}{bad}")).unwrap();

        let plan = replay(&path);
        assert_eq!(plan.torn, 1);
        assert_eq!(plan.accepted, 1);
        assert_eq!(plan.pending, vec![(1, spec("a"))]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_journal_is_empty_plan() {
        let plan = replay(Path::new("/nonexistent/queue.jsonl"));
        assert_eq!(plan, ResumePlan { next_id: 1, ..ResumePlan::default() });
    }
}
