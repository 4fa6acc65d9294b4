//! Transaction-lifecycle tracing in Chrome trace-event format.
//!
//! Each sampled memory transaction produces a chain of `"X"` (complete)
//! events, one per hop through the machine — coalesce, NoC#1 request,
//! DC-L1 lookup outcome, NoC#2, L2, reply — so the whole lifetime renders
//! as a contiguous span track in Perfetto / `chrome://tracing`. Cycle
//! timestamps are written as microseconds (1 cycle = 1 µs) so the viewer's
//! time axis reads directly in cycles.

use crate::json::escape;
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Write};

/// The span currently open for one sampled transaction.
struct OpenSpan {
    phase: &'static str,
    since: u64,
    core: u64,
    kind: &'static str,
    line: u64,
}

/// Streaming Chrome trace-event writer with every-Nth-transaction sampling.
///
/// Spans are emitted as they close; the file is valid JSON only after
/// [`finish`](TxnTracer::finish) writes the closing bracket.
pub(crate) struct TxnTracer {
    sample_every: u64,
    out: io::BufWriter<Box<dyn Write + Send>>,
    // BTreeMap so `finish` closes dangling spans in ascending id order —
    // the trace file is byte-stable regardless of hasher state.
    open: BTreeMap<u64, OpenSpan>,
    wrote_any: bool,
    finished: bool,
    events: u64,
}

impl fmt::Debug for TxnTracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TxnTracer")
            .field("sample_every", &self.sample_every)
            .field("open", &self.open.len())
            .field("events", &self.events)
            .field("finished", &self.finished)
            .finish()
    }
}

impl TxnTracer {
    /// Creates a tracer writing to `sink`, sampling every `sample_every`-th
    /// transaction id (0 is treated as 1 = trace everything).
    pub(crate) fn new(sink: Box<dyn Write + Send>, sample_every: u64) -> io::Result<TxnTracer> {
        let mut out = io::BufWriter::new(sink);
        out.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
        Ok(TxnTracer {
            sample_every: sample_every.max(1),
            out,
            open: BTreeMap::new(),
            wrote_any: false,
            finished: false,
            events: 0,
        })
    }

    /// Whether this transaction id is in the sample.
    #[inline]
    pub(crate) fn sampled(&self, id: u64) -> bool {
        id.is_multiple_of(self.sample_every)
    }

    /// Opens the first span of a sampled transaction's lifetime.
    pub(crate) fn begin(
        &mut self,
        id: u64,
        phase: &'static str,
        now: u64,
        core: u64,
        kind: &'static str,
        line: u64,
    ) {
        if !self.sampled(id) {
            return;
        }
        self.open.insert(id, OpenSpan { phase, since: now, core, kind, line });
    }

    /// Closes the current span of `id` (emitting it) and opens `phase`.
    /// No-ops for unsampled or unknown ids, so callers never check first.
    pub(crate) fn hop(&mut self, id: u64, phase: &'static str, now: u64) {
        let Some(span) = self.open.get_mut(&id) else { return };
        let done = OpenSpan { phase, since: now, ..*span };
        let prev = std::mem::replace(span, done);
        self.emit(id, &prev, now);
    }

    /// Closes the final span of `id`, ending its track.
    pub(crate) fn end(&mut self, id: u64, now: u64) {
        let Some(span) = self.open.remove(&id) else { return };
        self.emit(id, &span, now);
    }

    fn emit(&mut self, id: u64, span: &OpenSpan, now: u64) {
        let dur = now.saturating_sub(span.since).max(1);
        let sep = if self.wrote_any { "," } else { "" };
        let _ = write!(
            self.out,
            "{sep}\n{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":{},\"tid\":{},\"args\":{{\"core\":{},\"line\":{},\"kind\":\"{}\"}}}}",
            escape(span.phase),
            span.since,
            dur,
            span.core,
            id,
            span.core,
            span.line,
            escape(span.kind),
        );
        self.wrote_any = true;
        self.events += 1;
    }

    /// Closes any still-open spans at `now`, writes the closing bracket and
    /// flushes. Must be called exactly once before dropping for the file to
    /// be valid JSON.
    pub(crate) fn finish(&mut self, now: u64) -> io::Result<()> {
        if self.finished {
            return Ok(());
        }
        let ids: Vec<u64> = self.open.keys().copied().collect();
        for id in ids {
            self.end(id, now);
        }
        self.out.write_all(b"\n]}\n")?;
        self.out.flush()?;
        self.finished = true;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::sync::{Arc, Mutex};

    /// An in-memory sink the test can read back after the tracer is done.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn trace_to_string(f: impl FnOnce(&mut TxnTracer)) -> String {
        let buf = SharedBuf::default();
        let mut t = TxnTracer::new(Box::new(buf.clone()), 1).unwrap();
        f(&mut t);
        t.finish(100).unwrap();
        drop(t);
        let bytes = buf.0.lock().unwrap().clone();
        String::from_utf8(bytes).unwrap()
    }

    #[test]
    fn lifecycle_emits_one_event_per_hop() {
        let text = trace_to_string(|t| {
            t.begin(0, "coalesce", 5, 2, "load", 4096);
            t.hop(0, "l1_queue", 8);
            t.hop(0, "dcl1_miss", 12);
            t.hop(0, "reply", 40);
            t.end(0, 55);
        });
        let doc = Json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 4);
        let names: Vec<&str> =
            events.iter().map(|e| e.get("name").unwrap().as_str().unwrap()).collect();
        assert_eq!(names, ["coalesce", "l1_queue", "dcl1_miss", "reply"]);
        // Spans tile the lifetime: each starts where the previous ended.
        let mut prev_end = None;
        for e in events {
            let ts = e.get("ts").unwrap().as_f64().unwrap();
            let dur = e.get("dur").unwrap().as_f64().unwrap();
            if let Some(p) = prev_end {
                assert_eq!(ts, p);
            }
            prev_end = Some(ts + dur);
            assert_eq!(e.get("pid").unwrap().as_f64(), Some(2.0));
            assert_eq!(e.get("args").unwrap().get("line").unwrap().as_f64(), Some(4096.0));
        }
        assert_eq!(prev_end, Some(55.0));
    }

    #[test]
    fn sampling_skips_unselected_ids() {
        let buf = SharedBuf::default();
        let mut t = TxnTracer::new(Box::new(buf.clone()), 4).unwrap();
        for id in 0..8u64 {
            t.begin(id, "coalesce", 0, 0, "load", 64);
            t.hop(id, "reply", 10);
            t.end(id, 20);
        }
        assert_eq!(t.events, 4); // ids 0 and 4, two spans each
        t.finish(20).unwrap();
        drop(t);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_arr().unwrap().len(), 4);
    }

    #[test]
    fn finish_closes_dangling_spans_and_is_idempotent() {
        let buf = SharedBuf::default();
        let mut t = TxnTracer::new(Box::new(buf.clone()), 1).unwrap();
        t.begin(7, "coalesce", 3, 1, "store", 128);
        t.finish(9).unwrap();
        t.finish(9).unwrap(); // second call is a no-op
        drop(t);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let doc = Json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("name").unwrap().as_str(), Some("coalesce"));
    }

    #[test]
    fn empty_trace_is_valid_json() {
        let text = trace_to_string(|_| {});
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_arr().unwrap().len(), 0);
    }

    #[test]
    fn hops_on_unknown_ids_are_ignored() {
        let text = trace_to_string(|t| {
            t.hop(99, "l2", 10);
            t.end(99, 20);
        });
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_arr().unwrap().len(), 0);
    }
}
