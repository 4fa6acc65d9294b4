//! Streaming progress layer: JSONL lifecycle events per sweep point.
//!
//! A [`ProgressSink`] serializes [`ProgressEvent`]s — one JSON object per
//! line, flushed immediately — so an external consumer (the future
//! `dcl1d` service, a CI tail, a human with `tail -f`) can watch a sweep
//! live: points queueing, starting, reporting percent-complete and
//! simulation KHz, being quarantined, and completing. Quarantines are
//! funneled into the same stream, so one file tells the whole recovery
//! story.
//!
//! Event schema (stable; CI validates it):
//!
//! ```json
//! {"seq": 12, "t_ms": 1754700000000, "event": "progress",
//!  "point": "T-AlexNet/Sh16", "pct": 40, "khz": 92.1, "cycles": 81920}
//! ```
//!
//! `seq` increases strictly within one sink; `t_ms` is Unix wall time in
//! milliseconds (diagnostic only — never fed back into simulation);
//! optional fields (`pct`, `khz`, `cycles`, `source`, `detail`,
//! `tenant`) appear only when meaningful for the event.

use crate::json;
use std::fmt::Write as _;
use std::io::Write;
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// Lifecycle stage of a sweep point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgressStage {
    /// Point admitted to the sweep, not yet running.
    Queued,
    /// Simulation (or memo lookup) started.
    Started,
    /// Periodic in-flight update (`pct`, `khz`, `cycles`).
    Progress,
    /// Point failed (panic, livelock, deadline) and was set aside.
    Quarantined,
    /// Point finished; `source` says how (simulated / memo / disk).
    Completed,
}

impl ProgressStage {
    /// Stable event name used in the JSONL stream.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ProgressStage::Queued => "queued",
            ProgressStage::Started => "started",
            ProgressStage::Progress => "progress",
            ProgressStage::Quarantined => "quarantined",
            ProgressStage::Completed => "completed",
        }
    }
}

/// One lifecycle event. Construct with the builder-style helpers; only
/// fields set appear in the serialized line.
#[derive(Debug, Clone, Copy)]
pub struct ProgressEvent<'a> {
    /// Lifecycle stage.
    pub stage: ProgressStage,
    /// Sweep point name, e.g. `"T-AlexNet/Sh16"`.
    pub point: &'a str,
    /// Estimated percent complete, 0..=100 (progress events).
    pub pct: Option<u64>,
    /// Simulation throughput in KHz (progress / completed events).
    pub khz: Option<f64>,
    /// Simulated cycles so far (progress / completed events).
    pub cycles: Option<u64>,
    /// Result provenance for completed events: `simulated`, `memo`, `disk`.
    pub source: Option<&'a str>,
    /// Free-form context (error class, quarantine reason).
    pub detail: Option<&'a str>,
    /// Owning tenant in multi-tenant streams (`dcl1d` job events).
    pub tenant: Option<&'a str>,
}

impl<'a> ProgressEvent<'a> {
    /// A bare event with every optional field unset.
    #[must_use]
    pub fn new(stage: ProgressStage, point: &'a str) -> ProgressEvent<'a> {
        ProgressEvent {
            stage,
            point,
            pct: None,
            khz: None,
            cycles: None,
            source: None,
            detail: None,
            tenant: None,
        }
    }

    /// Sets percent complete (clamped to 100).
    #[must_use]
    pub fn pct(mut self, pct: u64) -> ProgressEvent<'a> {
        self.pct = Some(pct.min(100));
        self
    }

    /// Sets simulation throughput in KHz.
    #[must_use]
    pub fn khz(mut self, khz: f64) -> ProgressEvent<'a> {
        self.khz = Some(khz);
        self
    }

    /// Sets simulated cycles.
    #[must_use]
    pub fn cycles(mut self, cycles: u64) -> ProgressEvent<'a> {
        self.cycles = Some(cycles);
        self
    }

    /// Sets result provenance.
    #[must_use]
    pub fn source(mut self, source: &'a str) -> ProgressEvent<'a> {
        self.source = Some(source);
        self
    }

    /// Sets free-form detail.
    #[must_use]
    pub fn detail(mut self, detail: &'a str) -> ProgressEvent<'a> {
        self.detail = Some(detail);
        self
    }

    /// Sets the owning tenant (multi-tenant daemon streams).
    #[must_use]
    pub fn tenant(mut self, tenant: &'a str) -> ProgressEvent<'a> {
        self.tenant = Some(tenant);
        self
    }
}

struct SinkInner {
    out: Box<dyn Write + Send>,
    seq: u64,
    buf: String,
}

/// Thread-safe JSONL event sink. Sweep workers on different threads emit
/// through one shared sink; the internal mutex keeps lines whole and the
/// sequence strictly increasing.
pub struct ProgressSink {
    inner: Mutex<SinkInner>,
}

impl std::fmt::Debug for ProgressSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressSink").finish_non_exhaustive()
    }
}

impl ProgressSink {
    /// A sink writing JSONL to `out`. Each event is flushed immediately so
    /// a tailing consumer sees it without waiting for buffer pressure.
    #[must_use]
    pub fn new(out: Box<dyn Write + Send>) -> ProgressSink {
        ProgressSink {
            inner: Mutex::new(SinkInner { out, seq: 0, buf: String::with_capacity(256) }),
        }
    }

    /// Serializes and writes one event. IO errors are swallowed: progress
    /// reporting must never abort a sweep.
    pub fn emit(&self, ev: &ProgressEvent<'_>) {
        // Wall time is diagnostic stream metadata, never simulation input.
        let t_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis())
            .unwrap_or(0);
        let Ok(mut inner) = self.inner.lock() else { return };
        let inner = &mut *inner;
        inner.seq += 1;
        let seq = inner.seq;
        let buf = &mut inner.buf;
        buf.clear();
        let _ = write!(
            buf,
            "{{\"seq\": {seq}, \"t_ms\": {t_ms}, \"event\": \"{}\", \"point\": \"{}\"",
            ev.stage.as_str(),
            json::escape(ev.point)
        );
        if let Some(p) = ev.pct {
            let _ = write!(buf, ", \"pct\": {p}");
        }
        if let Some(k) = ev.khz {
            if k.is_finite() {
                let _ = write!(buf, ", \"khz\": {k:.3}");
            }
        }
        if let Some(c) = ev.cycles {
            let _ = write!(buf, ", \"cycles\": {c}");
        }
        if let Some(s) = ev.source {
            let _ = write!(buf, ", \"source\": \"{}\"", json::escape(s));
        }
        if let Some(d) = ev.detail {
            let _ = write!(buf, ", \"detail\": \"{}\"", json::escape(d));
        }
        if let Some(t) = ev.tenant {
            let _ = write!(buf, ", \"tenant\": \"{}\"", json::escape(t));
        }
        buf.push_str("}\n");
        let _ = inner.out.write_all(buf.as_bytes());
        let _ = inner.out.flush();
    }

    /// Number of events emitted so far.
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.inner.lock().map(|i| i.seq).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::sync::Arc;

    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.0.lock().expect("buf lock").extend_from_slice(data);
            Ok(data.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn lines(buf: &SharedBuf) -> Vec<String> {
        let data = buf.0.lock().expect("buf lock");
        String::from_utf8(data.clone())
            .expect("utf8")
            .lines()
            .map(str::to_owned)
            .collect()
    }

    #[test]
    fn emits_parseable_jsonl_with_increasing_seq() {
        let buf = SharedBuf::default();
        let sink = ProgressSink::new(Box::new(buf.clone()));
        sink.emit(&ProgressEvent::new(ProgressStage::Queued, "A/D1"));
        sink.emit(&ProgressEvent::new(ProgressStage::Started, "A/D1"));
        sink.emit(
            &ProgressEvent::new(ProgressStage::Progress, "A/D1").pct(50).khz(91.25).cycles(4096),
        );
        sink.emit(
            &ProgressEvent::new(ProgressStage::Completed, "A/D1")
                .source("simulated")
                .khz(90.0)
                .cycles(8192),
        );
        assert_eq!(sink.emitted(), 4);
        let lines = lines(&buf);
        assert_eq!(lines.len(), 4);
        let mut prev_seq = 0.0;
        for line in &lines {
            let doc = Json::parse(line).expect("line parses");
            let seq = doc.get("seq").unwrap().as_f64().unwrap();
            assert!(seq > prev_seq, "seq strictly increasing");
            prev_seq = seq;
            assert!(doc.get("t_ms").unwrap().as_f64().is_some());
            assert!(doc.get("event").unwrap().as_str().is_some());
            assert_eq!(doc.get("point").unwrap().as_str(), Some("A/D1"));
        }
        let prog = Json::parse(&lines[2]).unwrap();
        assert_eq!(prog.get("event").unwrap().as_str(), Some("progress"));
        assert_eq!(prog.get("pct").unwrap().as_f64(), Some(50.0));
        assert_eq!(prog.get("cycles").unwrap().as_f64(), Some(4096.0));
        let done = Json::parse(&lines[3]).unwrap();
        assert_eq!(done.get("source").unwrap().as_str(), Some("simulated"));
    }

    #[test]
    fn optional_fields_are_omitted_when_unset() {
        let buf = SharedBuf::default();
        let sink = ProgressSink::new(Box::new(buf.clone()));
        sink.emit(&ProgressEvent::new(ProgressStage::Queued, "p/d"));
        let line = lines(&buf).pop().unwrap();
        for absent in ["pct", "khz", "cycles", "source", "detail", "tenant"] {
            assert!(!line.contains(absent), "{absent} must be absent: {line}");
        }
    }

    #[test]
    fn tenant_field_round_trips() {
        let buf = SharedBuf::default();
        let sink = ProgressSink::new(Box::new(buf.clone()));
        sink.emit(&ProgressEvent::new(ProgressStage::Queued, "p/d").tenant("team-a"));
        let line = lines(&buf).pop().unwrap();
        let doc = Json::parse(&line).expect("tenant line parses");
        assert_eq!(doc.get("tenant").unwrap().as_str(), Some("team-a"));
    }

    #[test]
    fn point_names_are_escaped() {
        let buf = SharedBuf::default();
        let sink = ProgressSink::new(Box::new(buf.clone()));
        sink.emit(&ProgressEvent::new(ProgressStage::Queued, "we\"ird\\name"));
        let line = lines(&buf).pop().unwrap();
        let doc = Json::parse(&line).expect("escaped line parses");
        assert_eq!(doc.get("point").unwrap().as_str(), Some("we\"ird\\name"));
    }

    #[test]
    fn quarantine_carries_context() {
        let buf = SharedBuf::default();
        let sink = ProgressSink::new(Box::new(buf.clone()));
        sink.emit(&ProgressEvent::new(ProgressStage::Quarantined, "p/d").detail("livelock"));
        let quar = Json::parse(&lines(&buf)[0]).unwrap();
        assert_eq!(quar.get("event").unwrap().as_str(), Some("quarantined"));
        assert_eq!(quar.get("detail").unwrap().as_str(), Some("livelock"));
    }

    #[test]
    fn pct_is_clamped() {
        let ev = ProgressEvent::new(ProgressStage::Progress, "p").pct(250);
        assert_eq!(ev.pct, Some(100));
    }
}
