//! Observability substrate for the DC-L1 simulator.
//!
//! Three capabilities behind one [`Observer`] facade:
//!
//! 1. **Transaction-lifecycle tracing** ([`trace::TxnTracer`]) — sampled
//!    memory transactions emit one Chrome trace-event span per hop
//!    (coalesce → NoC#1 → DC-L1 outcome → NoC#2 → L2 → reply), loadable
//!    in Perfetto.
//! 2. **Time-series metrics** ([`metrics::MetricsWriter`]) — a periodic
//!    sampler snapshots queue depths, link utilization, MSHR occupancy and
//!    wavefront counts into JSONL or CSV.
//! 3. **Stall attribution** lives in `dcl1-gpu`'s core model; this crate
//!    only defines the sinks.
//! 4. **Recovery telemetry** ([`recovery::RecoveryLog`]) — the supervision
//!    layer's ledger of quarantines, watchdog firings and cache
//!    corruptions, embedded in sweep reports.
//! 5. **Counter registry** ([`registry::Registry`]) — zero-alloc typed
//!    counters/gauges/histograms under `subsystem.name` namespaces,
//!    pull-snapshotted at epoch barriers and merged partition-independently.
//! 6. **Phase profiler** ([`profiler::PhaseProfiler`]) — wall-time
//!    attribution across the Issue/NoC/Mem/exchange laps, sampled on one
//!    step in [`profiler::LAP_STRIDE`] with every lap counted, and
//!    memo-cache IO.
//! 7. **Progress stream** ([`progress::ProgressSink`]) — JSONL lifecycle
//!    events per sweep point (queued/started/progress/quarantined/
//!    completed, live KHz), the substrate for `dcl1d`.
//!
//! The disabled observer is two `None` options: every hook is an `#[inline]`
//! early return, so a machine built without observability runs the same hot
//! path and produces byte-identical statistics.
//!
//! # Examples
//!
//! ```
//! use dcl1_obs::Observer;
//!
//! let mut obs = Observer::disabled();
//! assert!(obs.is_off());
//! // Hooks are free no-ops when disabled.
//! obs.trace_hop(42, "l2", 100);
//! ```

#![expect(clippy::disallowed_types, reason = "a progress event carries its wall-clock time")]

pub mod json;
pub mod metrics;
pub mod profiler;
pub mod progress;
pub mod recovery;
pub mod registry;
mod trace;

use metrics::{MetricsFormat, MetricsSample, MetricsWriter};
use std::io::{self, Write};
use trace::TxnTracer;

/// The machine's handle on all observability sinks.
///
/// Constructed once per run and attached to the machine; the machine calls
/// the hook methods from its pipeline stages. With both sinks `None`
/// (the default) every hook returns immediately.
#[derive(Debug, Default)]
pub struct Observer {
    trace: Option<Box<TxnTracer>>,
    metrics: Option<Box<MetricsWriter>>,
}

impl Observer {
    /// An observer with every sink disabled — the hot-path default.
    pub fn disabled() -> Observer {
        Observer::default()
    }

    /// Adds a transaction tracer writing Chrome trace JSON to `sink`,
    /// sampling every `sample_every`-th transaction.
    pub fn with_trace(
        mut self,
        sink: Box<dyn Write + Send>,
        sample_every: u64,
    ) -> io::Result<Observer> {
        self.trace = Some(Box::new(TxnTracer::new(sink, sample_every)?));
        Ok(self)
    }

    /// Adds a metrics sampler writing to `sink` every `interval` cycles.
    pub fn with_metrics(
        mut self,
        sink: Box<dyn Write + Send>,
        interval: u64,
        format: MetricsFormat,
    ) -> Observer {
        self.metrics = Some(Box::new(MetricsWriter::new(sink, interval, format)));
        self
    }

    /// True when no sink is attached (the hot-path fast case).
    #[inline]
    pub fn is_off(&self) -> bool {
        self.trace.is_none() && self.metrics.is_none()
    }

    /// True when transaction tracing is attached.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Opens the first span of transaction `id` (no-op when not tracing).
    #[inline]
    pub fn trace_begin(
        &mut self,
        id: u64,
        now: u64,
        core: u64,
        kind: &'static str,
        line: u64,
    ) {
        if let Some(t) = &mut self.trace {
            t.begin(id, "coalesce", now, core, kind, line);
        }
    }

    /// Closes the current span of `id` and opens `phase`.
    #[inline]
    pub fn trace_hop(&mut self, id: u64, phase: &'static str, now: u64) {
        if let Some(t) = &mut self.trace {
            t.hop(id, phase, now);
        }
    }

    /// Closes the final span of `id`.
    #[inline]
    pub fn trace_end(&mut self, id: u64, now: u64) {
        if let Some(t) = &mut self.trace {
            t.end(id, now);
        }
    }

    /// The metrics sampling interval, or `None` when metrics are off.
    /// The machine uses this both to decide when to sample and to clamp
    /// idle fast-forward so no sampling boundary is jumped over.
    #[inline]
    pub fn metrics_interval(&self) -> Option<u64> {
        self.metrics.as_ref().map(|m| m.interval())
    }

    /// Appends one metrics sample (no-op when metrics are off).
    #[inline]
    pub fn record_metrics(&mut self, sample: &MetricsSample) {
        if let Some(m) = &mut self.metrics {
            m.record(sample);
        }
    }

    /// Finalizes all sinks: closes dangling trace spans at `now`, writes
    /// the trace's closing bracket, flushes metrics. Idempotent.
    pub fn finish(&mut self, now: u64) -> io::Result<()> {
        if let Some(t) = &mut self.trace {
            t.finish(now)?;
        }
        if let Some(m) = &mut self.metrics {
            m.finish()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

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

    #[test]
    fn disabled_observer_is_off_and_inert() {
        let mut obs = Observer::disabled();
        assert!(obs.is_off());
        assert!(!obs.tracing());
        assert_eq!(obs.metrics_interval(), None);
        obs.trace_begin(1, 0, 0, "load", 64);
        obs.trace_hop(1, "l2", 5);
        obs.trace_end(1, 9);
        obs.record_metrics(&MetricsSample::default());
        obs.finish(10).unwrap();
    }

    #[test]
    fn full_observer_reports_configuration() {
        let trace_buf = SharedBuf::default();
        let metrics_buf = SharedBuf::default();
        let mut obs = Observer::disabled()
            .with_trace(Box::new(trace_buf.clone()), 2)
            .unwrap()
            .with_metrics(Box::new(metrics_buf.clone()), 128, MetricsFormat::Jsonl);
        assert!(!obs.is_off());
        assert!(obs.tracing());
        assert_eq!(obs.metrics_interval(), Some(128));
        obs.trace_begin(0, 0, 3, "load", 256);
        obs.trace_hop(0, "reply", 7);
        obs.trace_end(0, 11);
        obs.record_metrics(&MetricsSample { cycle: 128, ..Default::default() });
        obs.finish(11).unwrap();
        let trace = String::from_utf8(trace_buf.0.lock().unwrap().clone()).unwrap();
        let doc = json::Json::parse(&trace).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_arr().unwrap().len(), 2);
        let metrics = String::from_utf8(metrics_buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(metrics.lines().count(), 1);
    }
}

