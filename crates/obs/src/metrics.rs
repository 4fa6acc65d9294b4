//! Periodic time-series metrics: one machine-wide snapshot per sampling
//! interval, streamed as JSONL (one JSON object per line) or CSV.
//!
//! The field list lives in one table ([`MetricsSample::FIELDS`]) so the
//! JSONL keys, the CSV header, and the CSV row order can never drift apart.

use std::fmt;
use std::io::{self, Write};

/// One snapshot of machine occupancy at a sampling boundary.
///
/// All gauges are summed across instances (e.g. `node_q1` is the total
/// Q1 depth over all DC-L1 nodes); `*_flits` and `instructions` are
/// cumulative counters, useful for differencing between samples.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSample {
    /// Simulated cycle at which the snapshot was taken.
    pub cycle: u64,
    /// Total pending transactions in per-core outboxes.
    pub outbox_depth: u64,
    /// DC-L1 request input queues (Q1), summed over nodes.
    pub node_q1: u64,
    /// DC-L1 reply output queues (Q2), summed over nodes.
    pub node_q2: u64,
    /// DC-L1 miss/L2-bound queues (Q3), summed over nodes.
    pub node_q3: u64,
    /// DC-L1 fill input queues (Q4), summed over nodes.
    pub node_q4: u64,
    /// Occupied MSHR entries, summed over nodes.
    pub node_mshr: u64,
    /// Hits in flight inside node hit pipelines.
    pub node_hit_pipe: u64,
    /// Requests in flight inside the core→L1 crossbar.
    pub noc1_req_inflight: u64,
    /// Replies in flight inside the L1→core crossbar.
    pub noc1_rep_inflight: u64,
    /// Requests in flight inside the L1→L2 interconnect.
    pub noc2_req_inflight: u64,
    /// Replies in flight inside the L2→L1 interconnect.
    pub noc2_rep_inflight: u64,
    /// Cumulative flits moved by NoC#1 (both directions).
    pub noc1_flits: u64,
    /// Cumulative flits moved by NoC#2 (both directions).
    pub noc2_flits: u64,
    /// L2 slice input queue depth, summed over slices.
    pub l2_input: u64,
    /// Occupied L2 MSHR entries, summed over slices.
    pub l2_mshr: u64,
    /// L2 replies waiting to be picked up, summed over slices.
    pub l2_replies: u64,
    /// DRAM controller command queue depth, summed over channels.
    pub dram_queue: u64,
    /// DRAM replies waiting to be picked up, summed over channels.
    pub dram_replies: u64,
    /// Wavefronts currently resident and not retired, summed over cores.
    pub active_wavefronts: u64,
    /// Wavefronts blocked on outstanding memory, summed over cores.
    pub waiting_wavefronts: u64,
    /// Cumulative instructions issued, summed over cores.
    pub instructions: u64,
    /// Execution domains the machine is partitioned into (1 = sequential).
    pub shards: u64,
}

/// One named accessor in [`MetricsSample::FIELDS`].
pub type FieldAccessor = (&'static str, fn(&MetricsSample) -> u64);

impl MetricsSample {
    /// Field table shared by the JSONL and CSV encoders.
    pub const FIELDS: &'static [FieldAccessor] = &[
        ("cycle", |s| s.cycle),
        ("outbox_depth", |s| s.outbox_depth),
        ("node_q1", |s| s.node_q1),
        ("node_q2", |s| s.node_q2),
        ("node_q3", |s| s.node_q3),
        ("node_q4", |s| s.node_q4),
        ("node_mshr", |s| s.node_mshr),
        ("node_hit_pipe", |s| s.node_hit_pipe),
        ("noc1_req_inflight", |s| s.noc1_req_inflight),
        ("noc1_rep_inflight", |s| s.noc1_rep_inflight),
        ("noc2_req_inflight", |s| s.noc2_req_inflight),
        ("noc2_rep_inflight", |s| s.noc2_rep_inflight),
        ("noc1_flits", |s| s.noc1_flits),
        ("noc2_flits", |s| s.noc2_flits),
        ("l2_input", |s| s.l2_input),
        ("l2_mshr", |s| s.l2_mshr),
        ("l2_replies", |s| s.l2_replies),
        ("dram_queue", |s| s.dram_queue),
        ("dram_replies", |s| s.dram_replies),
        ("active_wavefronts", |s| s.active_wavefronts),
        ("waiting_wavefronts", |s| s.waiting_wavefronts),
        ("instructions", |s| s.instructions),
        ("shards", |s| s.shards),
    ];
}

/// Output encoding for the metrics stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsFormat {
    /// One JSON object per line.
    Jsonl,
    /// Header row then one comma-separated row per sample.
    Csv,
}

/// Streams [`MetricsSample`]s to a sink at a fixed cycle interval.
pub struct MetricsWriter {
    interval: u64,
    format: MetricsFormat,
    out: io::BufWriter<Box<dyn Write + Send>>,
    wrote_header: bool,
    samples: u64,
}

impl fmt::Debug for MetricsWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MetricsWriter")
            .field("interval", &self.interval)
            .field("format", &self.format)
            .field("samples", &self.samples)
            .finish()
    }
}

impl MetricsWriter {
    /// Creates a writer sampling every `interval` cycles (0 is clamped to 1).
    pub fn new(sink: Box<dyn Write + Send>, interval: u64, format: MetricsFormat) -> MetricsWriter {
        MetricsWriter {
            interval: interval.max(1),
            format,
            out: io::BufWriter::new(sink),
            wrote_header: false,
            samples: 0,
        }
    }

    /// Sampling interval in cycles.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Appends one sample in the configured format.
    pub fn record(&mut self, sample: &MetricsSample) {
        match self.format {
            MetricsFormat::Jsonl => {
                let mut line = String::with_capacity(256);
                line.push('{');
                for (i, (name, get)) in MetricsSample::FIELDS.iter().enumerate() {
                    if i > 0 {
                        line.push(',');
                    }
                    line.push('"');
                    line.push_str(name);
                    line.push_str("\":");
                    line.push_str(&get(sample).to_string());
                }
                line.push_str("}\n");
                let _ = self.out.write_all(line.as_bytes());
            }
            MetricsFormat::Csv => {
                if !self.wrote_header {
                    let header: Vec<&str> = MetricsSample::FIELDS.iter().map(|(n, _)| *n).collect();
                    let _ = writeln!(self.out, "{}", header.join(","));
                    self.wrote_header = true;
                }
                let row: Vec<String> =
                    MetricsSample::FIELDS.iter().map(|(_, get)| get(sample).to_string()).collect();
                let _ = writeln!(self.out, "{}", row.join(","));
            }
        }
        self.samples += 1;
    }

    /// Flushes the sink.
    pub fn finish(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
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

    fn sample(cycle: u64) -> MetricsSample {
        MetricsSample {
            cycle,
            node_q1: 3,
            node_mshr: 17,
            instructions: 1000 + cycle,
            ..Default::default()
        }
    }

    #[test]
    fn jsonl_lines_parse_and_carry_all_fields() {
        let buf = SharedBuf::default();
        let mut w = MetricsWriter::new(Box::new(buf.clone()), 512, MetricsFormat::Jsonl);
        w.record(&sample(0));
        w.record(&sample(512));
        w.finish().unwrap();
        assert_eq!(w.samples, 2);
        drop(w);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for (i, line) in lines.iter().enumerate() {
            let doc = Json::parse(line).unwrap();
            assert_eq!(doc.get("cycle").unwrap().as_f64(), Some(512.0 * i as f64));
            assert_eq!(doc.get("node_mshr").unwrap().as_f64(), Some(17.0));
            for (name, _) in MetricsSample::FIELDS {
                assert!(doc.get(name).is_some(), "missing field {name}");
            }
        }
    }

    #[test]
    fn csv_header_matches_rows() {
        let buf = SharedBuf::default();
        let mut w = MetricsWriter::new(Box::new(buf.clone()), 256, MetricsFormat::Csv);
        w.record(&sample(256));
        w.finish().unwrap();
        drop(w);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let header: Vec<&str> = lines[0].split(',').collect();
        let row: Vec<&str> = lines[1].split(',').collect();
        assert_eq!(header.len(), MetricsSample::FIELDS.len());
        assert_eq!(header.len(), row.len());
        assert_eq!(header[0], "cycle");
        assert_eq!(row[0], "256");
        let mshr_col = header.iter().position(|&h| h == "node_mshr").unwrap();
        assert_eq!(row[mshr_col], "17");
    }

    #[test]
    fn zero_interval_is_clamped() {
        let w = MetricsWriter::new(Box::new(SharedBuf::default()), 0, MetricsFormat::Jsonl);
        assert_eq!(w.interval(), 1);
    }
}
