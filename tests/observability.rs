//! End-to-end observability: run a small kernel with tracing and metrics
//! attached, then validate the Chrome trace JSON and the metrics JSONL —
//! schema shape, span-phase coverage per sampled load, sampling cadence —
//! and check that attaching an observer does not perturb the simulation.

// Integration test: unwraps on fixture setup are the right failure mode.
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]

use dcl1_repro::common::{LineAddr, SplitMix64};
use dcl1_repro::dcl1::{
    Design, GpuConfig, GpuSystem, MetricsFormat, Observer, SimOptions,
};
use dcl1_repro::gpu::{MemAccess, MemInstr, MemKind, TraceFactory, TraceSource, WavefrontInstr};
use dcl1_repro::obs::json::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

/// An in-memory sink the test can read back after the run.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn text(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Load-heavy kernel: mostly shared-region loads with some streaming
/// misses, a few stores, and ALU gaps.
#[derive(Debug)]
struct LoadKernel;

#[derive(Debug)]
struct LoadTrace {
    rng: SplitMix64,
    uid: u64,
    i: u32,
    cursor: u64,
}

impl TraceSource for LoadTrace {
    fn next_instr(&mut self) -> WavefrontInstr {
        self.i += 1;
        if self.i > 40 {
            return WavefrontInstr::Done;
        }
        if self.rng.chance(0.4) {
            return WavefrontInstr::Alu { latency: 2 };
        }
        let r = self.rng.next_f64();
        let (kind, line) = if r < 0.15 {
            (MemKind::Store, self.rng.next_below(128))
        } else if r < 0.60 {
            (MemKind::Load, self.rng.next_below(128))
        } else {
            self.cursor += 1;
            (MemKind::Load, 500_000 + self.uid * 131 + self.cursor)
        };
        WavefrontInstr::Mem(MemInstr {
            kind,
            accesses: vec![MemAccess { line: LineAddr::new(line), bytes: 64 }],
        })
    }
}

impl TraceFactory for LoadKernel {
    fn wavefront_trace(&self, cta: u32, wf: u32) -> Box<dyn TraceSource> {
        let uid = cta as u64 * 2 + wf as u64;
        Box::new(LoadTrace { rng: SplitMix64::new(23).split(uid), uid, i: 0, cursor: 0 })
    }
    fn total_ctas(&self) -> u32 {
        16
    }
    fn wavefronts_per_cta(&self) -> u32 {
        2
    }
}

fn run_observed(design: &Design) -> (SharedBuf, SharedBuf, dcl1::RunStats) {
    let trace_buf = SharedBuf::default();
    let metrics_buf = SharedBuf::default();
    let obs = Observer::disabled()
        .with_trace(Box::new(trace_buf.clone()), 1)
        .unwrap()
        .with_metrics(Box::new(metrics_buf.clone()), 64, MetricsFormat::Jsonl);
    let cfg = GpuConfig::small_test();
    let mut sys = GpuSystem::build(&cfg, design, &LoadKernel, SimOptions::default()).unwrap();
    sys.attach_observer(obs);
    let stats = sys.run();
    (trace_buf, metrics_buf, stats)
}

#[test]
fn trace_json_is_schema_valid_with_full_span_chains() {
    for design in [Design::Baseline, Design::Shared { nodes: 4 }] {
        let (trace_buf, _, stats) = run_observed(&design);
        assert!(stats.instructions > 0);

        let doc = Json::parse(&trace_buf.text()).expect("trace must be valid JSON");
        assert_eq!(doc.get("displayTimeUnit").and_then(Json::as_str), Some("ms"));
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        assert!(!events.is_empty(), "no spans recorded ({design:?})");

        // Every event is a complete ("X") span with the required fields.
        let mut phases_by_txn: BTreeMap<u64, BTreeSet<String>> = BTreeMap::new();
        let mut load_txns = BTreeSet::new();
        for ev in events {
            assert_eq!(ev.get("ph").and_then(Json::as_str), Some("X"));
            let name = ev.get("name").and_then(Json::as_str).expect("name");
            assert!(ev.get("ts").and_then(Json::as_f64).is_some());
            assert!(ev.get("dur").and_then(Json::as_f64).unwrap() >= 1.0);
            assert!(ev.get("pid").and_then(Json::as_f64).is_some());
            let tid = ev.get("tid").and_then(Json::as_f64).expect("tid") as u64;
            let args = ev.get("args").expect("args");
            assert!(args.get("core").and_then(Json::as_f64).is_some());
            assert!(args.get("line").and_then(Json::as_f64).is_some());
            let kind = args.get("kind").and_then(Json::as_str).expect("kind");
            if kind == "load" {
                load_txns.insert(tid);
            }
            phases_by_txn.entry(tid).or_default().insert(name.to_string());
        }

        // Each sampled load walks at least four distinct lifecycle phases
        // (e.g. coalesce → l1_queue → dcl1_hit/dcl1_miss → … → reply).
        assert!(!load_txns.is_empty());
        for tid in &load_txns {
            let phases = &phases_by_txn[tid];
            assert!(
                phases.len() >= 4,
                "load txn {tid} has only phases {phases:?} ({design:?})"
            );
            assert!(phases.contains("coalesce"), "txn {tid} missing coalesce");
            assert!(phases.contains("reply"), "txn {tid} missing reply");
        }

        // Misses must additionally traverse the L2 side of the machine.
        let miss_phases: BTreeSet<&str> = phases_by_txn
            .values()
            .filter(|p| p.contains("dcl1_miss"))
            .flat_map(|p| p.iter().map(String::as_str))
            .collect();
        for required in ["noc2_req", "l2", "noc2_rep"] {
            assert!(miss_phases.contains(required), "no miss span hit {required}");
        }
    }
}

#[test]
fn metrics_jsonl_parses_and_samples_on_cadence() {
    let (_, metrics_buf, _) = run_observed(&Design::Baseline);
    let text = metrics_buf.text();
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "no metrics samples recorded");
    let mut prev_cycle = 0;
    for line in &lines {
        let doc = Json::parse(line).expect("metrics line must be valid JSON");
        let cycle = doc.get("cycle").and_then(Json::as_f64).expect("cycle") as u64;
        assert!(cycle.is_multiple_of(64), "sample off the 64-cycle cadence: {cycle}");
        assert!(cycle > prev_cycle || prev_cycle == 0, "cycles must increase");
        prev_cycle = cycle;
        for field in ["outbox_depth", "node_mshr", "active_wavefronts", "instructions"] {
            assert!(doc.get(field).and_then(Json::as_f64).is_some(), "missing {field}");
        }
    }
}

#[test]
fn observer_does_not_perturb_results() {
    let cfg = GpuConfig::small_test();
    for design in [Design::Baseline, Design::Shared { nodes: 4 }] {
        let mut plain = GpuSystem::build(&cfg, &design, &LoadKernel, SimOptions::default()).unwrap();
        let baseline = plain.run();
        let (_, _, observed) = run_observed(&design);
        assert_eq!(baseline, observed, "observer changed simulation results ({design:?})");
    }
}
