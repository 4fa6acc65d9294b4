//! What a cold `perf_sweep` over the smoke grid writes besides
//! statistics: the `--progress` event stream, the `--json` report's phase
//! profile and registry, and the `--trace` / `--metrics` files of the
//! observed point. Every document is parsed with `dcl1_obs::json` and
//! every key is looked up by name, so a key that stops being written
//! fails here just as a wrong value does.

mod util;

use dcl1_obs::json::Json;
use std::collections::BTreeSet;
use util::{list, num, read, scratch, sweep, text};

fn jsonl(text: &str) -> Vec<Json> {
    let docs: Vec<Json> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("{e}: {l}")))
        .collect();
    assert!(!docs.is_empty(), "the stream is empty");
    docs
}

#[test]
fn progress_stream_report_trace_and_metrics_keep_their_schema() {
    let dir = scratch("report");
    let out = sweep(
        &dir,
        "sweep",
        &[
            "--progress=progress.jsonl",
            "--trace=trace.json",
            "--metrics=metrics.jsonl",
            "--metrics-interval=512",
        ],
    );

    // The progress stream: known stages, the four common fields, a total
    // order, every started point closed, live throughput on completions.
    let events = jsonl(&read(&dir.join("progress.jsonl")));
    let stages = ["queued", "started", "progress", "retry", "quarantined", "completed"];
    let points_in = |wanted: &[&str]| -> BTreeSet<&str> {
        events
            .iter()
            .filter(|e| wanted.contains(&text(e, &["event"])))
            .map(|e| text(e, &["point"]))
            .collect()
    };
    for e in &events {
        assert!(stages.contains(&text(e, &["event"])), "unknown event: {e:?}");
        num(e, &["t_ms"]);
    }
    let seqs: Vec<f64> = events.iter().map(|e| num(e, &["seq"])).collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "seq is not strictly increasing");
    let started = points_in(&["started"]);
    assert_eq!(started.len(), 112);
    assert!(started.is_subset(&points_in(&["completed", "quarantined"])), "unclosed points");
    let simulated: Vec<&Json> = events
        .iter()
        .filter(|e| text(e, &["event"]) == "completed")
        .filter(|e| e.get("source").and_then(Json::as_str) == Some("simulated"))
        .collect();
    assert_eq!(simulated.len(), 112, "a cold sweep simulates every point");
    for e in simulated {
        assert!(num(e, &["khz"]) > 0.0 && num(e, &["cycles"]) > 0.0, "{e:?}");
    }

    // The report: phase profile and registry embedded, per point too.
    let report = &out.report;
    let profile = list(report, &["profile"]);
    let phases: BTreeSet<&str> = profile.iter().map(|p| text(p, &["phase"])).collect();
    for phase in ["issue", "noc1", "mem", "exchange"] {
        assert!(phases.contains(phase), "profile lacks {phase}: {phases:?}");
    }
    assert!(profile.iter().map(|p| num(p, &["nanos"])).sum::<f64>() > 0.0);
    assert!(num(report, &["registry", "gpu.instructions"]) > 0.0);
    assert_eq!(num(report, &["registry", "memo.simulated"]), 112.0);
    for counter in [
        "memo.mem_hits",
        "memo.disk_hits",
        "memo.shared_hits",
        "memo.misses",
        "memo.mem_evictions",
        "memo.disk_evictions",
        "memo.mem_bytes",
        "memo.disk_bytes",
        "memo.flight_waits",
        "memo.migrated_entries",
    ] {
        num(report, &["registry", counter]);
    }
    for histogram in ["memo.disk_lookup_nanos", "memo.shared_lookup_nanos"] {
        num(report, &["registry", histogram, "count"]);
        list(report, &["registry", histogram, "buckets"]);
    }
    for probed in ["memo.mem_lookup_nanos", "memo.fill_nanos"] {
        assert!(num(report, &["registry", probed, "count"]) > 0.0, "{probed} never recorded");
        list(report, &["registry", probed, "buckets"]);
    }
    let points = list(report, &["points"]);
    assert_eq!(points.len(), 112);
    for p in points {
        list(p, &["phases"]);
    }

    // The observed point's trace and metrics.
    let trace = Json::parse(&read(&dir.join("trace.json"))).expect("trace parses");
    let spans: BTreeSet<&str> = list(&trace, &["traceEvents"])
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .map(|e| text(e, &["name"]))
        .collect();
    assert!(spans.len() >= 4, "expected at least 4 span phases, got {spans:?}");
    let cycles: Vec<f64> =
        jsonl(&read(&dir.join("metrics.jsonl"))).iter().map(|s| num(s, &["cycle"])).collect();
    assert!(cycles.windows(2).all(|w| w[0] <= w[1]), "samples out of order");
    let _ = std::fs::remove_dir_all(&dir);
}
