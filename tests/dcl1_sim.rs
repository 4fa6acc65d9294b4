//! `dcl1-sim`, the command-line front end, at smoke scale: every flag it
//! accepts changes what it prints the way its `--help` says, a recorded
//! trace replays to the cycles of the catalog run it was recorded from,
//! and a flag it does not accept — or a value spelled with a space —
//! exits 2 with the usage.

use dcl1_repro::workloads::{by_name, record_trace};
use std::process::Command;

/// `dcl1-sim ARGS` at smoke scale; returns (exit code, stdout, stderr).
fn sim(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dcl1-sim"))
        .args(args)
        .env("DCL1_SCALE", "smoke")
        .output()
        .expect("spawn dcl1-sim");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// One design's CSV row.
#[derive(Debug, Clone, PartialEq)]
struct Row {
    design: String,
    cycles: u64,
    ipc: String,
    miss: f64,
    dram: u64,
}

/// `dcl1-sim --csv ARGS`, which must succeed; its rows.
fn csv(args: &[&str]) -> Vec<Row> {
    let (code, stdout, stderr) = sim(&[&["--csv"], args].concat());
    assert_eq!(code, Some(0), "{args:?}: {stderr}");
    let mut lines = stdout.lines();
    assert_eq!(lines.next(), Some("design,cycles,IPC,miss,repl,rtt_p50,rtt_p95,dram"));
    lines
        .map(|line| {
            let cells: Vec<&str> = line.split(',').collect();
            assert_eq!(cells.len(), 8, "{line}");
            Row {
                design: cells[0].to_string(),
                cycles: cells[1].parse().expect("cycles"),
                ipc: cells[2].to_string(),
                miss: cells[3].parse().expect("miss"),
                dram: cells[7].parse().expect("dram"),
            }
        })
        .collect()
}

/// The single row of a one-design run of T-AlexNet (a cache-sensitive
/// app; C-BLK streams, so its L1 knobs move nothing) on the baseline.
fn baseline(extra: &[&str]) -> Row {
    let rows = csv(&[&["--app=T-AlexNet", "--design=baseline"], extra].concat());
    assert_eq!(rows.len(), 1, "{extra:?}");
    rows[0].clone()
}

#[test]
fn list_apps_prints_the_catalog() {
    let (code, stdout, _) = sim(&["--list-apps"]);
    assert_eq!(code, Some(0));
    assert_eq!(stdout.lines().count(), 28);
    assert!(stdout.lines().any(|l| l.starts_with("T-AlexNet ")), "{stdout}");
}

#[test]
fn designs_are_rows_and_the_first_is_the_reference() {
    let rows = csv(&["--app=C-BLK", "--design=baseline", "--design=sh40", "--design=pr40"]);
    let names: Vec<&str> = rows.iter().map(|r| r.design.as_str()).collect();
    assert_eq!(names, ["Baseline", "Sh40", "Pr40"]);
    assert!(rows[0].ipc.ends_with("(1.00x)"), "{:?}", rows[0]);
    assert!(rows.iter().all(|r| r.cycles > 0));
    // No --design: the baseline and the flagship; no --app: T-AlexNet.
    let (code, stdout, stderr) = sim(&["--cores=80"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("T-AlexNet: 2 designs on 80 cores"), "{stdout}");
    assert!(stdout.contains("Sh40+C10+Boost"), "{stdout}");
}

#[test]
fn every_knob_moves_what_it_models() {
    let reference = baseline(&[]);
    assert!(reference.miss > 0.0, "{reference:?}");
    assert_eq!(baseline(&["--perfect"]).miss, 0.0);
    assert!(baseline(&["--l1-kb=256"]).miss < reference.miss);
    assert!(baseline(&["--no-warmup"]).cycles > reference.cycles);
    for knob in ["--latency=200", "--gto", "--distributed-ctas", "--cores=40"] {
        assert_ne!(baseline(&[knob]), reference, "{knob} changed nothing");
    }
    let (code, stdout, stderr) = sim(&["--app=C-BLK", "--design=baseline", "--cores=40"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("C-BLK: 1 designs on 40 cores"), "{stdout}");
}

#[test]
fn a_replayed_trace_runs_the_cycles_of_its_catalog_run() {
    let path = std::env::temp_dir().join(format!("dcl1-sim-{}.dcl1trc", std::process::id()));
    record_trace(&by_name("C-BLK").expect("catalog app").scaled(1, 16), &path).expect("record");
    let file = format!("--replay={}", path.display());
    let replayed = csv(&[&file, "--design=baseline", "--design=sh40"]);
    let catalog = csv(&["--app=C-BLK", "--no-warmup", "--design=baseline", "--design=sh40"]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(replayed, catalog);
}

#[test]
fn what_it_does_not_accept_exits_2_with_the_usage() {
    for line in [&["--scale=smoke"][..], &["--app", "C-BLK"], &["--design=sh77"], &["--cores=x"]] {
        let (code, stdout, stderr) = sim(line);
        assert_eq!(code, Some(2), "{line:?}: {stderr}");
        assert!(stderr.starts_with("dcl1-sim: "), "{line:?}: {stderr}");
        assert!(stderr.contains("usage: dcl1-sim"), "{line:?}: {stderr}");
        assert!(stdout.is_empty(), "{line:?} ran something: {stdout}");
    }
    let (code, stdout, _) = sim(&["--help"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("--replay=FILE"), "{stdout}");
}
