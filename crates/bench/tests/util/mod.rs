//! Shared by the integration tests that drive the real `perf_sweep`
//! binary: scratch directories, the invocation itself, and readers for
//! what it writes.

// Each test binary uses its own subset.
#![allow(dead_code)]

use dcl1_obs::json::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::process::Command;

/// An empty scratch directory unique to one test of one test process.
pub fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dcl1-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// `perf_sweep` at smoke scale, run from `dir` (so relative paths on its
/// command line land there) with its result cache in `dir/cache` — never
/// the in-process runner's or a developer's.
pub fn sweep_cmd(dir: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perf_sweep"));
    cmd.env("DCL1_SCALE", "smoke")
        .env("DCL1_CACHE_DIR", dir.join("cache"))
        .env_remove("DCL1_CACHE_SHARED_DIR")
        .current_dir(dir);
    cmd
}

/// What one finished sweep left behind.
pub struct Sweep {
    /// The `--json` report.
    pub report: Json,
    /// The `--stats-out` dump.
    pub dump: String,
    pub stderr: String,
}

/// `perf_sweep ARGS` in `dir` to completion; see [`finish`].
pub fn sweep(dir: &Path, name: &str, args: &[impl AsRef<OsStr>]) -> Sweep {
    finish(sweep_cmd(dir).args(args), name)
}

/// Runs `cmd` (a [`sweep_cmd`], arguments and environment added) to
/// completion, writing `NAME.json` and `NAME.txt` into its directory.
/// The sweep must exit 0.
pub fn finish(cmd: &mut Command, name: &str) -> Sweep {
    let dir = cmd.get_current_dir().expect("sweep_cmd sets the directory").to_path_buf();
    cmd.arg(format!("--json={name}.json")).arg(format!("--stats-out={name}.txt"));
    let out = cmd.output().expect("spawn perf_sweep");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "sweep {name} failed: {cmd:?}\n{stderr}");
    let report = read(&dir.join(format!("{name}.json")));
    Sweep {
        report: Json::parse(&report).unwrap_or_else(|e| panic!("{name}.json: {e}\n{report}")),
        dump: read(&dir.join(format!("{name}.txt"))),
        stderr,
    }
}

pub fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// `doc[path[0]][path[1]]…`; an absent key fails, naming it.
pub fn at<'a>(doc: &'a Json, path: &[&str]) -> &'a Json {
    path.iter().enumerate().fold(doc, |node, (i, key)| {
        node.get(key).unwrap_or_else(|| panic!("no key {:?} in the document", &path[..=i]))
    })
}

pub fn num(doc: &Json, path: &[&str]) -> f64 {
    at(doc, path).as_f64().unwrap_or_else(|| panic!("{path:?} is not a number"))
}

pub fn text<'a>(doc: &'a Json, path: &[&str]) -> &'a str {
    at(doc, path).as_str().unwrap_or_else(|| panic!("{path:?} is not a string"))
}

pub fn list<'a>(doc: &'a Json, path: &[&str]) -> &'a [Json] {
    at(doc, path).as_arr().unwrap_or_else(|| panic!("{path:?} is not a list"))
}

/// The labels of a report's `quarantined` list.
pub fn quarantined(report: &Json) -> BTreeSet<&str> {
    list(report, &["quarantined"]).iter().map(|q| text(q, &["point"])).collect()
}

/// Splits a canonical stats dump at its `=== LABEL` lines into
/// label → that point's lines.
pub fn split_dump(dump: &str) -> BTreeMap<&str, &str> {
    let chunks = dump.strip_prefix("=== ").and_then(|d| d.strip_suffix('\n'));
    chunks
        .expect("a dump starts with a label line and ends with a newline")
        .split("\n=== ")
        .map(|chunk| chunk.split_once('\n').expect("a label line, then the point's stats"))
        .collect()
}
