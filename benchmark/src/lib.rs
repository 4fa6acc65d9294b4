//! `dcl1-benchmark`: the repo's one performance ledger.
//!
//! ```text
//! dcl1-benchmark                                  every workload, untraced then traced
//! dcl1-benchmark --aa                             two full sets of the same build, spread vs bound
//! dcl1-benchmark --workload W --seed N --seconds S --trace 0|1
//!                                                 one run, one JSON result line (the driver's contract)
//! dcl1-benchmark validate RESULTS.json            fail on any absent, undeclared or malformed metric
//! dcl1-benchmark compare BASE.json NEW.json       regression verdict per metric and workload
//! ```
//!
//! Run from the root of a checkout (`BENCHMARK.json` is read from the
//! current directory). See `benchmark/README.md`.

pub mod args;
pub mod child;
pub mod client;
pub mod compare;
pub mod harness;
pub mod host;
pub mod json;
pub mod layers;
pub mod manifest;
pub mod micro;
pub mod points;
pub mod results;
pub mod stats;
pub mod trace;

use args::Args;
use harness::{Ctx, RunOutcome, WORKLOADS};
use json::Json;
use manifest::Manifest;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Runs the command line `argv` (without the program name).
pub fn run(argv: &[String]) -> ExitCode {
    let outcome = match argv.first().map(String::as_str) {
        Some("child") => child::main(&argv[1..]).map(|()| true),
        Some("validate") => validate(&argv[1..]),
        Some("compare") => compare(&argv[1..]),
        _ => Args::parse(argv).and_then(|a| bench(&a)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("dcl1-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn validate(paths: &[String]) -> Result<bool, String> {
    let [path] = paths else {
        return Err("usage: validate RESULTS.json".to_string());
    };
    let manifest = Manifest::load(Path::new("BENCHMARK.json"))?;
    let problems = results::validate(&manifest, &json::read_file(Path::new(path))?);
    for p in &problems {
        println!("{p}");
    }
    println!(
        "{path}: {}",
        if problems.is_empty() {
            "valid"
        } else {
            "INVALID"
        }
    );
    Ok(problems.is_empty())
}

fn compare(paths: &[String]) -> Result<bool, String> {
    let [base, new] = paths else {
        return Err("usage: compare BASE.json NEW.json".to_string());
    };
    let manifest = Manifest::load(Path::new("BENCHMARK.json"))?;
    let (base, new) = (
        json::read_file(Path::new(base))?,
        json::read_file(Path::new(new))?,
    );
    for (side, doc) in [("baseline", &base), ("new", &new)] {
        let problems = results::validate(&manifest, doc);
        if !problems.is_empty() {
            return Err(format!("{side} file is invalid: {}", problems.join("; ")));
        }
    }
    let cmp = compare::compare(&manifest, &base, &new)?;
    print!("{cmp}");
    Ok(cmp.passed())
}

fn bench(args: &Args) -> Result<bool, String> {
    args.only(&["workload", "seed", "seconds", "trace", "aa", "out"])?;
    let ctx = Ctx::load()?;
    let seed: u64 = args.get("seed", 1)?;
    let seconds: u64 = args.get("seconds", ctx.manifest.run_seconds)?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    if let Some(name) = args.str("workload") {
        // The driver's contract: one run, and the result is the last line
        // of stdout. A run whose output is wrong prints no result at all.
        let traced = args.get("trace", 0u8)? == 1;
        let run = harness::run_workload(&ctx, harness::workload(name)?, seed, seconds, traced)?;
        println!("{}", run.contract_line()?);
        return Ok(true);
    }
    let out = args
        .str("out")
        .map_or_else(|| ctx.work.join("results.json"), PathBuf::from);
    if args.has("aa") {
        return aa(&ctx, seed, seconds, &out);
    }
    let doc = full_set(&ctx, seed, seconds)?;
    write_results(&out, &doc)?;
    Ok(report_validity(&ctx.manifest, &doc))
}

/// Every workload once untraced and once traced, printed as it completes.
fn full_set(ctx: &Ctx, seed: u64, seconds: u64) -> Result<Json, String> {
    let h = &ctx.host;
    println!(
        "host: {} cores, {}, load {:.2} {:.2} {:.2}; all times are host time",
        h.nproc, h.cpu_model, h.loadavg[0], h.loadavg[1], h.loadavg[2]
    );
    let mut runs = Vec::new();
    for w in &WORKLOADS {
        for traced in [false, true] {
            let run = harness::run_workload(ctx, w, seed, seconds, traced)?;
            print_run(&run);
            if traced {
                print_self_times(ctx, w.name)?;
            }
            runs.push(run);
        }
    }
    Ok(results::document(h, &runs))
}

fn print_run(run: &RunOutcome) {
    println!(
        "\n== {} ({}, seed {}) — attempted {}, failed {}, fail_share {}",
        run.workload,
        if run.traced {
            "traced: per-layer"
        } else {
            "untraced: end-to-end"
        },
        run.seed,
        run.attempted,
        run.failed,
        run.fail_share()
    );
    for (name, m) in &run.metrics {
        println!("  {name:<34} {:>16.4} {:<6} n={}", m.value, m.unit, m.n);
    }
}

/// Self time per span name, from the span file the traced run just wrote.
fn print_self_times(ctx: &Ctx, workload: &str) -> Result<(), String> {
    let path = ctx.work.join(format!("spans-{workload}.jsonl"));
    let spans = trace::read_jsonl(&path)?;
    println!("  spans ({}): name, count, total s, self s", path.display());
    for (name, t) in trace::self_times(&spans) {
        println!(
            "    {name:<30} {:>7} {:>10.3} {:>10.3}",
            t.count,
            t.total_ns as f64 / 1e9,
            t.self_ns as f64 / 1e9
        );
    }
    Ok(())
}

fn write_results(path: &Path, doc: &Json) -> Result<(), String> {
    std::fs::write(path, json::render(doc)? + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("\nresults written to {}", path.display());
    Ok(())
}

fn report_validity(manifest: &Manifest, doc: &Json) -> bool {
    let problems = results::validate(manifest, doc);
    for p in &problems {
        println!("INVALID: {p}");
    }
    if problems.is_empty() {
        println!(
            "every declared metric is present, finite and in its unit; every output was checked"
        );
    }
    problems.is_empty()
}

/// A/A: two full sets of the same build. Every end-to-end metric must
/// agree within its own bound, exact counts must be identical, and
/// nothing may fail; otherwise the benchmark, not the code, needs work.
fn aa(ctx: &Ctx, seed: u64, seconds: u64, out: &Path) -> Result<bool, String> {
    let mut sets = Vec::new();
    for (i, tag) in ["a", "b"].iter().enumerate() {
        println!("\n#### A/A set {tag}");
        // A different seed per set: the seed may only reorder submissions,
        // so the sets must still agree.
        let doc = full_set(ctx, seed + i as u64, seconds)?;
        write_results(&out.with_extension(format!("{tag}.json")), &doc)?;
        if !report_validity(&ctx.manifest, &doc) {
            return Ok(false);
        }
        sets.push(doc);
    }
    let cmp = compare::compare(&ctx.manifest, &sets[0], &sets[1])?;
    println!("\n#### A/A: set b against set a");
    print!("{cmp}");
    let mut ok = cmp.fail_share_rises.is_empty();
    for r in cmp.rows.iter().filter(|r| r.bound.is_some()) {
        let bound = r.bound.unwrap_or(0.0);
        // Judge the gap symmetrically: neither set is "the baseline".
        let gap = (r.new - r.base).abs() / r.base.abs().min(r.new.abs()).max(f64::MIN_POSITIVE);
        if gap > bound {
            println!(
                "A/A DISAGREES: {} {} differs by {:.1} % (bound {:.1} %)",
                r.workload,
                r.metric,
                100.0 * gap,
                100.0 * bound
            );
            ok = false;
        }
    }
    for m in compare::count_mismatches(&cmp) {
        println!("A/A COUNT MISMATCH: {m}");
        ok = false;
    }
    for set in &sets {
        for run in results::runs(set)? {
            if run.failed != 0 {
                println!(
                    "A/A FAILURES: {} had {} failed operation(s)",
                    run.workload, run.failed
                );
                ok = false;
            }
        }
    }
    println!(
        "A/A {}",
        if ok {
            "agrees within every bound"
        } else {
            "FAILED"
        }
    );
    Ok(ok)
}
