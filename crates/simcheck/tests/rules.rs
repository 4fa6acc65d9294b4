//! Seeded regression fixtures: every rule must fire on a deliberately-bad
//! source, stay quiet on the fixed/annotated variant, and the real
//! workspace must lint clean (the acceptance criterion for every PR).

use simcheck::rules::{lint_file, Finding};
use simcheck::schema;
use simcheck::source::SourceFile;

fn findings(path: &str, src: &str) -> Vec<Finding> {
    lint_file(&SourceFile::from_source(path, src)).findings
}

fn fires(path: &str, src: &str, rule: &str) -> bool {
    findings(path, src).iter().any(|f| f.rule == rule)
}

#[test]
fn hash_order_fires_on_default_hashmap() {
    let bad = "use std::collections::HashMap;\npub struct S { m: HashMap<u64, u64> }\n";
    assert!(fires("crates/dcl1/src/bad.rs", bad, "hash_order"));
    let set = "fn f() { let s = std::collections::HashSet::new(); }\n";
    assert!(fires("crates/mem/src/bad.rs", set, "hash_order"));
}

#[test]
fn hash_order_accepts_btree_explicit_hasher_and_tests() {
    assert!(!fires(
        "crates/dcl1/src/ok.rs",
        "use std::collections::BTreeMap;\npub struct S { m: BTreeMap<u64, u64> }\n",
        "hash_order"
    ));
    assert!(!fires(
        "crates/dcl1/src/ok.rs",
        "fn f() { let m: HashMap<u8, u8, Fnv> = HashMap::with_hasher(Fnv); }\n",
        "hash_order"
    ));
    assert!(!fires(
        "crates/dcl1/src/ok.rs",
        "#[cfg(test)]\nmod tests {\n    fn t() { let m = std::collections::HashMap::new(); }\n}\n",
        "hash_order"
    ));
}

#[test]
fn wall_clock_fires_only_in_hot_crates() {
    let bad = "fn f() { let t = std::time::Instant::now(); }\n";
    for krate in ["gpu", "dcl1", "noc", "mem", "cache", "dcl1d"] {
        assert!(fires(&format!("crates/{krate}/src/bad.rs"), bad, "wall_clock"), "{krate}");
    }
    // The bench runner legitimately measures wall time.
    assert!(!fires("crates/bench/src/runner.rs", bad, "wall_clock"));
    let env = "fn f() { let v = std::env::var(\"DCL1_SCALE\"); }\n";
    assert!(fires("crates/gpu/src/bad.rs", env, "wall_clock"));
}

#[test]
fn wall_clock_covers_the_daemon_crate() {
    // Daemon I/O timing is diagnostic-only and must stay out of sim
    // state: an un-annotated clock read anywhere in `crates/dcl1d/src`
    // is a finding, and `dcl1d` is not masked by the `dcl1` prefix.
    let bad = "fn accept_loop() { let t0 = std::time::Instant::now(); }\n";
    assert!(fires("crates/dcl1d/src/server.rs", bad, "wall_clock"));
    let env = "fn cfg() { let v = std::env::var(\"DCL1D_ADDR\"); }\n";
    assert!(fires("crates/dcl1d/src/scheduler.rs", env, "wall_clock"));
    let allowed = "// simcheck: allow(wall_clock): CLI argument parsing, not sim state\n\
                   fn main() { let a: Vec<String> = std::env::args().collect(); }\n";
    let r = lint_file(&SourceFile::from_source("crates/dcl1d/src/bin/dcl1d.rs", allowed));
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert_eq!(r.suppressed, 1);
}

#[test]
fn truncating_cast_fires_on_counter_narrowing() {
    let bad = "fn f(&self) -> u32 { self.cycles as u32 }\n";
    assert!(fires("crates/noc/src/bad.rs", bad, "truncating_cast"));
    let flits = "let x = packet.data_flits as u16;\n";
    assert!(fires("crates/noc/src/bad.rs", flits, "truncating_cast"));
}

#[test]
fn truncating_cast_accepts_widening_lengths_and_expect() {
    assert!(!fires("crates/noc/src/ok.rs", "let x = self.cycles as u64;\n", "truncating_cast"));
    assert!(!fires("crates/noc/src/ok.rs", "let x = v.len() as u32;\n", "truncating_cast"));
    let waived = "#[expect(clippy::cast_possible_truncation)]\nfn f(&self) -> u32 { self.cycles as u32 }\n";
    assert!(!fires("crates/noc/src/ok.rs", waived, "truncating_cast"));
}

#[test]
fn float_accum_fires_on_running_float_sum() {
    let bad = "pub struct S { acc: f64 }\nimpl S { fn add(&mut self, v: f64) { self.acc += v; } }\n";
    assert!(fires("crates/obs/src/bad.rs", bad, "float_accum"));
    let local = "fn f(vs: &[f64]) -> f64 { let mut sum = 0.0; for v in vs { sum += v; } sum }\n";
    assert!(fires("crates/bench/src/bad.rs", local, "float_accum"));
}

#[test]
fn float_accum_exempts_the_welford_home_and_integers() {
    let welford = "pub struct M { wmean: f64 }\nimpl M { fn p(&mut self, d: f64) { self.wmean += d; } }\n";
    assert!(!fires("crates/common/src/stats.rs", welford, "float_accum"));
    assert!(!fires("crates/dcl1/src/ok.rs", "fn f(&mut self) { self.now += 1; }\n", "float_accum"));
}

#[test]
fn annotations_suppress_with_reason_and_report_without() {
    let with_reason = "// simcheck: allow(hash_order): insertion-only, never iterated\nlet m: HashMap<u8, u8> = mk();\n";
    let r = lint_file(&SourceFile::from_source("crates/dcl1/src/x.rs", with_reason));
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert_eq!(r.suppressed, 1);

    let bare = "let m: HashMap<u8, u8> = mk(); // simcheck: allow(hash_order)\n";
    let r = lint_file(&SourceFile::from_source("crates/dcl1/src/x.rs", bare));
    assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
    assert!(r.findings[0].message.contains("reason"));

    let typo = "// simcheck: allow(hash_ordering): oops\nfn f() {}\n";
    let r = lint_file(&SourceFile::from_source("crates/dcl1/src/x.rs", typo));
    assert!(r.findings[0].message.contains("unknown rule"), "{:?}", r.findings);
}

#[test]
fn stats_schema_fires_on_unbumped_field_change() {
    let old = "pub struct RunStats {\n    pub cycles: u64,\n}\n";
    let new = "pub struct RunStats {\n    pub cycles: u64,\n    pub extra: u64,\n}\n";
    let (old_fp, _) = schema::fingerprint_stats(old).unwrap();
    let (new_fp, new_count) = schema::fingerprint_stats(new).unwrap();
    assert_ne!(old_fp, new_fp);
    let lock = schema::Lock { fingerprint: old_fp, field_count: 1, cache_version: 2 };
    let state = schema::SchemaState {
        fingerprint: new_fp,
        field_count: new_count,
        cache_version: 2, // not bumped
        seen_guard: Some(new_count),
    };
    let findings = schema::check_schema(&state, Some(&lock));
    assert!(
        findings.iter().any(|f| f.rule == "stats_schema"
            && f.message.contains("without bumping CACHE_SCHEMA_VERSION")),
        "{findings:?}"
    );
}

/// A deliberately nondeterministic shard-merge: every classic way to
/// break run-to-run reproducibility when folding per-shard results —
/// hash-ordered iteration, wall-clock-dependent merge order, and a
/// counter narrowed during accumulation — must be caught in the sharded
/// machine's home crate.
#[test]
fn rules_fire_on_a_nondeterministic_shard_merge() {
    let merge_by_hash_order = "use std::collections::HashMap;\n\
        pub struct Shard { counters: HashMap<u64, u64> }\n\
        fn merge(shards: &[Shard]) -> Vec<u64> {\n\
            let mut out = Vec::new();\n\
            for s in shards { for (_, v) in &s.counters { out.push(*v); } }\n\
            out\n\
        }\n";
    assert!(fires("crates/dcl1/src/shard.rs", merge_by_hash_order, "hash_order"));

    let merge_by_arrival = "fn merge(&mut self) {\n\
        let deadline = std::time::Instant::now();\n\
        while std::time::Instant::now() < deadline { self.drain_one(); }\n\
    }\n";
    assert!(fires("crates/dcl1/src/shard.rs", merge_by_arrival, "wall_clock"));

    let narrowed_merge = "fn fold(&mut self, shard_flits: u64) { self.total += shard_flits as u32 as u64; }\n";
    assert!(fires("crates/dcl1/src/shard.rs", narrowed_merge, "truncating_cast"));
}

/// The sanctioned exceptions in the real machine are
/// annotation-suppressed *with reasons* — the same snippets without the
/// annotation would be findings.
#[test]
fn shard_wall_clock_exceptions_are_annotated_with_reasons() {
    // Shape of the sanctioned uses in machine.rs: phase-profiler laps
    // that never feed simulation state.
    let sanctioned = "// simcheck: allow(wall_clock): phase profiler diagnostics only, never feeds stats\n\
        let t0 = std::time::Instant::now();\n";
    let r = lint_file(&SourceFile::from_source("crates/dcl1/src/machine.rs", sanctioned));
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert_eq!(r.suppressed, 1);

    let unsanctioned = "let t0 = std::time::Instant::now();\n";
    assert!(fires("crates/dcl1/src/machine.rs", unsanctioned, "wall_clock"));
}

/// A seeded metric-registration fixture: deterministically generate a
/// metrics module with well-formed registrations, then plant one
/// malformed name and one cross-file duplicate — the per-file half must
/// flag exactly the malformed site and the workspace half exactly the
/// duplicated one.
#[test]
fn metric_names_seeded_fixture_fires_on_plants() {
    let mut rng = dcl1_common::SplitMix64::new(0x5EED_3E7A);
    for round in 0..8 {
        let n = 4 + usize::try_from(rng.next_below(12)).expect("small");
        let bad_at = usize::try_from(rng.next_below(n as u64)).expect("small");
        let dup_at = usize::try_from(rng.next_below(n as u64)).expect("small");
        let kinds = ["counter", "gauge", "histogram"];
        let mut src = String::new();
        for i in 0..n {
            let kind = kinds[usize::try_from(rng.next_below(3)).expect("small")];
            let name = if i == bad_at {
                format!("fix{round}.CamelCase_{i}")
            } else {
                format!("fix{round}.metric_{i}")
            };
            src.push_str(&format!("    let m{i} = reg.{kind}(\"{name}\");\n"));
        }
        let per_file = findings("crates/gpu/src/planted.rs", &src);
        assert_eq!(per_file.len(), 1, "round {round}: {per_file:?}");
        assert_eq!(per_file[0].rule, "metric_names");
        assert_eq!(per_file[0].line, bad_at + 1);

        // The same (well-formed) name registered again from another file.
        let other = format!("    let d = reg.counter(\"fix{round}.metric_{dup_at}\");\n");
        let mut sites =
            simcheck::rules::metric_sites(&SourceFile::from_source("crates/gpu/src/planted.rs", &src));
        sites.extend(simcheck::rules::metric_sites(&SourceFile::from_source(
            "crates/noc/src/planted.rs",
            &other,
        )));
        let dups = simcheck::rules::check_metric_duplicates(&sites);
        if dup_at == bad_at {
            // The duplicate of the malformed name still collides lexically.
            assert_eq!(dups.len(), 1, "round {round}: {dups:?}");
        } else {
            assert_eq!(dups.len(), 1, "round {round}: {dups:?}");
            assert!(dups[0].message.contains(&format!("fix{round}.metric_{dup_at}")));
        }
        assert_eq!(dups[0].path.to_string_lossy().replace('\\', "/"), "crates/noc/src/planted.rs");
    }
}

/// The acceptance criterion: the real workspace lints clean.
#[test]
fn workspace_is_simcheck_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root")
        .to_path_buf();
    let report = simcheck::run_lint(&root).expect("lint runs");
    assert!(report.files > 50, "workspace discovery broke: {} files", report.files);
    let rendered: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    assert!(rendered.is_empty(), "workspace has findings:\n{}", rendered.join("\n"));
}
