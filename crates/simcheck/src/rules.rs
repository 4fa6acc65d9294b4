//! The lint rules: lexical determinism/integrity checks over scanned
//! sources (see `ROADMAP.md`'s reproducibility goal — simulation results
//! are memoized on disk, so anything order- or environment-dependent in
//! sim state silently poisons every figure).
//!
//! Findings are suppressed by a `// simcheck: allow(rule): reason`
//! annotation on the same or the preceding line; an annotation without a
//! reason is itself reported. Test code (`tests/`, `benches/`,
//! `#[cfg(test)]` blocks) is not scanned.

use crate::source::{Allow, SourceFile};
use std::path::PathBuf;

/// Every rule name, as used in annotations, reports, and the lock file's
/// rule census. The first seven are per-line lexical rules; the last five
/// are the cross-file shard-safety rules (see [`crate::crossfile`]).
pub const RULES: [&str; 12] = [
    "hash_order",
    "wall_clock",
    "truncating_cast",
    "float_accum",
    "stats_schema",
    "bare_catch_unwind",
    "metric_names",
    "shard_shared_state",
    "merge_commutative",
    "epoch_order",
    "unsorted_iteration",
    "rng_source",
];

/// The meta-rule for malformed/unknown `simcheck: allow(...)` annotations.
/// Not part of [`RULES`] (there is nothing to allow-list it *against* in
/// the census), but a first-class name in reports and annotations.
pub const ALLOW_HYGIENE: &str = "allow_hygiene";

/// Crates whose hot paths must stay free of wall-clock/environment reads.
/// `dcl1d` is on the list deliberately: the daemon hosts simulation
/// workers, and connection/queue timing is diagnostic-only — it must
/// never leak into simulated state.
const HOT_CRATES: [&str; 6] = ["gpu", "dcl1", "noc", "mem", "cache", "dcl1d"];

/// Identifier parts naming the counters the truncating-cast rule guards.
const COUNTER_WORDS: [&str; 16] = [
    "cycle", "cycles", "now", "flit", "flits", "byte", "bytes", "tick", "ticks", "instr",
    "instrs", "instructions", "stall", "stalls", "epoch", "epochs",
];

/// Cast targets that can drop bits from a 64-bit counter.
const NARROW_TARGETS: [&str; 8] = ["u8", "u16", "u32", "i8", "i16", "i32", "usize", "isize"];

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The rule that fired.
    pub rule: &'static str,
    /// File the finding is in.
    pub path: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// What is wrong and what to do about it.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path.display(), self.line, self.rule, self.message)
    }
}

/// Result of linting one file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Findings that survived annotation filtering (including
    /// annotation-hygiene findings).
    pub findings: Vec<Finding>,
    /// Findings suppressed by a well-formed annotation.
    pub suppressed: usize,
}

/// Runs every per-file rule over `file` and applies annotations.
pub fn lint_file(file: &SourceFile) -> FileReport {
    let mut raw = Vec::new();
    hash_order(file, &mut raw);
    if in_hot_crate(file) {
        wall_clock(file, &mut raw);
    }
    truncating_cast(file, &mut raw);
    float_accum(file, &mut raw);
    bare_catch_unwind(file, &mut raw);
    metric_names(file, &mut raw);

    annotation_hygiene(file, &mut raw);

    let mut report = FileReport::default();
    for f in raw {
        match allow_for(file, f.line, f.rule) {
            Some(a) if a.has_reason => report.suppressed += 1,
            Some(_) => report.findings.push(Finding {
                rule: f.rule,
                path: f.path.clone(),
                line: f.line,
                message: format!(
                    "annotation `simcheck: allow({})` needs a `: reason` explaining why the \
                     finding is safe",
                    f.rule
                ),
            }),
            None => report.findings.push(f),
        }
    }
    report
}

/// The annotation covering (`line`, `rule`), if any: same line or the
/// line directly above.
pub(crate) fn allow_for(file: &SourceFile, line: usize, rule: &str) -> Option<Allow> {
    for probe in [line, line.saturating_sub(1)] {
        if probe == 0 {
            continue;
        }
        if let Some(a) = file.allows_on(probe).into_iter().find(|a| a.rule == rule) {
            return Some(a);
        }
    }
    None
}

/// `allow_hygiene`: annotations naming rules that do not exist (typos
/// silently suppress nothing — surface them). Runs before annotation
/// filtering, so a deliberate forward-reference can itself carry a
/// reasoned `allow(allow_hygiene)`.
fn annotation_hygiene(file: &SourceFile, out: &mut Vec<Finding>) {
    for line in &file.lines {
        for a in crate::source::parse_allows(&line.comment) {
            if !RULES.contains(&a.rule.as_str()) && a.rule != ALLOW_HYGIENE {
                out.push(Finding {
                    rule: ALLOW_HYGIENE,
                    path: file.path.clone(),
                    line: line.number,
                    message: format!("annotation names unknown rule `{}`", a.rule),
                });
            }
        }
    }
}

fn in_hot_crate(file: &SourceFile) -> bool {
    let p = file.path.to_string_lossy().replace('\\', "/");
    HOT_CRATES.iter().any(|c| p.contains(&format!("crates/{c}/")))
}

/// `hash_order`: no `HashMap`/`HashSet` with the default `RandomState`
/// reachable from sim state — iteration order varies per process, so any
/// path from one to stats or event order breaks run-to-run determinism
/// and the on-disk memo.
fn hash_order(file: &SourceFile, out: &mut Vec<Finding>) {
    for line in file.lines.iter().filter(|l| !l.in_test) {
        if line.code.contains("with_hasher") || line.code.contains("BuildHasher") {
            continue; // an explicit deterministic hasher is the sanctioned escape
        }
        for token in ["HashMap", "HashSet"] {
            if find_word(&line.code, token).is_some() {
                out.push(Finding {
                    rule: "hash_order",
                    path: file.path.clone(),
                    line: line.number,
                    message: format!(
                        "{token} iterates in RandomState order; use BTreeMap/BTreeSet (or a \
                         deterministic with_hasher) so sim state stays byte-reproducible"
                    ),
                });
            }
        }
    }
}

/// `wall_clock`: no wall-clock, environment, or thread-identity reads in
/// the hot paths of the sim crates — they make behavior host-dependent.
fn wall_clock(file: &SourceFile, out: &mut Vec<Finding>) {
    const PATTERNS: [&str; 6] =
        ["Instant", "SystemTime", "std::env", "env::var", "thread::current", "ThreadId"];
    for line in file.lines.iter().filter(|l| !l.in_test) {
        for pat in PATTERNS {
            if find_word(&line.code, pat).is_some() {
                out.push(Finding {
                    rule: "wall_clock",
                    path: file.path.clone(),
                    line: line.number,
                    message: format!(
                        "`{pat}` in a sim hot path makes results host/time-dependent; model time \
                         must come from the simulated clock"
                    ),
                });
                break; // one finding per line is enough
            }
        }
    }
}

/// `truncating_cast`: no narrowing `as` cast applied to a cycle/flit/byte
/// counter — long runs overflow 32 bits ( >4e9 cycles is routine at full
/// scale) and `as` wraps silently. Honors
/// `#[expect(clippy::cast_possible_truncation)]` within three lines above.
fn truncating_cast(file: &SourceFile, out: &mut Vec<Finding>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let mut clippy_waived = false;
        for back in 0..=3usize {
            if let Some(prev) = idx.checked_sub(back).and_then(|i| file.lines.get(i)) {
                if prev.code.contains("cast_possible_truncation") {
                    clippy_waived = true;
                    break;
                }
            }
        }
        if clippy_waived {
            continue;
        }
        let code = &line.code;
        let mut search = 0;
        while let Some(rel) = code[search..].find(" as ") {
            let at = search + rel;
            search = at + 4;
            let target: String = code[at + 4..]
                .trim_start()
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !NARROW_TARGETS.contains(&target.as_str()) {
                continue;
            }
            if let Some(ident) = cast_operand_ident(code, at) {
                if ident.split('_').any(|part| COUNTER_WORDS.contains(&part)) {
                    out.push(Finding {
                        rule: "truncating_cast",
                        path: file.path.clone(),
                        line: line.number,
                        message: format!(
                            "`{ident} as {target}` can silently truncate a counter; use \
                             `{target}::try_from(..)` or widen the target"
                        ),
                    });
                }
            }
        }
    }
}

/// The decisive identifier of the operand directly left of a cast at byte
/// `at` (the position of `" as "`): for `self.cfg.line_bytes as u32` that
/// is `line_bytes`; for `x.len() as u32` it is `len`. Balanced `(..)` /
/// `[..]` groups are skipped, so `f(a, b) as u32` resolves to `f`.
fn cast_operand_ident(code: &str, at: usize) -> Option<String> {
    let chars: Vec<char> = code[..at].chars().collect();
    let mut i = chars.len();
    // Skip trailing whitespace and balanced groups.
    loop {
        while i > 0 && chars[i - 1].is_whitespace() {
            i -= 1;
        }
        if i == 0 {
            return None;
        }
        match chars[i - 1] {
            ')' | ']' => {
                let open = if chars[i - 1] == ')' { '(' } else { '[' };
                let close = chars[i - 1];
                let mut depth = 0i32;
                while i > 0 {
                    i -= 1;
                    if chars[i] == close {
                        depth += 1;
                    } else if chars[i] == open {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                }
            }
            c if c.is_alphanumeric() || c == '_' => {
                let end = i;
                while i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_') {
                    i -= 1;
                }
                return Some(chars[i..end].iter().collect());
            }
            _ => return None,
        }
    }
}

/// `float_accum`: no `f32`/`f64` running accumulation in code that feeds
/// the on-disk stats cache — float addition is non-associative, so any
/// reordering (or a future parallel reduction) changes cached bytes. Use
/// `dcl1_common::stats::RunningMean` (Welford) or integer sums instead.
/// `crates/common/src/stats.rs` — the home of those types — is exempt.
fn float_accum(file: &SourceFile, out: &mut Vec<Finding>) {
    let p = file.path.to_string_lossy().replace('\\', "/");
    if p.ends_with("common/src/stats.rs") {
        return;
    }
    let floats = declared_floats(file);
    if floats.is_empty() {
        return;
    }
    for line in file.lines.iter().filter(|l| !l.in_test) {
        for op in ["+=", "-="] {
            let Some(pos) = line.code.find(op) else { continue };
            let lhs: String = line.code[..pos]
                .chars()
                .rev()
                .skip_while(|c| c.is_whitespace())
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect::<String>()
                .chars()
                .rev()
                .collect();
            if !lhs.is_empty() && floats.contains(&lhs) {
                out.push(Finding {
                    rule: "float_accum",
                    path: file.path.clone(),
                    line: line.number,
                    message: format!(
                        "float accumulation into `{lhs}` is order-sensitive and feeds cached \
                         stats; use RunningMean (Welford) or an integer sum"
                    ),
                });
            }
        }
    }
}

/// Names declared with a float type or initialized from a float literal
/// anywhere in the file (fields, lets, params — scope-insensitive on
/// purpose: a false candidate only matters if it is also accumulated
/// into, which is exactly what the rule questions).
pub(crate) fn declared_floats(file: &SourceFile) -> Vec<String> {
    let mut names = Vec::new();
    for line in file.lines.iter().filter(|l| !l.in_test) {
        let code = &line.code;
        for ty in [": f32", ": f64"] {
            let mut search = 0;
            while let Some(rel) = code[search..].find(ty) {
                let at = search + rel;
                search = at + ty.len();
                if let Some(name) = ident_before(code, at) {
                    names.push(name);
                }
            }
        }
        // `let mut x = 0.0;` style.
        if let Some(pos) = code.find("= 0.0") {
            if let Some(name) = ident_before(code, pos) {
                names.push(name);
            }
        }
    }
    names
}

fn ident_before(code: &str, at: usize) -> Option<String> {
    let chars: Vec<char> = code[..at].chars().collect();
    let mut i = chars.len();
    while i > 0 && chars[i - 1].is_whitespace() {
        i -= 1;
    }
    let end = i;
    while i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_') {
        i -= 1;
    }
    if i == end {
        None
    } else {
        Some(chars[i..end].iter().collect())
    }
}

/// `bare_catch_unwind`: panic recovery is a supervision decision, and its
/// single sanctioned home is `crates/resilience` (the `supervise` retry
/// loop). A `catch_unwind` anywhere else can silently swallow a modeling
/// bug — the panic that would have named the broken invariant becomes a
/// skipped point nobody investigates. Code with a genuine need (e.g. a
/// test harness asserting on panics outside `#[cfg(test)]`) must carry a
/// `// simcheck: allow(bare_catch_unwind): reason` annotation.
fn bare_catch_unwind(file: &SourceFile, out: &mut Vec<Finding>) {
    let p = file.path.to_string_lossy().replace('\\', "/");
    if p.contains("crates/resilience/") {
        return;
    }
    for line in file.lines.iter().filter(|l| !l.in_test) {
        if find_word(&line.code, "catch_unwind").is_some() {
            out.push(Finding {
                rule: "bare_catch_unwind",
                path: file.path.clone(),
                line: line.number,
                message: "`catch_unwind` outside crates/resilience can swallow a modeling bug; \
                          route recovery through `dcl1_resilience::supervise` (or annotate why \
                          containment is safe here)"
                    .to_string(),
            });
        }
    }
}

/// The registration methods whose string-literal argument is a metric
/// name: `reg.counter("…")`, `reg.gauge("…")`, `reg.histogram("…")`.
const METRIC_METHODS: [&str; 3] = [".counter(\"", ".gauge(\"", ".histogram(\""];

/// One metric-name registration site found in production code.
#[derive(Debug, Clone)]
pub struct MetricSite {
    /// The literal metric name as registered.
    pub name: String,
    /// File the registration is in.
    pub path: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Whether the site carries a reasoned `allow(metric_names)`
    /// annotation (such sites are exempt from the uniqueness check).
    pub allowed: bool,
}

/// Every metric name registered with a string literal in this file's
/// production code. The scanner blanks literal contents in `Line::code`,
/// so the call shape is confirmed there (comments are stripped from it)
/// and the name itself is read back out of `Line::raw`.
pub fn metric_sites(file: &SourceFile) -> Vec<MetricSite> {
    let mut out = Vec::new();
    for line in file.lines.iter().filter(|l| !l.in_test) {
        for method in METRIC_METHODS {
            if !line.code.contains(method) {
                continue; // only a comment (or nothing) mentions it
            }
            let mut search = 0;
            while let Some(rel) = line.raw[search..].find(method) {
                let at = search + rel + method.len();
                search = at;
                let Some(end) = line.raw[at..].find('"') else { break };
                let name = &line.raw[at..at + end];
                if name.contains('\\') {
                    continue; // escapes — not a plain metric-name literal
                }
                out.push(MetricSite {
                    name: name.to_string(),
                    path: file.path.clone(),
                    line: line.number,
                    allowed: allow_for(file, line.number, "metric_names")
                        .is_some_and(|a| a.has_reason),
                });
            }
        }
    }
    out
}

/// True for the enforced metric-name shape: `subsystem.name`, both
/// segments snake_case (lowercase letter first, then `[a-z0-9_]`).
fn valid_metric_name(name: &str) -> bool {
    let mut parts = name.split('.');
    let (Some(a), Some(b), None) = (parts.next(), parts.next(), parts.next()) else {
        return false;
    };
    [a, b].iter().all(|seg| {
        seg.chars().next().is_some_and(|c| c.is_ascii_lowercase())
            && seg.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    })
}

/// `metric_names` (per-file half): every registry metric registered from
/// production code must be named `subsystem.name` in snake_case —
/// rendered snapshots are sorted byte-comparable artifacts, and the
/// `benchmark/` ledger and CI's validators read them by name, so ad-hoc
/// names fragment the namespace they rely on. The workspace-wide
/// uniqueness half lives in [`check_metric_duplicates`].
fn metric_names(file: &SourceFile, out: &mut Vec<Finding>) {
    for site in metric_sites(file) {
        if !valid_metric_name(&site.name) {
            out.push(Finding {
                rule: "metric_names",
                path: site.path,
                line: site.line,
                message: format!(
                    "metric name `{}` must be snake_case `subsystem.name` (exactly one dot, \
                     lowercase-letter-led segments) so registry snapshots stay a stable, \
                     mergeable namespace",
                    site.name
                ),
            });
        }
    }
}

/// `metric_names` (workspace half): a metric name registered at two or
/// more production sites is two subsystems fighting over one counter —
/// the registry would silently hand both the same slot and the merged
/// snapshot could not be attributed. Reasoned
/// `allow(metric_names)`-annotated sites are exempt.
pub fn check_metric_duplicates(sites: &[MetricSite]) -> Vec<Finding> {
    let mut by_name: std::collections::BTreeMap<&str, Vec<&MetricSite>> =
        std::collections::BTreeMap::new();
    for site in sites.iter().filter(|s| !s.allowed) {
        by_name.entry(&site.name).or_default().push(site);
    }
    let mut out = Vec::new();
    for (name, sites) in by_name {
        let [first, rest @ ..] = sites.as_slice() else { continue };
        for dup in rest {
            out.push(Finding {
                rule: "metric_names",
                path: dup.path.clone(),
                line: dup.line,
                message: format!(
                    "metric `{name}` is already registered at {}:{} — every metric name must \
                     be registered exactly once workspace-wide (or carry a reasoned \
                     `allow(metric_names)` annotation)",
                    first.path.display(),
                    first.line
                ),
            });
        }
    }
    out
}

/// Position of `word` in `code` with identifier boundaries on both sides.
/// `::`-qualified patterns (e.g. `std::env`) match on substring with a
/// boundary check only at the ends.
pub(crate) fn find_word(code: &str, word: &str) -> Option<usize> {
    let mut search = 0;
    while let Some(rel) = code[search..].find(word) {
        let at = search + rel;
        search = at + word.len();
        let before_ok = at == 0
            || !code[..at].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = code[at + word.len()..].chars().next();
        let after_ok = !after.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return Some(at);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(path: &str, src: &str) -> FileReport {
        lint_file(&SourceFile::from_source(path, src))
    }

    #[test]
    fn cast_operand_resolution() {
        let c = "let x = self.cfg.line_bytes as u32;";
        let at = c.find(" as ").unwrap();
        assert_eq!(cast_operand_ident(c, at).as_deref(), Some("line_bytes"));
        let c2 = "let x = instr.accesses.len() as u32;";
        let at2 = c2.find(" as ").unwrap();
        assert_eq!(cast_operand_ident(c2, at2).as_deref(), Some("len"));
    }

    #[test]
    fn find_word_respects_boundaries() {
        assert!(find_word("let m: HashMap<u32, u32>;", "HashMap").is_some());
        assert!(find_word("let m = MyHashMapLike::new();", "HashMap").is_none());
        assert!(find_word("std::env::var(\"X\")", "std::env").is_some());
    }

    #[test]
    fn annotations_with_reason_suppress() {
        let src = "// simcheck: allow(hash_order): fixture only\nlet m: HashMap<u8, u8> = x;\n";
        let r = lint("crates/dcl1/src/x.rs", src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn annotation_without_reason_is_reported() {
        let src = "let m: HashMap<u8, u8> = x; // simcheck: allow(hash_order)\n";
        let r = lint("crates/dcl1/src/x.rs", src);
        assert_eq!(r.findings.len(), 1);
        assert!(r.findings[0].message.contains("reason"));
    }

    #[test]
    fn bare_catch_unwind_fires_outside_resilience() {
        let src = "let r = std::panic::catch_unwind(|| run());\n";
        let r = lint("crates/bench/src/runner.rs", src);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].rule, "bare_catch_unwind");
        assert!(r.findings[0].message.contains("resilience"));
    }

    #[test]
    fn bare_catch_unwind_exempts_the_resilience_crate() {
        let src = "let r = catch_unwind(AssertUnwindSafe(|| attempt()));\n";
        let r = lint("crates/resilience/src/supervisor.rs", src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn bare_catch_unwind_honors_annotations_and_word_boundaries() {
        let allowed = "// simcheck: allow(bare_catch_unwind): harness must assert on panics\n\
                       let r = catch_unwind(|| go());\n";
        let r = lint("crates/bench/src/x.rs", allowed);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.suppressed, 1);

        // An identifier merely containing the name is not a hit.
        let similar = "fn my_catch_unwinder() {}\n";
        let r = lint("crates/bench/src/x.rs", similar);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn metric_names_fires_on_malformed_names() {
        for bad in ["NotSnake", "gpu", "gpu.Instr", "gpu.a.b", "gpu.", "1gpu.x", "gpu.foo-bar"] {
            let src = format!("let c = reg.counter(\"{bad}\");\n");
            let r = lint("crates/gpu/src/metrics.rs", &src);
            assert_eq!(r.findings.len(), 1, "`{bad}`: {:?}", r.findings);
            assert_eq!(r.findings[0].rule, "metric_names");
        }
        for ok in ["gpu.instructions", "dcl1.l1_q3_stall_cycles", "memo.disk_hits"] {
            let src = format!("let c = reg.counter(\"{ok}\");\n");
            let r = lint("crates/gpu/src/metrics.rs", &src);
            assert!(r.findings.is_empty(), "`{ok}`: {:?}", r.findings);
        }
    }

    #[test]
    fn metric_names_skips_tests_comments_and_non_literals() {
        let in_test = "#[cfg(test)]\nmod tests {\n    fn t() { r.counter(\"BadName\"); }\n}\n";
        assert!(lint("crates/obs/src/registry.rs", in_test).findings.is_empty());

        let comment_only = "// e.g. reg.counter(\"BadName\") would be wrong\nfn f() {}\n";
        assert!(lint("crates/gpu/src/x.rs", comment_only).findings.is_empty());

        let non_literal = "let c = reg.counter(name);\n";
        assert!(lint("crates/gpu/src/x.rs", non_literal).findings.is_empty());
    }

    #[test]
    fn metric_sites_collects_all_three_kinds() {
        let src = "let c = reg.counter(\"a.c\");\n\
                   let g = reg.gauge(\"a.g\");\n\
                   let h = reg.histogram(\"a.h\");\n";
        let file = SourceFile::from_source("crates/gpu/src/m.rs", src);
        let names: Vec<String> = metric_sites(&file).into_iter().map(|s| s.name).collect();
        assert_eq!(names, ["a.c", "a.g", "a.h"]);
    }

    #[test]
    fn duplicate_registration_across_files_is_reported_once_per_extra_site() {
        let a = SourceFile::from_source(
            "crates/gpu/src/metrics.rs",
            "let c = reg.counter(\"gpu.cycles\");\n",
        );
        let b = SourceFile::from_source(
            "crates/noc/src/metrics.rs",
            "let c = reg.counter(\"gpu.cycles\");\nlet d = reg.counter(\"noc.flits\");\n",
        );
        let mut sites = metric_sites(&a);
        sites.extend(metric_sites(&b));
        let findings = check_metric_duplicates(&sites);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "metric_names");
        assert!(findings[0].message.contains("gpu/src/metrics.rs:1"), "{}", findings[0].message);

        // A reasoned annotation on the second site exempts it.
        let annotated = SourceFile::from_source(
            "crates/noc/src/metrics.rs",
            "// simcheck: allow(metric_names): intentional alias during migration\n\
             let c = reg.counter(\"gpu.cycles\");\n",
        );
        let mut sites = metric_sites(&a);
        sites.extend(metric_sites(&annotated));
        assert!(check_metric_duplicates(&sites).is_empty());
    }

    #[test]
    fn seeded_fixture_catches_planted_catch_unwind() {
        // A seeded fixture: deterministically generate a plausible source
        // file, plant one bare `catch_unwind` at a derived line, and check
        // the rule finds exactly that line.
        let mut rng = dcl1_common::SplitMix64::new(0xBADC_0DE5);
        for _ in 0..8 {
            let lines = 5 + usize::try_from(rng.next_below(40)).expect("small");
            let plant = usize::try_from(rng.next_below(lines as u64)).expect("small");
            let mut src = String::new();
            for i in 0..lines {
                if i == plant {
                    src.push_str("    let out = std::panic::catch_unwind(|| work());\n");
                } else {
                    src.push_str(&format!("    let v{i} = compute_{i}(input);\n"));
                }
            }
            let r = lint("crates/mem/src/planted.rs", &src);
            let hits: Vec<_> =
                r.findings.iter().filter(|f| f.rule == "bare_catch_unwind").collect();
            assert_eq!(hits.len(), 1, "plant at {plant}: {:?}", r.findings);
            assert_eq!(hits[0].line, plant + 1);
        }
    }
}
