//! Pass 2: cross-file shard-safety and determinism rules, driven by the
//! [`crate::index::ItemIndex`].
//!
//! The epoch-barrier machine (`dcl1::shard`) is deterministic only while
//! three invariants hold: shard regions share no mutable state, a domain
//! injects only into crossbars it owns (partitions never cut a NoC#1
//! cluster, so there is no cross-domain flit to stage), and every
//! reduction over per-shard results is commutative. The rules here check
//! those invariants at `cargo` time, lexically, over the whole workspace
//! — the runtime 1-vs-N-shard byte-identity tests remain the ground
//! truth, but a static rule fires on the PR that introduces the hazard
//! instead of on the host where it first reorders.

use crate::index::{FnItem, ItemIndex};
use crate::rules::{allow_for, declared_floats, find_word, Finding};
use crate::source::SourceFile;
use std::collections::BTreeMap;
use std::path::Path;

/// Crates whose step paths run inside shard domains. `dcl1d` qualifies
/// because its worker threads run points in-process: shared mutable state
/// there is one call away from a shard domain.
const SHARD_CRATES: [&str; 6] = ["gpu", "dcl1", "noc", "mem", "cache", "dcl1d"];

/// Crates covered by the `rng_source` rule (the sim crates plus the
/// trace generator; `common` hosts the sanctioned seeded entry points).
const RNG_CRATES: [&str; 6] = ["gpu", "dcl1", "noc", "mem", "cache", "workloads"];

/// Function-name markers identifying deterministic-output sinks for the
/// `unsorted_iteration` rule.
const SINK_MARKERS: [&str; 11] = [
    "snapshot", "stats", "dump", "render", "journal", "report", "json", "csv", "collect",
    "write", "emit",
];

/// Map/set types whose plain iteration order is not sorted.
const MAP_TYPES: [&str; 4] = ["FlatMap", "FlatSet", "HashMap", "HashSet"];

/// Result of the cross-file pass.
#[derive(Debug, Default)]
pub struct CrossReport {
    /// Findings that survived annotation filtering.
    pub findings: Vec<Finding>,
    /// Findings suppressed by a reasoned annotation.
    pub suppressed: usize,
}

/// Runs every cross-file rule and applies `// simcheck: allow` filtering.
pub fn lint_crossfile(files: &[SourceFile], index: &ItemIndex) -> CrossReport {
    let by_path: BTreeMap<&Path, &SourceFile> =
        files.iter().map(|f| (f.path.as_path(), f)).collect();
    let reachable = shard_reachable(index);

    let mut raw = Vec::new();
    shard_shared_state(index, &by_path, &reachable, &mut raw);
    epoch_order(index, &by_path, &reachable, &mut raw);
    merge_commutative(index, &by_path, &mut raw);
    unsorted_iteration(index, &by_path, &mut raw);
    rng_source(files, &mut raw);

    let mut report = CrossReport::default();
    for f in raw {
        let Some(file) = by_path.get(f.path.as_path()) else {
            report.findings.push(f);
            continue;
        };
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

/// Whether a fn is a sanctioned shared-state owner: `ShardPool` (the one
/// blessed thread/`Mutex` holder) or anything in `crates/resilience`.
/// Sanctioned fns are neither scanned nor traversed through.
fn sanctioned_fn(f: &FnItem) -> bool {
    f.impl_type.as_deref() == Some("ShardPool")
        || f.path.to_string_lossy().replace('\\', "/").contains("crates/resilience/")
}

/// Shard-step entry points: `run_region` and the `region_*` family in the
/// shard crates.
fn is_region_root(f: &FnItem) -> bool {
    !f.in_test
        && SHARD_CRATES.contains(&f.krate.as_str())
        && (f.name == "run_region" || f.name.starts_with("region_"))
}

/// Per-fn reachability from the shard-step roots, over by-name call
/// edges. Over-approximate by construction: `x.tick()` reaches every
/// `fn tick` in the workspace. Sanctioned fns terminate traversal.
fn shard_reachable(index: &ItemIndex) -> Vec<bool> {
    let mut reach = vec![false; index.fns.len()];
    let mut queue: Vec<usize> = index
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| is_region_root(f))
        .map(|(i, _)| i)
        .collect();
    for &i in &queue {
        reach[i] = true;
    }
    while let Some(i) = queue.pop() {
        let f = &index.fns[i];
        if sanctioned_fn(f) {
            continue;
        }
        for call in &f.calls {
            for &j in index.fns_named(call) {
                if !reach[j] && !index.fns[j].in_test {
                    reach[j] = true;
                    queue.push(j);
                }
            }
        }
    }
    reach
}

/// The banned shared-state token on a scrubbed code line, if any.
fn shared_state_token(code: &str) -> Option<&'static str> {
    // `Cell<` catches `RefCell<`, `UnsafeCell<`, `OnceCell<` too — the
    // boundary check below only constrains the char *before* the match.
    // `Atomic` demands an uppercase letter after it (`AtomicU64`,
    // `AtomicBool`, …) so the simulator's own `MemKind::Atomic` variant
    // does not trip it.
    for (needle, label, upper_after) in [
        ("Cell<", "interior-mutability cell", false),
        ("Mutex", "Mutex", false),
        ("RwLock", "RwLock", false),
        ("Atomic", "atomic", true),
        ("static mut", "static mut", false),
        ("thread::spawn", "thread::spawn", false),
        (".spawn(", "spawn", false),
    ] {
        let mut search = 0;
        while let Some(rel) = code[search..].find(needle) {
            let at = search + rel;
            search = at + needle.len();
            let before_ok = at == 0
                || !code[..at]
                    .chars()
                    .next_back()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_');
            let after_ok = !upper_after
                || code[at + needle.len()..]
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_uppercase());
            if before_ok && after_ok {
                return Some(label);
            }
        }
    }
    None
}

/// `shard_shared_state`: no interior mutability or thread spawning
/// reachable from shard-step paths, and no shard-crate struct owning
/// such state — except `ShardPool` (plus the structs its fields name)
/// and `crates/resilience`.
fn shard_shared_state(
    index: &ItemIndex,
    by_path: &BTreeMap<&Path, &SourceFile>,
    reachable: &[bool],
    out: &mut Vec<Finding>,
) {
    // Fn half: scan the body lines of every reachable, unsanctioned fn
    // in the shard crates.
    let mut seen_lines: std::collections::BTreeSet<(std::path::PathBuf, usize)> =
        std::collections::BTreeSet::new();
    for (i, f) in index.fns.iter().enumerate() {
        if !reachable[i] || sanctioned_fn(f) || !SHARD_CRATES.contains(&f.krate.as_str()) {
            continue;
        }
        let Some(file) = by_path.get(f.path.as_path()) else { continue };
        for line in &file.lines {
            if line.number < f.start_line || line.number > f.end_line || line.in_test {
                continue;
            }
            if let Some(label) = shared_state_token(&line.code) {
                if seen_lines.insert((f.path.clone(), line.number)) {
                    out.push(Finding {
                        rule: "shard_shared_state",
                        path: f.path.clone(),
                        line: line.number,
                        message: format!(
                            "{label} inside `{}`, reachable from a shard-step region: shard \
                             domains must not share mutable state (only ShardPool and \
                             crates/resilience may own it)",
                            f.name
                        ),
                    });
                }
            }
        }
    }
    // Struct half: no shard-crate struct may own shared-state fields.
    let sanctioned = sanctioned_structs(index);
    for s in &index.structs {
        if s.in_test
            || !SHARD_CRATES.contains(&s.krate.as_str())
            || sanctioned.contains(&s.name)
        {
            continue;
        }
        for field in &s.fields {
            if let Some(label) = shared_state_token(&field.ty) {
                if seen_lines.insert((s.path.clone(), field.line)) {
                    out.push(Finding {
                        rule: "shard_shared_state",
                        path: s.path.clone(),
                        line: field.line,
                        message: format!(
                            "field `{}.{}` owns {label} state in a shard crate: per-shard \
                             state must be plainly owned so domains stay independent (only \
                             ShardPool and crates/resilience may hold shared state)",
                            s.name, field.name
                        ),
                    });
                }
            }
        }
    }
}

/// Struct names exempt from the struct half of `shard_shared_state`:
/// `ShardPool` itself, every type named in its fields (one level — the
/// pool's slots are its implementation detail, the domains inside them
/// are not), and everything defined in `crates/resilience`.
fn sanctioned_structs(index: &ItemIndex) -> std::collections::BTreeSet<String> {
    let mut names = std::collections::BTreeSet::new();
    names.insert("ShardPool".to_string());
    for s in &index.structs {
        if s.path.to_string_lossy().replace('\\', "/").contains("crates/resilience/") {
            names.insert(s.name.clone());
        }
        if s.name == "ShardPool" {
            for field in &s.fields {
                let mut ident = String::new();
                for c in field.ty.chars() {
                    if c.is_alphanumeric() || c == '_' {
                        ident.push(c);
                    } else {
                        if ident.chars().next().is_some_and(char::is_uppercase) {
                            names.insert(std::mem::take(&mut ident));
                        }
                        ident.clear();
                    }
                }
                if ident.chars().next().is_some_and(char::is_uppercase) {
                    names.insert(ident);
                }
            }
        }
    }
    names
}

/// `epoch_order`: inside shard-step paths a domain injects only into
/// crossbars it owns. Partitions are cluster-aligned, so no NoC#1 flit
/// crosses domains and nothing is staged between them; an `inject` whose
/// receiver is not the region's own (`self`-rooted) reaches into a peer
/// domain and makes delivery order depend on shard scheduling.
fn epoch_order(
    index: &ItemIndex,
    by_path: &BTreeMap<&Path, &SourceFile>,
    reachable: &[bool],
    out: &mut Vec<Finding>,
) {
    for (i, f) in index.fns.iter().enumerate() {
        if !reachable[i] || !SHARD_CRATES.contains(&f.krate.as_str()) {
            continue;
        }
        // The staging/crossbar implementations are where injects *live*.
        if matches!(f.impl_type.as_deref(), Some("Crossbar" | "EpochBatch")) {
            continue;
        }
        let p = f.path.to_string_lossy().replace('\\', "/");
        if p.ends_with("noc/src/crossbar.rs") || p.ends_with("noc/src/epoch.rs") {
            continue;
        }
        // Method chains wrap across lines under rustfmt, so the receiver
        // walk runs over the joined body text.
        let body = body_lines(f, by_path);
        let mut joined = String::new();
        let mut line_starts: Vec<(usize, usize)> = Vec::new();
        for l in &body {
            line_starts.push((joined.len(), l.number));
            joined.push_str(&l.code);
            joined.push('\n');
        }
        for needle in [".try_inject(", ".inject_batch(", ".inject("] {
            let mut search = 0;
            while let Some(rel) = joined[search..].find(needle) {
                let at = search + rel;
                search = at + needle.len();
                if receiver_root(&joined, at).as_deref() != Some("self") {
                    let line = line_starts
                        .iter()
                        .take_while(|(s, _)| *s <= at)
                        .last()
                        .map_or(f.start_line, |(_, n)| *n);
                    out.push(Finding {
                        rule: "epoch_order",
                        path: f.path.clone(),
                        line,
                        message: format!(
                            "`{}` into a non-`self` crossbar inside shard-step fn `{}`: \
                             a domain injects only into crossbars it owns (partitions \
                             never cut a cluster), or delivery order becomes \
                             scheduling-dependent",
                            needle.trim_start_matches('.').trim_end_matches('('),
                            f.name
                        ),
                    });
                }
            }
        }
    }
}

/// The leftmost identifier of the receiver chain ending at the `.` at
/// byte `at`: `self.noc1_rep[ki].try_inject(` → `self`;
/// `bars[d].inject(` → `bars`. Walks back over idents, `.`/`::`, and
/// balanced `(..)`/`[..]` groups.
fn receiver_root(code: &str, at: usize) -> Option<String> {
    let chars: Vec<char> = code[..at].chars().collect();
    let mut i = chars.len();
    let mut root: Option<String> = None;
    loop {
        if i == 0 {
            return root;
        }
        match chars[i - 1] {
            ')' | ']' => {
                let close = chars[i - 1];
                let open = if close == ')' { '(' } else { '[' };
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
                root = Some(chars[i..end].iter().collect());
            }
            '.' | ':' => i -= 1,
            // Whitespace before any chain part is a rustfmt line wrap
            // (`self.x[i]\n    .try_inject(`); whitespace after an ident
            // ends the chain.
            c if c.is_whitespace() && root.is_none() => i -= 1,
            _ => return root,
        }
    }
}

/// Map-typed names visible to a fn: fields of its impl struct plus
/// locals declared in its body.
fn map_typed_names(
    f: &FnItem,
    index: &ItemIndex,
    body: &[&crate::source::Line],
) -> Vec<String> {
    let mut names = Vec::new();
    if let Some(ty) = f.impl_type.as_deref() {
        if let Some(s) = index.struct_named(ty, &f.krate) {
            for field in &s.fields {
                if MAP_TYPES.iter().any(|t| find_word(&field.ty, t).is_some()) {
                    names.push(field.name.clone());
                }
            }
        }
    }
    for line in body {
        if !MAP_TYPES.iter().any(|t| find_word(&line.code, t).is_some()) {
            continue;
        }
        let Some(at) = find_word(&line.code, "let") else { continue };
        let rest = line.code[at + 3..].trim_start();
        let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
        let ident: String =
            rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
        if !ident.is_empty() {
            names.push(ident);
        }
    }
    names
}

/// The name of the receiver directly left of the `.` at byte `at`
/// (`self.counts.iter()` → `counts`; `m.keys()` → `m`).
fn receiver_name(code: &str, at: usize) -> Option<String> {
    let chars: Vec<char> = code[..at].chars().collect();
    let mut i = chars.len();
    while i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_') {
        i -= 1;
    }
    if i == chars.len() {
        None
    } else {
        Some(chars[i..].iter().collect())
    }
}

/// Body lines of `f` in its source file (production lines only).
fn body_lines<'a>(
    f: &FnItem,
    by_path: &BTreeMap<&Path, &'a SourceFile>,
) -> Vec<&'a crate::source::Line> {
    let Some(file) = by_path.get(f.path.as_path()) else { return Vec::new() };
    file.lines
        .iter()
        .filter(|l| l.number >= f.start_line && l.number <= f.end_line && !l.in_test)
        .collect()
}

/// `merge_commutative`: fns named `merge*`/`*_merge` fold per-shard
/// results into one, so they run once per shard in shard-id order — any
/// order-dependent operation inside one changes bytes with the shard
/// count. `common/src/stats.rs` (home of the Welford mean, whose merge
/// is the reviewed exception) is exempt.
fn merge_commutative(
    index: &ItemIndex,
    by_path: &BTreeMap<&Path, &SourceFile>,
    out: &mut Vec<Finding>,
) {
    for f in &index.fns {
        if f.in_test || !(f.name.starts_with("merge") || f.name.ends_with("_merge")) {
            continue;
        }
        let p = f.path.to_string_lossy().replace('\\', "/");
        if p.ends_with("common/src/stats.rs") {
            continue;
        }
        let Some(file) = by_path.get(f.path.as_path()) else { continue };
        let body = body_lines(f, by_path);
        let floats = declared_floats(file);
        let body_text: String =
            body.iter().map(|l| l.code.as_str()).collect::<Vec<_>>().join("\n");
        let sorted = body_text.contains("sort");
        let enumerated = body_text.contains(".enumerate()");
        let maps = map_typed_names(f, index, &body);
        for line in &body {
            let code = &line.code;
            // (a) subtraction/division on an accumulated float.
            let float_on_line = floats.iter().any(|n| find_word(code, n).is_some());
            if float_on_line
                && ["-=", "/=", " - ", " / "].iter().any(|op| code.contains(op))
            {
                out.push(Finding {
                    rule: "merge_commutative",
                    path: f.path.clone(),
                    line: line.number,
                    message: format!(
                        "float subtraction/division inside merge fn `{}` is order-dependent \
                         across shards; restate the merge as a commutative fold (sums, \
                         Welford via RunningMean)",
                        f.name
                    ),
                });
                continue;
            }
            // (b) unsorted map iteration.
            if !sorted {
                for needle in [".iter()", ".keys()", ".values()"] {
                    let Some(at) = code.find(needle) else { continue };
                    if receiver_name(code, at).is_some_and(|r| maps.contains(&r)) {
                        out.push(Finding {
                            rule: "merge_commutative",
                            path: f.path.clone(),
                            line: line.number,
                            message: format!(
                                "unsorted map iteration inside merge fn `{}`; iterate \
                                 `sorted_keys()` (or sort first) so the fold order is \
                                 shard-count-independent",
                                f.name
                            ),
                        });
                        break;
                    }
                }
            }
            // (c) index-dependent writes under `.enumerate()`.
            if enumerated && ["] = ", "] += "].iter().any(|w| code.contains(w)) {
                let bracket = code.rfind(']').and_then(|close| {
                    code[..close].rfind('[').map(|open| &code[open + 1..close])
                });
                if bracket.is_some_and(|b| b.chars().any(char::is_alphabetic)) {
                    out.push(Finding {
                        rule: "merge_commutative",
                        path: f.path.clone(),
                        line: line.number,
                        message: format!(
                            "index-dependent write under `.enumerate()` inside merge fn \
                             `{}` ties the result to visit order; key the write by content, \
                             not position",
                            f.name
                        ),
                    });
                }
            }
        }
    }
}

/// `unsorted_iteration`: fns whose names mark them as deterministic-output
/// sinks (stats, snapshots, journals, reports) must not iterate an
/// unsorted map/set without a sort in the chain — the emitted bytes are
/// diffed and cached.
fn unsorted_iteration(
    index: &ItemIndex,
    by_path: &BTreeMap<&Path, &SourceFile>,
    out: &mut Vec<Finding>,
) {
    for f in &index.fns {
        if f.in_test || !SINK_MARKERS.iter().any(|m| f.name.contains(m)) {
            continue;
        }
        let body = body_lines(f, by_path);
        let body_text: String =
            body.iter().map(|l| l.code.as_str()).collect::<Vec<_>>().join("\n");
        if body_text.contains("sort") {
            continue; // `.sorted_keys()`, `.sort()`, `sort_unstable` …
        }
        let maps = map_typed_names(f, index, &body);
        if maps.is_empty() {
            continue;
        }
        for line in &body {
            for needle in [".iter()", ".keys()", ".values()"] {
                let Some(at) = line.code.find(needle) else { continue };
                if receiver_name(&line.code, at).is_some_and(|r| maps.contains(&r)) {
                    out.push(Finding {
                        rule: "unsorted_iteration",
                        path: f.path.clone(),
                        line: line.number,
                        message: format!(
                            "sink fn `{}` iterates an unsorted map/set; emitted bytes are \
                             cached/diffed, so iterate `sorted_keys()` (or collect and sort) \
                             for a stable order",
                            f.name
                        ),
                    });
                    break;
                }
            }
        }
    }
}

/// `rng_source`: randomness in the sim crates must flow from the seeded
/// `dcl1_common::SplitMix64` entry points with literal seeds; ambient
/// entropy (OS RNG, hasher RandomState, run-to-run seeds) breaks replay
/// and the on-disk memo.
fn rng_source(files: &[SourceFile], out: &mut Vec<Finding>) {
    for file in files {
        let krate = crate::index::crate_of(&file.path);
        if !RNG_CRATES.contains(&krate.as_str()) {
            continue;
        }
        for line in file.lines.iter().filter(|l| !l.in_test) {
            for tok in
                ["thread_rng", "from_entropy", "OsRng", "getrandom", "RandomState", "DefaultHasher"]
            {
                if find_word(&line.code, tok).is_some() {
                    out.push(Finding {
                        rule: "rng_source",
                        path: file.path.clone(),
                        line: line.number,
                        message: format!(
                            "`{tok}` is ambient entropy in a sim crate; all randomness must \
                             come from a literal-seeded dcl1_common::SplitMix64"
                        ),
                    });
                    break;
                }
            }
            // A SplitMix64 seeded from a non-literal is replay-hostile
            // unless the value is itself derived from a literal seed
            // upstream — demand the annotation spell that out.
            if let Some(at) = line.code.find("SplitMix64::new(") {
                let arg = line.code[at + "SplitMix64::new(".len()..].trim_start();
                if !arg.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                    out.push(Finding {
                        rule: "rng_source",
                        path: file.path.clone(),
                        line: line.number,
                        message: "SplitMix64 seeded from a non-literal expression; derive \
                                  streams from a literal seed (e.g. `SplitMix64::new(0x…)\
                                  .split(id)`) so runs replay byte-identically"
                            .to_string(),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::ItemIndex;

    fn cross(sources: &[(&str, &str)]) -> CrossReport {
        let files: Vec<SourceFile> =
            sources.iter().map(|(p, s)| SourceFile::from_source(*p, s)).collect();
        let index = ItemIndex::build(&files);
        lint_crossfile(&files, &index)
    }

    fn rule_lines(r: &CrossReport, rule: &str) -> Vec<usize> {
        r.findings.iter().filter(|f| f.rule == rule).map(|f| f.line).collect()
    }

    #[test]
    fn receiver_roots() {
        let c = "self.noc1_rep[ki].try_inject(pkt)";
        assert_eq!(receiver_root(c, c.find(".try_inject").unwrap()).as_deref(), Some("self"));
        let c = "bars[d].inject(pkt)";
        assert_eq!(receiver_root(c, c.find(".inject").unwrap()).as_deref(), Some("bars"));
        let c = "x.crossbars[i].inject_batch(b)";
        assert_eq!(receiver_root(c, c.find(".inject_batch").unwrap()).as_deref(), Some("x"));
        // rustfmt-wrapped chain: receiver on the previous line.
        let c = "self.noc1_rep[ki]\n            .try_inject(pkt)";
        assert_eq!(receiver_root(c, c.find(".try_inject").unwrap()).as_deref(), Some("self"));
        let c = "let q = mk();\n        q.inject(p)";
        assert_eq!(receiver_root(c, c.find(".inject").unwrap()).as_deref(), Some("q"));
    }

    #[test]
    fn epoch_order_accepts_wrapped_self_chain() {
        let src = "pub fn region_mem(d: &mut D) {\n    d.step();\n}\n\
                   impl D {\n    pub fn step(&mut self) {\n        self.noc1_rep[0]\n            .try_inject(p)\n            .unwrap();\n    }\n}\n";
        let r = cross(&[("crates/dcl1/src/w.rs", src)]);
        assert!(rule_lines(&r, "epoch_order").is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn shared_state_atomic_needs_uppercase_follow() {
        assert!(shared_state_token("MemKind::Atomic | MemKind::Aux => {").is_none());
        assert!(shared_state_token("counter: AtomicU64,").is_some());
        assert!(shared_state_token("stop: AtomicBool,").is_some());
    }

    #[test]
    fn shared_state_reachable_from_region_fires() {
        let region = "pub fn region_mem(d: &mut D) {\n    helper(d);\n}\n";
        let helper = "pub fn helper(d: &mut D) {\n    let guard = d.lock.lock();\n    let m: Mutex<u64> = Mutex::new(0);\n}\n";
        let r = cross(&[("crates/mem/src/a.rs", region), ("crates/mem/src/b.rs", helper)]);
        assert_eq!(rule_lines(&r, "shard_shared_state"), [3]);
    }

    #[test]
    fn shard_pool_and_resilience_are_sanctioned() {
        let pool = "pub struct ShardPool {\n    slots: Vec<Arc<Slot>>,\n}\n\
                    pub struct Slot {\n    job: Mutex<Option<Job>>,\n    done: AtomicBool,\n}\n\
                    impl ShardPool {\n    pub fn region_helper(&self) {\n        self.slots[0].job.lock();\n    }\n}\n";
        let r = cross(&[("crates/dcl1/src/pool.rs", pool)]);
        assert!(rule_lines(&r, "shard_shared_state").is_empty(), "{:?}", r.findings);

        let res = "pub struct Supervisor {\n    state: Mutex<u64>,\n}\n\
                   pub fn region_retry() {\n    let x: AtomicU64 = AtomicU64::new(0);\n}\n";
        let r = cross(&[("crates/resilience/src/sup.rs", res)]);
        assert!(rule_lines(&r, "shard_shared_state").is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn unreachable_shared_state_does_not_fire() {
        let src = "pub fn coordinator_only() {\n    let m: Mutex<u64> = Mutex::new(0);\n}\n";
        let r = cross(&[("crates/dcl1/src/m.rs", src)]);
        assert!(rule_lines(&r, "shard_shared_state").is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn struct_field_shared_state_fires() {
        let src = "pub struct Domain {\n    pub counter: AtomicU64,\n}\n";
        let r = cross(&[("crates/noc/src/d.rs", src)]);
        assert_eq!(rule_lines(&r, "shard_shared_state"), [2]);
    }

    #[test]
    fn epoch_order_flags_non_self_inject_in_region() {
        let src = "pub fn region_noc1(d: &mut D, other: &X) {\n    other.bar.try_inject(p);\n    d.go();\n}\n\
                   impl D {\n    pub fn go(&mut self) {\n        self.local[0].try_inject(q);\n    }\n}\n";
        let r = cross(&[("crates/noc/src/r.rs", src)]);
        assert_eq!(rule_lines(&r, "epoch_order"), [2]);
    }

    #[test]
    fn epoch_order_skips_crossbar_impls_and_unreachable() {
        let src = "impl Crossbar {\n    pub fn region_feed(&mut self, x: &B) {\n        x.port.inject(p);\n    }\n}\n";
        let r = cross(&[("crates/noc/src/c.rs", src)]);
        assert!(rule_lines(&r, "epoch_order").is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn merge_float_subtraction_fires() {
        let src = "impl Acc {\n    pub fn merge(&mut self, o: &Acc) {\n        let wmean: f64 = 0.0;\n        let delta = o.wmean - wmean;\n    }\n}\n";
        let r = cross(&[("crates/obs/src/acc.rs", src)]);
        assert_eq!(rule_lines(&r, "merge_commutative"), [4]);
    }

    #[test]
    fn merge_unsorted_map_iteration_fires_and_sorted_passes() {
        let bad = "pub struct T {\n    counts: FlatMap<u32>,\n}\n\
                   impl T {\n    pub fn merge_into(&mut self, o: &T) {\n        for k in o.counts.keys() { self.add(k); }\n    }\n\
                   pub fn counts(&self) -> &FlatMap<u32> { &self.counts }\n}\n";
        // `merge_into` ends with `_into`, not `_merge` — use a firing name.
        let bad = bad.replace("merge_into", "merge_counts");
        let r = cross(&[("crates/obs/src/t.rs", bad.as_str())]);
        assert_eq!(rule_lines(&r, "merge_commutative"), [6], "{:?}", r.findings);

        let good = bad.replace("o.counts.keys()", "o.counts.sorted_keys()");
        let r = cross(&[("crates/obs/src/t.rs", good.as_str())]);
        assert!(rule_lines(&r, "merge_commutative").is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn merge_enumerate_indexed_write_fires() {
        let src = "pub fn table_merge(dst: &mut [u64], src: &[u64]) {\n    for (i, v) in src.iter().enumerate() {\n        dst[i] = dst[i].max(*v);\n    }\n}\n";
        let r = cross(&[("crates/mem/src/t.rs", src)]);
        assert_eq!(rule_lines(&r, "merge_commutative"), [3], "{:?}", r.findings);
    }

    #[test]
    fn stats_rs_merge_is_exempt() {
        let src = "impl RunningMean {\n    pub fn merge(&mut self, o: &Self) {\n        let wmean: f64 = 0.0;\n        let d = o.wmean - wmean;\n    }\n}\n";
        let r = cross(&[("crates/common/src/stats.rs", src)]);
        assert!(rule_lines(&r, "merge_commutative").is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn unsorted_iteration_in_sink_fires_and_sorted_passes() {
        let bad = "pub struct Reg {\n    vals: FlatMap<u64>,\n}\n\
                   impl Reg {\n    pub fn snapshot(&self) -> Vec<u64> {\n        self.vals.values().copied().collect()\n    }\n}\n";
        let r = cross(&[("crates/obs/src/reg.rs", bad)]);
        assert_eq!(rule_lines(&r, "unsorted_iteration"), [6], "{:?}", r.findings);

        let good = bad.replace(
            "self.vals.values().copied().collect()",
            "self.vals.sorted_keys().map(|k| self.vals[k]).collect()",
        );
        let r = cross(&[("crates/obs/src/reg.rs", good.as_str())]);
        assert!(rule_lines(&r, "unsorted_iteration").is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn non_sink_fn_iteration_is_ignored() {
        let src = "pub struct Reg {\n    vals: FlatMap<u64>,\n}\n\
                   impl Reg {\n    pub fn total(&self) -> u64 {\n        self.vals.values().sum()\n    }\n}\n";
        let r = cross(&[("crates/obs/src/reg.rs", src)]);
        assert!(rule_lines(&r, "unsorted_iteration").is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn rng_source_fires_on_entropy_and_non_literal_seed() {
        let src = "pub fn setup(seed: u64) {\n    let h = RandomState::new();\n    let r = SplitMix64::new(seed);\n    let ok = SplitMix64::new(0xA99_5EED).split(seed);\n}\n";
        let r = cross(&[("crates/gpu/src/s.rs", src)]);
        assert_eq!(rule_lines(&r, "rng_source"), [2, 3], "{:?}", r.findings);
    }

    #[test]
    fn rng_source_ignores_common_and_tests() {
        let src = "pub fn seeded() {\n    let r = SplitMix64::new(mix(self.seed));\n}\n";
        let r = cross(&[("crates/common/src/rng.rs", src)]);
        assert!(rule_lines(&r, "rng_source").is_empty(), "{:?}", r.findings);

        let test_src = "#[cfg(test)]\nmod tests {\n    fn t() { let r = SplitMix64::new(derive()); }\n}\n";
        let r = cross(&[("crates/dcl1/src/x.rs", test_src)]);
        assert!(rule_lines(&r, "rng_source").is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn crossfile_findings_honor_allows() {
        let src = "pub struct Domain {\n    // simcheck: allow(shard_shared_state): read-only after init\n    pub counter: AtomicU64,\n}\n";
        let r = cross(&[("crates/noc/src/d.rs", src)]);
        assert!(rule_lines(&r, "shard_shared_state").is_empty(), "{:?}", r.findings);
        assert_eq!(r.suppressed, 1);

        let no_reason = "pub struct Domain {\n    pub counter: AtomicU64, // simcheck: allow(shard_shared_state)\n}\n";
        let r = cross(&[("crates/noc/src/d.rs", no_reason)]);
        assert_eq!(r.findings.len(), 1);
        assert!(r.findings[0].message.contains("reason"), "{}", r.findings[0].message);
    }
}
