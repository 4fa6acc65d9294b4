//! The run-length result ledger: the one definition of the canonical
//! stats dump (chunk framing and order) and of its digest.
//!
//! A completion is filed under its label as its `"=== label\n"` +
//! `serialize_stats` chunk. Labels iterate in byte order and a label's runs
//! stay in arrival order — exactly what a stable sort by label of the
//! completion list gives — so the dump is the concatenation of every chunk,
//! `count` times each. Equal consecutive chunks coalesce into one run, which
//! makes a resubmitted sweep cost one counter increment, and a run that
//! repeats hashes through a memoised [`FnvBlock`], which makes the digest
//! one multiply-add per completion.
//!
//! The ledger is the only place a result is serialised for a dump, and it
//! serialises once per distinct result: a run remembers the `Arc` of its
//! last arrival, and an arrival that is that same `Arc` (the store hands
//! out one `Arc` per entry) is counted without being serialised at all.

use crate::runner::serialize_stats;
use dcl1::RunStats;
use dcl1_common::checksum::{self, FnvBlock};
use std::collections::BTreeMap;
use std::sync::Arc;

/// `count` consecutive arrivals of one chunk under one label.
#[derive(Debug, Clone)]
struct Run {
    chunk: FnvBlock<String>,
    count: u64,
    /// The run's latest arrival; an arrival that is this same `Arc` has
    /// this run's bytes.
    latest: Arc<RunStats>,
}

/// Completed points, kept as what the dump and digest need: each run's
/// chunk, plus the `Arc` of its last arrival (shared with the result
/// store, so it costs the ledger no copy).
#[derive(Debug, Clone, Default)]
pub struct ResultLedger {
    labels: BTreeMap<String, Vec<Run>>,
    completed: u64,
}

/// Serialises one completion into its `"=== label\n"` + stats chunk.
fn chunk_text(label: &str, stats: &RunStats) -> String {
    format!("=== {label}\n{}", serialize_stats(stats))
}

impl ResultLedger {
    /// A ledger holding `points`, pushed in slice order.
    #[must_use]
    pub fn of(points: &[(String, RunStats)]) -> ResultLedger {
        let mut ledger = ResultLedger::default();
        for (label, stats) in points {
            ledger.push(label, &Arc::new(stats.clone()));
        }
        ledger
    }

    /// Records one completion of `label`. Serialises `stats` only when it
    /// is not the `Arc` the label's last run last saw.
    pub fn push(&mut self, label: &str, stats: &Arc<RunStats>) {
        self.completed += 1;
        let runs = match self.labels.get_mut(label) {
            Some(runs) => runs,
            None => self.labels.entry(label.to_string()).or_default(),
        };
        if let Some(last) = runs.last_mut().filter(|last| Arc::ptr_eq(&last.latest, stats)) {
            last.count += 1;
            last.chunk.memoise();
            return;
        }
        let text = chunk_text(label, stats);
        match runs.last_mut() {
            Some(last) if *last.chunk.block() == text => {
                last.count += 1;
                last.latest = Arc::clone(stats);
                // A run of one never pays for the table.
                last.chunk.memoise();
            }
            _ => runs.push(Run { chunk: FnvBlock::new(text), count: 1, latest: Arc::clone(stats) }),
        }
    }

    /// Completions recorded so far.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// The canonical dump: every chunk, labels in byte order, arrival
    /// order within a label.
    #[must_use]
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for run in self.labels.values().flatten() {
            for _ in 0..run.count {
                out.push_str(run.chunk.block());
            }
        }
        out
    }

    /// FNV-1a-64 of [`ResultLedger::dump`] as fixed-width hex, without
    /// building the dump. Takes `&mut self` because repeated runs fill
    /// their block tables on the way.
    #[must_use]
    pub fn digest(&mut self) -> String {
        let mut h = checksum::FNV64_OFFSET;
        for run in self.labels.values_mut().flatten() {
            for _ in 0..run.count {
                h = run.chunk.apply(h);
            }
        }
        format!("{h:016x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcl1_common::SplitMix64;

    /// The definition the ledger replaced: stable-sort the completion
    /// list by label, concatenate, hash the bytes.
    fn oracle_dump(points: &[(String, RunStats)]) -> String {
        let mut sorted: Vec<&(String, RunStats)> = points.iter().collect();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out = String::new();
        for (label, stats) in sorted {
            out.push_str("=== ");
            out.push_str(label);
            out.push('\n');
            out.push_str(&serialize_stats(stats));
        }
        out
    }

    fn point(label: &str, cycles: u64) -> (String, RunStats) {
        let stats = RunStats { cycles, design: "Sh40".to_string(), ..RunStats::default() };
        (label.to_string(), stats)
    }

    fn check(points: &[(String, RunStats)]) {
        let mut ledger = ResultLedger::of(points);
        let want = oracle_dump(points);
        assert_eq!(ledger.completed(), points.len() as u64);
        assert_eq!(ledger.dump(), want);
        assert_eq!(ledger.digest(), checksum::fnv64_hex(want.as_bytes()));
        // A second digest reads the tables the first one filled.
        assert_eq!(ledger.digest(), checksum::fnv64_hex(want.as_bytes()));
    }

    #[test]
    fn empty_ledger_is_the_empty_dump() {
        check(&[]);
        assert_eq!(ResultLedger::default().digest(), "cbf29ce484222325");
    }

    #[test]
    fn same_label_different_stats_keep_arrival_order() {
        // A,B,A under one label must dump as A,B,A — not A,A,B.
        let (a, b) = (point("X/Sh40", 1), point("X/Sh40", 2));
        let points = [a.clone(), point("W/Pr40", 9), b, a];
        check(&points);
        let ledger = ResultLedger::of(&points);
        assert_eq!(ledger.labels["X/Sh40"].len(), 3, "A,B,A is three runs");
    }

    #[test]
    fn repeats_coalesce_and_only_repeats_allocate() {
        let mut ledger = ResultLedger::default();
        let (label, stats) = point("C-BLK/Baseline", 7);
        ledger.push(&label, &Arc::new(stats.clone()));
        assert!(!ledger.labels[&label][0].chunk.is_memoised());
        for _ in 0..999 {
            ledger.push(&label, &Arc::new(stats.clone()));
        }
        let runs = &ledger.labels[&label];
        assert_eq!((runs.len(), runs[0].count), (1, 1000));
        assert!(runs[0].chunk.is_memoised());
    }

    /// Pushes `arrivals` under one label as the given `Arc`s; the dump and
    /// digest must be the oracle's, in `runs` runs.
    fn check_arcs(arrivals: &[&Arc<RunStats>], runs: usize) -> ResultLedger {
        let label = "X/Sh40";
        let mut ledger = ResultLedger::default();
        for stats in arrivals {
            ledger.push(label, stats);
        }
        let points: Vec<(String, RunStats)> =
            arrivals.iter().map(|s| (label.to_string(), RunStats::clone(s))).collect();
        let want = oracle_dump(&points);
        assert_eq!(ledger.completed(), arrivals.len() as u64);
        assert_eq!(ledger.dump(), want);
        assert_eq!(ledger.digest(), checksum::fnv64_hex(want.as_bytes()));
        assert_eq!(ledger.labels[label].len(), runs);
        ledger
    }

    #[test]
    fn arc_arrivals_match_the_oracle() {
        let a = Arc::new(point("X/Sh40", 1).1);
        let b = Arc::new(point("X/Sh40", 2).1);
        let a_again = Arc::new(RunStats::clone(&a));

        let same = check_arcs(&[&a, &a], 1);
        assert!(Arc::ptr_eq(&same.labels["X/Sh40"][0].latest, &a));
        // An equal value in a fresh `Arc` joins the run by its bytes, and the
        // run then remembers the newer `Arc`.
        let equal = check_arcs(&[&a, &a_again], 1);
        assert!(Arc::ptr_eq(&equal.labels["X/Sh40"][0].latest, &a_again));
        check_arcs(&[&a, &b], 2);
        check_arcs(&[&a, &b, &a], 3);
    }

    #[test]
    fn shuffled_multisets_match_the_sort_and_concatenate_oracle() {
        let mut rng = SplitMix64::new(14);
        for case in 0..12usize {
            // A few labels (some prefixes of others, to exercise byte
            // order), each with 1..=3 distinct stats and duplicate counts
            // up to 1 000.
            let labels = ["A", "A/B", "A-APP/Sh16", "B-APP/Pr4", "b", "Z/Sh40+C10+Boost"];
            let mut points = Vec::new();
            for label in &labels[..2 + case % 5] {
                for variant in 0..=rng.next_below(3) {
                    let copies = match rng.next_below(4) {
                        0 => 1,
                        1 => 1000,
                        _ => 1 + rng.next_below(40),
                    };
                    for _ in 0..copies {
                        points.push(point(label, variant));
                    }
                }
            }
            for i in (1..points.len()).rev() {
                let j = usize::try_from(rng.next_below(i as u64 + 1)).expect("below a usize");
                points.swap(i, j);
            }
            check(&points);
        }
    }
}
