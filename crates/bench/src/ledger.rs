//! The run-length result ledger: the one definition of the canonical
//! stats dump (chunk framing and order) and of its digest.
//!
//! A completion is serialised once, into its `"=== label\n"` +
//! `serialize_stats` chunk, and filed under its label. Labels iterate in
//! byte order and a label's runs stay in arrival order — exactly what a
//! stable sort by label of the completion list gives — so the dump is the
//! concatenation of every chunk, `count` times each. Equal consecutive
//! chunks coalesce into one run, which makes a resubmitted sweep cost one
//! counter increment, and a run that repeats hashes through a memoised
//! [`FnvBlock`], which makes the digest one multiply-add per completion.

use crate::runner::serialize_stats;
use dcl1::RunStats;
use dcl1_common::checksum::{self, FnvBlock};
use std::collections::BTreeMap;

/// `count` consecutive arrivals of one chunk under one label.
#[derive(Debug, Clone)]
struct Run {
    chunk: FnvBlock<String>,
    count: u64,
}

/// Completed points, kept as what the dump and digest need and no more:
/// no `RunStats` survives [`ResultLedger::push`].
#[derive(Debug, Clone, Default)]
pub struct ResultLedger {
    labels: BTreeMap<String, Vec<Run>>,
    completed: u64,
}

impl ResultLedger {
    /// A ledger holding `points`, pushed in slice order.
    #[must_use]
    pub fn of(points: &[(String, RunStats)]) -> ResultLedger {
        let mut ledger = ResultLedger::default();
        for (label, stats) in points {
            ledger.push(label, stats);
        }
        ledger
    }

    /// Records one completion.
    pub fn push(&mut self, label: &str, stats: &RunStats) {
        let chunk = format!("=== {label}\n{}", serialize_stats(stats));
        self.completed += 1;
        let runs = self.labels.entry(label.to_string()).or_default();
        match runs.last_mut() {
            Some(last) if *last.chunk.block() == chunk => {
                last.count += 1;
                // A run of one never pays for the table.
                last.chunk.memoise();
            }
            _ => runs.push(Run { chunk: FnvBlock::new(chunk), count: 1 }),
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
        ledger.push(&label, &stats);
        assert!(!ledger.labels[&label][0].chunk.is_memoised());
        for _ in 0..999 {
            ledger.push(&label, &stats);
        }
        let runs = &ledger.labels[&label];
        assert_eq!((runs.len(), runs[0].count), (1, 1000));
        assert!(runs[0].chunk.is_memoised());
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
