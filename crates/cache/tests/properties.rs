//! Randomized-but-deterministic tests checking the set-associative cache
//! against a naive reference model, and MSHR structural invariants.
//!
//! Each test drives many seeded `SplitMix64` episodes, so coverage is
//! property-test-like while staying fully reproducible and dependency-free.

#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]

use dcl1_cache::{CacheGeometry, LookupResult, Mshr, SetAssocCache};
use dcl1_common::{LineAddr, SplitMix64};
use std::collections::BTreeMap;

/// A naive per-set LRU model: each set is a Vec ordered LRU→MRU.
#[derive(Debug, Default)]
struct RefModel {
    sets: BTreeMap<usize, Vec<u64>>,
    assoc: usize,
    nsets: usize,
}

impl RefModel {
    fn new(nsets: usize, assoc: usize) -> Self {
        RefModel { sets: BTreeMap::new(), assoc, nsets }
    }
    fn set_of(&self, line: u64) -> usize {
        (line as usize) % self.nsets
    }
    fn lookup(&mut self, line: u64) -> bool {
        let set = self.set_of(line);
        let v = self.sets.entry(set).or_default();
        if let Some(pos) = v.iter().position(|&l| l == line) {
            let l = v.remove(pos);
            v.push(l);
            true
        } else {
            false
        }
    }
    fn fill(&mut self, line: u64) -> Option<u64> {
        let assoc = self.assoc;
        let set = self.set_of(line);
        let v = self.sets.entry(set).or_default();
        if let Some(pos) = v.iter().position(|&l| l == line) {
            let l = v.remove(pos);
            v.push(l);
            return None;
        }
        let evicted = if v.len() >= assoc { Some(v.remove(0)) } else { None };
        v.push(line);
        evicted
    }
    fn invalidate(&mut self, line: u64) -> bool {
        let set = self.set_of(line);
        let v = self.sets.entry(set).or_default();
        if let Some(pos) = v.iter().position(|&l| l == line) {
            v.remove(pos);
            true
        } else {
            false
        }
    }
}

/// Random op sequences produce identical hit/miss/eviction behaviour in
/// the real cache and the reference model.
#[test]
fn cache_matches_reference_model() {
    for seed in 0..64u64 {
        let mut rng = SplitMix64::new(0xCAC4E ^ seed);
        let geom = CacheGeometry::new(4 * 2 * 128, 2, 128).unwrap(); // 4 sets x 2 ways
        let mut cache = SetAssocCache::new(geom);
        let mut model = RefModel::new(geom.sets(), geom.assoc());
        let ops = 1 + rng.next_below(400);
        for _ in 0..ops {
            let l = rng.next_below(64);
            match rng.next_below(3) {
                0 => {
                    let got = cache.lookup(LineAddr::new(l)) == LookupResult::Hit;
                    assert_eq!(got, model.lookup(l), "lookup mismatch (seed {seed}, line {l})");
                }
                1 => {
                    let got = cache.fill(LineAddr::new(l)).map(|e| e.raw());
                    assert_eq!(got, model.fill(l), "fill mismatch (seed {seed}, line {l})");
                }
                _ => {
                    assert_eq!(
                        cache.invalidate(LineAddr::new(l)),
                        model.invalidate(l),
                        "invalidate mismatch (seed {seed}, line {l})"
                    );
                }
            }
        }
    }
}

/// Occupancy never exceeds capacity and resident lines are unique.
#[test]
fn occupancy_bounded_and_lines_unique() {
    for seed in 0..32u64 {
        let mut rng = SplitMix64::new(0x0CC ^ seed.wrapping_mul(0x9E37));
        let geom = CacheGeometry::new(8 * 4 * 128, 4, 128).unwrap();
        let mut cache = SetAssocCache::new(geom);
        let fills = 1 + rng.next_below(600);
        for _ in 0..fills {
            cache.fill(LineAddr::new(rng.next_below(512)));
            assert!(cache.occupancy() <= geom.lines());
        }
        let mut lines: Vec<u64> = cache.resident_lines().map(|l| l.raw()).collect();
        let before = lines.len();
        lines.sort_unstable();
        lines.dedup();
        assert_eq!(lines.len(), before, "duplicate resident lines (seed {seed})");
        // Everything reported resident must probe as present.
        for l in lines {
            assert!(cache.probe(LineAddr::new(l)));
        }
    }
}

/// The MSHR never exceeds its entry budget, never loses a token, and
/// never delivers a token twice.
#[test]
fn mshr_conserves_tokens() {
    for seed in 0..48u64 {
        let mut rng = SplitMix64::new(0x517 ^ seed.wrapping_mul(0xABCD));
        let mut mshr: Mshr<u32> = Mshr::new(4, 3);
        let mut submitted = Vec::new();
        let mut delivered = Vec::new();
        let mut stalled = 0usize;
        let reqs = 1 + rng.next_below(300);
        for i in 0..reqs {
            let line = rng.next_below(16);
            let token = rng.next_below(1000) as u32;
            match mshr.try_allocate(LineAddr::new(line), token) {
                Ok(_) => submitted.push(token),
                Err(t) => {
                    assert_eq!(t, token, "stall must hand the token back");
                    stalled += 1;
                }
            }
            assert!(mshr.len() <= 4);
            // Occasionally complete a line.
            if i % 5 == 4 {
                let l = rng.next_below(16);
                delivered.extend(mshr.complete(LineAddr::new(l)));
            }
        }
        // Drain everything.
        for line in 0..16u64 {
            delivered.extend(mshr.complete(LineAddr::new(line)));
        }
        assert!(mshr.is_empty());
        submitted.sort_unstable();
        delivered.sort_unstable();
        assert_eq!(
            submitted, delivered,
            "tokens lost or duplicated (seed {seed}, stalled={stalled})"
        );
    }
}
