//! Property tests for `BoundedQueue`'s conservation instrumentation: under
//! random operation sequences the queue never exceeds capacity and always
//! satisfies `accepted == popped + len` (the invariant the checked-sim
//! harness sweeps each epoch), and the `FlowMeter` hook behind it panics
//! on underflow in debug builds while staying a reportable error in
//! release.

#![allow(clippy::cast_possible_truncation)] // test values are tiny

use dcl1_common::{BoundedQueue, FlatMap, FlowMeter, SplitMix64};
use std::collections::{BTreeMap, BTreeSet};

#[test]
fn random_ops_conserve_items_and_respect_capacity() {
    for seed in 0..16u64 {
        let mut rng = SplitMix64::new(0x9E37_79B9_7F4A_7C15 ^ seed);
        let cap = 1 + (rng.next_u64() % 8) as usize;
        let mut q: BoundedQueue<u64> = BoundedQueue::new(cap);
        let mut model: std::collections::VecDeque<u64> = std::collections::VecDeque::new();
        for step in 0..2000u64 {
            match rng.next_u64() % 3 {
                0 => {
                    let pushed = q.try_push(step).is_ok();
                    assert_eq!(pushed, model.len() < cap, "push admission mismatch");
                    if pushed {
                        model.push_back(step);
                    }
                }
                1 => {
                    assert_eq!(q.pop(), model.pop_front(), "pop mismatch");
                }
                _ => {
                    if !model.is_empty() {
                        let at = (rng.next_u64() as usize) % model.len();
                        assert_eq!(q.remove_at(at), model.remove(at), "remove_at mismatch");
                    }
                }
            }
            assert!(q.len() <= cap, "capacity exceeded");
            assert_eq!(q.accepted(), q.popped() + q.len() as u64, "conservation broke");
            q.check_conservation("prop.queue").expect("invariant check");
        }
    }
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "underflow")]
fn flowmeter_underflow_panics_in_checked_builds() {
    let mut m = FlowMeter::new("txns");
    m.produce(1);
    m.consume(1);
    m.consume(1); // nothing left in flight
}

#[cfg(not(debug_assertions))]
#[test]
fn flowmeter_underflow_reports_in_release_builds() {
    let mut m = FlowMeter::new("txns");
    m.produce(1);
    m.consume(2);
    let err = m.check(0).expect_err("underflow must be reported");
    assert!(err.detail.contains("underflow"), "{err}");
}

#[test]
fn flowmeter_leak_is_reported_not_panicked() {
    let mut m = FlowMeter::new("txns");
    m.produce(3);
    m.consume(1);
    let err = m.check_drained().expect_err("2 in flight is a leak at drain");
    assert!(err.detail.contains("leak"), "{err}");
}

/// Differential test of the open-addressed `FlatMap` against `BTreeMap`
/// as a reference model: random insert/remove/get sequences (with enough
/// churn to exercise backward-shift deletion and growth) must agree on
/// every return value, the live population, and the address-sorted
/// iteration the map synthesizes on demand.
#[test]
fn flatmap_matches_btreemap_reference_model() {
    for seed in 0..16u64 {
        let mut rng = SplitMix64::new(0xF1A7_0000 ^ (seed * 0x9E37));
        let mut map: FlatMap<u64> = if seed.is_multiple_of(2) {
            FlatMap::new() // exercise growth from the minimum table
        } else {
            FlatMap::with_capacity(8)
        };
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for step in 0..5000u64 {
            // A mix of clustered (sequential) and scattered keys: the
            // clustered half stresses probe-chain displacement.
            let key = if rng.next_u64().is_multiple_of(2) {
                rng.next_u64() % 48
            } else {
                rng.next_u64() << 6
            };
            match rng.next_u64() % 4 {
                0 | 1 => {
                    assert_eq!(
                        map.insert(key, step),
                        model.insert(key, step),
                        "insert return diverged for key {key}"
                    );
                }
                2 => {
                    assert_eq!(
                        map.remove(key),
                        model.remove(&key),
                        "remove return diverged for key {key}"
                    );
                }
                _ => {
                    assert_eq!(map.get(key), model.get(&key), "get diverged for key {key}");
                    assert_eq!(map.contains_key(key), model.contains_key(&key));
                }
            }
            assert_eq!(map.len(), model.len(), "population diverged");
        }
        let sorted = map.sorted_keys();
        let model_sorted: Vec<u64> = model.keys().copied().collect();
        assert_eq!(sorted, model_sorted, "ordered iteration diverged");
        let mut via_iter: Vec<(u64, u64)> = map.iter().map(|(k, &v)| (k, v)).collect();
        via_iter.sort_unstable();
        let model_pairs: Vec<(u64, u64)> = model.into_iter().collect();
        assert_eq!(via_iter, model_pairs, "key/value pairs diverged");
    }
}

/// Same differential discipline for `FlatMap<()>` as a membership set
/// against `BTreeSet`, over a key range that takes in both ends of `u64`:
/// `u64::MAX` marks an empty slot, so the map holds it outside the table.
#[test]
fn flatmap_membership_matches_btreeset_reference_model() {
    for seed in 0..8u64 {
        let mut rng = SplitMix64::new(0x5E7_5E7 ^ (seed << 9));
        let mut set: FlatMap<()> = FlatMap::with_capacity(4);
        let mut model: BTreeSet<u64> = BTreeSet::new();
        for _ in 0..3000 {
            // 0..48 and u64::MAX-47..=u64::MAX.
            let r = rng.next_u64() % 96;
            let key = if r < 48 { r } else { u64::MAX - (r - 48) };
            if rng.next_u64() % 3 < 2 {
                let fresh = set.insert(key, ()).is_none();
                assert_eq!(fresh, model.insert(key), "insert diverged for {key}");
            } else {
                let held = set.remove(key).is_some();
                assert_eq!(held, model.remove(&key), "remove diverged for {key}");
            }
            assert_eq!(set.contains_key(key), model.contains(&key));
            assert_eq!(set.len(), model.len(), "population diverged");
        }
        let model_sorted: Vec<u64> = model.into_iter().collect();
        assert_eq!(set.sorted_keys(), model_sorted, "ordered iteration diverged");
    }
}
