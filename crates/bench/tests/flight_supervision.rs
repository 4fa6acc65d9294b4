//! Satellite: single-flight leadership must survive a panicking leader.
//!
//! The sweep runner wraps every point in `contain()` (panic containment)
//! and in the store's single-flight machinery (duplicate suppression). The
//! dangerous interleaving is their composition: a point that panics *while
//! holding the flight slot*. The slot's `FlightGuard` must release every
//! blocked waiter during the unwind — before `contain` even returns the
//! quarantine — and the waiter, re-elected leader, must publish an entry
//! byte-identical to a run that never panicked, or the crash would
//! silently change results.

#![expect(clippy::disallowed_types, reason = "times the binary from outside")]

mod util;

use dcl1_resilience::{contain, SimError};
use dcl1_store::{Codec, DiskTierConfig, Flight, ResultStore, StoreConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct TextCodec;

impl Codec<String> for TextCodec {
    fn encode(&self, v: &String) -> String {
        v.clone()
    }
    fn decode(&self, body: &str) -> Option<String> {
        Some(body.to_string())
    }
}

fn open_store(root: PathBuf) -> ResultStore<String> {
    ResultStore::open(
        &StoreConfig {
            mem_budget_bytes: 1 << 16,
            mem_shards: 1,
            disk: Some(DiskTierConfig {
                root,
                budget_bytes: None,
                migrate_flat: false,
                purge_stale_siblings: false,
            }),
            shared: None,
            shared_writeback: false,
        },
        TextCodec,
    )
}

#[test]
fn panicking_leader_is_quarantined_and_its_waiter_reelected() {
    let dir = util::scratch("reelect");
    let store = Arc::new(open_store(dir.join("cache")));
    let reference = open_store(dir.join("reference"));

    const KEY: u128 = 0x00dc_1f17;
    let value = "C-BLK/baseline ipc=1.2345 cycles=9876\n".to_string();

    // The clean-run entry: what the disk must hold when no leader panics.
    reference.insert(KEY, &value);
    let want = std::fs::read(reference.disk_entry_path(KEY).expect("reference has a disk tier"))
        .expect("reference entry written");

    let leader_holding = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        let waiter = {
            let store = Arc::clone(&store);
            let leader_holding = Arc::clone(&leader_holding);
            let value = value.clone();
            s.spawn(move || {
                while !leader_holding.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                // Blocks behind the doomed leader. Only the guard's Drop,
                // running during the unwind, can let this thread return —
                // a hang here is the regression this test exists to catch.
                assert!(matches!(store.begin_flight(KEY), Flight::Waited));
                // The dead leader's guard removed the key from the
                // in-flight map, so the released waiter wins a fresh
                // election and publishes.
                match store.begin_flight(KEY) {
                    Flight::Leader(_guard) => store.insert(KEY, &value),
                    Flight::Waited => panic!("the dead leader's slot is still held"),
                }
            })
        };

        let out = contain("C-BLK/baseline", || -> Result<(), SimError> {
            let Flight::Leader(_guard) = store.begin_flight(KEY) else {
                panic!("the first claim must lead");
            };
            leader_holding.store(true, Ordering::SeqCst);
            // Let the waiter actually queue behind the slot before the
            // leader dies, so the release path under test (Drop waking a
            // *blocked* thread) is the one exercised.
            let t0 = Instant::now();
            while store.stats().flight_waits == 0 && t0.elapsed() < Duration::from_secs(10) {
                std::thread::yield_now();
            }
            panic!("chaos: leader dies holding the flight slot");
        });
        assert_eq!(out.expect_err("the leader's panic is quarantined").class, "panic");
        waiter.join().expect("waiter must be released by the guard's Drop");
    });

    assert_eq!(
        store.stats().flight_waits,
        1,
        "the waiter must have blocked behind the doomed leader"
    );

    // Byte-identical re-election: the crash must not leak into the entry.
    let got = std::fs::read(store.disk_entry_path(KEY).expect("store has a disk tier"))
        .expect("re-elected leader published the entry");
    assert_eq!(got, want, "re-elected leader's entry differs from the clean run");

    let _ = std::fs::remove_dir_all(&dir);
}
