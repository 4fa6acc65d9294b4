//! Shared by the root integration tests that go through the sweep runner.

use std::path::PathBuf;
use std::sync::Mutex;

/// Tests of this binary currently holding the private store.
static HOLDERS: Mutex<usize> = Mutex::new(0);

fn store_dir() -> PathBuf {
    std::env::temp_dir().join(format!("dcl1-root-tests-{}", std::process::id()))
}

/// Keeps the runner's disk tier in a directory of this test binary's own
/// for as long as any test holds one. The runner's store is a
/// process-wide `OnceLock` built from the environment on first use, so
/// take this *before* the first runner call: otherwise a warm
/// `target/dcl1-cache` serves the results and nothing is simulated.
pub struct PrivateStore;

pub fn private_store() -> PrivateStore {
    let mut holders = HOLDERS.lock().expect("holder count");
    if *holders == 0 {
        std::env::set_var("DCL1_CACHE_DIR", store_dir());
    }
    *holders += 1;
    PrivateStore
}

impl Drop for PrivateStore {
    fn drop(&mut self) {
        let mut holders = HOLDERS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        *holders -= 1;
        if *holders == 0 {
            let _ = std::fs::remove_dir_all(store_dir());
        }
    }
}
