//! Shared by the root integration tests that go through the sweep runner.

use dcl1_bench::SweepSession;
use std::path::Path;

/// A session on an empty directory of this test binary's own, under
/// cargo's scratch space for integration tests: its store holds nothing,
/// so every point it is asked for simulates. The directory is emptied on
/// every open.
pub(crate) fn fresh_session(tag: &str) -> SweepSession {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    SweepSession::open(&dir)
}
