//! The build is hermetic: `Cargo.lock` names the workspace's own packages
//! and nothing else, and none of them comes from a registry or a git
//! remote. (What a licence / advisory scan would guard starts to matter
//! the day this fails.)

use std::collections::BTreeSet;
use std::path::Path;

/// The `name = "…"` values of `text`'s `[package]` / `[[package]]` tables.
fn package_names(text: &str) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let mut in_package = false;
    for line in text.lines() {
        if line.starts_with('[') {
            in_package = line == "[package]" || line == "[[package]]";
        } else if let Some(name) = line.strip_prefix("name = \"").filter(|_| in_package) {
            names.insert(name.trim_end_matches('"').to_string());
        }
    }
    names
}

#[test]
fn lockfile_lists_only_the_workspace() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |p: &Path| {
        std::fs::read_to_string(p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
    };
    let mut workspace = package_names(&read(&root.join("Cargo.toml")));
    for member in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let manifest = member.expect("crates/ entry").path().join("Cargo.toml");
        workspace.extend(package_names(&read(&manifest)));
    }
    assert_eq!(workspace.len(), 16, "{workspace:?}");

    let lock = read(&root.join("Cargo.lock"));
    assert_eq!(package_names(&lock), workspace);
    assert!(!lock.lines().any(|l| l.starts_with("source = ")), "an external source:\n{lock}");
}
