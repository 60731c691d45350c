//! Tier-1 wiring: `cargo test -q` fails on any new invariant
//! violation, not just CI. Lints the real workspace and requires a
//! fully clean report — zero unsuppressed violations, zero pragma
//! warnings, and a justification on every suppression.

use std::path::Path;

use trinit_lint::{find_workspace_root, lint_workspace};

#[test]
fn workspace_is_lint_clean() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above the lint crate");
    let report = lint_workspace(&root).expect("workspace sources readable");
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}) — walker broken?",
        report.files_scanned
    );
    assert!(
        report.is_clean() && report.warnings.is_empty(),
        "workspace invariant violations:\n{}",
        report.render_human(true)
    );
    for v in report.violations.iter().filter(|v| v.suppressed) {
        assert!(
            v.justification.as_deref().is_some_and(|j| !j.trim().is_empty()),
            "suppression without justification at {}:{}",
            v.file,
            v.line
        );
    }
}

/// The quoted entries of the root manifest's `key = [ ... ]` array.
fn manifest_list(manifest: &str, key: &str) -> Vec<String> {
    let start = manifest
        .lines()
        .position(|l| l.trim_start().starts_with(&format!("{key} = [")))
        .unwrap_or_else(|| panic!("root Cargo.toml has no `{key}` list"));
    manifest
        .lines()
        .skip(start + 1)
        .take_while(|l| l.trim() != "]")
        .filter_map(|l| l.trim().strip_prefix('"')?.split('"').next())
        .map(str::to_owned)
        .collect()
}

/// Tier-1 runs `cargo test -q` at the root, which tests only the
/// `default-members`; a crate added to `members` alone would silently
/// drop out of it.
#[test]
fn default_members_cover_every_workspace_member() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above the lint crate");
    let manifest =
        std::fs::read_to_string(root.join("Cargo.toml")).expect("root Cargo.toml readable");
    let members = manifest_list(&manifest, "members");
    let defaults = manifest_list(&manifest, "default-members");
    assert!(members.len() > 10, "suspiciously few members: {members:?}");
    for member in &members {
        assert!(
            defaults.contains(member),
            "workspace member {member} missing from default-members"
        );
    }
}
