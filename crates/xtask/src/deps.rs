//! Dependency-freeze lint.
//!
//! The workspace is intentionally std-only: it must build in
//! offline/air-gapped environments with no crate registry reachable
//! (RNG and bench harness are hand-rolled in-tree). Any
//! `[dependencies]` entry that is not another workspace member is
//! therefore a hard lint failure — adding a crates.io dependency is a
//! deliberate decision that must be made here, not in a Cargo.toml.

use std::collections::BTreeSet;

use crate::{Finding, Level};

/// Checks every manifest's dependency sections against the set of
/// workspace member package names. `manifests` holds
/// `(workspace-relative path, contents)` pairs for the root and every
/// crate `Cargo.toml`.
pub fn check_deps(manifests: &[(String, String)]) -> Vec<Finding> {
    let members = member_names(manifests);
    let mut out = Vec::new();
    for (path, text) in manifests {
        let mut section = String::new();
        for (ln, line) in text.lines().enumerate() {
            let t = line.trim();
            if t.starts_with('[') {
                section = t.trim_matches(|c| c == '[' || c == ']').to_string();
                continue;
            }
            if !is_dep_section(&section) || t.is_empty() || t.starts_with('#') {
                continue;
            }
            let Some(key) = dep_key(t) else { continue };
            if !members.contains(key.as_str()) {
                out.push(Finding {
                    path: path.clone(),
                    line: ln + 1,
                    lint: "deps/freeze",
                    level: Level::Error,
                    msg: format!(
                        "`{key}` in [{section}] is not a workspace member: the workspace is frozen std-only (offline builds); vendor the code in-tree or revisit the freeze deliberately"
                    ),
                });
            }
        }
    }
    out
}

/// Collects `[package] name = "..."` from every manifest.
fn member_names(manifests: &[(String, String)]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for (_, text) in manifests {
        let mut in_package = false;
        for line in text.lines() {
            let t = line.trim();
            if t.starts_with('[') {
                in_package = t == "[package]";
                continue;
            }
            if in_package {
                if let Some(rest) = t.strip_prefix("name") {
                    let rest = rest.trim_start();
                    if let Some(v) = rest.strip_prefix('=') {
                        names.insert(v.trim().trim_matches('"').to_string());
                    }
                }
            }
        }
    }
    names
}

fn is_dep_section(section: &str) -> bool {
    section == "dependencies"
        || section.ends_with("-dependencies")
        || section.ends_with(".dependencies")
}

/// The dependency name of a manifest entry line: `foo = ...` or
/// `foo.workspace = true`.
fn dep_key(line: &str) -> Option<String> {
    let key = line.split('=').next()?.trim();
    let key = key.split('.').next()?.trim();
    if key.is_empty()
        || !key
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
    {
        return None;
    }
    Some(key.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(path: &str, text: &str) -> (String, String) {
        (path.to_string(), text.to_string())
    }

    #[test]
    fn workspace_members_are_allowed() {
        let manifests = vec![
            manifest(
                "Cargo.toml",
                "[package]\nname = \"root\"\n[dependencies]\nhcs-sim.workspace = true\n",
            ),
            manifest(
                "crates/sim/Cargo.toml",
                "[package]\nname = \"hcs-sim\"\n[dependencies]\n",
            ),
        ];
        assert!(check_deps(&manifests).is_empty());
    }

    #[test]
    fn external_deps_are_rejected() {
        let manifests = vec![manifest(
            "crates/sim/Cargo.toml",
            "[package]\nname = \"hcs-sim\"\n\n[dependencies]\nrand = \"0.8\"\n\n[dev-dependencies]\ncriterion = { version = \"0.5\" }\n",
        )];
        let findings = check_deps(&manifests);
        assert_eq!(findings.len(), 2);
        assert!(findings.iter().all(|f| f.lint == "deps/freeze"));
        assert!(findings[0].msg.contains("`rand`"));
        assert!(findings[1].msg.contains("`criterion`"));
    }

    #[test]
    fn workspace_dependencies_section_is_checked_too() {
        let manifests = vec![manifest(
            "Cargo.toml",
            "[package]\nname = \"root\"\n[workspace.dependencies]\nserde = \"1\"\n",
        )];
        assert_eq!(check_deps(&manifests).len(), 1);
    }
}
