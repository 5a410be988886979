//! The module paths ARCHITECTURE.md names against the source tree.
//!
//! Every `sqm_core::<m>`, `sqm_bench::<m>` and `sqm_platform::<m>` in
//! ARCHITECTURE.md (the hyphenated crate names `sqm-core::<m>` … count
//! too) must name a module that exists as a file: `src/<m>.rs` or
//! `src/<m>/mod.rs` under the crate's directory. Only the first segment
//! after the crate is checked, and only when it starts with a lowercase
//! letter, so `sqm_core::elastic::ElasticRunner` checks `elastic`. A
//! deleted or renamed module that the architecture still describes fails
//! here instead of going stale.
//!
//! Type names are checked by the docs build: ARCHITECTURE.md is compiled
//! into `sqm_bench::architecture`, and its prose names types as intra-doc
//! links, which `cargo doc` with `-D warnings` resolves. Names inside the
//! ```` ```text ```` diagram cannot be links, so each must also be linked
//! somewhere in the prose.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

/// The crates whose module paths are checked, as written in Rust paths.
const CRATES: [&str; 3] = ["sqm_core", "sqm_bench", "sqm_platform"];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every `(crate, module)` that `text` names as `crate::module`, with the
/// crate written with underscores or hyphens.
fn module_paths(text: &str) -> BTreeSet<(String, String)> {
    let mut paths = BTreeSet::new();
    for krate in CRATES {
        for spelling in [krate.to_string(), krate.replace('_', "-")] {
            let prefix = format!("{spelling}::");
            for (at, _) in text.match_indices(&prefix) {
                let rest = &text[at + prefix.len()..];
                let len = rest
                    .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                    .unwrap_or(rest.len());
                let module = &rest[..len];
                if module.starts_with(|c: char| c.is_ascii_lowercase()) {
                    paths.insert((krate.to_string(), module.to_string()));
                }
            }
        }
    }
    paths
}

/// The type-like names in `text`: identifiers with a CamelCase segment
/// (at least two capitals, such as `ShedLedger`), read from the first
/// capitalized `::` segment on, so `multi::TaskSplitter` yields
/// `TaskSplitter` and `RunSummary::merge` stays whole.
fn type_names(text: &str) -> BTreeSet<String> {
    let camel = |seg: &str| {
        seg.starts_with(|c: char| c.is_ascii_uppercase())
            && seg
                .char_indices()
                .skip_while(|(_, c)| !c.is_ascii_lowercase())
                .any(|(_, c)| c.is_ascii_uppercase())
    };
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':'))
        .filter_map(|token| {
            let segments: Vec<&str> = token.trim_matches(':').split("::").collect();
            let first = segments
                .iter()
                .position(|s| s.starts_with(|c: char| c.is_ascii_uppercase()))?;
            let name = &segments[first..];
            name.iter().any(|s| camel(s)).then(|| name.join("::"))
        })
        .collect()
}

#[test]
fn diagram_type_names_are_linked_in_prose() {
    let architecture = fs::read_to_string(root().join("ARCHITECTURE.md")).expect("ARCHITECTURE.md");
    let (mut prose, mut diagrams) = (String::new(), String::new());
    for (i, part) in architecture.split("```").enumerate() {
        if i % 2 == 0 {
            &mut prose
        } else {
            &mut diagrams
        }
        .push_str(part);
    }
    let names = type_names(&diagrams);
    assert!(
        names.contains("ShedLedger"),
        "the scan must find known names: {names:?}"
    );
    for name in &names {
        assert!(
            prose.contains(&format!("[`{name}`]")) || prose.contains(&format!("::{name}`]")),
            "ARCHITECTURE.md's diagram names {name}, but no intra-doc link [`{name}`] in its prose \
             lets `cargo doc` check that it exists"
        );
    }
}

#[test]
fn type_names_reads_camel_case_identifiers() {
    let text = "Trace / RecordBuffer, multi::TaskSplitter, RunSummary::merge, \
                Admission::DropNewest, BENCH_baseline.json, PS, Periodic, sqm_core::arena";
    let found: Vec<String> = type_names(text).into_iter().collect();
    assert_eq!(
        found,
        [
            "Admission::DropNewest",
            "RecordBuffer",
            "RunSummary::merge",
            "TaskSplitter"
        ]
    );
}

#[test]
fn architecture_module_paths_exist() {
    let architecture = fs::read_to_string(root().join("ARCHITECTURE.md")).expect("ARCHITECTURE.md");
    let paths = module_paths(&architecture);
    assert!(
        paths.contains(&("sqm_core".to_string(), "elastic".to_string())),
        "the scan must find known module paths: {paths:?}"
    );
    for (krate, module) in &paths {
        let src = root()
            .join("crates")
            .join(krate.replace('_', "-"))
            .join("src");
        assert!(
            src.join(format!("{module}.rs")).is_file() || src.join(module).join("mod.rs").is_file(),
            "ARCHITECTURE.md names {krate}::{module}, but {} has no {module}.rs or {module}/mod.rs",
            src.display()
        );
    }
}

#[test]
fn module_paths_reads_first_lowercase_segments() {
    let text = "`sqm_core::engine::Engine`, sqm-bench::fuzz, sqm_platform::Clock, \
                sqm_core::, sqm_mpeg::video and sqm_core::arena + ::artifact";
    let found: Vec<(String, String)> = module_paths(text).into_iter().collect();
    let expected = [
        ("sqm_bench", "fuzz"),
        ("sqm_core", "arena"),
        ("sqm_core", "engine"),
    ]
    .map(|(k, m)| (k.to_string(), m.to_string()));
    assert_eq!(found, expected);
}
