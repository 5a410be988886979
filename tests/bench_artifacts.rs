//! The committed `BENCH_*.json` artifacts against the documents that cite
//! them.
//!
//! Every `BENCH_<name>.json` that ARCHITECTURE.md, ROADMAP.md, the verify
//! skill or the CI workflow names must exist at the repository root, and
//! must either have a producer — a bin under `crates/sqm-bench/src/bin/`
//! whose default output is that file name, written as the string literal
//! `"BENCH_<name>.json"` — or be marked frozen in ARCHITECTURE.md with the
//! sentence "`BENCH_<name>.json` is the frozen measurement …". A deleted
//! artifact, a renamed default output or a doc citing a file nobody makes
//! fails here instead of going stale. Every producer bin must also be run
//! by a step of the CI workflow, so its identity gates keep running.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// The documents whose artifact citations must hold.
const DOCS: [&str; 4] = [
    "ARCHITECTURE.md",
    "ROADMAP.md",
    ".claude/skills/verify/SKILL.md",
    ".github/workflows/ci.yml",
];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Every `BENCH_<name>.json` in `text`, where `<name>` is one or more
/// ASCII letters, digits or underscores (so a `BENCH_*.json` pattern is not
/// a citation). With `quoted`, only those written as a whole string
/// literal, `"BENCH_<name>.json"`.
fn artifact_names(text: &str, quoted: bool) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for (at, _) in text.match_indices("BENCH_") {
        let rest = &text[at + "BENCH_".len()..];
        let stem = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        let tail = &rest[stem..];
        let literal = text[..at].ends_with('"') && tail.starts_with(".json\"");
        if stem > 0 && tail.starts_with(".json") && (literal || !quoted) {
            names.insert(format!("BENCH_{}.json", &rest[..stem]));
        }
    }
    names
}

/// The default output of every bin that has one, with the bin's file name.
fn producers() -> Vec<(String, String)> {
    let dir = root().join("crates/sqm-bench/src/bin");
    let mut out = Vec::new();
    for entry in fs::read_dir(&dir).expect("bin directory") {
        let path = entry.expect("bin entry").path();
        if path.extension().is_some_and(|e| e == "rs") {
            let bin = path.file_name().unwrap().to_string_lossy().into_owned();
            for name in artifact_names(&read(&path), true) {
                out.push((name, bin.clone()));
            }
        }
    }
    out
}

/// Artifacts ARCHITECTURE.md marks frozen: no longer regenerated.
fn frozen() -> BTreeSet<String> {
    let architecture = read(&root().join("ARCHITECTURE.md"));
    artifact_names(&architecture, false)
        .into_iter()
        .filter(|name| architecture.contains(&format!("`{name}` is the frozen measurement")))
        .collect()
}

#[test]
fn cited_bench_artifacts_exist_and_have_a_producer_or_are_frozen() {
    let cited: BTreeSet<String> = DOCS
        .iter()
        .flat_map(|doc| artifact_names(&read(&root().join(doc)), false))
        .collect();
    assert!(
        cited.contains("BENCH_elastic.json") && cited.contains("BENCH_hotpath.json"),
        "the scan must find known citations: {cited:?}"
    );
    let producers = producers();
    let frozen = frozen();
    for name in &cited {
        assert!(
            root().join(name).is_file(),
            "{name} is cited but missing from the repository root"
        );
        let made_by: Vec<&str> = producers
            .iter()
            .filter(|(out, _)| out == name)
            .map(|(_, bin)| bin.as_str())
            .collect();
        assert!(
            !made_by.is_empty() || frozen.contains(name),
            "{name} has no producer bin under crates/sqm-bench/src/bin/ and \
             ARCHITECTURE.md does not mark it frozen"
        );
        assert!(
            made_by.is_empty() || !frozen.contains(name),
            "{name} is marked frozen but {made_by:?} still writes it"
        );
    }
}

/// Whether a non-comment line of the workflow `ci` runs `--bin <bin>`.
fn ci_runs(ci: &str, bin: &str) -> bool {
    let flag = format!("--bin {bin}");
    ci.lines()
        .filter(|line| !line.trim_start().starts_with('#'))
        .any(|line| {
            line.match_indices(&flag).any(|(at, _)| {
                line[at + flag.len()..]
                    .chars()
                    .next()
                    .is_none_or(char::is_whitespace)
            })
        })
}

#[test]
fn every_producer_bin_runs_in_ci() {
    let ci = read(&root().join(".github/workflows/ci.yml"));
    let producers = producers();
    assert!(!producers.is_empty(), "the scan must find producer bins");
    for (name, bin) in producers {
        let stem = bin.trim_end_matches(".rs");
        assert!(
            ci_runs(&ci, stem),
            "{bin} writes {name} but no step of .github/workflows/ci.yml runs `--bin {stem}`"
        );
    }
}

#[test]
fn ci_runs_matches_whole_bin_names_outside_comments() {
    let ci = "  - run: cargo run --bin bench_net /tmp/x.json\n\
              # cargo run --bin bench_faults\n\
              run: cargo run --bin bench_control_v2\n\
              run: cargo run --bin fuzz_smoke";
    assert!(ci_runs(ci, "bench_net"));
    assert!(ci_runs(ci, "fuzz_smoke"));
    assert!(!ci_runs(ci, "bench_faults"));
    assert!(!ci_runs(ci, "bench_control"));
}

#[test]
fn artifact_names_reads_citations_and_literals() {
    let text = "see `BENCH_*.json`, BENCH_a1.json and \"BENCH_b_2.json\"; \
                \"a BENCH_c.json note\", BENCH_faults uses, BENCH_.json";
    let all: Vec<String> = artifact_names(text, false).into_iter().collect();
    assert_eq!(all, ["BENCH_a1.json", "BENCH_b_2.json", "BENCH_c.json"]);
    let literals: Vec<String> = artifact_names(text, true).into_iter().collect();
    assert_eq!(literals, ["BENCH_b_2.json"]);
}
