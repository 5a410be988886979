//! CI fuzz smoke: a fixed-seed sweep of the differential fuzzing
//! campaign against every part of the `sqm_bench::fuzz` safety oracle;
//! it prints how many system×scenario×path cases it ran.
//!
//! On any oracle violation the minimized, self-contained repro —
//! replay seed, system spec and scenario literal — is printed to
//! **stderr** and the process exits nonzero, so the CI log carries
//! everything needed to reproduce locally with
//! `fuzz::run_case(&FuzzCase::generate(seed))`.
//!
//! ```text
//! cargo run -p sqm-bench --release --bin fuzz_smoke [seeds] [base_seed]
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    let seeds: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(16);
    let base_seed: u64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE);

    let report = sqm_bench::fuzz::run_campaign(base_seed, seeds);
    println!(
        "fuzz-smoke: {} seeds from {base_seed:#x}, {} system x scenario x path cases",
        report.seeds_run, report.cases
    );
    match report.failure {
        None => {
            println!("fuzz-smoke: every oracle part held on every case ✓");
            ExitCode::SUCCESS
        }
        Some((_, violation, repro)) => {
            eprintln!("{repro}");
            eprintln!(
                "fuzz-smoke: FAILED after {} cases — oracle `{}`",
                report.cases, violation.oracle
            );
            ExitCode::FAILURE
        }
    }
}
