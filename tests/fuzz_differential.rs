//! The differential fuzzing campaign as a tier-1 gate, plus the
//! headline drifting-load scenario run through `StreamingRunner` with a
//! live mid-run table swap.
//!
//! The harness itself lives in `sqm_bench::fuzz` (generators, the
//! oracle and its parts, minimizer, repro formatting); this test sweeps
//! enough seeds to clear the 1000 system×scenario×path cases the
//! campaign promises locally (CI runs the smaller `fuzz_smoke` binary).

use speed_qm::core::prelude::*;
use speed_qm::platform::faults::DriftExec;
use speed_qm::platform::recalib::{RecalibratingExec, RecalibrationConfig};
use sqm_bench::fuzz::{self, FuzzCase, Violation};

/// ≥ 1000 generated system × scenario × path cases, every oracle part
/// green. On a violation the minimized self-contained repro is
/// the panic message.
#[test]
fn campaign_holds_over_1000_cases() {
    let report = fuzz::run_campaign(0xF00D, 100);
    if let Some((_, _, repro)) = &report.failure {
        panic!("{repro}");
    }
    assert_eq!(report.seeds_run, 100);
    assert!(
        report.cases >= 1000,
        "campaign must cover >= 1000 cases, got {}",
        report.cases
    );
}

/// The drifting-load scenario, end to end through the streaming stack:
/// a 1.4× platform drift makes the statically compiled table miss
/// deadlines on half its frames; wiring a `RecalibratingExec` and an
/// `AdaptiveLookupManager` around the same `StreamingRunner` run swaps
/// in a re-estimated table mid-stream and the misses stop.
#[test]
fn drifting_load_static_misses_recalibrated_recovers() {
    let sys = SystemBuilder::new(2)
        .action("a", &[120, 600], &[100, 500])
        .action("b", &[120, 600], &[100, 500])
        .deadline_last(Time::from_ns(1300))
        .build()
        .unwrap();
    let regions = compile_regions(&sys);
    let period = sys.final_deadline();
    const FRAMES: usize = 24;
    let config = StreamConfig::live(4, OverloadPolicy::Block);

    // Static manager over the stale table.
    let mut engine = Engine::new(&sys, LookupManager::new(&regions), OverheadModel::ZERO);
    let mut exec = DriftExec::new(ConstantExec::average(sys.table()), 1.4);
    let static_out = StreamingRunner::new(config).run(
        &mut engine,
        &mut Periodic::new(period, FRAMES),
        &mut exec,
        &mut NullSink,
    );
    assert_eq!(static_out.stats.processed, FRAMES);
    assert!(
        static_out.run.misses >= FRAMES / 2,
        "stale table must keep missing: {} of {FRAMES}",
        static_out.run.misses
    );

    // Same runner, same drift — recalibrating pair. The swap happens
    // while `StreamingRunner::run` is in flight and takes effect at the
    // next cycle boundary.
    let cell = TableCell::new(regions.clone());
    let mut engine = Engine::new(&sys, AdaptiveLookupManager::new(&cell), OverheadModel::ZERO);
    let mut exec = RecalibratingExec::new(
        DriftExec::new(ConstantExec::average(sys.table()), 1.4),
        &sys,
        &cell,
        RecalibrationConfig {
            warmup_cycles: 2,
            every_cycles: 4,
            wc_margin_permille: 200,
        },
    );
    let out = StreamingRunner::new(config).run(
        &mut engine,
        &mut Periodic::new(period, FRAMES),
        &mut exec,
        &mut NullSink,
    );
    assert_eq!(out.stats.processed, FRAMES, "no frame lost to the swap");
    assert!(
        exec.recalibrations() >= 1,
        "table must have been republished"
    );
    assert_eq!(exec.failures(), 0);
    assert!(cell.epoch() >= 1);
    assert!(
        out.run.misses <= 3 && out.run.misses < static_out.run.misses,
        "recalibrated pair must recover: {} misses vs static {}",
        out.run.misses,
        static_out.run.misses
    );
}

/// Repro plumbing: the formatted block names the oracle, carries the
/// replay seed and prints the whole case literal.
#[test]
fn repro_block_is_self_contained() {
    let case = FuzzCase::generate(99);
    let violation = Violation {
        oracle: "identity",
        detail: "synthetic".to_string(),
    };
    let repro = fuzz::format_repro(&case, &violation);
    assert!(repro.contains("oracle `identity` violated"));
    assert!(repro.contains("run_case(&FuzzCase::generate(99))"));
    assert!(repro.contains("FuzzCase"));
    assert!(repro.contains("scenario"));
}

/// Shrinking preserves case validity: every candidate the minimizer
/// could try still builds a feasible system and passes or fails the
/// oracle without panicking.
#[test]
fn shrunk_cases_stay_well_formed() {
    for seed in 0..12u64 {
        let case = FuzzCase::generate(seed);
        let shrunk = fuzz::minimize(&case);
        // All generated cases pass, so minimize is the identity — but it
        // must never return a case that fails to run.
        assert!(fuzz::run_case(&shrunk).is_ok());
    }
}
