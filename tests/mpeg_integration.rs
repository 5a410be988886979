//! Paper-scale integration: the full §4 pipeline — synthetic encoder →
//! profiling → offline compilation → controlled execution — across crates.

mod common;

use common::run_cycles;
use speed_qm::core::compiler::{compile_regions, compile_relaxation, TableStats};
use speed_qm::core::engine::{CycleChaining, Engine, NullSink};
use speed_qm::core::manager::{LookupManager, NumericManager, RelaxedManager};
use speed_qm::core::policy::MixedPolicy;
use speed_qm::core::relaxation::StepSet;
use speed_qm::core::system::ParameterizedSystem;
use speed_qm::core::time::Time;
use speed_qm::core::trace::Trace;
use speed_qm::mpeg::{metrics, EncoderConfig, MpegEncoder};
use speed_qm::platform::overhead;
use speed_qm::platform::{ProfileConfig, Profiler};

#[test]
fn paper_table_sizes_are_exact() {
    let enc = MpegEncoder::new(EncoderConfig::paper(1)).unwrap();
    let regions = compile_regions(enc.system());
    let relaxation = compile_relaxation(enc.system(), &regions, StepSet::paper_mpeg());
    assert_eq!(TableStats::of_regions(&regions).integers, 8_323);
    assert_eq!(TableStats::of_relaxation(&relaxation).integers, 99_876);
}

#[test]
fn three_managers_reproduce_section_4_2_ordering() {
    let enc = MpegEncoder::new(EncoderConfig::paper(5)).unwrap();
    let sys = enc.system();
    let period = enc.config().frame_period;
    let policy = MixedPolicy::new(sys);
    let regions = compile_regions(sys);
    let relaxation = compile_relaxation(sys, &regions, StepSet::paper_mpeg());

    let numeric = run_cycles(
        sys,
        NumericManager::new(sys, &policy),
        overhead::numeric(),
        period,
        3,
        &mut enc.exec(0.12, 3),
    );
    let lookup = run_cycles(
        sys,
        LookupManager::new(&regions),
        overhead::regions(),
        period,
        3,
        &mut enc.exec(0.12, 3),
    );
    let relaxed = run_cycles(
        sys,
        RelaxedManager::new(&regions, &relaxation),
        overhead::relaxation(),
        period,
        3,
        &mut enc.exec(0.12, 3),
    );

    let [n_run, l_run, r_run] = [&numeric, &lookup, &relaxed].map(|t| t.run_summary());

    // Safety everywhere.
    assert_eq!(n_run.misses, 0);
    assert_eq!(l_run.misses, 0);
    assert_eq!(r_run.misses, 0);

    // §4.2 overhead ordering, with the paper's rough magnitudes.
    let n = n_run.overhead_ratio() * 100.0;
    let l = l_run.overhead_ratio() * 100.0;
    let r = r_run.overhead_ratio() * 100.0;
    assert!((3.0..12.0).contains(&n), "numeric ≈ 5.7 %, got {n:.2}");
    assert!((1.0..3.5).contains(&l), "regions ≈ 1.9 %, got {l:.2}");
    assert!(r < l, "relaxation {r:.2} < regions {l:.2}");

    // Fig. 7 ordering: symbolic at least matches numeric quality.
    assert!(l_run.avg_quality() >= n_run.avg_quality());
    assert!(r_run.avg_quality() >= n_run.avg_quality());

    // Video quality follows the same ordering (within a small epsilon, as
    // PSNR saturates).
    let psnr = |t: &Trace| {
        let s = metrics::video_quality_series(&enc, t);
        s.iter().sum::<f64>() / s.len() as f64
    };
    assert!(psnr(&relaxed) >= psnr(&numeric) - 0.05);
}

#[test]
fn profiled_tables_control_the_encoder_safely() {
    // Estimate Cav/Cwc by profiling the encoder's execution source (the
    // paper's §4.1 methodology), rebuild a system from the estimates, and
    // verify the controlled run holds its deadlines.
    let enc = MpegEncoder::new(EncoderConfig::tiny(9)).unwrap();
    let sys = enc.system();
    let mut profiling_exec = enc.exec(0.15, 77);
    let estimated = Profiler::new(ProfileConfig {
        samples: 48,
        wc_margin_permille: 400,
    })
    .profile(sys.n_actions(), sys.qualities(), &mut profiling_exec)
    .unwrap();
    let est_sys =
        ParameterizedSystem::new(sys.actions().to_vec(), estimated, sys.deadlines().clone())
            .expect("estimated tables remain feasible");

    let policy = MixedPolicy::new(&est_sys);
    // Fresh content seed — the estimates must generalize.
    let mut exec = enc.exec(0.15, 1234);
    let run = Engine::new(
        &est_sys,
        NumericManager::new(&est_sys, &policy),
        overhead::numeric(),
    )
    .run_cycles(
        6,
        enc.config().frame_period,
        CycleChaining::WorkConserving,
        &mut exec,
        &mut NullSink,
    );
    assert_eq!(run.misses, 0, "profiled tables must keep the run safe");
    assert!(run.avg_quality() > 0.0);
}

#[test]
fn arrival_clamped_mode_also_safe() {
    let enc = MpegEncoder::new(EncoderConfig::tiny(4)).unwrap();
    let sys = enc.system();
    let policy = MixedPolicy::new(sys);
    let mut exec = enc.exec(0.15, 8);
    let mut trace = Trace::default();
    let run = Engine::new(sys, NumericManager::new(sys, &policy), overhead::numeric()).run_cycles(
        6,
        enc.config().frame_period,
        CycleChaining::ArrivalClamped,
        &mut exec,
        &mut trace,
    );
    assert_eq!(run.misses, 0);
    for c in &trace.cycles {
        assert!(
            c.start >= Time::ZERO,
            "live-capture cycles never start early"
        );
    }
}

#[test]
fn relaxation_reduces_calls_at_paper_scale() {
    let enc = MpegEncoder::new(EncoderConfig::paper(5)).unwrap();
    let sys = enc.system();
    let regions = compile_regions(sys);
    let relaxation = compile_relaxation(sys, &regions, StepSet::paper_mpeg());
    let mut exec = enc.exec(0.12, 3);
    let run = Engine::new(
        sys,
        RelaxedManager::new(&regions, &relaxation),
        overhead::relaxation(),
    )
    .run_cycles(
        2,
        enc.config().frame_period,
        CycleChaining::WorkConserving,
        &mut exec,
        &mut NullSink,
    );
    let (actions, calls) = (run.actions, run.qm_calls);
    assert!(
        calls * 3 < actions * 2,
        "relaxation should skip a third of calls or more: {calls}/{actions}"
    );
}

/// §4.2's shape claims on `table_overhead`'s configuration (29 frames of
/// the paper encoder, seed 2024, jitter 0.12, execution seed 7). The paper
/// reports overheads of 5.7 % (numeric), 1.9 % (quality regions) and
/// < 1.1 % (control relaxation): numeric/regions = 3.0× and
/// regions/relaxation > 1.7×. This reproduction reads 5.99 %, 1.88 % and
/// 1.18 %: numeric/regions is 3.18×, but relaxation misses < 1.1 % and
/// regions/relaxation is 1.60×, short of > 1.7×. The run is virtual-time
/// and deterministic, so the tolerance (±0.02 on each figure) only absorbs
/// float rounding: a change to the calibrated overheads or to the
/// managers' decisions shows here, and closing the gap means updating the
/// pins.
#[test]
fn section_4_2_overhead_ratios_are_pinned() {
    let experiment = sqm_bench::PaperExperiment::new(2024);
    let results = sqm_bench::run_paper_experiment(&experiment, 29, 0.12, 7);
    let [numeric, regions, relaxation] = [0, 1, 2].map(|i| results[i].overhead_percent());
    for (figure, got, pinned) in [
        ("numeric/regions", numeric / regions, 3.18),
        ("regions/relaxation", regions / relaxation, 1.60),
        ("relaxation overhead %", relaxation, 1.18),
    ] {
        assert!(
            (got - pinned).abs() <= 0.02,
            "{figure} = {got:.3}, pinned {pinned}"
        );
    }
}
