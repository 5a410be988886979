//! Robustness under platform imperfections: preemption, drift, quantized
//! clocks, and violated worst-case contracts — which faults the method
//! absorbs for free, and which must be paid for by inflating `Cwc`
//! ("adequately overestimate average and worst-case execution times",
//! §2.2.2).

mod common;

use common::run_cycles;
use speed_qm::core::analysis;
use speed_qm::core::controller::{ExecutionTimeSource, OverheadModel};
use speed_qm::core::manager::{NumericManager, QualityManager};
use speed_qm::core::policy::MixedPolicy;
use speed_qm::core::system::ParameterizedSystem;
use speed_qm::core::time::Time;
use speed_qm::mpeg::{EncoderConfig, MpegEncoder};
use speed_qm::platform::clock::RtClock;
use speed_qm::platform::faults::{ClockRounding, ClockedManager, DriftExec, PreemptionExec};

fn inflated_system(enc: &MpegEncoder, permille: i64) -> ParameterizedSystem {
    ParameterizedSystem::new(
        enc.system().actions().to_vec(),
        enc.system().table().inflate_wc_permille(permille),
        enc.system().deadlines().clone(),
    )
    .expect("inflation preserves feasibility here")
}

#[test]
fn preemption_absorbed_by_wc_inflation() {
    let enc = MpegEncoder::new(EncoderConfig::tiny(13)).unwrap();
    // Preemption steals up to 80 µs per action with probability 0.3 —
    // outside the declared worst case. Inflate Cwc by 15 % to cover it.
    let sys = inflated_system(&enc, 150);
    let policy = MixedPolicy::new(&sys);
    let period = enc.config().frame_period;
    let mut exec = PreemptionExec::new(enc.exec(0.1, 21), 0.3, Time::from_us(80), 77);
    let manager = NumericManager::new(&sys, &policy);
    let run = run_cycles(&sys, manager, OverheadModel::ZERO, period, 8, &mut exec).run_summary();
    assert_eq!(run.misses, 0, "inflated margins absorb preemption");
}

#[test]
fn slow_platform_absorbed_when_drift_within_margin() {
    let enc = MpegEncoder::new(EncoderConfig::tiny(13)).unwrap();
    let sys = enc.system();
    let policy = MixedPolicy::new(sys);
    // 25 % slower platform: still below the ~2× worst-case/average gap, so
    // the manager compensates by picking lower qualities — no misses, but
    // measurably lower average quality.
    let period = enc.config().frame_period;
    let run = |exec: &mut dyn ExecutionTimeSource| {
        let manager = NumericManager::new(sys, &policy);
        run_cycles(sys, manager, OverheadModel::ZERO, period, 6, exec).run_summary()
    };
    let clean = run(&mut enc.exec(0.1, 3));
    assert_eq!(clean.misses, 0);
    let drifted = run(&mut DriftExec::new(enc.exec(0.1, 3), 1.25));
    assert_eq!(drifted.misses, 0, "drift within the av/wc gap is absorbed");
    let (clean_quality, drifted_quality) = (clean.avg_quality(), drifted.avg_quality());
    assert!(
        drifted_quality < clean_quality,
        "the slowdown must cost quality: {drifted_quality} vs {clean_quality}"
    );
}

#[test]
fn conservative_clock_quantization_costs_quality_not_safety() {
    let enc = MpegEncoder::new(EncoderConfig::tiny(13)).unwrap();
    let sys = enc.system();
    let policy = MixedPolicy::new(sys);
    // A very coarse 1 ms clock on a 35 ms frame.
    let clock = RtClock::new(Time::from_ms(1), Time::ZERO);
    let period = enc.config().frame_period;
    let run = |manager: &mut dyn QualityManager| {
        run_cycles(
            sys,
            manager,
            OverheadModel::ZERO,
            period,
            8,
            &mut enc.exec(0.1, 3),
        )
        .run_summary()
    };
    let quantized = run(&mut ClockedManager::new(
        NumericManager::new(sys, &policy),
        clock,
        ClockRounding::Up,
        0,
    ));
    assert_eq!(quantized.misses, 0);

    // Against the exact-clock run: quality may only go down.
    let exact = run(&mut NumericManager::new(sys, &policy));
    assert!(quantized.avg_quality() <= exact.avg_quality() + 1e-9);
}

#[test]
fn analysis_predictions_hold_on_the_encoder() {
    let enc = MpegEncoder::new(EncoderConfig::paper(11)).unwrap();
    let sys = enc.system();

    // The sustainable level matches the timing design (§ encoder docs:
    // fits at 4, overruns at 5).
    let sustainable = analysis::sustainable_quality(sys).unwrap();
    assert_eq!(sustainable.index(), 4);

    // Minimal feasible deadline is the qmin worst case, ≈ 722 ms.
    let min_d = analysis::min_feasible_deadline(sys).unwrap();
    assert!((700.0..760.0).contains(&min_d.as_millis_f64()), "{min_d}");

    // The budget/quality curve over deadlines is monotone and brackets the
    // sustainable level at the paper's period.
    let candidates: Vec<Time> = [750i64, 900, 1_034, 1_300, 1_800]
        .map(Time::from_ms)
        .to_vec();
    let sweep = analysis::deadline_sweep(sys, &candidates);
    let values: Vec<f64> = sweep.iter().map(|(_, v)| v.unwrap()).collect();
    for w in values.windows(2) {
        assert!(w[1] >= w[0] - 1e-12);
    }
    let at_paper_period = values[2];
    assert!(
        (3.0..5.5).contains(&at_paper_period),
        "nominal level {at_paper_period}"
    );

    // Nominal utilization is high (optimality) without overrunning.
    let u = analysis::nominal_utilization(sys);
    assert!(u <= 1.0 && u > 0.75, "utilization {u}");
}
