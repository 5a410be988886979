//! Golden-trace regression corpus: small seeded engine traces pinned as
//! text snapshots under `tests/golden/`.
//!
//! The conformance suite proves the execution paths agree *with each
//! other*; this suite pins them against **recorded engine output**, so a
//! refactor that changes behaviour on every path at once (and would slip
//! through self-consistency checks) still trips a diff. One snapshot per
//! workload × chaining mode, 3 cycles each, regions manager, jitter 0.1,
//! seed 11.
//!
//! After an intentional engine change, regenerate with
//! `BLESS=1 cargo test --test golden` and review the snapshot diff like
//! any other code change.

mod common;

use common::golden::{assert_matches_golden, trace_to_string};
use speed_qm::core::engine::{CycleChaining, Engine};
use speed_qm::core::manager::LookupManager;
use speed_qm::core::relaxation::StepSet;
use speed_qm::core::time::Time;
use speed_qm::core::trace::Trace;
use speed_qm::mpeg::EncoderConfig;
use speed_qm::platform::faults::{DriftExec, PreemptionExec};
use sqm_bench::{AudioExperiment, InferExperiment, NetExperiment, PaperExperiment, Workload};

const JITTER: f64 = 0.1;
const SEED: u64 = 11;
const CYCLES: usize = 3;

fn check<W: Workload>(w: &W, name: &str) {
    for (chaining, tag) in [
        (CycleChaining::WorkConserving, "wc"),
        (CycleChaining::ArrivalClamped, "ac"),
    ] {
        let mut trace = Trace::default();
        let run = w.run_closed(CYCLES, chaining, JITTER, SEED, &mut trace);
        // Sanity that the snapshot pins a non-trivial run.
        assert_eq!(run.cycles, CYCLES);
        assert!(run.actions > 0);
        assert_matches_golden(&format!("{name}_{tag}.trace"), &trace_to_string(&trace));
    }
}

#[test]
fn mpeg_trace_matches_golden() {
    check(
        &PaperExperiment::with_config_and_rho(
            EncoderConfig::tiny(3),
            StepSet::new(vec![1, 2, 3, 4]).unwrap(),
        ),
        "mpeg",
    );
}

/// Run a fault-wrapped exec over the workload's serial reference engine
/// and pin the trace. Seeded fault scenarios freeze not just the engine
/// loop but the fault wrappers' sampling order — a reordered RNG draw or
/// a changed rounding in `DriftExec` shows up as a diff.
fn check_fault_trace<W: Workload>(
    w: &W,
    exec: &mut impl speed_qm::core::controller::ExecutionTimeSource,
    name: &str,
) {
    let mut trace = Trace::default();
    let run = Engine::new(w.system(), LookupManager::new(w.regions()), w.overhead()).run_cycles(
        CYCLES,
        w.period(),
        CycleChaining::WorkConserving,
        exec,
        &mut trace,
    );
    assert_eq!(run.cycles, CYCLES);
    assert!(run.actions > 0);
    assert_matches_golden(&format!("{name}.trace"), &trace_to_string(&trace));
}

fn mpeg_experiment() -> PaperExperiment {
    PaperExperiment::with_config_and_rho(
        EncoderConfig::tiny(3),
        StepSet::new(vec![1, 2, 3, 4]).unwrap(),
    )
}

#[test]
fn audio_trace_matches_golden() {
    check(&AudioExperiment::tiny(3), "audio");
}

#[test]
fn mpeg_drifted_trace_matches_golden() {
    // A platform running 25 % slower than profiled: still inside most
    // worst cases, but late enough to push decisions down-quality.
    let w = mpeg_experiment();
    let mut exec = DriftExec::new(w.exec_source(JITTER, SEED), 1.25);
    check_fault_trace(&w, &mut exec, "mpeg_drift");
}

#[test]
fn mpeg_preemption_burst_trace_matches_golden() {
    // A heavy preemption burst: 35 % of actions lose up to 200 ns to an
    // interrupt, unbounded by Cwc.
    let w = mpeg_experiment();
    let mut exec = PreemptionExec::new(w.exec_source(JITTER, SEED), 0.35, Time::from_ns(200), SEED);
    check_fault_trace(&w, &mut exec, "mpeg_preempt");
}

#[test]
fn net_trace_matches_golden() {
    check(&NetExperiment::tiny(3), "net");
}

#[test]
fn infer_trace_matches_golden() {
    check(&InferExperiment::tiny(3), "infer");
}

/// The serving regime end to end: bursty arrivals through the
/// live-clamped streaming front-end with drop-newest admission. This
/// pins the batch-coupled execution state *through* the queue — backlog
/// clamping changes cycle starts, and a decode's coupled time depends on
/// the admissions replayed before it, so a scheduling change anywhere in
/// the front-end shows up as a trace diff.
#[test]
fn infer_burst_trace_matches_golden() {
    use speed_qm::core::source::Bursty;

    let w = InferExperiment::tiny(3);
    let mut trace = Trace::default();
    let out = w.run_streaming(
        w.serve_config(4),
        &mut Bursty::new(w.period(), 4, 6, SEED),
        JITTER,
        SEED,
        &mut trace,
    );
    assert_eq!(out.stats.arrived, 6);
    assert_eq!(out.stats.processed, trace.cycles.len());
    assert_matches_golden("infer_burst.trace", &trace_to_string(&trace));
}

/// Controller-on traces under drifting load. The snapshot pins not just
/// the engine loop but the whole control stack's timing: payoff
/// normalization, the running-average projection, the argmax tie-break
/// and the cycle-boundary steering seam. A changed rung switch — one
/// cycle earlier or later, or to a different rung — moves every
/// subsequent decision and shows up as a diff.
fn check_control_trace(shape: sqm_bench::DriftShape, cycles: usize, name: &str) {
    use speed_qm::core::control::{
        standard_slate, ApproachabilityController, ControlSink, ControlledManager, PayoffCell,
        PayoffSpec,
    };
    use speed_qm::core::engine::Tee;
    use sqm_bench::control::{matrix_safe_set, violating_peak_permille};
    use sqm_bench::ShapedExec;

    let w = mpeg_experiment();
    let peak = violating_peak_permille(&w);
    let mut exec = ShapedExec::new(
        w.exec_source(JITTER, SEED),
        shape.factors(cycles, peak, SEED),
    );
    let cell = PayoffCell::new();
    let spec = PayoffSpec::for_system(w.system()).with_period(w.period());
    let manager = ControlledManager::new(
        standard_slate(w.regions(), &[], w.system().qualities().max()),
        ApproachabilityController::new(matrix_safe_set()),
    )
    .with_feed(&cell);
    let mut engine = Engine::new(w.system(), manager, w.overhead());
    let mut trace = Trace::default();
    let mut control = ControlSink::new(&cell, spec);
    let run = engine.run_cycles(
        cycles,
        w.period(),
        CycleChaining::ArrivalClamped,
        &mut exec,
        &mut Tee(&mut trace, &mut control),
    );
    assert_eq!(run.cycles, cycles);
    assert!(
        engine.manager().rung_switches() >= 1,
        "snapshot must pin actual steering, not a quiet run"
    );
    assert_matches_golden(&format!("{name}.trace"), &trace_to_string(&trace));
}

#[test]
fn control_step_trace_matches_golden() {
    check_control_trace(sqm_bench::DriftShape::Step, 12, "control_step");
}

#[test]
fn control_walk_trace_matches_golden() {
    check_control_trace(sqm_bench::DriftShape::RandomWalk, 24, "control_walk");
}

/// The binary artifact is pinned byte-for-byte (as hex): header fields,
/// payload order and checksum are all part of the wire contract, so any
/// byte change — even a behaviorally invisible one — must be reviewed and
/// blessed like an engine change.
#[test]
fn artifact_bytes_match_golden() {
    use speed_qm::core::artifact::Artifact;
    use speed_qm::core::compiler::{compile_regions, compile_relaxation};
    use speed_qm::core::system::SystemBuilder;

    let sys = SystemBuilder::new(3)
        .action("a", &[10, 25, 40], &[4, 9, 14])
        .action("b", &[12, 22, 35], &[6, 11, 17])
        .deadline_last(Time::from_ns(90))
        .build()
        .unwrap();
    let regions = compile_regions(&sys);
    let relaxation = compile_relaxation(&sys, &regions, StepSet::new(vec![1, 2]).unwrap());
    let bytes = Artifact::encode(&regions, Some(&relaxation));

    let mut hex = String::with_capacity(bytes.len() * 3);
    for chunk in bytes.chunks(32) {
        for b in chunk {
            hex.push_str(&format!("{b:02x}"));
        }
        hex.push('\n');
    }
    assert_matches_golden("artifact.hex", &hex);
}
