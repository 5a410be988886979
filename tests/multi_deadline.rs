//! Multi-deadline coverage at scale: the paper's MPEG experiment uses a
//! single global deadline per cycle, but the formalism (Definition 3,
//! `tD = min over all constrained k`) supports arbitrary deadline maps.
//! These tests exercise that general path on a 1,189-action system with a
//! deadline every 100 actions (e.g. a slice-structured encoder delivering
//! rows of macroblocks to a network stack on a schedule).

mod common;

use common::{fraction_exec, run_cycle};
use speed_qm::core::action::{ActionInfo, DeadlineMap};
use speed_qm::core::prelude::*;
use speed_qm::core::system::ParameterizedSystem;
use speed_qm::core::timing::TimeTableBuilder;

/// A 1,189-action system with a deadline after every `stride` actions.
fn sliced_system(stride: usize) -> ParameterizedSystem {
    let n = 1_189;
    let nq = 7;
    let mut actions = Vec::with_capacity(n);
    let mut table = TimeTableBuilder::new();
    for i in 0..n {
        actions.push(ActionInfo::named(format!("a{i}")));
        let bump = (i % 11) as i64 * 2_000;
        let av: Vec<Time> = (0..nq)
            .map(|q| Time::from_ns(292_000 + 133_000 * q as i64 + bump))
            .collect();
        let wc: Vec<Time> = av.iter().map(|t| Time::from_ns(t.as_ns() * 2)).collect();
        table.push_action(&wc, &av);
    }
    let mut deadlines = DeadlineMap::new(n);
    // A deadline every `stride` actions, paced for the qmin worst case of
    // the prefix plus proportional slack.
    let per_action_budget = 900_000i64; // > wc(qmin) ≈ 584–628k
    for k in (stride - 1..n).step_by(stride) {
        deadlines.set(k, Time::from_ns((k as i64 + 1) * per_action_budget));
    }
    deadlines.set(n - 1, Time::from_ns(n as i64 * per_action_budget));
    ParameterizedSystem::new(actions, table.build().unwrap(), deadlines).unwrap()
}

#[test]
fn sliced_system_is_safe_under_worst_case() {
    let sys = sliced_system(100);
    assert!(sys.deadlines().constrained_count() >= 12);
    let policy = MixedPolicy::new(&sys);
    let mut exec = ConstantExec::worst_case(sys.table());
    let trace = run_cycle(&sys, NumericManager::new(&sys, &policy), &mut exec);
    assert_eq!(trace.summary().misses, 0);
}

#[test]
fn sliced_symbolic_equals_numeric_at_scale() {
    let sys = sliced_system(100);
    let policy = MixedPolicy::new(&sys);
    let regions = compile_regions(&sys);
    let relaxation = compile_relaxation(&sys, &regions, StepSet::new(vec![1, 5, 10, 25]).unwrap());

    let fractions: Vec<f64> = (0..sys.n_actions())
        .map(|i| 0.3 + 0.5 * ((i * 7919) % 100) as f64 / 100.0)
        .collect();

    let run = |manager: &mut dyn QualityManager| -> Vec<usize> {
        let mut exec = FnExec(fraction_exec(&sys, &fractions));
        run_cycle(&sys, manager, &mut exec).quality_sequence()
    };

    let numeric = run(&mut NumericManager::new(&sys, &policy));
    let lookup = run(&mut LookupManager::new(&regions));
    let relaxed = run(&mut RelaxedManager::new(&regions, &relaxation));
    assert_eq!(numeric, lookup);
    assert_eq!(numeric, relaxed);
    // The intermediate deadlines bite: quality should dip near slice
    // boundaries relative to the slice interior on at least one slice.
    assert!(numeric.iter().max().unwrap() > numeric.iter().min().unwrap());
}

#[test]
fn tighter_slicing_costs_quality() {
    // More frequent intermediate deadlines remove averaging room: the
    // nominal quality with 50-action slices cannot exceed the one with
    // 400-action slices.
    use speed_qm::core::analysis::nominal_average_quality;
    let fine = nominal_average_quality(&sliced_system(50));
    let coarse = nominal_average_quality(&sliced_system(400));
    assert!(
        fine <= coarse + 1e-9,
        "finer slicing should not increase nominal quality: {fine} vs {coarse}"
    );
}
