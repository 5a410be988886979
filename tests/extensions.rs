//! Integration tests for the paper-conclusion extensions: multi-task
//! composition, linear region approximation, and DVFS power management.

mod common;

use common::run_cycle;
use speed_qm::core::approx::ApproxRegionTable;
use speed_qm::core::compiler::compile_regions;
use speed_qm::core::controller::ConstantExec;
use speed_qm::core::manager::{NumericManager, QualityManager};
use speed_qm::core::multi::interleave;
use speed_qm::core::policy::MixedPolicy;
use speed_qm::core::system::SystemBuilder;
use speed_qm::core::time::Time;
use speed_qm::power::{CycleExec, DvfsTask, EnergyModel, FrequencyLadder};

fn task(n: usize, wc: i64, deadline_ns: i64) -> speed_qm::core::system::ParameterizedSystem {
    let mut b = SystemBuilder::new(3);
    for i in 0..n {
        b = b.action(
            &format!("a{i}"),
            &[wc, wc * 2, wc * 3],
            &[wc / 2, wc, wc * 3 / 2],
        );
    }
    b.deadline_last(Time::from_ns(deadline_ns)).build().unwrap()
}

#[test]
fn interleaved_tasks_respect_both_deadline_sets() {
    let fast = task(6, 50, 900);
    let slow = task(3, 200, 1_800);
    let merged = interleave(&[&fast, &slow], &[0, 0, 1]).unwrap();
    assert_eq!(merged.system.n_actions(), 9);

    let policy = MixedPolicy::new(&merged.system);
    let trace = run_cycle(
        &merged.system,
        NumericManager::new(&merged.system, &policy),
        &mut ConstantExec::worst_case(merged.system.table()),
    );
    assert_eq!(trace.summary().misses, 0);

    // Provenance partitions the merged index space.
    let mut seen = vec![false; merged.system.n_actions()];
    for t in 0..2 {
        for i in merged.actions_of(t) {
            assert!(!seen[i]);
            seen[i] = true;
        }
    }
    assert!(seen.iter().all(|&b| b));
}

#[test]
fn approx_table_never_exceeds_exact_choice() {
    let sys = task(40, 100, 14_000);
    let exact = compile_regions(&sys);
    for tol in [0i64, 20, 150, 2_000] {
        let approx = ApproxRegionTable::compress(&exact, Time::from_ns(tol));
        for state in 0..sys.n_actions() {
            for t_ns in (-200..12_000).step_by(431) {
                let t = Time::from_ns(t_ns);
                let (a, _) = approx.choose(state, t);
                let (e, _) = exact.choose(state, t);
                match (a, e) {
                    (Some(qa), Some(qe)) => assert!(qa <= qe, "tol {tol}"),
                    (Some(_), None) => panic!("approx admitted an infeasible state"),
                    _ => {}
                }
            }
        }
    }
}

#[test]
fn dvfs_pipeline_end_to_end() {
    let ladder = FrequencyLadder::new(vec![800, 600, 400, 200]).unwrap();
    let task = DvfsTask::synthetic(30, Time::from_ms(80));
    let sys = task.to_system(&ladder).unwrap();
    let policy = MixedPolicy::new(&sys);

    // Also exercise the symbolic manager on the DVFS system: regions and
    // relaxation apply unchanged.
    let regions = compile_regions(&sys);
    let mut lookup = speed_qm::core::manager::LookupManager::new(&regions);
    let mut numeric = NumericManager::new(&sys, &policy);
    for state in 0..sys.n_actions() {
        for t_ns in (0..60_000_000).step_by(7_777_777) {
            let t = Time::from_ns(t_ns);
            assert_eq!(
                numeric.decide(state, t).quality,
                lookup.decide(state, t).quality
            );
        }
    }

    let mut exec = CycleExec::new(&task, &ladder, 0.2, 99);
    let trace = run_cycle(&sys, NumericManager::new(&sys, &policy), &mut exec);
    assert_eq!(trace.summary().misses, 0);

    let model = EnergyModel::default();
    let managed = model.cycle_energy_nj(&ladder, &exec.consumed, &trace, Time::from_ms(80));
    let baseline = model.baseline_energy_nj(&ladder, &exec, Time::from_ms(80));
    assert!(
        managed < baseline,
        "DVFS must save energy: {managed} vs {baseline}"
    );
}

#[test]
fn merged_system_quality_degrades_around_tight_deadline() {
    // A tight intermediate deadline from one task forces the shared
    // manager to lower quality for *everyone* before it, then recover.
    let light = task(8, 50, 4_000);
    let mut tight = SystemBuilder::new(3);
    for i in 0..2 {
        tight = tight.action(&format!("t{i}"), &[400, 800, 1_200], &[200, 400, 600]);
    }
    let tight = tight
        .deadline(0, Time::from_ns(700))
        .deadline_last(Time::from_ns(3_500))
        .build()
        .unwrap();
    let merged = interleave(&[&light, &tight], &[0, 1, 0, 0, 0]).unwrap();
    let policy = MixedPolicy::new(&merged.system);
    let trace = run_cycle(
        &merged.system,
        NumericManager::new(&merged.system, &policy),
        &mut ConstantExec::average(merged.system.table()),
    );
    assert_eq!(trace.summary().misses, 0);
    let qs = trace.quality_sequence();
    let before_deadline_max = qs[..2].iter().max().unwrap();
    let after_deadline_max = qs[2..].iter().max().unwrap();
    assert!(
        after_deadline_max >= before_deadline_max,
        "quality should recover after the tight deadline: {qs:?}"
    );
}
