//! Safety (Definition 3's first requirement), property-tested: under any
//! actual-time function `C ≤ Cwc`, the mixed and safe policies never miss
//! a deadline — including the adversarial all-worst-case run and abrupt
//! load changes. The average policy has no such guarantee, and a witness
//! system demonstrates it missing.

mod common;

use common::{arb_system, fraction_exec, run_cycle, run_cycles};
use proptest::prelude::*;
use speed_qm::core::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// No deadline miss under sampled admissible execution times.
    #[test]
    fn mixed_policy_is_safe(arb in arb_system()) {
        let sys = &arb.system;
        let policy = MixedPolicy::new(sys);
        let mut exec = FnExec(fraction_exec(sys, &arb.fractions));
        let summary = run_cycle(sys, NumericManager::new(sys, &policy), &mut exec).summary();
        prop_assert_eq!(summary.misses, 0);
        prop_assert_eq!(summary.infeasible, 0, "a safe run never leaves all regions");
    }

    /// No miss even when *every* action takes exactly its worst case.
    #[test]
    fn mixed_policy_survives_all_worst_case(arb in arb_system()) {
        let sys = &arb.system;
        let policy = MixedPolicy::new(sys);
        let mut exec = ConstantExec::worst_case(sys.table());
        let trace = run_cycle(sys, NumericManager::new(sys, &policy), &mut exec);
        prop_assert_eq!(trace.summary().misses, 0);
    }

    /// The safe (worst-case) policy is safe too.
    #[test]
    fn safe_policy_is_safe(arb in arb_system()) {
        let sys = &arb.system;
        let policy = SafePolicy::new(sys);
        let mut exec = FnExec(fraction_exec(sys, &arb.fractions));
        let trace = run_cycle(sys, NumericManager::new(sys, &policy), &mut exec);
        prop_assert_eq!(trace.summary().misses, 0);
    }

    /// Abrupt load change mid-cycle: first half at zero cost, second half
    /// at full worst case. The manager must absorb the swing.
    #[test]
    fn mixed_policy_survives_load_step(arb in arb_system()) {
        let sys = &arb.system;
        let n = sys.n_actions();
        let policy = MixedPolicy::new(sys);
        let table = sys.table();
        let mut exec = FnExec(move |_c, a: usize, q| {
            if a < n / 2 { Time::ZERO } else { table.wc(a, q) }
        });
        let trace = run_cycle(sys, NumericManager::new(sys, &policy), &mut exec);
        prop_assert_eq!(trace.summary().misses, 0);
    }

    /// Safety persists across cycles with carry-over.
    #[test]
    fn cyclic_runs_are_safe(arb in arb_system()) {
        let sys = &arb.system;
        let policy = MixedPolicy::new(sys);
        let trace = run_cycles(
            sys,
            NumericManager::new(sys, &policy),
            OverheadModel::ZERO,
            sys.final_deadline(),
            4,
            &mut ConstantExec::worst_case(sys.table()),
        );
        prop_assert_eq!(trace.run_summary().misses, 0);
    }
}

/// A concrete witness that the average policy is *not* safe: averages far
/// below worst case lure it into high quality, then actual times run at
/// the worst case and the deadline falls.
#[test]
fn average_policy_misses_on_adversarial_times() {
    let sys = SystemBuilder::new(2)
        .action("a", &[100, 1_000], &[10, 20])
        .action("b", &[100, 1_000], &[10, 20])
        .deadline_last(Time::from_ns(1_200))
        .build()
        .unwrap();
    let avg = AveragePolicy::new(&sys);
    let mut exec = ConstantExec::worst_case(sys.table());
    let trace = run_cycle(&sys, NumericManager::new(&sys, &avg), &mut exec);
    assert!(
        trace.summary().misses > 0,
        "the average policy chose quality 1 (worst case 1000 each) against a 1200 budget"
    );

    // The mixed policy on the same system and the same adversarial times
    // stays safe.
    let mixed = MixedPolicy::new(&sys);
    let trace = run_cycle(&sys, NumericManager::new(&sys, &mixed), &mut exec);
    assert_eq!(trace.summary().misses, 0);
}

/// When the worst-case contract itself is violated, misses become possible
/// — and the controller reports them instead of hiding them.
#[test]
fn contract_violation_is_detected_not_masked() {
    let sys = SystemBuilder::new(2)
        .action("a", &[100, 200], &[50, 100])
        .action("b", &[100, 200], &[50, 100])
        .deadline_last(Time::from_ns(450))
        .build()
        .unwrap();
    let policy = MixedPolicy::new(&sys);
    let mut exec = FnExec(|_c, _a, _q| Time::from_ns(300)); // 3× the declared wc at q0
    let trace = run_cycle(&sys, NumericManager::new(&sys, &policy), &mut exec);
    assert!(trace.summary().misses > 0);
}
