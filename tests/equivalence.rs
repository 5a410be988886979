//! The central claim of the paper's symbolic method, property-tested:
//! the lookup manager (Proposition 2) and the relaxed manager
//! (Proposition 3) realize **exactly** the same controller `Γ` as the
//! online numeric manager — same quality for every action, under every
//! admissible actual-time function — while doing less work.

mod common;

use common::{arb_system, fraction_exec, run_cycle, run_cycles, OVERHEAD};
use proptest::prelude::*;
use speed_qm::core::prelude::*;

fn run_qualities<M: QualityManager>(
    sys: &ParameterizedSystem,
    manager: M,
    fractions: &[f64],
) -> (Vec<usize>, usize, u64) {
    let trace = run_cycle(sys, manager, &mut FnExec(fraction_exec(sys, fractions)));
    let qualities = trace.quality_sequence();
    let calls = trace.records.iter().filter(|r| r.decided).count();
    let work: u64 = trace.records.iter().map(|r| r.qm_work).sum();
    (qualities, calls, work)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Lookup manager ≡ numeric manager, action by action.
    #[test]
    fn lookup_equals_numeric(arb in arb_system()) {
        let sys = &arb.system;
        let policy = MixedPolicy::new(sys);
        let regions = compile_regions(sys);
        let (nq, nc, nw) =
            run_qualities(sys, NumericManager::new(sys, &policy), &arb.fractions);
        let (lq, lc, lw) = run_qualities(sys, LookupManager::new(&regions), &arb.fractions);
        prop_assert_eq!(&nq, &lq, "identical quality traces");
        prop_assert_eq!(nc, lc, "same number of decisions");
        prop_assert!(lw <= nw, "symbolic work never exceeds numeric work");
    }

    /// Relaxed manager ≡ numeric manager, action by action, with fewer or
    /// equal decisions.
    #[test]
    fn relaxed_equals_numeric(arb in arb_system(), steps in proptest::collection::vec(2usize..8, 0..3)) {
        let sys = &arb.system;
        let policy = MixedPolicy::new(sys);
        let regions = compile_regions(sys);
        let mut menu = vec![1usize];
        menu.extend(steps);
        menu.sort_unstable();
        menu.dedup();
        let relaxation = compile_relaxation(sys, &regions, StepSet::new(menu).unwrap());
        let (nq, nc, _) =
            run_qualities(sys, NumericManager::new(sys, &policy), &arb.fractions);
        let (rq, rc, _) =
            run_qualities(sys, RelaxedManager::new(&regions, &relaxation), &arb.fractions);
        prop_assert_eq!(&nq, &rq, "identical quality traces under relaxation");
        prop_assert!(rc <= nc, "relaxation may only reduce decisions");
    }

    /// The manager's choice is maximal: the level above the chosen one
    /// (when it exists) violates the policy at the decision time.
    #[test]
    fn choice_is_maximal(arb in arb_system()) {
        let sys = &arb.system;
        let policy = MixedPolicy::new(sys);
        let mut exec = FnExec(fraction_exec(sys, &arb.fractions));
        let trace = run_cycle(sys, NumericManager::new(sys, &policy), &mut exec);
        let mut t = Time::ZERO;
        for r in &trace.records {
            prop_assert!(policy.t_d(r.action, r.quality) >= t);
            if r.quality != sys.qualities().max() {
                prop_assert!(policy.t_d(r.action, r.quality.up()) < t);
            }
            t = r.end;
        }
    }

    /// The engine's zero-allocation summary path reports exactly the
    /// aggregates of the materialized trace — each cycle's whole
    /// `CycleSummary` and the whole `RunSummary` — for every manager, both
    /// chaining modes and a nonzero overhead model, across randomized
    /// systems.
    #[test]
    fn engine_summary_equals_trace_aggregates(arb in arb_system()) {
        let sys = &arb.system;
        let policy = MixedPolicy::new(sys);
        let regions = compile_regions(sys);
        let relaxation =
            compile_relaxation(sys, &regions, StepSet::new(vec![1, 2, 4]).unwrap());
        for chaining in [CycleChaining::WorkConserving, CycleChaining::ArrivalClamped] {
            let check = |manager: &mut dyn QualityManager| {
                let mut trace = Trace::default();
                let mut per_cycle = PerCycle::default();
                let run = Engine::new(sys, manager, OVERHEAD).run_cycles(
                    3,
                    sys.final_deadline(),
                    chaining,
                    &mut FnExec(fraction_exec(sys, &arb.fractions)),
                    &mut Tee(&mut trace, &mut per_cycle),
                );
                let folded: Vec<CycleSummary> = trace.cycles.iter().map(CycleTrace::summary).collect();
                assert_eq!(per_cycle.0, folded, "{chaining:?}");
                assert_eq!(run, trace.run_summary(), "{chaining:?}");
            };
            check(&mut NumericManager::new(sys, &policy));
            check(&mut LookupManager::new(&regions));
            check(&mut RelaxedManager::new(&regions, &relaxation));
        }
    }

    /// Under constant-average execution, all three managers agree with the
    /// same trace across *cycles* too: work-conserving carry-over and the
    /// engine's per-cycle `reset` do not break equivalence.
    #[test]
    fn cyclic_equivalence(arb in arb_system()) {
        let sys = &arb.system;
        let policy = MixedPolicy::new(sys);
        let regions = compile_regions(sys);
        let period = sys.final_deadline();
        let relaxation =
            compile_relaxation(sys, &regions, StepSet::new(vec![1, 2, 4]).unwrap());
        let run = |manager: &mut dyn QualityManager| -> Vec<usize> {
            let mut exec = ConstantExec::average(sys.table());
            let trace = run_cycles(sys, manager, OverheadModel::ZERO, period, 3, &mut exec);
            trace.cycles.iter().flat_map(|c| c.quality_sequence()).collect()
        };
        let n = run(&mut NumericManager::new(sys, &policy));
        let l = run(&mut LookupManager::new(&regions));
        let r = run(&mut RelaxedManager::new(&regions, &relaxation));
        prop_assert_eq!(&n, &l);
        prop_assert_eq!(&n, &r);
    }
}

/// Collects the engine's per-cycle summaries.
#[derive(Default)]
struct PerCycle(Vec<CycleSummary>);

impl TraceSink for PerCycle {
    const WANTS_RECORDS: bool = false;

    fn end_cycle(&mut self, summary: &CycleSummary) {
        self.0.push(*summary);
    }
}
