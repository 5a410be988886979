//! The decision core's hint-resuming search against the top-down
//! reference scans.
//!
//! The table-level incremental searches (`choose_from` /
//! `choose_relaxation_from`) must make **exactly** the choices of the
//! scans and charge **exactly** the analytic probe count — over arbitrary
//! feasible systems, from *every* possible hint, including exact
//! region-boundary times (`t = tD(s, q)` and ±1 ns) and the infeasible
//! tail beyond `tD(s, qmin)`. Engine-level, every decision a
//! table-driven manager makes in a run must re-derive from the scans.

mod common;

use common::{arb_system, cycle_fraction_exec, ArbSystem, OVERHEAD};
use proptest::prelude::*;
use speed_qm::core::compiler::{compile_regions, compile_relaxation};
use speed_qm::core::prelude::*;
use speed_qm::core::trace::Trace;
use sqm_bench::fuzz::{rederive_decisions, unclocked};

/// Decision times that exercise every structural case at `state`: each
/// region boundary exactly, one below, one above, far past (infeasible
/// tail), far early, and the relaxation bounds too.
fn probe_times(regions: &QualityRegionTable, relax: &RelaxationTable, state: usize) -> Vec<Time> {
    let mut times = vec![
        Time::from_ns(-1_000_000),
        Time::ZERO,
        regions.t_d(state, Quality::MIN) + Time::from_ns(1_000_000),
    ];
    for q in regions.qualities().iter() {
        let b = regions.t_d(state, q);
        for delta in [-1i64, 0, 1] {
            times.push(b + Time::from_ns(delta));
        }
        for ri in 0..relax.rho().len() {
            let (lo, up) = relax.bounds(state, q, ri);
            for t in [lo, up] {
                if !t.is_infinite() {
                    for delta in [-1i64, 0, 1] {
                        times.push(t + Time::from_ns(delta));
                    }
                }
            }
        }
    }
    times
}

/// Run `cycles` cycles of the generated system under `manager`,
/// recording every action.
fn record<M: QualityManager>(
    arb: &ArbSystem,
    manager: M,
    cycles: usize,
    chaining: CycleChaining,
) -> Trace {
    let sys = &arb.system;
    let mut trace = Trace::default();
    Engine::new(sys, manager, OVERHEAD).run_cycles(
        cycles,
        sys.final_deadline(),
        chaining,
        &mut cycle_fraction_exec(sys, &arb.fractions),
        &mut trace,
    );
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Table-level: `choose_from` ≡ `choose` (same quality, same analytic
    /// work) from every hint, and `choose_relaxation_from` ≡
    /// `choose_relaxation` from every hint — at region boundaries, ±1 ns
    /// around them, and in the infeasible tail.
    #[test]
    fn incremental_search_equals_naive_scan(arb in arb_system()) {
        let sys = &arb.system;
        let regions = compile_regions(sys);
        let n = sys.n_actions();
        let rho = StepSet::new((1..=n.min(3)).collect()).unwrap();
        let relax = compile_relaxation(sys, &regions, rho);
        for state in 0..n {
            for t in probe_times(&regions, &relax, state) {
                let (naive, probes) = regions.choose(state, t);
                prop_assert_eq!(regions.scan_work(naive), probes);
                for hint in sys.qualities().iter() {
                    prop_assert_eq!(
                        regions.choose_from(state, t, hint),
                        naive,
                        "state {} t {:?} hint {}", state, t, hint
                    );
                }
                if let Some(q) = naive {
                    let (r, r_probes) = relax.choose_relaxation(state, t, q);
                    for hint in 0..relax.rho().len() {
                        let found = relax.choose_relaxation_from(state, t, q, hint);
                        prop_assert_eq!(
                            found.map_or(1, |ri| relax.rho().steps()[ri]),
                            r,
                            "state {} t {:?} hint {}", state, t, hint
                        );
                        prop_assert_eq!(relax.scan_work(found), r_probes);
                    }
                }
            }
        }
    }

    /// Engine-level: every decided record of a run under the lookup,
    /// relaxed and adaptive managers re-derives from the reference scans
    /// — quality, infeasibility, charged work and hold — for both
    /// chaining variants.
    #[test]
    fn managers_rederive_from_scan_oracle(arb in arb_system(), cycles in 1usize..5) {
        let sys = &arb.system;
        let regions = compile_regions(sys);
        let n = sys.n_actions();
        let rho = StepSet::new((1..=n.min(3)).collect()).unwrap();
        let relax = compile_relaxation(sys, &regions, rho);
        let cell = TableCell::new(regions.clone());
        for chaining in [CycleChaining::WorkConserving, CycleChaining::ArrivalClamped] {
            let traces = [
                (record(&arb, LookupManager::new(&regions), cycles, chaining), None),
                (record(&arb, RelaxedManager::new(&regions, &relax), cycles, chaining), Some(&relax)),
                (record(&arb, AdaptiveLookupManager::new(&cell), cycles, chaining), None),
            ];
            for (trace, relaxation) in &traces {
                prop_assert_eq!(trace.cycles.len(), cycles);
                for cycle in &trace.cycles {
                    let rederived =
                        rederive_decisions(&cycle.records, &regions, *relaxation, unclocked);
                    prop_assert!(rederived.is_ok(), "{:?}: {:?}", chaining, rederived);
                }
            }
        }
    }

    /// The summary-only engine path (`NullSink`, record construction
    /// compiled out) agrees byte-for-byte with the recording path's
    /// summary — the `WANTS_RECORDS` specialization must not change any
    /// aggregate.
    #[test]
    fn null_sink_summary_equals_recording_summary(arb in arb_system(), cycles in 1usize..5) {
        let sys = &arb.system;
        let regions = compile_regions(sys);
        let period = sys.final_deadline();
        for chaining in [CycleChaining::WorkConserving, CycleChaining::ArrivalClamped] {
            let recorded = {
                let mut trace = Trace::default();
                Engine::new(sys, LookupManager::new(&regions), OVERHEAD).run_cycles(
                    cycles,
                    period,
                    chaining,
                    &mut cycle_fraction_exec(sys, &arb.fractions),
                    &mut trace,
                )
            };
            let null = Engine::new(sys, LookupManager::new(&regions), OVERHEAD).run_cycles(
                cycles,
                period,
                chaining,
                &mut cycle_fraction_exec(sys, &arb.fractions),
                &mut NullSink,
            );
            prop_assert_eq!(recorded, null, "{:?}", chaining);
        }
    }
}
