//! The paper's three propositions, property-tested against brute-force
//! evaluations of their definitions, and the decision core's
//! hint-resuming search against the top-down reference scans.
//!
//! The table-level incremental searches (`choose_from` /
//! `choose_relaxation_from`) must make **exactly** the choices of the
//! scans and charge **exactly** the analytic probe count — over arbitrary
//! feasible systems, from *every* possible hint, including exact
//! region-boundary times (`t = tD(s, q)` and ±1 ns) and the infeasible
//! tail beyond `tD(s, qmin)`. Engine-level, every decision a
//! table-driven manager makes in a run must re-derive from the scans.

mod common;

use common::{arb_system, arb_system_up_to, cycle_fraction_exec, ArbSystem, OVERHEAD};
use proptest::prelude::*;
use speed_qm::core::compiler::{compile_regions, compile_relaxation};
use speed_qm::core::prelude::*;
use speed_qm::core::speed::SpeedDiagram;
use speed_qm::core::trace::Trace;
use speed_qm::mpeg::{EncoderConfig, MpegEncoder};
use sqm_bench::fuzz::{rederive_decisions, unclocked};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `tD` is non-increasing in the quality level — the fact that makes
    /// quality regions intervals.
    #[test]
    fn t_d_non_increasing_in_quality(arb in arb_system()) {
        let sys = &arb.system;
        for (name, policy) in [
            ("mixed", &MixedPolicy::new(sys) as &dyn Policy),
            ("safe", &SafePolicy::new(sys)),
            ("average", &AveragePolicy::new(sys)),
        ] {
            for state in 0..sys.n_actions() {
                let mut prev = Time::INF;
                for q in sys.qualities().iter() {
                    let td = policy.t_d(state, q);
                    prop_assert!(td <= prev, "{name} tD increasing at state {state} {q}");
                    prev = td;
                }
            }
        }
    }

    /// The mixed policy's O(1) lookup, online scan, and naive O(n²)
    /// definitions coincide everywhere.
    #[test]
    fn mixed_evaluations_coincide(arb in arb_system()) {
        let sys = &arb.system;
        let policy = MixedPolicy::new(sys);
        for state in 0..=sys.n_actions() {
            for q in sys.qualities().iter() {
                let fast = policy.t_d(state, q);
                prop_assert_eq!(fast, policy.t_d_naive(state, q));
                prop_assert_eq!(fast, policy.t_d_scan(state, q).0);
            }
        }
    }

    /// Proposition 1: with a single final deadline, the speed-domain
    /// characterization (`vidl ≥ vopt`) agrees with the time-domain one
    /// (`D − CD ≥ t`) away from the exact boundary.
    #[test]
    fn proposition_1(arb in arb_system(), t_frac in 0.0f64..1.5) {
        let sys = &arb.system;
        // Only meaningful for the final-deadline diagram.
        let policy = MixedPolicy::new(sys);
        let diagram = SpeedDiagram::for_final_deadline(&policy);
        let t = Time::from_ns((sys.final_deadline().as_ns() as f64 * t_frac) as i64);
        for state in 0..sys.n_actions() {
            let time_domain = diagram.policy_accepts(state, t, sys.qualities().min());
            let speed_domain = diagram.ideal_dominates_optimal(state, t, sys.qualities().min());
            let boundary = diagram.deadline()
                - policy.c_d(state, diagram.target(), sys.qualities().min());
            if (boundary - t).as_ns().abs() > 1 {
                prop_assert_eq!(time_domain, speed_domain, "state {}", state);
            }
        }
    }

    /// Proposition 2: region membership via stored bounds equals the
    /// manager's definition `Γ(s, t) = q`.
    #[test]
    fn proposition_2(arb in arb_system(), probes in proptest::collection::vec(-200i64..1500, 12)) {
        let sys = &arb.system;
        let policy = MixedPolicy::new(sys);
        let regions = compile_regions(sys);
        for state in 0..sys.n_actions() {
            for &t_ns in &probes {
                let t = Time::from_ns(t_ns);
                let gamma = choose_quality(&policy, sys.qualities().len(), state, t);
                for q in sys.qualities().iter() {
                    prop_assert_eq!(
                        regions.contains(state, t, q),
                        gamma == Some(q),
                        "Prop 2 at state {} {} t {}", state, q, t
                    );
                }
            }
        }
    }

    /// Proposition 3, soundness direction: from inside `Rrq`, whatever the
    /// next `r − 1` actual times (we test the extreme cone rays: all-zero
    /// and all-worst-case, plus a mixed ray), the manager keeps choosing
    /// `q` for all `r` actions.
    #[test]
    fn proposition_3_soundness(arb in arb_system(), ray in 0usize..3) {
        let sys = &arb.system;
        let n = sys.n_actions();
        let policy = MixedPolicy::new(sys);
        let regions = compile_regions(sys);
        let menu: Vec<usize> = (1..=n.min(6)).collect();
        let relaxation = compile_relaxation(sys, &regions, StepSet::new(menu).unwrap());
        for state in 0..n {
            for q in sys.qualities().iter() {
                for ri in 0..relaxation.rho().len() {
                    let r = relaxation.rho().steps()[ri];
                    if state + r > n {
                        continue;
                    }
                    let (lo, up) = relaxation.bounds(state, q, ri);
                    if lo >= up {
                        continue; // empty region
                    }
                    // A point strictly inside the relaxation interval.
                    let t0 = up;
                    // Walk the cone: j from state, applying the chosen ray.
                    let mut t = t0;
                    for j in state..state + r {
                        let chosen = choose_quality(&policy, sys.qualities().len(), j, t);
                        prop_assert_eq!(
                            chosen, Some(q),
                            "relaxation promised {} at state {} (from {} r {} ray {})",
                            q, j, state, r, ray
                        );
                        let wc = sys.table().wc(j, q);
                        let dt = match ray {
                            0 => Time::ZERO,
                            1 => wc,
                            _ => Time::from_ns(wc.as_ns() / 2),
                        };
                        t += dt;
                    }
                }
            }
        }
    }

    /// The relaxation compile against Proposition 3 computed by brute
    /// force, cell by cell (`proposition_3_cell`). Step menus range from
    /// `ρ = {1}` to steps beyond `n`, and always hold `n` (one window, from
    /// state 0) and `n + 1` (none).
    #[test]
    fn relaxation_cells_match_proposition_3(
        arb in arb_system_up_to(40, 6),
        extra in proptest::collection::vec(2usize..60, 0..6),
    ) {
        let sys = &arb.system;
        let n = sys.n_actions();
        let mut menu = extra;
        menu.extend([1, n, n + 1]);
        menu.sort_unstable();
        menu.dedup();
        let regions = compile_regions(sys);
        let relax = compile_relaxation(sys, &regions, StepSet::new(menu.clone()).unwrap());
        for state in 0..n {
            for q in sys.qualities().iter() {
                for (ri, &r) in menu.iter().enumerate() {
                    prop_assert_eq!(
                        relax.bounds(state, q, ri), proposition_3_cell(sys, &regions, state, q, r),
                        "state {} {} r {} (n {}, rho {:?})", state, q, r, n, menu
                    );
                }
            }
        }
        prop_assert!(relax.nested_over_rho());
    }

    /// Proposition 3, tightness direction: the stored upper bound is not
    /// conservative beyond the definition — stepping just above it breaks
    /// the guarantee for at least one cone ray.
    #[test]
    fn proposition_3_upper_bound_is_tight(arb in arb_system()) {
        let sys = &arb.system;
        let n = sys.n_actions();
        let policy = MixedPolicy::new(sys);
        let regions = compile_regions(sys);
        let menu: Vec<usize> = (1..=n.min(4)).collect();
        let relaxation = compile_relaxation(sys, &regions, StepSet::new(menu).unwrap());
        for state in 0..n {
            let q = Quality::MIN;
            for ri in 0..relaxation.rho().len() {
                let r = relaxation.rho().steps()[ri];
                if state + r > n {
                    continue;
                }
                let (lo, up) = relaxation.bounds(state, q, ri);
                if lo >= up || up.is_infinite() {
                    continue;
                }
                let t_bad = up + Time::from_ns(1);
                // Above tD,r: by Prop 3 the worst-case ray must violate Rq
                // membership at some j in the window (or leave the manager
                // unable to return q at the start state itself).
                let mut t = t_bad;
                let mut violated = false;
                for j in state..state + r {
                    if choose_quality(&policy, sys.qualities().len(), j, t) != Some(q) {
                        violated = true;
                        break;
                    }
                    t += sys.table().wc(j, q);
                }
                prop_assert!(violated, "upper bound too conservative at state {}", state);
            }
        }
    }
}

/// Proposition 3's `(lower, upper]` interval at `(state, q)` for `r`
/// steps, by brute force: the upper bound is the window minimum of
/// `tD(s_j, q) − Cwc(a_i..a_j, q)`, the lower bound `tD(s_{i+r−1}, q+1)`
/// (`−∞` at `qmax`), and an overrunning window is the empty `(+∞, −∞)`.
fn proposition_3_cell(
    sys: &ParameterizedSystem,
    regions: &QualityRegionTable,
    state: usize,
    q: Quality,
    r: usize,
) -> (Time, Time) {
    if state + r > sys.n_actions() {
        return (Time::INF, Time::NEG_INF);
    }
    let lower = if q == sys.qualities().max() {
        Time::NEG_INF
    } else {
        regions.t_d(state + r - 1, q.up())
    };
    let upper = (state..state + r)
        .map(|j| regions.t_d(j, q) - sys.prefix().wc_range(state, j, q))
        .fold(Time::INF, Time::min);
    (lower, upper)
}

/// The cell check of `relaxation_cells_match_proposition_3` on the
/// paper's 1,189-action MPEG encoder, for step menus whose blocks do not
/// divide `n` and that hold steps beyond `n`.
#[test]
fn relaxation_cells_match_proposition_3_at_paper_scale() {
    let encoder = MpegEncoder::new(EncoderConfig::paper(2024)).unwrap();
    let sys = encoder.system();
    let n = sys.n_actions();
    assert_eq!(n, 1189);
    let regions = compile_regions(sys);
    for menu in [
        StepSet::paper_mpeg(),
        StepSet::new(vec![1, 2, 3, 5, 8, 1000]).unwrap(),
        StepSet::new(vec![1, 4, 5000]).unwrap(),
    ] {
        let relax = compile_relaxation(sys, &regions, menu.clone());
        for state in 0..n {
            for q in sys.qualities().iter() {
                for (ri, &r) in menu.steps().iter().enumerate() {
                    assert_eq!(
                        relax.bounds(state, q, ri),
                        proposition_3_cell(sys, &regions, state, q, r),
                        "state {state} {q} r {r} (rho {menu:?})"
                    );
                }
            }
        }
        assert!(relax.nested_over_rho());
    }
}

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
