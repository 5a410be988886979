//! Shared generators for the workspace property tests.
#![allow(dead_code)] // each test binary uses a subset of the helpers

pub mod golden;

use proptest::prelude::*;
use speed_qm::core::prelude::*;

/// A randomly generated, always-feasible parameterized system.
#[derive(Debug, Clone)]
pub struct ArbSystem {
    pub system: ParameterizedSystem,
    /// Per-action execution-time fractions in `[0, 1]` (scaled against
    /// `Cwc` when replaying actual times).
    pub fractions: Vec<f64>,
}

/// Strategy: systems with 1..=18 actions, 1..=5 quality levels, random
/// monotone timing rows, a feasible final deadline, and optionally one
/// random intermediate deadline.
pub fn arb_system() -> impl Strategy<Value = ArbSystem> {
    arb_system_up_to(18, 5)
}

/// [`arb_system`] with 1..=`max_actions` actions and 1..=`max_qualities`
/// quality levels.
pub fn arb_system_up_to(
    max_actions: usize,
    max_qualities: usize,
) -> impl Strategy<Value = ArbSystem> {
    (1usize..=max_actions, 1usize..=max_qualities)
        .prop_flat_map(|(n, nq)| {
            let rows = proptest::collection::vec(
                (
                    proptest::collection::vec(1i64..60, nq), // av increments
                    proptest::collection::vec(0i64..60, nq), // wc extra over av
                ),
                n,
            );
            let fractions = proptest::collection::vec(0.0f64..=1.0, n);
            let slack = 0i64..500;
            let mid_deadline = proptest::option::of((0usize..n, 1i64..200));
            (Just((n, nq)), rows, fractions, slack, mid_deadline)
        })
        .prop_filter_map(
            "feasible system",
            |((n, nq), rows, fractions, slack, mid_deadline)| {
                let mut builder = SystemBuilder::new(nq);
                let mut wcmin_total = 0i64;
                for (i, (av_inc, wc_extra)) in rows.iter().enumerate() {
                    // Build monotone rows: av is a running sum of positive
                    // increments; wc = av + extra, also made monotone.
                    let mut av_row = Vec::with_capacity(nq);
                    let mut wc_row = Vec::with_capacity(nq);
                    let mut av = 0i64;
                    let mut wc_prev = 0i64;
                    for q in 0..nq {
                        av += av_inc[q];
                        let wc = (av + wc_extra[q]).max(wc_prev);
                        av_row.push(av);
                        wc_row.push(wc);
                        wc_prev = wc;
                    }
                    wcmin_total += wc_row[0];
                    builder = builder.action(&format!("a{i}"), &wc_row, &av_row);
                }
                // Final deadline: worst case at qmin plus random slack.
                builder = builder.deadline_last(Time::from_ns(wcmin_total + slack));
                if let Some((k, extra)) = mid_deadline {
                    if k < n - 1 {
                        // A feasible intermediate deadline: enough budget
                        // for the qmin worst case of the prefix.
                        let prefix_wc: i64 = rows
                            .iter()
                            .take(k + 1)
                            .map(|(av_inc, wc_extra)| av_inc[0] + wc_extra[0])
                            .sum();
                        builder = builder.deadline(k, Time::from_ns(prefix_wc + extra));
                    }
                }
                builder
                    .build()
                    .ok()
                    .map(|system| ArbSystem { system, fractions })
            },
        )
}

/// The decision-overhead model shared by the cross-path identity and
/// property suites (`tests/conformance.rs`, `tests/sources.rs`,
/// `tests/streaming.rs`).
pub const OVERHEAD: OverheadModel = OverheadModel::new(Time::from_ns(2), Time::from_ns(1));

/// Deterministic, admissible actual times shared by the cross-path
/// suites: a fraction of `Cwc` drawn from the system's fraction table by
/// `(action + cycle)`, so successive cycles sample different rows. Every
/// suite must use this one definition — the "same inputs" premise of the
/// path identities depends on it.
pub fn cycle_fraction_exec<'a>(
    sys: &'a ParameterizedSystem,
    fractions: &'a [f64],
) -> impl ExecutionTimeSource + 'a {
    let n = fractions.len();
    FnExec(move |cycle: usize, action: usize, q: Quality| {
        let wc = sys.table().wc(action, q).as_ns() as f64;
        Time::from_ns((wc * fractions[(action + cycle) % n]).floor() as i64)
    })
}

/// Replay execution times as `fraction · Cwc(a, q)` — admissible by
/// construction, spanning the whole contract range including both
/// extremes.
pub fn fraction_exec<'a>(
    sys: &'a ParameterizedSystem,
    fractions: &'a [f64],
) -> impl FnMut(usize, usize, Quality) -> Time + 'a {
    move |_cycle, action, q| {
        let wc = sys.table().wc(action, q).as_ns() as f64;
        Time::from_ns((wc * fractions[action]).floor() as i64)
    }
}

/// One recorded cycle of `sys` under `manager`, started at time 0 with
/// free decisions: the closed loop most single-cycle checks run.
pub fn run_cycle<M: QualityManager>(
    sys: &ParameterizedSystem,
    manager: M,
    mut exec: &mut (impl ExecutionTimeSource + ?Sized),
) -> CycleTrace {
    let mut trace = Trace::default();
    Engine::new(sys, manager, OverheadModel::ZERO).run_cycle(0, Time::ZERO, &mut exec, &mut trace);
    trace.cycles.pop().expect("one cycle ran")
}

/// `cycles` recorded work-conserving cycles of `sys` under `manager`,
/// `period` apart, charging decisions per `overhead`.
pub fn run_cycles<M: QualityManager>(
    sys: &ParameterizedSystem,
    manager: M,
    overhead: OverheadModel,
    period: Time,
    cycles: usize,
    mut exec: &mut (impl ExecutionTimeSource + ?Sized),
) -> Trace {
    let mut trace = Trace::default();
    Engine::new(sys, manager, overhead).run_cycles(
        cycles,
        period,
        CycleChaining::WorkConserving,
        &mut exec,
        &mut trace,
    );
    trace
}
