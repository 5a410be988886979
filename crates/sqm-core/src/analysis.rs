//! Offline analysis of parameterized systems.
//!
//! The compiler side of the paper's tool chain (Fig. 1) needs more than the
//! region tables: a designer choosing deadlines, quality counts, or step
//! menus wants to know *before deployment* what the Quality Manager will do
//! in expectation. This module answers those design-time questions from the
//! same integer machinery the policies use:
//!
//! * [`min_feasible_deadline`] — the tightest final deadline the system can
//!   accept at all (worst case at `qmin`);
//! * [`quality_envelope`] — the per-state quality profile of the *nominal*
//!   run (every action at its average time): the level the manager will sit
//!   at when reality matches the profile;
//! * [`sustainable_quality`] — the highest level whose whole-cycle average
//!   demand fits the final deadline;
//! * [`deadline_sweep`] — nominal average quality as a function of the
//!   cycle deadline, the curve a designer trades budget against quality on.

use crate::policy::{choose_quality, MixedPolicy};
use crate::quality::Quality;
use crate::system::ParameterizedSystem;
use crate::time::Time;

/// The tightest final deadline for which the system is feasible at all:
/// the total worst case at minimal quality, honouring any intermediate
/// deadlines' own requirements.
///
/// Returns `None` if an *intermediate* deadline is already the binding
/// constraint (no final deadline can fix an infeasible prefix).
pub fn min_feasible_deadline(sys: &ParameterizedSystem) -> Option<Time> {
    let n = sys.n_actions();
    let wcmin_total = sys.prefix().wc_total(Quality::MIN);
    // Intermediate deadlines must each cover their prefix worst case.
    for (k, d) in sys.deadlines().iter() {
        if k < n - 1 && d < sys.prefix().wc_range(0, k + 1, Quality::MIN) {
            return None;
        }
    }
    Some(wcmin_total)
}

/// The nominal (average-time) trajectory: for each state, the quality the
/// mixed-policy manager chooses and the elapsed time at which it decides.
/// This is the design-time prediction of Fig. 7's per-frame levels.
pub fn quality_envelope(sys: &ParameterizedSystem) -> Vec<(Time, Quality)> {
    let policy = MixedPolicy::new(sys);
    let nq = sys.qualities().len();
    let mut out = Vec::with_capacity(sys.n_actions());
    let mut t = Time::ZERO;
    for state in 0..sys.n_actions() {
        let q = choose_quality(&policy, nq, state, t).unwrap_or(Quality::MIN);
        out.push((t, q));
        t += sys.table().av(state, q);
    }
    out
}

/// Mean level of the nominal trajectory.
pub fn nominal_average_quality(sys: &ParameterizedSystem) -> f64 {
    let env = quality_envelope(sys);
    if env.is_empty() {
        return 0.0;
    }
    env.iter().map(|(_, q)| q.index() as f64).sum::<f64>() / env.len() as f64
}

/// The highest constant quality whose total *average* demand fits the final
/// deadline — the level the system can cruise at in expectation. `None` if
/// even `qmin`'s average does not fit (the manager will then live off the
/// worst-case/average gap alone).
pub fn sustainable_quality(sys: &ParameterizedSystem) -> Option<Quality> {
    let d = sys.final_deadline();
    sys.qualities()
        .iter_desc()
        .find(|&q| sys.prefix().av_total(q) <= d)
}

/// Re-deadline the system (single global deadline) and report the nominal
/// average quality for each candidate — the budget/quality trade-off curve.
/// Candidates below the minimal feasible deadline yield `None`.
pub fn deadline_sweep(sys: &ParameterizedSystem, candidates: &[Time]) -> Vec<(Time, Option<f64>)> {
    candidates
        .iter()
        .map(|&d| {
            let rebuilt = with_final_deadline(sys, d);
            (d, rebuilt.map(|s| nominal_average_quality(&s)))
        })
        .collect()
}

/// Clone a system with a different single global deadline.
pub fn with_final_deadline(
    sys: &ParameterizedSystem,
    deadline: Time,
) -> Option<ParameterizedSystem> {
    let n = sys.n_actions();
    let deadlines = crate::action::DeadlineMap::single_global(n, deadline);
    ParameterizedSystem::new(sys.actions().to_vec(), sys.table().clone(), deadlines).ok()
}

/// How much of the final deadline the nominal run consumes (utilization of
/// the time budget — the paper's optimality metric, predicted offline).
pub fn nominal_utilization(sys: &ParameterizedSystem) -> f64 {
    let env = quality_envelope(sys);
    let end = match env.last() {
        None => return 0.0,
        Some(&(t, q)) => t + sys.table().av(sys.n_actions() - 1, q),
    };
    end.as_ns() as f64 / sys.final_deadline().as_ns().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemBuilder;

    fn sys(deadline: i64) -> ParameterizedSystem {
        let mut b = SystemBuilder::new(4);
        for i in 0..12 {
            b = b.action(&format!("a{i}"), &[100, 150, 200, 250], &[40, 60, 80, 100]);
        }
        b.deadline_last(Time::from_ns(deadline)).build().unwrap()
    }

    #[test]
    fn min_feasible_deadline_is_wcmin_total() {
        let s = sys(3_000);
        assert_eq!(min_feasible_deadline(&s), Some(Time::from_ns(1_200)));
        // And it is sharp: rebuilding with exactly that deadline works,
        // one less fails.
        assert!(with_final_deadline(&s, Time::from_ns(1_200)).is_some());
        assert!(with_final_deadline(&s, Time::from_ns(1_199)).is_none());
    }

    #[test]
    fn infeasible_intermediate_deadline_detected() {
        let s = SystemBuilder::new(1)
            .action("a", &[100], &[50])
            .action("b", &[100], &[50])
            .deadline(0, Time::from_ns(150))
            .deadline_last(Time::from_ns(1_000))
            .build()
            .unwrap();
        assert_eq!(min_feasible_deadline(&s), Some(Time::from_ns(200)));
        let tight = SystemBuilder::new(1)
            .action("a", &[100], &[50])
            .action("b", &[100], &[50])
            .deadline(0, Time::from_ns(100))
            .deadline_last(Time::from_ns(1_000))
            .build()
            .unwrap();
        // Feasible (prefix wc = 100 ≤ 100), and the bound reflects only the
        // final total.
        assert_eq!(min_feasible_deadline(&tight), Some(Time::from_ns(200)));
    }

    #[test]
    fn sustainable_quality_matches_average_totals() {
        // Tighter worst cases so mid-range deadlines are feasible.
        // Average totals: q0 480, q1 720, q2 960, q3 1200; wcmin total 600.
        let lean = |deadline: i64| {
            let mut b = SystemBuilder::new(4);
            for i in 0..12 {
                b = b.action(&format!("a{i}"), &[50, 75, 100, 125], &[40, 60, 80, 100]);
            }
            b.deadline_last(Time::from_ns(deadline)).build().unwrap()
        };
        assert_eq!(sustainable_quality(&lean(1_000)), Some(Quality::new(2)));
        assert_eq!(sustainable_quality(&lean(1_250)), Some(Quality::new(3)));
        assert_eq!(sustainable_quality(&lean(1_200)), Some(Quality::new(3)));
        assert_eq!(sustainable_quality(&lean(700)), Some(Quality::new(0)));
        // A validated system always sustains qmin: feasibility demands
        // D ≥ Σ Cwc(·, qmin) ≥ Σ Cav(·, qmin).
        assert_eq!(sustainable_quality(&lean(610)), Some(Quality::new(0)));
    }

    #[test]
    fn envelope_tracks_budget() {
        let generous = nominal_average_quality(&sys(2_400));
        let tight = nominal_average_quality(&sys(1_250));
        assert!(generous >= tight);
        assert!(
            generous > 2.5,
            "generous budget should cruise near qmax: {generous}"
        );
        // The envelope's decision times are non-decreasing.
        let env = quality_envelope(&sys(1_500));
        for w in env.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    fn deadline_sweep_is_monotone_and_flags_infeasible() {
        let s = sys(2_000);
        let candidates: Vec<Time> = [800i64, 1_199, 1_200, 1_400, 1_800, 2_400]
            .map(Time::from_ns)
            .to_vec();
        let sweep = deadline_sweep(&s, &candidates);
        assert_eq!(sweep[0].1, None, "below min feasible");
        assert_eq!(sweep[1].1, None, "just below min feasible");
        let values: Vec<f64> = sweep[2..].iter().map(|(_, v)| v.unwrap()).collect();
        for w in values.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-12,
                "quality non-decreasing in budget: {values:?}"
            );
        }
    }

    #[test]
    fn nominal_utilization_is_high_but_bounded() {
        for d in [1_300i64, 1_600, 2_000, 3_000] {
            let u = nominal_utilization(&sys(d));
            assert!(u <= 1.0 + 1e-9, "never past the deadline nominally: {u}");
            assert!(
                u > 0.3,
                "the manager should use a real share of the budget: {u}"
            );
        }
    }

    #[test]
    fn envelope_matches_actual_average_run() {
        use crate::controller::{ConstantExec, OverheadModel};
        use crate::engine::Engine;
        use crate::manager::NumericManager;
        let s = sys(1_500);
        let p = MixedPolicy::new(&s);
        let mut trace = crate::trace::Trace::default();
        Engine::new(&s, NumericManager::new(&s, &p), OverheadModel::ZERO).run_cycle(
            0,
            Time::ZERO,
            &mut ConstantExec::average(s.table()),
            &mut trace,
        );
        let predicted: Vec<usize> = quality_envelope(&s)
            .iter()
            .map(|(_, q)| q.index())
            .collect();
        assert_eq!(
            predicted,
            trace.cycles[0].quality_sequence(),
            "prediction = execution"
        );
    }
}
