//! Smoothness-constrained quality management.
//!
//! The paper's third QoS requirement (after safety and optimality) is
//! *smoothness* — "low fluctuation of quality levels", which it inherits
//! from its predecessor \[6\] and defers "due to lack of space". This module
//! supplies the standard mechanism: a wrapper that rate-limits **upward**
//! quality jumps (optionally with a hysteresis delay before climbing),
//! while leaving downward jumps untouched.
//!
//! The asymmetry is what keeps the wrapper safe: the underlying manager's
//! choice `q*` is the *maximal* level satisfying `tD(s, q) ≥ t`, and `tD`
//! is non-increasing in `q`, so any level `q ≤ q*` also satisfies the
//! policy. Limiting climbs only ever picks such smaller levels; a required
//! *drop* (safety) is executed immediately and in full.

use crate::manager::{Decision, QualityManager};
use crate::quality::Quality;
use crate::time::Time;

/// Rate-limits upward quality movements of an inner manager.
pub struct SmoothedManager<M> {
    inner: M,
    /// Maximum upward movement per decision (levels).
    max_step_up: u8,
    /// Decisions the quality must have been stable-or-above before a climb
    /// is allowed (0 = climb immediately, subject to `max_step_up`).
    hysteresis: u32,
    last: Option<Quality>,
    stable_for: u32,
}

impl<M> SmoothedManager<M> {
    /// Wrap `inner`, allowing at most `max_step_up` levels of climb per
    /// decision after `hysteresis` consecutive non-degrading decisions.
    pub fn new(inner: M, max_step_up: u8, hysteresis: u32) -> Self {
        assert!(max_step_up >= 1, "a zero step would freeze quality forever");
        SmoothedManager {
            inner,
            max_step_up,
            hysteresis,
            last: None,
            stable_for: 0,
        }
    }

    /// The most recent smoothed choice, if any.
    pub fn last_quality(&self) -> Option<Quality> {
        self.last
    }
}

impl<M: QualityManager> QualityManager for SmoothedManager<M> {
    fn decide(&mut self, state: usize, t: Time) -> Decision {
        let mut d = self.inner.decide(state, t);
        let target = d.quality;
        let smoothed = match self.last {
            None => target, // first decision of a cycle: free placement
            Some(prev) if target > prev => {
                // A climb: wait out the hysteresis, then limit the step.
                if self.stable_for >= self.hysteresis {
                    let step = (target.index() - prev.index()).min(self.max_step_up as usize);
                    Quality::new((prev.index() + step) as u8)
                } else {
                    prev
                }
            }
            // Drops (or equality) pass through: safety first.
            Some(_) => target,
        };
        self.stable_for = match self.last {
            Some(prev) if smoothed >= prev => self.stable_for.saturating_add(1),
            _ => 0,
        };
        self.last = Some(smoothed);
        d.quality = smoothed;
        // Smoothing a decision must not extend a relaxation hold computed
        // for the *unsmoothed* level: Proposition 3 guarantees the manager
        // would keep choosing `target`, not `smoothed`, for the next r
        // actions. Degrade to per-action control whenever we diverge.
        if smoothed != target {
            d.hold = 1;
        }
        d
    }

    fn name(&self) -> &'static str {
        "smoothed"
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.last = None;
        self.stable_for = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{ConstantExec, FnExec, OverheadModel};
    use crate::engine::{CycleChaining, Engine, NullSink};
    use crate::manager::NumericManager;
    use crate::policy::MixedPolicy;
    use crate::smoothness::Smoothness;
    use crate::system::{ParameterizedSystem, SystemBuilder};
    use crate::trace::Trace;

    fn sys() -> ParameterizedSystem {
        let mut b = SystemBuilder::new(5);
        for i in 0..16 {
            b = b.action(
                &format!("a{i}"),
                &[100, 160, 220, 280, 340],
                &[40, 70, 100, 130, 160],
            );
        }
        b.deadline_last(Time::from_ns(3_600)).build().unwrap()
    }

    /// An execution with a sharp easy→hard→easy load profile, which makes
    /// an unsmoothed manager bounce across several levels.
    fn bouncy_exec(
        s: &ParameterizedSystem,
    ) -> FnExec<impl FnMut(usize, usize, Quality) -> Time + '_> {
        FnExec(move |_c, a: usize, q: Quality| {
            let table = s.table();
            match a % 8 {
                0..=2 => Time::from_ns(table.av(a, q).as_ns() / 4),
                3..=5 => table.wc(a, q),
                _ => table.av(a, q),
            }
        })
    }

    #[test]
    fn smoothing_reduces_fluctuation_without_misses() {
        let s = sys();
        let p = MixedPolicy::new(&s);

        let run = |manager: &mut dyn QualityManager| {
            let mut trace = Trace::default();
            Engine::new(&s, manager, OverheadModel::ZERO).run_cycle(
                0,
                Time::ZERO,
                &mut bouncy_exec(&s),
                &mut trace,
            );
            trace.cycles.pop().unwrap()
        };
        let plain = run(&mut NumericManager::new(&s, &p));
        let smooth = run(&mut SmoothedManager::new(NumericManager::new(&s, &p), 1, 1));

        assert_eq!(plain.summary().misses, 0);
        assert_eq!(smooth.summary().misses, 0, "smoothing must preserve safety");

        let sv = Smoothness::of(&plain.quality_sequence());
        let sw = Smoothness::of(&smooth.quality_sequence());
        assert!(
            sw.total_variation <= sv.total_variation,
            "smoothed variation {} vs plain {}",
            sw.total_variation,
            sv.total_variation
        );
        assert!(sw.max_jump <= sv.max_jump.max(1));
    }

    #[test]
    fn smoothed_choice_never_exceeds_inner_choice() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let mut inner = NumericManager::new(&s, &p);
        let mut smooth = SmoothedManager::new(NumericManager::new(&s, &p), 1, 2);
        let mut t = Time::ZERO;
        for state in 0..s.n_actions() {
            let di = inner.decide(state, t);
            let ds = smooth.decide(state, t);
            assert!(ds.quality <= di.quality, "state {state}");
            // Advance along some trajectory.
            t += s.table().av(state, ds.quality);
        }
    }

    #[test]
    fn drops_pass_through_immediately() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let mut smooth = SmoothedManager::new(NumericManager::new(&s, &p), 1, 10);
        // Establish a high level early…
        let d0 = smooth.decide(0, Time::ZERO);
        assert!(d0.quality.index() >= 2);
        // …then jump the clock far forward: the inner manager demands a
        // deep drop, which must not be rate-limited.
        let d1 = smooth.decide(1, Time::from_ns(3_000));
        assert!(d1.quality < d0.quality);
        let mut inner = NumericManager::new(&s, &p);
        assert_eq!(d1.quality, inner.decide(1, Time::from_ns(3_000)).quality);
    }

    #[test]
    fn hysteresis_delays_climbs() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let mut smooth = SmoothedManager::new(NumericManager::new(&s, &p), 1, 3);
        // Pin the first decision low by starting very late…
        let d0 = smooth.decide(0, Time::from_ns(2_200));
        let low = d0.quality;
        // …then present generous budgets; the climb must wait 3 decisions
        // and then move one level at a time.
        let mut last = low;
        let mut climbs = Vec::new();
        for state in 1..10 {
            let d = smooth.decide(state, Time::ZERO);
            climbs.push(d.quality.index());
            assert!(d.quality.index() <= last.index() + 1, "one level per climb");
            last = d.quality;
        }
        assert_eq!(
            &climbs[..3],
            &[low.index(), low.index(), low.index()],
            "hysteresis holds"
        );
        assert!(climbs[9 - 1] > low.index(), "eventually climbs");
    }

    #[test]
    fn reset_clears_memory() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let mut smooth = SmoothedManager::new(NumericManager::new(&s, &p), 1, 0);
        let _ = smooth.decide(0, Time::from_ns(2_200));
        assert!(smooth.last_quality().is_some());
        smooth.reset();
        assert!(smooth.last_quality().is_none());
        // After reset the first decision is free again (no rate limit).
        let d = smooth.decide(0, Time::ZERO);
        let mut inner = NumericManager::new(&s, &p);
        assert_eq!(d.quality, inner.decide(0, Time::ZERO).quality);
    }

    #[test]
    fn works_over_consecutive_cycles() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let run = Engine::new(
            &s,
            SmoothedManager::new(NumericManager::new(&s, &p), 1, 1),
            OverheadModel::ZERO,
        )
        .run_cycles(
            4,
            s.final_deadline(),
            CycleChaining::WorkConserving,
            &mut ConstantExec::average(s.table()),
            &mut NullSink,
        );
        assert_eq!(run.misses, 0);
    }
}
