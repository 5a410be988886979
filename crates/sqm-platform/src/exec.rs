//! Actual execution-time sources.
//!
//! Definition 1 leaves the actual execution-time function `C` unknown,
//! constrained only by `C(a, q) ≤ Cwc(a, q)`. [`StochasticExec`] samples
//! realistic actual times: the table's average `Cav(a, q)` scaled by a
//! deterministic content [`LoadModel`] and multiplicative jitter, clamped
//! into `[0, Cwc(a, q)]`. [`ViolatingExec`] deliberately breaks the
//! worst-case contract for fault-injection tests (the controller must then
//! *detect* misses, since no policy can prevent them).

use crate::load::LoadModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqm_core::action::ActionId;
use sqm_core::controller::ExecutionTimeSource;
use sqm_core::quality::Quality;
use sqm_core::time::Time;
use sqm_core::timing::TimeTable;

/// Stochastic, contract-honouring execution times.
pub struct StochasticExec<'a, L: LoadModel> {
    table: &'a TimeTable,
    load: L,
    rng: StdRng,
    /// Half-width of the uniform multiplicative jitter (e.g. `0.1` for
    /// ±10 %).
    jitter: f64,
}

impl<'a, L: LoadModel> StochasticExec<'a, L> {
    /// A source drawing around `Cav · load` with ±`jitter` uniform noise,
    /// clamped to `[0, Cwc]`.
    pub fn new(table: &'a TimeTable, load: L, jitter: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&jitter));
        StochasticExec {
            table,
            load,
            rng: StdRng::seed_from_u64(seed),
            jitter,
        }
    }
}

impl<L: LoadModel> ExecutionTimeSource for StochasticExec<'_, L> {
    fn actual(&mut self, cycle: usize, action: ActionId, q: Quality) -> Time {
        let av = self.table.av(action, q).as_ns() as f64;
        let wc = self.table.wc(action, q);
        let factor = self.load.factor(cycle, action);
        debug_assert!(factor >= 0.0);
        let jitter = 1.0 + self.rng.gen_range(-self.jitter..=self.jitter);
        let sample = (av * factor * jitter).round() as i64;
        Time::from_ns(sample.max(0)).min(wc)
    }
}

/// A source that violates `C ≤ Cwc` on selected actions, for testing the
/// controller's miss detection and the managers' degraded behaviour.
///
/// The victim set is normalized once at construction (sorted, deduplicated)
/// so the per-action membership test is a binary search over a sorted
/// slice rather than a linear scan — `actual` sits on the engine's hot
/// path and victim lists grow with the system size under fuzzing.
pub struct ViolatingExec<'a> {
    table: &'a TimeTable,
    /// Sorted, deduplicated. Ids beyond the table's action count are kept
    /// but can never match, so an out-of-range victim is inert, not an
    /// error.
    victims: Vec<ActionId>,
    /// Overrun factor (`> 1`).
    pub factor: f64,
}

impl<'a> ViolatingExec<'a> {
    /// Overrun `victims` by `factor ×` their worst case; everything else
    /// runs at its average time. Duplicate victim ids collapse to one
    /// membership entry; ids that no action carries simply never fire.
    pub fn new(table: &'a TimeTable, mut victims: Vec<ActionId>, factor: f64) -> Self {
        assert!(factor > 1.0);
        victims.sort_unstable();
        victims.dedup();
        ViolatingExec {
            table,
            victims,
            factor,
        }
    }

    /// The normalized (sorted, deduplicated) victim set.
    pub fn victims(&self) -> &[ActionId] {
        &self.victims
    }

    /// Whether `action` is overrun by this source.
    pub fn is_victim(&self, action: ActionId) -> bool {
        self.victims.binary_search(&action).is_ok()
    }
}

impl ExecutionTimeSource for ViolatingExec<'_> {
    fn actual(&mut self, _cycle: usize, action: ActionId, q: Quality) -> Time {
        if self.is_victim(action) {
            Time::from_ns((self.table.wc(action, q).as_ns() as f64 * self.factor) as i64)
        } else {
            self.table.av(action, q)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::ConstantLoad;
    use sqm_core::quality::QualitySet;

    fn table() -> TimeTable {
        TimeTable::from_ns_rows(
            QualitySet::new(2).unwrap(),
            &[&[1_000, 2_000], &[1_000, 2_000]],
            &[&[400, 900], &[400, 900]],
        )
        .unwrap()
    }

    #[test]
    fn samples_respect_worst_case_bound() {
        let t = table();
        // Load far above what Cwc admits — clamping must kick in.
        let mut e = StochasticExec::new(&t, ConstantLoad(10.0), 0.3, 1);
        for cycle in 0..50 {
            for a in 0..2 {
                for qi in 0..2 {
                    let q = Quality::new(qi);
                    let c = e.actual(cycle, a, q);
                    assert!(c >= Time::ZERO && c <= t.wc(a, q));
                }
            }
        }
    }

    #[test]
    fn mean_tracks_average_at_unit_load() {
        let t = table();
        let mut e = StochasticExec::new(&t, ConstantLoad(1.0), 0.2, 7);
        let n = 2_000;
        let sum: i64 = (0..n)
            .map(|c| e.actual(c, 0, Quality::new(0)).as_ns())
            .sum();
        let mean = sum as f64 / n as f64;
        assert!(
            (mean - 400.0).abs() < 20.0,
            "mean {mean} should be near Cav = 400"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let t = table();
        let sample = |seed: u64| -> Vec<i64> {
            let mut e = StochasticExec::new(&t, ConstantLoad(1.0), 0.2, seed);
            (0..10)
                .map(|c| e.actual(c, 0, Quality::new(1)).as_ns())
                .collect()
        };
        assert_eq!(sample(5), sample(5));
        assert_ne!(sample(5), sample(6));
    }

    #[test]
    fn load_scales_samples() {
        let t = table();
        let mut light = StochasticExec::new(&t, ConstantLoad(0.5), 0.0, 3);
        let mut heavy = StochasticExec::new(&t, ConstantLoad(2.0), 0.0, 3);
        let l = light.actual(0, 0, Quality::new(0));
        let h = heavy.actual(0, 0, Quality::new(0));
        assert_eq!(l, Time::from_ns(200));
        assert_eq!(h, Time::from_ns(800));
    }

    /// Twice the average load on action 1, average everywhere else.
    struct SecondActionBurst;

    impl LoadModel for SecondActionBurst {
        fn factor(&self, _cycle: usize, action: usize) -> f64 {
            if action == 1 {
                2.0
            } else {
                1.0
            }
        }
    }

    #[test]
    fn burst_load_through_exec() {
        let t = table();
        let mut e = StochasticExec::new(&t, SecondActionBurst, 0.0, 3);
        assert_eq!(e.actual(0, 0, Quality::new(0)), Time::from_ns(400));
        assert_eq!(e.actual(0, 1, Quality::new(0)), Time::from_ns(800));
    }

    #[test]
    fn violating_exec_exceeds_wc_only_on_victims() {
        let t = table();
        let mut e = ViolatingExec::new(&t, vec![1], 1.5);
        assert_eq!(e.actual(0, 0, Quality::new(0)), Time::from_ns(400));
        let c = e.actual(0, 1, Quality::new(0));
        assert_eq!(c, Time::from_ns(1_500));
        assert!(c > t.wc(1, Quality::new(0)));
    }

    #[test]
    fn violating_exec_normalizes_duplicate_victims() {
        let t = table();
        // The same victim listed three times, unsorted alongside another:
        // membership collapses to {0, 1} and the overrun is applied once
        // (not compounded) per action.
        let mut e = ViolatingExec::new(&t, vec![1, 0, 1, 1], 1.5);
        assert_eq!(e.victims(), &[0, 1]);
        assert!(e.is_victim(0) && e.is_victim(1));
        assert_eq!(e.actual(0, 0, Quality::new(0)), Time::from_ns(1_500));
        assert_eq!(e.actual(0, 1, Quality::new(0)), Time::from_ns(1_500));
    }

    #[test]
    fn violating_exec_ignores_out_of_range_victims() {
        let t = table();
        // Victim ids the 2-action table never executes: kept in the set
        // but inert — every real action still runs at its average.
        let mut e = ViolatingExec::new(&t, vec![7, 2, 99], 2.0);
        assert_eq!(e.victims(), &[2, 7, 99]);
        assert!(!e.is_victim(0) && !e.is_victim(1));
        assert!(e.is_victim(99));
        for a in 0..2 {
            assert_eq!(e.actual(0, a, Quality::new(0)), t.av(a, Quality::new(0)));
        }
    }
}
