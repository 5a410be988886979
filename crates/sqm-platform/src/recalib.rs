//! Online recalibration — profiler-style re-estimation of `Cav`/`Cwc`
//! from live observations, published mid-run through a
//! [`TableCell`].
//!
//! The offline [`Profiler`](crate::profiler::Profiler) answers "what does
//! this platform look like *before* deployment"; this module answers
//! "what does it look like *now*". [`RecalibratingExec`] wraps any
//! [`ExecutionTimeSource`] (typically one of the fault/drift sources from
//! [`exec`](crate::exec) and [`faults`](crate::faults)), records every
//! actual execution time it passes through, and every
//! [`RecalibrationConfig::every_cycles`] cycles folds the evidence into a
//! fresh [`TimeTable`] (same estimator as the profiler: mean → `Cav`,
//! observed max plus a safety margin → `Cwc`), recompiles the quality
//! regions and publishes them. An
//! [`AdaptiveLookupManager`](sqm_core::recalib::AdaptiveLookupManager) on
//! the same cell picks the new table up at the next cycle boundary — no
//! runner is stopped, no stream dropped.
//!
//! Quality levels never chosen since the last window have no evidence;
//! their entries fall back to the *prior* table (initially the compile-
//! time model), and the usual monotonicity/consistency repairs keep the
//! published table a valid [`TimeTable`]. A drifted platform can make the
//! re-estimated system infeasible (`ΣCwc(qmin) > D`); such windows are
//! counted in [`RecalibratingExec::failures`] and the previous table stays
//! in force — recalibration degrades to a no-op instead of panicking
//! mid-stream.

use crate::profiler::ProfileConfig;
use sqm_core::action::ActionId;
use sqm_core::compiler::compile_regions;
use sqm_core::controller::ExecutionTimeSource;
use sqm_core::quality::Quality;
use sqm_core::recalib::TableCell;
use sqm_core::system::ParameterizedSystem;
use sqm_core::time::Time;
use sqm_core::timing::TimeTable;

/// When and how aggressively [`RecalibratingExec`] re-estimates.
#[derive(Clone, Copy, Debug)]
pub struct RecalibrationConfig {
    /// Cycles to observe before the first re-estimation.
    pub warmup_cycles: usize,
    /// Cycles between re-estimations after warmup.
    pub every_cycles: usize,
    /// Safety margin added to the observed per-(action, quality) maximum
    /// to form `Cwc`, in permille (200 = +20%, matching
    /// [`ProfileConfig`]'s default).
    pub wc_margin_permille: i64,
}

impl Default for RecalibrationConfig {
    fn default() -> RecalibrationConfig {
        RecalibrationConfig {
            warmup_cycles: 4,
            every_cycles: 8,
            wc_margin_permille: ProfileConfig::default().wc_margin_permille,
        }
    }
}

/// Streaming mean/max estimator over observed `(action, quality)`
/// execution times — the profiler's estimator, fed by live traffic
/// instead of scripted sampling runs.
#[derive(Clone, Debug)]
pub struct OnlineEstimator {
    n_actions: usize,
    n_quality: usize,
    /// Per-(action, quality): observation count, ns sum, ns max.
    counts: Vec<u64>,
    sums: Vec<i64>,
    maxs: Vec<i64>,
}

impl OnlineEstimator {
    /// An empty estimator for `n_actions × n_quality` cells.
    pub fn new(n_actions: usize, n_quality: usize) -> OnlineEstimator {
        let cells = n_actions * n_quality;
        OnlineEstimator {
            n_actions,
            n_quality,
            counts: vec![0; cells],
            sums: vec![0; cells],
            maxs: vec![0; cells],
        }
    }

    fn cell(&self, a: ActionId, q: Quality) -> usize {
        a * self.n_quality + q.index()
    }

    /// Record one actual execution time.
    pub fn observe(&mut self, a: ActionId, q: Quality, actual: Time) {
        let i = self.cell(a, q);
        self.counts[i] += 1;
        self.sums[i] = self.sums[i].saturating_add(actual.as_ns());
        self.maxs[i] = self.maxs[i].max(actual.as_ns());
    }

    /// Total observations across all cells.
    pub fn observations(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fold the evidence into a fresh table. Cells without observations
    /// inherit the `prior`'s entries; rows are then repaired to the
    /// [`TimeTable`] invariants (monotone in quality, `Cav ≤ Cwc`) by a
    /// running max, exactly like the offline profiler.
    pub fn estimate(&self, prior: &TimeTable, wc_margin_permille: i64) -> TimeTable {
        let nq = self.n_quality;
        let mut wc = Vec::with_capacity(self.n_actions * nq);
        let mut av = Vec::with_capacity(self.n_actions * nq);
        for a in 0..self.n_actions {
            let mut run_wc = 0i64;
            let mut run_av = 0i64;
            for qi in 0..nq {
                let q = Quality::new(qi as u8);
                let i = self.cell(a, q);
                let (mut cav, mut cwc) = if self.counts[i] > 0 {
                    let mean = self.sums[i] / self.counts[i] as i64;
                    let max = self.maxs[i];
                    (mean, max + (max * wc_margin_permille + 999) / 1000)
                } else {
                    (prior.av(a, q).as_ns(), prior.wc(a, q).as_ns())
                };
                run_av = run_av.max(cav);
                cav = run_av;
                run_wc = run_wc.max(cwc).max(cav);
                cwc = run_wc;
                av.push(Time::from_ns(cav));
                wc.push(Time::from_ns(cwc));
            }
        }
        TimeTable::new(prior.qualities(), self.n_actions, wc, av)
            .expect("running-max repair yields a valid table")
    }
}

/// An [`ExecutionTimeSource`] adapter that observes the times flowing
/// through it and periodically recompiles + publishes the region table.
///
/// Wrap the *real* (possibly drifted) source with it, pair the engine
/// with an [`AdaptiveLookupManager`](sqm_core::recalib::AdaptiveLookupManager)
/// over the same [`TableCell`], and run any runner as usual: the closed
/// loop stays closed while the model tracks the platform.
///
/// A publish issued while cycle `c` executes becomes visible at the start
/// of cycle `c + 1` (the manager re-snapshots in its cycle-boundary
/// `reset`), so decisions within one cycle always see one table.
#[derive(Debug)]
pub struct RecalibratingExec<'c, E> {
    inner: E,
    cfg: RecalibrationConfig,
    cell: &'c TableCell,
    estimator: OnlineEstimator,
    sys: ParameterizedSystem,
    next_recalib_cycle: usize,
    recalibrations: u64,
    failures: u64,
}

impl<'c, E: ExecutionTimeSource> RecalibratingExec<'c, E> {
    /// Wrap `inner`, publishing recalibrated tables for `sys` (whose
    /// action list and deadlines are reused verbatim — only the timing
    /// model is re-estimated) into `cell`.
    pub fn new(
        inner: E,
        sys: &ParameterizedSystem,
        cell: &'c TableCell,
        cfg: RecalibrationConfig,
    ) -> RecalibratingExec<'c, E> {
        RecalibratingExec {
            inner,
            cfg,
            cell,
            estimator: OnlineEstimator::new(sys.n_actions(), sys.qualities().len()),
            sys: sys.clone(),
            next_recalib_cycle: cfg.warmup_cycles.max(1),
            recalibrations: 0,
            failures: 0,
        }
    }

    /// Successful table publishes so far.
    pub fn recalibrations(&self) -> u64 {
        self.recalibrations
    }

    /// Re-estimation windows abandoned because the drifted model made the
    /// system infeasible (the previous table stayed in force).
    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// The evidence accumulated so far.
    pub fn estimator(&self) -> &OnlineEstimator {
        &self.estimator
    }

    fn recalibrate(&mut self) {
        let table = self
            .estimator
            .estimate(self.sys.table(), self.cfg.wc_margin_permille);
        match ParameterizedSystem::new(
            self.sys.actions().to_vec(),
            table,
            self.sys.deadlines().clone(),
        ) {
            Ok(next) => {
                self.cell.publish(compile_regions(&next));
                self.sys = next;
                self.recalibrations += 1;
            }
            Err(_) => self.failures += 1,
        }
    }
}

impl<E: ExecutionTimeSource> ExecutionTimeSource for RecalibratingExec<'_, E> {
    fn actual(&mut self, cycle: usize, action: ActionId, q: Quality) -> Time {
        if cycle >= self.next_recalib_cycle {
            self.next_recalib_cycle = cycle + self.cfg.every_cycles.max(1);
            self.recalibrate();
        }
        let t = self.inner.actual(cycle, action, q);
        self.estimator.observe(action, q, t);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::DriftExec;
    use sqm_core::compiler::compile_regions;
    use sqm_core::controller::{ConstantExec, OverheadModel};
    use sqm_core::engine::{CycleChaining, Engine, NullSink};
    use sqm_core::manager::LookupManager;
    use sqm_core::recalib::AdaptiveLookupManager;
    use sqm_core::system::{ParameterizedSystem, SystemBuilder};

    /// Two identical 2-quality actions; final deadline admits the high
    /// quality on-model (`CD(q1) = 1100 ≤ 1300`) but not under 1.4×
    /// drift (actual 700/action → end 1400).
    fn drift_sys() -> ParameterizedSystem {
        SystemBuilder::new(2)
            .action("a", &[120, 600], &[100, 500])
            .action("b", &[120, 600], &[100, 500])
            .deadline_last(Time::from_ns(1300))
            .build()
            .unwrap()
    }

    /// The headline scenario: under a 1.4× platform drift the static
    /// table keeps choosing the (now too slow) high quality and misses
    /// every deadline; the recalibrating pair learns the drifted times,
    /// republishes, and recovers to zero misses after the swap.
    #[test]
    fn static_misses_recalibrated_recovers() {
        let sys = drift_sys();
        let regions = compile_regions(&sys);
        let period = sys.final_deadline();
        const CYCLES: usize = 20;

        let mut static_exec = DriftExec::new(ConstantExec::average(sys.table()), 1.4);
        let static_run = Engine::new(&sys, LookupManager::new(&regions), OverheadModel::ZERO)
            .run_cycles(
                CYCLES,
                period,
                CycleChaining::ArrivalClamped,
                &mut static_exec,
                &mut NullSink,
            );
        // The static table keeps re-choosing q1 whenever the backlog
        // drains (its `tD` thresholds still claim it feasible), so it
        // oscillates between missing and recovering forever.
        assert!(
            static_run.misses >= CYCLES / 2,
            "static table must keep missing under drift: {} of {CYCLES}",
            static_run.misses
        );

        let cell = TableCell::new(regions.clone());
        let cfg = RecalibrationConfig {
            warmup_cycles: 2,
            every_cycles: 4,
            wc_margin_permille: 200,
        };
        let mut exec = RecalibratingExec::new(
            DriftExec::new(ConstantExec::average(sys.table()), 1.4),
            &sys,
            &cell,
            cfg,
        );
        let run = Engine::new(&sys, AdaptiveLookupManager::new(&cell), OverheadModel::ZERO)
            .run_cycles(
                CYCLES,
                period,
                CycleChaining::ArrivalClamped,
                &mut exec,
                &mut NullSink,
            );
        assert!(exec.recalibrations() >= 1, "must have republished");
        assert_eq!(exec.failures(), 0);
        assert!(
            run.misses < static_run.misses && run.misses <= 3,
            "recalibration must stop the misses after warmup: {} vs static {}",
            run.misses,
            static_run.misses
        );
        // And the recovery is durable: a fresh run from the published
        // table alone (no further recalibration) is miss-free.
        let (_, learned) = cell.load();
        let mut settled_exec = DriftExec::new(ConstantExec::average(sys.table()), 1.4);
        let settled = Engine::new(&sys, LookupManager::new(&learned), OverheadModel::ZERO)
            .run_cycles(
                CYCLES,
                period,
                CycleChaining::ArrivalClamped,
                &mut settled_exec,
                &mut NullSink,
            );
        assert_eq!(settled.misses, 0, "post-recalibration table is safe");
    }

    /// Unobserved cells inherit the prior; observed cells follow the
    /// evidence; rows stay monotone and `Cav ≤ Cwc`.
    #[test]
    fn estimate_falls_back_and_repairs() {
        let sys = drift_sys();
        let mut est = OnlineEstimator::new(2, 2);
        // Only action 0 at q1 observed, at 700 ns.
        est.observe(0, Quality::new(1), Time::from_ns(700));
        est.observe(0, Quality::new(1), Time::from_ns(700));
        assert_eq!(est.observations(), 2);
        let t = est.estimate(sys.table(), 200);
        assert_eq!(t.av(0, Quality::new(1)), Time::from_ns(700));
        assert_eq!(t.wc(0, Quality::new(1)), Time::from_ns(840));
        // q0 of action 0 and all of action 1 fall back to the prior.
        assert_eq!(t.av(0, Quality::new(0)), Time::from_ns(100));
        assert_eq!(t.wc(1, Quality::new(1)), Time::from_ns(600));
    }

    /// A drift so large the re-estimated system is infeasible at `qmin`
    /// is counted as a failure and the seed table stays in force.
    #[test]
    fn infeasible_recalibration_is_counted_not_published() {
        let sys = drift_sys();
        let cell = TableCell::new(compile_regions(&sys));
        let cfg = RecalibrationConfig {
            warmup_cycles: 1,
            every_cycles: 2,
            wc_margin_permille: 200,
        };
        // 8× drift: even qmin costs 800/action observed → Cwc' ≈ 960 each,
        // ΣCwc'(qmin) = 1920 > D = 1300 → BuildError::InfeasibleAtMinQuality.
        let mut exec = RecalibratingExec::new(
            DriftExec::new(ConstantExec::average(sys.table()), 8.0),
            &sys,
            &cell,
            cfg,
        );
        let _ = Engine::new(&sys, AdaptiveLookupManager::new(&cell), OverheadModel::ZERO)
            .run_cycles(
                6,
                sys.final_deadline(),
                CycleChaining::ArrivalClamped,
                &mut exec,
                &mut NullSink,
            );
        assert!(exec.failures() >= 1, "infeasible windows must be counted");
        assert_eq!(
            cell.epoch(),
            exec.recalibrations(),
            "failed windows must not publish"
        );
    }
}
