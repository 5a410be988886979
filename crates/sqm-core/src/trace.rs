//! Execution traces.
//!
//! The engine records one [`ActionRecord`] per executed action; a
//! [`CycleTrace`] covers one cycle of the application software (one video
//! frame in the paper's evaluation) and a [`Trace`] a whole run. A trace
//! has no statistics of its own: [`CycleTrace::summary`] folds its records
//! into the engine's [`CycleSummary`] and [`Trace::run_summary`] into its
//! [`RunSummary`], which carry the quantities the paper reports — average
//! quality level per frame (Fig. 7), execution-time overhead of quality
//! management (§4.2, Fig. 8) and deadline misses (safety).

use crate::action::ActionId;
use crate::engine::{CycleSummary, RunSummary};
use crate::quality::Quality;
use crate::time::Time;

/// What happened around one action execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ActionRecord {
    /// Which action ran.
    pub action: ActionId,
    /// Quality level it ran at.
    pub quality: Quality,
    /// Whether the Quality Manager was actually invoked before this action
    /// (`false` for actions covered by a relaxation hold).
    pub decided: bool,
    /// Work units the QM spent, when invoked.
    pub qm_work: u64,
    /// Clock time charged for the QM invocation, when invoked.
    pub qm_overhead: Time,
    /// Cycle-relative start time of the action (after QM overhead).
    pub start: Time,
    /// Actual execution time of the action.
    pub duration: Time,
    /// Cycle-relative completion time.
    pub end: Time,
    /// `true` if this action had a deadline and completed after it.
    pub missed_deadline: bool,
    /// `true` if the QM found no feasible quality (ran at `qmin` anyway).
    pub infeasible: bool,
}

/// Records of one cycle.
#[derive(Clone, Debug, Default)]
pub struct CycleTrace {
    /// Cycle index (frame number).
    pub cycle: usize,
    /// Cycle-relative time at which the cycle began (negative = the
    /// previous cycle finished early and the budget carried over).
    pub start: Time,
    /// Per-action records, in execution order.
    pub records: Vec<ActionRecord>,
}

impl CycleTrace {
    /// Fold the records into the cycle's aggregates. This is the
    /// per-record reference that the engine's hoisted, per-decision
    /// aggregation ([`crate::engine::Engine::run_cycle`]) must reproduce
    /// exactly.
    pub fn summary(&self) -> CycleSummary {
        let mut s = CycleSummary::new(self.cycle, self.start);
        let mut prev_q: Option<Quality> = None;
        for r in &self.records {
            s.actions += 1;
            if r.decided {
                s.qm_calls += 1;
                s.qm_work += r.qm_work;
                s.qm_overhead += r.qm_overhead;
            }
            s.busy += r.duration;
            s.quality_sum += r.quality.index() as u64;
            s.min_quality = s.min_quality.min(r.quality);
            s.max_quality = s.max_quality.max(r.quality);
            if prev_q.is_some_and(|p| p != r.quality) {
                s.switches += 1;
            }
            prev_q = Some(r.quality);
            s.misses += usize::from(r.missed_deadline);
            s.infeasible += usize::from(r.infeasible);
            s.end = r.end;
        }
        if self.records.is_empty() {
            s.min_quality = Quality::MIN;
        }
        s
    }

    /// The sequence of chosen quality indices (for smoothness metrics).
    pub fn quality_sequence(&self) -> Vec<usize> {
        self.records.iter().map(|r| r.quality.index()).collect()
    }
}

/// A full multi-cycle run.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Cycle traces in order.
    pub cycles: Vec<CycleTrace>,
}

impl Trace {
    /// The run's aggregates, folded cycle by cycle through
    /// [`RunSummary::absorb`]: `engine.run_cycles(…, &mut trace)` followed
    /// by `trace.run_summary()` yields exactly the [`RunSummary`] the
    /// engine returned. Lets recorded streams (e.g. one stream of a
    /// [`crate::elastic`] run whose driver records a trace) feed the same
    /// merge path as summary-only streams.
    pub fn run_summary(&self) -> RunSummary {
        let mut run = RunSummary::default();
        for c in &self.cycles {
            run.absorb(&c.summary());
        }
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(action: usize, q: u8, decided: bool, overhead_ns: i64, dur_ns: i64) -> ActionRecord {
        ActionRecord {
            action,
            quality: Quality::new(q),
            decided,
            qm_work: 1,
            qm_overhead: Time::from_ns(overhead_ns),
            start: Time::ZERO,
            duration: Time::from_ns(dur_ns),
            end: Time::from_ns(dur_ns),
            missed_deadline: false,
            infeasible: false,
        }
    }

    fn cycle() -> CycleTrace {
        CycleTrace {
            cycle: 0,
            start: Time::ZERO,
            records: vec![
                record(0, 2, true, 10, 90),
                record(1, 2, false, 0, 90),
                record(2, 1, true, 10, 80),
                record(3, 3, true, 10, 120),
            ],
        }
    }

    #[test]
    fn cycle_summary_aggregates() {
        let s = cycle().summary();
        assert_eq!(s.actions, 4);
        assert_eq!(s.quality_sum, 8);
        assert!((s.avg_quality() - 2.0).abs() < 1e-12);
        assert_eq!(s.min_quality, Quality::new(1));
        assert_eq!(s.max_quality, Quality::new(3));
        assert_eq!(s.qm_calls, 3);
        assert_eq!(s.qm_work, 3, "only decided records carry work");
        assert_eq!(s.qm_overhead, Time::from_ns(30));
        assert_eq!(s.busy, Time::from_ns(380));
        assert_eq!(s.switches, 2);
        assert_eq!(s.misses, 0);
        assert_eq!(s.end, Time::from_ns(120));
        assert!((s.overhead_ratio() - 30.0 / 410.0).abs() < 1e-12);
    }

    #[test]
    fn empty_cycle_summary_is_sane() {
        let c = CycleTrace {
            cycle: 7,
            start: Time::from_ns(-5),
            records: Vec::new(),
        };
        let s = c.summary();
        let mut expected = CycleSummary::new(7, Time::from_ns(-5));
        expected.min_quality = Quality::MIN;
        assert_eq!(s, expected);
        assert_eq!(s.end, c.start);
        assert_eq!(s.avg_quality(), 0.0);
        assert_eq!(s.overhead_ratio(), 0.0);
    }

    #[test]
    fn trace_run_summary_folds_cycles() {
        let t = Trace {
            cycles: vec![cycle(), cycle()],
        };
        let run = t.run_summary();
        assert_eq!(run.cycles, 2);
        assert_eq!(run.actions, 8);
        assert_eq!(run.qm_calls, 6);
        assert_eq!(run.misses, 0);
        assert!((run.avg_quality() - 2.0).abs() < 1e-12);
        assert!((run.overhead_ratio() - 60.0 / 820.0).abs() < 1e-12);
    }

    #[test]
    fn miss_and_infeasible_counted() {
        let mut c = cycle();
        c.records[3].missed_deadline = true;
        c.records[2].infeasible = true;
        let s = c.summary();
        assert_eq!(s.misses, 1);
        assert_eq!(s.infeasible, 1);
        let t = Trace { cycles: vec![c] };
        assert_eq!(t.run_summary().misses, 1);
        assert_eq!(t.run_summary().infeasible, 1);
    }

    #[test]
    fn quality_sequence_extraction() {
        assert_eq!(cycle().quality_sequence(), vec![2, 2, 1, 3]);
    }

    #[test]
    fn empty_trace_summary_is_the_default() {
        let run = Trace::default().run_summary();
        assert_eq!(run, RunSummary::default());
        assert_eq!(run.avg_quality(), 0.0);
        assert_eq!(run.overhead_ratio(), 0.0);
    }
}
