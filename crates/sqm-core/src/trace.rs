//! Execution traces and their statistics.
//!
//! The controller records one [`ActionRecord`] per executed action; a
//! [`CycleTrace`] covers one cycle of the application software (one video
//! frame in the paper's evaluation) and a [`Trace`] a whole run. The
//! statistics here are the quantities the paper reports: average quality
//! level per frame (Fig. 7), execution-time overhead of quality management
//! (§4.2, Fig. 8), deadline misses (safety), and budget utilization
//! (optimality).

use crate::action::ActionId;
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

/// Aggregated statistics of one cycle.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CycleStats {
    /// Mean quality level over the cycle's actions.
    pub avg_quality: f64,
    /// Lowest quality level used.
    pub min_quality: Quality,
    /// Highest quality level used.
    pub max_quality: Quality,
    /// Number of QM invocations (`= |records|` without relaxation).
    pub qm_calls: usize,
    /// Total clock time charged to the QM.
    pub qm_overhead: Time,
    /// Total action execution time.
    pub busy: Time,
    /// `qm_overhead / (qm_overhead + busy)` — the §4.2 overhead metric.
    pub overhead_ratio: f64,
    /// Number of quality-level switches between consecutive actions.
    pub switches: usize,
    /// Deadline misses in this cycle.
    pub misses: usize,
    /// Infeasible decisions in this cycle.
    pub infeasible: usize,
    /// Cycle-relative completion time of the last action.
    pub end: Time,
}

impl CycleTrace {
    /// Compute aggregate statistics.
    pub fn stats(&self) -> CycleStats {
        let mut quality_sum = 0.0;
        let mut min_q = Quality::new(u8::MAX);
        let mut max_q = Quality::MIN;
        let mut qm_calls = 0;
        let mut qm_overhead = Time::ZERO;
        let mut busy = Time::ZERO;
        let mut switches = 0;
        let mut misses = 0;
        let mut infeasible = 0;
        let mut prev_q: Option<Quality> = None;
        let mut end = self.start;
        for r in &self.records {
            quality_sum += r.quality.index() as f64;
            min_q = min_q.min(r.quality);
            max_q = max_q.max(r.quality);
            if r.decided {
                qm_calls += 1;
                qm_overhead += r.qm_overhead;
            }
            busy += r.duration;
            if prev_q.is_some_and(|p| p != r.quality) {
                switches += 1;
            }
            prev_q = Some(r.quality);
            misses += usize::from(r.missed_deadline);
            infeasible += usize::from(r.infeasible);
            end = r.end;
        }
        let n = self.records.len().max(1) as f64;
        let total = qm_overhead + busy;
        let overhead_ratio = if total > Time::ZERO {
            qm_overhead.as_ns() as f64 / total.as_ns() as f64
        } else {
            0.0
        };
        CycleStats {
            avg_quality: quality_sum / n,
            min_quality: if self.records.is_empty() {
                Quality::MIN
            } else {
                min_q
            },
            max_quality: max_q,
            qm_calls,
            qm_overhead,
            busy,
            overhead_ratio,
            switches,
            misses,
            infeasible,
            end,
        }
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
    /// Per-cycle statistics.
    pub fn cycle_stats(&self) -> Vec<CycleStats> {
        self.cycles.iter().map(CycleTrace::stats).collect()
    }

    /// Mean quality over all actions of all cycles.
    pub fn avg_quality(&self) -> f64 {
        let (sum, count) = self
            .cycles
            .iter()
            .flat_map(|c| &c.records)
            .fold((0.0, 0usize), |(s, n), r| {
                (s + r.quality.index() as f64, n + 1)
            });
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }

    /// Total QM overhead ratio across the run (the §4.2 headline numbers:
    /// 5.7 % numeric, 1.9 % regions, <1.1 % relaxation).
    pub fn overhead_ratio(&self) -> f64 {
        let mut qm = 0i64;
        let mut busy = 0i64;
        for r in self.cycles.iter().flat_map(|c| &c.records) {
            if r.decided {
                qm += r.qm_overhead.as_ns();
            }
            busy += r.duration.as_ns();
        }
        if qm + busy == 0 {
            0.0
        } else {
            qm as f64 / (qm + busy) as f64
        }
    }

    /// Total number of deadline misses.
    pub fn total_misses(&self) -> usize {
        self.cycles
            .iter()
            .flat_map(|c| &c.records)
            .filter(|r| r.missed_deadline)
            .count()
    }

    /// Total number of QM invocations.
    pub fn total_qm_calls(&self) -> usize {
        self.cycles
            .iter()
            .flat_map(|c| &c.records)
            .filter(|r| r.decided)
            .count()
    }

    /// Total number of executed actions.
    pub fn total_actions(&self) -> usize {
        self.cycles.iter().map(|c| c.records.len()).sum()
    }

    /// Reconstruct the engine's in-place aggregates from a materialized
    /// trace: `engine.run_cycles(…, &mut trace)` followed by
    /// `trace.run_summary()` yields exactly the [`RunSummary`] the engine
    /// returned. Lets recorded streams (e.g. one stream of a
    /// [`crate::elastic`] run whose driver records a trace) feed the same
    /// merge path as summary-only streams.
    ///
    /// [`RunSummary`]: crate::engine::RunSummary
    pub fn run_summary(&self) -> crate::engine::RunSummary {
        let mut run = crate::engine::RunSummary::default();
        for c in &self.cycles {
            run.cycles += 1;
            let mut end = c.start;
            for r in &c.records {
                run.actions += 1;
                if r.decided {
                    run.qm_calls += 1;
                    run.qm_work += r.qm_work;
                    run.qm_overhead += r.qm_overhead;
                }
                run.busy += r.duration;
                run.quality_sum += r.quality.index() as u64;
                run.misses += usize::from(r.missed_deadline);
                run.infeasible += usize::from(r.infeasible);
                end = r.end;
            }
            // Same reduction as `RunSummary::absorb`/`merge`: seed from
            // the first cycle, then the latest completion over all cycles
            // — not the final cycle's (which can be earlier under
            // work-conserving earliness), and not the empty default
            // (which would floor all-negative ends at zero).
            run.last_end = if run.cycles == 1 {
                end
            } else {
                run.last_end.max(end)
            };
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
    fn cycle_stats_aggregate() {
        let c = cycle();
        let s = c.stats();
        assert!((s.avg_quality - 2.0).abs() < 1e-12);
        assert_eq!(s.min_quality, Quality::new(1));
        assert_eq!(s.max_quality, Quality::new(3));
        assert_eq!(s.qm_calls, 3);
        assert_eq!(s.qm_overhead, Time::from_ns(30));
        assert_eq!(s.busy, Time::from_ns(380));
        assert_eq!(s.switches, 2);
        assert_eq!(s.misses, 0);
        let expected_ratio = 30.0 / 410.0;
        assert!((s.overhead_ratio - expected_ratio).abs() < 1e-12);
    }

    #[test]
    fn empty_cycle_stats_are_sane() {
        let c = CycleTrace::default();
        let s = c.stats();
        assert_eq!(s.avg_quality, 0.0);
        assert_eq!(s.overhead_ratio, 0.0);
        assert_eq!(s.qm_calls, 0);
    }

    #[test]
    fn trace_aggregates() {
        let t = Trace {
            cycles: vec![cycle(), cycle()],
        };
        assert_eq!(t.total_actions(), 8);
        assert_eq!(t.total_qm_calls(), 6);
        assert_eq!(t.total_misses(), 0);
        assert!((t.avg_quality() - 2.0).abs() < 1e-12);
        assert!((t.overhead_ratio() - 60.0 / 820.0).abs() < 1e-12);
        assert_eq!(t.cycle_stats().len(), 2);
    }

    #[test]
    fn miss_and_infeasible_counted() {
        let mut c = cycle();
        c.records[3].missed_deadline = true;
        c.records[2].infeasible = true;
        let s = c.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.infeasible, 1);
        let t = Trace { cycles: vec![c] };
        assert_eq!(t.total_misses(), 1);
    }

    #[test]
    fn quality_sequence_extraction() {
        assert_eq!(cycle().quality_sequence(), vec![2, 2, 1, 3]);
    }

    #[test]
    fn empty_trace_avg_quality_zero() {
        assert_eq!(Trace::default().avg_quality(), 0.0);
        assert_eq!(Trace::default().overhead_ratio(), 0.0);
    }
}
