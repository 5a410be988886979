//! The monomorphized execution engine — the one decide → charge-overhead →
//! execute → check-deadline loop every runner in the workspace shares.
//!
//! Every closed-loop caller — one cycle ([`Engine::run_cycle`]) or many
//! chained onto one clock ([`Engine::run_cycles`]) — calls it directly with
//! the sink it needs, and the streaming, elastic and multi-task layers
//! drive the same loop. It is the system's hot path: the paper's whole
//! argument (Fig. 7/8) is that cheap quality management leaves more budget
//! for the application, so the loop itself must not spend time on
//! bookkeeping. The engine therefore is:
//!
//! * **statically dispatched** — generic over `M:`[`QualityManager`] and
//!   `X:`[`ExecutionTimeSource`]; every manager/source pairing
//!   monomorphizes to straight-line code. No `Box<dyn …>` anywhere.
//! * **allocation-free on the hot path** — the loop writes
//!   [`ActionRecord`]s through a [`TraceSink`], and the built-in sinks
//!   either aggregate in place ([`CycleSummary`] / [`RunSummary`], plain
//!   `Copy` structs) or append to **caller-provided buffers**
//!   ([`RecordBuffer`]) whose capacity is reused across cycles. Recording
//!   can be compiled out entirely with [`NullSink`].
//!
//! A caller who wants the records materializes them with a
//! [`Trace`] sink (or a [`RecordBuffer`]); [`CycleTrace::summary`] and
//! [`Trace::run_summary`] fold them back into exactly the aggregates the
//! engine returned.

use crate::controller::{ExecutionTimeSource, OverheadModel};
use crate::manager::QualityManager;
use crate::quality::Quality;
use crate::system::ParameterizedSystem;
use crate::time::Time;
use crate::trace::{ActionRecord, CycleTrace, Trace};

/// Receives the engine's per-action records and cycle boundaries.
///
/// Sinks let one monomorphized loop serve every consumer: full traces,
/// caller-owned buffers, pure aggregation, or nothing at all. All methods
/// default to no-ops so stat-only sinks implement exactly what they need.
pub trait TraceSink {
    /// Whether this sink consumes per-action records. Aggregation-only
    /// sinks ([`NullSink`]) set this to `false`, and the engine's
    /// monomorphized loop then skips [`ActionRecord`] construction
    /// entirely — the summary-only path compiles down to pure arithmetic.
    const WANTS_RECORDS: bool = true;

    /// A cycle is starting at cycle-relative time `start`;
    /// `expected_actions` is the system's action count, so recording sinks
    /// can reserve capacity up front.
    fn begin_cycle(&mut self, _cycle: usize, _start: Time, _expected_actions: usize) {}

    /// One action finished executing.
    fn record(&mut self, _record: &ActionRecord) {}

    /// The cycle that most recently began has finished.
    fn end_cycle(&mut self, _summary: &CycleSummary) {}
}

/// Discards all records; the engine still returns summaries. The fastest
/// path — used by benches measuring pure decide/execute cost.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    const WANTS_RECORDS: bool = false;
}

/// Appends records to a caller-provided buffer. The engine never clears
/// the buffer — the caller owns its lifecycle and can reuse its capacity
/// across cycles or runs (zero steady-state allocation).
#[derive(Debug)]
pub struct RecordBuffer<'b> {
    buf: &'b mut Vec<ActionRecord>,
}

impl<'b> RecordBuffer<'b> {
    /// Wrap `buf`; records are appended in execution order.
    pub fn new(buf: &'b mut Vec<ActionRecord>) -> RecordBuffer<'b> {
        RecordBuffer { buf }
    }
}

impl TraceSink for RecordBuffer<'_> {
    fn record(&mut self, record: &ActionRecord) {
        self.buf.push(*record);
    }
}

impl TraceSink for Trace {
    fn begin_cycle(&mut self, cycle: usize, start: Time, expected_actions: usize) {
        self.cycles.push(CycleTrace {
            cycle,
            start,
            records: Vec::with_capacity(expected_actions),
        });
    }

    fn record(&mut self, record: &ActionRecord) {
        self.cycles
            .last_mut()
            .expect("begin_cycle precedes record")
            .records
            .push(*record);
    }
}

impl<S: TraceSink> TraceSink for &mut S {
    const WANTS_RECORDS: bool = S::WANTS_RECORDS;

    fn begin_cycle(&mut self, cycle: usize, start: Time, expected_actions: usize) {
        (**self).begin_cycle(cycle, start, expected_actions);
    }

    fn record(&mut self, record: &ActionRecord) {
        (**self).record(record);
    }

    fn end_cycle(&mut self, summary: &CycleSummary) {
        (**self).end_cycle(summary);
    }
}

/// Tees one record stream into two sinks.
#[derive(Debug)]
pub struct Tee<'a, A, B>(pub &'a mut A, pub &'a mut B);

impl<A: TraceSink, B: TraceSink> TraceSink for Tee<'_, A, B> {
    const WANTS_RECORDS: bool = A::WANTS_RECORDS || B::WANTS_RECORDS;

    fn begin_cycle(&mut self, cycle: usize, start: Time, expected_actions: usize) {
        self.0.begin_cycle(cycle, start, expected_actions);
        self.1.begin_cycle(cycle, start, expected_actions);
    }

    fn record(&mut self, record: &ActionRecord) {
        self.0.record(record);
        self.1.record(record);
    }

    fn end_cycle(&mut self, summary: &CycleSummary) {
        self.0.end_cycle(summary);
        self.1.end_cycle(summary);
    }
}

/// In-place aggregates of one cycle, computed without storing records.
/// [`CycleTrace::summary`] folds a recorded cycle into the same struct.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CycleSummary {
    /// Cycle index.
    pub cycle: usize,
    /// Cycle-relative start time.
    pub start: Time,
    /// Completion time of the last action.
    pub end: Time,
    /// Actions executed.
    pub actions: usize,
    /// Quality-manager invocations.
    pub qm_calls: usize,
    /// Work units the manager reported across the cycle.
    pub qm_work: u64,
    /// Clock time charged for manager invocations.
    pub qm_overhead: Time,
    /// Total action execution time.
    pub busy: Time,
    /// Sum of chosen quality indices (for averages).
    pub quality_sum: u64,
    /// Lowest quality level used (`Quality::MIN` when no actions ran).
    pub min_quality: Quality,
    /// Highest quality level used.
    pub max_quality: Quality,
    /// Quality switches between consecutive actions.
    pub switches: usize,
    /// Deadline misses.
    pub misses: usize,
    /// Infeasible decisions.
    pub infeasible: usize,
}

impl CycleSummary {
    /// An empty summary for cycle `cycle` starting (cycle-relative) at
    /// `start`: no actions yet, `end == start`, quality extrema at their
    /// fold identities.
    pub fn new(cycle: usize, start: Time) -> CycleSummary {
        CycleSummary {
            cycle,
            start,
            end: start,
            actions: 0,
            qm_calls: 0,
            qm_work: 0,
            qm_overhead: Time::ZERO,
            busy: Time::ZERO,
            quality_sum: 0,
            min_quality: Quality::new(u8::MAX),
            max_quality: Quality::MIN,
            switches: 0,
            misses: 0,
            infeasible: 0,
        }
    }

    /// Mean quality level over the cycle's actions.
    pub fn avg_quality(&self) -> f64 {
        mean_quality(self.quality_sum, self.actions)
    }

    /// `qm_overhead / (qm_overhead + busy)` — the paper's §4.2 metric.
    pub fn overhead_ratio(&self) -> f64 {
        overhead_fraction(self.qm_overhead, self.busy)
    }
}

/// Mean quality index over `actions` executed actions (0 for empty runs).
pub fn mean_quality(quality_sum: u64, actions: usize) -> f64 {
    quality_sum as f64 / actions.max(1) as f64
}

/// `qm_overhead / (qm_overhead + busy)`, the paper's §4.2 overhead metric
/// (0 when nothing ran). The single definition shared by every summary
/// type in the workspace.
pub fn overhead_fraction(qm_overhead: Time, busy: Time) -> f64 {
    let total = qm_overhead + busy;
    if total > Time::ZERO {
        qm_overhead.as_ns() as f64 / total.as_ns() as f64
    } else {
        0.0
    }
}

/// Whole-run aggregates — the zero-allocation counterpart of walking a
/// [`Trace`] after the fact.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunSummary {
    /// Cycles executed.
    pub cycles: usize,
    /// Actions executed.
    pub actions: usize,
    /// Quality-manager invocations.
    pub qm_calls: usize,
    /// Total manager work units.
    pub qm_work: u64,
    /// Total clock time charged to the manager.
    pub qm_overhead: Time,
    /// Total action execution time.
    pub busy: Time,
    /// Sum of chosen quality indices.
    pub quality_sum: u64,
    /// Total deadline misses.
    pub misses: usize,
    /// Total infeasible decisions.
    pub infeasible: usize,
    /// Latest cycle-relative completion time over the run's cycles
    /// ([`Time::ZERO`] for empty runs).
    ///
    /// Under work-conserving earliness a *later* cycle can finish at an
    /// *earlier* relative time (even a negative one — and with prefetch
    /// ahead of late first arrivals, *every* end can be negative), so
    /// every reduction path — [`RunSummary::absorb`] (which
    /// [`crate::trace::Trace::run_summary`] folds through) and
    /// [`RunSummary::merge`] — seeds from the first non-empty contribution
    /// and takes the `max` from there, never the final cycle's value and
    /// never the empty default. One semantics for serial, trace-replay and
    /// fleet-merge alike.
    pub last_end: Time,
}

impl RunSummary {
    /// Fold one cycle's summary into the run.
    pub fn absorb(&mut self, c: &CycleSummary) {
        self.cycles += 1;
        self.actions += c.actions;
        self.qm_calls += c.qm_calls;
        self.qm_work += c.qm_work;
        self.qm_overhead += c.qm_overhead;
        self.busy += c.busy;
        self.quality_sum += c.quality_sum;
        self.misses += c.misses;
        self.infeasible += c.infeasible;
        // `max`, not overwrite: an early-finishing final cycle (end ≤
        // start, possible under work-conserving earliness) must not drag
        // `last_end` backwards — `merge` takes the max the same way, and
        // the serial and fleet-merge reductions have to agree
        // byte-for-byte. The first cycle *seeds* rather than maxes so the
        // empty-run default of zero cannot mask all-negative ends.
        self.last_end = if self.cycles == 1 {
            c.end
        } else {
            self.last_end.max(c.end)
        };
    }

    /// Fold another run's aggregates into this one — the reduction step of
    /// multi-stream execution ([`crate::elastic`]): each stream
    /// accumulates its own `RunSummary`, and the runner merges them in
    /// submission order afterwards.
    ///
    /// All counters add; `last_end` keeps the later of the two completion
    /// times (the merged runs are concurrent, not consecutive), with an
    /// empty side contributing nothing — so the default value is a true
    /// merge identity even for runs whose every end is negative.
    pub fn merge(&mut self, other: &RunSummary) {
        self.last_end = if self.cycles == 0 {
            other.last_end
        } else if other.cycles == 0 {
            self.last_end
        } else {
            self.last_end.max(other.last_end)
        };
        self.cycles += other.cycles;
        self.actions += other.actions;
        self.qm_calls += other.qm_calls;
        self.qm_work += other.qm_work;
        self.qm_overhead += other.qm_overhead;
        self.busy += other.busy;
        self.quality_sum += other.quality_sum;
        self.misses += other.misses;
        self.infeasible += other.infeasible;
    }

    /// Mean quality level over all actions.
    pub fn avg_quality(&self) -> f64 {
        mean_quality(self.quality_sum, self.actions)
    }

    /// Total QM overhead ratio (§4.2: 5.7 % numeric, 1.9 % regions,
    /// <1.1 % relaxation).
    pub fn overhead_ratio(&self) -> f64 {
        overhead_fraction(self.qm_overhead, self.busy)
    }
}

/// How consecutive cycles chain onto the shared clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CycleChaining {
    /// Streaming (file encode): earliness carries over — a cycle may start
    /// before its period boundary and bank the extra budget.
    WorkConserving,
    /// Live capture: input for cycle `c` only exists from `c · period`, so
    /// starts clamp at 0 cycle-relative.
    ArrivalClamped,
}

impl CycleChaining {
    /// Absolute start time of a frame arriving at `arrival` on a stream
    /// whose last frame completed at `now`: `max(now, arrival)` under
    /// [`CycleChaining::ArrivalClamped`], `now` under
    /// [`CycleChaining::WorkConserving`] (the frame may start before it
    /// arrives).
    #[inline]
    pub fn start_at(self, now: Time, arrival: Time) -> Time {
        match self {
            CycleChaining::ArrivalClamped => now.max(arrival),
            CycleChaining::WorkConserving => now,
        }
    }
}

/// The shared engine: composes `PS ‖ Γ` under an overhead model and runs
/// cycles against any execution-time source, streaming records into any
/// sink. Construction is cheap; all state lives in the manager.
///
/// # Examples
///
/// One decide → charge-overhead → execute → check-deadline run over a
/// three-action system, aggregating in place (no trace materialized):
///
/// ```
/// use sqm_core::controller::{ConstantExec, OverheadModel};
/// use sqm_core::engine::{CycleChaining, Engine, NullSink};
/// use sqm_core::manager::NumericManager;
/// use sqm_core::policy::MixedPolicy;
/// use sqm_core::system::SystemBuilder;
/// use sqm_core::time::Time;
///
/// let sys = SystemBuilder::new(2)
///     .action("decode", &[100, 200], &[60, 120])
///     .action("transform", &[150, 300], &[90, 180])
///     .action("render", &[100, 200], &[60, 120])
///     .deadline_last(Time::from_ns(700))
///     .build()
///     .unwrap();
/// let policy = MixedPolicy::new(&sys);
/// let manager = NumericManager::new(&sys, &policy);
///
/// let mut engine = Engine::new(&sys, manager, OverheadModel::ZERO);
/// let run = engine.run_cycles(
///     10,
///     Time::from_ns(700),
///     CycleChaining::WorkConserving,
///     &mut ConstantExec::average(sys.table()),
///     &mut NullSink,
/// );
///
/// assert_eq!(run.cycles, 10);
/// assert_eq!(run.actions, 30);
/// assert_eq!(run.misses, 0, "the controller never misses a deadline");
/// ```
pub struct Engine<'a, M: QualityManager> {
    sys: &'a ParameterizedSystem,
    manager: M,
    overhead: OverheadModel,
}

impl<'a, M: QualityManager> Engine<'a, M> {
    /// An engine composing `sys` with `manager` under `overhead`.
    pub fn new(sys: &'a ParameterizedSystem, manager: M, overhead: OverheadModel) -> Self {
        Engine {
            sys,
            manager,
            overhead,
        }
    }

    /// The controlled system.
    pub fn system(&self) -> &'a ParameterizedSystem {
        self.sys
    }

    /// Access the wrapped manager.
    pub fn manager(&mut self) -> &mut M {
        &mut self.manager
    }

    /// Recover the manager (e.g. to rewrap it differently).
    pub fn into_manager(self) -> M {
        self.manager
    }

    /// Execute one cycle starting at cycle-relative time `start` (negative
    /// when the previous cycle finished early). Actual times come from
    /// `exec`; records stream into `sink`. Returns the cycle's aggregates.
    ///
    /// This is *the* hot loop: decide, charge the decision's cost to the
    /// clock, then execute the decision's whole `hold` span through a tight
    /// inner loop. Everything constant across the span — the chosen
    /// quality, the switch test, the quality-sum/min/max bookkeeping, the
    /// decision's work and overhead — is folded in **once per decision**,
    /// so the per-step body is just: pull an actual time, advance the
    /// clock, check the deadline. When the sink does not consume records
    /// ([`TraceSink::WANTS_RECORDS`] is `false`, e.g. [`NullSink`]),
    /// [`ActionRecord`] construction is compiled out of the loop entirely.
    pub fn run_cycle<X, S>(
        &mut self,
        cycle: usize,
        start: Time,
        exec: &mut X,
        sink: &mut S,
    ) -> CycleSummary
    where
        X: ExecutionTimeSource,
        S: TraceSink,
    {
        let n = self.sys.n_actions();
        let deadlines = self.sys.deadlines().as_slice();
        let mut summary = CycleSummary::new(cycle, start);
        let mut prev_q: Option<Quality> = None;
        sink.begin_cycle(cycle, start, n);
        self.manager.reset();
        let mut t = start;
        let mut i = 0;
        while i < n {
            let decision = self.manager.decide(i, t);
            let overhead = self.overhead.cost(decision.work);
            t += overhead;
            // A zero hold must still make progress; an oversized hold is
            // clamped to the remaining actions.
            let hold = decision.hold.clamp(1, n - i);
            let quality = decision.quality;
            // Per-decision bookkeeping, hoisted out of the hold span.
            summary.actions += hold;
            summary.qm_calls += 1;
            summary.qm_work += decision.work;
            summary.qm_overhead += overhead;
            summary.quality_sum += quality.index() as u64 * hold as u64;
            summary.min_quality = summary.min_quality.min(quality);
            summary.max_quality = summary.max_quality.max(quality);
            if prev_q.is_some_and(|p| p != quality) {
                summary.switches += 1;
            }
            prev_q = Some(quality);
            summary.infeasible += usize::from(decision.infeasible);
            // The tight inner loop over the span's pre-read deadline row.
            for (step, &deadline) in deadlines[i..i + hold].iter().enumerate() {
                let duration = exec.actual(cycle, i, quality);
                let end = t + duration;
                let missed = deadline.is_some_and(|d| end > d);
                summary.busy += duration;
                summary.misses += usize::from(missed);
                if S::WANTS_RECORDS {
                    let first = step == 0;
                    sink.record(&ActionRecord {
                        action: i,
                        quality,
                        decided: first,
                        qm_work: if first { decision.work } else { 0 },
                        qm_overhead: if first { overhead } else { Time::ZERO },
                        start: t,
                        duration,
                        end,
                        missed_deadline: missed,
                        infeasible: first && decision.infeasible,
                    });
                }
                t = end;
                i += 1;
            }
            summary.end = t;
        }
        if summary.actions == 0 {
            // Match `CycleTrace::summary` on empty cycles.
            summary.min_quality = Quality::MIN;
        }
        sink.end_cycle(&summary);
        summary
    }

    /// Run `cycles` consecutive cycles with per-cycle period `period`,
    /// carrying time across boundaries per `chaining`. Returns whole-run
    /// aggregates; per-action data streams into `sink`.
    pub fn run_cycles<X, S>(
        &mut self,
        cycles: usize,
        period: Time,
        chaining: CycleChaining,
        exec: &mut X,
        sink: &mut S,
    ) -> RunSummary
    where
        X: ExecutionTimeSource,
        S: TraceSink,
    {
        let mut run = RunSummary::default();
        let mut start_rel = Time::ZERO;
        for c in 0..cycles {
            let summary = self.run_cycle(c, start_rel, exec, sink);
            run.absorb(&summary);
            start_rel = summary.end - period;
            if chaining == CycleChaining::ArrivalClamped {
                start_rel = start_rel.max(Time::ZERO);
            }
        }
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{compile_regions, compile_relaxation};
    use crate::controller::{ConstantExec, FnExec};
    use crate::manager::{Decision, LookupManager, NumericManager, RelaxedManager};
    use crate::policy::{MixedPolicy, Policy};
    use crate::relaxation::StepSet;
    use crate::system::SystemBuilder;

    fn sys() -> ParameterizedSystem {
        SystemBuilder::new(3)
            .action("a", &[10, 25, 40], &[4, 9, 14])
            .action("b", &[12, 22, 35], &[6, 11, 17])
            .action("c", &[8, 18, 28], &[3, 8, 12])
            .action("d", &[15, 24, 33], &[7, 12, 16])
            .deadline_last(Time::from_ns(130))
            .build()
            .unwrap()
    }

    /// One cycle from time 0, materialized.
    fn one_cycle<M: QualityManager, X: ExecutionTimeSource>(
        s: &ParameterizedSystem,
        manager: M,
        overhead: OverheadModel,
        exec: &mut X,
    ) -> CycleTrace {
        let mut trace = Trace::default();
        Engine::new(s, manager, overhead).run_cycle(0, Time::ZERO, exec, &mut trace);
        trace.cycles.pop().unwrap()
    }

    /// Collects the engine's per-cycle summaries.
    #[derive(Default)]
    struct Summaries(Vec<CycleSummary>);

    impl TraceSink for Summaries {
        const WANTS_RECORDS: bool = false;

        fn end_cycle(&mut self, summary: &CycleSummary) {
            self.0.push(*summary);
        }
    }

    /// The engine's hoisted, per-decision aggregates equal the per-record
    /// fold of the trace it produced: every cycle's whole [`CycleSummary`]
    /// and the whole [`RunSummary`].
    fn assert_summaries_match<M: QualityManager>(
        s: &ParameterizedSystem,
        manager: M,
        chaining: CycleChaining,
    ) {
        let overhead = OverheadModel::new(Time::from_ns(2), Time::from_ns(1));
        let table = s.table();
        // Average times with worst cases on every third action, plus one
        // contract violation, so runs switch quality and miss.
        let mut exec = FnExec(|c: usize, a: usize, q| match (c + a) % 3 {
            _ if (c, a) == (2, 1) => table.wc(a, q) + Time::from_ns(60),
            0 => table.wc(a, q),
            _ => table.av(a, q),
        });
        let mut trace = Trace::default();
        let mut summaries = Summaries::default();
        let run = Engine::new(s, manager, overhead).run_cycles(
            6,
            Time::from_ns(130),
            chaining,
            &mut exec,
            &mut Tee(&mut trace, &mut summaries),
        );
        assert_eq!(summaries.0.len(), trace.cycles.len());
        for (summary, cycle) in summaries.0.iter().zip(&trace.cycles) {
            assert_eq!(*summary, cycle.summary(), "{chaining:?}");
        }
        assert_eq!(run, trace.run_summary(), "{chaining:?}");
        assert!(run.qm_overhead > Time::ZERO);
    }

    #[test]
    fn summaries_match_the_trace_fold() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let regions = compile_regions(&s);
        let relaxation = compile_relaxation(&s, &regions, StepSet::new(vec![1, 2, 3]).unwrap());
        for chaining in [CycleChaining::WorkConserving, CycleChaining::ArrivalClamped] {
            assert_summaries_match(&s, NumericManager::new(&s, &p), chaining);
            assert_summaries_match(&s, LookupManager::new(&regions), chaining);
            assert_summaries_match(&s, RelaxedManager::new(&regions, &relaxation), chaining);
        }
    }

    #[test]
    fn average_run_meets_deadline_at_high_quality() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let c = one_cycle(
            &s,
            NumericManager::new(&s, &p),
            OverheadModel::ZERO,
            &mut ConstantExec::average(s.table()),
        );
        assert_eq!(c.records.len(), 4);
        assert_eq!(c.summary().misses, 0);
        // With averages well below the deadline the manager should reach
        // above-minimum quality.
        assert!(c.summary().avg_quality() > 0.0);
    }

    #[test]
    fn worst_case_run_is_safe_and_decisions_feasible() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let c = one_cycle(
            &s,
            NumericManager::new(&s, &p),
            OverheadModel::ZERO,
            &mut ConstantExec::worst_case(s.table()),
        );
        assert_eq!(c.summary().misses, 0, "mixed policy must absorb worst case");
        let mut t = Time::ZERO;
        for r in &c.records {
            assert!(
                p.t_d(r.action, r.quality) >= t,
                "chosen quality feasible at decision time"
            );
            t = r.end;
        }
    }

    #[test]
    fn overhead_is_charged_to_the_clock() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let run = |overhead| {
            one_cycle(
                &s,
                NumericManager::new(&s, &p),
                overhead,
                &mut ConstantExec::average(s.table()),
            )
        };
        let free = run(OverheadModel::ZERO);
        let costly = run(OverheadModel::new(Time::from_ns(3), Time::from_ns(1)));
        assert!(costly.summary().end > free.summary().end);
        assert!(costly.summary().qm_overhead > Time::ZERO);
        assert!(costly.summary().overhead_ratio() > 0.0);
    }

    #[test]
    fn contract_violation_surfaces_as_a_miss() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        // Actual times above Cwc: the engine must *detect* the miss.
        let c = one_cycle(
            &s,
            NumericManager::new(&s, &p),
            OverheadModel::ZERO,
            &mut FnExec(|_c, _a, _q| Time::from_ns(100)),
        );
        assert!(c.summary().misses > 0);
    }

    #[test]
    fn intermediate_deadline_miss_is_attributed_to_the_right_action() {
        let s = SystemBuilder::new(1)
            .action("a", &[100], &[50])
            .action("b", &[100], &[50])
            .deadline(0, Time::from_ns(100))
            .deadline_last(Time::from_ns(400))
            .build()
            .unwrap();
        let p = MixedPolicy::new(&s);
        // Violate the contract on the first action only.
        let c = one_cycle(
            &s,
            NumericManager::new(&s, &p),
            OverheadModel::ZERO,
            &mut FnExec(|_c, a: usize, _q| Time::from_ns(if a == 0 { 150 } else { 10 })),
        );
        assert!(c.records[0].missed_deadline);
        assert!(
            !c.records[1].missed_deadline,
            "the final deadline still held"
        );
    }

    /// A manager demanding a fixed hold on every decision.
    struct FixedHold(usize);

    impl QualityManager for FixedHold {
        fn decide(&mut self, _state: usize, _t: Time) -> Decision {
            Decision {
                quality: Quality::MIN,
                hold: self.0,
                work: 1,
                infeasible: false,
            }
        }

        fn name(&self) -> &'static str {
            "fixed-hold"
        }
    }

    #[test]
    fn oversized_hold_is_clamped_and_zero_hold_progresses() {
        let s = sys();
        let mut exec = ConstantExec::average(s.table());
        let c = one_cycle(&s, FixedHold(usize::MAX), OverheadModel::ZERO, &mut exec);
        assert_eq!(c.records.len(), 4);
        assert!(c.records[0].decided);
        assert!(c.records[1..].iter().all(|r| !r.decided));
        let c = one_cycle(&s, FixedHold(0), OverheadModel::ZERO, &mut exec);
        assert_eq!(c.records.len(), 4);
        assert!(c.records.iter().all(|r| r.decided));
    }

    /// Counts the engine's per-cycle resets.
    struct CountingResets(usize);

    impl QualityManager for CountingResets {
        fn decide(&mut self, _state: usize, _t: Time) -> Decision {
            FixedHold(1).decide(0, Time::ZERO)
        }

        fn name(&self) -> &'static str {
            "counting-resets"
        }

        fn reset(&mut self) {
            self.0 += 1;
        }
    }

    #[test]
    fn borrowed_manager_is_reset_once_per_cycle() {
        let s = sys();
        let mut manager = CountingResets(0);
        Engine::new(&s, &mut manager, OverheadModel::ZERO).run_cycles(
            5,
            Time::from_ns(130),
            CycleChaining::WorkConserving,
            &mut ConstantExec::average(s.table()),
            &mut NullSink,
        );
        assert_eq!(manager.0, 5);
    }

    #[test]
    fn work_conserving_chaining_carries_earliness() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let mut trace = Trace::default();
        let run = Engine::new(&s, NumericManager::new(&s, &p), OverheadModel::ZERO).run_cycles(
            3,
            Time::from_ns(130),
            CycleChaining::WorkConserving,
            &mut ConstantExec::average(s.table()),
            &mut trace,
        );
        assert_eq!(trace.cycles.len(), 3);
        // Average times are far below the period, so later cycles start
        // earlier and earlier (negative start).
        assert!(trace.cycles[1].start < Time::ZERO);
        assert!(trace.cycles[2].start <= trace.cycles[1].start);
        assert_eq!(run.misses, 0);
    }

    #[test]
    fn arrival_clamping_pins_start_at_zero() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let mut trace = Trace::default();
        Engine::new(&s, NumericManager::new(&s, &p), OverheadModel::ZERO).run_cycles(
            3,
            Time::from_ns(130),
            CycleChaining::ArrivalClamped,
            &mut ConstantExec::average(s.table()),
            &mut trace,
        );
        assert_eq!(trace.cycles.len(), 3);
        for c in &trace.cycles {
            assert_eq!(c.start, Time::ZERO);
        }
    }

    #[test]
    fn record_buffer_reuses_caller_capacity() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let mut engine = Engine::new(&s, NumericManager::new(&s, &p), OverheadModel::ZERO);
        let mut buf: Vec<ActionRecord> = Vec::with_capacity(16);
        let base_ptr = buf.as_ptr();
        for cycle in 0..4 {
            buf.clear();
            let mut sink = RecordBuffer::new(&mut buf);
            engine.run_cycle(
                cycle,
                Time::ZERO,
                &mut ConstantExec::average(s.table()),
                &mut sink,
            );
            assert_eq!(buf.len(), 4);
        }
        // Capacity was sufficient, so no reallocation ever happened.
        assert_eq!(base_ptr, buf.as_ptr());
    }

    #[test]
    fn null_sink_and_summaries_only() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let mut engine = Engine::new(&s, NumericManager::new(&s, &p), OverheadModel::ZERO);
        let run = engine.run_cycles(
            5,
            Time::from_ns(130),
            CycleChaining::WorkConserving,
            &mut ConstantExec::average(s.table()),
            &mut NullSink,
        );
        assert_eq!(run.cycles, 5);
        assert_eq!(run.actions, 20);
        assert_eq!(run.misses, 0);
        assert!(run.avg_quality() > 0.0);
    }

    /// Regression: an early-finishing final cycle (its relative end is
    /// *earlier* than a previous cycle's — even negative, thanks to
    /// work-conserving earliness) must not drag `last_end` backwards.
    /// The serial absorb path, the trace-replay reduction and the
    /// fleet-style merge all have to agree byte-for-byte.
    #[test]
    fn last_end_takes_max_across_early_finishing_cycles() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        // Average times total far under the 130 ns period, so each cycle
        // starts (and ends) earlier than the one before: the *final*
        // cycle's end is the minimum, and negative.
        let mut engine = Engine::new(&s, NumericManager::new(&s, &p), OverheadModel::ZERO);
        let mut trace = Trace::default();
        let run = engine.run_cycles(
            4,
            Time::from_ns(130),
            CycleChaining::WorkConserving,
            &mut ConstantExec::average(s.table()),
            &mut trace,
        );
        let ends: Vec<Time> = trace.cycles.iter().map(|c| c.summary().end).collect();
        let max_end = ends.iter().copied().fold(Time::NEG_INF, Time::max);
        assert!(
            ends.last().copied().unwrap() < max_end,
            "the scenario must exercise an early-finishing final cycle"
        );
        assert!(ends.last().copied().unwrap() < Time::ZERO);
        // Serial path.
        assert_eq!(run.last_end, max_end);
        // Trace-replay path.
        assert_eq!(trace.run_summary(), run);
        // Fleet-merge path: merging per-stream summaries keeps the max.
        let mut merged = RunSummary::default();
        merged.merge(&run);
        merged.merge(&run);
        assert_eq!(merged.last_end, run.last_end);
    }

    #[test]
    fn tee_duplicates_streams() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let mut engine = Engine::new(&s, NumericManager::new(&s, &p), OverheadModel::ZERO);
        let mut trace = Trace::default();
        let mut buf = Vec::new();
        {
            let mut rb = RecordBuffer::new(&mut buf);
            let mut tee = Tee(&mut trace, &mut rb);
            engine.run_cycle(
                0,
                Time::ZERO,
                &mut ConstantExec::average(s.table()),
                &mut tee,
            );
        }
        assert_eq!(trace.cycles[0].records, buf);
    }
}
