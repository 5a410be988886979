//! Multi-task composition — the "adaption to multiple tasks" direction of
//! the paper's conclusion.
//!
//! The paper's method assumes the application software is *already
//! scheduled* into one sequence. When several cyclic tasks share the
//! processor, a static interleaving turns them into exactly such a
//! sequence: the composed system's action list is a deterministic merge of
//! the tasks' action lists, each action keeping its own timing rows and its
//! own deadline (relative to the shared cycle start). The single Quality
//! Manager then controls the merged sequence — quality degrades *globally*
//! when any task's deadline tightens, which is the modular-use-of-speed-
//! diagrams behaviour the conclusion sketches.
//!
//! The merge is driven by an explicit slot `pattern` (e.g. `[0, 0, 1]`
//! interleaves two actions of task 0 with one of task 1), walked cyclically
//! until every task is exhausted; slots of exhausted tasks are skipped.
//!
//! The merged system runs on the plain [`crate::engine::Engine`]; a
//! [`TaskSplitter`] sink attributes its records back to the source tasks,
//! and [`Interleaved::project_trace`] projects a recorded cycle onto one
//! task.

use crate::action::{ActionId, DeadlineMap};
use crate::engine::TraceSink;
use crate::error::BuildError;
use crate::system::ParameterizedSystem;
use crate::timing::TimeTableBuilder;
use crate::trace::ActionRecord;

/// Provenance of one merged action: which task it came from and its index
/// within that task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Provenance {
    /// Index into the task list passed to [`interleave`].
    pub task: usize,
    /// The action's index within its original task.
    pub action: ActionId,
}

/// Result of a multi-task merge.
#[derive(Clone, Debug)]
pub struct Interleaved {
    /// The merged, validated parameterized system.
    pub system: ParameterizedSystem,
    /// Per merged action: where it came from.
    pub provenance: Vec<Provenance>,
}

impl Interleaved {
    /// The merged indices belonging to task `task`, in order.
    pub fn actions_of(&self, task: usize) -> Vec<ActionId> {
        self.provenance
            .iter()
            .enumerate()
            .filter(|(_, p)| p.task == task)
            .map(|(i, _)| i)
            .collect()
    }

    /// Project an executed merged-cycle trace onto one task: the task's own
    /// actions with their original indices, keeping the merged timeline's
    /// start/end times. This is the "modular use of speed diagrams" of the
    /// paper's conclusion — feed the projection to the *task's own*
    /// [`crate::speed::SpeedDiagram`] and the interleaved competitor shows
    /// up as reduced apparent speed (time passes while the task makes no
    /// virtual progress).
    pub fn project_trace(
        &self,
        cycle: &crate::trace::CycleTrace,
        task: usize,
    ) -> crate::trace::CycleTrace {
        let records = cycle
            .records
            .iter()
            .filter(|r| self.provenance[r.action].task == task)
            .map(|r| crate::trace::ActionRecord {
                action: self.provenance[r.action].action,
                ..*r
            })
            .collect();
        crate::trace::CycleTrace {
            cycle: cycle.cycle,
            start: cycle.start,
            records,
        }
    }
}

/// Statically interleave several tasks into one schedulable sequence.
///
/// * All tasks must share the same quality set.
/// * `pattern` lists task indices; it is walked cyclically, emitting the
///   next unconsumed action of the named task (slots of exhausted tasks are
///   skipped). An empty pattern defaults to round-robin over all tasks.
///   A pattern that never names, in range, some task with actions is
///   rejected as [`BuildError::StarvedTask`].
/// * Deadlines are carried over verbatim: they refer to the shared cycle
///   start. The merged system re-validates feasibility, so an infeasible
///   combination (too much minimum-quality worst-case work before some
///   task's deadline) is rejected here rather than detected at run time.
pub fn interleave(
    tasks: &[&ParameterizedSystem],
    pattern: &[usize],
) -> Result<Interleaved, BuildError> {
    if tasks.is_empty() {
        return Err(BuildError::EmptyActionSequence);
    }
    let nq = tasks[0].qualities().len();
    for t in tasks {
        if t.qualities().len() != nq {
            return Err(BuildError::QualitySetMismatch {
                expected: nq,
                got: t.qualities().len(),
            });
        }
    }
    let round_robin: Vec<usize> = (0..tasks.len()).collect();
    let pattern = if pattern.is_empty() {
        &round_robin[..]
    } else {
        pattern
    };
    if let Some(task) =
        (0..tasks.len()).find(|&task| tasks[task].n_actions() > 0 && !pattern.contains(&task))
    {
        return Err(BuildError::StarvedTask { task });
    }
    let total: usize = tasks.iter().map(|t| t.n_actions()).sum();

    let mut next = vec![0usize; tasks.len()];
    let mut actions = Vec::with_capacity(total);
    let mut provenance = Vec::with_capacity(total);
    let mut deadline_pairs = Vec::new();
    let mut builder = TimeTableBuilder::new();
    let mut slot = 0usize;
    while actions.len() < total {
        let task = pattern[slot % pattern.len()];
        slot += 1;
        if task >= tasks.len() {
            continue;
        }
        let src = tasks[task];
        let a = next[task];
        if a >= src.n_actions() {
            continue;
        }
        next[task] += 1;
        let merged_index = actions.len();
        let mut info = src.action(a).clone();
        info.name = format!("t{task}.{}", info.name);
        actions.push(info);
        provenance.push(Provenance { task, action: a });
        let qualities = src.qualities();
        let wc: Vec<_> = qualities.iter().map(|q| src.table().wc(a, q)).collect();
        let av: Vec<_> = qualities.iter().map(|q| src.table().av(a, q)).collect();
        builder.push_action(&wc, &av);
        if let Some(d) = src.deadlines().get(a) {
            deadline_pairs.push((merged_index, d));
        }
    }
    let table = builder.build()?;
    let mut deadlines = DeadlineMap::new(total);
    for (k, d) in deadline_pairs {
        deadlines.set(k, d);
    }
    // The merged final action must be constrained for tD to be total. If
    // the pattern put an unconstrained tail last, attach the latest
    // deadline of any task to the final action — it completes the cycle.
    if deadlines.get(total - 1).is_none() {
        let latest = tasks
            .iter()
            .map(|t| t.final_deadline())
            .max()
            .expect("non-empty task list");
        deadlines.set(total - 1, latest);
    }
    let system = ParameterizedSystem::new(actions, table, deadlines)?;
    Ok(Interleaved { system, provenance })
}

/// Per-task aggregates of a multi-task run, collected inline by a
/// [`TaskSplitter`] without a second pass over the trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TaskSummary {
    /// Actions of this task that executed.
    pub actions: usize,
    /// Sum of the task's chosen quality indices.
    pub quality_sum: u64,
    /// Deadline misses attributed to this task's actions.
    pub misses: usize,
}

impl TaskSummary {
    /// Mean quality level over the task's actions.
    pub fn avg_quality(&self) -> f64 {
        crate::engine::mean_quality(self.quality_sum, self.actions)
    }

    /// Fold another run's per-task aggregates into this one — the
    /// multi-task counterpart of [`crate::engine::RunSummary::merge`],
    /// used when independent streams of the *same* interleaving run side
    /// by side and their per-task attributions are combined.
    pub fn merge(&mut self, other: &TaskSummary) {
        self.actions += other.actions;
        self.quality_sum += other.quality_sum;
        self.misses += other.misses;
    }
}

/// Sink splitting an interleaved system's record stream into per-task
/// aggregates via the interleaving's provenance map.
///
/// One Quality Manager controls the merged sequence (the paper
/// conclusion's "adaption to multiple tasks"), run by the plain
/// [`crate::engine::Engine`]; this sink attributes the results back to the
/// source tasks as records are produced, allocating nothing per action.
/// To keep the merged trace as well, pair it with a
/// [`crate::trace::Trace`] through [`crate::engine::Tee`].
///
/// # Examples
///
/// Interleave two tasks round-robin, run three merged cycles, and read
/// the per-task attribution:
///
/// ```
/// use sqm_core::controller::{ConstantExec, OverheadModel};
/// use sqm_core::engine::{CycleChaining, Engine};
/// use sqm_core::manager::NumericManager;
/// use sqm_core::multi::{interleave, TaskSplitter};
/// use sqm_core::policy::MixedPolicy;
/// use sqm_core::system::SystemBuilder;
/// use sqm_core::time::Time;
///
/// let video = SystemBuilder::new(2)
///     .action("v0", &[100, 180], &[50, 90])
///     .action("v1", &[100, 180], &[50, 90])
///     .deadline_last(Time::from_ns(900))
///     .build()
///     .unwrap();
/// let audio = SystemBuilder::new(2)
///     .action("s0", &[40, 70], &[20, 35])
///     .deadline_last(Time::from_ns(800))
///     .build()
///     .unwrap();
///
/// let merged = interleave(&[&video, &audio], &[]).unwrap();
/// let policy = MixedPolicy::new(&merged.system);
/// let manager = NumericManager::new(&merged.system, &policy);
/// let mut splitter = TaskSplitter::new(&merged);
/// let run = Engine::new(&merged.system, manager, OverheadModel::ZERO).run_cycles(
///     3,
///     Time::from_ns(900),
///     CycleChaining::WorkConserving,
///     &mut ConstantExec::average(merged.system.table()),
///     &mut splitter,
/// );
/// assert_eq!(run.cycles, 3);
///
/// let tasks = splitter.task_summaries();
/// assert_eq!(tasks[0].actions, 6, "2 video actions × 3 cycles");
/// assert_eq!(tasks[1].actions, 3, "1 audio action × 3 cycles");
/// assert_eq!(tasks[0].misses + tasks[1].misses, run.misses);
/// ```
#[derive(Clone, Debug)]
pub struct TaskSplitter<'a> {
    provenance: &'a [Provenance],
    per_task: Vec<TaskSummary>,
}

impl<'a> TaskSplitter<'a> {
    /// An empty attribution for every task of `interleaved`.
    pub fn new(interleaved: &'a Interleaved) -> TaskSplitter<'a> {
        let n_tasks = interleaved
            .provenance
            .iter()
            .map(|p| p.task + 1)
            .max()
            .unwrap_or(0);
        TaskSplitter {
            provenance: &interleaved.provenance,
            per_task: vec![TaskSummary::default(); n_tasks],
        }
    }

    /// Per-task aggregates of everything recorded so far, indexed by task.
    pub fn task_summaries(&self) -> &[TaskSummary] {
        &self.per_task
    }
}

impl TraceSink for TaskSplitter<'_> {
    fn record(&mut self, record: &ActionRecord) {
        let task = self.provenance[record.action].task;
        let t = &mut self.per_task[task];
        t.actions += 1;
        t.quality_sum += record.quality.index() as u64;
        t.misses += usize::from(record.missed_deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{ConstantExec, ExecutionTimeSource, OverheadModel};
    use crate::engine::{CycleChaining, Engine, RunSummary, Tee};
    use crate::manager::NumericManager;
    use crate::policy::MixedPolicy;
    use crate::system::SystemBuilder;
    use crate::time::Time;
    use crate::trace::Trace;

    fn task(n: usize, deadline_ns: i64) -> ParameterizedSystem {
        let mut b = SystemBuilder::new(2);
        for i in 0..n {
            b = b.action(&format!("a{i}"), &[10, 20], &[5, 10]);
        }
        b.deadline_last(Time::from_ns(deadline_ns)).build().unwrap()
    }

    #[test]
    fn round_robin_merge() {
        let t0 = task(2, 200);
        let t1 = task(2, 220);
        let m = interleave(&[&t0, &t1], &[]).unwrap();
        assert_eq!(m.system.n_actions(), 4);
        assert_eq!(
            m.provenance,
            vec![
                Provenance { task: 0, action: 0 },
                Provenance { task: 1, action: 0 },
                Provenance { task: 0, action: 1 },
                Provenance { task: 1, action: 1 },
            ]
        );
        assert_eq!(m.actions_of(0), vec![0, 2]);
        assert_eq!(m.system.action(1).name, "t1.a0");
        // Deadlines carried: t0's final deadline lands on merged index 2.
        assert_eq!(m.system.deadlines().get(2), Some(Time::from_ns(200)));
        assert_eq!(m.system.deadlines().get(3), Some(Time::from_ns(220)));
    }

    #[test]
    fn weighted_pattern() {
        let t0 = task(4, 400);
        let t1 = task(2, 400);
        let m = interleave(&[&t0, &t1], &[0, 0, 1]).unwrap();
        let tasks: Vec<usize> = m.provenance.iter().map(|p| p.task).collect();
        assert_eq!(tasks, vec![0, 0, 1, 0, 0, 1]);
    }

    #[test]
    fn exhausted_tasks_are_skipped() {
        let t0 = task(1, 300);
        let t1 = task(3, 300);
        let m = interleave(&[&t0, &t1], &[]).unwrap();
        let tasks: Vec<usize> = m.provenance.iter().map(|p| p.task).collect();
        assert_eq!(tasks, vec![0, 1, 1, 1]);
    }

    #[test]
    fn unconstrained_tail_gets_latest_deadline() {
        // Pattern [1, 0]: t0's single action (deadline 300) lands second
        // but t1's constrained action lands first — tail must be patched.
        let t0 = task(1, 300);
        let t1 = task(1, 100);
        let m = interleave(&[&t1, &t0], &[0, 1]).unwrap();
        assert_eq!(m.system.deadlines().get(0), Some(Time::from_ns(100)));
        assert_eq!(m.system.deadlines().get(1), Some(Time::from_ns(300)));
    }

    #[test]
    fn quality_set_mismatch_rejected() {
        let t0 = task(1, 300);
        let t1 = SystemBuilder::new(3)
            .action("x", &[10, 20, 30], &[5, 10, 15])
            .deadline_last(Time::from_ns(100))
            .build()
            .unwrap();
        let err = interleave(&[&t0, &t1], &[]).unwrap_err();
        assert_eq!(
            err,
            BuildError::QualitySetMismatch {
                expected: 2,
                got: 3
            }
        );
    }

    #[test]
    fn starving_patterns_rejected() {
        let (a, b) = (task(1, 300), task(1, 300));
        let starved = |task| Err(BuildError::StarvedTask { task });
        assert_eq!(interleave(&[&a, &b], &[0]).map(|_| ()), starved(1));
        assert_eq!(interleave(&[&a, &b], &[2, 7]).map(|_| ()), starved(0));
        assert!(interleave(&[&a, &b], &[1, 9, 0]).is_ok());
    }

    #[test]
    fn empty_task_list_rejected() {
        assert_eq!(
            interleave(&[], &[]).unwrap_err(),
            BuildError::EmptyActionSequence
        );
    }

    #[test]
    fn infeasible_combination_rejected_at_merge() {
        // Each task alone is feasible, but t1's deadline of 100 must now
        // also absorb t0's interleaved worst-case work.
        let t0 = task(8, 1_000);
        let t1 = task(8, 100);
        let err = interleave(&[&t0, &t1], &[]).unwrap_err();
        assert!(matches!(err, BuildError::InfeasibleAtMinQuality { .. }));
    }

    /// Run `cycles` merged cycles of `m` under the numeric manager,
    /// recording the trace and the per-task attribution.
    fn run_split(
        m: &Interleaved,
        cycles: usize,
        exec: &mut impl ExecutionTimeSource,
    ) -> (Trace, RunSummary, Vec<TaskSummary>) {
        let p = MixedPolicy::new(&m.system);
        let mut trace = Trace::default();
        let mut splitter = TaskSplitter::new(m);
        let run = Engine::new(
            &m.system,
            NumericManager::new(&m.system, &p),
            OverheadModel::ZERO,
        )
        .run_cycles(
            cycles,
            Time::from_ns(160),
            CycleChaining::WorkConserving,
            exec,
            &mut Tee(&mut trace, &mut splitter),
        );
        (trace, run, splitter.task_summaries().to_vec())
    }

    #[test]
    fn projection_restores_task_local_indices_and_timeline() {
        use crate::speed::SpeedDiagram;
        let t0 = task(3, 200);
        let t1 = task(2, 220);
        let m = interleave(&[&t0, &t1], &[]).unwrap();
        let (trace, _, _) = run_split(&m, 1, &mut ConstantExec::average(m.system.table()));
        let merged = &trace.cycles[0];

        let proj0 = m.project_trace(merged, 0);
        let proj1 = m.project_trace(merged, 1);
        assert_eq!(proj0.records.len(), 3);
        assert_eq!(proj1.records.len(), 2);
        // Task-local indices are restored.
        assert_eq!(
            proj0.records.iter().map(|r| r.action).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        // The merged timeline is preserved: projected records keep their
        // global start/end, so gaps appear where the other task ran.
        assert!(proj0.records[1].start > proj0.records[0].end);
        // Each projection feeds the task's *own* speed diagram: the final
        // point reaches the task's deadline height.
        let p0 = MixedPolicy::new(&t0);
        let d0 = SpeedDiagram::for_final_deadline(&p0);
        let pts = d0.trajectory(&proj0);
        assert_eq!(pts.len(), 4);
        assert!((pts.last().unwrap().1 - 200.0).abs() < 1e-9);
        // And the task finished before its own deadline.
        assert!(proj0.records.last().unwrap().end <= Time::from_ns(200));
    }

    #[test]
    fn task_splitter_attributes_per_task_results() {
        let t0 = task(3, 150);
        let t1 = task(2, 160);
        let m = interleave(&[&t0, &t1], &[]).unwrap();
        let (trace, run, tasks) = run_split(&m, 3, &mut ConstantExec::average(m.system.table()));
        assert_eq!(trace.cycles.len(), 3);
        assert_eq!(tasks.len(), 2);
        assert_eq!(tasks[0].actions, 9, "3 actions × 3 cycles");
        assert_eq!(tasks[1].actions, 6, "2 actions × 3 cycles");
        assert_eq!(tasks[0].misses + tasks[1].misses, run.misses);
        // Per-task aggregates must equal a post-hoc projection.
        for (ti, sum) in tasks.iter().enumerate() {
            let projected: usize = trace
                .cycles
                .iter()
                .map(|c| m.project_trace(c, ti).records.len())
                .sum();
            assert_eq!(sum.actions, projected);
        }
        assert!(tasks[0].avg_quality() >= 0.0);
    }

    #[test]
    fn task_summary_merge_combines_independent_streams() {
        // Two independent streams of the same interleaving (e.g. two
        // streams of one elastic run): merging their per-task attributions
        // must equal the sum of every field, and leave derived stats
        // consistent.
        let t0 = task(3, 150);
        let t1 = task(2, 160);
        let m = interleave(&[&t0, &t1], &[]).unwrap();
        let (_, _, a) = run_split(&m, 2, &mut ConstantExec::average(m.system.table()));
        let (_, _, b) = run_split(&m, 3, &mut ConstantExec::worst_case(m.system.table()));
        let mut merged = a.clone();
        for (m_t, b_t) in merged.iter_mut().zip(&b) {
            m_t.merge(b_t);
        }
        for ((m_t, a_t), b_t) in merged.iter().zip(&a).zip(&b) {
            assert_eq!(m_t.actions, a_t.actions + b_t.actions);
            assert_eq!(m_t.quality_sum, a_t.quality_sum + b_t.quality_sum);
            assert_eq!(m_t.misses, a_t.misses + b_t.misses);
            assert!(
                (m_t.avg_quality()
                    - (a_t.quality_sum + b_t.quality_sum) as f64
                        / (a_t.actions + b_t.actions) as f64)
                    .abs()
                    < 1e-12
            );
        }
    }

    #[test]
    fn merged_system_is_controllable() {
        let t0 = task(3, 150);
        let t1 = task(3, 160);
        let m = interleave(&[&t0, &t1], &[]).unwrap();
        let (_, run, _) = run_split(&m, 1, &mut ConstantExec::worst_case(m.system.table()));
        assert_eq!(run.misses, 0);
    }
}
