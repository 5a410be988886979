//! Cycle-count workloads and their translation into parameterized systems.
//!
//! A DVFS task is a scheduled sequence of actions measured in **clock
//! cycles** — the frequency-independent unit. [`DvfsTask::to_system`]
//! turns it into an ordinary [`ParameterizedSystem`] under a
//! [`FrequencyLadder`]: `Cwc(a, q) = wc_cycles(a) / f(q)` and likewise for
//! averages, after which all core machinery (mixed policy, regions,
//! relaxation, managers) applies without modification.

use crate::ladder::FrequencyLadder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqm_core::action::{ActionId, ActionInfo, DeadlineMap};
use sqm_core::controller::ExecutionTimeSource;
use sqm_core::error::BuildError;
use sqm_core::quality::Quality;
use sqm_core::system::ParameterizedSystem;
use sqm_core::time::Time;
use sqm_core::timing::TimeTableBuilder;

/// One cyclic DVFS-managed task.
#[derive(Clone, Debug)]
pub struct DvfsTask {
    /// Action names.
    pub names: Vec<String>,
    /// Worst-case cycle demand per action.
    pub wc_cycles: Vec<u64>,
    /// Average cycle demand per action (`≤ wc_cycles`).
    pub av_cycles: Vec<u64>,
    /// Cycle deadline (period).
    pub deadline: Time,
}

impl DvfsTask {
    /// A synthetic control-loop-style task: `n` actions with worst-case
    /// cycle demands cycling through a small pattern, averages at 55 %.
    pub fn synthetic(n: usize, deadline: Time) -> DvfsTask {
        let pattern = [800_000u64, 1_200_000, 500_000, 1_500_000, 900_000];
        let wc_cycles: Vec<u64> = (0..n).map(|i| pattern[i % pattern.len()]).collect();
        let av_cycles: Vec<u64> = wc_cycles.iter().map(|&c| c * 55 / 100).collect();
        DvfsTask {
            names: (0..n).map(|i| format!("job{i}")).collect(),
            wc_cycles,
            av_cycles,
            deadline,
        }
    }

    /// Translate into a parameterized system under `ladder`.
    pub fn to_system(&self, ladder: &FrequencyLadder) -> Result<ParameterizedSystem, BuildError> {
        let n = self.names.len();
        assert_eq!(self.wc_cycles.len(), n);
        assert_eq!(self.av_cycles.len(), n);
        let qualities = ladder.qualities();
        let mut table = TimeTableBuilder::new();
        let actions: Vec<ActionInfo> = self
            .names
            .iter()
            .map(|s| ActionInfo::named(s.clone()))
            .collect();
        for a in 0..n {
            let wc: Vec<Time> = qualities
                .iter()
                .map(|q| ladder.time_for_cycles(self.wc_cycles[a], q))
                .collect();
            let av: Vec<Time> = qualities
                .iter()
                .map(|q| ladder.time_for_cycles(self.av_cycles[a], q))
                .collect();
            table.push_action(&wc, &av);
        }
        let deadlines = DeadlineMap::single_global(n, self.deadline);
        ParameterizedSystem::new(actions, table.build()?, deadlines)
    }
}

/// Execution-time source for DVFS runs: actual cycle demand is sampled
/// around the average (clamped to the worst case), then converted to time
/// at the chosen quality's frequency. Also records the cycles actually
/// consumed, which the energy model needs.
pub struct CycleExec<'a> {
    task: &'a DvfsTask,
    ladder: &'a FrequencyLadder,
    rng: StdRng,
    jitter: f64,
    /// Cycles consumed per executed action, appended in execution order.
    pub consumed: Vec<(ActionId, Quality, u64)>,
}

impl<'a> CycleExec<'a> {
    /// A source with ±`jitter` uniform noise around the average demand.
    pub fn new(task: &'a DvfsTask, ladder: &'a FrequencyLadder, jitter: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&jitter));
        CycleExec {
            task,
            ladder,
            rng: StdRng::seed_from_u64(seed),
            jitter,
            consumed: Vec::new(),
        }
    }
}

impl ExecutionTimeSource for CycleExec<'_> {
    fn actual(&mut self, _cycle: usize, action: ActionId, q: Quality) -> Time {
        let av = self.task.av_cycles[action] as f64;
        let wc = self.task.wc_cycles[action];
        let jitter = 1.0 + self.rng.gen_range(-self.jitter..=self.jitter);
        let cycles = ((av * jitter).round() as u64).min(wc);
        self.consumed.push((action, q, cycles));
        self.ladder.time_for_cycles(cycles, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqm_core::controller::{ConstantExec, OverheadModel};
    use sqm_core::engine::{Engine, NullSink};
    use sqm_core::manager::NumericManager;
    use sqm_core::policy::MixedPolicy;

    fn setup() -> (DvfsTask, FrequencyLadder) {
        (
            DvfsTask::synthetic(20, Time::from_ms(60)),
            FrequencyLadder::embedded4(),
        )
    }

    #[test]
    fn task_translates_to_valid_system() {
        let (task, ladder) = setup();
        let sys = task.to_system(&ladder).unwrap();
        assert_eq!(sys.n_actions(), 20);
        assert_eq!(sys.qualities().len(), 4);
        // Time at quality 0 (600 MHz) for 800k cycles ≈ 1.334 ms.
        assert_eq!(sys.table().wc(0, Quality::new(0)), Time::from_ns(1_333_334));
        // At 150 MHz it is 4× that.
        assert_eq!(sys.table().wc(0, Quality::new(3)), Time::from_ns(5_333_334));
    }

    #[test]
    fn infeasible_deadline_is_rejected() {
        let (task, ladder) = setup();
        let tight = DvfsTask {
            deadline: Time::from_ms(5),
            ..task
        };
        assert!(matches!(
            tight.to_system(&ladder),
            Err(BuildError::InfeasibleAtMinQuality { .. })
        ));
    }

    #[test]
    fn worst_case_run_at_any_frequency_schedule_is_safe() {
        let (task, ladder) = setup();
        let sys = task.to_system(&ladder).unwrap();
        let policy = MixedPolicy::new(&sys);
        let summary = Engine::new(
            &sys,
            NumericManager::new(&sys, &policy),
            OverheadModel::ZERO,
        )
        .run_cycle(
            0,
            Time::ZERO,
            &mut ConstantExec::worst_case(sys.table()),
            &mut NullSink,
        );
        assert_eq!(summary.misses, 0);
    }

    #[test]
    fn manager_slows_down_when_budget_allows() {
        let (task, ladder) = setup();
        let sys = task.to_system(&ladder).unwrap();
        let policy = MixedPolicy::new(&sys);
        let mut exec = CycleExec::new(&task, &ladder, 0.1, 5);
        let summary = Engine::new(
            &sys,
            NumericManager::new(&sys, &policy),
            OverheadModel::ZERO,
        )
        .run_cycle(0, Time::ZERO, &mut exec, &mut NullSink);
        assert_eq!(summary.misses, 0);
        // With average demand ≈ 55 % of worst case, the manager should
        // spend most actions above the fastest frequency (quality > 0).
        assert!(summary.avg_quality() > 0.5, "avg {}", summary.avg_quality());
        assert_eq!(exec.consumed.len(), 20);
    }

    #[test]
    fn cycle_exec_respects_cycle_bound() {
        let (task, ladder) = setup();
        let mut e = CycleExec::new(&task, &ladder, 0.5, 3);
        for a in 0..20 {
            let _ = e.actual(0, a, Quality::new(1));
        }
        for &(a, _, cycles) in &e.consumed {
            assert!(cycles <= task.wc_cycles[a]);
        }
    }
}
