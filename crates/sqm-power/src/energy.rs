//! Energy accounting.
//!
//! The standard CMOS dynamic-power model: energy per cycle scales with
//! `V²`, and attainable frequency scales roughly with `V`, so energy per
//! cycle scales with `(f / f_max)²`. Running the same cycle count at half
//! frequency therefore costs a quarter of the dynamic energy per cycle —
//! the entire reason the manager prefers the *slowest* feasible frequency.
//! Idle power (everything finished before the deadline) is charged at a
//! constant draw, which penalizes the race-to-idle baseline less than a
//! naive model would and keeps the comparison honest.

use crate::ladder::FrequencyLadder;
use crate::workload::CycleExec;
use sqm_core::quality::Quality;
use sqm_core::time::Time;
use sqm_core::trace::CycleTrace;

/// Energy-model parameters.
#[derive(Clone, Copy, Debug)]
pub struct EnergyModel {
    /// Dynamic energy per cycle at `f_max`, in nanojoules.
    pub nj_per_cycle_at_fmax: f64,
    /// Idle power draw, in watts (= nanojoules per nanosecond × 10⁹…
    /// stored as nJ/ns for unit sanity).
    pub idle_nj_per_ns: f64,
}

impl Default for EnergyModel {
    fn default() -> EnergyModel {
        // ~0.5 nJ/cycle at f_max, 30 mW idle — embedded-class figures.
        EnergyModel {
            nj_per_cycle_at_fmax: 0.5,
            idle_nj_per_ns: 0.03,
        }
    }
}

impl EnergyModel {
    /// Dynamic energy (nJ) of running `cycles` at the frequency of `q`.
    pub fn dynamic_nj(&self, ladder: &FrequencyLadder, q: Quality, cycles: u64) -> f64 {
        let ratio = ladder.freq_mhz(q) as f64 / ladder.f_max() as f64;
        self.nj_per_cycle_at_fmax * ratio * ratio * cycles as f64
    }

    /// Total energy (nJ) of one executed cycle (frame/period): dynamic
    /// energy of the consumed cycles plus idle draw for the slack up to
    /// `period`.
    pub fn cycle_energy_nj(
        &self,
        ladder: &FrequencyLadder,
        consumed: &[(usize, Quality, u64)],
        trace: &CycleTrace,
        period: Time,
    ) -> f64 {
        let dynamic: f64 = consumed
            .iter()
            .map(|&(_, q, cycles)| self.dynamic_nj(ladder, q, cycles))
            .sum();
        let end = trace.records.last().map_or(trace.start, |r| r.end);
        let idle_ns = (period - end).as_ns().max(0) as f64;
        dynamic + idle_ns * self.idle_nj_per_ns
    }

    /// Energy (nJ) of the race-to-idle baseline: run every consumed cycle
    /// at `f_max`, idle the remaining time at idle draw.
    pub fn baseline_energy_nj(
        &self,
        ladder: &FrequencyLadder,
        exec: &CycleExec<'_>,
        period: Time,
    ) -> f64 {
        let total_cycles: u64 = exec.consumed.iter().map(|&(_, _, c)| c).sum();
        let busy_ns = ladder
            .time_for_cycles(total_cycles, Quality::new(0))
            .as_ns() as f64;
        let idle_ns = (period.as_ns() as f64 - busy_ns).max(0.0);
        self.nj_per_cycle_at_fmax * total_cycles as f64 + idle_ns * self.idle_nj_per_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::DvfsTask;
    use sqm_core::controller::OverheadModel;
    use sqm_core::engine::Engine;
    use sqm_core::manager::NumericManager;
    use sqm_core::policy::MixedPolicy;
    use sqm_core::trace::Trace;

    #[test]
    fn dynamic_energy_is_quadratic_in_frequency() {
        let ladder = FrequencyLadder::new(vec![600, 300]).unwrap();
        let m = EnergyModel::default();
        let at_max = m.dynamic_nj(&ladder, Quality::new(0), 1_000);
        let at_half = m.dynamic_nj(&ladder, Quality::new(1), 1_000);
        assert!((at_max / at_half - 4.0).abs() < 1e-9, "f/2 → E/4");
    }

    #[test]
    fn managed_run_beats_race_to_idle() {
        let task = DvfsTask::synthetic(20, Time::from_ms(60));
        let ladder = FrequencyLadder::embedded4();
        let sys = task.to_system(&ladder).unwrap();
        let policy = MixedPolicy::new(&sys);
        let mut exec = CycleExec::new(&task, &ladder, 0.1, 7);
        let mut trace = Trace::default();
        let summary = Engine::new(
            &sys,
            NumericManager::new(&sys, &policy),
            OverheadModel::ZERO,
        )
        .run_cycle(0, Time::ZERO, &mut exec, &mut trace);
        assert_eq!(summary.misses, 0, "energy savings must not cost deadlines");
        let trace = &trace.cycles[0];

        let model = EnergyModel::default();
        let managed = model.cycle_energy_nj(&ladder, &exec.consumed, trace, Time::from_ms(60));
        let baseline = model.baseline_energy_nj(&ladder, &exec, Time::from_ms(60));
        assert!(
            managed < baseline,
            "managed {managed:.0} nJ should beat baseline {baseline:.0} nJ"
        );
    }

    #[test]
    fn idle_draw_is_charged_for_slack() {
        let ladder = FrequencyLadder::embedded4();
        let m = EnergyModel {
            nj_per_cycle_at_fmax: 0.0,
            idle_nj_per_ns: 1.0,
        };
        let trace = CycleTrace {
            cycle: 0,
            start: Time::ZERO,
            records: vec![],
        };
        let e = m.cycle_energy_nj(&ladder, &[], &trace, Time::from_ns(500));
        assert!((e - 500.0).abs() < 1e-9);
    }
}
