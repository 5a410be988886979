//! Ablation: the DVFS extension — "quality level replaced by frequency,
//! objective: minimize energy without missing deadlines" (paper
//! conclusion).
//!
//! Compares the speed-diagram frequency manager against the race-to-idle
//! baseline (always run at f_max, then idle) across load levels.
//!
//! ```text
//! cargo run -p sqm-bench --release --bin ablation_power
//! ```

use sqm_bench::report;
use sqm_core::controller::OverheadModel;
use sqm_core::engine::Engine;
use sqm_core::manager::NumericManager;
use sqm_core::policy::MixedPolicy;
use sqm_core::time::Time;
use sqm_core::trace::Trace;
use sqm_power::{CycleExec, DvfsTask, EnergyModel, FrequencyLadder};

fn main() {
    let ladder = FrequencyLadder::embedded4();
    let model = EnergyModel::default();

    println!("== DVFS: managed frequency scaling vs race-to-idle (50-action task) ==\n");
    let mut rows = vec![vec![
        "deadline (ms)".to_string(),
        "util @fmax %".to_string(),
        "managed nJ".to_string(),
        "baseline nJ".to_string(),
        "saving %".to_string(),
        "avg freq (MHz)".to_string(),
        "misses".to_string(),
    ]];

    for deadline_ms in [90i64, 120, 160, 240, 400] {
        let deadline = Time::from_ms(deadline_ms);
        let task = DvfsTask::synthetic(50, deadline);
        let Ok(sys) = task.to_system(&ladder) else {
            continue; // infeasible at this deadline even at f_max
        };
        let policy = MixedPolicy::new(&sys);
        let mut exec = CycleExec::new(&task, &ladder, 0.15, 42);
        let mut trace = Trace::default();
        let summary = Engine::new(
            &sys,
            NumericManager::new(&sys, &policy),
            OverheadModel::ZERO,
        )
        .run_cycle(0, Time::ZERO, &mut exec, &mut trace);

        let managed = model.cycle_energy_nj(&ladder, &exec.consumed, &trace.cycles[0], deadline);
        let baseline = model.baseline_energy_nj(&ladder, &exec, deadline);
        let total_cycles: u64 = exec.consumed.iter().map(|&(_, _, c)| c).sum();
        let busy_at_fmax = ladder.time_for_cycles(total_cycles, sqm_core::quality::Quality::new(0));
        let util = 100.0 * busy_at_fmax.as_ns() as f64 / deadline.as_ns() as f64;
        let freq_sum: f64 = exec
            .consumed
            .iter()
            .map(|&(_, q, c)| ladder.freq_mhz(q) as f64 * c as f64)
            .sum();
        let avg_freq = freq_sum / total_cycles as f64;

        rows.push(vec![
            format!("{deadline_ms}"),
            format!("{util:.0}"),
            format!("{managed:.0}"),
            format!("{baseline:.0}"),
            format!("{:.1}", 100.0 * (baseline - managed) / baseline),
            format!("{avg_freq:.0}"),
            format!("{}", summary.misses),
        ]);
        assert_eq!(
            summary.misses, 0,
            "energy saving must never cost a deadline"
        );
    }
    print!("{}", report::table(&rows));
    println!("\nshape check: the looser the deadline, the lower the average frequency and");
    println!("the larger the dynamic-energy saving over race-to-idle; misses stay at 0.");
}
