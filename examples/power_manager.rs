//! DVFS power management on speed diagrams: the paper conclusion's
//! extension, where the "quality level" is a CPU frequency and maximizing
//! it minimizes energy.
//!
//! ```text
//! cargo run --release --example power_manager
//! ```

use speed_qm::core::controller::OverheadModel;
use speed_qm::core::engine::Engine;
use speed_qm::core::manager::NumericManager;
use speed_qm::core::policy::MixedPolicy;
use speed_qm::core::time::Time;
use speed_qm::core::trace::Trace;
use speed_qm::power::{CycleExec, DvfsTask, EnergyModel, FrequencyLadder};

fn main() {
    let ladder = FrequencyLadder::embedded4();
    let deadline = Time::from_ms(140);
    let task = DvfsTask::synthetic(50, deadline);
    let sys = task.to_system(&ladder).expect("feasible at f_max");

    println!("task: {} actions, deadline {deadline}", sys.n_actions());
    println!("frequency ladder (quality ↦ MHz):");
    for q in ladder.qualities().iter() {
        println!("  q{} ↦ {} MHz", q.index(), ladder.freq_mhz(q));
    }

    let policy = MixedPolicy::new(&sys);
    let mut exec = CycleExec::new(&task, &ladder, 0.15, 42);
    let mut full = Trace::default();
    let stats = Engine::new(
        &sys,
        NumericManager::new(&sys, &policy),
        OverheadModel::ZERO,
    )
    .run_cycle(0, Time::ZERO, &mut exec, &mut full);
    let trace = &full.cycles[0];

    println!("\nper-action frequency schedule (first 15 actions):");
    for r in trace.records.iter().take(15) {
        println!(
            "  {:6}  {:4} MHz  ran {:9}  ends {}",
            format!("job{}", r.action),
            ladder.freq_mhz(r.quality),
            r.duration,
            r.end
        );
    }

    let model = EnergyModel::default();
    let managed = model.cycle_energy_nj(&ladder, &exec.consumed, trace, deadline);
    let baseline = model.baseline_energy_nj(&ladder, &exec, deadline);
    println!(
        "\nfinished at {} (deadline {deadline}), {} misses",
        stats.end, stats.misses
    );
    println!(
        "energy: managed {:.2} mJ vs race-to-idle {:.2} mJ → {:.1} % saved",
        managed / 1e6,
        baseline / 1e6,
        100.0 * (baseline - managed) / baseline
    );
    assert_eq!(stats.misses, 0);
}
