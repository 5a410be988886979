//! Quickstart: build a small parameterized system, compile its symbolic
//! tables, and run it under each Quality Manager.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use speed_qm::core::prelude::*;

fn main() {
    // An application cycle of five actions with three quality levels.
    // Rows are nanoseconds: worst-case then average, one entry per level.
    let system = SystemBuilder::new(3)
        .action("decode", &[120, 200, 320], &[60, 100, 160])
        .action("transform", &[150, 260, 400], &[80, 130, 200])
        .action("filter", &[100, 180, 280], &[50, 90, 140])
        .action("compose", &[140, 240, 380], &[70, 120, 190])
        .action("render", &[110, 190, 300], &[55, 95, 150])
        .deadline_last(Time::from_ns(1_200))
        .build()
        .expect("feasible at minimal quality");

    println!(
        "system: {} actions, {} quality levels, deadline {}",
        system.n_actions(),
        system.qualities().len(),
        system.final_deadline()
    );
    println!("worst-case slack at qmin: {}\n", system.min_quality_slack());

    // The paper's mixed policy and its symbolic compilation.
    let policy = MixedPolicy::new(&system);
    let regions = compile_regions(&system);
    let relaxation = compile_relaxation(&system, &regions, StepSet::new(vec![1, 2, 3]).unwrap());
    println!(
        "compiled: {} region integers, {} relaxation integers\n",
        regions.integer_count(),
        relaxation.integer_count()
    );

    // Run one cycle per manager; actual times = the average column.
    let run = |name: &str, manager: &mut dyn QualityManager| {
        let mut exec = ConstantExec::average(system.table());
        let mut trace = Trace::default();
        let summary = Engine::new(&system, manager, OverheadModel::ZERO).run_cycle(
            0,
            Time::ZERO,
            &mut exec,
            &mut trace,
        );
        println!(
            "{name:12} qualities {:?}  avg {:.2}  misses {}  finished at {}",
            trace.cycles[0].quality_sequence(),
            summary.avg_quality(),
            summary.misses,
            summary.end
        );
    };

    run("numeric", &mut NumericManager::new(&system, &policy));
    run("regions", &mut LookupManager::new(&regions));
    run(
        "relaxation",
        &mut RelaxedManager::new(&regions, &relaxation),
    );

    println!("\nall three managers realize the same function Γ — same qualities, same safety.");
}
