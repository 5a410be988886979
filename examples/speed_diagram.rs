//! Visualize a speed diagram: run one cycle twice — once with slack, once
//! under pressure — and plot both trajectories against the bisectrice.
//!
//! ```text
//! cargo run --example speed_diagram
//! ```

use speed_qm::core::controller::{ExecutionTimeSource, FnExec, OverheadModel};
use speed_qm::core::engine::Engine;
use speed_qm::core::manager::NumericManager;
use speed_qm::core::policy::MixedPolicy;
use speed_qm::core::speed::{ascii_plot, SpeedDiagram};
use speed_qm::core::system::SystemBuilder;
use speed_qm::core::time::Time;
use speed_qm::core::trace::Trace;

fn main() {
    // A 24-action cycle, three quality levels.
    let mut builder = SystemBuilder::new(3);
    for i in 0..24 {
        builder = builder.action(&format!("a{i}"), &[100, 180, 260], &[50, 90, 130]);
    }
    let system = builder.deadline_last(Time::from_ns(2_800)).build().unwrap();
    let policy = MixedPolicy::new(&system);
    let diagram = SpeedDiagram::for_final_deadline(&policy);

    println!("ideal speeds: ");
    for q in system.qualities().iter() {
        println!("  vidl(q{}) = {:.3}", q.index(), diagram.ideal_speed(q));
    }

    // One cycle from time 0 under the numeric manager, recorded.
    let run = |mut exec: &mut dyn ExecutionTimeSource| {
        let mut trace = Trace::default();
        Engine::new(
            &system,
            NumericManager::new(&system, &policy),
            OverheadModel::ZERO,
        )
        .run_cycle(0, Time::ZERO, &mut exec, &mut trace);
        trace.cycles.pop().expect("one cycle ran")
    };
    let table = system.table();

    // Easy run: actual times at 80 % of average → trajectory above the
    // bisectrice, quality climbs.
    let easy_cycle = run(&mut FnExec(|_c, a, q| {
        Time::from_ns(table.av(a, q).as_ns() * 8 / 10)
    }));

    // Hard run: actual times at 160 % of average (still ≤ Cwc) →
    // trajectory sags toward the bisectrice, quality degrades.
    let hard_cycle = run(&mut FnExec(|_c, a, q| {
        Time::from_ns((table.av(a, q).as_ns() * 16 / 10).min(table.wc(a, q).as_ns()))
    }));

    let easy = diagram.trajectory(&easy_cycle);
    let hard = diagram.trajectory(&hard_cycle);

    println!("\nspeed diagram (dots = bisectrice, e = easy run, h = hard run):\n");
    print!("{}", ascii_plot(&[(&easy, 'e'), (&hard, 'h')], 66, 22));

    println!("\neasy run qualities: {:?}", easy_cycle.quality_sequence());
    println!("hard run qualities: {:?}", hard_cycle.quality_sequence());
    println!(
        "\nboth runs met the deadline ({} / {} misses); the manager converted the easy\n\
         run's slack into higher quality instead of finishing early.",
        easy_cycle.summary().misses,
        hard_cycle.summary().misses
    );
}
