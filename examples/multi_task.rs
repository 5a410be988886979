//! Multi-task composition: two cyclic applications — a video pipeline and
//! an audio pipeline — statically interleaved onto one processor and
//! controlled by a single Quality Manager (the paper conclusion's
//! "adaption to multiple tasks").
//!
//! ```text
//! cargo run --example multi_task
//! ```

use speed_qm::core::controller::{ConstantExec, OverheadModel};
use speed_qm::core::engine::{Engine, Tee};
use speed_qm::core::manager::NumericManager;
use speed_qm::core::multi::{interleave, TaskSplitter};
use speed_qm::core::policy::MixedPolicy;
use speed_qm::core::system::SystemBuilder;
use speed_qm::core::time::Time;
use speed_qm::core::trace::Trace;

fn main() {
    // Task 0: "video" — heavier actions, late deadline.
    let mut video = SystemBuilder::new(3);
    for i in 0..8 {
        video = video.action(&format!("v{i}"), &[200, 340, 500], &[100, 170, 250]);
    }
    let video = video.deadline_last(Time::from_ns(5_200)).build().unwrap();

    // Task 1: "audio" — light actions, tight mid-cycle deadline.
    let mut audio = SystemBuilder::new(3);
    for i in 0..4 {
        audio = audio.action(&format!("s{i}"), &[80, 120, 180], &[40, 60, 90]);
    }
    let audio = audio
        .deadline(1, Time::from_ns(1_800))
        .deadline_last(Time::from_ns(4_200))
        .build()
        .unwrap();

    // Interleave two video actions per audio action.
    let merged = interleave(&[&video, &audio], &[0, 0, 1]).expect("feasible combination");
    println!("merged schedule ({} actions):", merged.system.n_actions());
    for (i, p) in merged.provenance.iter().enumerate() {
        let name = &merged.system.action(i).name;
        let deadline = merged
            .system
            .deadlines()
            .get(i)
            .map_or(String::new(), |d| format!("  [deadline {d}]"));
        println!("  {i:2}  task{}  {name}{deadline}", p.task);
    }

    // One Quality Manager controls both tasks; quality is degraded
    // globally whenever either task's deadline tightens. The plain engine
    // runs the merged system; a task splitter beside the trace attributes
    // results back to each source task as records are produced.
    let policy = MixedPolicy::new(&merged.system);
    let mut full = Trace::default();
    let mut splitter = TaskSplitter::new(&merged);
    let stats = Engine::new(
        &merged.system,
        NumericManager::new(&merged.system, &policy),
        OverheadModel::ZERO,
    )
    .run_cycle(
        0,
        Time::ZERO,
        &mut ConstantExec::average(merged.system.table()),
        &mut Tee(&mut full, &mut splitter),
    );
    let trace = full.cycles.into_iter().next().expect("one cycle ran");

    println!("\nexecution:");
    for r in &trace.records {
        println!(
            "  {:10}  q{}  ends {}",
            merged.system.action(r.action).name,
            r.quality.index(),
            r.end
        );
    }
    println!(
        "\navg quality {:.2}, {} misses — both tasks' deadlines honoured by one manager",
        stats.avg_quality(),
        stats.misses
    );
    assert_eq!(stats.misses, 0);

    // Per-task attribution, collected inline by the splitter.
    println!("\nper-task results:");
    for (t, s) in splitter.task_summaries().iter().enumerate() {
        println!(
            "  task{t}: {} actions, avg quality {:.2}, {} misses",
            s.actions,
            s.avg_quality(),
            s.misses
        );
    }

    // Modular speed diagrams (the conclusion's last bullet): project the
    // merged execution back into each task's own diagram. The competitor's
    // interleaved work appears as horizontal stretches (time passing with
    // no virtual progress).
    use speed_qm::core::speed::{ascii_plot, SpeedDiagram};
    let video_policy = MixedPolicy::new(&video);
    let audio_policy = MixedPolicy::new(&audio);
    let video_diagram = SpeedDiagram::for_final_deadline(&video_policy);
    let audio_diagram = SpeedDiagram::for_final_deadline(&audio_policy);
    let video_traj = video_diagram.trajectory(&merged.project_trace(&trace, 0));
    let audio_traj = audio_diagram.trajectory(&merged.project_trace(&trace, 1));
    println!("\nper-task speed diagrams (v = video, a = audio, dots = bisectrice):\n");
    print!(
        "{}",
        ascii_plot(&[(&video_traj, 'v'), (&audio_traj, 'a')], 60, 16)
    );
}
