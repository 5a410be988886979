//! Design-time exploration with the analysis module: before deploying a
//! controlled application, predict what the Quality Manager will do — the
//! minimal feasible deadline, the sustainable level, the budget/quality
//! trade-off curve — all without executing anything.
//!
//! ```text
//! cargo run --release --example design_explorer
//! ```

use speed_qm::core::analysis;
use speed_qm::core::time::Time;
use speed_qm::mpeg::{EncoderConfig, MpegEncoder};

fn main() {
    let enc = MpegEncoder::new(EncoderConfig::paper(2024)).unwrap();
    let sys = enc.system();

    println!("== design-time analysis of the MPEG encoder ==\n");
    let min_d = analysis::min_feasible_deadline(sys).expect("intermediate deadlines feasible");
    println!("minimal feasible frame deadline (qmin worst case): {min_d}");
    println!(
        "configured frame period:                           {}",
        enc.config().frame_period
    );

    let sustainable = analysis::sustainable_quality(sys).unwrap();
    println!(
        "sustainable level (average fits the budget):       q{}",
        sustainable.index()
    );
    println!(
        "nominal utilization at the configured period:      {:.1} %",
        100.0 * analysis::nominal_utilization(sys)
    );

    println!("\nbudget/quality curve (nominal average level per frame deadline):");
    let candidates: Vec<Time> = (0..=10).map(|i| Time::from_ms(700 + i * 150)).collect();
    for (d, q) in analysis::deadline_sweep(sys, &candidates) {
        match q {
            None => println!("  {d:>12}  infeasible"),
            Some(q) => {
                let bar = "#".repeat((q * 8.0) as usize);
                println!("  {d:>12}  {q:5.2}  {bar}");
            }
        }
    }

    println!("\nnominal quality envelope across one frame (every 100th state):");
    let envelope = analysis::quality_envelope(sys);
    for (state, (t, q)) in envelope.iter().enumerate().step_by(100) {
        println!("  s{state:<5} t = {t:>12}  q{}", q.index());
    }

    // The prediction is exact for the average-time run — cross-check.
    use speed_qm::core::controller::{ConstantExec, OverheadModel};
    use speed_qm::core::engine::Engine;
    use speed_qm::core::manager::NumericManager;
    use speed_qm::core::policy::MixedPolicy;
    use speed_qm::core::trace::Trace;
    let policy = MixedPolicy::new(sys);
    let mut trace = Trace::default();
    Engine::new(sys, NumericManager::new(sys, &policy), OverheadModel::ZERO).run_cycle(
        0,
        Time::ZERO,
        &mut ConstantExec::average(sys.table()),
        &mut trace,
    );
    let predicted: Vec<usize> = envelope.iter().map(|(_, q)| q.index()).collect();
    assert_eq!(predicted, trace.cycles[0].quality_sequence());
    println!("\nprediction cross-check against an executed average-time frame: exact match.");
}
