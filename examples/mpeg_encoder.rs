//! The paper's evaluation scenario end to end: the synthetic MPEG encoder
//! (1,189 actions, 7 quality levels) encoding 29 frames under the
//! relaxation-based symbolic Quality Manager, with overhead charged to the
//! virtual clock.
//!
//! ```text
//! cargo run --release --example mpeg_encoder
//! ```

use speed_qm::core::compiler::{compile_regions, compile_relaxation, TableStats};
use speed_qm::core::engine::{CycleChaining, Engine};
use speed_qm::core::manager::RelaxedManager;
use speed_qm::core::relaxation::StepSet;
use speed_qm::core::trace::Trace;
use speed_qm::mpeg::{metrics, EncoderConfig, MpegEncoder};
use speed_qm::platform::overhead;

fn main() {
    let encoder = MpegEncoder::new(EncoderConfig::paper(2024)).expect("paper config is feasible");
    let sys = encoder.system();
    println!(
        "encoder: {} actions over {} macroblocks, |Q| = {}, frame period {}",
        sys.n_actions(),
        encoder.video().macroblocks(),
        sys.qualities().len(),
        encoder.config().frame_period
    );

    // Offline compilation (the paper's Matlab pre-computation step).
    let regions = compile_regions(sys);
    let relaxation = compile_relaxation(sys, &regions, StepSet::paper_mpeg());
    let r = TableStats::of_regions(&regions);
    let x = TableStats::of_relaxation(&relaxation);
    println!(
        "symbolic tables: Rq = {} integers, Rrq = {} integers ({} KiB total)\n",
        r.integers,
        x.integers,
        (r.bytes + x.bytes) / 1024
    );

    // Encode the 29-frame clip.
    let mut exec = encoder.exec(0.12, 7);
    let manager = RelaxedManager::new(&regions, &relaxation);
    let mut trace = Trace::default();
    let run = Engine::new(sys, manager, overhead::relaxation()).run_cycles(
        29,
        encoder.config().frame_period,
        CycleChaining::WorkConserving,
        &mut exec,
        &mut trace,
    );

    println!("frame  avg_quality  psnr_dB  qm_calls  overhead%  deadline");
    for (i, cycle) in trace.cycles.iter().enumerate() {
        let psnr = metrics::frame_psnr(&encoder, cycle);
        let summary = cycle.summary();
        println!(
            "{i:5}  {:11.2}  {psnr:7.2}  {:8}  {:9.2}  {}",
            summary.avg_quality(),
            summary.qm_calls,
            summary.overhead_ratio() * 100.0,
            if summary.misses == 0 { "met" } else { "MISSED" }
        );
    }

    println!(
        "\ntotals: avg quality {:.2}, overhead {:.2} %, {} QM calls for {} actions, {} misses",
        run.avg_quality(),
        run.overhead_ratio() * 100.0,
        run.qm_calls,
        run.actions,
        run.misses
    );
}
