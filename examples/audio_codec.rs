//! Adaptive audio streaming: the quality-managed transform codec encoding
//! ~1 s of program material under a 21 ms packet deadline, with a deadline
//! renegotiation mid-stream (the shifted-table feature).
//!
//! ```text
//! cargo run --release --example audio_codec
//! ```

use speed_qm::audio::{AudioCodec, AudioConfig};
use speed_qm::core::compiler::compile_regions;
use speed_qm::core::engine::{CycleChaining, Engine};
use speed_qm::core::manager::LookupManager;
use speed_qm::core::time::Time;
use speed_qm::core::trace::Trace;
use speed_qm::platform::overhead;

fn main() {
    let codec = AudioCodec::new(AudioConfig::streaming(7)).unwrap();
    let sys = codec.system();
    println!(
        "audio codec: {} blocks/packet, {} actions, |Q| = {}, packet deadline {}",
        codec.config().blocks_per_cycle,
        sys.n_actions(),
        sys.qualities().len(),
        codec.config().cycle_period
    );

    let regions = compile_regions(sys);

    // Phase 1: nominal 21 ms packets.
    let mut exec = codec.exec(0.15, 3);
    let mut trace = Trace::default();
    let run = Engine::new(sys, LookupManager::new(&regions), overhead::regions()).run_cycles(
        24,
        codec.config().cycle_period,
        CycleChaining::WorkConserving,
        &mut exec,
        &mut trace,
    );
    println!(
        "\nphase 1 (21 ms packets): avg quality {:.2}, {} misses",
        run.avg_quality(),
        run.misses
    );

    // Phase 2: the network asks for faster packets — shrink the deadline
    // by 1 ms (the qmin worst case of ~19.2 ms floors how far we can go).
    // For a single global deadline the compiled table shifts
    // instead of recompiling; the deadline map moves with it so misses are
    // judged against the renegotiated deadline.
    let tighter = regions.shifted(Time::from_ms(-1));
    let moved = speed_qm::core::analysis::with_final_deadline(
        sys,
        codec.config().cycle_period - Time::from_ms(1),
    )
    .expect("still feasible at qmin");
    let mut exec = codec.exec(0.15, 4);
    let mut fast = Trace::default();
    let fast_run = Engine::new(&moved, LookupManager::new(&tighter), overhead::regions())
        .run_cycles(
            24,
            codec.config().cycle_period - Time::from_ms(1),
            CycleChaining::WorkConserving,
            &mut exec,
            &mut fast,
        );
    println!(
        "phase 2 (20 ms packets, shifted table): avg quality {:.2}, {} misses",
        fast_run.avg_quality(),
        fast_run.misses
    );

    // Rate at the two operating points.
    let packet_bits = |t: &Trace| -> f64 {
        let mut bits = 0usize;
        for c in &t.cycles {
            for r in &c.records {
                if codec.stage(r.action) == speed_qm::audio::pipeline::AudioStage::Allocate {
                    bits += codec.block_bits(c.cycle, codec.block_of(r.action), r.quality);
                }
            }
        }
        bits as f64 / t.cycles.len() as f64
    };
    println!(
        "\nrate: {:.1} kbit/packet at 21 ms vs {:.1} kbit/packet at 20 ms",
        packet_bits(&trace) / 1_000.0,
        packet_bits(&fast) / 1_000.0
    );
    assert_eq!(run.misses + fast_run.misses, 0);
    assert!(fast_run.avg_quality() <= run.avg_quality());
    println!(
        "\ntighter deadline → lower quality/rate, still zero misses — no recompilation needed."
    );
}
