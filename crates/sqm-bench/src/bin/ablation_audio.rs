//! Ablation: the method on a second domain — the adaptive audio codec.
//!
//! Nothing in the paper's construction is video-specific; running the same
//! three Quality Managers on the audio pipeline must reproduce the §4.2
//! structure: numeric ≫ regions > relaxation in overhead, symbolic at
//! least matching numeric in quality, zero misses everywhere.
//!
//! ```text
//! cargo run -p sqm-bench --release --bin ablation_audio
//! ```

use sqm_audio::{AudioCodec, AudioConfig};
use sqm_bench::report;
use sqm_core::compiler::{compile_regions, compile_relaxation, TableStats};
use sqm_core::engine::{CycleChaining, Engine};
use sqm_core::manager::{LookupManager, NumericManager, RelaxedManager};
use sqm_core::policy::MixedPolicy;
use sqm_core::quality::Quality;
use sqm_core::relaxation::StepSet;
use sqm_core::trace::Trace;
use sqm_platform::overhead;

fn main() {
    let codec = AudioCodec::new(AudioConfig::streaming(2024)).unwrap();
    let sys = codec.system();
    let period = codec.config().cycle_period;
    let cycles = 64; // ~1.3 s of audio

    let policy = MixedPolicy::new(sys);
    let regions = compile_regions(sys);
    let relaxation = compile_relaxation(sys, &regions, StepSet::new(vec![1, 4, 8, 16]).unwrap());

    println!(
        "== audio codec: {} actions/cycle, |Q| = {}, period {} ==\n",
        sys.n_actions(),
        sys.qualities().len(),
        period
    );
    println!(
        "tables: regions {} ints, relaxation {} ints\n",
        TableStats::of_regions(&regions).integers,
        TableStats::of_relaxation(&relaxation).integers
    );

    let mut rows = vec![vec![
        "manager".to_string(),
        "overhead %".to_string(),
        "QM calls".to_string(),
        "avg quality".to_string(),
        "mean kbit/packet".to_string(),
        "misses".to_string(),
    ]];
    let mut overheads = Vec::new();
    for kind in 0..3usize {
        let mut exec = codec.exec(0.15, 7);
        let mut trace = Trace::default();
        let chaining = CycleChaining::WorkConserving;
        let run = match kind {
            0 => Engine::new(sys, NumericManager::new(sys, &policy), overhead::numeric())
                .run_cycles(cycles, period, chaining, &mut exec, &mut trace),
            1 => Engine::new(sys, LookupManager::new(&regions), overhead::regions())
                .run_cycles(cycles, period, chaining, &mut exec, &mut trace),
            _ => Engine::new(
                sys,
                RelaxedManager::new(&regions, &relaxation),
                overhead::relaxation(),
            )
            .run_cycles(cycles, period, chaining, &mut exec, &mut trace),
        };
        // Measured rate: bits actually allocated at the chosen qualities.
        let mut bits = 0usize;
        for c in &trace.cycles {
            for r in &c.records {
                if codec.stage(r.action) == sqm_audio::pipeline::AudioStage::Allocate {
                    bits += codec.block_bits(
                        c.cycle,
                        codec.block_of(r.action),
                        Quality::new(r.quality.index() as u8),
                    );
                }
            }
        }
        let label = ["numeric", "symbolic -- regions", "symbolic -- relaxation"][kind];
        overheads.push(run.overhead_ratio() * 100.0);
        rows.push(vec![
            label.to_string(),
            format!("{:.2}", run.overhead_ratio() * 100.0),
            format!("{}", run.qm_calls),
            format!("{:.3}", run.avg_quality()),
            format!("{:.1}", bits as f64 / cycles as f64 / 1_000.0),
            format!("{}", run.misses),
        ]);
        assert_eq!(run.misses, 0);
    }
    print!("{}", report::table(&rows));
    println!(
        "\nshape check: same §4.2 structure on audio — numeric/regions = {:.1}x, regions/relaxation = {:.1}x",
        overheads[0] / overheads[1],
        overheads[1] / overheads[2]
    );
    assert!(overheads[0] > overheads[1] && overheads[1] > overheads[2]);
}
