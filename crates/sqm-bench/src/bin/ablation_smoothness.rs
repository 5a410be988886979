//! Ablation: the smoothness requirement (§1's third QoS property, deferred
//! to reference \[6\] in the paper) — rate-limiting upward quality jumps with the
//! `SmoothedManager` wrapper, on the MPEG workload with bursty content.
//!
//! ```text
//! cargo run -p sqm-bench --release --bin ablation_smoothness
//! ```

use sqm_bench::report;
use sqm_core::engine::{CycleChaining, Engine};
use sqm_core::manager::{NumericManager, SmoothedManager};
use sqm_core::policy::MixedPolicy;
use sqm_core::smoothness::Smoothness;
use sqm_core::trace::Trace;
use sqm_mpeg::{EncoderConfig, MpegEncoder};
use sqm_platform::overhead;

fn main() {
    let enc = MpegEncoder::new(EncoderConfig::paper(2024)).unwrap();
    let sys = enc.system();
    let policy = MixedPolicy::new(sys);
    let period = enc.config().frame_period;
    let frames = 12;

    // Bursty content: alternating easy/hard regions per frame.
    let run = |max_step_up: Option<(u8, u32)>| {
        let mut exec = enc.exec(0.15, 99).with_burst(120, 260, 1.6);
        let mut trace = Trace::default();
        let chaining = CycleChaining::WorkConserving;
        let run = match max_step_up {
            None => Engine::new(sys, NumericManager::new(sys, &policy), overhead::numeric())
                .run_cycles(frames, period, chaining, &mut exec, &mut trace),
            Some((step, hyst)) => Engine::new(
                sys,
                SmoothedManager::new(NumericManager::new(sys, &policy), step, hyst),
                overhead::numeric(),
            )
            .run_cycles(frames, period, chaining, &mut exec, &mut trace),
        };
        (trace, run)
    };

    println!("== smoothness ablation ({frames} frames, bursty content) ==\n");
    let mut rows = vec![vec![
        "manager".to_string(),
        "misses".to_string(),
        "avg q".to_string(),
        "switches".to_string(),
        "variation".to_string(),
        "max jump".to_string(),
    ]];
    let configs: [(&str, Option<(u8, u32)>); 4] = [
        ("unsmoothed", None),
        ("step≤1, hyst 0", Some((1, 0))),
        ("step≤1, hyst 8", Some((1, 8))),
        ("step≤2, hyst 2", Some((2, 2))),
    ];
    for (label, cfg) in configs {
        let (trace, run) = run(cfg);
        let levels: Vec<usize> = trace
            .cycles
            .iter()
            .flat_map(|c| c.quality_sequence())
            .collect();
        let s = Smoothness::of(&levels);
        rows.push(vec![
            label.to_string(),
            format!("{}", run.misses),
            format!("{:.3}", run.avg_quality()),
            format!("{}", s.switches),
            format!("{}", s.total_variation),
            format!("{}", s.max_jump),
        ]);
        assert_eq!(run.misses, 0, "smoothing must preserve safety");
    }
    print!("{}", report::table(&rows));
    println!("\nshape check: variation and max jump fall as smoothing tightens, at a small");
    println!("average-quality cost; misses stay at 0 because only climbs are limited.");
}
