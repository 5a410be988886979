//! Ablation: the three quality-management policies of §2.2 compared on the
//! MPEG workload — safety, quality, and smoothness.
//!
//! * `safe` (worst-case only): never misses, but fluctuates wildly;
//! * `average` (soft-real-time baseline): smooth and optimistic, **can
//!   miss deadlines** when actual times run hot;
//! * `mixed` (the paper's contribution): no misses, smoothness close to
//!   the average policy.
//!
//! ```text
//! cargo run -p sqm-bench --release --bin ablation_policies
//! ```

use sqm_bench::report;
use sqm_core::controller::OverheadModel;
use sqm_core::engine::{CycleChaining, Engine};
use sqm_core::manager::NumericManager;
use sqm_core::policy::{AveragePolicy, MixedPolicy, Policy, SafePolicy};
use sqm_core::smoothness::Smoothness;
use sqm_core::trace::Trace;
use sqm_mpeg::{EncoderConfig, MpegEncoder};

fn run_policy<P: Policy>(enc: &MpegEncoder, policy: &P, hot: bool) -> Trace {
    let sys = enc.system();
    let mut exec = enc.exec(0.12, 7);
    if hot {
        // A sustained hot region: actual times pushed toward the worst
        // case over a third of the frame.
        exec = exec.with_burst(100, 250, 1.8);
    }
    let manager = NumericManager::new(sys, policy);
    let mut trace = Trace::default();
    Engine::new(sys, manager, OverheadModel::ZERO).run_cycles(
        12,
        enc.config().frame_period,
        CycleChaining::WorkConserving,
        &mut exec,
        &mut trace,
    );
    trace
}

fn summarize(name: &str, trace: &Trace) -> Vec<String> {
    let all_levels: Vec<usize> = trace
        .cycles
        .iter()
        .flat_map(|c| c.quality_sequence())
        .collect();
    let s = Smoothness::of(&all_levels);
    let run = trace.run_summary();
    vec![
        name.to_string(),
        format!("{}", run.misses),
        format!("{:.3}", run.avg_quality()),
        format!("{}", s.switches),
        format!("{}", s.total_variation),
        format!("{}", s.max_jump),
        format!("{:.3}", s.std_dev),
    ]
}

fn main() {
    let enc = MpegEncoder::new(EncoderConfig::paper(2024)).unwrap();
    let sys = enc.system();
    let safe = SafePolicy::new(sys);
    let average = AveragePolicy::new(sys);
    let mixed = MixedPolicy::new(sys);

    for hot in [false, true] {
        println!(
            "== policies on {} content (12 frames) ==\n",
            if hot {
                "HOT (near-worst-case burst)"
            } else {
                "normal"
            }
        );
        let rows = vec![
            vec![
                "policy".to_string(),
                "misses".to_string(),
                "avg q".to_string(),
                "switches".to_string(),
                "variation".to_string(),
                "max jump".to_string(),
                "std dev".to_string(),
            ],
            summarize("safe", &run_policy(&enc, &safe, hot)),
            summarize("average", &run_policy(&enc, &average, hot)),
            summarize("mixed", &run_policy(&enc, &mixed, hot)),
        ];
        print!("{}", report::table(&rows));
        println!();
    }

    // The structural claims.
    let mixed_trace = run_policy(&enc, &mixed, true);
    assert_eq!(
        mixed_trace.run_summary().misses,
        0,
        "mixed must stay safe under hot content"
    );
    let safe_trace = run_policy(&enc, &safe, true);
    assert_eq!(safe_trace.run_summary().misses, 0, "safe must stay safe");
    println!("shape check: mixed and safe miss nothing; average may miss under hot content;");
    println!("mixed's fluctuation (variation/std-dev) should sit well below safe's.");
}
