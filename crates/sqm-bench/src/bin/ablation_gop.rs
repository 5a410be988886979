//! Ablation: GOP structure — the periodic I/P cost asymmetry real encoders
//! have, and how the Quality Manager rides it.
//!
//! I-frames skip motion search but code denser residuals and more bits; the
//! manager's per-frame quality and the measured bitrate should both show
//! the GOP period.
//!
//! ```text
//! cargo run -p sqm-bench --release --bin ablation_gop
//! ```

use sqm_bench::report;
use sqm_core::compiler::{compile_regions, compile_relaxation};
use sqm_core::engine::{CycleChaining, Engine};
use sqm_core::manager::RelaxedManager;
use sqm_core::relaxation::StepSet;
use sqm_core::trace::Trace;
use sqm_mpeg::{metrics, rate, EncoderConfig, GopPattern, MpegEncoder};
use sqm_platform::overhead;

fn main() {
    let enc = MpegEncoder::new(EncoderConfig::paper(2024)).unwrap();
    let sys = enc.system();
    let regions = compile_regions(sys);
    let relaxation = compile_relaxation(sys, &regions, StepSet::paper_mpeg());
    let period = enc.config().frame_period;
    let frames = 16;

    let mut results = Vec::new();
    for (label, gop) in [
        ("no GOP (all nominal)", None),
        ("IPPP (GOP 4)", Some(GopPattern::ippp(3))),
        ("all-intra", Some(GopPattern::all_intra())),
    ] {
        let mut exec = enc.exec(0.12, 5);
        if let Some(g) = gop.clone() {
            exec = exec.with_gop(g);
        }
        let mut trace = Trace::default();
        let run = Engine::new(
            sys,
            RelaxedManager::new(&regions, &relaxation),
            overhead::relaxation(),
        )
        .run_cycles(
            frames,
            period,
            CycleChaining::WorkConserving,
            &mut exec,
            &mut trace,
        );
        assert_eq!(run.misses, 0, "{label}");
        let quality: Vec<f64> = trace
            .cycles
            .iter()
            .map(|c| c.summary().avg_quality())
            .collect();
        let bits = rate::bitrate_series(&enc, &trace, gop.as_ref());
        let psnr = metrics::video_quality_series(&enc, &trace);
        results.push((label, gop, run, quality, bits, psnr));
    }

    println!("== GOP ablation ({frames} frames, relaxation manager) ==\n");
    let mut rows = vec![vec![
        "pattern".to_string(),
        "avg quality".to_string(),
        "mean PSNR".to_string(),
        "mean kbit/frame".to_string(),
        "peak kbit/frame".to_string(),
        "misses".to_string(),
    ]];
    for (label, _gop, run, _quality, bits, psnr) in &results {
        let summary = rate::summarize(bits, period.as_secs_f64());
        rows.push(vec![
            label.to_string(),
            format!("{:.3}", run.avg_quality()),
            format!("{:.2}", psnr.iter().sum::<f64>() / psnr.len() as f64),
            format!("{:.1}", summary.mean_bits / 1_000.0),
            format!("{:.1}", summary.peak_bits / 1_000.0),
            format!("{}", run.misses),
        ]);
    }
    print!("{}", report::table(&rows));

    // Per-frame quality for the IPPP run: the GOP period should be visible.
    let (_, _, _, quality, bits, _) = &results[1];
    println!("\nIPPP per-frame quality (I-frames land on 0, 4, 8, 12):\n");
    print!("{}", report::chart(&[(quality, 'q')], 48, 10));
    println!("\nIPPP per-frame kbit:\n");
    let kbits: Vec<f64> = bits.iter().map(|b| b / 1_000.0).collect();
    print!("{}", report::chart(&[(&kbits, 'b')], 48, 10));

    let i_frames: Vec<f64> = (0..frames).step_by(4).map(|f| kbits[f]).collect();
    let p_frames: Vec<f64> = (0..frames)
        .filter(|f| f % 4 != 0)
        .map(|f| kbits[f])
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "\nshape check: I-frames average {:.0} kbit vs P-frames {:.0} kbit",
        mean(&i_frames),
        mean(&p_frames)
    );
    assert!(mean(&i_frames) > mean(&p_frames));
}
