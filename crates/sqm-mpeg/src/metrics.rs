//! Rate/distortion metrics — "overall video quality".
//!
//! The paper argues that lower QM overhead translates into higher quality
//! levels and therefore "a significant improvement of the overall video
//! quality" (Fig. 7). These helpers make that claim measurable on the
//! synthetic encoder: encoding a macroblock's real pixel blocks at the
//! quality level the manager chose yields a PSNR figure, and per-frame PSNR
//! aggregates a trace into the paper's quality-per-frame curves.

use crate::blocks::encode_block;
use crate::encoder::{MpegEncoder, Stage};
use sqm_core::trace::{CycleTrace, Trace};

/// PSNR (dB) of one macroblock encoded at `quality` — runs the real DCT /
/// quantization pipeline on the macroblock's four luma blocks.
pub fn macroblock_psnr(enc: &MpegEncoder, frame: usize, mb: usize, quality: usize) -> f64 {
    let mut sse = 0u64;
    for sub in 0..4 {
        let block = enc.video().block(frame, mb, sub);
        let (_, s) = encode_block(&block, quality);
        sse += s;
    }
    let n_px = 4.0 * 64.0;
    if sse == 0 {
        return 99.0; // lossless within fixed-point error
    }
    let mse = sse as f64 / n_px;
    (10.0 * (255.0f64 * 255.0 / mse).log10()).min(99.0)
}

/// Per-cycle mean PSNR of a trace: each macroblock is scored at the
/// quality level its DCT action ran with.
pub fn frame_psnr(enc: &MpegEncoder, cycle: &CycleTrace) -> f64 {
    let mut sum = 0.0;
    let mut count = 0usize;
    let frame = cycle.cycle % enc.video().frames.max(1);
    for r in &cycle.records {
        if enc.stage(r.action) == Stage::DctQuant {
            let mb = enc
                .macroblock(r.action)
                .expect("DCT actions have a macroblock");
            sum += macroblock_psnr(enc, frame, mb, r.quality.index());
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// Per-cycle PSNR series of a whole run (the Fig. 7 companion in dB).
pub fn video_quality_series(enc: &MpegEncoder, trace: &Trace) -> Vec<f64> {
    trace.cycles.iter().map(|c| frame_psnr(enc, c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::EncoderConfig;
    use sqm_core::controller::{ConstantExec, OverheadModel};
    use sqm_core::engine::Engine;
    use sqm_core::manager::NumericManager;
    use sqm_core::policy::MixedPolicy;
    use sqm_core::time::Time;
    use sqm_core::trace::Trace;

    #[test]
    fn psnr_increases_with_quality() {
        let enc = MpegEncoder::new(EncoderConfig::tiny(5)).unwrap();
        for mb in 0..3 {
            let mut prev = 0.0;
            for q in 0..7 {
                let p = macroblock_psnr(&enc, 1, mb, q);
                assert!(
                    p >= prev - 1e-9,
                    "PSNR monotone at mb {mb}, q {q}: {p} < {prev}"
                );
                assert!((10.0..=99.0).contains(&p));
                prev = p;
            }
        }
    }

    #[test]
    fn frame_psnr_from_trace() {
        let enc = MpegEncoder::new(EncoderConfig::tiny(5)).unwrap();
        let sys = enc.system();
        let policy = MixedPolicy::new(sys);
        let mut trace = Trace::default();
        Engine::new(sys, NumericManager::new(sys, &policy), OverheadModel::ZERO).run_cycle(
            0,
            Time::ZERO,
            &mut ConstantExec::average(sys.table()),
            &mut trace,
        );
        let psnr = frame_psnr(&enc, &trace.cycles[0]);
        assert!(psnr > 20.0, "plausible PSNR, got {psnr}");
    }

    #[test]
    fn higher_quality_trace_scores_higher() {
        use sqm_core::trace::ActionRecord;
        let enc = MpegEncoder::new(EncoderConfig::tiny(5)).unwrap();
        let mk = |q: u8| -> CycleTrace {
            let records = (0..enc.system().n_actions())
                .map(|a| ActionRecord {
                    action: a,
                    quality: sqm_core::quality::Quality::new(q),
                    decided: true,
                    qm_work: 0,
                    qm_overhead: Time::ZERO,
                    start: Time::ZERO,
                    duration: Time::ZERO,
                    end: Time::ZERO,
                    missed_deadline: false,
                    infeasible: false,
                })
                .collect();
            CycleTrace {
                cycle: 0,
                start: Time::ZERO,
                records,
            }
        };
        assert!(frame_psnr(&enc, &mk(6)) > frame_psnr(&enc, &mk(0)));
    }

    #[test]
    fn series_covers_all_cycles() {
        let enc = MpegEncoder::new(EncoderConfig::tiny(5)).unwrap();
        let trace = Trace {
            cycles: vec![
                CycleTrace {
                    cycle: 0,
                    start: Time::ZERO,
                    records: vec![],
                },
                CycleTrace {
                    cycle: 1,
                    start: Time::ZERO,
                    records: vec![],
                },
            ],
        };
        let series = video_quality_series(&enc, &trace);
        assert_eq!(series, vec![0.0, 0.0], "empty cycles score zero");
    }
}
