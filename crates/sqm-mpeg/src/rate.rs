//! Bitrate accounting.
//!
//! Encoded size is the other half of the rate/distortion trade the quality
//! level controls: higher levels spend more bits (finer quantization) for
//! higher PSNR. These helpers estimate per-frame and per-run bit budgets
//! from an executed trace, using the real entropy-size model of
//! [`crate::blocks`] on the real (procedural) pixel data, so the rate curve
//! is measured, not assumed.

use crate::blocks::encode_block;
use crate::encoder::{MpegEncoder, Stage};
use crate::gop::GopPattern;
use sqm_core::trace::{CycleTrace, Trace};

/// Exact coded-bit estimate of one macroblock at a quality level (the four
/// luma blocks through DCT → quantization → run-length size).
pub fn macroblock_bits(enc: &MpegEncoder, frame: usize, mb: usize, quality: usize) -> usize {
    (0..4)
        .map(|sub| {
            let block = enc.video().block(frame, mb, sub);
            encode_block(&block, quality).0
        })
        .sum()
}

/// Bits of one executed cycle: each macroblock scored at the quality its
/// entropy-coding action ran with, scaled by the GOP kind's bit factor.
pub fn frame_bits(enc: &MpegEncoder, cycle: &CycleTrace, gop: Option<&GopPattern>) -> f64 {
    let frame = cycle.cycle % enc.video().frames.max(1);
    let factor = gop.map_or(1.0, |g| g.bits_factor(frame));
    let mut bits = 0usize;
    for r in &cycle.records {
        if enc.stage(r.action) == Stage::Entropy {
            let mb = enc
                .macroblock(r.action)
                .expect("entropy actions have a macroblock");
            bits += macroblock_bits(enc, frame, mb, r.quality.index());
        }
    }
    bits as f64 * factor
}

/// Per-frame bit series for a run.
pub fn bitrate_series(enc: &MpegEncoder, trace: &Trace, gop: Option<&GopPattern>) -> Vec<f64> {
    trace
        .cycles
        .iter()
        .map(|c| frame_bits(enc, c, gop))
        .collect()
}

/// Summary of a run's rate behaviour.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RateSummary {
    /// Mean bits per frame.
    pub mean_bits: f64,
    /// Peak frame.
    pub peak_bits: f64,
    /// Mean bitrate in kbit/s given the frame period in seconds.
    pub kbps: f64,
}

/// Aggregate a bit series into a summary.
pub fn summarize(bits: &[f64], frame_period_s: f64) -> RateSummary {
    if bits.is_empty() || frame_period_s <= 0.0 {
        return RateSummary {
            mean_bits: 0.0,
            peak_bits: 0.0,
            kbps: 0.0,
        };
    }
    let mean = bits.iter().sum::<f64>() / bits.len() as f64;
    let peak = bits.iter().cloned().fold(f64::MIN, f64::max);
    RateSummary {
        mean_bits: mean,
        peak_bits: peak,
        kbps: mean / frame_period_s / 1_000.0,
    }
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

    fn run_cycle(enc: &MpegEncoder) -> CycleTrace {
        let sys = enc.system();
        let p = MixedPolicy::new(sys);
        let mut trace = Trace::default();
        Engine::new(sys, NumericManager::new(sys, &p), OverheadModel::ZERO).run_cycle(
            0,
            Time::ZERO,
            &mut ConstantExec::average(sys.table()),
            &mut trace,
        );
        trace.cycles.pop().unwrap()
    }

    #[test]
    fn macroblock_bits_increase_with_quality() {
        let enc = MpegEncoder::new(EncoderConfig::tiny(4)).unwrap();
        let mut prev = 0;
        for q in 0..7 {
            let bits = macroblock_bits(&enc, 1, 2, q);
            assert!(bits >= prev, "bits monotone in quality");
            prev = bits;
        }
        assert!(prev > 0);
    }

    #[test]
    fn frame_bits_reflect_gop_kind() {
        let enc = MpegEncoder::new(EncoderConfig::tiny(4)).unwrap();
        let cycle = run_cycle(&enc);
        let g = GopPattern::ippp(3);
        let plain = frame_bits(&enc, &cycle, None);
        let with_gop = frame_bits(&enc, &cycle, Some(&g)); // frame 0 is I
        assert!(plain > 0.0);
        assert!((with_gop / plain - 1.45).abs() < 1e-9);
    }

    #[test]
    fn series_and_summary() {
        let enc = MpegEncoder::new(EncoderConfig::tiny(4)).unwrap();
        let cycle = run_cycle(&enc);
        let trace = Trace {
            cycles: vec![cycle.clone(), cycle],
        };
        let series = bitrate_series(&enc, &trace, None);
        assert_eq!(series.len(), 2);
        let s = summarize(&series, 0.035);
        assert!(s.mean_bits > 0.0);
        assert_eq!(s.mean_bits, s.peak_bits, "identical frames");
        assert!(s.kbps > 0.0);
        let empty = summarize(&[], 0.035);
        assert_eq!(empty.kbps, 0.0);
    }
}
