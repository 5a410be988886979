//! The scheduled encoder as a parameterized system.
//!
//! §4.1: "the scheduled video encoder, a sequence of 1,189 actions" with
//! seven quality levels. A 352×288 frame has 396 macroblocks; the pipeline
//! runs three actions per macroblock — motion estimation, DCT +
//! quantization, entropy coding — plus one frame-setup action:
//! `3 · 396 + 1 = 1,189`.
//!
//! The timing model is calibrated for the paper's platform class (frame
//! period ≈ 1.03 s = 30 s / 29 frames): average action times of a few
//! hundred microseconds growing linearly with the quality level, such that
//! the whole frame fits the period at quality ≈ 4 and exceeds it at 5–6 —
//! which is exactly the regime in which the Quality Manager has a real job
//! (Fig. 7's average levels hover between 3.5 and 4.5). Worst cases are
//! 2–2.2× the averages; feasibility at `qmin` holds with ~30 % margin.

use crate::gop::{FrameKind, GopPattern};
use crate::video::{blend, FrameStats, SyntheticVideo};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqm_core::action::{ActionId, ActionInfo, DeadlineMap};
use sqm_core::controller::{ExecutionTimeSource, Memo};
use sqm_core::error::BuildError;
use sqm_core::quality::Quality;
use sqm_core::system::ParameterizedSystem;
use sqm_core::time::Time;
use sqm_core::timing::TimeTableBuilder;

/// Pipeline stage of an encoder action.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Per-frame input/bookkeeping action (one per cycle).
    FrameSetup,
    /// Block motion estimation (cost ∝ search window ∝ quality).
    MotionEst,
    /// Forward DCT + quantization (cost grows with coefficient precision).
    DctQuant,
    /// Entropy coding (cost grows with coded bits).
    Entropy,
}

impl Stage {
    /// Kind tag stored in [`ActionInfo::kind`].
    pub fn kind(self) -> u32 {
        match self {
            Stage::FrameSetup => 0,
            Stage::MotionEst => 1,
            Stage::DctQuant => 2,
            Stage::Entropy => 3,
        }
    }

    fn from_kind(kind: u32) -> Stage {
        match kind {
            0 => Stage::FrameSetup,
            1 => Stage::MotionEst,
            2 => Stage::DctQuant,
            _ => Stage::Entropy,
        }
    }

    /// Average execution time (ns) at a quality level.
    pub fn av_ns(self, q: usize) -> i64 {
        let q = q as i64;
        match self {
            Stage::FrameSetup => 2_000_000,
            Stage::MotionEst => 300_000 + 220_000 * q,
            Stage::DctQuant => 330_000 + 110_000 * q,
            Stage::Entropy => 246_000 + 69_000 * q,
        }
    }

    /// Worst-case execution time (ns) at a quality level.
    pub fn wc_ns(self, q: usize) -> i64 {
        match self {
            Stage::FrameSetup => 4_000_000,
            Stage::MotionEst => self.av_ns(q) * 22 / 10,
            Stage::DctQuant => self.av_ns(q) * 2,
            Stage::Entropy => self.av_ns(q) * 2,
        }
    }

    /// `(texture, motion)` complexity weights for this stage.
    fn weights(self) -> (f64, f64) {
        match self {
            Stage::FrameSetup => (0.0, 0.0),
            Stage::MotionEst => (0.3, 0.7),
            Stage::DctQuant => (0.9, 0.1),
            Stage::Entropy => (0.8, 0.2),
        }
    }
}

/// Encoder configuration.
#[derive(Clone, Copy, Debug)]
pub struct EncoderConfig {
    /// Frame width in pixels.
    pub width: usize,
    /// Frame height in pixels.
    pub height: usize,
    /// Number of quality levels `|Q|`.
    pub n_quality: usize,
    /// Per-frame deadline (= cycle period).
    pub frame_period: Time,
    /// Frames in the clip.
    pub frames: usize,
    /// Content seed.
    pub seed: u64,
}

impl EncoderConfig {
    /// The paper's configuration: 352×288 (396 macroblocks → 1,189
    /// actions), 7 quality levels, 29 frames, global deadline 30 s
    /// (≈ 1.034 s per frame).
    pub fn paper(seed: u64) -> EncoderConfig {
        EncoderConfig {
            width: 352,
            height: 288,
            n_quality: 7,
            frame_period: Time::from_ns(30_000_000_000 / 29),
            frames: 29,
            seed,
        }
    }

    /// A QCIF-scale configuration (176×144 → 99 macroblocks → 298
    /// actions): large enough that the numeric manager's suffix scans
    /// dominate its cost, small enough for CI baselines. The frame period
    /// keeps the paper's per-action budget (≈ 0.9 ms/action).
    pub fn small(seed: u64) -> EncoderConfig {
        EncoderConfig {
            width: 176,
            height: 144,
            n_quality: 7,
            frame_period: Time::from_ms(270),
            frames: 24,
            seed,
        }
    }

    /// A small configuration for tests (fewer macroblocks, same shape).
    pub fn tiny(seed: u64) -> EncoderConfig {
        EncoderConfig {
            width: 64,
            height: 48,
            n_quality: 7,
            frame_period: Time::from_ms(35),
            frames: 8,
            seed,
        }
    }
}

/// The synthetic MPEG encoder: video source + scheduled parameterized
/// system.
#[derive(Clone, Debug)]
pub struct MpegEncoder {
    config: EncoderConfig,
    video: SyntheticVideo,
    system: ParameterizedSystem,
}

impl MpegEncoder {
    /// Build the encoder's action sequence and timing tables.
    pub fn new(config: EncoderConfig) -> Result<MpegEncoder, BuildError> {
        let video = SyntheticVideo::new(config.width, config.height, config.frames, 8, config.seed);
        let n_mb = video.macroblocks();
        let n_actions = 3 * n_mb + 1;
        let nq = config.n_quality;

        let mut actions = Vec::with_capacity(n_actions);
        let mut table = TimeTableBuilder::new();
        let mut push = |actions: &mut Vec<ActionInfo>, name: String, stage: Stage| {
            actions.push(ActionInfo::with_kind(name, stage.kind()));
            let wc: Vec<Time> = (0..nq).map(|q| Time::from_ns(stage.wc_ns(q))).collect();
            let av: Vec<Time> = (0..nq).map(|q| Time::from_ns(stage.av_ns(q))).collect();
            table.push_action(&wc, &av);
        };
        push(&mut actions, "frame.setup".to_string(), Stage::FrameSetup);
        for mb in 0..n_mb {
            push(&mut actions, format!("mb{mb}.me"), Stage::MotionEst);
            push(&mut actions, format!("mb{mb}.dct"), Stage::DctQuant);
            push(&mut actions, format!("mb{mb}.vlc"), Stage::Entropy);
        }
        let deadlines = DeadlineMap::single_global(n_actions, config.frame_period);
        let system = ParameterizedSystem::new(actions, table.build()?, deadlines)?;
        Ok(MpegEncoder {
            config,
            video,
            system,
        })
    }

    /// The scheduled parameterized system (1,189 actions for the paper
    /// configuration).
    pub fn system(&self) -> &ParameterizedSystem {
        &self.system
    }

    /// The video source driving content-dependent execution times.
    pub fn video(&self) -> &SyntheticVideo {
        &self.video
    }

    /// The configuration.
    pub fn config(&self) -> &EncoderConfig {
        &self.config
    }

    /// Pipeline stage of an action.
    pub fn stage(&self, action: ActionId) -> Stage {
        Stage::from_kind(self.system.action(action).kind)
    }

    /// The macroblock an action processes (`None` for frame setup).
    pub fn macroblock(&self, action: ActionId) -> Option<usize> {
        (action > 0).then(|| (action - 1) / 3)
    }

    /// An execution-time source for this encoder: actual times are the
    /// stage averages scaled by the macroblock's content complexity and
    /// ±`jitter` sampling noise, clamped to the worst case.
    pub fn exec(&self, jitter: f64, seed: u64) -> EncoderExec<'_> {
        EncoderExec {
            encoder: self,
            rng: StdRng::seed_from_u64(seed),
            jitter,
            burst: None,
            gop: None,
            frame: Memo::new(),
            mb: Memo::new(),
        }
    }

    /// Perform the *real* computation of one action at a quality level on
    /// actual pixel data (used by the Criterion benches so the measured
    /// work is genuine). Returns a work token (bits, SAD, …) to keep the
    /// optimizer honest.
    pub fn run_action_kernel(&self, frame: usize, action: ActionId, q: Quality) -> u64 {
        use crate::blocks;
        let frame = frame % self.video.frames.max(1);
        let Some(mb) = self.macroblock(action) else {
            // Frame setup: checksum the first macroblock row.
            return (0..self.video.mb_cols())
                .map(|m| self.video.block(frame, m, 0)[0][0] as u64)
                .sum();
        };
        match self.stage(action) {
            Stage::MotionEst => {
                let range = blocks::search_range(q.index());
                let cur = self.video.block(frame, mb, 0);
                let prev = frame.saturating_sub(1);
                let (dy, dx, sad) = blocks::motion_search(&cur, range, |dy, dx| {
                    // Shifted fetch from the previous frame's block content.
                    let mut b = self.video.block(prev, mb, 0);
                    b[0][0] = b[0][0].wrapping_add(dy + dx); // offset-dependent
                    b
                });
                (dy + dx).unsigned_abs() as u64 + sad as u64
            }
            Stage::DctQuant => {
                let mut acc = 0u64;
                for sub in 0..4 {
                    let block = self.video.block(frame, mb, sub);
                    let coeffs = blocks::fdct8(&block);
                    let levels = blocks::quantize(&coeffs, blocks::quant_step(q.index()));
                    acc += levels
                        .iter()
                        .flatten()
                        .map(|&l| l.unsigned_abs() as u64)
                        .sum::<u64>();
                }
                acc
            }
            Stage::Entropy => {
                let mut acc = 0u64;
                for sub in 0..4 {
                    let block = self.video.block(frame, mb, sub);
                    let (bits, _) = blocks::encode_block(&block, q.index());
                    acc += bits as u64;
                }
                acc
            }
            Stage::FrameSetup => unreachable!("handled above"),
        }
    }
}

/// Content-driven execution-time source for an [`MpegEncoder`].
///
/// A macroblock's content is a pure function of `(cycle, mb)`: the frame
/// is `cycle` modulo the clip length, and texture and motion derive from
/// the frame and the macroblock alone. The source therefore derives each
/// frame's statistics and GOP kind once per cycle and each macroblock's
/// `(texture, motion)` once for its three actions, in [`Memo`]s keyed on
/// the cycle and on `(cycle, mb)`. Any query order, revisits of earlier
/// cycles included, reads what a fresh derivation would; only the
/// jitter's one RNG draw per call depends on the call sequence.
pub struct EncoderExec<'a> {
    encoder: &'a MpegEncoder,
    rng: StdRng,
    jitter: f64,
    /// Optional synthetic burst `(first_mb, last_mb, factor)` layered on
    /// top of the content complexity — used by the Fig. 8 experiment to
    /// produce a mid-frame hot region.
    burst: Option<(usize, usize, f64)>,
    /// Optional GOP structure modulating per-stage costs by frame kind.
    gop: Option<GopPattern>,
    /// The frame's statistics and GOP kind, keyed on the cycle.
    frame: Memo<usize, (FrameStats, Option<FrameKind>)>,
    /// A macroblock's `(texture, motion)`, keyed on `(cycle, mb)`.
    mb: Memo<(usize, usize), (f64, f64)>,
}

impl EncoderExec<'_> {
    /// Layer a complexity burst over macroblocks `first..=last`.
    pub fn with_burst(mut self, first_mb: usize, last_mb: usize, factor: f64) -> Self {
        self.burst = Some((first_mb, last_mb, factor));
        self
    }

    /// Modulate stage costs with a GOP pattern (I-frames skip motion
    /// search, code denser residuals).
    pub fn with_gop(mut self, gop: GopPattern) -> Self {
        self.gop = Some(gop);
        // The frame memo holds the GOP kind: drop any derived without it.
        self.frame = Memo::new();
        self
    }
}

impl ExecutionTimeSource for EncoderExec<'_> {
    fn actual(&mut self, cycle: usize, action: ActionId, q: Quality) -> Time {
        let enc = self.encoder;
        let video = &enc.video;
        let gop = &self.gop;
        let (stats, kind) = self.frame.get(cycle, || {
            let frame = cycle % video.frames.max(1);
            (
                video.frame_stats(frame),
                gop.as_ref().map(|g| g.kind(frame)),
            )
        });
        let stage = enc.stage(action);
        let av = enc.system.table().av(action, q).as_ns() as f64;
        let wc = enc.system.table().wc(action, q);
        let complexity = match enc.macroblock(action) {
            None => 1.0,
            Some(mb) => {
                let (t, m) = self.mb.get((cycle, mb), || video.content(&stats, mb));
                let (tw, mw) = stage.weights();
                let mut c = blend(t, m, tw.max(1e-9), mw);
                if let Some((lo, hi, f)) = self.burst {
                    if (lo..=hi).contains(&mb) {
                        c *= f;
                    }
                }
                c
            }
        };
        let gop_factor = kind.map_or(1.0, |k| k.stage_factor(stage));
        let jitter = 1.0 + self.rng.gen_range(-self.jitter..=self.jitter);
        let ns = (av * complexity * gop_factor * jitter).round() as i64;
        Time::from_ns(ns.max(0)).min(wc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sqm_core::policy::MixedPolicy;

    #[test]
    fn paper_configuration_has_1189_actions() {
        let enc = MpegEncoder::new(EncoderConfig::paper(1)).unwrap();
        assert_eq!(enc.system().n_actions(), 1_189);
        assert_eq!(enc.system().qualities().len(), 7);
        assert_eq!(enc.video().macroblocks(), 396);
        // The paper's table accounting depends on exactly these counts.
        assert_eq!(enc.system().n_actions() * 7, 8_323);
    }

    #[test]
    fn action_layout_and_stages() {
        let enc = MpegEncoder::new(EncoderConfig::tiny(1)).unwrap();
        assert_eq!(enc.stage(0), Stage::FrameSetup);
        assert_eq!(enc.macroblock(0), None);
        assert_eq!(enc.stage(1), Stage::MotionEst);
        assert_eq!(enc.stage(2), Stage::DctQuant);
        assert_eq!(enc.stage(3), Stage::Entropy);
        assert_eq!(enc.macroblock(1), Some(0));
        assert_eq!(enc.macroblock(3), Some(0));
        assert_eq!(enc.macroblock(4), Some(1));
        assert_eq!(enc.system().action(1).name, "mb0.me");
    }

    #[test]
    fn feasible_at_qmin_infeasible_at_qmax() {
        let enc = MpegEncoder::new(EncoderConfig::paper(1)).unwrap();
        let sys = enc.system();
        // Feasibility at qmin is enforced by construction; check the slack
        // is comfortably positive (≈ 30 % of the period).
        let slack = sys.min_quality_slack().as_ns() as f64;
        let period = enc.config().frame_period.as_ns() as f64;
        assert!(slack / period > 0.2, "qmin slack {slack}");
        // The *average* demand at qmax exceeds the period: the manager can
        // never just cruise at maximum quality.
        let total_av_qmax = sys.prefix().av_total(sys.qualities().max());
        assert!(total_av_qmax > enc.config().frame_period);
        // …but at quality 4 it fits.
        let total_av_q4 = sys.prefix().av_total(Quality::new(4));
        assert!(total_av_q4 < enc.config().frame_period);
    }

    #[test]
    fn initial_choice_is_mid_range() {
        let enc = MpegEncoder::new(EncoderConfig::paper(1)).unwrap();
        let policy = MixedPolicy::new(enc.system());
        let q = sqm_core::policy::choose_quality(&policy, 7, 0, Time::ZERO).unwrap();
        assert!(
            (3..=5).contains(&q.index()),
            "cycle-start choice should be mid-range, got {q}"
        );
    }

    #[test]
    fn exec_respects_contract_and_is_deterministic() {
        let enc = MpegEncoder::new(EncoderConfig::tiny(3)).unwrap();
        let sample = |seed: u64| -> Vec<i64> {
            let mut e = enc.exec(0.1, seed);
            (0..enc.system().n_actions())
                .map(|a| e.actual(0, a, Quality::new(3)).as_ns())
                .collect()
        };
        let a = sample(9);
        assert_eq!(a, sample(9));
        assert_ne!(a, sample(10));
        for (action, &ns) in a.iter().enumerate() {
            let wc = enc.system().table().wc(action, Quality::new(3)).as_ns();
            assert!(ns >= 0 && ns <= wc, "action {action}: {ns} > wc {wc}");
        }
    }

    #[test]
    fn burst_increases_times_in_window() {
        let enc = MpegEncoder::new(EncoderConfig::tiny(3)).unwrap();
        let mut plain = enc.exec(0.0, 1);
        let mut bursty = enc.exec(0.0, 1).with_burst(2, 3, 1.5);
        // Macroblock 2's DCT action = 1 + 3·2 + 1 = action 8.
        let p = plain.actual(1, 8, Quality::new(2));
        let b = bursty.actual(1, 8, Quality::new(2));
        assert!(b >= p, "burst must not reduce time");
        // Outside the window nothing changes.
        assert_eq!(
            plain.actual(1, 1, Quality::new(2)),
            bursty.actual(1, 1, Quality::new(2))
        );
    }

    #[test]
    fn kernels_do_quality_dependent_work() {
        let enc = MpegEncoder::new(EncoderConfig::tiny(3)).unwrap();
        // The entropy kernel produces more bits at higher quality.
        let low = enc.run_action_kernel(1, 3, Quality::new(0));
        let high = enc.run_action_kernel(1, 3, Quality::new(6));
        assert!(high >= low, "entropy bits monotone: {low} vs {high}");
        // Frame setup kernel is well-defined too.
        let _ = enc.run_action_kernel(0, 0, Quality::new(0));
    }

    #[test]
    fn stage_timing_tables_are_monotone() {
        for stage in [
            Stage::FrameSetup,
            Stage::MotionEst,
            Stage::DctQuant,
            Stage::Entropy,
        ] {
            for q in 1..7 {
                assert!(stage.av_ns(q) >= stage.av_ns(q - 1));
                assert!(stage.wc_ns(q) >= stage.wc_ns(q - 1));
                assert!(stage.wc_ns(q) >= stage.av_ns(q));
            }
        }
    }

    /// Query sequences of the kind a replay may issue: runs of actions in
    /// any cycle (earlier cycles revisited), entered at any action or
    /// where the previous run stopped, each step repeating (0), advancing
    /// (1) or skipping ahead (2, 3).
    fn query_runs(n_actions: usize) -> impl Strategy<Value = Vec<(usize, ActionId, Quality)>> {
        let run = (
            0usize..12,
            proptest::option::of(0..n_actions),
            proptest::collection::vec((0usize..4, 0u8..7), 1..2 * n_actions),
        );
        proptest::collection::vec(run, 1..8).prop_map(move |runs| {
            let mut out = Vec::new();
            let mut last = 0;
            for (cycle, start, steps) in runs {
                let mut action = start.unwrap_or(last);
                for (step, q) in steps {
                    if action >= n_actions {
                        break;
                    }
                    out.push((cycle, action, Quality::new(q)));
                    last = action;
                    action += step;
                }
            }
            out
        })
    }

    /// What `EncoderExec::actual` returns, derived without memos: the
    /// macroblock's complexity comes afresh from
    /// `SyntheticVideo::complexity` on every query.
    fn fresh_actual(
        enc: &MpegEncoder,
        rng: &mut StdRng,
        jitter: f64,
        burst: Option<(usize, usize, f64)>,
        gop: Option<&GopPattern>,
        (cycle, action, q): (usize, ActionId, Quality),
    ) -> Time {
        let frame = cycle % enc.video().frames.max(1);
        let stage = enc.stage(action);
        let av = enc.system().table().av(action, q).as_ns() as f64;
        let wc = enc.system().table().wc(action, q);
        let complexity = match enc.macroblock(action) {
            None => 1.0,
            Some(mb) => {
                let (tw, mw) = stage.weights();
                let mut c = enc.video().complexity(frame, mb, tw.max(1e-9), mw);
                if let Some((lo, hi, f)) = burst {
                    if (lo..=hi).contains(&mb) {
                        c *= f;
                    }
                }
                c
            }
        };
        let gop_factor = gop.map_or(1.0, |g| g.stage_factor(frame, stage));
        let jitter = 1.0 + rng.gen_range(-jitter..=jitter);
        let ns = (av * complexity * gop_factor * jitter).round() as i64;
        Time::from_ns(ns.max(0)).min(wc)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The per-cycle and per-macroblock memos are invisible: every
        /// query of any sequence returns exactly what a fresh derivation
        /// with an identically seeded RNG returns, with and without the
        /// burst and the GOP layer.
        #[test]
        fn memoized_exec_matches_fresh_derivation(
            queries in query_runs(37),
            seed in any::<u64>(),
            with_burst in any::<bool>(),
            with_gop in any::<bool>(),
        ) {
            let enc = MpegEncoder::new(EncoderConfig::tiny(5)).unwrap();
            prop_assert_eq!(enc.system().n_actions(), 37);
            let burst = with_burst.then_some((3, 7, 1.45));
            let gop = with_gop.then(|| GopPattern::ippp(2));
            let mut exec = enc.exec(0.1, seed);
            if let Some((lo, hi, f)) = burst {
                exec = exec.with_burst(lo, hi, f);
            }
            if let Some(g) = &gop {
                exec = exec.with_gop(g.clone());
            }
            let mut rng = StdRng::seed_from_u64(seed);
            for (i, &(cycle, action, q)) in queries.iter().enumerate() {
                let query = (cycle, action, q);
                let fresh = fresh_actual(&enc, &mut rng, 0.1, burst, gop.as_ref(), query);
                prop_assert_eq!(exec.actual(cycle, action, q), fresh, "query {}: {:?}", i, query);
            }
        }
    }
}
