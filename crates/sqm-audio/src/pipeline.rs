//! The scheduled audio codec as a parameterized system.
//!
//! One cycle processes `blocks_per_cycle` sample blocks, four atomic
//! actions per block — analysis (FFT), subband grouping, psychoacoustic
//! allocation, quantize-and-pack — against a per-cycle deadline. The
//! quality level widens the subband layout and the bit budget, so both the
//! real kernel work and the timing tables grow with it, mirroring the
//! MPEG workload's structure in a second domain.

use crate::fft;
use crate::filterbank::BandLayout;
use crate::psycho;
use crate::signal::SyntheticAudio;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqm_core::action::{ActionId, ActionInfo, DeadlineMap};
use sqm_core::controller::ExecutionTimeSource;
use sqm_core::error::BuildError;
use sqm_core::quality::Quality;
use sqm_core::system::ParameterizedSystem;
use sqm_core::time::Time;
use sqm_core::timing::TimeTableBuilder;

/// Pipeline stage of an audio action.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AudioStage {
    /// Windowed FFT of the block.
    Analysis,
    /// Spectral grouping into subbands.
    Subband,
    /// Masking model + bit allocation.
    Allocate,
    /// Quantization and bitstream packing.
    Pack,
}

impl AudioStage {
    /// Kind tag stored in [`ActionInfo::kind`].
    pub fn kind(self) -> u32 {
        match self {
            AudioStage::Analysis => 0,
            AudioStage::Subband => 1,
            AudioStage::Allocate => 2,
            AudioStage::Pack => 3,
        }
    }

    fn from_kind(kind: u32) -> AudioStage {
        match kind {
            0 => AudioStage::Analysis,
            1 => AudioStage::Subband,
            2 => AudioStage::Allocate,
            _ => AudioStage::Pack,
        }
    }

    /// Average execution time (ns) at a quality level.
    pub fn av_ns(self, q: usize) -> i64 {
        let q = q as i64;
        match self {
            AudioStage::Analysis => 80_000 + 18_000 * q,
            AudioStage::Subband => 30_000 + 10_000 * q,
            AudioStage::Allocate => 40_000 + 22_000 * q,
            AudioStage::Pack => 50_000 + 25_000 * q,
        }
    }

    /// Worst-case execution time (ns) at a quality level.
    pub fn wc_ns(self, q: usize) -> i64 {
        self.av_ns(q) * 2
    }
}

/// Codec configuration.
#[derive(Clone, Copy, Debug)]
pub struct AudioConfig {
    /// Samples per block (power of two).
    pub block_size: usize,
    /// Blocks per cycle (one cycle = one output packet).
    pub blocks_per_cycle: usize,
    /// Quality levels.
    pub n_quality: usize,
    /// Per-cycle deadline.
    pub cycle_period: Time,
    /// Content seed.
    pub seed: u64,
}

impl AudioConfig {
    /// A low-latency streaming configuration: 48 blocks of 256 samples per
    /// 21 ms packet, 5 quality levels — sustainable at level 3, infeasible
    /// in expectation at 4.
    pub fn streaming(seed: u64) -> AudioConfig {
        AudioConfig {
            block_size: 256,
            blocks_per_cycle: 48,
            n_quality: 5,
            cycle_period: Time::from_ms(21),
            seed,
        }
    }

    /// A tiny configuration for tests.
    pub fn tiny(seed: u64) -> AudioConfig {
        AudioConfig {
            block_size: 64,
            blocks_per_cycle: 6,
            n_quality: 5,
            cycle_period: Time::from_us(2_700),
            seed,
        }
    }
}

/// The synthetic audio codec: signal source + scheduled system.
#[derive(Clone, Debug)]
pub struct AudioCodec {
    config: AudioConfig,
    audio: SyntheticAudio,
    system: ParameterizedSystem,
}

impl AudioCodec {
    /// Build the codec's action sequence and timing tables.
    pub fn new(config: AudioConfig) -> Result<AudioCodec, BuildError> {
        let audio = SyntheticAudio::new(config.block_size, 8, config.seed);
        let nq = config.n_quality;
        let mut actions = Vec::with_capacity(4 * config.blocks_per_cycle);
        let mut table = TimeTableBuilder::new();
        for b in 0..config.blocks_per_cycle {
            for stage in [
                AudioStage::Analysis,
                AudioStage::Subband,
                AudioStage::Allocate,
                AudioStage::Pack,
            ] {
                actions.push(ActionInfo::with_kind(
                    format!("blk{b}.{}", stage.kind()),
                    stage.kind(),
                ));
                let wc: Vec<Time> = (0..nq).map(|q| Time::from_ns(stage.wc_ns(q))).collect();
                let av: Vec<Time> = (0..nq).map(|q| Time::from_ns(stage.av_ns(q))).collect();
                table.push_action(&wc, &av);
            }
        }
        let n = actions.len();
        let deadlines = DeadlineMap::single_global(n, config.cycle_period);
        let system = ParameterizedSystem::new(actions, table.build()?, deadlines)?;
        Ok(AudioCodec {
            config,
            audio,
            system,
        })
    }

    /// The scheduled parameterized system (`4 · blocks_per_cycle` actions).
    pub fn system(&self) -> &ParameterizedSystem {
        &self.system
    }

    /// The signal source.
    pub fn audio(&self) -> &SyntheticAudio {
        &self.audio
    }

    /// The configuration.
    pub fn config(&self) -> &AudioConfig {
        &self.config
    }

    /// Pipeline stage of an action.
    pub fn stage(&self, action: ActionId) -> AudioStage {
        AudioStage::from_kind(self.system.action(action).kind)
    }

    /// The block an action processes.
    pub fn block_of(&self, action: ActionId) -> usize {
        action / 4
    }

    /// Subband count at a quality level.
    pub fn bands(&self, q: Quality) -> usize {
        (4 + 4 * q.index()).min(self.config.block_size / 2)
    }

    /// Bit budget per block at a quality level.
    pub fn bit_budget(&self, q: Quality) -> usize {
        64 * (1 + q.index())
    }

    /// Execute the *real* kernel of one action at a quality level (used by
    /// benches and the rate tests). Returns a work token.
    pub fn run_action_kernel(&self, cycle: usize, action: ActionId, q: Quality) -> u64 {
        let block_idx = cycle * self.config.blocks_per_cycle + self.block_of(action);
        let samples = self.audio.block(block_idx);
        match self.stage(action) {
            AudioStage::Analysis => {
                let spec = fft::power_spectrum(&samples);
                spec.iter().sum::<f64>() as u64
            }
            AudioStage::Subband => {
                let spec = fft::power_spectrum(&samples);
                let layout = BandLayout::log_spaced(self.config.block_size / 2, self.bands(q));
                layout.band_energies(&spec).iter().sum::<f64>() as u64
            }
            AudioStage::Allocate => {
                let spec = fft::power_spectrum(&samples);
                let layout = BandLayout::log_spaced(self.config.block_size / 2, self.bands(q));
                let energies = layout.band_energies(&spec);
                let (_, total) = psycho::allocate_block(&energies, self.bit_budget(q));
                total as u64
            }
            AudioStage::Pack => {
                let spec = fft::power_spectrum(&samples);
                let layout = BandLayout::log_spaced(self.config.block_size / 2, self.bands(q));
                let energies = layout.band_energies(&spec);
                let (bits, _) = psycho::allocate_block(&energies, self.bit_budget(q));
                // Quantize each band's energy to its allocated precision and
                // checksum — stands in for bitstream packing.
                bits.iter()
                    .zip(&energies)
                    .map(|(&b, &e)| {
                        if b == 0 {
                            0
                        } else {
                            ((e.sqrt() * (1u64 << b.min(20)) as f64) as u64) & 0xFFFF
                        }
                    })
                    .sum()
            }
        }
    }

    /// Coded bits of one block at a quality level (the rate metric).
    pub fn block_bits(&self, cycle: usize, action_block: usize, q: Quality) -> usize {
        let block_idx = cycle * self.config.blocks_per_cycle + action_block;
        let samples = self.audio.block(block_idx);
        let spec = fft::power_spectrum(&samples);
        let layout = BandLayout::log_spaced(self.config.block_size / 2, self.bands(q));
        let energies = layout.band_energies(&spec);
        psycho::allocate_block(&energies, self.bit_budget(q)).1
    }

    /// Content-driven execution-time source.
    pub fn exec(&self, jitter: f64, seed: u64) -> AudioExec<'_> {
        AudioExec {
            codec: self,
            rng: StdRng::seed_from_u64(seed),
            jitter,
        }
    }
}

/// Execution-time source for an [`AudioCodec`].
pub struct AudioExec<'a> {
    codec: &'a AudioCodec,
    rng: StdRng,
    jitter: f64,
}

impl ExecutionTimeSource for AudioExec<'_> {
    fn actual(&mut self, cycle: usize, action: ActionId, q: Quality) -> Time {
        let codec = self.codec;
        let block_idx = cycle * codec.config.blocks_per_cycle + codec.block_of(action);
        let av = codec.system.table().av(action, q).as_ns() as f64;
        let wc = codec.system.table().wc(action, q);
        let complexity = codec.audio.complexity(block_idx);
        let jitter = 1.0 + self.rng.gen_range(-self.jitter..=self.jitter);
        let ns = (av * complexity * jitter).round() as i64;
        Time::from_ns(ns.max(0)).min(wc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqm_core::controller::OverheadModel;
    use sqm_core::engine::{Engine, NullSink};
    use sqm_core::manager::NumericManager;
    use sqm_core::policy::MixedPolicy;

    #[test]
    fn streaming_config_shape() {
        let c = AudioCodec::new(AudioConfig::streaming(1)).unwrap();
        assert_eq!(c.system().n_actions(), 4 * 48);
        assert_eq!(c.system().qualities().len(), 5);
        // Sustainable at 3, not at 4 (by the timing design).
        let sys = c.system();
        assert!(sys.prefix().av_total(Quality::new(3)) <= Time::from_ms(21));
        assert!(sys.prefix().av_total(Quality::new(4)) > Time::from_ms(21));
    }

    #[test]
    fn stage_layout() {
        let c = AudioCodec::new(AudioConfig::tiny(1)).unwrap();
        assert_eq!(c.stage(0), AudioStage::Analysis);
        assert_eq!(c.stage(1), AudioStage::Subband);
        assert_eq!(c.stage(2), AudioStage::Allocate);
        assert_eq!(c.stage(3), AudioStage::Pack);
        assert_eq!(c.block_of(0), 0);
        assert_eq!(c.block_of(7), 1);
    }

    #[test]
    fn quality_levers_are_monotone() {
        let c = AudioCodec::new(AudioConfig::tiny(1)).unwrap();
        for qi in 1..5u8 {
            let q = Quality::new(qi);
            let prev = Quality::new(qi - 1);
            assert!(c.bands(q) >= c.bands(prev));
            assert!(c.bit_budget(q) > c.bit_budget(prev));
        }
    }

    #[test]
    fn exec_contract_and_determinism() {
        let c = AudioCodec::new(AudioConfig::tiny(2)).unwrap();
        let run = |seed| -> Vec<i64> {
            let mut e = c.exec(0.1, seed);
            (0..c.system().n_actions())
                .map(|a| e.actual(0, a, Quality::new(2)).as_ns())
                .collect()
        };
        let a = run(1);
        assert_eq!(a, run(1));
        for (action, &ns) in a.iter().enumerate() {
            assert!(ns <= c.system().table().wc(action, Quality::new(2)).as_ns());
            assert!(ns >= 0);
        }
    }

    #[test]
    fn controlled_cycle_is_safe_and_uses_budget() {
        let c = AudioCodec::new(AudioConfig::streaming(3)).unwrap();
        let sys = c.system();
        let policy = MixedPolicy::new(sys);
        let mut engine = Engine::new(sys, NumericManager::new(sys, &policy), OverheadModel::ZERO);
        let mut exec = c.exec(0.15, 7);
        let summary = engine.run_cycle(0, Time::ZERO, &mut exec, &mut NullSink);
        assert_eq!(summary.misses, 0);
        assert!(summary.avg_quality() > 1.0, "budget converted into quality");
    }

    #[test]
    fn coded_bits_grow_with_quality() {
        let c = AudioCodec::new(AudioConfig::tiny(5)).unwrap();
        let mut prev = 0;
        for qi in 0..5u8 {
            let bits = c.block_bits(0, 2, Quality::new(qi));
            assert!(bits >= prev, "rate monotone in quality");
            prev = bits;
        }
        assert!(prev > 0);
    }

    #[test]
    fn kernels_run_for_every_stage() {
        let c = AudioCodec::new(AudioConfig::tiny(5)).unwrap();
        for action in 0..4 {
            let token = c.run_action_kernel(1, action, Quality::new(3));
            // Work tokens are data-dependent; the point is they execute
            // real DSP without panicking and give stable results.
            assert_eq!(token, c.run_action_kernel(1, action, Quality::new(3)));
        }
    }
}
