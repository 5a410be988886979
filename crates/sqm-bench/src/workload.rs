//! The workload seam: how an application domain plugs into the harness.
//!
//! Before this module existed the "workload → harness" contract was
//! implicit: the fleet, streaming and figure code each rebuilt the same
//! recipe — take the domain's [`ParameterizedSystem`], compile quality
//! regions, wrap a [`LookupManager`] in an [`Engine`] under the calibrated
//! regions overhead, and feed it the domain's content-driven
//! execution-time source. [`Workload`] names that recipe once, so MPEG
//! ([`PaperExperiment`]), audio ([`AudioExperiment`]) and the packet
//! pipeline ([`NetExperiment`](crate::net::NetExperiment)) register
//! uniformly, and every execution path — closed loop, event-driven
//! streaming, fleet sharding — is written once against the trait.
//!
//! The trait stays statically dispatched: `Exec` is a generic associated
//! type, so each workload's engine run monomorphizes exactly like the
//! hand-written versions it replaces (no `Box<dyn …>` on the hot path).

use sqm_audio::{AudioCodec, AudioConfig, AudioExec};
use sqm_core::compiler::compile_regions;
use sqm_core::controller::{ExecutionTimeSource, OverheadModel};
use sqm_core::engine::{CycleChaining, Engine, RecordBuffer, RunSummary, TraceSink};
use sqm_core::fleet::{StreamScratch, StreamSpec};
use sqm_core::manager::LookupManager;
use sqm_core::regions::QualityRegionTable;
use sqm_core::source::ArrivalSource;
use sqm_core::stream::{StreamConfig, StreamSummary, StreamingRunner};
use sqm_core::system::ParameterizedSystem;
use sqm_core::time::Time;
use sqm_mpeg::EncoderExec;
use sqm_platform::overhead;

use crate::harness::PaperExperiment;

/// One application domain, packaged for the harness: a scheduled system,
/// its compiled quality regions, a nominal cycle period, and a
/// content-driven execution-time source.
///
/// The provided methods are the **uniform execution seam** every path
/// shares — the closed loop ([`Workload::run_closed`]), the event-driven
/// front-end ([`Workload::run_streaming`]), and the fleet drive
/// ([`Workload::run_spec`], which dispatches on the spec's
/// [`ArrivalSpec`](sqm_core::source::ArrivalSpec)). The cross-path
/// conformance suite (`tests/conformance.rs`) is written once against
/// these methods and holds for every implementor.
pub trait Workload {
    /// The workload's content-driven execution-time source.
    type Exec<'a>: ExecutionTimeSource
    where
        Self: 'a;

    /// Display label, e.g. `"net/regions"`.
    fn label(&self) -> &'static str;

    /// The scheduled parameterized system.
    fn system(&self) -> &ParameterizedSystem;

    /// The nominal cycle period (= per-cycle deadline).
    fn period(&self) -> Time;

    /// The compiled quality regions the symbolic manager probes.
    fn regions(&self) -> &QualityRegionTable;

    /// A fresh execution-time source with ±`jitter` content noise, seeded
    /// deterministically.
    fn exec_source(&self, jitter: f64, seed: u64) -> Self::Exec<'_>;

    /// The calibrated overhead model charged per manager decision
    /// (defaults to the symbolic regions manager's calibration).
    fn overhead(&self) -> OverheadModel {
        overhead::regions()
    }

    /// Run `cycles` closed-loop cycles under the regions manager —
    /// the serial reference path every other path must reproduce.
    fn run_closed<S: TraceSink>(
        &self,
        cycles: usize,
        chaining: CycleChaining,
        jitter: f64,
        exec_seed: u64,
        sink: &mut S,
    ) -> RunSummary {
        Engine::new(
            self.system(),
            LookupManager::new(self.regions()),
            self.overhead(),
        )
        .run_cycles(
            cycles,
            self.period(),
            chaining,
            &mut self.exec_source(jitter, exec_seed),
            sink,
        )
    }

    /// Feed the workload from an event-driven [`ArrivalSource`] through
    /// the bounded-backlog streaming front-end.
    fn run_streaming<A: ArrivalSource, S: TraceSink>(
        &self,
        config: StreamConfig,
        source: &mut A,
        jitter: f64,
        exec_seed: u64,
        sink: &mut S,
    ) -> StreamSummary {
        StreamingRunner::new(config).run(
            &mut Engine::new(
                self.system(),
                LookupManager::new(self.regions()),
                self.overhead(),
            ),
            source,
            &mut self.exec_source(jitter, exec_seed),
            sink,
        )
    }

    /// Run one fleet stream spec to completion, recording into the
    /// worker's scratch buffer — the drive-closure body shared by the
    /// serial reference and every worker count. Closed specs run the
    /// engine's own chaining; event-sourced specs route through
    /// [`Workload::run_streaming`] under `config`.
    fn run_spec<W>(
        &self,
        config: StreamConfig,
        spec: &StreamSpec<W>,
        jitter: f64,
        scratch: &mut StreamScratch,
    ) -> RunSummary {
        let mut sink = RecordBuffer::new(&mut scratch.records);
        match spec.arrival.build(self.period(), spec.cycles, spec.seed) {
            None => self.run_closed(spec.cycles, config.chaining, jitter, spec.seed, &mut sink),
            Some(mut source) => {
                self.run_streaming(config, &mut source, jitter, spec.seed, &mut sink)
                    .run
            }
        }
    }
}

/// The MPEG encoder under the symbolic regions manager — the paper
/// experiment seen through the uniform workload seam. (The numeric and
/// relaxation managers remain [`PaperExperiment`]-specific extras.)
impl Workload for PaperExperiment {
    type Exec<'a> = EncoderExec<'a>;

    fn label(&self) -> &'static str {
        "mpeg/regions"
    }

    fn system(&self) -> &ParameterizedSystem {
        self.encoder.system()
    }

    fn period(&self) -> Time {
        self.encoder.config().frame_period
    }

    fn regions(&self) -> &QualityRegionTable {
        &self.regions
    }

    fn exec_source(&self, jitter: f64, seed: u64) -> EncoderExec<'_> {
        self.encoder.exec(jitter, seed)
    }
}

/// The adaptive audio codec packaged for the harness: codec + compiled
/// regions.
pub struct AudioExperiment {
    codec: AudioCodec,
    regions: QualityRegionTable,
}

impl AudioExperiment {
    /// Build the codec and compile its quality regions.
    pub fn new(config: AudioConfig) -> AudioExperiment {
        let codec = AudioCodec::new(config).expect("audio config is feasible");
        let regions = compile_regions(codec.system());
        AudioExperiment { codec, regions }
    }

    /// The test- and CI-scale setup (the `tiny` codec — the audio system
    /// is small enough that one configuration serves both roles; the
    /// fleet harness uses it too).
    pub fn tiny(seed: u64) -> AudioExperiment {
        AudioExperiment::new(AudioConfig::tiny(seed))
    }

    /// The wrapped codec.
    pub fn codec(&self) -> &AudioCodec {
        &self.codec
    }
}

impl Workload for AudioExperiment {
    type Exec<'a> = AudioExec<'a>;

    fn label(&self) -> &'static str {
        "audio/regions"
    }

    fn system(&self) -> &ParameterizedSystem {
        self.codec.system()
    }

    fn period(&self) -> Time {
        self.codec.config().cycle_period
    }

    fn regions(&self) -> &QualityRegionTable {
        &self.regions
    }

    fn exec_source(&self, jitter: f64, seed: u64) -> AudioExec<'_> {
        self.codec.exec(jitter, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqm_core::engine::NullSink;
    use sqm_core::source::Periodic;
    use sqm_core::stream::OverloadPolicy;

    /// The trait's provided methods agree with each other: Periodic+Block
    /// streaming reproduces the closed loop for each registered workload.
    #[test]
    fn provided_paths_agree_for_audio() {
        let w = AudioExperiment::tiny(5);
        for chaining in [CycleChaining::WorkConserving, CycleChaining::ArrivalClamped] {
            let closed = {
                let mut sink = NullSink;
                w.run_closed(3, chaining, 0.1, 11, &mut sink)
            };
            let streamed = w.run_streaming(
                StreamConfig {
                    chaining,
                    capacity: 2,
                    policy: OverloadPolicy::Block,
                },
                &mut Periodic::new(w.period(), 3),
                0.1,
                11,
                &mut NullSink,
            );
            assert_eq!(streamed.run, closed, "{chaining:?}");
        }
    }

    /// `run_spec` dispatches on the arrival spec: a closed spec and a
    /// periodic event-sourced spec produce identical summaries.
    #[test]
    fn run_spec_dispatch_is_seamless() {
        use sqm_core::source::ArrivalSpec;
        let w = AudioExperiment::tiny(5);
        let config = StreamConfig {
            chaining: CycleChaining::ArrivalClamped,
            capacity: 4,
            policy: OverloadPolicy::Block,
        };
        let mut scratch = StreamScratch::default();
        let closed_spec: StreamSpec<()> = StreamSpec::new((), 7, 3);
        let closed = w.run_spec(config, &closed_spec, 0.1, &mut scratch);
        let records_closed = scratch.records.len();
        scratch.records.clear();
        let periodic = w.run_spec(
            config,
            &closed_spec.with_arrival(ArrivalSpec::Periodic),
            0.1,
            &mut scratch,
        );
        assert_eq!(closed, periodic);
        assert_eq!(records_closed, scratch.records.len());
        assert!(records_closed > 0, "specs record into the scratch buffer");
    }
}
