//! The workload seam: how an application domain plugs into the harness.
//!
//! [`Workload`] names the one recipe every path runs a domain by: take
//! its [`ParameterizedSystem`], compile quality regions, wrap a
//! [`LookupManager`] in an [`Engine`] under the domain's calibrated
//! overhead, and feed it the domain's content-driven execution-time
//! source. Six domains register: MPEG ([`PaperExperiment`]), audio
//! ([`AudioExperiment`]), the packet pipeline
//! ([`NetExperiment`](crate::net::NetExperiment)), inference serving
//! ([`InferExperiment`](crate::infer::InferExperiment)), the elastic
//! micro system ([`ElasticExperiment`](crate::elastic::ElasticExperiment))
//! and DVFS power management ([`PowerExperiment`]).
//!
//! The provided methods are the run shapes every caller shares — the
//! closed loop, event-driven streaming, a named [`StreamScenario`], and
//! an elastic population under any manager. The elastic identity and the
//! serial per-stream fold it is checked against live in
//! [`crate::elastic`], next to the one runner they check.
//!
//! The trait stays statically dispatched: `Exec` is a generic associated
//! type, so each workload's engine run monomorphizes exactly like a
//! hand-written one (no `Box<dyn …>` on the hot path).

use sqm_audio::{AudioCodec, AudioConfig, AudioExec};
use sqm_core::compiler::compile_regions;
use sqm_core::controller::{ExecutionTimeSource, OverheadModel};
use sqm_core::elastic::EngineDriver;
use sqm_core::engine::{CycleChaining, Engine, NullSink, RunSummary, TraceSink};
use sqm_core::manager::{LookupManager, QualityManager};
use sqm_core::regions::QualityRegionTable;
use sqm_core::source::ArrivalSource;
use sqm_core::stream::{StreamConfig, StreamSummary, StreamingRunner};
use sqm_core::system::ParameterizedSystem;
use sqm_core::time::Time;
use sqm_mpeg::EncoderExec;
use sqm_platform::overhead;
use sqm_power::{CycleExec, DvfsTask, FrequencyLadder};

use crate::harness::PaperExperiment;
use crate::streaming::StreamScenario;

/// The content jitter (±10 %) every harness run feeds the execution-time
/// sources: the scenario runs and populations below, the bench binaries,
/// and the conformance and golden suites.
pub const JITTER: f64 = 0.1;

/// The engine driver of one elastic stream of workload `W` under manager
/// `M`, as [`Workload::population`] builds it.
pub type WorkloadDriver<'a, W, M> = EngineDriver<'a, M, <W as Workload>::Exec<'a>, NullSink>;

/// One application domain, packaged for the harness: a scheduled system,
/// its compiled quality regions, a nominal cycle period, and a
/// content-driven execution-time source.
///
/// The provided methods are the **uniform execution seam** every path
/// shares — the closed loop ([`Workload::run_closed`]), the event-driven
/// front-end ([`Workload::run_streaming`], [`Workload::run_scenario`]) and
/// the elastic population ([`Workload::population`]). The cross-path
/// conformance suite (`tests/conformance.rs`) is written once against the
/// trait and holds for every implementor.
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

    /// Run one named scenario for `frames` arrivals under the regions
    /// manager, live-clamped (frames cannot start before they exist),
    /// with content jitter [`JITTER`]; `seed` seeds both the arrival
    /// source and the execution-time source.
    fn run_scenario(&self, scenario: &StreamScenario, frames: usize, seed: u64) -> StreamSummary {
        self.run_streaming(
            scenario.config(),
            &mut scenario.source(self.period(), frames, seed),
            JITTER,
            seed,
            &mut NullSink,
        )
    }

    /// A population of live streams for the elastic runner, one per
    /// `(source, exec_seed)` entry: each runs a fresh `manager()` under the
    /// workload's overhead, fed by its own execution-time source with
    /// content jitter [`JITTER`]. The same population also yields its
    /// serial reference ([`crate::elastic::serial_fold`]).
    fn population<'a, M, A>(
        &'a self,
        manager: impl Fn() -> M,
        streams: impl IntoIterator<Item = (A, u64)>,
    ) -> Vec<(A, WorkloadDriver<'a, Self, M>)>
    where
        M: QualityManager,
    {
        streams
            .into_iter()
            .map(|(source, exec_seed)| {
                (
                    source,
                    EngineDriver::new(
                        Engine::new(self.system(), manager(), self.overhead()),
                        self.exec_source(JITTER, exec_seed),
                        NullSink,
                    ),
                )
            })
            .collect()
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
    /// is small enough that one configuration serves both roles).
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

/// The DVFS extension packaged for the harness: a cycle-count task under
/// a frequency ladder, its translated system and compiled regions. A
/// quality level is a frequency step (level 0 the fastest), so the
/// regions manager picks the slowest frequency that keeps every deadline.
pub struct PowerExperiment {
    task: DvfsTask,
    ladder: FrequencyLadder,
    sys: ParameterizedSystem,
    regions: QualityRegionTable,
}

impl PowerExperiment {
    /// The test-scale setup: a 20-action synthetic task with a 60 ms
    /// period on the 600/450/300/150 MHz embedded ladder.
    pub fn tiny() -> PowerExperiment {
        let task = DvfsTask::synthetic(20, Time::from_ms(60));
        let ladder = FrequencyLadder::embedded4();
        let sys = task
            .to_system(&ladder)
            .expect("the tiny task is feasible at the fastest frequency");
        let regions = compile_regions(&sys);
        PowerExperiment {
            task,
            ladder,
            sys,
            regions,
        }
    }
}

impl Workload for PowerExperiment {
    type Exec<'a> = CycleExec<'a>;

    fn label(&self) -> &'static str {
        "power/regions"
    }

    fn system(&self) -> &ParameterizedSystem {
        &self.sys
    }

    fn period(&self) -> Time {
        self.task.deadline
    }

    fn regions(&self) -> &QualityRegionTable {
        &self.regions
    }

    fn exec_source(&self, jitter: f64, seed: u64) -> CycleExec<'_> {
        CycleExec::new(&self.task, &self.ladder, jitter, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqm_core::source::Periodic;
    use sqm_core::stream::OverloadPolicy;

    /// The trait's provided methods agree with each other: Periodic+Block
    /// streaming reproduces the closed loop for each registered workload.
    #[test]
    fn provided_paths_agree_for_audio() {
        let w = AudioExperiment::tiny(5);
        for chaining in [CycleChaining::WorkConserving, CycleChaining::ArrivalClamped] {
            let closed = w.run_closed(3, chaining, JITTER, 11, &mut NullSink);
            let streamed = w.run_streaming(
                StreamConfig {
                    chaining,
                    capacity: 2,
                    policy: OverloadPolicy::Block,
                },
                &mut Periodic::new(w.period(), 3),
                JITTER,
                11,
                &mut NullSink,
            );
            assert_eq!(streamed.run, closed, "{chaining:?}");
        }
    }
}
