//! The three workloads. Each is a [`Stack`], whose untraced pass drives it
//! through the repository's own entry point for that path:
//!
//! * `encode` — [`PaperExperiment::run_into`] (closed loop, relaxation
//!   manager);
//! * `serve` — [`Workload::run_streaming`], stream after stream;
//! * `live-fleet` — [`ElasticRunner`](sqm_core::elastic::ElasticRunner)
//!   over a population of engine drivers.
//!
//! All three are closed loops in host time and open loops in virtual time:
//! seeded arrivals (or period releases) are scheduled regardless of
//! service, and virtual latency counts from them. The content models
//! (video clip, request population) are fixed; `--seed` drives the
//! execution-time jitter and the arrival processes.

use std::time::Duration;

use sqm_bench::elastic::{MicroExec, MICRO_PERIOD};
use sqm_bench::{ElasticExperiment, InferExperiment, ManagerKind, PaperExperiment, Workload};
use sqm_core::compiler::{compile_regions, compile_relaxation};
use sqm_core::controller::OverheadModel;
use sqm_core::elastic::{Admission, ElasticConfig};
use sqm_core::engine::{CycleChaining, NullSink};
use sqm_core::manager::{LookupManager, RelaxedManager};
use sqm_core::regions::QualityRegionTable;
use sqm_core::relaxation::StepSet;
use sqm_core::source::{ArrivalSpec, Bursty, Jittered, PatternSource, Periodic};
use sqm_core::system::ParameterizedSystem;
use sqm_core::time::Time;
use sqm_infer::{BatchCoupledExec, InferConfig, InferPipeline};
use sqm_mpeg::{EncoderConfig, EncoderExec, MpegEncoder};
use sqm_platform::overhead;

use crate::measure::timed;
use crate::stack::{population, run_elastic, BuildPhases, PassOut, Scale, Shape, Stack};

/// Content jitter on every execution-time source (±10 %).
pub const JITTER: f64 = 0.1;

/// Mix a seed with a stream index (splitmix64 finaliser).
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

// ---------------------------------------------------------------------------
// encode
// ---------------------------------------------------------------------------

/// Content seed of the synthetic clip (the one the Fig. 8 binary encodes).
pub const CLIP_SEED: u64 = 2024;

/// The paper's Fig. 8 complexity burst: macroblocks 140–190 of every frame
/// 1.45× harder.
pub const BURST: (usize, usize, f64) = (140, 190, 1.45);

/// Frames of one timed `encode` pass: the stream's first frames. Short
/// passes let the fastest one fall inside a quiet stretch of a noisy host;
/// the virtual metrics come from the whole stream.
pub const ENCODE_TIMED_FRAMES: usize = 300;

/// The paper's MPEG encoder, one work-conserving stream under the
/// relaxation manager.
pub struct Encode {
    exp: PaperExperiment,
    frames: usize,
    timed_frames: usize,
    seed: u64,
}

impl Encode {
    fn pass(&self, frames: usize) -> (PassOut, Duration) {
        let (run, d) = timed(|| {
            self.exp.run_into(
                ManagerKind::Relaxation,
                frames,
                JITTER,
                self.seed,
                Some(BURST),
                &mut NullSink,
            )
        });
        (PassOut::closed(run), d)
    }

    fn config(scale: Scale) -> (EncoderConfig, StepSet) {
        match scale {
            Scale::Full => (EncoderConfig::paper(CLIP_SEED), StepSet::paper_mpeg()),
            Scale::Tiny => (
                EncoderConfig::tiny(CLIP_SEED),
                StepSet::new(vec![1, 2, 3, 4]).expect("non-empty step set"),
            ),
        }
    }
}

impl Stack for Encode {
    type Manager<'a> = RelaxedManager<'a>;
    type Exec<'a> = EncoderExec<'a>;

    fn system(&self) -> &ParameterizedSystem {
        self.exp.encoder.system()
    }
    fn period(&self) -> Time {
        self.exp.encoder.config().frame_period
    }
    fn chaining(&self) -> CycleChaining {
        self.exp.chaining
    }
    fn overhead(&self) -> OverheadModel {
        overhead::relaxation()
    }
    fn manager(&self) -> RelaxedManager<'_> {
        RelaxedManager::new(&self.exp.regions, &self.exp.relaxation)
    }
    fn exec(&self, _stream: usize) -> EncoderExec<'_> {
        let (lo, hi, f) = BURST;
        self.exp
            .encoder
            .exec(JITTER, self.seed)
            .with_burst(lo, hi, f)
    }
    fn streams(&self) -> usize {
        1
    }
    fn frames(&self, _stream: usize) -> usize {
        self.frames
    }
    fn source(&self, _stream: usize) -> PatternSource {
        PatternSource::Periodic(Periodic::new(self.period(), self.frames))
    }
    fn shape(&self) -> Shape {
        Shape::Closed
    }
    fn elastic_config(&self) -> ElasticConfig {
        ElasticConfig::live().with_chaining(self.chaining())
    }

    const NAME: &'static str = "encode";

    fn setup(scale: Scale, seed: u64) -> Encode {
        let (config, rho) = Encode::config(scale);
        let (frames, timed_frames) = match scale {
            Scale::Full => (3_000, ENCODE_TIMED_FRAMES),
            Scale::Tiny => (40, 10),
        };
        Encode {
            exp: PaperExperiment::with_config_and_rho(config, rho),
            frames,
            timed_frames,
            seed,
        }
    }

    fn timed_pass(&self) -> (PassOut, Duration) {
        self.pass(self.timed_frames)
    }

    fn reference_pass(&self) -> (PassOut, Duration) {
        self.pass(self.frames)
    }

    fn build_phases(&self) -> BuildPhases {
        let config = *self.exp.encoder.config();
        let (encoder, build) = timed(|| MpegEncoder::new(config).expect("feasible encoder"));
        let (regions, r) = timed(|| compile_regions(encoder.system()));
        let rho = self.exp.relaxation.rho().clone();
        let (_, x) = timed(|| compile_relaxation(encoder.system(), &regions, rho));
        BuildPhases {
            build_ms: ms(build),
            regions_ms: ms(r),
            relaxation_ms: ms(x),
        }
    }
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

/// Content seed of the synthetic request population.
pub const REQUEST_SEED: u64 = 7;

/// Waiting-queue bound of each serving stream.
pub const SERVE_CAPACITY: usize = 4;

/// Inference serving: many live streams of 16-request batches, each
/// through the bounded drop-newest front end.
pub struct Serve {
    exp: InferExperiment,
    streams: usize,
    batches: usize,
    seed: u64,
}

impl Serve {
    fn stream_seed(&self, i: usize) -> u64 {
        mix(self.seed, i as u64)
    }

    /// One stream in four periodic, the rest bursty — the pattern of
    /// [`InferExperiment::streaming_specs`].
    fn arrival(i: usize) -> ArrivalSpec {
        if i % 4 == 3 {
            ArrivalSpec::Periodic
        } else {
            ArrivalSpec::Bursty { max_burst: 6 }
        }
    }
}

impl Stack for Serve {
    type Manager<'a> = LookupManager<'a>;
    type Exec<'a> = BatchCoupledExec<'a>;

    fn system(&self) -> &ParameterizedSystem {
        self.exp.system()
    }
    fn period(&self) -> Time {
        self.exp.period()
    }
    fn chaining(&self) -> CycleChaining {
        CycleChaining::ArrivalClamped
    }
    fn overhead(&self) -> OverheadModel {
        Workload::overhead(&self.exp)
    }
    fn manager(&self) -> LookupManager<'_> {
        LookupManager::new(self.exp.regions())
    }
    fn exec(&self, stream: usize) -> BatchCoupledExec<'_> {
        self.exp.exec_source(JITTER, self.stream_seed(stream))
    }
    fn streams(&self) -> usize {
        self.streams
    }
    fn frames(&self, _stream: usize) -> usize {
        self.batches
    }
    fn source(&self, stream: usize) -> PatternSource {
        Serve::arrival(stream)
            .build(self.period(), self.batches, self.stream_seed(stream))
            .expect("serving streams are event-sourced")
    }
    fn shape(&self) -> Shape {
        Shape::Streaming(self.exp.serve_config(SERVE_CAPACITY))
    }
    fn elastic_config(&self) -> ElasticConfig {
        ElasticConfig::live()
    }

    const NAME: &'static str = "serve";

    fn setup(scale: Scale, seed: u64) -> Serve {
        let (exp, streams, batches) = match scale {
            Scale::Full => (InferExperiment::small(REQUEST_SEED), 600, 40),
            Scale::Tiny => (InferExperiment::tiny(REQUEST_SEED), 8, 12),
        };
        Serve {
            exp,
            streams,
            batches,
            seed,
        }
    }

    fn build_population(&self) {
        let sources: Vec<PatternSource> = (0..self.streams).map(|i| self.source(i)).collect();
        std::hint::black_box(sources);
    }

    fn timed_pass(&self) -> (PassOut, Duration) {
        let config = self.exp.serve_config(SERVE_CAPACITY);
        let (streams, d) = timed(|| {
            (0..self.streams)
                .map(|i| {
                    self.exp.run_streaming(
                        config,
                        &mut self.source(i),
                        JITTER,
                        self.stream_seed(i),
                        &mut NullSink,
                    )
                })
                .collect()
        });
        (PassOut::streamed(streams), d)
    }

    fn build_phases(&self) -> BuildPhases {
        let config: InferConfig = *self.exp.pipeline().config();
        let (pipeline, build) = timed(|| InferPipeline::new(config).expect("feasible pipeline"));
        let (_, r) = timed(|| compile_regions(pipeline.system()));
        BuildPhases {
            build_ms: ms(build),
            regions_ms: ms(r),
            relaxation_ms: 0.0,
        }
    }
}

// ---------------------------------------------------------------------------
// live-fleet
// ---------------------------------------------------------------------------

/// Ready-ring capacity of the elastic scheduler.
pub const FLEET_RING: usize = 4_096;

/// Fleet-wide bound on frames waiting behind busy streams.
pub const FLEET_GLOBAL_CAPACITY: usize = 40_000;

/// 10⁵ live micro streams (4 actions, 3 qualities) interleaved by the
/// elastic scheduler under fleet-wide drop-newest admission.
pub struct LiveFleet {
    exp: ElasticExperiment,
    regions: QualityRegionTable,
    seed: u64,
    workers: usize,
    global_capacity: usize,
}

impl Stack for LiveFleet {
    type Manager<'a> = LookupManager<'a>;
    type Exec<'a> = MicroExec<'a>;

    fn system(&self) -> &ParameterizedSystem {
        self.exp.system()
    }
    fn period(&self) -> Time {
        MICRO_PERIOD
    }
    fn chaining(&self) -> CycleChaining {
        CycleChaining::ArrivalClamped
    }
    /// The micro system's calibration in [`ElasticExperiment`].
    fn overhead(&self) -> OverheadModel {
        OverheadModel::new(Time::from_ns(2), Time::from_ns(1))
    }
    fn manager(&self) -> LookupManager<'_> {
        LookupManager::new(&self.regions)
    }
    fn exec(&self, stream: usize) -> MicroExec<'_> {
        self.exp.exec(stream + (self.seed % 50) as usize)
    }
    fn streams(&self) -> usize {
        self.exp.streams()
    }
    fn frames(&self, _stream: usize) -> usize {
        self.exp.frames()
    }
    /// Round-robin periodic / jittered / bursty at the nominal rate, as in
    /// [`ElasticExperiment::source`], seeded from `--seed`.
    fn source(&self, stream: usize) -> PatternSource {
        let (period, frames) = (MICRO_PERIOD, self.exp.frames());
        let seed = mix(self.seed, stream as u64);
        match stream % 3 {
            0 => PatternSource::Periodic(Periodic::new(period, frames)),
            1 => PatternSource::Jittered(Jittered::new(
                period,
                Time::from_ns(period.as_ns() / 4),
                frames,
                seed,
            )),
            _ => PatternSource::Bursty(Bursty::new(period, 4, frames, seed)),
        }
    }
    fn shape(&self) -> Shape {
        Shape::Elastic {
            workers: self.workers,
        }
    }
    fn elastic_config(&self) -> ElasticConfig {
        ElasticConfig::live()
            .with_ring_capacity(FLEET_RING)
            .with_admission(Admission::DropNewest {
                global_capacity: self.global_capacity,
            })
    }

    const NAME: &'static str = "live-fleet";

    /// [`ElasticExperiment::micro`] compiles a region table it keeps
    /// private, so the managers here get a second compile of the same
    /// table: set-up pays for the micro system's compile twice.
    fn setup(scale: Scale, seed: u64) -> LiveFleet {
        let (streams, frames, global_capacity) = match scale {
            Scale::Full => (100_000, 4, FLEET_GLOBAL_CAPACITY),
            Scale::Tiny => (300, 4, 120),
        };
        let exp = ElasticExperiment::micro(streams, frames);
        let regions = compile_regions(exp.system());
        LiveFleet {
            exp,
            regions,
            seed,
            workers: crate::measure::nproc(),
            global_capacity,
        }
    }

    fn build_population(&self) {
        std::hint::black_box(population(self));
    }

    fn timed_pass(&self) -> (PassOut, Duration) {
        let streams = population(self);
        let (summary, d) = timed(|| run_elastic(self, self.workers, streams));
        (PassOut::elastic(summary), d)
    }

    /// `build_ms` includes the region compile inside
    /// [`ElasticExperiment::micro`]; `regions_ms` times one more.
    fn build_phases(&self) -> BuildPhases {
        let (exp, build) =
            timed(|| ElasticExperiment::micro(self.exp.streams(), self.exp.frames()));
        let (_, r) = timed(|| compile_regions(exp.system()));
        BuildPhases {
            build_ms: ms(build),
            regions_ms: ms(r),
            relaxation_ms: 0.0,
        }
    }
}
