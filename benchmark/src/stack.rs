//! The stack a workload runs on, described once so every path — the
//! instrumented pass and each rung of the per-layer ladder — is written
//! once, generically, against the public seams: [`Engine`],
//! [`StreamingRunner`], [`ElasticRunner`] and the
//! [`QualityManager`] / [`ExecutionTimeSource`] / [`TraceSink`] traits.

use std::time::Duration;

use sqm_core::controller::{ExecutionTimeSource, OverheadModel};
use sqm_core::elastic::{ElasticConfig, ElasticRunner, ElasticSummary, EngineDriver};
use sqm_core::engine::{CycleChaining, Engine, NullSink, RunSummary};
use sqm_core::manager::QualityManager;
use sqm_core::source::PatternSource;
use sqm_core::stream::{StreamConfig, StreamStats, StreamSummary, StreamingRunner};
use sqm_core::system::ParameterizedSystem;
use sqm_core::time::Time;

use crate::probe::{CountingExec, CountingManager, FrameSink};

/// How a workload's frames reach the engine on its production path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// One stream per [`Stack::streams`] entry, each a closed loop.
    Closed,
    /// Each stream through its own [`StreamingRunner`], one after another.
    Streaming(StreamConfig),
    /// All streams at once through the [`ElasticRunner`] on `workers`
    /// threads.
    Elastic {
        /// Worker threads.
        workers: usize,
    },
}

/// Benchmark sizes (`Full`) or smoke-test sizes (`Tiny`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` documents.
    Full,
    /// Sizes small enough for the smoke tests.
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// Host time of the phases that build a workload, in milliseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BuildPhases {
    /// Building the domain model (encoder, serving pipeline, micro fleet).
    pub build_ms: f64,
    /// Compiling the quality-region table.
    pub regions_ms: f64,
    /// Compiling the relaxation table (0 where the workload has none).
    pub relaxation_ms: f64,
}

/// One workload: its system, manager, execution-time sources and stream
/// population, and the untraced passes that drive it through the
/// repository's own entry point for its path.
pub trait Stack: Sync + Sized {
    /// The name `--workload` selects it by.
    const NAME: &'static str;

    /// Build the system, compile its tables and describe the population.
    fn setup(scale: Scale, seed: u64) -> Self;

    /// Build (and drop) the per-stream state a pass consumes, so set-up
    /// time covers it.
    fn build_population(&self) {}

    /// One untraced pass through the production path, returning its result
    /// and the host time that counts toward throughput.
    fn timed_pass(&self) -> (PassOut, Duration);

    /// One untraced pass over the whole population: the result the
    /// instrumented pass must reproduce and the virtual metrics describe.
    /// The same as a timed pass unless the workload times shorter passes.
    fn reference_pass(&self) -> (PassOut, Duration) {
        self.timed_pass()
    }

    /// Time the build phases once each.
    fn build_phases(&self) -> BuildPhases;

    /// The workload's quality manager.
    type Manager<'a>: QualityManager + Send
    where
        Self: 'a;
    /// The workload's execution-time source.
    type Exec<'a>: ExecutionTimeSource + Send
    where
        Self: 'a;

    /// The controlled system.
    fn system(&self) -> &ParameterizedSystem;
    /// Nominal frame period (= per-frame deadline).
    fn period(&self) -> Time;
    /// How frames chain onto the clock.
    fn chaining(&self) -> CycleChaining;
    /// Charged cost of a decision.
    fn overhead(&self) -> OverheadModel;
    /// A fresh manager.
    fn manager(&self) -> Self::Manager<'_>;
    /// Stream `stream`'s fresh execution-time source.
    fn exec(&self, stream: usize) -> Self::Exec<'_>;
    /// Streams in the population.
    fn streams(&self) -> usize;
    /// Frames stream `stream` offers.
    fn frames(&self, stream: usize) -> usize;
    /// Stream `stream`'s fresh arrival source.
    fn source(&self, stream: usize) -> PatternSource;
    /// The production path.
    fn shape(&self) -> Shape;
    /// The elastic scheduler's configuration for this population.
    fn elastic_config(&self) -> ElasticConfig;

    /// Frames offered by the whole population.
    fn total_frames(&self) -> usize {
        (0..self.streams()).map(|i| self.frames(i)).sum()
    }

    /// An engine over a caller-supplied manager.
    fn engine<M: QualityManager>(&self, manager: M) -> Engine<'_, M> {
        Engine::new(self.system(), manager, self.overhead())
    }
}

/// What one pass over the population produced, in the form every path can
/// be compared in.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PassOut {
    /// Engine aggregates over all processed frames.
    pub run: RunSummary,
    /// Per-stream summaries (empty for the closed loop).
    pub streams: Vec<StreamSummary>,
    /// The elastic scheduler's full summary, when it ran.
    pub elastic: Option<ElasticSummary>,
}

impl PassOut {
    /// A closed-loop pass.
    pub fn closed(run: RunSummary) -> PassOut {
        PassOut {
            run,
            ..PassOut::default()
        }
    }

    /// A pass of per-stream streaming runs.
    pub fn streamed(streams: Vec<StreamSummary>) -> PassOut {
        let mut run = RunSummary::default();
        for s in &streams {
            run.merge(&s.run);
        }
        PassOut {
            run,
            streams,
            elastic: None,
        }
    }

    /// An elastic pass.
    pub fn elastic(summary: ElasticSummary) -> PassOut {
        PassOut {
            run: *summary.run(),
            streams: summary.per_stream().to_vec(),
            elastic: Some(summary),
        }
    }

    /// Front-end aggregates merged over the streams (zero for the closed
    /// loop, which has no front end).
    pub fn stream_stats(&self) -> StreamStats {
        let mut stats = StreamStats::default();
        for s in &self.streams {
            stats.merge(&s.stats);
        }
        stats
    }
}

/// What the instrumented pass saw besides its [`PassOut`].
#[derive(Debug, Default)]
pub struct Instrumented {
    /// The pass result; must equal the untraced pass's.
    pub out: PassOut,
    /// Per-frame outcomes.
    pub frames: FrameSink,
    /// Manager decisions.
    pub decisions: u64,
    /// Probes charged.
    pub probes: u64,
    /// Execution-time queries.
    pub exec_calls: u64,
    /// Recorded decision inputs (for the decision replay).
    pub inputs: Vec<(usize, Time)>,
}

impl Instrumented {
    fn absorb<M, X>(
        &mut self,
        manager: CountingManager<M>,
        exec: CountingExec<X>,
        sink: FrameSink,
    ) {
        self.decisions += manager.decisions;
        self.probes += manager.probes;
        self.exec_calls += exec.calls;
        self.inputs.extend(manager.inputs);
        self.frames.merge(sink);
    }
}

/// Instrumented driver type of an elastic stream.
type CountingDriver<'a, S> = EngineDriver<
    'a,
    CountingManager<<S as Stack>::Manager<'a>>,
    CountingExec<<S as Stack>::Exec<'a>>,
    FrameSink,
>;

/// Run the production path once with the benchmark's instruments
/// attached: counting wrappers around the manager and the execution-time
/// source, and a [`FrameSink`]. Records at most `cap` decision inputs.
pub fn instrumented<S: Stack>(s: &S, cap: usize) -> Instrumented {
    let mut acc = Instrumented::default();
    let n = s.streams();
    let budget = |acc: &Instrumented| cap.saturating_sub(acc.inputs.len());
    match s.shape() {
        Shape::Closed => {
            let mut run = RunSummary::default();
            for i in 0..n {
                let mut engine = s.engine(CountingManager::new(s.manager(), budget(&acc)));
                let mut exec = CountingExec::new(s.exec(i), 0);
                let mut sink = FrameSink::default();
                let r =
                    engine.run_cycles(s.frames(i), s.period(), s.chaining(), &mut exec, &mut sink);
                run.merge(&r);
                acc.absorb(engine.into_manager(), exec, sink);
            }
            acc.out = PassOut::closed(run);
        }
        Shape::Streaming(config) => {
            let mut streams = Vec::with_capacity(n);
            for i in 0..n {
                let mut engine = s.engine(CountingManager::new(s.manager(), budget(&acc)));
                let mut exec = CountingExec::new(s.exec(i), 0);
                let mut sink = FrameSink::default();
                streams.push(StreamingRunner::new(config).run(
                    &mut engine,
                    &mut s.source(i),
                    &mut exec,
                    &mut sink,
                ));
                acc.absorb(engine.into_manager(), exec, sink);
            }
            acc.out = PassOut::streamed(streams);
        }
        Shape::Elastic { workers } => {
            let per_stream = cap / n.max(1);
            let population: Vec<(PatternSource, CountingDriver<'_, S>)> = (0..n)
                .map(|i| {
                    (
                        s.source(i),
                        EngineDriver::new(
                            s.engine(CountingManager::new(s.manager(), per_stream)),
                            CountingExec::new(s.exec(i), 0),
                            FrameSink::default(),
                        ),
                    )
                })
                .collect();
            let (summary, drivers) =
                ElasticRunner::new(workers, s.elastic_config()).run(population);
            for driver in drivers {
                let (engine, exec, sink) = driver.into_parts();
                acc.absorb(engine.into_manager(), exec, sink);
            }
            acc.out = PassOut::elastic(summary);
        }
    }
    acc
}

/// Every stream's closed loop with the plain manager and source (ladder
/// rung "closed"). Returns the per-stream summaries.
pub fn closed_loops<S: Stack>(s: &S) -> Vec<RunSummary> {
    (0..s.streams())
        .map(|i| {
            s.engine(s.manager()).run_cycles(
                s.frames(i),
                s.period(),
                s.chaining(),
                &mut s.exec(i),
                &mut NullSink,
            )
        })
        .collect()
}

/// Every stream through [`StreamingRunner`] with periodic arrivals and
/// the lossless `Block` policy — by the front end's contract the same
/// per-stream summaries as [`closed_loops`].
pub fn periodic_block<S: Stack>(s: &S) -> Vec<StreamSummary> {
    let config = StreamConfig {
        chaining: s.chaining(),
        capacity: 2,
        policy: sqm_core::stream::OverloadPolicy::Block,
    };
    (0..s.streams())
        .map(|i| {
            StreamingRunner::new(config).run(
                &mut s.engine(s.manager()),
                &mut sqm_core::source::Periodic::new(s.period(), s.frames(i)),
                &mut s.exec(i),
                &mut NullSink,
            )
        })
        .collect()
}

/// Plain elastic driver type of a stream.
pub type PlainDriver<'a, S> =
    EngineDriver<'a, <S as Stack>::Manager<'a>, <S as Stack>::Exec<'a>, NullSink>;

/// The population the elastic scheduler consumes.
pub fn population<S: Stack>(s: &S) -> Vec<(PatternSource, PlainDriver<'_, S>)> {
    (0..s.streams())
        .map(|i| {
            (
                s.source(i),
                EngineDriver::new(s.engine(s.manager()), s.exec(i), NullSink),
            )
        })
        .collect()
}

/// Run a prepared population on `workers` threads.
pub fn run_elastic<S: Stack>(
    s: &S,
    workers: usize,
    population: Vec<(PatternSource, PlainDriver<'_, S>)>,
) -> ElasticSummary {
    ElasticRunner::new(workers, s.elastic_config())
        .run(population)
        .0
}

/// Record up to `cap` execution-time queries, stream by stream, from the
/// closed loops (the input the "exec" rung replays).
pub fn record_exec<S: Stack>(s: &S, cap: usize) -> Vec<(usize, Vec<crate::probe::ExecCall>)> {
    let mut out = Vec::new();
    let mut left = cap;
    for i in 0..s.streams() {
        if left == 0 {
            break;
        }
        let mut exec = CountingExec::new(s.exec(i), left);
        s.engine(s.manager()).run_cycles(
            s.frames(i),
            s.period(),
            s.chaining(),
            &mut exec,
            &mut NullSink,
        );
        left -= exec.queries.len();
        out.push((i, exec.queries));
    }
    out
}
