//! Shared experiment plumbing: build the paper's encoder, compile the
//! symbolic tables, run the three Quality Manager implementations under
//! their calibrated overhead models, and collect traces.

use sqm_core::compiler::{compile_regions, compile_relaxation};
use sqm_core::controller::OverheadModel;
use sqm_core::engine::{CycleChaining, Engine, NullSink, RunSummary, TraceSink};
use sqm_core::manager::{LookupManager, NumericManager, RelaxedManager};
use sqm_core::policy::MixedPolicy;
use sqm_core::regions::QualityRegionTable;
use sqm_core::relaxation::{RelaxationTable, StepSet};
use sqm_core::source::ArrivalSource;
use sqm_core::stream::{StreamConfig, StreamSummary, StreamingRunner};
use sqm_core::trace::Trace;
use sqm_mpeg::{EncoderConfig, MpegEncoder};
use sqm_platform::overhead;

/// Which Quality Manager implementation to run (§4.1's three generated
/// managers).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ManagerKind {
    /// Online numeric computation of the mixed policy.
    Numeric,
    /// Symbolic manager over pre-computed quality regions.
    Regions,
    /// Symbolic manager with control relaxation.
    Relaxation,
}

impl ManagerKind {
    /// All three managers in the paper's presentation order.
    pub const ALL: [ManagerKind; 3] = [
        ManagerKind::Numeric,
        ManagerKind::Regions,
        ManagerKind::Relaxation,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            ManagerKind::Numeric => "numeric",
            ManagerKind::Regions => "symbolic -- no control relaxation",
            ManagerKind::Relaxation => "symbolic -- control relaxation",
        }
    }

    /// The calibrated virtual-platform overhead model for this manager.
    pub fn overhead_model(self) -> OverheadModel {
        match self {
            ManagerKind::Numeric => overhead::numeric(),
            ManagerKind::Regions => overhead::regions(),
            ManagerKind::Relaxation => overhead::relaxation(),
        }
    }
}

/// A fully-prepared paper experiment: encoder + compiled symbolic tables.
pub struct PaperExperiment {
    /// The synthetic MPEG encoder (1,189 actions, 7 quality levels).
    pub encoder: MpegEncoder,
    /// Compiled quality regions (Proposition 2).
    pub regions: QualityRegionTable,
    /// Compiled control relaxation regions for `ρ = {1,10,20,30,40,50}`.
    pub relaxation: RelaxationTable,
    /// How consecutive frames chain onto the clock — the paper's file
    /// encode ([`CycleChaining::WorkConserving`], the default) or live
    /// capture ([`CycleChaining::ArrivalClamped`]).
    pub chaining: CycleChaining,
}

impl PaperExperiment {
    /// Build the §4.1 setup with the paper's parameters.
    pub fn new(seed: u64) -> PaperExperiment {
        PaperExperiment::with_config(EncoderConfig::paper(seed))
    }

    /// Build with a custom encoder configuration and the paper's step menu.
    pub fn with_config(config: EncoderConfig) -> PaperExperiment {
        PaperExperiment::with_config_and_rho(config, StepSet::paper_mpeg())
    }

    /// Build with a custom encoder configuration and step menu. Small
    /// configurations need proportionally smaller steps: a relaxation of
    /// `r` steps must fit `r` extra worst cases inside one quality region,
    /// which bounds useful `r` by roughly `(n − i) · Δav / Cwc`.
    pub fn with_config_and_rho(config: EncoderConfig, rho: StepSet) -> PaperExperiment {
        let encoder = MpegEncoder::new(config).expect("encoder config is feasible");
        let regions = compile_regions(encoder.system());
        let relaxation = compile_relaxation(encoder.system(), &regions, rho);
        PaperExperiment {
            encoder,
            regions,
            relaxation,
            chaining: CycleChaining::WorkConserving,
        }
    }

    /// The same experiment with a different cycle-chaining mode (live
    /// capture = [`CycleChaining::ArrivalClamped`]).
    pub fn with_chaining(mut self, chaining: CycleChaining) -> PaperExperiment {
        self.chaining = chaining;
        self
    }

    /// Run `frames` cycles under the given manager, charging its calibrated
    /// overhead; actual times are content-driven with ±`jitter`, optionally
    /// with a macroblock burst (Fig. 8's hot region). Records stream into
    /// `sink`; aggregates come back as a [`RunSummary`].
    ///
    /// Every manager routes through the shared [`Engine`]: the `match`
    /// below monomorphizes the hot loop once per manager type — no
    /// `Box<dyn QualityManager>`, no per-action allocation.
    pub fn run_into<S: TraceSink>(
        &self,
        kind: ManagerKind,
        frames: usize,
        jitter: f64,
        exec_seed: u64,
        burst: Option<(usize, usize, f64)>,
        sink: &mut S,
    ) -> RunSummary {
        let sys = self.encoder.system();
        let period = self.encoder.config().frame_period;
        let mut exec = self.encoder.exec(jitter, exec_seed);
        if let Some((lo, hi, f)) = burst {
            exec = exec.with_burst(lo, hi, f);
        }
        let overhead = kind.overhead_model();
        let shape = RunShape {
            frames,
            period,
            chaining: self.chaining,
        };
        match kind {
            ManagerKind::Numeric => {
                let policy = MixedPolicy::new(sys);
                let manager = NumericManager::new(sys, &policy);
                drive_cycles(sys, manager, overhead, shape, &mut exec, sink)
            }
            ManagerKind::Regions => {
                let manager = LookupManager::new(&self.regions);
                drive_cycles(sys, manager, overhead, shape, &mut exec, sink)
            }
            ManagerKind::Relaxation => {
                let manager = RelaxedManager::new(&self.regions, &self.relaxation);
                drive_cycles(sys, manager, overhead, shape, &mut exec, sink)
            }
        }
    }

    /// Feed the encoder from an event-driven [`ArrivalSource`] instead of
    /// the closed loop: frames are pulled through a
    /// [`StreamingRunner`] under `config` (backlog bound, overload
    /// policy, chaining), with the same content-driven actual times as
    /// [`PaperExperiment::run_into`]. Returns the engine aggregates plus
    /// the streaming-only backlog/latency stats.
    pub fn run_stream_into<A, S>(
        &self,
        kind: ManagerKind,
        jitter: f64,
        exec_seed: u64,
        config: StreamConfig,
        source: &mut A,
        sink: &mut S,
    ) -> StreamSummary
    where
        A: ArrivalSource,
        S: TraceSink,
    {
        let sys = self.encoder.system();
        let mut exec = self.encoder.exec(jitter, exec_seed);
        let overhead = kind.overhead_model();
        let runner = StreamingRunner::new(config);
        match kind {
            ManagerKind::Numeric => {
                let policy = MixedPolicy::new(sys);
                let manager = NumericManager::new(sys, &policy);
                drive_stream(sys, manager, overhead, runner, source, &mut exec, sink)
            }
            ManagerKind::Regions => {
                let manager = LookupManager::new(&self.regions);
                drive_stream(sys, manager, overhead, runner, source, &mut exec, sink)
            }
            ManagerKind::Relaxation => {
                let manager = RelaxedManager::new(&self.regions, &self.relaxation);
                drive_stream(sys, manager, overhead, runner, source, &mut exec, sink)
            }
        }
    }

    /// Run and materialize the full trace (figure/table binaries).
    pub fn run(
        &self,
        kind: ManagerKind,
        frames: usize,
        jitter: f64,
        exec_seed: u64,
        burst: Option<(usize, usize, f64)>,
    ) -> Trace {
        let mut trace = Trace::default();
        self.run_into(kind, frames, jitter, exec_seed, burst, &mut trace);
        trace
    }

    /// Run without recording anything: the zero-allocation stats path used
    /// by host-side baselines.
    pub fn run_summary(
        &self,
        kind: ManagerKind,
        frames: usize,
        jitter: f64,
        exec_seed: u64,
        burst: Option<(usize, usize, f64)>,
    ) -> RunSummary {
        self.run_into(kind, frames, jitter, exec_seed, burst, &mut NullSink)
    }
}

/// One closed-loop run's shape, bundled so the monomorphized drive
/// helpers below keep a single point of change for the engine call.
#[derive(Clone, Copy)]
struct RunShape {
    frames: usize,
    period: sqm_core::time::Time,
    chaining: CycleChaining,
}

/// The one closed-loop engine call every manager arm of
/// [`PaperExperiment::run_into`] monomorphizes.
fn drive_cycles<M, X, S>(
    sys: &sqm_core::system::ParameterizedSystem,
    manager: M,
    overhead: OverheadModel,
    shape: RunShape,
    exec: &mut X,
    sink: &mut S,
) -> RunSummary
where
    M: sqm_core::manager::QualityManager,
    X: sqm_core::controller::ExecutionTimeSource,
    S: TraceSink,
{
    Engine::new(sys, manager, overhead).run_cycles(
        shape.frames,
        shape.period,
        shape.chaining,
        exec,
        sink,
    )
}

/// The one streaming call every manager arm of
/// [`PaperExperiment::run_stream_into`] monomorphizes.
fn drive_stream<M, A, X, S>(
    sys: &sqm_core::system::ParameterizedSystem,
    manager: M,
    overhead: OverheadModel,
    runner: StreamingRunner,
    source: &mut A,
    exec: &mut X,
    sink: &mut S,
) -> StreamSummary
where
    M: sqm_core::manager::QualityManager,
    A: ArrivalSource,
    X: sqm_core::controller::ExecutionTimeSource,
    S: TraceSink,
{
    runner.run(&mut Engine::new(sys, manager, overhead), source, exec, sink)
}

/// Outcome of one manager's run, with the §4.2 headline numbers.
#[derive(Clone, Debug)]
pub struct ExperimentResult {
    /// Which manager ran.
    pub kind: ManagerKind,
    /// The full trace.
    pub trace: Trace,
}

impl ExperimentResult {
    /// Execution-time overhead ratio (the 5.7 % / 1.9 % / 1.1 % metric).
    pub fn overhead_percent(&self) -> f64 {
        self.trace.run_summary().overhead_ratio() * 100.0
    }

    /// Mean quality level across all actions.
    pub fn avg_quality(&self) -> f64 {
        self.trace.run_summary().avg_quality()
    }

    /// Per-cycle average quality (Fig. 7 series).
    pub fn quality_per_frame(&self) -> Vec<f64> {
        self.trace
            .cycles
            .iter()
            .map(|c| c.summary().avg_quality())
            .collect()
    }
}

/// Run the full §4.2 comparison: all three managers over the same content.
pub fn run_paper_experiment(
    experiment: &PaperExperiment,
    frames: usize,
    jitter: f64,
    exec_seed: u64,
) -> Vec<ExperimentResult> {
    ManagerKind::ALL
        .iter()
        .map(|&kind| ExperimentResult {
            kind,
            trace: experiment.run(kind, frames, jitter, exec_seed, None),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PaperExperiment {
        // Small steps: on a 37-action cycle, relaxing r steps must fit r
        // extra worst cases inside one quality region, so r ≤ ~4.
        PaperExperiment::with_config_and_rho(
            EncoderConfig::tiny(3),
            StepSet::new(vec![1, 2, 3, 4]).unwrap(),
        )
    }

    #[test]
    fn all_managers_run_safely_on_tiny_config() {
        let exp = tiny();
        for kind in ManagerKind::ALL {
            let trace = exp.run(kind, 4, 0.1, 11, None);
            assert_eq!(trace.cycles.len(), 4);
            assert_eq!(trace.run_summary().misses, 0, "{kind:?}");
        }
    }

    /// Collects the engine's per-cycle summaries.
    #[derive(Default)]
    struct PerCycle(Vec<sqm_core::engine::CycleSummary>);

    impl TraceSink for PerCycle {
        fn end_cycle(&mut self, summary: &sqm_core::engine::CycleSummary) {
            self.0.push(*summary);
        }
    }

    #[test]
    fn summary_path_matches_trace_path() {
        for chaining in [CycleChaining::WorkConserving, CycleChaining::ArrivalClamped] {
            let exp = tiny().with_chaining(chaining);
            for kind in ManagerKind::ALL {
                assert_ne!(kind.overhead_model(), OverheadModel::ZERO);
                let mut trace = Trace::default();
                let mut per_cycle = PerCycle::default();
                let sink = &mut sqm_core::engine::Tee(&mut trace, &mut per_cycle);
                let recorded = exp.run_into(kind, 3, 0.1, 11, None, sink);
                for (summary, cycle) in per_cycle.0.iter().zip(&trace.cycles) {
                    assert_eq!(*summary, cycle.summary(), "{kind:?} {chaining:?}");
                }
                assert_eq!(per_cycle.0.len(), 3);
                assert_eq!(recorded, trace.run_summary(), "{kind:?} {chaining:?}");
                let summary = exp.run_summary(kind, 3, 0.1, 11, None);
                assert_eq!(summary, recorded, "{kind:?} {chaining:?}");
            }
        }
    }

    // NOTE: the "periodic + Block streaming ≡ closed loop" identity (and
    // the chaining knob's liveness) that used to be tested here is pinned
    // for all manager kinds and workloads by `tests/conformance.rs`.

    #[test]
    fn relaxation_makes_fewer_calls() {
        let exp = tiny();
        let regions = exp.run(ManagerKind::Regions, 4, 0.1, 11, None);
        let relaxed = exp.run(ManagerKind::Relaxation, 4, 0.1, 11, None);
        let (regions, relaxed) = (regions.run_summary(), relaxed.run_summary());
        assert!(relaxed.qm_calls < regions.qm_calls);
        assert_eq!(regions.qm_calls, regions.actions);
    }

    #[test]
    fn paper_scale_overhead_ordering_and_quality() {
        // The §4.2 cost ordering (numeric ≫ regions > relaxation) only
        // materializes at the paper's scale, where the numeric manager's
        // suffix scans cover hundreds of actions. Two frames suffice.
        let exp = PaperExperiment::new(3);
        let results = run_paper_experiment(&exp, 2, 0.1, 11);
        let pct: Vec<f64> = results
            .iter()
            .map(ExperimentResult::overhead_percent)
            .collect();
        assert!(
            pct[0] > 2.0 * pct[1],
            "numeric {:.2}% ≫ regions {:.2}%",
            pct[0],
            pct[1]
        );
        assert!(
            pct[1] > pct[2],
            "regions {:.2}% > relaxation {:.2}%",
            pct[1],
            pct[2]
        );
        let q: Vec<f64> = results.iter().map(ExperimentResult::avg_quality).collect();
        assert!(q[1] >= q[0], "regions {} ≥ numeric {}", q[1], q[0]);
        assert!(q[2] >= q[0], "relaxation {} ≥ numeric {}", q[2], q[0]);
        for r in &results {
            assert_eq!(r.trace.run_summary().misses, 0);
        }
    }
}
