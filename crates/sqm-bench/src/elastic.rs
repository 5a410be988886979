//! Elastic-scheduler workload: the very-many-live-streams stress of
//! `sqm_core::elastic`, and the elastic identity every caller checks
//! through [`check_identity`].
//!
//! The workload exercises `sqm_core::elastic`, the workspace's one
//! multi-stream runner, interleaving 10⁵ *tiny* live streams per cycle
//! (the repository benchmark's `live-fleet` runs it on the same micro
//! system). To keep a 100k-stream scenario cheap each stream runs a
//! **micro system** (four actions, three quality levels) under the
//! symbolic [`LookupManager`] against one shared compiled region table:
//! the per-cycle work is small enough that the scheduler — heaps, ring,
//! admission — dominates, which is exactly what the workload is meant to
//! expose. The micro system registers
//! as the fifth [`Workload`] ([`ElasticExperiment`]), so the conformance
//! suite pins it on every path; [`mixed_fleet`] builds the
//! periodic / jittered / bursty population of any workload.
//!
//! The elastic identity, stated once in [`check_identity`]:
//!
//! * `elastic(W)` is **byte-identical** to `elastic(1)` — the whole
//!   [`ElasticSummary`] — for every worker count `W`;
//! * under [`Admission::Unbounded`] the per-stream results of
//!   `elastic(1)` equal the [`serial_fold`] of the same population — each
//!   stream alone through [`StreamingRunner`] + `Block`, `max_backlog`
//!   included (the scheduler derives each frame's depth from its stream's
//!   arrival and completion sequences, see `sqm_core::elastic`'s module
//!   docs).

use sqm_core::compiler::compile_regions;
use sqm_core::controller::{ExecutionTimeSource, OverheadModel};
use sqm_core::elastic::{
    Admission, CycleDriver, ElasticConfig, ElasticRunner, ElasticSummary, EngineDriver,
};
use sqm_core::engine::{CycleChaining, NullSink, TraceSink};
use sqm_core::manager::{LookupManager, QualityManager};
use sqm_core::quality::Quality;
use sqm_core::regions::QualityRegionTable;
use sqm_core::source::{ArrivalSource, Bursty, Jittered, PatternSource, Periodic};
use sqm_core::stream::{OverloadPolicy, StreamConfig, StreamSummary, StreamingRunner};
use sqm_core::system::{ParameterizedSystem, SystemBuilder};
use sqm_core::time::Time;
use sqm_core::timing::TimeTable;

use crate::workload::{Workload, WorkloadDriver, JITTER};

/// The micro system's cycle period (= its last-action deadline).
pub const MICRO_PERIOD: Time = Time::from_ns(130);

/// Deterministic content-driven execution times for the micro system:
/// each action runs at a seed-, cycle- and action-dependent fraction of
/// its worst case. Cheap, `Send`, and identical across execution paths.
#[derive(Clone, Copy, Debug)]
pub struct MicroExec<'a> {
    table: &'a TimeTable,
    seed: u64,
}

impl ExecutionTimeSource for MicroExec<'_> {
    fn actual(&mut self, cycle: usize, action: usize, q: Quality) -> Time {
        let wc = self.table.wc(action, q).as_ns();
        let f = 40 + ((self.seed as usize + cycle + action) % 50) as i64;
        Time::from_ns(wc * f / 100)
    }
}

/// The per-stream driver type every elastic-bench stream runs.
pub type MicroDriver<'a> = EngineDriver<'a, LookupManager<'a>, MicroExec<'a>, NullSink>;

/// Shared read-only state for the elastic stress scenario: the micro
/// system, its compiled quality regions, and the stream-population shape.
pub struct ElasticExperiment {
    sys: ParameterizedSystem,
    regions: QualityRegionTable,
    streams: usize,
    frames: usize,
}

impl ElasticExperiment {
    /// A population of `streams` micro streams with `frames` arrivals
    /// each, round-robining over periodic, jittered and bursty sources
    /// with per-stream seeds.
    pub fn micro(streams: usize, frames: usize) -> ElasticExperiment {
        let sys = SystemBuilder::new(3)
            .action("parse", &[10, 25, 40], &[4, 9, 14])
            .action("inspect", &[12, 22, 35], &[6, 11, 17])
            .action("transform", &[8, 18, 28], &[3, 8, 12])
            .action("emit", &[15, 24, 33], &[7, 12, 16])
            .deadline_last(MICRO_PERIOD)
            .build()
            .expect("micro system is feasible");
        let regions = compile_regions(&sys);
        ElasticExperiment {
            sys,
            regions,
            streams,
            frames,
        }
    }

    /// Number of streams in the population.
    pub fn streams(&self) -> usize {
        self.streams
    }

    /// Arrivals per stream.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Total arrivals across the population.
    pub fn total_frames(&self) -> usize {
        self.streams * self.frames
    }

    /// Stream `i`'s arrival source: [`mixed_source`] at the micro period,
    /// compressed by `overload_factor`.
    pub fn source(&self, i: usize, overload_factor: i64) -> PatternSource {
        mixed_source(i, MICRO_PERIOD, overload_factor, self.frames)
    }

    /// Stream `i`'s execution-time source.
    pub fn exec(&self, i: usize) -> MicroExec<'_> {
        self.exec_source(JITTER, i as u64)
    }
}

/// The micro system under the symbolic regions manager.
impl Workload for ElasticExperiment {
    type Exec<'a> = MicroExec<'a>;

    fn label(&self) -> &'static str {
        "micro/regions"
    }

    /// A host-core calibration scaled to the micro system's 130 ns cycle.
    fn overhead(&self) -> OverheadModel {
        OverheadModel::new(Time::from_ns(2), Time::from_ns(1))
    }

    fn system(&self) -> &ParameterizedSystem {
        &self.sys
    }

    fn period(&self) -> Time {
        MICRO_PERIOD
    }

    fn regions(&self) -> &QualityRegionTable {
        &self.regions
    }

    /// The micro times carry no content noise: `jitter` is ignored.
    fn exec_source(&self, _jitter: f64, seed: u64) -> MicroExec<'_> {
        MicroExec {
            table: self.sys.table(),
            seed,
        }
    }
}

/// Stream `i` of the mixed fleet: periodic, jittered (±¼ period) and
/// bursty (bursts of up to 4) in turn, `frames` arrivals at `nominal`
/// compressed by `overload_factor` (above 1 drives the fleet past
/// sustainability for shed scenarios), seeded by `i`.
pub fn mixed_source(i: usize, nominal: Time, overload_factor: i64, frames: usize) -> PatternSource {
    let period = Time::from_ns(nominal.as_ns() / overload_factor.max(1));
    match i % 3 {
        0 => PatternSource::Periodic(Periodic::new(period, frames)),
        1 => PatternSource::Jittered(Jittered::new(
            period,
            Time::from_ns(period.as_ns() / 4),
            frames,
            7 + i as u64,
        )),
        _ => PatternSource::Bursty(Bursty::new(period, 4, frames, 11 + i as u64)),
    }
}

/// The mixed fleet of `w`: `streams` streams of [`mixed_source`] at the
/// workload's period under the regions manager, stream `i` fed by the
/// execution-time source seeded `exec_seed + i`.
pub fn mixed_fleet<W: Workload>(
    w: &W,
    streams: usize,
    frames: usize,
    overload_factor: i64,
    exec_seed: u64,
) -> Vec<(PatternSource, WorkloadDriver<'_, W, LookupManager<'_>>)> {
    w.population(
        || LookupManager::new(w.regions()),
        (0..streams).map(|i| {
            (
                mixed_source(i, w.period(), overload_factor, frames),
                exec_seed + i as u64,
            )
        }),
    )
}

/// The serial reference of an elastic population: each stream alone
/// through [`StreamingRunner`] + `Block` under `chaining`, in submission
/// order, into its own sink. `Block` never sheds (its capacity bounds
/// nothing), so this is the reference for unbounded admission only.
pub fn serial_fold<A, M, X, S>(
    chaining: CycleChaining,
    population: Vec<(A, EngineDriver<'_, M, X, S>)>,
) -> Vec<StreamSummary>
where
    A: ArrivalSource,
    M: QualityManager,
    X: ExecutionTimeSource,
    S: TraceSink,
{
    let runner = StreamingRunner::new(StreamConfig {
        chaining,
        capacity: 1,
        policy: OverloadPolicy::Block,
    });
    population
        .into_iter()
        .map(|(mut source, driver)| {
            let (mut engine, mut exec, mut sink) = driver.into_parts();
            runner.run(&mut engine, &mut source, &mut exec, &mut sink)
        })
        .collect()
}

/// Check the elastic identity on the population `population()` builds
/// afresh for every run: `elastic(w)` equals `elastic(1)` as a whole
/// summary for each `w` in `workers`, and — under
/// [`Admission::Unbounded`] — `elastic(1)`'s per-stream summaries equal
/// the [`serial_fold`] under `config`'s chaining. Returns `elastic(1)`'s
/// summary and the sinks of every elastic run (`elastic(1)`'s first,
/// then each of `workers` in order), or where the first check failed.
pub fn check_identity<'s, A, M, X, S>(
    config: ElasticConfig,
    workers: impl IntoIterator<Item = usize>,
    population: impl Fn() -> Vec<(A, EngineDriver<'s, M, X, S>)>,
) -> Result<(ElasticSummary, Vec<S>), String>
where
    A: ArrivalSource,
    M: QualityManager,
    X: ExecutionTimeSource,
    S: TraceSink,
    EngineDriver<'s, M, X, S>: CycleDriver + Send,
{
    let mut sinks = Vec::new();
    let mut run = |workers: usize| {
        let (summary, drivers) = ElasticRunner::new(workers, config).run(population());
        sinks.extend(drivers.into_iter().map(|d| d.into_parts().2));
        summary
    };
    let one = run(1);
    for w in workers {
        let many = run(w);
        if many != one {
            let at = first_difference(many.per_stream(), one.per_stream()).unwrap_or_else(|| {
                let merged = |s: &ElasticSummary| format!("{:?}", (s.run(), s.stats(), s.ledger()));
                format!("{} != {}", merged(&many), merged(&one))
            });
            return Err(format!("elastic({w}) != elastic(1): {at}"));
        }
    }
    if config.admission == Admission::Unbounded {
        let fold = serial_fold(config.chaining, population());
        if let Some(at) = first_difference(one.per_stream(), &fold) {
            return Err(format!("elastic(1) != serial fold: {at}"));
        }
    }
    Ok((one, sinks))
}

/// The first stream at which two per-stream result lists differ.
fn first_difference(a: &[StreamSummary], b: &[StreamSummary]) -> Option<String> {
    match a.iter().zip(b).position(|(x, y)| x != y) {
        Some(i) => Some(format!("stream {i}: {:?} != {:?}", a[i], b[i])),
        None if a.len() != b.len() => Some(format!("{} streams != {}", a.len(), b.len())),
        None => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn elastic_micro_matches_serial_fold_and_worker_counts() {
        let exp = ElasticExperiment::micro(50, 4);
        let config = ElasticConfig::live().with_ring_capacity(16);
        let (reference, _) = check_identity(config, [2, 4], || {
            mixed_fleet(&exp, exp.streams(), exp.frames(), 1, 0)
        })
        .unwrap();
        assert_eq!(reference.n_streams(), 50);
        assert_eq!(reference.stats().processed, exp.total_frames());
    }

    #[test]
    fn overloaded_micro_sheds_deterministically() {
        let exp = ElasticExperiment::micro(30, 6);
        let config = ElasticConfig::live()
            .with_admission(Admission::DropNewest { global_capacity: 8 })
            .with_ring_capacity(16);
        let (out, _) = check_identity(config, [3], || {
            mixed_fleet(&exp, exp.streams(), exp.frames(), 4, 0)
        })
        .unwrap();
        assert!(
            out.ledger().shed > 0,
            "4x overload sheds: {:?}",
            out.ledger()
        );
        assert_eq!(out.ledger().arrived, exp.total_frames());
    }

    /// The check fails, naming the stream, when a later run differs — here
    /// a population whose execution seeds move on every build.
    #[test]
    fn identity_check_names_the_first_diverging_stream() {
        let exp = ElasticExperiment::micro(6, 3);
        let config = ElasticConfig::live().with_ring_capacity(4);
        let builds = Cell::new(0);
        let drifting = || {
            builds.set(builds.get() + 1);
            mixed_fleet(&exp, exp.streams(), exp.frames(), 1, builds.get())
        };
        let err = check_identity(config, [2], drifting).unwrap_err();
        assert!(
            err.starts_with("elastic(2) != elastic(1): stream 0:"),
            "{err}"
        );
        builds.set(0);
        let err = check_identity(config, [], drifting).unwrap_err();
        assert!(
            err.starts_with("elastic(1) != serial fold: stream 0:"),
            "{err}"
        );
    }

    /// `sqm_core::elastic` checks its per-stream byte budgets, and that its
    /// scheduler records fit in a `(PatternSource, driver)` population
    /// buffer, with a 56-byte driver of this one's shape (an engine over
    /// the lookup manager and a 16-byte execution-time source); the driver
    /// the elastic bench and the benchmark run must be no smaller, or that
    /// check would no longer cover them.
    #[test]
    fn micro_driver_is_no_smaller_than_the_core_stand_in() {
        assert!(std::mem::size_of::<MicroDriver<'_>>() >= 56);
        assert_eq!(
            std::mem::align_of::<(PatternSource, MicroDriver<'_>)>(),
            std::mem::align_of::<(PatternSource, [u64; 7])>()
        );
    }
}
