//! Elastic-scheduler workload: the very-many-live-streams stress the
//! `bench_elastic` binary and the elastic criterion bench share.
//!
//! This module measures `sqm_core::elastic`, the workspace's one
//! multi-stream runner, interleaving 10⁵ *tiny* live streams per cycle.
//! To keep a 100k-stream scenario inside CI budgets each stream runs a
//! **micro system** (four actions, three quality levels) under the
//! symbolic [`LookupManager`] against one shared compiled region table:
//! the per-cycle work is small enough that the scheduler — heaps, ring,
//! admission — dominates, which is exactly what this point of the
//! performance trajectory is meant to expose.
//!
//! Two correctness gates ride along with every measurement (the binary
//! refuses to publish numbers that fail them):
//!
//! * `elastic(W)` must be **byte-identical** to `elastic(1)` for every
//!   measured worker count;
//! * under [`Admission::Unbounded`](sqm_core::elastic::Admission) the
//!   per-stream results must match a serial [`StreamingRunner`] + `Block`
//!   fold byte-for-byte, `max_backlog` included (the scheduler's shadow
//!   account re-derives it at admission granularity, see
//!   `sqm_core::elastic`'s module docs).

use sqm_core::compiler::compile_regions;
use sqm_core::controller::{ExecutionTimeSource, OverheadModel};
use sqm_core::elastic::{ElasticConfig, ElasticRunner, ElasticSummary, EngineDriver};
use sqm_core::engine::{Engine, NullSink};
use sqm_core::manager::LookupManager;
use sqm_core::quality::Quality;
use sqm_core::regions::QualityRegionTable;
use sqm_core::source::{Bursty, Jittered, PatternSource, Periodic};
use sqm_core::stream::{OverloadPolicy, StreamConfig, StreamSummary, StreamingRunner};
use sqm_core::system::{ParameterizedSystem, SystemBuilder};
use sqm_core::time::Time;
use sqm_core::timing::TimeTable;

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

    /// The micro system.
    pub fn system(&self) -> &ParameterizedSystem {
        &self.sys
    }

    fn overhead(&self) -> OverheadModel {
        OverheadModel::new(Time::from_ns(2), Time::from_ns(1))
    }

    /// Stream `i`'s arrival source. `overload_factor > 1` compresses the
    /// inter-arrival period by that factor, driving the fleet past
    /// sustainability for shed scenarios.
    pub fn source(&self, i: usize, overload_factor: i64) -> PatternSource {
        let period = Time::from_ns(MICRO_PERIOD.as_ns() / overload_factor.max(1));
        match i % 3 {
            0 => PatternSource::Periodic(Periodic::new(period, self.frames)),
            1 => PatternSource::Jittered(Jittered::new(
                period,
                Time::from_ns(period.as_ns() / 4),
                self.frames,
                7 + i as u64,
            )),
            _ => PatternSource::Bursty(Bursty::new(period, 4, self.frames, 11 + i as u64)),
        }
    }

    /// Stream `i`'s execution-time source.
    pub fn exec(&self, i: usize) -> MicroExec<'_> {
        MicroExec {
            table: self.sys.table(),
            seed: i as u64,
        }
    }

    /// The full stream population, ready for [`ElasticRunner::run`].
    pub fn build(&self, overload_factor: i64) -> Vec<(PatternSource, MicroDriver<'_>)> {
        (0..self.streams)
            .map(|i| {
                (
                    self.source(i, overload_factor),
                    EngineDriver::new(
                        Engine::new(
                            &self.sys,
                            LookupManager::new(&self.regions),
                            self.overhead(),
                        ),
                        self.exec(i),
                        NullSink,
                    ),
                )
            })
            .collect()
    }

    /// Run the population elastically on `workers` workers.
    pub fn run(&self, workers: usize, config: ElasticConfig) -> ElasticSummary {
        let overload = match config.admission {
            sqm_core::elastic::Admission::Unbounded => 1,
            sqm_core::elastic::Admission::DropNewest { .. } => 4,
        };
        ElasticRunner::new(workers, config)
            .run(self.build(overload))
            .0
    }

    /// The serial reference under unbounded admission: each stream alone
    /// through [`StreamingRunner`] + `Block`, in submission order. The
    /// elastic per-stream results must equal this fold byte-for-byte.
    pub fn serial_reference(&self, config: ElasticConfig) -> Vec<StreamSummary> {
        (0..self.streams)
            .map(|i| {
                StreamingRunner::new(StreamConfig {
                    chaining: config.chaining,
                    capacity: 2,
                    policy: OverloadPolicy::Block,
                })
                .run(
                    &mut Engine::new(
                        &self.sys,
                        LookupManager::new(&self.regions),
                        self.overhead(),
                    ),
                    &mut self.source(i, 1),
                    &mut self.exec(i),
                    &mut NullSink,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqm_core::elastic::Admission;

    #[test]
    fn elastic_micro_matches_serial_reference_and_worker_counts() {
        let exp = ElasticExperiment::micro(50, 4);
        let config = ElasticConfig::live().with_ring_capacity(16);
        let reference = exp.run(1, config);
        assert_eq!(reference.n_streams(), 50);
        assert_eq!(reference.stats().processed, exp.total_frames());
        for workers in [2, 4] {
            assert_eq!(exp.run(workers, config), reference, "workers = {workers}");
        }
        let serial = exp.serial_reference(config);
        assert_eq!(reference.per_stream(), &serial[..]);
    }

    #[test]
    fn overloaded_micro_sheds_deterministically() {
        let exp = ElasticExperiment::micro(30, 6);
        let config = ElasticConfig::live()
            .with_admission(Admission::DropNewest { global_capacity: 8 })
            .with_ring_capacity(16);
        let out = exp.run(1, config);
        assert!(
            out.ledger().shed > 0,
            "4x overload sheds: {:?}",
            out.ledger()
        );
        assert_eq!(out.ledger().arrived, exp.total_frames());
        assert_eq!(exp.run(3, config), out);
    }
}
