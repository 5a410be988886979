//! Streaming harness: the arrival-pattern scenarios the `bench_stream`
//! binary and `benches/streaming.rs` share.
//!
//! A [`StreamingExperiment`] wraps the CI-scale [`PaperExperiment`]
//! (the `small` encoder) and runs it behind the event-driven front-end
//! (`sqm_core::source` + `sqm_core::stream`) under a menu of named
//! [`StreamScenario`]s — periodic, jittered, bursty and recorded-replay
//! arrivals, plus an overloaded variant per shedding policy. Every
//! scenario is deterministic (sources and content jitter are seeded), so
//! the emitted `BENCH_stream.json` numbers are comparable across hosts.

use sqm_core::engine::{CycleChaining, RunSummary};
use sqm_core::source::{ArrivalSpec, PatternSource, TraceReplay};
use sqm_core::stream::{OverloadPolicy, StreamConfig, StreamSummary};
use sqm_core::time::Time;

use crate::harness::{ManagerKind, PaperExperiment};

/// One named streaming scenario: an arrival pattern (possibly
/// rate-scaled into overload) plus the backlog/overload configuration to
/// run it under.
#[derive(Clone, Copy, Debug)]
pub struct StreamScenario {
    /// Report label, e.g. `"bursty/drop-newest"`.
    pub name: &'static str,
    /// Arrival pattern recipe (never [`ArrivalSpec::Closed`]).
    pub arrival: ArrivalSpec,
    /// Arrival period as a percentage of the encoder's frame period:
    /// 100 = nominal rate, 60 = 1.67× overload.
    pub period_pct: u8,
    /// Backlog bound for waiting frames.
    pub capacity: usize,
    /// What happens when the backlog is full.
    pub policy: OverloadPolicy,
}

impl StreamScenario {
    /// Build the scenario's concrete source against a workload's nominal
    /// period: `frames` arrivals spaced at `period_pct`% of `nominal`
    /// (below 100 = overload), seeded deterministically.
    pub fn source(&self, nominal: Time, frames: usize, seed: u64) -> PatternSource {
        let period = Time::from_ns(nominal.as_ns() * i64::from(self.period_pct) / 100);
        self.arrival
            .build(period, frames, seed)
            .expect("scenarios never use ArrivalSpec::Closed")
    }
}

/// The streaming experiment: the `small` paper encoder behind the
/// event-driven front-end.
pub struct StreamingExperiment {
    mpeg: PaperExperiment,
    jitter: f64,
    seed: u64,
}

impl StreamingExperiment {
    /// CI-scale setup: the `small` encoder (298 actions) with content
    /// jitter 0.1.
    pub fn small(seed: u64) -> StreamingExperiment {
        StreamingExperiment {
            mpeg: PaperExperiment::with_config(sqm_mpeg::EncoderConfig::small(seed)),
            jitter: 0.1,
            seed,
        }
    }

    /// The encoder's frame period.
    pub fn period(&self) -> Time {
        self.mpeg.encoder.config().frame_period
    }

    /// The content-jitter fraction every run of this experiment uses —
    /// callers comparing against [`StreamingExperiment::closed_reference`]
    /// must feed the same value to both sides.
    pub fn jitter(&self) -> f64 {
        self.jitter
    }

    /// The wrapped paper experiment (for closed-loop references).
    pub fn mpeg(&self) -> &PaperExperiment {
        &self.mpeg
    }

    /// The scenario menu `bench_stream` reports: the three arrival
    /// patterns at nominal rate under `Block` (lossless), and an
    /// overloaded bursty feed under each shedding policy.
    pub fn scenarios() -> Vec<StreamScenario> {
        vec![
            StreamScenario {
                name: "periodic/block",
                arrival: ArrivalSpec::Periodic,
                period_pct: 100,
                capacity: 4,
                policy: OverloadPolicy::Block,
            },
            StreamScenario {
                name: "jittered25/block",
                arrival: ArrivalSpec::Jittered { jitter_pct: 25 },
                period_pct: 100,
                capacity: 4,
                policy: OverloadPolicy::Block,
            },
            StreamScenario {
                name: "bursty4/block",
                arrival: ArrivalSpec::Bursty { max_burst: 4 },
                period_pct: 100,
                capacity: 4,
                policy: OverloadPolicy::Block,
            },
            StreamScenario {
                name: "bursty4-overload/block",
                arrival: ArrivalSpec::Bursty { max_burst: 4 },
                period_pct: 60,
                capacity: 2,
                policy: OverloadPolicy::Block,
            },
            StreamScenario {
                name: "bursty4-overload/drop-newest",
                arrival: ArrivalSpec::Bursty { max_burst: 4 },
                period_pct: 60,
                capacity: 2,
                policy: OverloadPolicy::DropNewest,
            },
            StreamScenario {
                name: "bursty4-overload/skip-to-latest",
                arrival: ArrivalSpec::Bursty { max_burst: 4 },
                period_pct: 60,
                capacity: 2,
                policy: OverloadPolicy::SkipToLatest,
            },
        ]
    }

    /// Build the scenario's concrete source for `frames` arrivals.
    pub fn source(&self, scenario: &StreamScenario, frames: usize, seed: u64) -> PatternSource {
        scenario.source(self.period(), frames, seed)
    }

    /// Run one scenario for `frames` arrivals under `kind`, live-clamped
    /// (arrival-clamped chaining: frames cannot start before they exist).
    pub fn run_scenario(
        &self,
        kind: ManagerKind,
        scenario: &StreamScenario,
        frames: usize,
        seed: u64,
    ) -> StreamSummary {
        let mut source = self.source(scenario, frames, seed);
        self.mpeg.run_stream_into(
            kind,
            self.jitter,
            seed,
            StreamConfig {
                chaining: CycleChaining::ArrivalClamped,
                capacity: scenario.capacity,
                policy: scenario.policy,
            },
            &mut source,
            &mut sqm_core::engine::NullSink,
        )
    }

    /// Replay a recorded arrival trace (e.g. one captured from a jittered
    /// run) through the same pipeline.
    pub fn run_replay(
        &self,
        kind: ManagerKind,
        times: Vec<Time>,
        config: StreamConfig,
        seed: u64,
    ) -> StreamSummary {
        let mut source = TraceReplay::new(times);
        self.mpeg.run_stream_into(
            kind,
            self.jitter,
            seed,
            config,
            &mut source,
            &mut sqm_core::engine::NullSink,
        )
    }

    /// The closed-loop reference the streaming front-end must reproduce:
    /// the same encoder run through [`PaperExperiment::run_summary`] under
    /// the given chaining (the experiment is rebuilt from its seed, so
    /// the reference shares nothing with the streaming path but the
    /// inputs).
    pub fn closed_reference(
        &self,
        kind: ManagerKind,
        chaining: CycleChaining,
        frames: usize,
        exec_seed: u64,
    ) -> RunSummary {
        PaperExperiment::with_config(sqm_mpeg::EncoderConfig::small(self.seed))
            .with_chaining(chaining)
            .run_summary(kind, frames, self.jitter, exec_seed, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqm_core::source::ArrivalSource;

    #[test]
    fn scenarios_cover_three_patterns_and_all_policies() {
        let scenarios = StreamingExperiment::scenarios();
        let labels: Vec<_> = scenarios.iter().map(|s| s.arrival.label()).collect();
        assert!(labels.contains(&"periodic"));
        assert!(labels.contains(&"jittered"));
        assert!(labels.contains(&"bursty"));
        let policies: Vec<_> = scenarios.iter().map(|s| s.policy).collect();
        assert!(policies.contains(&OverloadPolicy::Block));
        assert!(policies.contains(&OverloadPolicy::DropNewest));
        assert!(policies.contains(&OverloadPolicy::SkipToLatest));
    }

    #[test]
    fn overloaded_scenarios_actually_shed_or_queue() {
        let exp = StreamingExperiment::small(7);
        let scenarios = StreamingExperiment::scenarios();
        let overload = scenarios
            .iter()
            .find(|s| s.name == "bursty4-overload/drop-newest")
            .unwrap();
        let out = exp.run_scenario(ManagerKind::Regions, overload, 24, 11);
        assert_eq!(out.stats.arrived, 24);
        assert!(
            out.stats.dropped > 0,
            "a 1.67x overloaded bursty feed must shed under DropNewest"
        );
        assert_eq!(out.stats.processed + out.stats.dropped, 24);
    }

    #[test]
    fn replay_of_a_recorded_source_matches_the_original() {
        let exp = StreamingExperiment::small(7);
        let scenarios = StreamingExperiment::scenarios();
        let jittered = &scenarios[1];
        // Record the jittered source's timestamps, then replay them.
        let mut src = exp.source(jittered, 16, 5);
        let mut times = Vec::new();
        while let Some(t) = src.next_arrival() {
            times.push(t);
        }
        let config = StreamConfig {
            chaining: CycleChaining::ArrivalClamped,
            capacity: jittered.capacity,
            policy: jittered.policy,
        };
        let live = exp.run_scenario(ManagerKind::Regions, jittered, 16, 5);
        let replayed = exp.run_replay(ManagerKind::Regions, times, config, 5);
        assert_eq!(live, replayed, "replaying a capture is byte-identical");
    }
}
