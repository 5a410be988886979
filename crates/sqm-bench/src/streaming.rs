//! Streaming scenarios: the named arrival-pattern recipes every workload's
//! event-driven runs are reported under, and the MPEG menu this module's
//! tests run.
//!
//! A [`StreamScenario`] is an arrival pattern (periodic, jittered,
//! bursty — possibly rate-scaled into overload) plus the backlog and
//! overload policy to run it under; [`Workload::run_scenario`] runs one on
//! any registered workload. [`mpeg_scenarios`] is the menu for the CI-scale
//! encoder (`EncoderConfig::small`): the three patterns at nominal rate,
//! plus an overloaded feed per shedding policy. Every scenario is
//! deterministic (sources and content jitter are seeded), so its
//! backlog, wait and drop figures are the same on every host.
//!
//! [`Workload::run_scenario`]: crate::workload::Workload::run_scenario

use sqm_core::engine::CycleChaining;
use sqm_core::source::{ArrivalSpec, PatternSource};
use sqm_core::stream::{OverloadPolicy, StreamConfig};
use sqm_core::time::Time;

/// One named streaming scenario: an arrival pattern (possibly
/// rate-scaled into overload) plus the backlog/overload configuration to
/// run it under.
#[derive(Clone, Copy, Debug)]
pub struct StreamScenario {
    /// Report label, e.g. `"bursty/drop-newest"`.
    pub name: &'static str,
    /// Arrival pattern recipe (never [`ArrivalSpec::Closed`]).
    pub arrival: ArrivalSpec,
    /// Arrival period as a percentage of the workload's nominal period:
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

    /// The live configuration the scenario runs under: arrival-clamped
    /// starts, its backlog bound and overload policy.
    pub fn config(&self) -> StreamConfig {
        StreamConfig {
            chaining: CycleChaining::ArrivalClamped,
            capacity: self.capacity,
            policy: self.policy,
        }
    }
}

/// The scenario menu for the `small` encoder, a fixture of this module's
/// tests (overload sheds, replay ≡ live): the three arrival patterns at
/// nominal rate under `Block` (lossless), and an overloaded bursty feed
/// under each shedding policy.
pub fn mpeg_scenarios() -> Vec<StreamScenario> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::PaperExperiment;
    use crate::workload::{Workload, JITTER};
    use sqm_core::engine::NullSink;
    use sqm_core::source::{ArrivalSource, TraceReplay};

    fn small() -> PaperExperiment {
        PaperExperiment::with_config(sqm_mpeg::EncoderConfig::small(7))
    }

    #[test]
    fn scenarios_cover_three_patterns_and_all_policies() {
        let scenarios = mpeg_scenarios();
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
        let exp = small();
        let scenarios = mpeg_scenarios();
        let overload = scenarios
            .iter()
            .find(|s| s.name == "bursty4-overload/drop-newest")
            .unwrap();
        let out = exp.run_scenario(overload, 24, 11);
        assert_eq!(out.stats.arrived, 24);
        assert!(
            out.stats.dropped > 0,
            "a 1.67x overloaded bursty feed must shed under DropNewest"
        );
        assert_eq!(out.stats.processed + out.stats.dropped, 24);
    }

    #[test]
    fn replay_of_a_recorded_source_matches_the_original() {
        let exp = small();
        let scenarios = mpeg_scenarios();
        let jittered = &scenarios[1];
        // Record the jittered source's timestamps, then replay them.
        let mut src = jittered.source(exp.period(), 16, 5);
        let mut times = Vec::new();
        while let Some(t) = src.next_arrival() {
            times.push(t);
        }
        let live = exp.run_scenario(jittered, 16, 5);
        let replayed = exp.run_streaming(
            jittered.config(),
            &mut TraceReplay::new(times),
            JITTER,
            5,
            &mut NullSink,
        );
        assert_eq!(live, replayed, "replaying a capture is byte-identical");
    }
}
