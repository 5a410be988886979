//! Net harness: the packet-pipeline workload behind the uniform
//! [`Workload`] seam, plus the line-rate scenario menu the `bench_net`
//! binary reports.
//!
//! A [`NetExperiment`] compiles the pipeline's quality regions **once**
//! and serves every path from them — closed loop, event-driven streaming
//! and the elastic multi-stream runner. The natural operating regime is
//! the one the MPEG and audio workloads never enter: packets arrive in
//! **bursts** at line rate, the backlog is a real NIC queue, and under
//! overload the right policy is **tail drop**
//! ([`OverloadPolicy::DropNewest`]) — routers shed load, they do not
//! backpressure the wire.

use sqm_core::compiler::compile_regions;
use sqm_core::engine::CycleChaining;
use sqm_core::regions::QualityRegionTable;
use sqm_core::source::ArrivalSpec;
use sqm_core::stream::{OverloadPolicy, StreamConfig};
use sqm_core::system::ParameterizedSystem;
use sqm_core::time::Time;
use sqm_net::{NetConfig, NetExec, NetPipeline};

use crate::streaming::StreamScenario;
use crate::workload::Workload;

/// The packet-pipeline experiment: pipeline + compiled quality regions.
pub struct NetExperiment {
    net: NetPipeline,
    regions: QualityRegionTable,
}

impl NetExperiment {
    /// Build a pipeline and compile its quality regions.
    pub fn new(config: NetConfig) -> NetExperiment {
        let net = NetPipeline::new(config).expect("net config is feasible at the line rate");
        let regions = compile_regions(net.system());
        NetExperiment { net, regions }
    }

    /// The CI-scale setup ([`NetConfig::small`]: 64-packet batches at
    /// 400 Mbit/s).
    pub fn small(seed: u64) -> NetExperiment {
        NetExperiment::new(NetConfig::small(seed))
    }

    /// The test-scale setup ([`NetConfig::tiny`]: 8-packet batches).
    pub fn tiny(seed: u64) -> NetExperiment {
        NetExperiment::new(NetConfig::tiny(seed))
    }

    /// The wrapped pipeline.
    pub fn pipeline(&self) -> &NetPipeline {
        &self.net
    }

    /// The live configuration of the natural regime: arrival-clamped
    /// starts (packets cannot be processed before they exist), a
    /// `capacity`-deep NIC queue, tail drop.
    pub fn line_config(&self, capacity: usize) -> StreamConfig {
        StreamConfig {
            chaining: CycleChaining::ArrivalClamped,
            capacity,
            policy: OverloadPolicy::DropNewest,
        }
    }

    /// The scenario menu `bench_net` reports: nominal-rate traffic under
    /// tail drop (the natural regime), and a 1.43× overloaded burst train
    /// under each shedding policy.
    pub fn scenarios() -> Vec<StreamScenario> {
        vec![
            StreamScenario {
                name: "periodic/block",
                arrival: ArrivalSpec::Periodic,
                period_pct: 100,
                capacity: 8,
                policy: OverloadPolicy::Block,
            },
            StreamScenario {
                name: "bursty8/drop-newest",
                arrival: ArrivalSpec::Bursty { max_burst: 8 },
                period_pct: 100,
                capacity: 8,
                policy: OverloadPolicy::DropNewest,
            },
            StreamScenario {
                name: "bursty8-overload/block",
                arrival: ArrivalSpec::Bursty { max_burst: 8 },
                period_pct: 70,
                capacity: 4,
                policy: OverloadPolicy::Block,
            },
            StreamScenario {
                name: "bursty8-overload/drop-newest",
                arrival: ArrivalSpec::Bursty { max_burst: 8 },
                period_pct: 70,
                capacity: 4,
                policy: OverloadPolicy::DropNewest,
            },
            StreamScenario {
                name: "bursty8-overload/skip-to-latest",
                arrival: ArrivalSpec::Bursty { max_burst: 8 },
                period_pct: 70,
                capacity: 4,
                policy: OverloadPolicy::SkipToLatest,
            },
        ]
    }
}

impl Workload for NetExperiment {
    type Exec<'a> = NetExec<'a>;

    fn label(&self) -> &'static str {
        "net/regions"
    }

    /// The packet pipeline runs on a line-card-class core, not the
    /// embedded core the default calibration models: per-decision cost is
    /// rescaled so managing a 2–8 µs action does not cost 17 µs.
    fn overhead(&self) -> sqm_core::controller::OverheadModel {
        sqm_platform::overhead::net_regions()
    }

    fn system(&self) -> &ParameterizedSystem {
        self.net.system()
    }

    fn period(&self) -> Time {
        self.net.config().batch_period()
    }

    fn regions(&self) -> &QualityRegionTable {
        &self.regions
    }

    fn exec_source(&self, jitter: f64, seed: u64) -> NetExec<'_> {
        self.net.exec(jitter, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::JITTER;
    use sqm_core::engine::NullSink;
    use sqm_core::source::Periodic;

    #[test]
    fn periodic_block_streaming_matches_closed_loop() {
        let exp = NetExperiment::tiny(7);
        for chaining in [CycleChaining::WorkConserving, CycleChaining::ArrivalClamped] {
            let closed = exp.run_closed(4, chaining, JITTER, 11, &mut NullSink);
            let streamed = exp.run_streaming(
                StreamConfig {
                    chaining,
                    capacity: 2,
                    policy: OverloadPolicy::Block,
                },
                &mut Periodic::new(exp.period(), 4),
                JITTER,
                11,
                &mut NullSink,
            );
            assert_eq!(streamed.run, closed, "{chaining:?}");
        }
    }

    #[test]
    fn nominal_rate_tail_drop_is_lossless_but_overload_sheds() {
        let exp = NetExperiment::tiny(7);
        let scenarios = NetExperiment::scenarios();
        let nominal = scenarios
            .iter()
            .find(|s| s.name == "bursty8/drop-newest")
            .unwrap();
        let out = exp.run_scenario(nominal, 24, 11);
        assert_eq!(out.stats.arrived, 24);
        // At the nominal line rate the pipeline keeps up: bursts queue but
        // the policy never has to act.
        assert_eq!(out.stats.dropped, 0, "nominal rate must be sustainable");
        assert!(out.stats.max_backlog > 0, "bursts actually queue");

        let overload = scenarios
            .iter()
            .find(|s| s.name == "bursty8-overload/drop-newest")
            .unwrap();
        let out = exp.run_scenario(overload, 24, 11);
        assert!(out.stats.dropped > 0, "1.43x overload must shed");
        assert_eq!(out.stats.processed + out.stats.dropped, 24);
    }
}
