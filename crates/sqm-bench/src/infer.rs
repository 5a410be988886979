//! Inference harness: the serving workload behind the uniform
//! [`Workload`] seam, plus the SLO scenario menu its tests run.
//!
//! An [`InferExperiment`] compiles the batch's quality regions **once**
//! and serves every path from them — closed loop, event-driven streaming
//! and the elastic scheduler. The serving regime combines
//! the other workloads' stress axes: requests arrive in **bursts** (a
//! chat burst, a batch-job submission), overload is answered by
//! **admission control** ([`OverloadPolicy::DropNewest`] per stream,
//! [`sqm_core::elastic::Admission::DropNewest`] fleet-wide), and — unique
//! to this domain — execution times are **coupled across the batch**
//! through [`sqm_infer::BatchCoupledExec`], so identity across execution
//! paths exercises the engine seam's statefulness, not just its
//! arithmetic.

use sqm_core::compiler::compile_regions;
use sqm_core::engine::CycleChaining;
use sqm_core::regions::QualityRegionTable;
use sqm_core::source::ArrivalSpec;
use sqm_core::stream::{OverloadPolicy, StreamConfig};
use sqm_core::system::ParameterizedSystem;
use sqm_core::time::Time;
use sqm_infer::{BatchCoupledExec, InferConfig, InferPipeline};

use crate::streaming::StreamScenario;
use crate::workload::Workload;

/// The inference-serving experiment: batch pipeline + compiled quality
/// regions.
pub struct InferExperiment {
    infer: InferPipeline,
    regions: QualityRegionTable,
}

impl InferExperiment {
    /// Build a serving batch and compile its quality regions.
    pub fn new(config: InferConfig) -> InferExperiment {
        let infer = InferPipeline::new(config).expect("infer config is feasible at qmin");
        let regions = compile_regions(infer.system());
        InferExperiment { infer, regions }
    }

    /// The CI-scale setup ([`InferConfig::small`]: 16-request batches).
    pub fn small(seed: u64) -> InferExperiment {
        InferExperiment::new(InferConfig::small(seed))
    }

    /// The test-scale setup ([`InferConfig::tiny`]: 4-request batches).
    pub fn tiny(seed: u64) -> InferExperiment {
        InferExperiment::new(InferConfig::tiny(seed))
    }

    /// The wrapped pipeline.
    pub fn pipeline(&self) -> &InferPipeline {
        &self.infer
    }

    /// The live configuration of the serving regime: arrival-clamped
    /// starts (a request cannot be served before it arrives), a
    /// `capacity`-deep admission queue, drop-newest admission control.
    pub fn serve_config(&self, capacity: usize) -> StreamConfig {
        StreamConfig {
            chaining: CycleChaining::ArrivalClamped,
            capacity,
            policy: OverloadPolicy::DropNewest,
        }
    }

    /// The serving regime's per-stream arrival pattern: mostly bursty
    /// arrivals (three streams in four; the fourth is periodic as the
    /// control group), one entry per stream.
    pub fn streaming_specs(streams: usize) -> Vec<ArrivalSpec> {
        (0..streams)
            .map(|i| {
                if i % 4 == 3 {
                    ArrivalSpec::Periodic
                } else {
                    ArrivalSpec::Bursty { max_burst: 6 }
                }
            })
            .collect()
    }

    /// The serving scenario menu, a fixture of this module's tests
    /// (nominal rate is lossless, overload sheds): nominal-rate traffic
    /// under admission control (the serving regime), and a 1.43×
    /// overloaded burst train under each shedding policy.
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
                name: "bursty6/drop-newest",
                arrival: ArrivalSpec::Bursty { max_burst: 6 },
                period_pct: 100,
                capacity: 8,
                policy: OverloadPolicy::DropNewest,
            },
            StreamScenario {
                name: "bursty6-overload/block",
                arrival: ArrivalSpec::Bursty { max_burst: 6 },
                period_pct: 70,
                capacity: 4,
                policy: OverloadPolicy::Block,
            },
            StreamScenario {
                name: "bursty6-overload/drop-newest",
                arrival: ArrivalSpec::Bursty { max_burst: 6 },
                period_pct: 70,
                capacity: 4,
                policy: OverloadPolicy::DropNewest,
            },
            StreamScenario {
                name: "bursty6-overload/skip-to-latest",
                arrival: ArrivalSpec::Bursty { max_burst: 6 },
                period_pct: 70,
                capacity: 4,
                policy: OverloadPolicy::SkipToLatest,
            },
        ]
    }
}

impl Workload for InferExperiment {
    type Exec<'a> = BatchCoupledExec<'a>;

    fn label(&self) -> &'static str {
        "infer/regions"
    }

    /// The serving scheduler runs on a host core next to the accelerator,
    /// not the embedded core the default calibration models: per-decision
    /// cost is rescaled so managing a 60–900 µs phase costs ~1 %, not
    /// ~20 %.
    fn overhead(&self) -> sqm_core::controller::OverheadModel {
        sqm_platform::overhead::infer_regions()
    }

    fn system(&self) -> &ParameterizedSystem {
        self.infer.system()
    }

    fn period(&self) -> Time {
        self.infer.config().batch_period()
    }

    fn regions(&self) -> &QualityRegionTable {
        &self.regions
    }

    fn exec_source(&self, jitter: f64, seed: u64) -> BatchCoupledExec<'_> {
        self.infer.exec(jitter, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elastic::{check_identity, mixed_fleet};
    use crate::workload::JITTER;
    use sqm_core::elastic::{Admission, ElasticConfig};
    use sqm_core::engine::NullSink;
    use sqm_core::source::Periodic;
    use sqm_core::trace::Trace;
    use sqm_infer::SloClass;

    #[test]
    fn periodic_block_streaming_matches_closed_loop() {
        let exp = InferExperiment::tiny(7);
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

    /// A closed serving run at the SLO rate misses no deadline, so every
    /// request class keeps a non-negative worst slack against its budget.
    #[test]
    fn closed_serving_run_keeps_slo_slack_per_class() {
        let exp = InferExperiment::small(3);
        let mut trace = Trace::default();
        let run = exp.run_closed(16, CycleChaining::ArrivalClamped, JITTER, 11, &mut trace);
        assert_eq!(run.misses, 0, "the SLO run must be miss-free");
        let pipeline = exp.pipeline();
        let deadlines = pipeline.system().deadlines();
        let (mut interactive, mut bulk) = (i64::MAX, i64::MAX);
        for r in trace.cycles.iter().flat_map(|c| &c.records) {
            if let Some(deadline) = deadlines.get(r.action) {
                let worst = match pipeline.slo_of(r.action) {
                    SloClass::Interactive => &mut interactive,
                    SloClass::Bulk => &mut bulk,
                };
                *worst = (*worst).min((deadline - r.end).as_ns());
            }
        }
        assert!(
            (0..i64::MAX).contains(&interactive) && (0..i64::MAX).contains(&bulk),
            "both SLO classes keep non-negative slack: {interactive} / {bulk} ns"
        );
    }

    #[test]
    fn nominal_rate_is_lossless_but_overload_sheds() {
        let exp = InferExperiment::tiny(7);
        let scenarios = InferExperiment::scenarios();
        let nominal = scenarios
            .iter()
            .find(|s| s.name == "bursty6/drop-newest")
            .unwrap();
        let out = exp.run_scenario(nominal, 24, 11);
        assert_eq!(out.stats.arrived, 24);
        // At the nominal SLO rate the batch keeps up: bursts queue but
        // admission control never has to act.
        assert_eq!(out.stats.dropped, 0, "nominal rate must be sustainable");
        assert!(out.stats.max_backlog > 0, "bursts actually queue");

        let overload = scenarios
            .iter()
            .find(|s| s.name == "bursty6-overload/drop-newest")
            .unwrap();
        let out = exp.run_scenario(overload, 24, 11);
        assert!(out.stats.dropped > 0, "1.43x overload must shed");
        assert_eq!(out.stats.processed + out.stats.dropped, 24);
    }

    /// The serving pattern is event-sourced throughout, with one periodic
    /// control stream in four.
    #[test]
    fn serving_streams_are_event_sourced() {
        let specs = InferExperiment::streaming_specs(8);
        assert!(specs
            .iter()
            .all(|s| s.build(Time::from_ns(100), 2, 1).is_some()));
        assert_eq!(
            specs
                .iter()
                .filter(|&&s| s == ArrivalSpec::Periodic)
                .count(),
            2
        );
    }

    #[test]
    fn elastic_serving_matches_serial_fold_and_worker_counts() {
        let exp = InferExperiment::tiny(5);
        let config = ElasticConfig::live().with_ring_capacity(16);
        let (reference, _) =
            check_identity(config, [2, 4], || mixed_fleet(&exp, 24, 2, 1, 1_000)).unwrap();
        assert_eq!(reference.n_streams(), 24);
        assert_eq!(reference.stats().processed, 48);
    }

    #[test]
    fn overloaded_elastic_serving_sheds_deterministically() {
        let exp = InferExperiment::tiny(5);
        let config = ElasticConfig::live()
            .with_admission(Admission::DropNewest { global_capacity: 6 })
            .with_ring_capacity(16);
        let (out, _) = check_identity(config, [3], || mixed_fleet(&exp, 18, 4, 4, 1_000)).unwrap();
        assert!(
            out.ledger().shed > 0,
            "4x overload sheds: {:?}",
            out.ledger()
        );
        assert_eq!(out.ledger().arrived, 18 * 4);
    }
}
