//! Cross-path conformance suite — the single source of truth for the
//! workspace's execution-path identities.
//!
//! Four reductions of the same run exist: the **serial** closed loop
//! (`Engine::run_cycles`), the **trace-replay** reconstruction
//! (`Trace::run_summary`), the **1-worker fleet** (`FleetRunner` driving
//! one spec), and **Periodic + Block streaming**
//! (`StreamingRunner`). They must agree **byte for byte** — one
//! `RunSummary` semantics, no matter which path computed it — for *every*
//! registered workload (MPEG, audio, net, inference) under *both* [`CycleChaining`]
//! variants, and over arbitrary feasible systems. This file replaces the
//! per-path identity tests that used to be scattered across
//! `tests/streaming.rs`, the fleet harness and the bench binaries'
//! inline gates; per the II-CC-FF idea of combining evidence across
//! diverse sources, every workload added to the workspace doubles as an
//! independent witness that the reductions agree.
//!
//! The serial path's decisions must also re-derive one by one from the
//! top-down reference scans, which pins the managers' hint-resuming
//! search on every workload. The elastic scheduler joins the identity as
//! path 5 and the approachability control layer as path 6: a
//! [`ControlledManager`] over the trivial safe set (`ℝ⁴` — the
//! controller can never find the average outside) must be byte-identical
//! to the plain baseline on every one of those paths, which pins the
//! design claim that steering happens *only* at cycle boundaries and an
//! inactive controller is free.

mod common;

use common::{arb_system, cycle_fraction_exec, OVERHEAD};
use proptest::prelude::*;
use speed_qm::core::prelude::*;
use speed_qm::mpeg::EncoderConfig;
use sqm_bench::fuzz::{rederive_decisions, unclocked};
use sqm_bench::{
    AudioExperiment, InferExperiment, ManagerKind, NetExperiment, PaperExperiment, Workload,
};

const JITTER: f64 = 0.1;
const SEED: u64 = 11;
const CYCLES: usize = 4;

fn mpeg_tiny() -> PaperExperiment {
    PaperExperiment::with_config_and_rho(
        EncoderConfig::tiny(3),
        StepSet::new(vec![1, 2, 3, 4]).unwrap(),
    )
}

/// Every decided record of `trace` re-derives from the reference scans.
fn rederive(trace: &Trace, regions: &QualityRegionTable, relaxation: Option<&RelaxationTable>) {
    for cycle in &trace.cycles {
        if let Err(e) = rederive_decisions(&cycle.records, regions, relaxation, unclocked) {
            panic!("cycle {}: {e}", cycle.cycle);
        }
    }
}

/// The parameterized core of the suite: all four execution paths produce
/// the same `RunSummary` for workload `w`, under both chaining variants;
/// the two chaining variants themselves must differ (the knob is live).
fn assert_conformance<W: Workload + Sync>(w: &W)
where
    for<'a> W::Exec<'a>: Send,
{
    let mut per_chaining = Vec::new();
    for chaining in [CycleChaining::WorkConserving, CycleChaining::ArrivalClamped] {
        let label = w.label();
        let config = StreamConfig {
            chaining,
            capacity: 2,
            policy: OverloadPolicy::Block,
        };

        // Path 1 — serial closed loop (the reference), recording a trace.
        let mut trace = speed_qm::core::trace::Trace::default();
        let serial = w.run_closed(CYCLES, chaining, JITTER, SEED, &mut trace);
        assert_eq!(serial.cycles, CYCLES, "{label} {chaining:?}");
        assert!(serial.actions > 0, "{label} {chaining:?}");

        // Path 2 — trace-replay reconstruction.
        assert_eq!(
            trace.run_summary(),
            serial,
            "{label} {chaining:?}: trace-replay != serial"
        );

        // Path 3 — the fleet: a single closed spec on one worker is the
        // stream itself; a spec list folded serially equals every worker
        // count.
        let specs: Vec<StreamSpec<()>> = (0..3)
            .map(|i| StreamSpec::new((), SEED + i, CYCLES))
            .collect();
        let serial_fold = {
            let mut scratch = StreamScratch::default();
            FleetSummary::from_streams(
                specs
                    .iter()
                    .map(|spec| {
                        scratch.records.clear();
                        w.run_spec(config, spec, JITTER, &mut scratch)
                    })
                    .collect(),
            )
        };
        assert_eq!(
            *serial_fold.stream(0),
            serial,
            "{label} {chaining:?}: fleet spec != serial"
        );
        for workers in 1..=3 {
            let fleet = FleetRunner::new(workers).run(&specs, |spec, scratch| {
                w.run_spec(config, spec, JITTER, scratch)
            });
            assert_eq!(
                fleet, serial_fold,
                "{label} {chaining:?}: fleet({workers}) != serial fold"
            );
        }

        // Path 4 — Periodic + Block streaming: the closed loop is a
        // special case of the event-driven front-end.
        let streamed = w.run_streaming(
            config,
            &mut Periodic::new(w.period(), CYCLES),
            JITTER,
            SEED,
            &mut NullSink,
        );
        assert_eq!(
            streamed.run, serial,
            "{label} {chaining:?}: streaming != serial"
        );
        assert_eq!(streamed.stats.processed, CYCLES);
        assert_eq!(streamed.stats.dropped, 0);

        // And a periodic event-sourced fleet spec collapses to the same
        // stream as the closed spec.
        let periodic_spec = StreamSpec::new((), SEED, CYCLES).with_arrival(ArrivalSpec::Periodic);
        let mut scratch = StreamScratch::default();
        assert_eq!(
            w.run_spec(config, &periodic_spec, JITTER, &mut scratch),
            serial,
            "{label} {chaining:?}: periodic fleet spec != serial"
        );

        // Every serial decision re-derives from the top-down reference
        // scan: the hint-resuming lookup the manager runs is exact.
        rederive(&trace, w.regions(), None);

        // Path 5 — the elastic scheduler: per-cycle interleaving of many
        // live streams must reproduce the per-stream streaming fold under
        // unbounded admission — the full struct, `max_backlog` included —
        // byte-identically for every worker count.
        let elastic_streams = || -> Vec<_> {
            (0..3u64)
                .map(|i| {
                    (
                        Periodic::new(w.period(), CYCLES),
                        EngineDriver::new(
                            Engine::new(w.system(), LookupManager::new(w.regions()), w.overhead()),
                            w.exec_source(JITTER, SEED + i),
                            NullSink,
                        ),
                    )
                })
                .collect()
        };
        let serial_streams: Vec<StreamSummary> = (0..3u64)
            .map(|i| {
                w.run_streaming(
                    config,
                    &mut Periodic::new(w.period(), CYCLES),
                    JITTER,
                    SEED + i,
                    &mut NullSink,
                )
            })
            .collect();
        let elastic_config = ElasticConfig::live()
            .with_chaining(chaining)
            .with_ring_capacity(2);
        let (elastic_one, _) = ElasticRunner::new(1, elastic_config).run(elastic_streams());
        assert_eq!(
            elastic_one.per_stream(),
            &serial_streams[..],
            "{label} {chaining:?}: elastic(1) != per-stream streaming fold"
        );
        for workers in 2..=3 {
            let (elastic_n, _) = ElasticRunner::new(workers, elastic_config).run(elastic_streams());
            assert_eq!(
                elastic_n, elastic_one,
                "{label} {chaining:?}: elastic({workers}) != elastic(1)"
            );
        }

        // Path 6 — the approachability control layer with the trivial
        // safe set (ℝ⁴): the averaged payoff is always inside, so the
        // controller never steers off rung 0 and the `ControlledManager`
        // must be byte-identical to the plain baseline on every path —
        // serial (records included), streaming, fleet and elastic. This
        // is the conformance face of the control design: steering is
        // confined to the cycle boundary, so an inactive controller
        // cannot perturb a single decision.
        let trivial = || {
            ControlledManager::new(
                standard_slate(w.regions(), &[], w.system().qualities().max()),
                ApproachabilityController::new(SafeSet::everything()),
            )
        };
        let mut ctl_trace = speed_qm::core::trace::Trace::default();
        let mut ctl_engine = Engine::new(w.system(), trivial(), w.overhead());
        let ctl_serial = ctl_engine.run_cycles(
            CYCLES,
            w.period(),
            chaining,
            &mut w.exec_source(JITTER, SEED),
            &mut ctl_trace,
        );
        assert_eq!(
            ctl_serial, serial,
            "{label} {chaining:?}: controlled(trivial) serial != serial"
        );
        assert_eq!(
            ctl_engine.manager().rung_switches(),
            0,
            "{label} {chaining:?}"
        );
        for (a, b) in trace.cycles.iter().zip(&ctl_trace.cycles) {
            assert_eq!(
                a.records, b.records,
                "{label} {chaining:?}: controlled(trivial) trace != serial trace"
            );
        }
        let ctl_streamed = StreamingRunner::new(config).run(
            &mut Engine::new(w.system(), trivial(), w.overhead()),
            &mut Periodic::new(w.period(), CYCLES),
            &mut w.exec_source(JITTER, SEED),
            &mut NullSink,
        );
        assert_eq!(
            ctl_streamed, streamed,
            "{label} {chaining:?}: controlled(trivial) streaming != streaming"
        );
        let ctl_fleet_drive = |spec: &StreamSpec<()>, scratch: &mut StreamScratch| {
            let mut exec = w.exec_source(JITTER, spec.seed);
            let mut sink = speed_qm::core::engine::RecordBuffer::new(&mut scratch.records);
            Engine::new(w.system(), trivial(), w.overhead()).run_cycles(
                spec.cycles,
                w.period(),
                chaining,
                &mut exec,
                &mut sink,
            )
        };
        for workers in 1..=2 {
            let ctl_fleet = FleetRunner::new(workers).run(&specs, ctl_fleet_drive);
            assert_eq!(
                ctl_fleet, serial_fold,
                "{label} {chaining:?}: controlled(trivial) fleet({workers}) != serial fold"
            );
        }
        let ctl_elastic_streams = || -> Vec<_> {
            (0..3u64)
                .map(|i| {
                    (
                        Periodic::new(w.period(), CYCLES),
                        EngineDriver::new(
                            Engine::new(w.system(), trivial(), w.overhead()),
                            w.exec_source(JITTER, SEED + i),
                            NullSink,
                        ),
                    )
                })
                .collect()
        };
        for workers in 1..=2 {
            let (ctl_elastic, _) =
                ElasticRunner::new(workers, elastic_config).run(ctl_elastic_streams());
            assert_eq!(
                ctl_elastic.per_stream(),
                elastic_one.per_stream(),
                "{label} {chaining:?}: controlled(trivial) elastic({workers}) != elastic"
            );
        }

        per_chaining.push(serial);
    }
    assert_ne!(
        per_chaining[0],
        per_chaining[1],
        "{}: the chaining knob must actually change the run",
        w.label()
    );
}

#[test]
fn mpeg_workload_conforms_across_all_paths() {
    assert_conformance(&mpeg_tiny());
}

#[test]
fn audio_workload_conforms_across_all_paths() {
    assert_conformance(&AudioExperiment::tiny(3));
}

#[test]
fn net_workload_conforms_across_all_paths() {
    assert_conformance(&NetExperiment::tiny(3));
}

/// The inference workload's execution source is *stateful* (the shared
/// batch account in [`sqm_infer::BatchCoupledExec`]): conformance here
/// proves the continuous-batching state replays byte-identically on
/// every path, not just that the arithmetic agrees.
#[test]
fn infer_workload_conforms_across_all_paths() {
    assert_conformance(&InferExperiment::tiny(3));
}

/// The MPEG harness's manager-specific paths (numeric and relaxation are
/// not reachable through the uniform `Workload` seam) honour the same
/// identities: closed `run_into` ≡ trace-replay ≡ Periodic+Block
/// `run_stream_into`, for every manager kind × both chaining variants,
/// and the symbolic kinds' decisions re-derive from the reference scans.
#[test]
fn mpeg_manager_kinds_conform_across_paths() {
    for chaining in [CycleChaining::WorkConserving, CycleChaining::ArrivalClamped] {
        let exp = mpeg_tiny().with_chaining(chaining);
        let period = exp.encoder.config().frame_period;
        for kind in ManagerKind::ALL {
            let mut trace = speed_qm::core::trace::Trace::default();
            let serial = exp.run_into(kind, CYCLES, JITTER, SEED, None, &mut trace);
            match kind {
                ManagerKind::Numeric => {}
                ManagerKind::Regions => rederive(&trace, &exp.regions, None),
                ManagerKind::Relaxation => rederive(&trace, &exp.regions, Some(&exp.relaxation)),
            }
            assert_eq!(
                trace.run_summary(),
                serial,
                "{kind:?} {chaining:?}: trace-replay != serial"
            );
            let streamed = exp.run_stream_into(
                kind,
                JITTER,
                SEED,
                StreamConfig {
                    chaining,
                    capacity: 2,
                    policy: OverloadPolicy::Block,
                },
                &mut Periodic::new(period, CYCLES),
                &mut NullSink,
            );
            assert_eq!(
                streamed.run, serial,
                "{kind:?} {chaining:?}: streaming != serial"
            );
            assert_eq!(streamed.stats.dropped, 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The same four-path identity over *arbitrary* feasible systems under
    /// the numeric manager — summaries *and* full streaming traces.
    #[test]
    fn all_paths_agree_on_arbitrary_systems(arb in arb_system(), cycles in 1usize..5) {
        let sys = &arb.system;
        let policy = MixedPolicy::new(sys);
        let period = sys.final_deadline();
        for chaining in [CycleChaining::WorkConserving, CycleChaining::ArrivalClamped] {
            // Path 1 — serial.
            let mut closed_trace = Trace::default();
            let closed = Engine::new(sys, NumericManager::new(sys, &policy), OVERHEAD)
                .run_cycles(
                    cycles,
                    period,
                    chaining,
                    &mut cycle_fraction_exec(sys, &arb.fractions),
                    &mut closed_trace,
                );

            // Path 2 — trace replay.
            prop_assert_eq!(closed_trace.run_summary(), closed, "{:?}", chaining);

            // Path 3 — 1-worker fleet over a single spec.
            let specs = [StreamSpec::new((), 0u64, cycles)];
            let fleet = FleetRunner::new(1).run(&specs, |spec, scratch| {
                let mut sink = RecordBuffer::new(&mut scratch.records);
                Engine::new(sys, NumericManager::new(sys, &policy), OVERHEAD).run_cycles(
                    spec.cycles,
                    period,
                    chaining,
                    &mut cycle_fraction_exec(sys, &arb.fractions),
                    &mut sink,
                )
            });
            prop_assert_eq!(*fleet.stream(0), closed, "{:?}", chaining);

            // Path 4 — Periodic + Block streaming, traces compared record
            // by record.
            let mut stream_trace = Trace::default();
            let out = StreamingRunner::new(StreamConfig {
                chaining,
                capacity: 3,
                policy: OverloadPolicy::Block,
            })
            .run(
                &mut Engine::new(sys, NumericManager::new(sys, &policy), OVERHEAD),
                &mut Periodic::new(period, cycles),
                &mut cycle_fraction_exec(sys, &arb.fractions),
                &mut stream_trace,
            );
            prop_assert_eq!(out.run, closed, "{:?}", chaining);
            prop_assert_eq!(closed_trace.cycles.len(), stream_trace.cycles.len());
            for (a, b) in closed_trace.cycles.iter().zip(&stream_trace.cycles) {
                prop_assert_eq!(a.cycle, b.cycle);
                prop_assert_eq!(a.start, b.start);
                prop_assert_eq!(&a.records, &b.records);
            }
            prop_assert_eq!(out.stats.processed, cycles);
            prop_assert_eq!(out.stats.dropped, 0);
        }
    }

    /// The elastic scheduler over *arbitrary* feasible systems: for any
    /// worker count the full summary equals the 1-worker run byte for
    /// byte, and the 1-worker run reproduces the per-stream streaming
    /// fold under unbounded admission, `max_backlog` included.
    #[test]
    fn elastic_agrees_on_arbitrary_systems(
        arb in arb_system(),
        cycles in 1usize..5,
        workers in 1usize..=8,
    ) {
        let sys = &arb.system;
        let policy = MixedPolicy::new(sys);
        let period = sys.final_deadline();
        for chaining in [CycleChaining::WorkConserving, CycleChaining::ArrivalClamped] {
            let streams = || -> Vec<_> {
                (0..4)
                    .map(|_| {
                        (
                            Periodic::new(period, cycles),
                            EngineDriver::new(
                                Engine::new(sys, NumericManager::new(sys, &policy), OVERHEAD),
                                cycle_fraction_exec(sys, &arb.fractions),
                                NullSink,
                            ),
                        )
                    })
                    .collect()
            };
            let config = ElasticConfig::live()
                .with_chaining(chaining)
                .with_ring_capacity(3);
            let (one, _) = ElasticRunner::new(1, config).run(streams());
            let (many, _) = ElasticRunner::new(workers, config).run(streams());
            prop_assert_eq!(&many, &one, "workers = {} {:?}", workers, chaining);

            let serial: Vec<StreamSummary> = (0..4)
                .map(|_| {
                    StreamingRunner::new(StreamConfig {
                        chaining,
                        capacity: 3,
                        policy: OverloadPolicy::Block,
                    })
                    .run(
                        &mut Engine::new(sys, NumericManager::new(sys, &policy), OVERHEAD),
                        &mut Periodic::new(period, cycles),
                        &mut cycle_fraction_exec(sys, &arb.fractions),
                        &mut NullSink,
                    )
                })
                .collect();
            prop_assert_eq!(one.per_stream(), &serial[..], "{:?}", chaining);
        }
    }
}
