//! Cross-path conformance suite — the single source of truth for the
//! workspace's execution-path identities.
//!
//! Three reductions of the same run exist: the **serial** closed loop
//! (`Engine::run_cycles`), the **trace-replay** reconstruction
//! (`Trace::run_summary`) and **Periodic + Block streaming**
//! (`StreamingRunner`). They must agree **byte for byte** — one
//! `RunSummary` semantics, no matter which path computed it — for *every*
//! registered workload (MPEG, audio, net, inference, micro, DVFS) under *both* [`CycleChaining`]
//! variants, and over arbitrary feasible systems. This file replaces the
//! per-path identity tests that used to be scattered across
//! `tests/streaming.rs`, the multi-stream harnesses and the bench
//! binaries' inline gates; per the II-CC-FF idea of combining evidence
//! across diverse sources, every workload added to the workspace doubles
//! as an independent witness that the reductions agree.
//!
//! The serial path's decisions must also re-derive one by one from the
//! top-down reference scans, which pins the managers' hint-resuming
//! search on every workload. The elastic scheduler — the workspace's one
//! multi-stream runner — joins the identity as path 4: a fleet of closed
//! loops is an elastic fleet of `Periodic` sources under
//! `Admission::Unbounded`. The approachability control layer is path 5: a
//! [`ControlledManager`] over the trivial safe set (`ℝ⁴` — the
//! controller can never find the average outside) must be byte-identical
//! to the plain baseline on every one of those paths, which pins the
//! design claim that steering happens *only* at cycle boundaries and an
//! inactive controller is free. The merge invariants every multi-stream
//! aggregate rests on close the file.

mod common;

use common::{arb_system, cycle_fraction_exec, OVERHEAD};
use proptest::prelude::*;
use speed_qm::core::prelude::*;
use speed_qm::mpeg::EncoderConfig;
use sqm_bench::elastic::check_identity;
use sqm_bench::fuzz::{rederive_decisions, unclocked};
use sqm_bench::{
    AudioExperiment, ElasticExperiment, InferExperiment, ManagerKind, NetExperiment,
    PaperExperiment, PowerExperiment, Workload, JITTER,
};

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

/// The parameterized core of the suite: every execution path produces
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

        // Path 3 — Periodic + Block streaming: the closed loop is a
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

        // Every serial decision re-derives from the top-down reference
        // scan: the hint-resuming lookup the manager runs is exact.
        rederive(&trace, w.regions(), None);

        // Path 4 — the elastic scheduler: per-cycle interleaving of many
        // live streams must satisfy the elastic identity — elastic(W) ≡
        // elastic(1) for every worker count, and elastic(1) ≡ the serial
        // per-stream fold under unbounded admission, `max_backlog`
        // included. The sources are built from `ArrivalSpec::Periodic`,
        // path 3's from `Periodic::new`, so stream 0 (seeded like path 3)
        // pins that the recipe collapses to the source it names.
        let elastic_config = ElasticConfig::live()
            .with_chaining(chaining)
            .with_ring_capacity(2);
        let (elastic_one, _) = check_identity(elastic_config, 2..=3, || {
            w.population(
                || LookupManager::new(w.regions()),
                (0..3u64).map(|i| {
                    let source = ArrivalSpec::Periodic.build(w.period(), CYCLES, SEED + i);
                    (source.expect("periodic is event-sourced"), SEED + i)
                }),
            )
        })
        .unwrap_or_else(|e| panic!("{label} {chaining:?}: {e}"));
        assert_eq!(
            elastic_one.stream(0),
            &streamed,
            "{label} {chaining:?}: elastic stream != streaming"
        );

        // Path 5 — the approachability control layer with the trivial
        // safe set (ℝ⁴): the averaged payoff is always inside, so the
        // controller never steers off rung 0 and the `ControlledManager`
        // must be byte-identical to the plain baseline on every path —
        // serial (records included), streaming and elastic. This
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
        let (ctl_elastic, _) = check_identity(elastic_config, [2], || {
            w.population(
                trivial,
                (0..3u64).map(|i| (Periodic::new(w.period(), CYCLES), SEED + i)),
            )
        })
        .unwrap_or_else(|e| panic!("{label} {chaining:?}: controlled(trivial): {e}"));
        assert_eq!(
            ctl_elastic.per_stream(),
            elastic_one.per_stream(),
            "{label} {chaining:?}: controlled(trivial) elastic != elastic"
        );

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

/// The elastic bench's micro system (four actions, three qualities, a
/// 130 ns cycle) — the system the benchmark's live fleet runs.
#[test]
fn micro_workload_conforms_across_all_paths() {
    assert_conformance(&ElasticExperiment::micro(3, 4));
}

/// The inference workload's execution source is *stateful* (the shared
/// batch account in [`sqm_infer::BatchCoupledExec`]): conformance here
/// proves the continuous-batching state replays byte-identically on
/// every path, not just that the arithmetic agrees.
#[test]
fn infer_workload_conforms_across_all_paths() {
    assert_conformance(&InferExperiment::tiny(3));
}

/// The DVFS extension: a quality level is a frequency step, and the
/// execution source converts sampled cycle demands to time at the chosen
/// step's frequency.
#[test]
fn power_workload_conforms_across_all_paths() {
    assert_conformance(&PowerExperiment::tiny());
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

    /// The same three-path identity over *arbitrary* feasible systems under
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

            // Path 3 — Periodic + Block streaming, traces compared record
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

    /// The elastic scheduler over *arbitrary* feasible systems, stream
    /// counts and arrival patterns: for any worker count the full summary
    /// equals the 1-worker run byte for byte, and the 1-worker run
    /// reproduces the per-stream streaming fold under unbounded
    /// admission, `max_backlog` included.
    #[test]
    fn elastic_agrees_on_arbitrary_systems(
        arb in arb_system(),
        cycles in 1usize..5,
        workers in 1usize..=8,
        arrivals in proptest::collection::vec(arb_arrival(), 1usize..10),
    ) {
        let sys = &arb.system;
        let policy = MixedPolicy::new(sys);
        let period = sys.final_deadline();
        let source = |i: usize| {
            arrivals[i]
                .build(period, cycles, 7 + i as u64)
                .expect("every generated pattern is event-sourced")
        };
        for chaining in [CycleChaining::WorkConserving, CycleChaining::ArrivalClamped] {
            let streams = || -> Vec<_> {
                (0..arrivals.len())
                    .map(|i| {
                        (
                            source(i),
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
            check_identity(config, [workers], streams)
                .map_err(|e| TestCaseError::fail(format!("{chaining:?}: {e}")))?;
        }
    }

    /// A recorded stream feeds the same merge path as a summary-only
    /// stream: reconstructing the RunSummary from a materialized trace
    /// equals the engine's in-place aggregates.
    #[test]
    fn trace_run_summary_equals_engine_summary(arb in arb_system()) {
        let sys = &arb.system;
        let policy = MixedPolicy::new(sys);
        let manager = NumericManager::new(sys, &policy);
        let mut trace = speed_qm::core::trace::Trace::default();
        let n = arb.fractions.len();
        let summary = Engine::new(sys, manager, OverheadModel::new(Time::from_ns(2), Time::from_ns(1)))
            .run_cycles(
                3,
                sys.final_deadline(),
                CycleChaining::WorkConserving,
                &mut FnExec(|cycle: usize, action: usize, q: Quality| {
                    let wc = sys.table().wc(action, q).as_ns() as f64;
                    Time::from_ns((wc * arb.fractions[(action + cycle) % n]).floor() as i64)
                }),
                &mut trace,
            );
        prop_assert_eq!(summary, trace.run_summary());
    }
}

/// Any event-sourced arrival pattern: periodic, jittered up to half a
/// period, or bursty with bursts of up to five frames.
fn arb_arrival() -> impl Strategy<Value = ArrivalSpec> {
    (0u8..3, 0u8..=50, 1u8..6).prop_map(|(kind, jitter_pct, max_burst)| match kind {
        0 => ArrivalSpec::Periodic,
        1 => ArrivalSpec::Jittered { jitter_pct },
        _ => ArrivalSpec::Bursty { max_burst },
    })
}

/// Regression for the `last_end` aggregation drift: under work-conserving
/// earliness every cycle after the first finishes at an ever-earlier
/// (negative) relative time, so a "take the final cycle" reduction drags
/// `last_end` backwards. All three reduction paths — the engine's serial
/// absorb, the trace-replay reconstruction, and the elastic runner's
/// merge of per-stream summaries — must take the max and agree
/// byte-for-byte.
#[test]
fn last_end_agrees_across_serial_trace_replay_and_elastic_merge() {
    // Two actions averaging 10 ns against a 100 ns period: cycle ends run
    // 10, -80, -170, … — the final cycle's end is negative and minimal.
    let sys = SystemBuilder::new(1)
        .action("a", &[10], &[5])
        .action("b", &[10], &[5])
        .deadline_last(Time::from_ns(100))
        .build()
        .unwrap();
    let policy = MixedPolicy::new(&sys);
    let engine = || {
        Engine::new(
            &sys,
            NumericManager::new(&sys, &policy),
            OverheadModel::ZERO,
        )
    };

    // Serial path: the engine's in-place absorb.
    let mut trace = Trace::default();
    let serial = engine().run_cycles(
        3,
        Time::from_ns(100),
        CycleChaining::WorkConserving,
        &mut ConstantExec::average(sys.table()),
        &mut trace,
    );
    assert_eq!(serial.last_end, Time::from_ns(10), "max, not the final end");
    assert_eq!(
        trace.cycles.last().unwrap().summary().end,
        Time::from_ns(-170),
        "the final cycle really finishes early"
    );

    // Trace-replay path: reconstructing from the materialized records.
    assert_eq!(trace.run_summary(), serial);

    // Elastic-merge path: per-stream summaries folded by RunSummary::merge.
    // Stream 0 runs the serial stream; stream i runs each action in 5 − i
    // ns, so the last stream submitted ends earliest (at 4 ns) and a merge
    // that kept the last stream's end instead of the max would show it.
    let streams = || -> Vec<_> {
        (0..4i64)
            .map(|i| {
                (
                    Periodic::new(Time::from_ns(100), 3),
                    EngineDriver::new(
                        engine(),
                        FnExec(move |_: usize, _: usize, _: Quality| Time::from_ns(5 - i)),
                        NullSink,
                    ),
                )
            })
            .collect()
    };
    // The same merge at 2–4 workers: the elastic identity.
    let config = ElasticConfig::live().with_chaining(CycleChaining::WorkConserving);
    let (fleet, _) = check_identity(config, 2..=4, streams).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(fleet.stream(0).run, serial);
    assert_eq!(fleet.stream(3).run.last_end, Time::from_ns(4));
    assert_eq!(fleet.run().last_end, Time::from_ns(10));
}
