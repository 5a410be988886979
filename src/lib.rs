//! # speed-qm — Symbolic Quality Management with Speed Diagrams
//!
//! A full Rust reproduction of *"Using Speed Diagrams for Symbolic Quality
//! Management"* (Combaz, Fernandez, Sifakis, Strus — IPPS 2007).
//!
//! This facade crate re-exports the workspace:
//!
//! * [`core`] — the paper's contribution: parameterized systems, the mixed
//!   quality-management policy, speed diagrams, quality regions, control
//!   relaxation regions, and the numeric / lookup / relaxed quality
//!   managers — all executed by one shared engine (`core::engine`): a
//!   monomorphized, allocation-free decide → charge-overhead → execute →
//!   check-deadline loop that every runner (single-task, cyclic,
//!   multi-task, elastic worker, bench harness) routes through, streaming
//!   records into pluggable sinks (full traces, caller-provided buffers,
//!   or in-place summaries).
//! * [`elastic`] (also `core::elastic`) — the one multi-stream runner:
//!   per-cycle scheduling of very many *live* streams onto few workers, a
//!   monotone arrival queue and a start-event heap, a fixed-capacity ready
//!   ring whose entries the workers run while it is still being filled,
//!   and fleet-wide admission control via a shared shed ledger.
//!   Byte-identical results for every worker count; a fleet of closed
//!   loops is the case of periodic sources under unbounded admission.
//! * [`source`] + [`stream`] (also `core::source` / `core::stream`) — the
//!   event-driven front-end: arrival sources (periodic, jittered, bursty,
//!   recorded-trace replay) feeding the engine through a bounded backlog
//!   queue with overload policies and backlog/latency aggregates. A
//!   periodic source under the `Block` policy is byte-identical to the
//!   closed loop.
//! * `core::arena` + `core::artifact` — the artifact layer: every
//!   compiled table is a view over one shared cell arena, and the binary
//!   artifact freezes that arena behind a versioned, checksummed header
//!   whose on-disk layout *is* the in-memory layout — loading validates
//!   and casts, parsing nothing.
//! * [`platform`] — a virtual execution platform (virtual clock, stochastic
//!   execution-time models bounded by `Cwc`, profiler, calibrated QM
//!   overhead models), plus what goes wrong on real hardware:
//!   `platform::faults` injects preemption delays, systematic speed drift
//!   and quantized-clock observation, and `platform::recalib` answers the
//!   drift with online re-estimation — a [`platform::RecalibratingExec`]
//!   feeds observed times into an [`platform::OnlineEstimator`] and
//!   atomically republishes the recompiled region table through
//!   [`core::recalib::TableCell`], picked up by an
//!   [`core::recalib::AdaptiveLookupManager`] (the lookup manager's
//!   hint-resuming search over a swappable table) at the next cycle
//!   boundary.
//! * [`mpeg`] — the MPEG-like encoder workload of the paper's evaluation
//!   (1,189 actions per frame, 7 quality levels).
//! * [`power`] — the DVFS extension sketched in the paper's conclusion
//!   (quality level ↦ CPU frequency, energy minimization without misses).
//! * [`audio`] — a second application domain: an adaptive transform audio
//!   codec (FFT, subbands, psychoacoustic bit allocation).
//! * [`net`] — a third domain and the streaming front-end's stress case: a
//!   network packet pipeline (parse → DPI → crypto → compress) whose
//!   quality level decomposes into DPI depth × cipher strength ×
//!   compression effort, against deadlines derived from line-rate
//!   budgets.
//! * [`infer`] — a fourth domain, and the first with **batch-coupled**
//!   execution times: an inference-serving engine (prefill → decode under
//!   continuous batching) whose quality level decomposes into model
//!   variant × quantization × admission depth, against p99/p999 SLO
//!   ladders mapped onto per-action deadline classes. One request's
//!   admission depth changes every co-batched neighbour's decode cost
//!   (`infer::BatchCoupledExec`).
//!
//! See `ARCHITECTURE.md` at the repository root for how the layers stack
//! (workloads → managers → engine → streaming/elastic → bench).
//!
//! ## The engine seam
//!
//! Everything that executes goes through one triad of traits:
//!
//! * a **[`core::manager::QualityManager`]** decides the quality of the
//!   next action(s) — numeric (recompute the policy), lookup (probe the
//!   compiled region table), or relaxed (skip decisions inside a
//!   relaxation interval);
//! * an **[`core::controller::ExecutionTimeSource`]** supplies each
//!   action's actual execution time — constant, stochastic, or
//!   content-driven by a workload crate;
//! * a **[`core::engine::TraceSink`]** receives what happened — a full
//!   trace, a reusable caller-owned buffer, in-place summaries, or
//!   nothing.
//!
//! [`core::engine::Engine`] is generic over all three, so each
//! combination monomorphizes to its own straight-line hot loop. The
//! `elastic` layer scales *out* on the same seam: one engine per stream,
//! its cycles run by whichever worker claims them.
//!
//! The experiment harness and figure/table binaries live in the
//! (unre-exported) `sqm-bench` crate; `cargo run -p sqm-bench --release
//! --bin bench_faults` emits the robustness point (differential-fuzzing
//! oracle throughput and online-recalibration latency; `… --bin
//! fuzz_smoke` is the CI sweep of the same campaign) and `… --bin
//! bench_coldstart` the artifact-layer point (system or artifact bytes →
//! first decision, compile vs binary load, per workload). Host time per
//! layer — manager, engine, streaming front-end, elastic scheduler — is
//! measured by the repository benchmark under `benchmark/`.
//!
//! ## Quickstart
//!
//! ```
//! use speed_qm::core::prelude::*;
//!
//! // Three actions, two quality levels; worst-case and average times in ns.
//! let system = SystemBuilder::new(2)
//!     .action("decode", &[100, 200], &[60, 120])
//!     .action("transform", &[150, 300], &[90, 180])
//!     .action("render", &[100, 200], &[60, 120])
//!     .deadline_last(Time::from_ns(700))
//!     .build()
//!     .unwrap();
//!
//! let policy = MixedPolicy::new(&system);
//! let mut qm = NumericManager::new(&system, &policy);
//! let d = qm.decide(0, Time::ZERO);
//! assert!(d.quality.index() <= 1);
//! ```
//!
//! ## Many streams
//!
//! ```
//! use speed_qm::core::controller::{ConstantExec, OverheadModel};
//! use speed_qm::core::engine::{CycleChaining, Engine, NullSink};
//! use speed_qm::core::manager::NumericManager;
//! use speed_qm::core::policy::MixedPolicy;
//! use speed_qm::core::system::SystemBuilder;
//! use speed_qm::core::time::Time;
//! use speed_qm::elastic::{ElasticConfig, ElasticRunner, EngineDriver};
//! use speed_qm::source::Periodic;
//!
//! let system = SystemBuilder::new(2)
//!     .action("decode", &[100, 200], &[60, 120])
//!     .action("render", &[100, 200], &[60, 120])
//!     .deadline_last(Time::from_ns(500))
//!     .build()
//!     .unwrap();
//! let policy = MixedPolicy::new(&system);
//!
//! // Eight closed loops: periodic sources under the default unbounded
//! // admission, cycles chained work-conserving.
//! let streams: Vec<_> = (0..8)
//!     .map(|_| {
//!         (
//!             Periodic::new(Time::from_ns(500), 4),
//!             EngineDriver::new(
//!                 Engine::new(&system, NumericManager::new(&system, &policy), OverheadModel::ZERO),
//!                 ConstantExec::average(system.table()),
//!                 NullSink,
//!             ),
//!         )
//!     })
//!     .collect();
//! let config = ElasticConfig::live().with_chaining(CycleChaining::WorkConserving);
//! let (fleet, _drivers) = ElasticRunner::new(4, config).run(streams);
//! assert_eq!(fleet.run().cycles, 32);
//! assert_eq!(fleet.run().misses, 0);
//! ```
//!
//! ## Live streaming
//!
//! ```
//! use speed_qm::core::controller::{ConstantExec, OverheadModel};
//! use speed_qm::core::engine::{Engine, NullSink};
//! use speed_qm::core::manager::NumericManager;
//! use speed_qm::core::policy::MixedPolicy;
//! use speed_qm::core::system::SystemBuilder;
//! use speed_qm::core::time::Time;
//! use speed_qm::source::Bursty;
//! use speed_qm::stream::{OverloadPolicy, StreamConfig, StreamingRunner};
//!
//! let system = SystemBuilder::new(2)
//!     .action("decode", &[100, 200], &[60, 120])
//!     .action("render", &[100, 200], &[60, 120])
//!     .deadline_last(Time::from_ns(500))
//!     .build()
//!     .unwrap();
//! let policy = MixedPolicy::new(&system);
//! let mut engine = Engine::new(&system, NumericManager::new(&system, &policy), OverheadModel::ZERO);
//!
//! // Bursty live traffic, a 2-frame backlog, skip-to-latest shedding.
//! let out = StreamingRunner::new(StreamConfig::live(2, OverloadPolicy::SkipToLatest)).run(
//!     &mut engine,
//!     &mut Bursty::new(Time::from_ns(500), 4, 32, 7),
//!     &mut ConstantExec::average(system.table()),
//!     &mut NullSink,
//! );
//! assert_eq!(out.stats.processed + out.stats.dropped, 32);
//! assert!(out.stats.max_backlog <= 2, "waiting frames bounded by capacity");
//! assert_eq!(out.run.cycles, out.stats.processed);
//! ```
#![forbid(unsafe_code)]

pub use sqm_audio as audio;
pub use sqm_core as core;
pub use sqm_core::elastic;
pub use sqm_core::source;
pub use sqm_core::stream;
pub use sqm_infer as infer;
pub use sqm_mpeg as mpeg;
pub use sqm_net as net;
pub use sqm_platform as platform;
pub use sqm_power as power;
