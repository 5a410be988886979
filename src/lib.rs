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
//!   multi-task, fleet worker, bench harness) routes through, streaming
//!   records into pluggable sinks (full traces, caller-provided buffers,
//!   or in-place summaries).
//! * [`fleet`] (also `core::fleet`) — sharded multi-stream execution:
//!   many independent engine streams distributed over scoped OS threads,
//!   merged deterministically into per-stream and aggregate summaries.
//! * [`elastic`] (also `core::elastic`) — per-cycle elastic scheduling of
//!   very many *live* streams onto few workers: arrival and start event
//!   heaps, a fixed-capacity ready ring whose entries the workers run
//!   while it is still being filled, and fleet-wide admission control via
//!   a shared shed ledger. Byte-identical results for every worker count.
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
//!   and casts, parsing nothing. Fleet artifacts dedupe identical rows
//!   across configs ([`core::arena::RowStore`]); `platform::compile`'s
//!   [`platform::compile::compile_many`] compiles whole config fleets
//!   into one such artifact over scoped threads.
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
//! (workloads → managers → engine → fleet → bench).
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
//! `fleet` layer scales *out* on the same seam: one engine per stream,
//! one worker thread per shard, zero shared mutable state.
//!
//! The experiment harness and figure/table binaries live in the
//! (unre-exported) `sqm-bench` crate; `cargo run -p sqm-bench --release
//! --bin bench_baseline` emits the workspace's performance baseline,
//! `… --bin bench_fleet` the multi-stream scaling point,
//! `… --bin bench_stream` the live-traffic backlog/latency point,
//! `… --bin bench_elastic` the elastic-scheduler stress point (10⁵ live
//! streams, streams/sec and ns/action versus worker count) and
//! `… --bin bench_faults` the robustness point (differential-fuzzing
//! oracle throughput and online-recalibration latency; `… --bin
//! fuzz_smoke` is the CI sweep of the same campaign) and
//! `… --bin bench_coldstart` the artifact-layer point (serialized bytes →
//! first decision, text parse vs binary cast, single config vs
//! 1000-config deduplicated fleet) next to them.
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
//! ## Sharding streams
//!
//! ```
//! use speed_qm::core::controller::{ConstantExec, OverheadModel};
//! use speed_qm::core::engine::{CycleChaining, Engine, NullSink};
//! use speed_qm::core::manager::NumericManager;
//! use speed_qm::core::policy::MixedPolicy;
//! use speed_qm::core::system::SystemBuilder;
//! use speed_qm::core::time::Time;
//! use speed_qm::fleet::{FleetRunner, StreamSpec};
//!
//! let system = SystemBuilder::new(2)
//!     .action("decode", &[100, 200], &[60, 120])
//!     .action("render", &[100, 200], &[60, 120])
//!     .deadline_last(Time::from_ns(500))
//!     .build()
//!     .unwrap();
//! let policy = MixedPolicy::new(&system);
//!
//! let specs: Vec<StreamSpec<()>> = (0..8)
//!     .map(|seed| StreamSpec::new((), seed, 4))
//!     .collect();
//! let fleet = FleetRunner::new(4).run(&specs, |spec, _scratch| {
//!     Engine::new(&system, NumericManager::new(&system, &policy), OverheadModel::ZERO)
//!         .run_cycles(
//!             spec.cycles,
//!             Time::from_ns(500),
//!             CycleChaining::WorkConserving,
//!             &mut ConstantExec::average(system.table()),
//!             &mut NullSink,
//!         )
//! });
//! assert_eq!(fleet.aggregate().cycles, 32);
//! assert!(fleet.miss_free());
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
pub use sqm_core::fleet;
pub use sqm_core::source;
pub use sqm_core::stream;
pub use sqm_infer as infer;
pub use sqm_mpeg as mpeg;
pub use sqm_net as net;
pub use sqm_platform as platform;
pub use sqm_power as power;
