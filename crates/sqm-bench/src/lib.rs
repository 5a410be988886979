//! # sqm-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§4) and
//! the ablations listed in `DESIGN.md`. Each figure/table has a dedicated
//! binary (`cargo run -p sqm-bench --release --bin fig7_average_quality`);
//! the Criterion benches (`cargo bench -p sqm-bench`) measure host-side
//! costs of the Quality Manager implementations, the offline compiler, the
//! policies and the encoder kernels.
//!
//! Module map:
//!
//! * [`harness`] — the single-stream paper experiment: encoder + compiled
//!   tables + the three §4.1 managers, all routed through the shared
//!   `sqm_core::engine`.
//! * [`fleet`] — the multi-stream workload: many independent MPEG/audio
//!   streams sharded over `sqm_core::fleet` workers against one set of
//!   compiled tables (`cargo run -p sqm-bench --release --bin
//!   bench_fleet` emits `BENCH_fleet.json`, the perf trajectory's
//!   multi-stream point next to `BENCH_baseline.json`).
//! * [`streaming`] — the event-driven workload: the encoder fed from
//!   `sqm_core::source` arrival patterns through the bounded-backlog
//!   `sqm_core::stream` front-end (`cargo run -p sqm-bench --release
//!   --bin bench_stream` emits `BENCH_stream.json`, the trajectory's
//!   third point: backlog/latency under live traffic).
//! * [`workload`] — the uniform workload seam: the [`Workload`] trait
//!   every application domain (MPEG, audio, net) registers through, plus
//!   the audio registration.
//! * [`net`] — the packet-pipeline workload: bursty line-rate traffic
//!   under tail drop (`cargo run -p sqm-bench --release --bin bench_net`
//!   emits `BENCH_net.json`, the trajectory's fourth point).
//! * [`infer`] — the inference-serving workload: continuous-batching
//!   coupled execution under p99/p999 SLO deadline classes (`cargo run -p
//!   sqm-bench --release --bin bench_infer` emits `BENCH_infer.json`, the
//!   trajectory's serving point: decisions/sec, worst SLO slack, and shed
//!   rate at 1k/10k/100k concurrent request streams).
//! * [`elastic`] — the elastic-scheduler stress: 10⁵ micro live streams
//!   interleaved per-cycle through `sqm_core::elastic` (`cargo run -p
//!   sqm-bench --release --bin bench_elastic` emits `BENCH_elastic.json`,
//!   the trajectory's many-streams point: streams/sec and ns/action
//!   versus worker count, gated on byte-identity with the serial path).
//! * [`fuzz`] — the differential fuzzing + fault-injection campaign:
//!   generated systems × fault/drift scenarios × every execution path,
//!   checked against the eight-part safety oracle (`cargo run -p
//!   sqm-bench --release --bin fuzz_smoke` is the CI smoke sweep;
//!   `bench_faults` emits `BENCH_faults.json`, the trajectory's
//!   robustness point: oracle throughput and recalibration latency).
//! * [`control`] — the drifting-load scenario matrix for the
//!   approachability control layer: shapes (ramp/step/walk/adversarial)
//!   × workloads, static-exits vs controller-returns, `C/√t` envelope
//!   checks (`cargo run -p sqm-bench --release --bin bench_control`
//!   emits `BENCH_control.json`, the trajectory's graceful-degradation
//!   point).
//! * [`report`] — ASCII tables/plots for the figure binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod control;
pub mod elastic;
pub mod fleet;
pub mod fuzz;
pub mod harness;
pub mod infer;
pub mod net;
pub mod report;
pub mod streaming;
pub mod workload;

pub use control::{
    run_control_matrix, run_control_scenario, ControlOutcome, ControlScenario, DriftShape,
    ShapedExec,
};
pub use elastic::ElasticExperiment;
pub use fleet::{FleetExperiment, FleetWorkload};
pub use fuzz::{
    format_repro, minimize, run_campaign, run_case, CampaignReport, FaultKind, FuzzCase, Scenario,
    SourceKind, SystemSpec, Violation,
};
pub use harness::{run_paper_experiment, ExperimentResult, ManagerKind, PaperExperiment};
pub use infer::{InferDriver, InferExperiment};
pub use net::NetExperiment;
pub use streaming::{StreamScenario, StreamingExperiment};
pub use workload::{AudioExperiment, Workload};
