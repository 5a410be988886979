//! # sqm-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§4) and
//! the ablations listed in `DESIGN.md`. Each figure/table has a dedicated
//! binary (`cargo run -p sqm-bench --release --bin fig7_average_quality`).
//! Host-side costs per layer are measured by the repository benchmark
//! under `benchmark/`, which builds on this crate's workloads.
//!
//! Module map:
//!
//! * [`harness`] — the single-stream paper experiment: encoder + compiled
//!   tables + the three §4.1 managers, all routed through the shared
//!   `sqm_core::engine`.
//! * [`streaming`] — the named arrival-pattern scenarios
//!   ([`StreamScenario`]) every workload's event-driven runs are reported
//!   under, and the MPEG menu its unit tests run.
//! * [`workload`] — the uniform workload seam: the [`Workload`] trait
//!   every application domain (MPEG, audio, net, inference, the elastic
//!   micro system) registers through — its provided methods run the
//!   closed loop, streaming, a named scenario and build elastic
//!   populations — plus the audio registration and the shared
//!   [`JITTER`].
//! * [`net`] — the packet-pipeline workload: bursty line-rate traffic
//!   under tail drop (`cargo run -p sqm-bench --release --bin bench_net`
//!   emits `BENCH_net.json`, the trajectory's packet-pipeline point).
//! * [`infer`] — the inference-serving workload: continuous-batching
//!   coupled execution under p99/p999 SLO deadline classes.
//! * [`elastic`] — the multi-stream workload: micro live streams
//!   interleaved per-cycle through `sqm_core::elastic`, the workspace's one
//!   multi-stream runner, and the elastic identity every caller checks
//!   through [`elastic::check_identity`].
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
//! * [`report`] — ASCII tables/plots for the figure binaries, and the
//!   median-of-5 host-time statistic of the bench binaries.
//! * [`architecture`] — the workspace's `ARCHITECTURE.md`, compiled in
//!   here because this crate depends on every crate it names: its type
//!   names are intra-doc links, so `cargo doc` with `-D warnings` fails
//!   when one of them is renamed or deleted.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod architecture;
pub mod control;
pub mod elastic;
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
pub use fuzz::{
    format_repro, minimize, run_campaign, run_case, CampaignReport, FaultKind, FuzzCase, Scenario,
    SourceKind, SystemSpec, Violation,
};
pub use harness::{run_paper_experiment, ExperimentResult, ManagerKind, PaperExperiment};
pub use infer::InferExperiment;
pub use net::NetExperiment;
pub use streaming::StreamScenario;
pub use workload::{AudioExperiment, Workload, JITTER};
