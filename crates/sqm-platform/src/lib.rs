//! # sqm-platform — virtual execution platform
//!
//! The paper evaluates on a bare Apple iPod 5G with the BIP/Think runtime,
//! chosen because it exposes "a reliable real-time clock needed by the
//! Quality Manager" — and it explicitly warns that the absolute numbers are
//! "indicative and useful only for estimating relative values". This crate
//! replaces that hardware with a deterministic, seedable virtual platform:
//!
//! * [`clock`] — a virtual nanosecond clock and a real-time-clock model
//!   with read cost and quantization;
//! * [`load`] — data-dependent load traces (the content-driven execution
//!   time variation the paper's Definition 1 leaves "unknown");
//! * [`exec`] — stochastic execution-time sources honouring the
//!   `C(a, q) ≤ Cwc(a, q)` contract, plus fault-injection variants that
//!   deliberately break it;
//! * [`profiler`] — estimates `Cav`/`Cwc` tables from sampled runs, the
//!   "timing analysis and profiling techniques" of the paper's §1;
//! * [`overhead`] — calibrated [`sqm_core::controller::OverheadModel`]s for
//!   the three Quality Manager implementations;
//! * [`faults`] — platform imperfections (preemption, drift, quantized
//!   clock observations) for robustness testing;
//! * [`recalib`] — online recalibration: live re-estimation of the
//!   `Cav`/`Cwc` model from observed execution times, recompiled and
//!   published mid-run through [`sqm_core::recalib::TableCell`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod exec;
pub mod faults;
pub mod load;
pub mod overhead;
pub mod profiler;
pub mod recalib;

pub use clock::{RtClock, VirtualClock};
pub use exec::{StochasticExec, ViolatingExec};
pub use faults::{ClockRounding, ClockedManager, DriftExec, PreemptionExec};
pub use load::{ConstantLoad, LoadModel, RandomWalkLoad};
pub use profiler::{ProfileConfig, Profiler};
pub use recalib::{OnlineEstimator, RecalibratingExec, RecalibrationConfig};
