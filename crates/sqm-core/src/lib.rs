//! # sqm-core — Quality Management with Speed Diagrams
//!
//! The core library of the `speed-qm` workspace: a faithful implementation
//! of *"Using Speed Diagrams for Symbolic Quality Management"* (Combaz,
//! Fernandez, Sifakis, Strus — IPPS 2007).
//!
//! The library is organized around the paper's pipeline (its Figure 1),
//! with one execution layer underneath everything:
//!
//! 1. **Model** — [`system::ParameterizedSystem`]: a scheduled sequence of
//!    atomic actions with quality-parameterized worst-case (`Cwc`) and
//!    average (`Cav`) execution times and a deadline function `D`.
//!    Supporting vocabulary: [`action`], [`quality`], [`time`], [`timing`],
//!    [`prefix`], [`error`].
//! 2. **Policies** — [`policy`]: the function `tD(s, q)`; the paper's
//!    *mixed* policy `CD = Cav + δmax` plus the safe and average baselines.
//! 3. **Speed diagrams** — [`speed`]: the (actual time × virtual time)
//!    geometry; ideal and optimal speeds; Proposition 1. Design-time
//!    helpers live in [`analysis`].
//! 4. **Symbolic compilation** — [`regions`], [`relaxation`], [`compiler`]:
//!    quality regions `Rq` (Proposition 2) and control relaxation regions
//!    `Rrq` (Proposition 3) pre-computed as integer tables. Both tables are
//!    views over a shared [`arena::TableArena`]; [`artifact`] — the one
//!    serialization — freezes an arena into a versioned, checksummed binary
//!    whose on-disk layout *is* the in-memory layout (load = validate +
//!    cast).
//! 5. **Quality Managers** — [`manager`]: the online controllers — numeric
//!    (re-computes `tD` per call), lookup (table-driven), and relaxed
//!    (skips control for `r` steps inside `Rrq`); [`smoothness`] scores
//!    their fluctuation, and `SmoothedManager` rate-limits it. The
//!    table-driven managers (lookup, relaxed and
//!    [`recalib::AdaptiveLookupManager`]) share one region lookup that
//!    resumes each probe from the previous decision — amortized O(1) host
//!    work per decision — while `Decision::work` is charged analytically,
//!    as the top-down reference scan `QualityRegionTable::choose` would.
//! 6. **Engine** — [`engine`]: the one closed loop `PS ‖ Γ`, the
//!    *monomorphized, allocation-free* hot loop (decide → charge overhead →
//!    execute → check deadline), generic over manager and execution-time
//!    source, streaming records into pluggable [`engine::TraceSink`]s (full
//!    [`trace`]s, caller-provided buffers, or in-place
//!    [`engine::RunSummary`] aggregation). Callers run one cycle with
//!    [`engine::Engine::run_cycle`] or many with
//!    [`engine::Engine::run_cycles`]; [`trace::CycleTrace::summary`] folds
//!    a recorded cycle into the same [`engine::CycleSummary`].
//! 7. **Controller** — [`controller`]: the loop's inputs besides the
//!    manager — the execution-time sources and the overhead model.
//! 8. **Streaming** — [`source`] + [`stream`]: the event-driven front-end.
//!    An [`source::ArrivalSource`] yields cycle arrival timestamps
//!    (periodic, jittered, bursty, recorded-trace replay, all
//!    deterministic per seed); a [`stream::StreamingRunner`] pulls them
//!    onto the engine with a bounded backlog queue, overload policies
//!    ([`stream::OverloadPolicy`]) and per-run backlog/latency aggregates
//!    ([`stream::StreamStats`]). The closed loop is the special case of a
//!    periodic source under the `Block` policy — byte-identical to
//!    [`engine::Engine::run_cycles`] for both [`engine::CycleChaining`]
//!    variants.
//! 9. **Elastic fleet** — [`elastic`]: the one multi-stream runner,
//!    per-cycle scheduling of very many *live* streams onto few workers. A
//!    serial deterministic event loop over a monotone arrival queue (a
//!    radix queue over arrival times) and a start-event heap
//!    ([`elastic::EventHeap`]) admits or sheds frames fleet-wide
//!    ([`elastic::Admission`], [`elastic::ShedLedger`]) and fills a
//!    fixed-capacity ready ring, publishing its entries in batches as it
//!    goes. The loop keeps only the per-stream state that admission and
//!    start times need; the other workers claim runs of published entries
//!    through one round-stamped cursor while the fill goes on — the
//!    filling thread joins them once the round is sealed — and compute
//!    everything else (engine aggregates, waits, latencies, backlog
//!    depths) on the stream's own slot. Results are byte-identical for
//!    every worker count, and per-stream identical to [`stream`]'s runner
//!    under unbounded admission. A fleet of closed loops is the special
//!    case of periodic sources under unbounded admission.
//!
//! The engine seam — how 6–9 fit together: a
//! [`manager::QualityManager`] makes the decisions, an
//! [`controller::ExecutionTimeSource`] supplies the actual times, and a
//! [`engine::TraceSink`] receives the records; [`engine::Engine`] is
//! generic over all three, so every pairing monomorphizes to its own
//! straight-line loop, and every runner in the workspace — including each
//! elastic worker — is a thin shell over that one loop.
//!
//! Extensions from the paper's conclusion and its deferred smoothness
//! requirement: [`multi`] (multiple statically interleaved tasks, run on
//! the engine, with the [`multi::TaskSplitter`] sink attributing results
//! per task) and `SmoothedManager` (rate-limited climbs over any
//! manager). Both sit under the fuzz campaign's oracle in `sqm-bench`, as
//! the core managers do; the DVFS extension (`sqm-power`) compiles to a
//! plain [`system::ParameterizedSystem`] and is a registered workload
//! there.
//! Beyond the paper: [`recalib`] — the online-recalibration seam
//! ([`recalib::TableCell`] + [`recalib::AdaptiveLookupManager`]) that lets
//! a freshly compiled region table be swapped in atomically at cycle
//! boundaries while any runner is live — and [`control`] — the
//! Blackwell-approachability meta-controller
//! ([`control::ApproachabilityController`] steering a
//! [`control::ControlledManager`] slate at the same cycle-boundary seam)
//! that keeps the time-averaged payoff (slack, quality, drops, overhead)
//! inside a convex [`control::SafeSet`] at the O(1/√t) rate under
//! non-stationary load.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod action;
pub mod analysis;
pub mod arena;
pub mod artifact;
pub mod compiler;
pub mod control;
pub mod controller;
pub mod elastic;
pub mod engine;
pub mod error;
pub mod manager;
mod manager_smooth;
pub mod multi;
pub mod policy;
pub mod prefix;
pub mod quality;
pub mod recalib;
pub mod regions;
pub mod relaxation;
pub mod smoothness;
pub mod source;
pub mod speed;
pub mod stream;
pub mod system;
pub mod time;
pub mod timing;
pub mod trace;

/// Convenient glob import for examples and tests.
pub mod prelude {
    pub use crate::action::{ActionId, ActionInfo, DeadlineMap};
    pub use crate::arena::TableArena;
    pub use crate::artifact::{Artifact, ArtifactError};
    pub use crate::compiler::{compile_regions, compile_relaxation, Compiled, TableStats};
    pub use crate::control::{
        standard_slate, ApproachabilityController, CappedManager, ControlSink, ControlledManager,
        HalfSpace, PayoffCell, PayoffSpec, PayoffVector, Rung, SafeSet, DIM_DROPS, DIM_OVERHEAD,
        DIM_QUALITY, DIM_SLACK, PAYOFF_DIMS,
    };
    pub use crate::controller::{ConstantExec, ExecutionTimeSource, FnExec, OverheadModel};
    pub use crate::elastic::{
        Admission, CycleDriver, ElasticConfig, ElasticRunner, ElasticSummary, EngineDriver,
        EventHeap, ShedLedger,
    };
    pub use crate::engine::{
        CycleChaining, CycleSummary, Engine, NullSink, RecordBuffer, RunSummary, Tee, TraceSink,
    };
    pub use crate::error::BuildError;
    pub use crate::manager::{
        Decision, LookupManager, NumericManager, QualityManager, RelaxedManager, SmoothedManager,
    };
    pub use crate::policy::{choose_quality, AveragePolicy, MixedPolicy, Policy, SafePolicy};
    pub use crate::quality::{Quality, QualitySet};
    pub use crate::recalib::{AdaptiveLookupManager, TableCell};
    pub use crate::regions::QualityRegionTable;
    pub use crate::relaxation::{RelaxationTable, StepSet};
    pub use crate::source::{
        ArrivalSource, ArrivalSpec, Bursty, FnSource, Jittered, PatternSource, Periodic,
        TraceReplay,
    };
    pub use crate::speed::SpeedDiagram;
    pub use crate::stream::{
        OverloadPolicy, StreamConfig, StreamCursor, StreamStats, StreamSummary, StreamingRunner,
    };
    pub use crate::system::{ParameterizedSystem, SystemBuilder};
    pub use crate::time::Time;
    pub use crate::timing::{TimeTable, TimeTableBuilder};
    pub use crate::trace::{ActionRecord, CycleTrace, Trace};
}
