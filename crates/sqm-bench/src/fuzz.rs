//! Differential fuzzing + fault-injection campaign.
//!
//! Hand-written proptests cover each execution path against a reference,
//! one pairing at a time; this module covers the *product space* —
//! arbitrary systems × fault/drift scenarios × every execution path
//! (serial, streaming, fleet, elastic) — against one eight-part
//! **safety oracle**: five numbered parts plus the inference, admission
//! and control axes below.
//!
//! 1. **Identity** — every decided record of the serial, streaming,
//!    fleet and elastic paths (and of a relaxed-manager run) re-derives
//!    from the top-down reference scans ([`rederive_decisions`]), so the
//!    managers' hint-resuming search is checked decision by decision; and
//!    the optimized paths are byte-identical to the serial reference:
//!    Periodic+Block streaming, every fleet worker count, every elastic
//!    worker count, and the elastic per-stream fold, all under the
//!    injected fault.
//! 2. **Safety** — with zero manager overhead, an unquantized clock and
//!    a period equal to the final deadline, a run whose execution times
//!    honour the compiled contract (`C ≤ Cwc`, checked live by a
//!    monitor) has **zero** deadline misses and **zero** infeasible
//!    decisions. This is the mixed policy's `CD ≥ C` induction made
//!    executable; a miss here is a compiler or manager bug, not bad
//!    luck. Contract-violating faults are exempt only once the monitor
//!    has actually witnessed a violation.
//! 3. **Accounting** — overload bookkeeping balances exactly:
//!    `arrived = processed + dropped` for the streaming runner under
//!    any source/policy, and `arrived = admitted + shed` (consistently
//!    mirrored in the merged stats) for the elastic scheduler under
//!    global admission pressure.
//! 4. **Monotonicity** — region tables are monotone in `t`, deadline
//!    relaxation (`shifted(+δ)`) never lowers a choice, and the
//!    relaxed manager inherits property 2 wholesale.
//! 5. **Artifact** — the binary table artifact round-trips losslessly
//!    (load(encode(T)) ≡ T, re-encode byte-identical, decisions equal
//!    through the zero-copy view), and seeded single-byte corruptions
//!    of the bytes are always rejected with a typed error — header
//!    damage by its specific check, payload damage by the checksum.
//!
//! Alongside the generated product space, every case also drives the
//! **inference axis**: the batch-coupled serving pipeline
//! (`sqm_infer::BatchCoupledExec`, whose execution source carries
//! *shared state* — the per-cycle batch account) through the identity
//! and monotonicity oracle parts. Streaming byte-identity there proves
//! the continuous-batching state machine replays exactly, and the
//! coupling law is probed directly: admitting co-batched requests at a
//! deeper rung must never shorten another request's decode.
//!
//! Two further axes ride on every case:
//!
//! * the **admission axis** — the elastic scheduler under adversarial
//!   all-at-once arrival traces with `global_capacity` swept over
//!   `{0, 1, exact-fit, huge}`: the [`ShedLedger`](sqm_core::elastic::ShedLedger)
//!   books must balance at every capacity, the aggregate backlog must
//!   respect the bound, capacities at or above the unbounded run's peak
//!   backlog must shed nothing and reproduce the unbounded results
//!   byte-for-byte, and a *prompt* stream (one that is always idle at
//!   its arrivals) must never be shed no matter how overloaded the rest
//!   of the fleet is;
//! * the **control axis** — the Blackwell approachability layer
//!   ([`sqm_core::control`]): with the trivial safe set (`ℝ⁴`) the
//!   [`ControlledManager`] is byte-identical to the baseline on the
//!   serial, streaming and elastic paths under the scenario's fault;
//!   with an active controller the averaged-payoff trajectory replays
//!   deterministically and obeys the averaging step bound
//!   `dist(t+1) ≤ dist(t) + diam/(t+1)`; and under a contract-honouring
//!   fault at zero overhead a reachable safe set is never left at all.
//!
//! A **case** is one system × scenario × path invocation; [`run_case`]
//! runs all paths for one generated pair and returns how many it
//! executed. [`run_campaign`] sweeps seeds and, on the first oracle
//! violation, greedily [`minimize`]s the failing case and renders a
//! self-contained repro with [`format_repro`] — paste the printed
//! `FuzzCase` literal (or replay its seed) to reproduce.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqm_core::action::ActionId;
use sqm_core::compiler::{compile_regions, compile_relaxation};
use sqm_core::control::{
    standard_slate, ApproachabilityController, ControlSink, ControlledManager, PayoffCell,
    PayoffSpec, SafeSet, PAYOFF_DIMS,
};
use sqm_core::controller::{ConstantExec, ExecutionTimeSource, OverheadModel};
use sqm_core::elastic::{Admission, ElasticConfig, ElasticRunner, EngineDriver};
use sqm_core::engine::{CycleChaining, Engine, NullSink};
use sqm_core::fleet::{FleetRunner, FleetSummary, StreamSpec};
use sqm_core::manager::{LookupManager, QualityManager, RelaxedManager};
use sqm_core::quality::Quality;
use sqm_core::regions::QualityRegionTable;
use sqm_core::relaxation::{RelaxationTable, StepSet};
use sqm_core::source::{ArrivalSource, Bursty, Jittered, Periodic, TraceReplay};
use sqm_core::stream::{OverloadPolicy, StreamConfig, StreamSummary, StreamingRunner};
use sqm_core::system::{ParameterizedSystem, SystemBuilder};
use sqm_core::time::Time;
use sqm_core::timing::TimeTable;
use sqm_core::trace::{ActionRecord, Trace};
use sqm_platform::clock::RtClock;
use sqm_platform::exec::{StochasticExec, ViolatingExec};
use sqm_platform::faults::{ClockRounding, ClockedManager, DriftExec, PreemptionExec};
use sqm_platform::load::{ConstantLoad, RandomWalkLoad};

/// Manager overhead charged on the identity paths (the same calibration
/// the conformance suite uses); the safety oracle runs at
/// [`OverheadModel::ZERO`] where the paper's guarantee is exact.
const OVERHEAD: OverheadModel = OverheadModel::new(Time::from_ns(2), Time::from_ns(1));

/// A generated parameterized system, kept in primitive form so failing
/// cases print as a paste-able literal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SystemSpec {
    /// Quality levels per action.
    pub n_quality: usize,
    /// Worst-case rows, `wc[action][quality]`, nanoseconds.
    pub wc: Vec<Vec<i64>>,
    /// Average rows, same shape; `av ≤ wc` pointwise.
    pub av: Vec<Vec<i64>>,
    /// Final deadline = `Σ wc[·][qmin]` + this slack.
    pub deadline_slack: i64,
}

impl SystemSpec {
    /// Draw a random feasible system: 1–10 actions, 1–4 quality levels,
    /// rows monotone in quality with `av ≤ wc`, final deadline always
    /// admitting the minimum quality.
    pub fn generate(rng: &mut StdRng) -> SystemSpec {
        let n_actions = rng.gen_range(1usize..=10);
        let n_quality = rng.gen_range(1usize..=4);
        let mut wc = Vec::with_capacity(n_actions);
        let mut av = Vec::with_capacity(n_actions);
        for _ in 0..n_actions {
            let mut wc_row = Vec::with_capacity(n_quality);
            let mut av_row = Vec::with_capacity(n_quality);
            let mut a = 0i64;
            let mut w = 0i64;
            for _ in 0..n_quality {
                a += rng.gen_range(1i64..=60);
                w = w.max(a + rng.gen_range(0i64..=60));
                av_row.push(a);
                wc_row.push(w);
            }
            wc.push(wc_row);
            av.push(av_row);
        }
        SystemSpec {
            n_quality,
            wc,
            av,
            deadline_slack: rng.gen_range(0i64..=500),
        }
    }

    /// Number of actions.
    pub fn n_actions(&self) -> usize {
        self.wc.len()
    }

    /// The final deadline this spec builds to.
    pub fn deadline(&self) -> Time {
        Time::from_ns(self.wc.iter().map(|row| row[0]).sum::<i64>() + self.deadline_slack)
    }

    /// Materialize the [`ParameterizedSystem`]. Generated and shrunk
    /// specs are valid by construction.
    pub fn build(&self) -> ParameterizedSystem {
        let mut b = SystemBuilder::new(self.n_quality);
        for (i, (wc, av)) in self.wc.iter().zip(&self.av).enumerate() {
            b = b.action(&format!("a{i}"), wc, av);
        }
        b.deadline_last(self.deadline())
            .build()
            .expect("generated spec is valid by construction")
    }
}

/// One execution-time fault axis, in integer permille so cases are `Eq`
/// and print exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Every action takes exactly its average time.
    Honest,
    /// Every action takes exactly its worst-case time.
    WorstCase,
    /// Seeded jitter around the average, clamped to `[0, Cwc]` —
    /// contract-honouring by construction.
    Stochastic {
        /// Relative jitter amplitude, permille (0–900).
        jitter_permille: i64,
        /// RNG seed.
        seed: u64,
    },
    /// A random-walk load factor under the same clamp — the "content-
    /// driven drift" axis, still contract-honouring.
    LoadDrift {
        /// RNG seed for the walk.
        seed: u64,
    },
    /// Uniform scaling of the average times; `> 1000` breaks the
    /// contract (the model is stale), `≤ 1000` honours it.
    Drift {
        /// Scale factor, permille.
        factor_permille: i64,
    },
    /// Random preemption delays added on top of the average times —
    /// breaks the contract whenever it fires.
    Preemption {
        /// Preemption probability per action, permille.
        p_permille: i64,
        /// Maximum injected delay, nanoseconds.
        max_delay_ns: i64,
        /// RNG seed.
        seed: u64,
    },
    /// Selected actions exceed `Cwc` outright.
    Violating {
        /// Bitmask over action ids (bit `a` ⇒ action `a` is a victim).
        victim_mask: u64,
        /// Overshoot factor, permille (> 1000).
        factor_permille: i64,
    },
}

impl FaultKind {
    /// Draw a random fault axis.
    pub fn generate(rng: &mut StdRng) -> FaultKind {
        match rng.gen_range(0u32..7) {
            0 => FaultKind::Honest,
            1 => FaultKind::WorstCase,
            2 => FaultKind::Stochastic {
                jitter_permille: rng.gen_range(0i64..=900),
                seed: rng.next_u64(),
            },
            3 => FaultKind::LoadDrift {
                seed: rng.next_u64(),
            },
            4 => FaultKind::Drift {
                factor_permille: rng.gen_range(500i64..=1800),
            },
            5 => FaultKind::Preemption {
                p_permille: rng.gen_range(0i64..=400),
                max_delay_ns: rng.gen_range(1i64..=300),
                seed: rng.next_u64(),
            },
            _ => FaultKind::Violating {
                victim_mask: rng.next_u64(),
                factor_permille: rng.gen_range(1100i64..=2500),
            },
        }
    }

    /// Whether this fault can ever produce `C > Cwc` on `n_actions`.
    pub fn honours_contract(self, n_actions: usize) -> bool {
        match self {
            FaultKind::Honest
            | FaultKind::WorstCase
            | FaultKind::Stochastic { .. }
            | FaultKind::LoadDrift { .. } => true,
            FaultKind::Drift { factor_permille } => factor_permille <= 1000,
            FaultKind::Preemption { p_permille, .. } => p_permille == 0,
            FaultKind::Violating { victim_mask, .. } => {
                (0..n_actions.min(64)).all(|a| victim_mask >> a & 1 == 0)
            }
        }
    }

    /// The same fault with seeds offset by `i` — distinct per-stream
    /// instances for fleet/elastic fan-outs.
    pub fn with_seed_offset(self, i: u64) -> FaultKind {
        match self {
            FaultKind::Stochastic {
                jitter_permille,
                seed,
            } => FaultKind::Stochastic {
                jitter_permille,
                seed: seed.wrapping_add(i),
            },
            FaultKind::LoadDrift { seed } => FaultKind::LoadDrift {
                seed: seed.wrapping_add(i),
            },
            FaultKind::Preemption {
                p_permille,
                max_delay_ns,
                seed,
            } => FaultKind::Preemption {
                p_permille,
                max_delay_ns,
                seed: seed.wrapping_add(i),
            },
            other => other,
        }
    }

    /// Build a fresh execution-time source for this fault over `table`.
    /// Fresh per path: every path must see the same seeded sequence.
    pub fn exec<'a>(self, table: &'a TimeTable) -> AnyExec<'a> {
        match self {
            FaultKind::Honest => AnyExec::Honest(ConstantExec::average(table)),
            FaultKind::WorstCase => AnyExec::Worst(ConstantExec::worst_case(table)),
            FaultKind::Stochastic {
                jitter_permille,
                seed,
            } => AnyExec::Stochastic(StochasticExec::new(
                table,
                ConstantLoad(1.0),
                jitter_permille as f64 / 1000.0,
                seed,
            )),
            FaultKind::LoadDrift { seed } => AnyExec::LoadDrift(StochasticExec::new(
                table,
                RandomWalkLoad::new(seed, 0.05, 0.5, 1.5),
                0.1,
                seed ^ 0x9e37_79b9,
            )),
            FaultKind::Drift { factor_permille } => AnyExec::Drift(DriftExec::new(
                ConstantExec::average(table),
                factor_permille as f64 / 1000.0,
            )),
            FaultKind::Preemption {
                p_permille,
                max_delay_ns,
                seed,
            } => AnyExec::Preempt(PreemptionExec::new(
                ConstantExec::average(table),
                p_permille as f64 / 1000.0,
                Time::from_ns(max_delay_ns),
                seed,
            )),
            FaultKind::Violating {
                victim_mask,
                factor_permille,
            } => {
                let victims: Vec<ActionId> = (0..table.n_actions().min(64))
                    .filter(|a| victim_mask >> a & 1 == 1)
                    .collect();
                AnyExec::Violating(ViolatingExec::new(
                    table,
                    victims,
                    (factor_permille.max(1001)) as f64 / 1000.0,
                ))
            }
        }
    }
}

/// The one concrete execution-time source type all paths share, so the
/// monomorphized runners stay monomorphic while the fault axis varies.
#[allow(missing_docs)]
pub enum AnyExec<'a> {
    Honest(ConstantExec<'a>),
    Worst(ConstantExec<'a>),
    Stochastic(StochasticExec<'a, ConstantLoad>),
    LoadDrift(StochasticExec<'a, RandomWalkLoad>),
    Drift(DriftExec<ConstantExec<'a>>),
    Preempt(PreemptionExec<ConstantExec<'a>>),
    Violating(ViolatingExec<'a>),
}

impl ExecutionTimeSource for AnyExec<'_> {
    fn actual(&mut self, cycle: usize, action: ActionId, q: Quality) -> Time {
        match self {
            AnyExec::Honest(e) | AnyExec::Worst(e) => e.actual(cycle, action, q),
            AnyExec::Stochastic(e) => e.actual(cycle, action, q),
            AnyExec::LoadDrift(e) => e.actual(cycle, action, q),
            AnyExec::Drift(e) => e.actual(cycle, action, q),
            AnyExec::Preempt(e) => e.actual(cycle, action, q),
            AnyExec::Violating(e) => e.actual(cycle, action, q),
        }
    }
}

/// Live `C ≤ Cwc` witness: wraps any source and counts violations, so
/// the safety oracle can tell "the platform broke its contract" apart
/// from "the manager broke its guarantee".
pub struct ContractMonitor<'a, E> {
    inner: E,
    table: &'a TimeTable,
    /// Number of calls whose actual time exceeded `Cwc`.
    pub violations: u64,
}

impl<'a, E: ExecutionTimeSource> ContractMonitor<'a, E> {
    /// Monitor `inner` against `table`'s worst-case column.
    pub fn new(inner: E, table: &'a TimeTable) -> ContractMonitor<'a, E> {
        ContractMonitor {
            inner,
            table,
            violations: 0,
        }
    }
}

impl<E: ExecutionTimeSource> ExecutionTimeSource for ContractMonitor<'_, E> {
    fn actual(&mut self, cycle: usize, action: ActionId, q: Quality) -> Time {
        let t = self.inner.actual(cycle, action, q);
        if t > self.table.wc(action, q) {
            self.violations += 1;
        }
        t
    }
}

/// Arrival pattern for the streaming/elastic paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SourceKind {
    /// One frame per period from time zero.
    Periodic,
    /// Periodic with bounded random jitter.
    Jittered {
        /// Jitter bound, nanoseconds.
        jitter_ns: i64,
        /// RNG seed.
        seed: u64,
    },
    /// Random bursts of same-instant arrivals.
    Bursty {
        /// Largest burst size.
        max_burst: usize,
        /// RNG seed.
        seed: u64,
    },
}

impl SourceKind {
    /// Draw a random source kind.
    pub fn generate(rng: &mut StdRng) -> SourceKind {
        match rng.gen_range(0u32..3) {
            0 => SourceKind::Periodic,
            1 => SourceKind::Jittered {
                jitter_ns: rng.gen_range(1i64..=200),
                seed: rng.next_u64(),
            },
            _ => SourceKind::Bursty {
                max_burst: rng.gen_range(2usize..=5),
                seed: rng.next_u64(),
            },
        }
    }

    /// Materialize the source for `frames` frames of `period`.
    pub fn source(self, period: Time, frames: usize) -> AnySource {
        match self {
            SourceKind::Periodic => AnySource::Periodic(Periodic::new(period, frames)),
            SourceKind::Jittered { jitter_ns, seed } => AnySource::Jittered(Jittered::new(
                period,
                Time::from_ns(jitter_ns),
                frames,
                seed,
            )),
            SourceKind::Bursty { max_burst, seed } => {
                AnySource::Bursty(Bursty::new(period, max_burst, frames, seed))
            }
        }
    }
}

/// Concrete arrival-source sum type (same role as [`AnyExec`]).
#[allow(missing_docs)]
#[derive(Clone, Debug)]
pub enum AnySource {
    Periodic(Periodic),
    Jittered(Jittered),
    Bursty(Bursty),
}

impl ArrivalSource for AnySource {
    fn next_arrival(&mut self) -> Option<Time> {
        match self {
            AnySource::Periodic(s) => s.next_arrival(),
            AnySource::Jittered(s) => s.next_arrival(),
            AnySource::Bursty(s) => s.next_arrival(),
        }
    }

    fn peek(&mut self) -> Option<Time> {
        match self {
            AnySource::Periodic(s) => s.peek(),
            AnySource::Jittered(s) => s.peek(),
            AnySource::Bursty(s) => s.peek(),
        }
    }

    fn exhaustion(&self) -> sqm_core::source::Exhaustion {
        match self {
            AnySource::Periodic(s) => s.exhaustion(),
            AnySource::Jittered(s) => s.exhaustion(),
            AnySource::Bursty(s) => s.exhaustion(),
        }
    }
}

/// The fault/drift scenario one case runs under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scenario {
    /// Execution-time fault axis.
    pub fault: FaultKind,
    /// Frames per run.
    pub cycles: usize,
    /// How cycles chain on the identity paths.
    pub chaining: CycleChaining,
    /// Arrival pattern for the accounting paths.
    pub source: SourceKind,
    /// Streaming backlog capacity.
    pub capacity: usize,
    /// Streaming overload policy.
    pub policy: OverloadPolicy,
    /// Clock quantization for the managers on the identity paths
    /// (0 = ideal clock, no [`ClockedManager`] wrap).
    pub clock_quantum_ns: i64,
    /// Rounding direction when quantized.
    pub rounding: ClockRounding,
}

impl Scenario {
    /// Draw a random scenario.
    pub fn generate(rng: &mut StdRng) -> Scenario {
        Scenario {
            fault: FaultKind::generate(rng),
            cycles: rng.gen_range(2usize..=8),
            chaining: if rng.gen_bool(0.5) {
                CycleChaining::WorkConserving
            } else {
                CycleChaining::ArrivalClamped
            },
            source: SourceKind::generate(rng),
            capacity: rng.gen_range(1usize..=4),
            policy: match rng.gen_range(0u32..3) {
                0 => OverloadPolicy::Block,
                1 => OverloadPolicy::DropNewest,
                _ => OverloadPolicy::SkipToLatest,
            },
            clock_quantum_ns: *[0i64, 16, 64, 256].get(rng.gen_range(0usize..4)).unwrap(),
            rounding: if rng.gen_bool(0.5) {
                ClockRounding::Down
            } else {
                ClockRounding::Up
            },
        }
    }
}

/// One self-contained fuzz input: replaying the `seed` regenerates
/// exactly this `spec` + `scenario` pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuzzCase {
    /// The generator seed this case was drawn from (0 for shrunk cases,
    /// which are no longer seed-reachable).
    pub seed: u64,
    /// The generated system.
    pub spec: SystemSpec,
    /// The generated fault/drift scenario.
    pub scenario: Scenario,
}

impl FuzzCase {
    /// Deterministically generate the case for `seed`.
    pub fn generate(seed: u64) -> FuzzCase {
        let mut rng = StdRng::seed_from_u64(seed);
        FuzzCase {
            seed,
            spec: SystemSpec::generate(&mut rng),
            scenario: Scenario::generate(&mut rng),
        }
    }
}

/// An oracle violation: which part tripped and the mismatch detail.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which oracle part failed: `identity`, `safety`, `accounting`,
    /// `monotonicity`, `artifact` or `control`.
    pub oracle: &'static str,
    /// Human-readable mismatch description.
    pub detail: String,
}

impl Violation {
    fn new(oracle: &'static str, detail: String) -> Violation {
        Violation { oracle, detail }
    }
}

macro_rules! oracle_eq {
    ($oracle:literal, $left:expr, $right:expr, $what:expr) => {
        if $left != $right {
            return Err(Violation::new(
                $oracle,
                format!("{}: {:?} != {:?}", $what, $left, $right),
            ));
        }
    };
}

macro_rules! oracle {
    ($oracle:literal, $cond:expr, $($detail:tt)*) => {
        if !$cond {
            return Err(Violation::new($oracle, format!($($detail)*)));
        }
    };
}

/// Work units a [`ClockedManager`] charges per clock read.
const CLOCK_READ_WORK: u64 = 1;

/// Run one cycle-driving path with the scenario's (possibly clocked)
/// manager wrap applied uniformly.
fn drive<M: QualityManager>(
    sys: &ParameterizedSystem,
    manager: M,
    scenario: &Scenario,
    period: Time,
    sink: &mut Trace,
) -> sqm_core::engine::RunSummary {
    let mut exec = scenario.fault.exec(sys.table());
    if scenario.clock_quantum_ns > 0 {
        let clocked = ClockedManager::new(
            manager,
            RtClock::new(Time::from_ns(scenario.clock_quantum_ns), Time::ZERO),
            scenario.rounding,
            CLOCK_READ_WORK,
        );
        Engine::new(sys, clocked, OVERHEAD).run_cycles(
            scenario.cycles,
            period,
            scenario.chaining,
            &mut exec,
            sink,
        )
    } else {
        Engine::new(sys, manager, OVERHEAD).run_cycles(
            scenario.cycles,
            period,
            scenario.chaining,
            &mut exec,
            sink,
        )
    }
}

/// How the manager behind [`drive`] saw the engine clock: the decision
/// time it was handed and the work its wrapper charged on top of the
/// table probes.
fn observer(scenario: &Scenario) -> impl Fn(Time) -> (Time, u64) + '_ {
    move |t| {
        if scenario.clock_quantum_ns == 0 {
            return (t, 0);
        }
        let clock = RtClock::new(Time::from_ns(scenario.clock_quantum_ns), Time::ZERO);
        let seen = match scenario.rounding {
            ClockRounding::Up => clock.quantize_up(t),
            ClockRounding::Down => clock.quantize_down(t),
        };
        (seen, CLOCK_READ_WORK)
    }
}

/// The engine clock as a bare (unclocked) manager sees it.
pub fn unclocked(t: Time) -> (Time, u64) {
    (t, 0)
}

/// Re-derive every decided record of a table-driven run from the
/// reference scans.
///
/// A record's decision time is `start − qm_overhead`; `observe` maps it
/// to the time the manager was handed and the work its wrapper charged
/// on top ([`unclocked`] for a bare manager; a [`ClockedManager`]
/// quantizes and charges its clock read). `quality`, `infeasible` and
/// `qm_work` must equal what [`QualityRegionTable::choose`] returns at
/// that time. The hold — the distance to the next decided record, or to
/// the end of `records` — must be 1 without a relaxation table, and
/// [`RelaxationTable::choose_relaxation`]'s step clamped to the actions
/// left in the cycle with one, whose probes then join the charged work.
///
/// `records` is one cycle or whole cycles back to back in execution
/// order (every cycle opens with a decision).
pub fn rederive_decisions(
    records: &[ActionRecord],
    regions: &QualityRegionTable,
    relaxation: Option<&RelaxationTable>,
    observe: impl Fn(Time) -> (Time, u64),
) -> Result<(), String> {
    for (k, record) in records.iter().enumerate().filter(|(_, r)| r.decided) {
        let state = record.action;
        let (t, wrapper_work) = observe(record.start - record.qm_overhead);
        let (choice, mut work) = regions.choose(state, t);
        let mut hold = 1;
        if let (Some(q), Some(relaxation)) = (choice, relaxation) {
            let (r, probes) = relaxation.choose_relaxation(state, t, q);
            hold = r.clamp(1, regions.n_states() - state);
            work += probes;
        }
        let expected = (
            choice.unwrap_or(Quality::MIN),
            choice.is_none(),
            work + wrapper_work,
            hold,
        );
        let held = records[k + 1..]
            .iter()
            .position(|r| r.decided)
            .map_or(records.len() - k, |d| d + 1);
        let got = (record.quality, record.infeasible, record.qm_work, held);
        if got != expected {
            return Err(format!(
                "record {k} (state {state}, t {t:?}): (quality, infeasible, work, hold) = \
                 {got:?}, scan oracle says {expected:?}"
            ));
        }
    }
    Ok(())
}

/// [`rederive_decisions`] over every cycle of a recorded trace.
fn rederive_trace(
    trace: &Trace,
    regions: &QualityRegionTable,
    relaxation: Option<&RelaxationTable>,
    observe: impl Fn(Time) -> (Time, u64),
) -> Result<(), String> {
    trace
        .cycles
        .iter()
        .try_for_each(|cycle| rederive_decisions(&cycle.records, regions, relaxation, &observe))
}

/// Rank a region choice for monotonicity comparisons: infeasible sorts
/// below every quality.
fn rank(choice: Option<Quality>) -> i32 {
    match choice {
        None => -1,
        Some(q) => q.index() as i32,
    }
}

/// Execute every oracle path for one case. `Ok(n)` is the number of
/// system×scenario×path cases run; `Err` is the first violation.
pub fn run_case(case: &FuzzCase) -> Result<usize, Violation> {
    let sys = case.spec.build();
    let regions = compile_regions(&sys);
    let period = sys.final_deadline();
    let scenario = &case.scenario;
    let mut paths = 0usize;

    // ── Oracle 1: identity ──────────────────────────────────────────
    // Serial reference, trace recorded: every decision the hinted
    // lookup made must re-derive from the top-down scan, as the
    // (possibly clocked) manager saw the clock.
    let mut serial_trace = Trace::default();
    let serial = drive(
        &sys,
        LookupManager::new(&regions),
        scenario,
        period,
        &mut serial_trace,
    );
    paths += 1;
    rederive_trace(&serial_trace, &regions, None, observer(scenario))
        .map_err(|e| Violation::new("identity", format!("serial: {e}")))?;

    // Periodic + Block streaming reproduces the serial run.
    {
        let mut engine = Engine::new(&sys, LookupManager::new(&regions), OVERHEAD);
        let mut exec = scenario.fault.exec(sys.table());
        let mut trace = Trace::default();
        let streamed = StreamingRunner::new(StreamConfig {
            chaining: scenario.chaining,
            capacity: 2,
            policy: OverloadPolicy::Block,
        })
        .run(
            &mut engine,
            &mut Periodic::new(period, scenario.cycles),
            &mut exec,
            &mut trace,
        );
        paths += 1;
        if scenario.clock_quantum_ns == 0 {
            oracle_eq!("identity", streamed.run, serial, "streaming != serial");
        }
        rederive_trace(&trace, &regions, None, unclocked)
            .map_err(|e| Violation::new("identity", format!("streaming: {e}")))?;
        oracle_eq!(
            "accounting",
            streamed.stats.arrived,
            streamed.stats.processed,
            "periodic Block stream must process everything"
        );
    }

    // Fleet: every worker count produces the same fold, and every
    // worker's records re-derive from the scan.
    let specs: Vec<StreamSpec<()>> = (0..3u64)
        .map(|i| StreamSpec::new((), i, scenario.cycles))
        .collect();
    let fleet_error = std::sync::Mutex::new(None);
    let fleet_drive = |spec: &StreamSpec<()>, scratch: &mut sqm_core::fleet::StreamScratch| {
        let mut exec = scenario.fault.with_seed_offset(spec.seed).exec(sys.table());
        let mut sink = sqm_core::engine::RecordBuffer::new(&mut scratch.records);
        let run = Engine::new(&sys, LookupManager::new(&regions), OVERHEAD).run_cycles(
            spec.cycles,
            period,
            scenario.chaining,
            &mut exec,
            &mut sink,
        );
        if let Err(e) = rederive_decisions(&scratch.records, &regions, None, unclocked) {
            fleet_error
                .lock()
                .expect("no drive panicked")
                .get_or_insert(e);
        }
        run
    };
    let fleet_one: FleetSummary = FleetRunner::new(1).run(&specs, fleet_drive);
    let fleet_two: FleetSummary = FleetRunner::new(2).run(&specs, fleet_drive);
    paths += 2;
    oracle_eq!("identity", fleet_two, fleet_one, "fleet(2) != fleet(1)");
    if let Some(e) = fleet_error.into_inner().expect("no drive panicked") {
        return Err(Violation::new("identity", format!("fleet: {e}")));
    }

    // Elastic: worker counts agree, the per-stream results equal the
    // streaming runner's fold under unbounded admission, and every
    // stream's records re-derive from the scan.
    {
        let elastic_streams = || -> Vec<_> {
            (0..3u64)
                .map(|i| {
                    (
                        Periodic::new(period, scenario.cycles),
                        EngineDriver::new(
                            Engine::new(&sys, LookupManager::new(&regions), OVERHEAD),
                            scenario.fault.with_seed_offset(i).exec(sys.table()),
                            Trace::default(),
                        ),
                    )
                })
                .collect()
        };
        let config = ElasticConfig::live()
            .with_chaining(scenario.chaining)
            .with_ring_capacity(2);
        let (elastic_one, streams_one) = ElasticRunner::new(1, config).run(elastic_streams());
        let (elastic_two, streams_two) = ElasticRunner::new(2, config).run(elastic_streams());
        paths += 2;
        oracle_eq!(
            "identity",
            elastic_two,
            elastic_one,
            "elastic(2) != elastic(1)"
        );
        for stream in streams_one.iter().chain(&streams_two) {
            rederive_trace(stream.sink(), &regions, None, unclocked)
                .map_err(|e| Violation::new("identity", format!("elastic: {e}")))?;
        }

        let serial_streams: Vec<StreamSummary> = (0..3u64)
            .map(|i| {
                let mut engine = Engine::new(&sys, LookupManager::new(&regions), OVERHEAD);
                let mut exec = scenario.fault.with_seed_offset(i).exec(sys.table());
                StreamingRunner::new(StreamConfig {
                    chaining: scenario.chaining,
                    capacity: 2,
                    policy: OverloadPolicy::Block,
                })
                .run(
                    &mut engine,
                    &mut Periodic::new(period, scenario.cycles),
                    &mut exec,
                    &mut NullSink,
                )
            })
            .collect();
        paths += 1;
        oracle_eq!(
            "identity",
            elastic_one.per_stream().to_vec(),
            serial_streams,
            "elastic per-stream != streaming fold"
        );
    }

    // ── Oracle 2: safety ────────────────────────────────────────────
    // Zero overhead, ideal clock, period = final deadline: the compiled
    // mixed-policy table guarantees no miss and no infeasible decision
    // as long as the platform honours C ≤ Cwc.
    for chaining in [CycleChaining::WorkConserving, CycleChaining::ArrivalClamped] {
        let mut monitor = ContractMonitor::new(scenario.fault.exec(sys.table()), sys.table());
        let run = Engine::new(&sys, LookupManager::new(&regions), OverheadModel::ZERO).run_cycles(
            scenario.cycles,
            period,
            chaining,
            &mut monitor,
            &mut NullSink,
        );
        paths += 1;
        if monitor.violations == 0 {
            oracle!(
                "safety",
                run.misses == 0 && run.infeasible == 0,
                "contract-honouring run missed: misses={} infeasible={} ({chaining:?}, fault {:?})",
                run.misses,
                run.infeasible,
                scenario.fault
            );
            oracle!(
                "safety",
                scenario.fault.honours_contract(case.spec.n_actions()) || monitor.violations == 0,
                "unreachable"
            );
        } else {
            oracle!(
                "safety",
                !scenario.fault.honours_contract(case.spec.n_actions()),
                "fault {:?} claimed contract-honouring but violated {} times",
                scenario.fault,
                monitor.violations
            );
        }
    }

    // ── Oracle 3: accounting ────────────────────────────────────────
    // Streaming under the scenario's source/capacity/policy: every
    // arrived frame is processed or dropped, nothing invented or lost.
    {
        let mut engine = Engine::new(&sys, LookupManager::new(&regions), OVERHEAD);
        let mut exec = scenario.fault.exec(sys.table());
        let mut source = scenario.source.source(period, scenario.cycles);
        let out = StreamingRunner::new(StreamConfig {
            chaining: CycleChaining::ArrivalClamped,
            capacity: scenario.capacity,
            policy: scenario.policy,
        })
        .run(&mut engine, &mut source, &mut exec, &mut NullSink);
        paths += 1;
        oracle_eq!(
            "accounting",
            out.stats.arrived,
            scenario.cycles,
            "stream arrivals != frames emitted"
        );
        oracle_eq!(
            "accounting",
            out.stats.processed + out.stats.dropped,
            out.stats.arrived,
            format!("stream books don't balance under {:?}", scenario.policy)
        );
        if scenario.policy == OverloadPolicy::Block {
            oracle_eq!(
                "accounting",
                out.stats.dropped,
                0,
                "Block policy must never drop"
            );
        }
    }

    // Elastic under global admission pressure: the shed ledger and the
    // merged stats must tell the same story.
    {
        let streams: Vec<_> = (0..4u64)
            .map(|i| {
                (
                    scenario.source.source(period, scenario.cycles),
                    EngineDriver::new(
                        Engine::new(&sys, LookupManager::new(&regions), OVERHEAD),
                        scenario.fault.with_seed_offset(i).exec(sys.table()),
                        NullSink,
                    ),
                )
            })
            .collect();
        let config = ElasticConfig::live()
            .with_chaining(CycleChaining::ArrivalClamped)
            .with_ring_capacity(4)
            .with_admission(Admission::DropNewest {
                global_capacity: scenario.capacity,
            });
        let (out, _) = ElasticRunner::new(2, config).run(streams);
        paths += 1;
        let ledger = *out.ledger();
        oracle_eq!(
            "accounting",
            ledger.arrived,
            4 * scenario.cycles,
            "elastic arrivals != frames emitted"
        );
        oracle_eq!(
            "accounting",
            ledger.admitted + ledger.shed,
            ledger.arrived,
            "shed ledger doesn't balance"
        );
        oracle_eq!(
            "accounting",
            out.stats().processed,
            ledger.admitted,
            "merged stats disagree with ledger (processed)"
        );
        oracle_eq!(
            "accounting",
            out.stats().dropped,
            ledger.shed,
            "merged stats disagree with ledger (shed)"
        );
    }

    // ── Oracle 4: monotonicity under relaxation ─────────────────────
    paths += check_monotonicity(case, &sys, &regions)?;

    // ── Oracle 5: artifact round-trip + corruption rejection ────────
    paths += check_artifact(case, &sys, &regions)?;

    // ── Inference axis: the stateful batch-coupled source ───────────
    paths += check_infer(case)?;

    // ── Admission axis: global-capacity sweep + adversarial traces ──
    paths += check_admission(case, &sys, &regions)?;

    // ── Control axis: the approachability layer ─────────────────────
    paths += check_control(case, &sys, &regions)?;

    Ok(paths)
}

/// Admission axis: the elastic shed ledger under adversarial arrival
/// traces (every frame of every overloaded stream at `t = 0`) with
/// `global_capacity` swept over `{0, 1, exact-fit, huge}`. *Exact-fit*
/// is the unbounded run's own peak backlog — by construction no counted
/// frame ever arrives at a backlog at or above it, so that capacity
/// must shed nothing and reproduce the unbounded results byte-for-byte.
/// The last stream is *prompt* (arrivals spaced 16 periods apart on an
/// honest platform, so it is always idle when a frame lands): admission
/// pressure from the rest of the fleet must never shed it.
fn check_admission(
    case: &FuzzCase,
    sys: &ParameterizedSystem,
    regions: &QualityRegionTable,
) -> Result<usize, Violation> {
    let scenario = &case.scenario;
    let period = sys.final_deadline();
    let cycles = scenario.cycles;
    const OVERLOADED: u64 = 3;

    let streams = || {
        let mut v: Vec<(
            TraceReplay,
            EngineDriver<'_, LookupManager<'_>, AnyExec<'_>, NullSink>,
        )> = (0..OVERLOADED)
            .map(|i| {
                (
                    TraceReplay::new(vec![Time::ZERO; cycles]),
                    EngineDriver::new(
                        Engine::new(sys, LookupManager::new(regions), OVERHEAD),
                        scenario.fault.with_seed_offset(i).exec(sys.table()),
                        NullSink,
                    ),
                )
            })
            .collect();
        let spaced = (0..cycles)
            .map(|c| Time::from_ns(c as i64 * 16 * period.as_ns().max(1)))
            .collect();
        v.push((
            TraceReplay::new(spaced),
            EngineDriver::new(
                Engine::new(sys, LookupManager::new(regions), OVERHEAD),
                FaultKind::Honest.exec(sys.table()),
                NullSink,
            ),
        ));
        v
    };
    let run = |admission: Admission| {
        let config = ElasticConfig::live()
            .with_chaining(CycleChaining::ArrivalClamped)
            .with_ring_capacity(4)
            .with_admission(admission);
        ElasticRunner::new(2, config).run(streams()).0
    };

    let total = (OVERLOADED as usize + 1) * cycles;
    let unbounded = run(Admission::Unbounded);
    let mut paths = 1usize;
    oracle_eq!(
        "accounting",
        unbounded.ledger().shed,
        0,
        "unbounded admission shed frames"
    );
    let exact_fit = unbounded.ledger().peak_backlog;
    for capacity in [0usize, 1, exact_fit, usize::MAX / 2] {
        let out = run(Admission::DropNewest {
            global_capacity: capacity,
        });
        paths += 1;
        let ledger = *out.ledger();
        oracle_eq!(
            "accounting",
            ledger.arrived,
            total,
            format!("capacity {capacity}: arrivals != frames emitted")
        );
        oracle_eq!(
            "accounting",
            ledger.admitted + ledger.shed,
            ledger.arrived,
            format!("capacity {capacity}: shed ledger doesn't balance")
        );
        oracle_eq!(
            "accounting",
            out.stats().processed,
            ledger.admitted,
            format!("capacity {capacity}: merged stats disagree with ledger (processed)")
        );
        oracle_eq!(
            "accounting",
            out.stats().dropped,
            ledger.shed,
            format!("capacity {capacity}: merged stats disagree with ledger (shed)")
        );
        oracle!(
            "accounting",
            ledger.peak_backlog <= capacity.max(exact_fit),
            "capacity {capacity}: aggregate backlog {} exceeds the bound",
            ledger.peak_backlog
        );
        let prompt = out.stream(OVERLOADED as usize);
        oracle_eq!(
            "accounting",
            prompt.stats.dropped,
            0,
            format!("capacity {capacity}: prompt stream was shed")
        );
        oracle_eq!(
            "accounting",
            prompt.stats.processed,
            cycles,
            format!("capacity {capacity}: prompt stream lost frames")
        );
        if capacity >= exact_fit {
            oracle_eq!(
                "accounting",
                ledger.shed,
                0,
                format!("capacity {capacity} >= exact-fit {exact_fit} must shed nothing")
            );
            oracle_eq!(
                "identity",
                out.per_stream().to_vec(),
                unbounded.per_stream().to_vec(),
                format!("capacity {capacity} >= exact-fit diverges from unbounded")
            );
        }
        if capacity == 0 {
            oracle_eq!(
                "accounting",
                ledger.peak_backlog,
                0,
                "capacity 0 must keep the aggregate backlog empty"
            );
        }
    }
    Ok(paths)
}

/// Control axis: the approachability layer over the generated system.
/// With the trivial safe set the [`ControlledManager`] must be
/// byte-identical to the baseline on the serial (records included),
/// streaming and elastic paths under the scenario's fault. With an
/// active controller the averaged-payoff trajectory must replay
/// deterministically and obey the averaging step bound
/// `dist(t+1) ≤ dist(t) + diam/(t+1)` (payoffs live in `[0, 1000]⁴`, so
/// `diam = 2000`); and under a contract-honouring fault at zero
/// overhead a reachable safe set is never left at all — the control
/// analogue of the safety oracle.
fn check_control(
    case: &FuzzCase,
    sys: &ParameterizedSystem,
    regions: &QualityRegionTable,
) -> Result<usize, Violation> {
    let scenario = &case.scenario;
    let period = sys.final_deadline();
    let qmax = sys.qualities().max();
    let trivial = || {
        ControlledManager::new(
            standard_slate(regions, &[], qmax),
            ApproachabilityController::new(SafeSet::everything()),
        )
    };
    let mut paths = 0usize;

    // Serial: summaries and records byte-identical to the naive run.
    let mut naive_trace = Trace::default();
    let naive = drive(
        sys,
        LookupManager::new(regions),
        scenario,
        period,
        &mut naive_trace,
    );
    let mut ctl_trace = Trace::default();
    let controlled = drive(sys, trivial(), scenario, period, &mut ctl_trace);
    paths += 1;
    oracle_eq!(
        "identity",
        controlled,
        naive,
        "controlled(trivial) != naive"
    );
    for (a, b) in naive_trace.cycles.iter().zip(&ctl_trace.cycles) {
        oracle_eq!(
            "identity",
            b.records,
            a.records,
            "controlled(trivial) records != naive"
        );
    }

    // Streaming: Periodic + Block against the same fault.
    {
        let config = StreamConfig {
            chaining: scenario.chaining,
            capacity: 2,
            policy: OverloadPolicy::Block,
        };
        let base = StreamingRunner::new(config).run(
            &mut Engine::new(sys, LookupManager::new(regions), OVERHEAD),
            &mut Periodic::new(period, scenario.cycles),
            &mut scenario.fault.exec(sys.table()),
            &mut NullSink,
        );
        let ctl = StreamingRunner::new(config).run(
            &mut Engine::new(sys, trivial(), OVERHEAD),
            &mut Periodic::new(period, scenario.cycles),
            &mut scenario.fault.exec(sys.table()),
            &mut NullSink,
        );
        paths += 1;
        oracle_eq!(
            "identity",
            ctl,
            base,
            "controlled(trivial) streaming != baseline"
        );
    }

    // Elastic: controlled drivers at 1 and 2 workers against naive.
    {
        let config = ElasticConfig::live()
            .with_chaining(scenario.chaining)
            .with_ring_capacity(2);
        let naive_streams = || -> Vec<_> {
            (0..2u64)
                .map(|i| {
                    (
                        Periodic::new(period, scenario.cycles),
                        EngineDriver::new(
                            Engine::new(sys, LookupManager::new(regions), OVERHEAD),
                            scenario.fault.with_seed_offset(i).exec(sys.table()),
                            NullSink,
                        ),
                    )
                })
                .collect()
        };
        let ctl_streams = || -> Vec<_> {
            (0..2u64)
                .map(|i| {
                    (
                        Periodic::new(period, scenario.cycles),
                        EngineDriver::new(
                            Engine::new(sys, trivial(), OVERHEAD),
                            scenario.fault.with_seed_offset(i).exec(sys.table()),
                            NullSink,
                        ),
                    )
                })
                .collect()
        };
        let (base, _) = ElasticRunner::new(1, config).run(naive_streams());
        for workers in 1..=2usize {
            let (ctl, _) = ElasticRunner::new(workers, config).run(ctl_streams());
            paths += 1;
            oracle_eq!(
                "identity",
                ctl.per_stream().to_vec(),
                base.per_stream().to_vec(),
                format!("controlled(trivial) elastic({workers}) != baseline")
            );
        }
    }

    // Active controller over a reachable safe set: the floor rung (cap
    // at qmin) never misses on an honest platform because the final
    // deadline admits minimum quality by construction, so the slack
    // bound of 100 milli is approachable.
    let run_active = |overhead: OverheadModel| {
        let cell = PayoffCell::new();
        let spec = PayoffSpec::for_system(sys);
        let set = SafeSet::bounded_box([0; PAYOFF_DIMS], [100, 1000, 1000, 1000]);
        let manager = ControlledManager::new(
            standard_slate(regions, &[], qmax),
            ApproachabilityController::new(set),
        )
        .with_feed(&cell);
        let mut engine = Engine::new(sys, manager, overhead);
        let mut sink = ControlSink::new(&cell, spec);
        let mut exec = scenario.fault.exec(sys.table());
        let run = engine.run_cycles(
            scenario.cycles,
            period,
            scenario.chaining,
            &mut exec,
            &mut sink,
        );
        let manager = engine.manager();
        (
            run,
            manager.controller().trajectory().to_vec(),
            manager.rung_switches(),
            manager.controller().distance(),
        )
    };
    let (run_a, traj_a, switches_a, dist_a) = run_active(OVERHEAD);
    let (run_b, traj_b, switches_b, dist_b) = run_active(OVERHEAD);
    paths += 2;
    oracle_eq!(
        "control",
        run_b,
        run_a,
        "active controller run not deterministic"
    );
    oracle_eq!(
        "control",
        (&traj_b, switches_b, dist_b),
        (&traj_a, switches_a, dist_a),
        "active controller trajectory not deterministic"
    );
    for (i, w) in traj_a.windows(2).enumerate() {
        // Observation i+2 moves the running average by at most diam/(i+2),
        // and distance-to-a-convex-set is 1-Lipschitz.
        let bound = w[0] + 2000.0 / (i as f64 + 2.0) + 1e-6;
        let within_bound = w[1] <= bound;
        oracle!(
            "control",
            within_bound,
            "distance jumped past the averaging bound at round {}: {} -> {}",
            i + 2,
            w[0],
            w[1]
        );
    }

    // Stay-inside: honouring fault + zero overhead ⇒ no misses, no
    // lateness, zero overhead ratio — every payoff lands inside the box,
    // so the controller must never project, steer or accrue distance.
    if scenario.fault.honours_contract(case.spec.n_actions()) {
        let (run, traj, switches, dist) = run_active(OverheadModel::ZERO);
        paths += 1;
        oracle!(
            "control",
            run.misses == 0 && dist == 0.0 && switches == 0 && traj.iter().all(|&d| d == 0.0),
            "reachable set left under honouring fault {:?}: misses={} dist={dist} switches={switches}",
            scenario.fault,
            run.misses
        );
    }
    Ok(paths)
}

/// Inference axis: the batch-coupled serving workload (`sqm-infer`)
/// through the identity and monotonicity oracles. Unlike the generated
/// table-driven sources above, [`sqm_infer::BatchCoupledExec`] carries
/// shared mutable state (the per-cycle batch account), so byte-identity
/// here proves the continuous-batching state machine replays exactly on
/// the streaming path — and the coupling law is probed directly through
/// the public [`ExecutionTimeSource`] surface.
fn check_infer(case: &FuzzCase) -> Result<usize, Violation> {
    use sqm_infer::{InferConfig, InferPipeline};

    let scenario = &case.scenario;
    let seed = case.seed ^ 0x1f2e_3d4c_5b6a_7988;
    let jitter = 0.05;
    let infer = InferPipeline::new(InferConfig::tiny(seed)).expect("tiny config is feasible");
    let sys = infer.system();
    let regions = compile_regions(sys);
    let period = infer.config().batch_period();
    let cycles = scenario.cycles;

    // Identity: serial vs Periodic+Block streaming, each over a fresh
    // batch-coupled source with the same seed, and every serial decision
    // re-derived from the scan. The batch account resets at action 0 of
    // every cycle, so an exact replay is the contract — any divergence
    // means the shared state leaked across a path boundary.
    let mut serial_trace = Trace::default();
    let serial = Engine::new(sys, LookupManager::new(&regions), OVERHEAD).run_cycles(
        cycles,
        period,
        scenario.chaining,
        &mut infer.exec(jitter, seed),
        &mut serial_trace,
    );
    rederive_trace(&serial_trace, &regions, None, unclocked)
        .map_err(|e| Violation::new("identity", format!("infer: {e}")))?;
    let mut engine = Engine::new(sys, LookupManager::new(&regions), OVERHEAD);
    let streamed = StreamingRunner::new(StreamConfig {
        chaining: scenario.chaining,
        capacity: 2,
        policy: OverloadPolicy::Block,
    })
    .run(
        &mut engine,
        &mut Periodic::new(period, cycles),
        &mut infer.exec(jitter, seed),
        &mut NullSink,
    );
    oracle_eq!(
        "identity",
        streamed.run,
        serial,
        "infer: streaming != serial"
    );

    // Monotonicity: two draw-aligned sources walk the full action
    // sequence; the *deep* run admits every co-batched request at the
    // top rung, the *shallow* run at the bottom, and the probed final
    // decode runs at the top rung in both. The source draws exactly one
    // jitter sample per call, so the sequences stay aligned, and the
    // mean admitted depth never exceeds the probe's own depth, so the
    // `Cwc` clamp cannot mask a shortened decode.
    let n_actions = sys.n_actions();
    let target = n_actions - 1; // the final decode sees every admission
    let qmax = Quality::new(infer.ladder().len() as u8 - 1);
    let qmin = Quality::new(0);
    let mut shallow = infer.exec(jitter, seed);
    let mut deep = infer.exec(jitter, seed);
    for cycle in 0..cycles {
        for action in 0..n_actions {
            let q_shallow = if action == target { qmax } else { qmin };
            let t_shallow = shallow.actual(cycle, action, q_shallow);
            let t_deep = deep.actual(cycle, action, qmax);
            if action == target {
                oracle!(
                    "monotonicity",
                    t_deep >= t_shallow,
                    "deeper co-batch shortened the decode at cycle {cycle}: \
                     {t_deep:?} < {t_shallow:?}"
                );
            }
        }
    }
    Ok(4)
}

/// Oracle part 5: the binary artifact is lossless for this case's
/// compiled table, and seeded byte corruptions of it never load.
fn check_artifact(
    case: &FuzzCase,
    sys: &ParameterizedSystem,
    regions: &QualityRegionTable,
) -> Result<usize, Violation> {
    use sqm_core::artifact::{Artifact, ArtifactView};

    let bytes = Artifact::encode(regions, None);
    let loaded = match Artifact::load(&bytes) {
        Ok(a) => a,
        Err(e) => {
            return Err(Violation::new(
                "artifact",
                format!("own bytes rejected: {e}"),
            ))
        }
    };
    let lt = loaded.tables(0).expect("single artifact has config 0");
    oracle!(
        "artifact",
        lt.regions == *regions,
        "loaded table differs from compiled"
    );
    oracle_eq!(
        "artifact",
        Artifact::encode(&lt.regions, None),
        bytes,
        "re-encode not byte-identical"
    );
    let view = match ArtifactView::new(&bytes) {
        Ok(v) => v,
        Err(e) => {
            return Err(Violation::new(
                "artifact",
                format!("own bytes unviewable: {e}"),
            ))
        }
    };
    let horizon = sys.final_deadline().as_ns();
    for state in 0..sys.n_actions() {
        let mut t = -horizon;
        while t <= horizon {
            oracle_eq!(
                "artifact",
                view.choose(0, state, Time::from_ns(t)),
                regions.choose(state, Time::from_ns(t)).0,
                format!("view decision diverges at state {state}, t={t}")
            );
            t += 1 + horizon / 16;
        }
    }

    // Seeded corruption sweep: any single flipped byte must be rejected
    // (no flip may load as a silently different table).
    let mut rng = StdRng::seed_from_u64(case.seed ^ 0xA27F_AC75);
    for _ in 0..8 {
        let pos = rng.gen_range(0..bytes.len());
        let mut mutated = bytes.clone();
        mutated[pos] ^= 1u8 << (rng.gen_range(0..8usize) as u32);
        oracle!(
            "artifact",
            Artifact::load(&mutated).is_err() && ArtifactView::new(&mutated).is_err(),
            "corrupted byte {pos} still loads"
        );
    }
    Ok(1)
}

/// Oracle part 4 as its own pass: region-table monotonicity in `t`,
/// deadline relaxation never lowering a choice, and the relaxed manager
/// inheriting the zero-miss guarantee.
fn check_monotonicity(
    case: &FuzzCase,
    sys: &ParameterizedSystem,
    regions: &QualityRegionTable,
) -> Result<usize, Violation> {
    let period = sys.final_deadline();
    let delta = Time::from_ns(1 + period.as_ns() / 8);
    let shifted = regions.shifted(delta);
    let horizon = period.as_ns() + 2 * delta.as_ns();
    for state in 0..sys.n_actions() {
        let mut prev_rank = i32::MAX;
        let mut t = -horizon;
        while t <= horizon {
            let here = rank(regions.choose(state, Time::from_ns(t)).0);
            oracle!(
                "monotonicity",
                here <= prev_rank,
                "choice not monotone in t at state {state}, t={t}: {here} after {prev_rank}"
            );
            prev_rank = here;
            let relaxed = rank(shifted.choose(state, Time::from_ns(t)).0);
            oracle!(
                "monotonicity",
                relaxed >= here,
                "relaxing the deadline by {delta:?} lowered the choice at state {state}, t={t}: {here} -> {relaxed}"
            );
            t += 1 + horizon / 64;
        }
    }

    // The relaxed manager keeps the safety guarantee under an honest
    // platform — Proposition 3 made executable.
    let relaxation = compile_relaxation(
        sys,
        regions,
        StepSet::new(vec![1, 2, 4]).expect("static step menu"),
    );
    let mut exec = ConstantExec::average(sys.table());
    let mut trace = Trace::default();
    let run = Engine::new(
        sys,
        RelaxedManager::new(regions, &relaxation),
        OverheadModel::ZERO,
    )
    .run_cycles(
        case.scenario.cycles,
        period,
        CycleChaining::ArrivalClamped,
        &mut exec,
        &mut trace,
    );
    rederive_trace(&trace, regions, Some(&relaxation), unclocked)
        .map_err(|e| Violation::new("identity", format!("relaxed: {e}")))?;
    oracle!(
        "monotonicity",
        run.misses == 0 && run.infeasible == 0,
        "relaxed manager broke safety on an honest platform: misses={} infeasible={}",
        run.misses,
        run.infeasible
    );
    Ok(1)
}

/// Greedily shrink a failing case: try structurally smaller candidates
/// and keep any that still violates the oracle, until none does.
pub fn minimize(case: &FuzzCase) -> FuzzCase {
    let mut best = case.clone();
    if run_case(&best).is_ok() {
        return best;
    }
    loop {
        let mut improved = false;
        for cand in shrink_candidates(&best) {
            if run_case(&cand).is_err() {
                best = cand;
                improved = true;
                break;
            }
        }
        if !improved {
            return best;
        }
    }
}

fn shrink_candidates(c: &FuzzCase) -> Vec<FuzzCase> {
    let mut out = Vec::new();
    let mut push = |mut cand: FuzzCase| {
        cand.seed = 0;
        if cand != *c {
            out.push(cand);
        }
    };
    if c.scenario.cycles > 1 {
        let mut cand = c.clone();
        cand.scenario.cycles /= 2;
        push(cand);
    }
    if c.spec.n_actions() > 1 {
        let mut cand = c.clone();
        cand.spec.wc.pop();
        cand.spec.av.pop();
        push(cand);
    }
    if c.spec.n_quality > 1 {
        let mut cand = c.clone();
        cand.spec.n_quality -= 1;
        for row in cand.spec.wc.iter_mut().chain(cand.spec.av.iter_mut()) {
            row.pop();
        }
        push(cand);
    }
    if c.scenario.fault != FaultKind::Honest {
        let mut cand = c.clone();
        cand.scenario.fault = FaultKind::Honest;
        push(cand);
    }
    if c.scenario.source != SourceKind::Periodic {
        let mut cand = c.clone();
        cand.scenario.source = SourceKind::Periodic;
        push(cand);
    }
    if c.scenario.clock_quantum_ns != 0 {
        let mut cand = c.clone();
        cand.scenario.clock_quantum_ns = 0;
        push(cand);
    }
    if c.scenario.policy != OverloadPolicy::Block {
        let mut cand = c.clone();
        cand.scenario.policy = OverloadPolicy::Block;
        push(cand);
    }
    if c.spec.deadline_slack > 0 {
        let mut cand = c.clone();
        cand.spec.deadline_slack /= 2;
        push(cand);
    }
    out
}

/// Render a failing case as a self-contained repro block for stderr.
pub fn format_repro(case: &FuzzCase, violation: &Violation) -> String {
    let mut s = String::new();
    s.push_str("================ fuzz repro ================\n");
    s.push_str(&format!(
        "oracle `{}` violated: {}\n",
        violation.oracle, violation.detail
    ));
    if case.seed != 0 {
        s.push_str(&format!(
            "replay: run_case(&FuzzCase::generate({}))\n",
            case.seed
        ));
    } else {
        s.push_str("replay: construct the case literal below (shrunk; not seed-reachable)\n");
    }
    s.push_str(&format!("case: {case:#?}\n"));
    s.push_str("============================================\n");
    s
}

/// Summary of one campaign sweep.
#[derive(Debug)]
pub struct CampaignReport {
    /// Seeds swept.
    pub seeds_run: usize,
    /// Total system×scenario×path cases executed.
    pub cases: usize,
    /// First violation, minimized, with its repro text — `None` when the
    /// whole sweep passed.
    pub failure: Option<(FuzzCase, Violation, String)>,
}

/// Sweep `n_seeds` consecutive seeds starting at `base_seed`, stopping
/// at (and minimizing) the first oracle violation.
pub fn run_campaign(base_seed: u64, n_seeds: usize) -> CampaignReport {
    let mut cases = 0usize;
    for i in 0..n_seeds {
        let case = FuzzCase::generate(base_seed + i as u64);
        match run_case(&case) {
            Ok(n) => cases += n,
            Err(_) => {
                let small = minimize(&case);
                let violation = match run_case(&small) {
                    Err(v) => v,
                    Ok(_) => unreachable!("minimize returns a failing case"),
                };
                let repro = format_repro(&small, &violation);
                return CampaignReport {
                    seeds_run: i + 1,
                    cases,
                    failure: Some((small, violation, repro)),
                };
            }
        }
    }
    CampaignReport {
        seeds_run: n_seeds,
        cases,
        failure: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A modest sweep stays green and counts every path.
    #[test]
    fn small_campaign_passes() {
        let report = run_campaign(1, 8);
        if let Some((_, _, repro)) = &report.failure {
            panic!("{repro}");
        }
        assert_eq!(report.seeds_run, 8);
        assert!(report.cases >= 8 * 10, "paths per case: {}", report.cases);
    }

    /// Seed replay is exact: the same seed regenerates the same case.
    #[test]
    fn generation_is_deterministic() {
        assert_eq!(FuzzCase::generate(42), FuzzCase::generate(42));
        assert_ne!(FuzzCase::generate(42), FuzzCase::generate(43));
    }

    /// The minimizer converges and its output still fails, for a case
    /// made to fail by an artificially broken oracle surrogate: here we
    /// simply check it is the identity on passing cases.
    #[test]
    fn minimize_is_identity_on_passing_cases() {
        let case = FuzzCase::generate(7);
        assert!(run_case(&case).is_ok());
        assert_eq!(minimize(&case), case);
    }

    /// A crafted worst-case overload exercises the admission and
    /// control axes where they bite: all-at-once arrivals at worst-case
    /// execution force real shedding in the capacity sweep, and the
    /// contract-honouring fault arms the stay-inside control oracle.
    #[test]
    fn admission_and_control_axes_pass_on_crafted_overload() {
        let mut case = FuzzCase::generate(3);
        case.scenario.fault = FaultKind::WorstCase;
        case.scenario.cycles = 6;
        assert!(run_case(&case).is_ok(), "{:?}", run_case(&case).err());
    }

    /// The contract monitor actually witnesses violations for violating
    /// faults and stays silent for honouring ones.
    #[test]
    fn contract_monitor_witnesses_violations() {
        let spec = SystemSpec {
            n_quality: 2,
            wc: vec![vec![100, 200], vec![100, 200]],
            av: vec![vec![50, 120], vec![50, 120]],
            deadline_slack: 400,
        };
        let sys = spec.build();
        let fault = FaultKind::Violating {
            victim_mask: 0b1,
            factor_permille: 1500,
        };
        assert!(!fault.honours_contract(spec.n_actions()));
        let mut monitor = ContractMonitor::new(fault.exec(sys.table()), sys.table());
        for a in 0..2 {
            let _ = monitor.actual(0, a, Quality::new(1));
        }
        assert_eq!(monitor.violations, 1, "only the victim violates");
        let honest = FaultKind::Stochastic {
            jitter_permille: 500,
            seed: 9,
        };
        assert!(honest.honours_contract(spec.n_actions()));
        let mut monitor = ContractMonitor::new(honest.exec(sys.table()), sys.table());
        for c in 0..50 {
            for a in 0..2 {
                let _ = monitor.actual(c, a, Quality::new(1));
            }
        }
        assert_eq!(monitor.violations, 0, "clamped source never violates");
    }
}
