//! Blackwell-approachability control layer — provable graceful
//! degradation under non-stationary load.
//!
//! The paper's Quality Manager is optimal against a *fixed* speed
//! diagram, and [`recalib`](crate::recalib) repairs the *tables* when the
//! platform drifts — but nothing steers the *policy* when the
//! time-averaged outcome (deadline slack, quality, drops, overhead)
//! leaves the acceptable region. This module closes that loop with the
//! constructive Blackwell algorithm:
//!
//! 1. each cycle yields a [`PayoffVector`] `g(t)` — four milli-unit
//!    coordinates where *higher is worse*;
//! 2. an [`ApproachabilityController`] tracks the running average
//!    `ḡ(t) = (1/t) Σ g(s)` against a convex [`SafeSet`] `S`;
//! 3. when `ḡ(t) ∉ S` it projects `p* = Π_S(ḡ(t))` and steers along the
//!    correction direction `d = p* − ḡ(t)`: the next cycle runs the rung
//!    of a [`ControlledManager`]'s slate whose expected payoff is most
//!    aligned with `d`.
//!
//! Blackwell's approachability theorem guarantees that for any convex
//! `S` reachable in expectation, `dist(ḡ(t), S) ≤ C/√t` *regardless of
//! the adversary's arrival/drift sequence* — the controller needs no
//! model of the drift, only the per-cycle payoffs.
//!
//! **Why steering cannot break determinism or the conformance
//! identity:** observations flow through the same cycle-boundary seam as
//! table swaps ([`crate::recalib`]): a [`ControlSink`] publishes each
//! finished cycle's payoff into a [`PayoffCell`], and the
//! [`ControlledManager`] drains the cell inside [`QualityManager::reset`]
//! — which [`Engine::run_cycle`](crate::engine::Engine::run_cycle) calls
//! at every cycle start on *every* execution path (serial, streaming,
//! fleet, elastic). Decisions within one cycle therefore always see one
//! rung, the steering sequence is a pure function of the seeded payoff
//! sequence, and with the trivial safe set ([`SafeSet::everything`]) the
//! controller never intervenes at all — the wrapper is byte-identical to
//! its baseline rung, which the fuzz oracle and `bench_control` gates
//! pin.

use crate::engine::{CycleSummary, TraceSink};
use crate::manager::{Decision, QualityManager};
use crate::quality::Quality;
use crate::regions::QualityRegionTable;
use crate::relaxation::RelaxationTable;
use crate::stream::OverloadPolicy;
use crate::system::ParameterizedSystem;
use crate::time::Time;
use std::sync::Mutex;

/// Number of payoff coordinates.
pub const PAYOFF_DIMS: usize = 4;

/// Index of the deadline-slack-deficit coordinate.
pub const DIM_SLACK: usize = 0;
/// Index of the mean-quality-shortfall coordinate.
pub const DIM_QUALITY: usize = 1;
/// Index of the drop/shed-rate coordinate.
pub const DIM_DROPS: usize = 2;
/// Index of the decision-overhead-ratio coordinate.
pub const DIM_OVERHEAD: usize = 3;

/// One cycle's outcome as a 4-dimensional milli-unit vector; every
/// coordinate is scaled so `0` is ideal and `1000` is the worst
/// normalized value (the slack deficit may exceed 1000 before clamping;
/// it is clamped so one catastrophic cycle cannot dominate the average
/// forever):
///
/// | dim | meaning | definition (milli) |
/// |-----|---------|--------------------|
/// | [`DIM_SLACK`] | deadline-slack deficit | `max(1000·lateness/period, 10·1000·misses/actions)`, clamped to `0..=1000` |
/// | [`DIM_QUALITY`] | mean-quality shortfall | `1000·(qmax·actions − Σq)/(qmax·actions)` |
/// | [`DIM_DROPS`] | drop/shed rate | `1000·dropped/arrived` (0 in closed loops) |
/// | [`DIM_OVERHEAD`] | decision-overhead ratio | `1000·qm_overhead/(qm_overhead + busy)` |
///
/// Integer milli-units keep payoffs `Eq`-comparable and bit-stable across
/// hosts, matching the workspace's determinism contract.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PayoffVector(pub [i64; PAYOFF_DIMS]);

/// The constants a [`PayoffVector`] is normalized against: the cycle's
/// final deadline, the nominal period, and the top quality index.
#[derive(Clone, Copy, Debug)]
pub struct PayoffSpec {
    /// The final (end-to-end) deadline lateness is measured against.
    pub deadline: Time,
    /// The nominal cycle period lateness is normalized by.
    pub period: Time,
    /// The top quality index (`|Q| − 1`) the shortfall is measured from.
    pub qmax: u8,
}

impl PayoffSpec {
    /// The spec for `sys` with its final deadline doubling as the period.
    pub fn for_system(sys: &ParameterizedSystem) -> PayoffSpec {
        PayoffSpec {
            deadline: sys.final_deadline(),
            period: sys.final_deadline(),
            qmax: sys.qualities().max().index() as u8,
        }
    }

    /// The same spec with an explicit period (streaming workloads whose
    /// period differs from the final deadline).
    pub fn with_period(mut self, period: Time) -> PayoffSpec {
        self.period = period;
        self
    }
}

impl PayoffVector {
    /// Fold one finished cycle into a payoff under `spec`. The drop
    /// coordinate is 0 — cycles themselves never drop frames; publishers
    /// that see admission decisions add it via
    /// [`PayoffVector::with_drop_rate`].
    pub fn from_cycle(c: &CycleSummary, spec: &PayoffSpec) -> PayoffVector {
        let mut g = [0i64; PAYOFF_DIMS];
        let actions = c.actions.max(1) as i64;
        let lateness = (c.end - spec.deadline).max(Time::ZERO).as_ns();
        let period = spec.period.as_ns().max(1);
        let from_late = (1000 * lateness) / period;
        // Misses are weighted 10×: a deadline miss is a contract
        // violation, so a cycle missing ≥ 10 % of its actions saturates
        // the coordinate — large cycles must not dilute it into noise.
        let from_miss = (10_000 * c.misses as i64) / actions;
        g[DIM_SLACK] = from_late.max(from_miss).min(1000);
        let qmax = spec.qmax as i64;
        if qmax > 0 && c.actions > 0 {
            let ideal = qmax * actions;
            g[DIM_QUALITY] = (1000 * (ideal - c.quality_sum as i64).max(0)) / ideal;
        }
        let total = (c.qm_overhead + c.busy).as_ns();
        if total > 0 {
            g[DIM_OVERHEAD] = (1000 * c.qm_overhead.as_ns()) / total;
        }
        PayoffVector(g)
    }

    /// Replace the drop coordinate with `1000·dropped/arrived`.
    pub fn with_drop_rate(mut self, dropped: u64, arrived: u64) -> PayoffVector {
        if let Some(rate) = (1000 * dropped).checked_div(arrived) {
            self.0[DIM_DROPS] = rate.min(1000) as i64;
        }
        self
    }

    /// Coordinate `i` in milli-units.
    pub fn get(&self, i: usize) -> i64 {
        self.0[i]
    }

    /// The coordinates as f64 (for projection geometry).
    pub fn as_f64(&self) -> [f64; PAYOFF_DIMS] {
        [
            self.0[0] as f64,
            self.0[1] as f64,
            self.0[2] as f64,
            self.0[3] as f64,
        ]
    }
}

/// One linear constraint `⟨normal, x⟩ ≤ offset` (milli-units).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HalfSpace {
    /// The outward normal.
    pub normal: [i64; PAYOFF_DIMS],
    /// The right-hand side.
    pub offset: i64,
}

/// Small tolerance absorbing the fixed-point error of the iterated
/// projection; milli-unit payoffs make `1e-6` ≈ one billionth of a
/// coordinate step.
const PROJ_EPS: f64 = 1e-6;

/// A convex safe set: an axis-aligned box intersected with finitely many
/// half-spaces, with Euclidean projection.
///
/// Projection onto the box alone (clamping) and onto a single violated
/// half-space (one orthogonal step) are closed-form and exact; when
/// several constraints are active at once the projection is computed by
/// Dykstra's algorithm over the constraint list, which converges to the
/// exact projection point geometrically — the loop runs to a `1e-9`
/// fixed point with a deterministic iteration cap, so results are
/// bit-stable for identical inputs.
///
/// # Examples
///
/// ```
/// use sqm_core::control::SafeSet;
///
/// // "At most 15 % slack deficit, at most 70 % quality shortfall" plus a
/// // coupling constraint: deficit + shortfall together under 750 milli.
/// let set = SafeSet::bounded_box([0, 0, 0, 0], [150, 700, 1000, 1000])
///     .with_half_space([1, 1, 0, 0], 750);
/// assert!(set.contains(&[100.0, 500.0, 0.0, 0.0]));
/// assert!(!set.contains(&[300.0, 500.0, 0.0, 0.0])); // box violated
/// assert!(!set.contains(&[140.0, 690.0, 0.0, 0.0])); // half-space violated
///
/// // Exact Euclidean projection: clamping when only the box is active.
/// let p = set.project([300.0, 100.0, 0.0, 0.0]);
/// assert_eq!(p, [150.0, 100.0, 0.0, 0.0]);
/// assert!((set.distance(&[300.0, 100.0, 0.0, 0.0]) - 150.0).abs() < 1e-6);
///
/// // The trivial set contains everything — the controller never steers.
/// assert!(SafeSet::everything().contains(&[1e9, -1e9, 0.0, 0.0]));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SafeSet {
    lo: [i64; PAYOFF_DIMS],
    hi: [i64; PAYOFF_DIMS],
    halves: Vec<HalfSpace>,
}

impl SafeSet {
    /// The whole payoff space `ℝ⁴` — the trivial set every point belongs
    /// to. A controller over it never steers, which is the byte-identity
    /// baseline the fuzz oracle pins.
    pub fn everything() -> SafeSet {
        SafeSet {
            lo: [i64::MIN; PAYOFF_DIMS],
            hi: [i64::MAX; PAYOFF_DIMS],
            halves: Vec::new(),
        }
    }

    /// The axis-aligned box `lo ≤ x ≤ hi` (milli-units per coordinate).
    ///
    /// # Panics
    ///
    /// Panics if any `lo[i] > hi[i]` (the set would be empty).
    pub fn bounded_box(lo: [i64; PAYOFF_DIMS], hi: [i64; PAYOFF_DIMS]) -> SafeSet {
        for i in 0..PAYOFF_DIMS {
            assert!(lo[i] <= hi[i], "empty box: lo[{i}] > hi[{i}]");
        }
        SafeSet {
            lo,
            hi,
            halves: Vec::new(),
        }
    }

    /// Intersect with the half-space `⟨normal, x⟩ ≤ offset`.
    ///
    /// # Panics
    ///
    /// Panics on the zero normal.
    pub fn with_half_space(mut self, normal: [i64; PAYOFF_DIMS], offset: i64) -> SafeSet {
        assert!(
            normal.iter().any(|&n| n != 0),
            "half-space needs a nonzero normal"
        );
        self.halves.push(HalfSpace { normal, offset });
        self
    }

    /// Whether the set has any constraint at all (`false` for
    /// [`SafeSet::everything`]).
    pub fn is_constrained(&self) -> bool {
        self.halves.is_empty()
            && self.lo == [i64::MIN; PAYOFF_DIMS]
            && self.hi == [i64::MAX; PAYOFF_DIMS]
    }

    /// Whether `x` satisfies every constraint (up to projection
    /// tolerance).
    pub fn contains(&self, x: &[f64; PAYOFF_DIMS]) -> bool {
        for (xi, (&lo, &hi)) in x.iter().zip(self.lo.iter().zip(&self.hi)) {
            if *xi < lo as f64 - PROJ_EPS || *xi > hi as f64 + PROJ_EPS {
                return false;
            }
        }
        self.halves
            .iter()
            .all(|h| dot_i(&h.normal, x) <= h.offset as f64 + PROJ_EPS)
    }

    fn clamp_box(&self, x: &[f64; PAYOFF_DIMS]) -> [f64; PAYOFF_DIMS] {
        let mut y = *x;
        for (yi, (&lo, &hi)) in y.iter_mut().zip(self.lo.iter().zip(&self.hi)) {
            *yi = yi.clamp(lo as f64, hi as f64);
        }
        y
    }

    fn project_half(h: &HalfSpace, x: &[f64; PAYOFF_DIMS]) -> [f64; PAYOFF_DIMS] {
        let excess = dot_i(&h.normal, x) - h.offset as f64;
        if excess <= 0.0 {
            return *x;
        }
        let nn: f64 = h.normal.iter().map(|&n| (n * n) as f64).sum();
        let scale = excess / nn;
        let mut y = *x;
        for (yi, &n) in y.iter_mut().zip(&h.normal) {
            *yi -= scale * n as f64;
        }
        y
    }

    /// The Euclidean projection `Π_S(x)` — `x` itself when `x ∈ S`.
    pub fn project(&self, x: [f64; PAYOFF_DIMS]) -> [f64; PAYOFF_DIMS] {
        // Fast exact paths: box-only violation, or a single half-space
        // whose orthogonal step lands inside everything else.
        let boxed = self.clamp_box(&x);
        if self.contains(&boxed) {
            return boxed;
        }
        // Dykstra's algorithm over {box, h_1, …, h_k}: converges to the
        // exact projection onto the intersection. Corrections are kept
        // per constraint; iteration order and count are fixed, so the
        // result is a pure function of the input.
        let k = self.halves.len() + 1;
        let mut corrections = vec![[0.0f64; PAYOFF_DIMS]; k];
        let mut z = x;
        let mut prev = z;
        for _ in 0..256 {
            for (c, correction) in corrections.iter_mut().enumerate() {
                let mut w = z;
                for i in 0..PAYOFF_DIMS {
                    w[i] += correction[i];
                }
                let y = if c == 0 {
                    self.clamp_box(&w)
                } else {
                    Self::project_half(&self.halves[c - 1], &w)
                };
                for i in 0..PAYOFF_DIMS {
                    correction[i] = w[i] - y[i];
                }
                z = y;
            }
            let step: f64 = (0..PAYOFF_DIMS).map(|i| (z[i] - prev[i]).abs()).sum();
            if step < 1e-9 {
                break;
            }
            prev = z;
        }
        z
    }

    /// `dist(x, S)` — the Euclidean distance to the projection, 0 inside.
    pub fn distance(&self, x: &[f64; PAYOFF_DIMS]) -> f64 {
        if self.contains(x) {
            return 0.0;
        }
        let p = self.project(*x);
        (0..PAYOFF_DIMS)
            .map(|i| (x[i] - p[i]) * (x[i] - p[i]))
            .sum::<f64>()
            .sqrt()
    }
}

fn dot_i(a: &[i64; PAYOFF_DIMS], x: &[f64; PAYOFF_DIMS]) -> f64 {
    (0..PAYOFF_DIMS).map(|i| a[i] as f64 * x[i]).sum()
}

fn dot_f(a: &[f64; PAYOFF_DIMS], x: &[f64; PAYOFF_DIMS]) -> f64 {
    (0..PAYOFF_DIMS).map(|i| a[i] * x[i]).sum()
}

/// The constructive Blackwell-approachability controller: tracks the
/// running average payoff `ḡ(t)`, projects when it leaves the safe set,
/// and exposes the correction direction `d = Π_S(ḡ) − ḡ` for rung
/// selection. Deterministic: no randomness, ties broken by lowest index.
///
/// Blackwell's theorem gives `dist(ḡ(t), S) ≤ C/√t` for any adversarial
/// payoff sequence, as long as for every direction some available action
/// has expected payoff on the safe side — which is what a slate spanning
/// "max quality" to "deep degrade" provides.
///
/// # Examples
///
/// An adversary pushes the slack deficit up; the controller's average
/// leaves the set, the correction direction points back, and once the
/// steered payoffs arrive the distance contracts:
///
/// ```
/// use sqm_core::control::{ApproachabilityController, PayoffVector, SafeSet, DIM_SLACK};
///
/// let set = SafeSet::bounded_box([0, 0, 0, 0], [150, 1000, 1000, 1000]);
/// let mut ctl = ApproachabilityController::new(set);
///
/// for _ in 0..10 {
///     ctl.observe(PayoffVector([600, 100, 0, 50])); // drifted cycles
/// }
/// assert!(ctl.distance() > 0.0, "average left the safe set");
/// let d = ctl.direction().expect("outside ⇒ correction direction");
/// assert!(d[DIM_SLACK] < 0.0, "correction pushes the deficit down");
///
/// // The slate: rung 0 keeps quality (high deficit under drift), rung 1
/// // degrades (low deficit, lower quality). The controller picks rung 1.
/// let effects = [[600, 100, 0, 50], [50, 500, 0, 50]];
/// assert_eq!(ctl.choose(&effects), Some(1));
///
/// let before = ctl.distance();
/// for _ in 0..40 {
///     ctl.observe(PayoffVector(effects[1])); // steered cycles
/// }
/// assert!(ctl.distance() < before / 2.0, "O(1/√t): the average returns");
/// ```
#[derive(Clone, Debug)]
pub struct ApproachabilityController {
    set: SafeSet,
    sum: [i64; PAYOFF_DIMS],
    rounds: u64,
    active: bool,
    steers: u64,
    distance: f64,
    direction: Option<[f64; PAYOFF_DIMS]>,
    trajectory: Vec<f64>,
}

impl ApproachabilityController {
    /// An active controller steering toward `set`.
    pub fn new(set: SafeSet) -> ApproachabilityController {
        ApproachabilityController {
            set,
            sum: [0; PAYOFF_DIMS],
            rounds: 0,
            active: true,
            steers: 0,
            distance: 0.0,
            direction: None,
            trajectory: Vec::new(),
        }
    }

    /// A passive tracker: observes, records the distance trajectory, but
    /// [`ApproachabilityController::choose`] always declines to steer —
    /// the instrument for "what would the static manager's average do".
    pub fn passive(set: SafeSet) -> ApproachabilityController {
        ApproachabilityController {
            active: false,
            ..ApproachabilityController::new(set)
        }
    }

    /// Fold one payoff into the running average and refresh the
    /// projection state.
    pub fn observe(&mut self, g: PayoffVector) {
        for i in 0..PAYOFF_DIMS {
            self.sum[i] = self.sum[i].saturating_add(g.0[i]);
        }
        self.rounds += 1;
        let avg = self.average();
        if self.set.contains(&avg) {
            self.distance = 0.0;
            self.direction = None;
        } else {
            let p = self.set.project(avg);
            let mut d = [0.0; PAYOFF_DIMS];
            let mut norm2 = 0.0;
            for i in 0..PAYOFF_DIMS {
                d[i] = p[i] - avg[i];
                norm2 += d[i] * d[i];
            }
            self.distance = norm2.sqrt();
            self.direction = Some(d);
        }
        self.trajectory.push(self.distance);
    }

    /// Observations folded so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The running average `ḡ(t)` in milli-units (zero before the first
    /// observation).
    pub fn average(&self) -> [f64; PAYOFF_DIMS] {
        let t = self.rounds.max(1) as f64;
        [
            self.sum[0] as f64 / t,
            self.sum[1] as f64 / t,
            self.sum[2] as f64 / t,
            self.sum[3] as f64 / t,
        ]
    }

    /// `dist(ḡ(t), S)` after the latest observation (milli-units).
    pub fn distance(&self) -> f64 {
        self.distance
    }

    /// The correction direction `Π_S(ḡ) − ḡ`, `None` while inside the
    /// set.
    pub fn direction(&self) -> Option<[f64; PAYOFF_DIMS]> {
        self.direction
    }

    /// `dist(ḡ(t), S)` after each observation — the convergence curve the
    /// bench gates check against the `C/√t` envelope.
    pub fn trajectory(&self) -> &[f64] {
        &self.trajectory
    }

    /// How many times [`ApproachabilityController::choose`] returned a
    /// non-baseline correction.
    pub fn steers(&self) -> u64 {
        self.steers
    }

    /// The safe set being approached.
    pub fn set(&self) -> &SafeSet {
        &self.set
    }

    /// Blackwell's action rule: when the average is outside the set,
    /// return the index of the candidate whose expected payoff is most
    /// aligned with the correction direction (`argmax ⟨effect, d⟩`, ties
    /// to the lowest index); `None` when inside the set, passive, or
    /// `effects` is empty.
    pub fn choose(&mut self, effects: &[[i64; PAYOFF_DIMS]]) -> Option<usize> {
        if !self.active || effects.is_empty() {
            return None;
        }
        let d = self.direction?;
        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for (i, e) in effects.iter().enumerate() {
            let ef = [e[0] as f64, e[1] as f64, e[2] as f64, e[3] as f64];
            let score = dot_f(&ef, &d);
            if score > best_score {
                best_score = score;
                best = i;
            }
        }
        self.steers += 1;
        Some(best)
    }
}

/// A shared, thread-safe mailbox carrying finished-cycle payoffs from
/// the observation side (a [`ControlSink`] or a platform exec tap) to the
/// [`ControlledManager`], which drains it at the next cycle boundary —
/// the same publish/pickup granularity as
/// [`TableCell`](crate::recalib::TableCell).
#[derive(Debug, Default)]
pub struct PayoffCell {
    pending: Mutex<Vec<PayoffVector>>,
    published: Mutex<u64>,
}

impl PayoffCell {
    /// An empty cell.
    pub fn new() -> PayoffCell {
        PayoffCell::default()
    }

    /// Queue one payoff for the manager's next cycle-boundary drain.
    pub fn publish(&self, g: PayoffVector) {
        self.pending.lock().expect("payoff cell poisoned").push(g);
        *self.published.lock().expect("payoff cell poisoned") += 1;
    }

    /// Total payoffs ever published.
    pub fn published(&self) -> u64 {
        *self.published.lock().expect("payoff cell poisoned")
    }

    /// Move all queued payoffs into `out` (appending), leaving the cell
    /// empty. The caller reuses `out`'s capacity across cycles.
    pub fn drain_into(&self, out: &mut Vec<PayoffVector>) {
        let mut pending = self.pending.lock().expect("payoff cell poisoned");
        out.append(&mut pending);
    }
}

/// A [`TraceSink`] that folds every finished cycle into a
/// [`PayoffVector`] and publishes it to a [`PayoffCell`] — the engine-
/// side observation seam. Tee it with a recording sink when a trace is
/// also wanted ([`Tee`](crate::engine::Tee)).
///
/// It consumes summaries only (`WANTS_RECORDS = false`), so it never
/// forces [`ActionRecord`](crate::trace::ActionRecord) construction onto
/// the hot loop.
#[derive(Debug)]
pub struct ControlSink<'c> {
    cell: &'c PayoffCell,
    spec: PayoffSpec,
}

impl<'c> ControlSink<'c> {
    /// A sink publishing payoffs normalized by `spec` into `cell`.
    pub fn new(cell: &'c PayoffCell, spec: PayoffSpec) -> ControlSink<'c> {
        ControlSink { cell, spec }
    }
}

impl TraceSink for ControlSink<'_> {
    const WANTS_RECORDS: bool = false;

    fn end_cycle(&mut self, summary: &CycleSummary) {
        self.cell
            .publish(PayoffVector::from_cycle(summary, &self.spec));
    }
}

/// One selectable operating point of a [`ControlledManager`]: a manager
/// plus its *expected payoff signature* — the controller's (coarse,
/// milli-unit) model of what average payoff running this rung produces.
/// Signatures only rank rungs along the correction direction; they need
/// not be calibrated, only ordered sensibly (degrade rungs lower on
/// [`DIM_SLACK`], higher on [`DIM_QUALITY`], relaxation rungs lower on
/// [`DIM_OVERHEAD`]).
pub struct Rung<'a> {
    manager: Box<dyn QualityManager + Send + 'a>,
    effect: [i64; PAYOFF_DIMS],
}

impl<'a> Rung<'a> {
    /// A rung running `manager`, advertised to the controller as
    /// producing `effect`. The manager must be `Send` so a
    /// [`ControlledManager`] stays shardable over the fleet/elastic
    /// worker threads like any plain manager.
    pub fn new(manager: impl QualityManager + Send + 'a, effect: [i64; PAYOFF_DIMS]) -> Rung<'a> {
        Rung {
            manager: Box::new(manager),
            effect,
        }
    }

    /// The advertised payoff signature.
    pub fn effect(&self) -> [i64; PAYOFF_DIMS] {
        self.effect
    }

    /// The wrapped manager's name.
    pub fn name(&self) -> &'static str {
        self.manager.name()
    }
}

impl std::fmt::Debug for Rung<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rung")
            .field("manager", &self.manager.name())
            .field("effect", &self.effect)
            .finish()
    }
}

/// A quality cap on top of any manager: decisions above `cap` are
/// degraded to `cap`. Execution times are monotone in quality, so a
/// capped choice always finishes no later than the uncapped one — the
/// cap converts quality into deadline slack without touching the
/// deadline argument. The charged [`Decision::work`] is the inner
/// manager's (the probes really happened); the hold is preserved.
#[derive(Clone, Debug)]
pub struct CappedManager<M> {
    inner: M,
    cap: Quality,
}

impl<M: QualityManager> CappedManager<M> {
    /// Cap `inner`'s choices at `cap`.
    pub fn new(inner: M, cap: Quality) -> CappedManager<M> {
        CappedManager { inner, cap }
    }
}

impl<M: QualityManager> QualityManager for CappedManager<M> {
    fn decide(&mut self, state: usize, t: Time) -> Decision {
        let mut d = self.inner.decide(state, t);
        if d.quality > self.cap {
            d.quality = self.cap;
        }
        d
    }

    fn name(&self) -> &'static str {
        "capped"
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// The standard steering slate over a compiled table set:
///
/// * rung 0 — the baseline [`LookupManager`](crate::manager::LookupManager)
///   (max feasible quality every decision);
/// * one rung per relaxation table — `RelaxedManager` at that ρ ladder
///   (fewer manager calls: overhead traded against switch granularity);
/// * two degrade rungs — [`CappedManager`]s at the mid quality `qmax/2`
///   and at the floor `qmin` (slack bought with quality).
///
/// Callers wanting other rungs (an `AdaptiveLookupManager` over a
/// recalibrated table, say) build their own `Vec<Rung>` — any
/// [`QualityManager`] can be a rung.
pub fn standard_slate<'a>(
    regions: &'a QualityRegionTable,
    relaxations: &[&'a RelaxationTable],
    qmax: Quality,
) -> Vec<Rung<'a>> {
    use crate::manager::{LookupManager, RelaxedManager};
    let mut rungs = vec![Rung::new(LookupManager::new(regions), [500, 100, 100, 300])];
    for (i, relaxation) in relaxations.iter().enumerate() {
        rungs.push(Rung::new(
            RelaxedManager::new(regions, relaxation),
            [450, 200, 100, 150 - 50 * (i as i64).min(2)],
        ));
    }
    let mid = Quality::new((qmax.index() / 2) as u8);
    rungs.push(Rung::new(
        CappedManager::new(LookupManager::new(regions), mid),
        [250, 500, 50, 300],
    ));
    rungs.push(Rung::new(
        CappedManager::new(LookupManager::new(regions), Quality::MIN),
        [50, 850, 0, 300],
    ));
    rungs
}

/// The approachability-steered manager: a slate of [`Rung`]s, an
/// [`ApproachabilityController`], and an optional [`PayoffCell`] feed.
///
/// At every cycle boundary ([`QualityManager::reset`], which the engine
/// calls on every execution path) it drains newly published payoffs into
/// the controller, then selects the rung for the coming cycle: the
/// baseline (rung 0) while the average payoff is inside the safe set,
/// the Blackwell choice (`argmax ⟨effect, d⟩`) while outside. All
/// decisions inside one cycle come from one rung.
///
/// With the trivial safe set ([`SafeSet::everything`]) the average is
/// always inside, so the wrapper forwards to rung 0 forever and is
/// byte-identical to that manager on every path — the property the fuzz
/// oracle and the `bench_control` gates pin.
///
/// # Examples
///
/// ```
/// use sqm_core::compiler::compile_regions;
/// use sqm_core::control::{
///     ApproachabilityController, ControlSink, ControlledManager, PayoffCell, PayoffSpec,
///     SafeSet, standard_slate,
/// };
/// use sqm_core::controller::{ConstantExec, OverheadModel};
/// use sqm_core::engine::{CycleChaining, Engine, NullSink};
/// use sqm_core::system::SystemBuilder;
/// use sqm_core::time::Time;
///
/// let sys = SystemBuilder::new(2)
///     .action("a", &[100, 200], &[60, 120])
///     .deadline_last(Time::from_ns(250))
///     .build()
///     .unwrap();
/// let regions = compile_regions(&sys);
/// let cell = PayoffCell::new();
/// let manager = ControlledManager::new(
///     standard_slate(&regions, &[], sys.qualities().max()),
///     ApproachabilityController::new(SafeSet::bounded_box(
///         [0, 0, 0, 0],
///         [200, 800, 1000, 1000],
///     )),
/// )
/// .with_feed(&cell);
///
/// let mut engine = Engine::new(&sys, manager, OverheadModel::ZERO);
/// let mut sink = ControlSink::new(&cell, PayoffSpec::for_system(&sys));
/// let run = engine.run_cycles(
///     8,
///     sys.final_deadline(),
///     CycleChaining::ArrivalClamped,
///     &mut ConstantExec::average(sys.table()),
///     &mut sink,
/// );
/// assert_eq!(run.cycles, 8);
/// // On-model execution stays inside the set: the baseline rung ran
/// // throughout and no switches happened.
/// assert_eq!(engine.manager().rung_switches(), 0);
/// # let _ = NullSink;
/// ```
pub struct ControlledManager<'a, 'c> {
    rungs: Vec<Rung<'a>>,
    active: usize,
    controller: ApproachabilityController,
    feed: Option<&'c PayoffCell>,
    scratch: Vec<PayoffVector>,
    switches: u64,
}

impl<'a, 'c> ControlledManager<'a, 'c> {
    /// A controlled manager over `rungs` (rung 0 is the baseline).
    ///
    /// # Panics
    ///
    /// Panics on an empty slate.
    pub fn new(
        rungs: Vec<Rung<'a>>,
        controller: ApproachabilityController,
    ) -> ControlledManager<'a, 'c> {
        assert!(!rungs.is_empty(), "a slate needs at least the baseline");
        ControlledManager {
            rungs,
            active: 0,
            controller,
            feed: None,
            scratch: Vec::new(),
            switches: 0,
        }
    }

    /// Drain observations from `cell` at every cycle boundary.
    pub fn with_feed(mut self, cell: &'c PayoffCell) -> ControlledManager<'a, 'c> {
        self.feed = Some(cell);
        self
    }

    /// Feed one payoff directly (callers driving the loop by hand).
    pub fn observe(&mut self, g: PayoffVector) {
        self.controller.observe(g);
    }

    /// The wrapped controller (average, distance, trajectory).
    pub fn controller(&self) -> &ApproachabilityController {
        &self.controller
    }

    /// The index of the rung decisions currently come from.
    pub fn active_rung(&self) -> usize {
        self.active
    }

    /// The active rung's advertised name.
    pub fn active_name(&self) -> &'static str {
        self.rungs[self.active].name()
    }

    /// Rung changes so far (a switch happens at most once per cycle).
    pub fn rung_switches(&self) -> u64 {
        self.switches
    }

    /// The advisory overload policy for the current correction: `None`
    /// while inside the set; [`OverloadPolicy::Block`] when the drop rate
    /// is what must come down; [`OverloadPolicy::SkipToLatest`] when the
    /// slack deficit dominates (catch up by skipping backlog); otherwise
    /// [`OverloadPolicy::DropNewest`]. Runners that can re-admit at cycle
    /// granularity apply it between cycles; it never changes decisions
    /// already made.
    pub fn recommended_policy(&self) -> Option<OverloadPolicy> {
        let d = self.controller.direction()?;
        if d[DIM_DROPS] < -PROJ_EPS && d[DIM_DROPS] <= d[DIM_SLACK] {
            Some(OverloadPolicy::Block)
        } else if d[DIM_SLACK] < -PROJ_EPS {
            Some(OverloadPolicy::SkipToLatest)
        } else {
            Some(OverloadPolicy::DropNewest)
        }
    }

    fn steer(&mut self) {
        if let Some(cell) = self.feed {
            cell.drain_into(&mut self.scratch);
            for g in self.scratch.drain(..) {
                self.controller.observe(g);
            }
        }
        // Stack buffer: slates are small and `decide` must stay
        // allocation-free even through the reset path.
        let mut effects = [[0i64; PAYOFF_DIMS]; 16];
        let n = self.rungs.len().min(16);
        for (slot, rung) in effects.iter_mut().zip(&self.rungs) {
            *slot = rung.effect;
        }
        let next = self.controller.choose(&effects[..n]).unwrap_or(0);
        if next != self.active {
            self.active = next;
            self.switches += 1;
        }
    }
}

impl std::fmt::Debug for ControlledManager<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlledManager")
            .field("rungs", &self.rungs)
            .field("active", &self.active)
            .field("switches", &self.switches)
            .finish()
    }
}

impl QualityManager for ControlledManager<'_, '_> {
    fn decide(&mut self, state: usize, t: Time) -> Decision {
        self.rungs[self.active].manager.decide(state, t)
    }

    fn name(&self) -> &'static str {
        "controlled"
    }

    fn reset(&mut self) {
        self.steer();
        self.rungs[self.active].manager.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile_regions;
    use crate::controller::{ConstantExec, FnExec, OverheadModel};
    use crate::engine::{CycleChaining, Engine, Tee};
    use crate::manager::LookupManager;
    use crate::system::{ParameterizedSystem, SystemBuilder};
    use crate::trace::Trace;

    fn sys() -> ParameterizedSystem {
        SystemBuilder::new(3)
            .action("a", &[10, 25, 40], &[4, 9, 14])
            .action("b", &[12, 22, 35], &[6, 11, 17])
            .action("c", &[8, 18, 28], &[3, 8, 12])
            .deadline_last(Time::from_ns(55))
            .build()
            .unwrap()
    }

    #[test]
    fn payoff_from_cycle_normalizes() {
        let s = sys();
        let spec = PayoffSpec::for_system(&s);
        let mut c = CycleSummary::new(0, Time::ZERO);
        c.actions = 3;
        c.quality_sum = 6; // all at qmax = 2 → no shortfall
        c.end = s.final_deadline();
        c.busy = Time::from_ns(40);
        let g = PayoffVector::from_cycle(&c, &spec);
        assert_eq!(g, PayoffVector([0, 0, 0, 0]));

        c.end = s.final_deadline() + Time::from_ns(11); // 20 % of D = 55 late
        c.quality_sum = 3; // half shortfall
        c.misses = 1;
        c.qm_overhead = Time::from_ns(10); // 10 / 50 = 200 milli
        let g = PayoffVector::from_cycle(&c, &spec);
        assert_eq!(g.get(DIM_SLACK), 1000); // 1 of 3 missed: saturated
        assert_eq!(g.get(DIM_QUALITY), 500);
        assert_eq!(g.get(DIM_DROPS), 0);
        assert_eq!(g.get(DIM_OVERHEAD), 200);
        assert_eq!(g.with_drop_rate(1, 4).get(DIM_DROPS), 250);
    }

    #[test]
    fn projection_is_exact_on_box_and_single_half_space() {
        let set = SafeSet::bounded_box([0, 0, 0, 0], [100, 100, 100, 100]);
        assert_eq!(
            set.project([250.0, 50.0, -30.0, 0.0]),
            [100.0, 50.0, 0.0, 0.0]
        );
        // Single half-space x0 + x1 ≤ 100 with a huge box: orthogonal
        // step to the plane.
        let set = SafeSet::everything().with_half_space([1, 1, 0, 0], 100);
        let p = set.project([100.0, 100.0, 0.0, 0.0]);
        assert!((p[0] - 50.0).abs() < 1e-6 && (p[1] - 50.0).abs() < 1e-6);
        assert!(
            (set.distance(&[100.0, 100.0, 0.0, 0.0]) - (50.0f64 * 50.0 * 2.0).sqrt()).abs() < 1e-6
        );
    }

    #[test]
    fn dykstra_converges_on_box_half_space_corner() {
        // Box [0,100]⁴ ∩ {x0 + x1 ≤ 120}; project a point violating both.
        let set = SafeSet::bounded_box([0, 0, 0, 0], [100, 100, 100, 100])
            .with_half_space([1, 1, 0, 0], 120);
        let p = set.project([300.0, 80.0, 0.0, 0.0]);
        assert!(set.contains(&p), "projection must land inside: {p:?}");
        // The true projection: clamp x0 to 100, then the plane pulls the
        // pair to x0 = 100, x1 = 20 (x0 stays pinned at its bound).
        assert!((p[0] - 100.0).abs() < 1e-5, "{p:?}");
        assert!((p[1] - 20.0).abs() < 1e-5, "{p:?}");
        // Projection of an interior point is the point itself.
        assert_eq!(set.project([10.0, 10.0, 5.0, 5.0]), [10.0, 10.0, 5.0, 5.0]);
    }

    #[test]
    fn controller_distance_decays_at_root_t() {
        let set = SafeSet::bounded_box([0, 0, 0, 0], [100, 1000, 1000, 1000]);
        let mut ctl = ApproachabilityController::new(set);
        // 10 adversarial rounds push the average out…
        for _ in 0..10 {
            ctl.observe(PayoffVector([900, 0, 0, 0]));
        }
        let peak = ctl.distance();
        assert!(peak > 0.0);
        // …then steered rounds at the far-side payoff bring it back; the
        // distance sequence never increases and beats the C/√t envelope
        // fitted at the peak.
        let t_peak = ctl.rounds() as f64;
        let c = peak * t_peak.sqrt();
        let mut prev = peak;
        for _ in 0..200 {
            ctl.observe(PayoffVector([0, 0, 0, 0]));
            let d = ctl.distance();
            assert!(d <= prev + 1e-9, "monotone under corrective payoffs");
            assert!(d <= c / (ctl.rounds() as f64).sqrt() + 1e-9);
            prev = d;
        }
        assert!(ctl.distance() < peak / 4.0);
    }

    #[test]
    fn choose_follows_the_correction_direction() {
        let set = SafeSet::bounded_box([0, 0, 0, 0], [100, 800, 1000, 1000]);
        let mut ctl = ApproachabilityController::new(set.clone());
        for _ in 0..5 {
            ctl.observe(PayoffVector([700, 100, 0, 0]));
        }
        // Deficit too high → pick the rung with the lowest deficit.
        assert_eq!(ctl.choose(&[[700, 100, 0, 0], [50, 700, 0, 0]]), Some(1));

        let mut ctl = ApproachabilityController::new(set.clone());
        for _ in 0..5 {
            ctl.observe(PayoffVector([0, 990, 0, 0]));
        }
        // Quality too low → pick the rung with the highest quality.
        assert_eq!(ctl.choose(&[[700, 100, 0, 0], [50, 990, 0, 0]]), Some(0));

        // Inside the set, or passive: no steering.
        let mut inside = ApproachabilityController::new(set.clone());
        inside.observe(PayoffVector([10, 10, 0, 0]));
        assert_eq!(inside.choose(&[[0; 4], [1; 4]]), None);
        let mut passive = ApproachabilityController::passive(set);
        for _ in 0..5 {
            passive.observe(PayoffVector([700, 100, 0, 0]));
        }
        assert!(passive.distance() > 0.0, "passive still tracks");
        assert_eq!(passive.choose(&[[0; 4], [1; 4]]), None);
    }

    /// The acceptance-criterion core: with the trivial safe set the
    /// controlled manager is byte-identical to its baseline rung —
    /// summaries *and* full traces, under both chaining variants.
    #[test]
    fn trivial_set_is_byte_identical_to_baseline() {
        let s = sys();
        let regions = compile_regions(&s);
        let overhead = OverheadModel::new(Time::from_ns(2), Time::from_ns(1));
        let cell = PayoffCell::new();
        let spec = PayoffSpec::for_system(&s);
        for chaining in [CycleChaining::WorkConserving, CycleChaining::ArrivalClamped] {
            let mut plain_trace = Trace::default();
            let plain = Engine::new(&s, LookupManager::new(&regions), overhead).run_cycles(
                6,
                s.final_deadline(),
                chaining,
                &mut ConstantExec::worst_case(s.table()),
                &mut plain_trace,
            );
            let manager = ControlledManager::new(
                standard_slate(&regions, &[], s.qualities().max()),
                ApproachabilityController::new(SafeSet::everything()),
            )
            .with_feed(&cell);
            let mut engine = Engine::new(&s, manager, overhead);
            let mut trace = Trace::default();
            let mut control_sink = ControlSink::new(&cell, spec);
            let mut tee = Tee(&mut trace, &mut control_sink);
            let controlled = engine.run_cycles(
                6,
                s.final_deadline(),
                chaining,
                &mut ConstantExec::worst_case(s.table()),
                &mut tee,
            );
            assert_eq!(controlled, plain, "{chaining:?}");
            for (a, b) in plain_trace.cycles.iter().zip(&trace.cycles) {
                assert_eq!(a.records, b.records, "{chaining:?}");
            }
            assert_eq!(engine.manager().rung_switches(), 0);
            assert_eq!(engine.manager().controller().steers(), 0);
            assert!(
                engine.manager().controller().rounds() > 0,
                "still observing"
            );
        }
    }

    /// Under a violating (slow) execution source the static baseline
    /// leaves the safe set; the steered slate returns: fewer misses and
    /// a strictly smaller final distance.
    #[test]
    fn steering_returns_to_the_safe_set_under_drift() {
        let s = sys();
        let regions = compile_regions(&s);
        let set = SafeSet::bounded_box([0, 0, 0, 0], [150, 1000, 1000, 1000]);
        let spec = PayoffSpec::for_system(&s);
        const CYCLES: usize = 60;
        // Contract-violating 1.8× drift of the *worst-case* times: the
        // stale table plans against wc, actuals run 1.8× over it, so the
        // static manager's feasible-looking plans blow the 55 ns
        // deadline. Only the q0 row (wc 10+12+8 = 30 → actual 53) still
        // fits — exactly what the deep-degrade rung buys.
        fn drifted(_c: usize, a: usize, q: Quality) -> Time {
            let base = match (a, q.index()) {
                (0, 0) => 10,
                (0, 1) => 25,
                (0, 2) => 40,
                (1, 0) => 12,
                (1, 1) => 22,
                (1, 2) => 35,
                (_, 0) => 8,
                (_, 1) => 18,
                (_, _) => 28,
            };
            Time::from_ns(base * 18 / 10)
        }

        // Static: passive tracking of the baseline's average.
        let static_cell = PayoffCell::new();
        let static_manager = ControlledManager::new(
            standard_slate(&regions, &[], s.qualities().max()),
            ApproachabilityController::passive(set.clone()),
        )
        .with_feed(&static_cell);
        let mut static_engine = Engine::new(&s, static_manager, OverheadModel::ZERO);
        let mut static_sink = ControlSink::new(&static_cell, spec);
        let static_run = static_engine.run_cycles(
            CYCLES,
            s.final_deadline(),
            CycleChaining::ArrivalClamped,
            &mut FnExec(drifted),
            &mut static_sink,
        );
        let static_dist = static_engine.manager().controller().distance();
        assert!(static_run.misses > 0, "drift must hurt the static manager");
        assert!(static_dist > 0.0, "static average must leave the set");

        // Controlled: same exec, active steering.
        let cell = PayoffCell::new();
        let manager = ControlledManager::new(
            standard_slate(&regions, &[], s.qualities().max()),
            ApproachabilityController::new(set),
        )
        .with_feed(&cell);
        let mut engine = Engine::new(&s, manager, OverheadModel::ZERO);
        let mut sink = ControlSink::new(&cell, spec);
        let run = engine.run_cycles(
            CYCLES,
            s.final_deadline(),
            CycleChaining::ArrivalClamped,
            &mut FnExec(drifted),
            &mut sink,
        );
        let m = engine.manager();
        assert!(m.rung_switches() >= 1, "the controller must intervene");
        let final_dist = m.controller().distance();
        assert!(
            final_dist < static_dist / 2.0,
            "steering must contract the distance: {final_dist} vs static {static_dist}"
        );
        assert!(
            run.misses < static_run.misses,
            "degraded cycles must stop the misses: {} vs {}",
            run.misses,
            static_run.misses
        );
        // And the convergence curve respects a C/√t envelope: fit C on
        // the first half (backlog carried by ArrivalClamped chaining
        // keeps the average worsening for a while), then every
        // second-half point must sit under it — the distance really has
        // to decay at the root-t rate, not merely trend down.
        let traj = m.controller().trajectory();
        let half = traj.len() / 2;
        let c = traj[..half]
            .iter()
            .enumerate()
            .map(|(i, &d)| d * ((i + 1) as f64).sqrt())
            .fold(0.0f64, f64::max);
        for (i, &d) in traj.iter().enumerate().skip(half) {
            assert!(
                d <= c / ((i + 1) as f64).sqrt() + 1e-9,
                "dist({}) = {d} above the C/√t envelope (C = {c})",
                i + 1
            );
        }
    }

    #[test]
    fn capped_manager_preserves_work_and_hold() {
        let s = sys();
        let regions = compile_regions(&s);
        let mut plain = LookupManager::new(&regions);
        let mut capped = CappedManager::new(LookupManager::new(&regions), Quality::MIN);
        let d0 = plain.decide(0, Time::ZERO);
        let d1 = capped.decide(0, Time::ZERO);
        assert_eq!(d1.work, d0.work);
        assert_eq!(d1.hold, d0.hold);
        assert!(d1.quality <= Quality::MIN.max(d0.quality));
        assert_eq!(d1.quality, Quality::MIN);
    }

    #[test]
    fn recommended_policy_tracks_the_violated_dimension() {
        let set = SafeSet::bounded_box([0, 0, 0, 0], [100, 1000, 100, 1000]);
        let mk = |g: [i64; 4]| {
            let mut m = ControlledManager::new(
                vec![Rung::new(GreedyMin, [0; 4])],
                ApproachabilityController::new(set.clone()),
            );
            for _ in 0..5 {
                m.observe(PayoffVector(g));
            }
            m
        };
        assert_eq!(mk([0, 0, 0, 0]).recommended_policy(), None);
        assert_eq!(
            mk([900, 0, 0, 0]).recommended_policy(),
            Some(OverloadPolicy::SkipToLatest)
        );
        assert_eq!(
            mk([0, 0, 900, 0]).recommended_policy(),
            Some(OverloadPolicy::Block)
        );
    }

    /// A minimal stand-in manager for controller-only tests.
    #[derive(Clone, Copy, Debug)]
    struct GreedyMin;
    impl QualityManager for GreedyMin {
        fn decide(&mut self, _state: usize, _t: Time) -> Decision {
            Decision {
                quality: Quality::MIN,
                hold: 1,
                work: 1,
                infeasible: false,
            }
        }
        fn name(&self) -> &'static str {
            "greedy-min"
        }
    }
}
