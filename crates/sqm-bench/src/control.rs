//! Drifting-load scenario matrix for the approachability control layer.
//!
//! Every scenario runs the same workload twice against the same seeded,
//! shape-drifted execution source: once **static** (the plain baseline
//! manager, with a *passive* controller tracking where its average
//! payoff goes) and once **controlled** (an active
//! [`ControlledManager`] steering the [`standard_slate`]). The matrix is
//! workloads × [`DriftShape`]s; the claims it backs:
//!
//! * under contract-violating drift the static manager's average payoff
//!   demonstrably leaves the safe set ([`ControlOutcome::static_exited`]);
//! * the controller returns toward it — strictly smaller final distance
//!   — with the excursion decaying inside a `C/√t` envelope fitted on
//!   the first half of the run ([`ControlOutcome::envelope_ok`]);
//! * after a step change the controller recovers within a measured
//!   number of cycles ([`ControlOutcome::recovery_cycles`]).
//!
//! Drift factors are precomputed per cycle from the scenario seed, so a
//! scenario is a pure function of `(workload, shape, seed)` — same
//! determinism contract as every other run in the workspace.

use sqm_core::action::ActionId;
use sqm_core::control::{
    standard_slate, ApproachabilityController, ControlSink, ControlledManager, PayoffCell,
    PayoffSpec, SafeSet, DIM_OVERHEAD, DIM_SLACK,
};
use sqm_core::controller::ExecutionTimeSource;
use sqm_core::engine::{CycleChaining, Engine, NullSink};
use sqm_core::manager::LookupManager;
use sqm_core::quality::Quality;
use sqm_core::time::Time;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::workload::{Workload, JITTER};

/// How the platform drifts over the run. All shapes start on-model
/// (factor 1000 permille) and reach the scenario's peak factor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriftShape {
    /// Linear ramp from on-model to the peak over the first half of the
    /// run, holding the peak thereafter.
    Ramp,
    /// On-model for the first third, then a hard step to the peak.
    Step,
    /// Seeded random walk between on-model and the peak.
    RandomWalk,
    /// Worst-case replay: alternating on-model / peak blocks of 4
    /// cycles — the adversary that maximally punishes averaging.
    Adversarial,
}

impl DriftShape {
    /// All shapes, matrix order.
    pub const ALL: [DriftShape; 4] = [
        DriftShape::Ramp,
        DriftShape::Step,
        DriftShape::RandomWalk,
        DriftShape::Adversarial,
    ];

    /// Short label for artifacts and traces.
    pub fn label(self) -> &'static str {
        match self {
            DriftShape::Ramp => "ramp",
            DriftShape::Step => "step",
            DriftShape::RandomWalk => "walk",
            DriftShape::Adversarial => "adversarial",
        }
    }

    /// The per-cycle drift factors in permille, `cycles` long.
    pub fn factors(self, cycles: usize, peak_permille: i64, seed: u64) -> Vec<i64> {
        let peak = peak_permille.max(1000);
        match self {
            DriftShape::Ramp => {
                let half = (cycles / 2).max(1);
                (0..cycles)
                    .map(|c| 1000 + (peak - 1000) * c.min(half) as i64 / half as i64)
                    .collect()
            }
            DriftShape::Step => (0..cycles)
                .map(|c| if c < cycles / 3 { 1000 } else { peak })
                .collect(),
            DriftShape::RandomWalk => {
                let mut rng = StdRng::seed_from_u64(seed);
                let step = ((peak - 1000) / 6).max(1);
                let mut f = 1000i64;
                (0..cycles)
                    .map(|_| {
                        f = (f + rng.gen_range(-step..step + 1)).clamp(1000, peak);
                        f
                    })
                    .collect()
            }
            DriftShape::Adversarial => (0..cycles)
                .map(|c| if (c / 4) % 2 == 0 { 1000 } else { peak })
                .collect(),
        }
    }
}

/// An [`ExecutionTimeSource`] that scales the wrapped source's times by
/// the cycle's precomputed permille factor. Cycles past the factor list
/// hold the final factor, so run length never changes the shape.
#[derive(Debug)]
pub struct ShapedExec<E> {
    inner: E,
    factors: Vec<i64>,
}

impl<E: ExecutionTimeSource> ShapedExec<E> {
    /// Scale `inner` by `factors` (permille, indexed by cycle).
    pub fn new(inner: E, factors: Vec<i64>) -> ShapedExec<E> {
        assert!(!factors.is_empty(), "at least one factor");
        ShapedExec { inner, factors }
    }

    /// The factor applied to cycle `c`.
    pub fn factor(&self, c: usize) -> i64 {
        self.factors[c.min(self.factors.len() - 1)]
    }
}

impl<E: ExecutionTimeSource> ExecutionTimeSource for ShapedExec<E> {
    fn actual(&mut self, cycle: usize, action: ActionId, q: Quality) -> Time {
        let t = self.inner.actual(cycle, action, q);
        Time::from_ns(t.as_ns() * self.factor(cycle) / 1000)
    }
}

/// One scenario of the matrix: a drift shape over a fixed number of
/// cycles at a workload-derived peak factor.
#[derive(Clone, Copy, Debug)]
pub struct ControlScenario {
    /// The drift shape.
    pub shape: DriftShape,
    /// Run length in cycles.
    pub cycles: usize,
    /// Seed for the shape (random walk) and the execution source.
    pub seed: u64,
}

impl ControlScenario {
    /// The default matrix row: 60 cycles at seed 11.
    pub fn new(shape: DriftShape) -> ControlScenario {
        ControlScenario {
            shape,
            cycles: 60,
            seed: 11,
        }
    }
}

/// What one scenario measured.
#[derive(Clone, Debug)]
pub struct ControlOutcome {
    /// Workload label.
    pub workload: &'static str,
    /// Drift shape label.
    pub shape: &'static str,
    /// Peak drift factor used (permille).
    pub peak_permille: i64,
    /// Whether the static manager's average payoff left the safe set.
    pub static_exited: bool,
    /// `dist(ḡ, S)` of the static run after the final cycle.
    pub static_final_dist: f64,
    /// Largest `dist(ḡ, S)` the static run reached.
    pub static_peak_dist: f64,
    /// `dist(ḡ, S)` of the controlled run after the final cycle.
    pub controlled_final_dist: f64,
    /// Largest `dist(ḡ, S)` the controlled run reached.
    pub controlled_peak_dist: f64,
    /// Deadline misses, static run.
    pub static_misses: usize,
    /// Deadline misses, controlled run.
    pub controlled_misses: usize,
    /// Rung switches the controller made.
    pub switches: u64,
    /// The `C` of the controlled run's `C/√t` envelope (fitted on the
    /// first half of the trajectory).
    pub envelope_c: f64,
    /// Whether every second-half distance sat under `C/√t`.
    pub envelope_ok: bool,
    /// Step shape only: cycles from the step until the controlled
    /// distance fell back to its pre-step level.
    pub recovery_cycles: Option<usize>,
    /// The controlled run's per-cycle `dist(ḡ(t), S)` curve.
    pub trajectory: Vec<f64>,
}

/// The safe set the matrix steers toward: slack deficit ≤ 25 milli
/// (≥ 97.5 % of actions on time) and decision overhead ≤ 500 milli
/// (box), plus the coupling half-space `slack + overhead ≤ 480` —
/// quality and drops unconstrained, so the controller is free to buy
/// slack with quality.
pub fn matrix_safe_set() -> SafeSet {
    let mut hi = [1000i64; 4];
    hi[DIM_SLACK] = 25;
    hi[DIM_OVERHEAD] = 500;
    let mut normal = [0i64; 4];
    normal[DIM_SLACK] = 1;
    normal[DIM_OVERHEAD] = 1;
    SafeSet::bounded_box([0, 0, 0, 0], hi).with_half_space(normal, 480)
}

/// The peak drift factor for `w`, chosen so the scenario is *both*
/// contract-violating and recoverable:
///
/// * violating — at least `1.25 · maxₐ,q(Cwc/Cav)`, so the drifted
///   averages overrun the worst cases the static manager plans with;
/// * recoverable — at most the factor at which a full floor-quality
///   cycle still fits 85 % of the period, so the slate's deep-degrade
///   rung has somewhere safe to steer to (Blackwell's reachability
///   precondition).
pub fn violating_peak_permille<W: Workload>(w: &W) -> i64 {
    let sys = w.system();
    let table = sys.table();
    let mut ratio = 1000i64;
    let mut sum_av_min = 0i64;
    for a in 0..sys.n_actions() {
        for q in sys.qualities().iter() {
            let av = table.av(a, q).as_ns().max(1);
            let wc = table.wc(a, q).as_ns();
            ratio = ratio.max(1000 * wc / av);
        }
        sum_av_min += table.av(a, Quality::MIN).as_ns();
    }
    let violate = ratio * 5 / 4;
    let recover = 850 * w.period().as_ns() / sum_av_min.max(1);
    violate.min(recover).max(1200)
}

/// Run one scenario of the matrix on `w`: static (passive tracking) vs
/// controlled (active steering), identical seeded drifted sources.
pub fn run_control_scenario<W: Workload>(w: &W, sc: &ControlScenario) -> ControlOutcome {
    let sys = w.system();
    let regions = w.regions();
    let overhead = w.overhead();
    let set = matrix_safe_set();
    let spec = PayoffSpec::for_system(sys).with_period(w.period());
    let peak = violating_peak_permille(w);
    let factors = sc.shape.factors(sc.cycles, peak, sc.seed);

    // Static run: plain baseline manager; a passive controller fed by the
    // same sink records where its average goes.
    let static_cell = PayoffCell::new();
    let mut static_ctl = ApproachabilityController::passive(set.clone());
    let mut static_exec = ShapedExec::new(w.exec_source(JITTER, sc.seed), factors.clone());
    let mut static_sink = ControlSink::new(&static_cell, spec);
    let static_run = Engine::new(sys, LookupManager::new(regions), overhead).run_cycles(
        sc.cycles,
        w.period(),
        CycleChaining::ArrivalClamped,
        &mut static_exec,
        &mut static_sink,
    );
    let mut drained = Vec::new();
    static_cell.drain_into(&mut drained);
    for g in drained.drain(..) {
        static_ctl.observe(g);
    }
    let static_traj = static_ctl.trajectory();
    let static_peak_dist = static_traj.iter().copied().fold(0.0f64, f64::max);

    // Controlled run: active steering over the standard slate, same
    // seeded drifted source.
    let cell = PayoffCell::new();
    let manager = ControlledManager::new(
        standard_slate(regions, &[], sys.qualities().max()),
        ApproachabilityController::new(set),
    )
    .with_feed(&cell);
    let mut engine = Engine::new(sys, manager, overhead);
    let mut exec = ShapedExec::new(w.exec_source(JITTER, sc.seed), factors);
    let mut sink = ControlSink::new(&cell, spec);
    let run = engine.run_cycles(
        sc.cycles,
        w.period(),
        CycleChaining::ArrivalClamped,
        &mut exec,
        &mut sink,
    );
    // The final cycle's payoff is still queued; fold it so the recorded
    // trajectory covers every cycle.
    cell.drain_into(&mut drained);
    let m = engine.manager();
    for g in drained.drain(..) {
        m.observe(g);
    }
    let trajectory = m.controller().trajectory().to_vec();
    let controlled_peak_dist = trajectory.iter().copied().fold(0.0f64, f64::max);

    // C/√t envelope: fit C over the first three quarters (the step
    // shapes put their excursion peak past the midpoint), allow the
    // theorem's constant a 2× fitting slack, then every tail-quarter
    // distance must sit under C/√t — the decay rate is what's checked,
    // not the constant.
    let fit = trajectory.len() * 3 / 4;
    let envelope_c = 2.0
        * trajectory[..fit]
            .iter()
            .enumerate()
            .map(|(i, &d)| d * ((i + 1) as f64).sqrt())
            .fold(0.0f64, f64::max);
    let envelope_ok = trajectory
        .iter()
        .enumerate()
        .skip(fit)
        .all(|(i, &d)| d <= envelope_c / ((i + 1) as f64).sqrt() + 1e-9);

    // Step recovery: cycles from the step until the distance has come
    // back down to within 5 % of its pre-step level (measured from the
    // post-step excursion peak, so the climb itself doesn't count as
    // "recovered").
    let recovery_cycles = if sc.shape == DriftShape::Step {
        let at = sc.cycles / 3;
        let before = trajectory.get(at).copied().unwrap_or(0.0);
        let peak_idx = trajectory
            .iter()
            .enumerate()
            .skip(at)
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(at);
        let peak = trajectory[peak_idx];
        let threshold = before + 0.05 * (peak - before);
        trajectory
            .iter()
            .enumerate()
            .skip(peak_idx)
            .find(|(_, &d)| d <= threshold + 1e-9)
            .map(|(i, _)| i - at)
    } else {
        None
    };

    ControlOutcome {
        workload: w.label(),
        shape: sc.shape.label(),
        peak_permille: peak,
        static_exited: static_peak_dist > 0.0,
        static_final_dist: static_traj.last().copied().unwrap_or(0.0),
        static_peak_dist,
        controlled_final_dist: trajectory.last().copied().unwrap_or(0.0),
        controlled_peak_dist,
        static_misses: static_run.misses,
        controlled_misses: run.misses,
        switches: m.rung_switches(),
        envelope_c,
        envelope_ok,
        recovery_cycles,
        trajectory,
    }
}

/// Run the whole matrix for `w` (all four shapes at the default length).
pub fn run_control_matrix<W: Workload>(w: &W) -> Vec<ControlOutcome> {
    DriftShape::ALL
        .iter()
        .map(|&shape| run_control_scenario(w, &ControlScenario::new(shape)))
        .collect()
}

/// Byte-identity check backing the trivial-set gate: the controlled
/// manager over [`SafeSet::everything`] must reproduce the plain
/// baseline's `RunSummary` exactly on the serial path (the conformance
/// suite extends this to streaming, fleet and elastic). Panics with the
/// differing summaries on violation.
pub fn assert_trivial_set_identity<W: Workload>(w: &W, cycles: usize, seed: u64) {
    for chaining in [CycleChaining::WorkConserving, CycleChaining::ArrivalClamped] {
        let plain = Engine::new(w.system(), LookupManager::new(w.regions()), w.overhead())
            .run_cycles(
                cycles,
                w.period(),
                chaining,
                &mut w.exec_source(JITTER, seed),
                &mut NullSink,
            );
        let cell = PayoffCell::new();
        let manager = ControlledManager::new(
            standard_slate(w.regions(), &[], w.system().qualities().max()),
            ApproachabilityController::new(SafeSet::everything()),
        )
        .with_feed(&cell);
        let spec = PayoffSpec::for_system(w.system()).with_period(w.period());
        let mut engine = Engine::new(w.system(), manager, w.overhead());
        let mut sink = ControlSink::new(&cell, spec);
        let controlled = engine.run_cycles(
            cycles,
            w.period(),
            chaining,
            &mut w.exec_source(JITTER, seed),
            &mut sink,
        );
        assert_eq!(
            controlled,
            plain,
            "{} {chaining:?}: trivial-set controlled run diverged",
            w.label()
        );
        assert_eq!(engine.manager().rung_switches(), 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::PaperExperiment;
    use crate::net::NetExperiment;
    use sqm_core::relaxation::StepSet;
    use sqm_mpeg::EncoderConfig;

    fn mpeg_tiny() -> PaperExperiment {
        PaperExperiment::with_config_and_rho(
            EncoderConfig::tiny(3),
            StepSet::new(vec![1, 2, 3, 4]).unwrap(),
        )
    }

    #[test]
    fn shapes_are_deterministic_and_bounded() {
        for shape in DriftShape::ALL {
            let a = shape.factors(40, 1800, 7);
            let b = shape.factors(40, 1800, 7);
            assert_eq!(a, b, "{shape:?} must be a pure function of the seed");
            assert!(a.iter().all(|&f| (1000..=1800).contains(&f)), "{shape:?}");
            assert_eq!(a[0], 1000, "{shape:?} starts on-model");
        }
        assert_ne!(
            DriftShape::RandomWalk.factors(40, 1800, 7),
            DriftShape::RandomWalk.factors(40, 1800, 8),
            "walk must depend on the seed"
        );
    }

    #[test]
    fn trivial_set_identity_holds_for_mpeg() {
        assert_trivial_set_identity(&mpeg_tiny(), 4, 11);
    }

    #[test]
    fn step_scenario_static_exits_controller_returns() {
        let w = mpeg_tiny();
        let out = run_control_scenario(&w, &ControlScenario::new(DriftShape::Step));
        assert!(out.static_exited, "static average must leave the set");
        assert!(
            out.envelope_ok,
            "controlled distance must decay at C/sqrt(t)"
        );
        assert!(
            out.controlled_final_dist < out.static_final_dist,
            "controller must end closer to the set: {} vs {}",
            out.controlled_final_dist,
            out.static_final_dist
        );
        assert!(out.switches >= 1, "the controller must actually steer");
    }

    #[test]
    fn matrix_runs_for_net_workload() {
        let outcomes = run_control_matrix(&NetExperiment::tiny(3));
        assert_eq!(outcomes.len(), 4);
        for out in &outcomes {
            assert!(out.static_exited, "{}/{}", out.workload, out.shape);
            assert!(out.envelope_ok, "{}/{}", out.workload, out.shape);
            assert!(
                out.controlled_final_dist < out.static_final_dist,
                "{}/{}: {} vs {}",
                out.workload,
                out.shape,
                out.controlled_final_dist,
                out.static_final_dist
            );
            assert!(
                out.controlled_misses < out.static_misses,
                "{}/{}: {} vs {}",
                out.workload,
                out.shape,
                out.controlled_misses,
                out.static_misses
            );
        }
    }
}
