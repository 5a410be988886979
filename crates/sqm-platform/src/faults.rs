//! Fault injection and platform imperfections.
//!
//! The paper's safety result assumes exact clocks and honoured worst-case
//! estimates; real platforms deliver neither for free. This module wraps
//! execution sources and managers with the imperfections an embedded
//! deployment actually faces, so the test suite can check which ones the
//! method absorbs and which ones must be paid for by inflating `Cwc`:
//!
//! * [`PreemptionExec`] — sporadic preemption delays added to action times
//!   (an interrupt handler stealing the CPU);
//! * [`DriftExec`] — a systematically slow/fast platform (every action
//!   scaled by a constant factor);
//! * [`ClockedManager`] — the manager observes time only through a
//!   quantized [`RtClock`] reading, conservative (rounded up) or raw
//!   (rounded down).

use crate::clock::RtClock;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqm_core::action::ActionId;
use sqm_core::controller::ExecutionTimeSource;
use sqm_core::manager::{Decision, QualityManager};
use sqm_core::quality::Quality;
use sqm_core::time::Time;

/// Adds random preemption delays on top of an execution source. Each
/// action is preempted with probability `p`, for a uniformly-drawn delay
/// in `[0, max_delay]`. Preemption time is *not* bounded by `Cwc`, so a
/// deployment must absorb it via worst-case inflation.
///
/// # Examples
///
/// ```
/// use sqm_core::controller::{ConstantExec, ExecutionTimeSource};
/// use sqm_core::quality::Quality;
/// use sqm_core::system::SystemBuilder;
/// use sqm_core::time::Time;
/// use sqm_platform::faults::PreemptionExec;
///
/// let sys = SystemBuilder::new(2)
///     .action("decode", &[100, 200], &[60, 120])
///     .deadline_last(Time::from_ns(300))
///     .build()
///     .unwrap();
///
/// // Every action preempted (p = 1.0) for at most 50 ns.
/// let mut exec = PreemptionExec::new(
///     ConstantExec::average(sys.table()),
///     1.0,
///     Time::from_ns(50),
///     42,
/// );
/// let t = exec.actual(0, 0, Quality::new(0));
/// assert!(t >= Time::from_ns(60) && t <= Time::from_ns(110));
/// ```
pub struct PreemptionExec<E> {
    inner: E,
    p: f64,
    max_delay: Time,
    rng: StdRng,
}

impl<E> PreemptionExec<E> {
    /// Wrap `inner` with preemptions.
    pub fn new(inner: E, p: f64, max_delay: Time, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        assert!(max_delay >= Time::ZERO);
        PreemptionExec {
            inner,
            p,
            max_delay,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl<E: ExecutionTimeSource> ExecutionTimeSource for PreemptionExec<E> {
    fn actual(&mut self, cycle: usize, action: ActionId, q: Quality) -> Time {
        let base = self.inner.actual(cycle, action, q);
        if self.rng.gen_bool(self.p) {
            base + Time::from_ns(self.rng.gen_range(0..=self.max_delay.as_ns().max(0)))
        } else {
            base
        }
    }
}

/// Scales every actual time by a constant factor — a platform that is
/// systematically slower (`factor > 1`) or faster (`< 1`) than profiled.
///
/// A factor above `Cwc/Cav` breaks the execution contract `C ≤ Cwc`, which
/// is exactly the drift the online-recalibration pair
/// (`sqm_platform::recalib`) is built to absorb.
///
/// # Examples
///
/// ```
/// use sqm_core::controller::{ConstantExec, ExecutionTimeSource};
/// use sqm_core::quality::Quality;
/// use sqm_core::system::SystemBuilder;
/// use sqm_core::time::Time;
/// use sqm_platform::faults::DriftExec;
///
/// let sys = SystemBuilder::new(2)
///     .action("decode", &[100, 200], &[60, 120])
///     .deadline_last(Time::from_ns(300))
///     .build()
///     .unwrap();
///
/// // A platform running 1.5× slower than profiled: Cav 60 → 90 ns.
/// let mut slow = DriftExec::new(ConstantExec::average(sys.table()), 1.5);
/// assert_eq!(slow.actual(0, 0, Quality::new(0)), Time::from_ns(90));
/// ```
pub struct DriftExec<E> {
    inner: E,
    factor: f64,
}

impl<E> DriftExec<E> {
    /// Wrap `inner` with a speed drift.
    pub fn new(inner: E, factor: f64) -> Self {
        assert!(factor > 0.0);
        DriftExec { inner, factor }
    }
}

impl<E: ExecutionTimeSource> ExecutionTimeSource for DriftExec<E> {
    fn actual(&mut self, cycle: usize, action: ActionId, q: Quality) -> Time {
        let base = self.inner.actual(cycle, action, q).as_ns() as f64;
        Time::from_ns((base * self.factor).round() as i64)
    }
}

/// Rounding direction for [`ClockedManager`] observations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClockRounding {
    /// Conservative: observed time ≥ true time; quantization can lower
    /// quality but never admits an unsafe choice.
    Up,
    /// Raw counter: observed time ≤ true time; **optimistic** — only safe
    /// with worst cases inflated by at least one quantum.
    Down,
}

/// A manager that sees time only through a quantized clock reading, and
/// whose per-decision work is increased by `read_work` units (the clock
/// read the paper's BIP/Think implementation pays on every invocation).
pub struct ClockedManager<M> {
    inner: M,
    clock: RtClock,
    rounding: ClockRounding,
    read_work: u64,
}

impl<M> ClockedManager<M> {
    /// Wrap `inner` behind `clock`.
    pub fn new(inner: M, clock: RtClock, rounding: ClockRounding, read_work: u64) -> Self {
        ClockedManager {
            inner,
            clock,
            rounding,
            read_work,
        }
    }
}

impl<M: QualityManager> QualityManager for ClockedManager<M> {
    fn decide(&mut self, state: usize, t: Time) -> Decision {
        let observed = match self.rounding {
            ClockRounding::Up => self.clock.quantize_up(t),
            ClockRounding::Down => self.clock.quantize_down(t),
        };
        let mut d = self.inner.decide(state, observed);
        d.work += self.read_work;
        d
    }

    fn name(&self) -> &'static str {
        "clocked"
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqm_core::controller::{ConstantExec, FnExec, OverheadModel};
    use sqm_core::engine::{Engine, NullSink};
    use sqm_core::manager::NumericManager;
    use sqm_core::policy::MixedPolicy;
    use sqm_core::system::{ParameterizedSystem, SystemBuilder};
    use sqm_core::trace::Trace;

    fn sys() -> ParameterizedSystem {
        SystemBuilder::new(3)
            .action("a", &[100, 250, 400], &[40, 90, 140])
            .action("b", &[120, 220, 350], &[60, 110, 170])
            .action("c", &[80, 180, 280], &[30, 80, 120])
            .action("d", &[150, 240, 330], &[70, 120, 160])
            .deadline_last(Time::from_ns(1_300))
            .build()
            .unwrap()
    }

    #[test]
    fn preemption_only_adds_time() {
        let s = sys();
        let collect = |p: f64| -> Vec<i64> {
            let mut e =
                PreemptionExec::new(ConstantExec::average(s.table()), p, Time::from_ns(50), 3);
            (0..4)
                .map(|a| e.actual(0, a, Quality::new(1)).as_ns())
                .collect()
        };
        let clean = collect(0.0);
        let noisy = collect(1.0);
        for (c, n) in clean.iter().zip(&noisy) {
            assert!(n >= c && *n <= c + 50);
        }
    }

    #[test]
    fn drift_scales_times() {
        let s = sys();
        let mut e = DriftExec::new(ConstantExec::average(s.table()), 1.5);
        assert_eq!(e.actual(0, 0, Quality::new(0)), Time::from_ns(60));
        let mut e = DriftExec::new(ConstantExec::average(s.table()), 0.5);
        assert_eq!(e.actual(0, 0, Quality::new(0)), Time::from_ns(20));
    }

    #[test]
    fn conservative_clock_preserves_safety() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let clock = RtClock::new(Time::from_ns(64), Time::ZERO);
        let m = ClockedManager::new(NumericManager::new(&s, &p), clock, ClockRounding::Up, 5);
        let summary = Engine::new(&s, m, OverheadModel::ZERO).run_cycle(
            0,
            Time::ZERO,
            &mut ConstantExec::worst_case(s.table()),
            &mut NullSink,
        );
        assert_eq!(summary.misses, 0, "up-rounding can only lower quality");
    }

    #[test]
    fn conservative_clock_never_chooses_higher_than_exact() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let clock = RtClock::new(Time::from_ns(128), Time::ZERO);
        for t_ns in 0..600 {
            let t = Time::from_ns(t_ns);
            let exact = NumericManager::new(&s, &p).decide(1, t);
            let clocked =
                ClockedManager::new(NumericManager::new(&s, &p), clock, ClockRounding::Up, 0)
                    .decide(1, t);
            assert!(clocked.quality <= exact.quality, "t = {t}");
        }
    }

    #[test]
    fn raw_counter_can_break_safety_on_tight_margins() {
        // A system whose region boundary falls mid-quantum: the raw-counter
        // manager believes it is earlier than it is, picks the higher
        // quality, and the worst case then misses the deadline.
        // tD(s1, q1) = 502 − 201 = 301; the first action ends at true
        // t = 310 (within its 350 worst case), observed ⌊310⌋₅₀ = 300.
        let s = SystemBuilder::new(2)
            .action("a", &[350, 350], &[310, 310])
            .action("b", &[100, 201], &[100, 201])
            .deadline_last(Time::from_ns(502))
            .build()
            .unwrap();
        let p = MixedPolicy::new(&s);
        let clock = RtClock::new(Time::from_ns(50), Time::ZERO);
        let m = ClockedManager::new(NumericManager::new(&s, &p), clock, ClockRounding::Down, 0);
        let table = s.table().clone();
        let mut exec = FnExec(move |_c, a: usize, q| {
            if a == 0 {
                Time::from_ns(310)
            } else {
                table.wc(a, q)
            }
        });
        let mut trace = Trace::default();
        let summary =
            Engine::new(&s, m, OverheadModel::ZERO).run_cycle(0, Time::ZERO, &mut exec, &mut trace);
        assert!(
            summary.misses > 0,
            "down-rounding admitted an unsafe quality: {:?}",
            trace.cycles[0].quality_sequence()
        );
    }

    #[test]
    fn read_work_is_charged() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let base = NumericManager::new(&s, &p).decide(0, Time::ZERO);
        let clocked = ClockedManager::new(
            NumericManager::new(&s, &p),
            RtClock::IDEAL,
            ClockRounding::Up,
            7,
        )
        .decide(0, Time::ZERO);
        assert_eq!(clocked.work, base.work + 7);
        assert_eq!(clocked.quality, base.quality);
    }
}
