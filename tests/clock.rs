//! Property tests for the real-time-clock model: quantization edges of
//! [`RtClock`] and per-seed determinism of the quantized
//! [`ClockedManager`] stack.

use proptest::prelude::*;
use speed_qm::core::manager::LookupManager;
use speed_qm::core::prelude::*;
use speed_qm::platform::clock::RtClock;
use speed_qm::platform::exec::StochasticExec;
use speed_qm::platform::faults::{ClockRounding, ClockedManager};
use speed_qm::platform::load::ConstantLoad;

fn sys() -> ParameterizedSystem {
    SystemBuilder::new(3)
        .action("a", &[100, 250, 400], &[40, 90, 140])
        .action("b", &[120, 220, 350], &[60, 110, 170])
        .action("c", &[80, 180, 280], &[30, 80, 120])
        .deadline_last(Time::from_ns(1_000))
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The quantization sandwich: for any quantum and any time (negative
    /// times included — region bounds live on the full axis),
    /// `quantize_down(t) ≤ t ≤ quantize_up(t)`, both ends are multiples
    /// of the quantum, and the window they span is at most one quantum
    /// wide.
    #[test]
    fn quantization_sandwich(quantum_ns in 1i64..=1024, t_ns in -10_000i64..=10_000) {
        let rt = RtClock::new(Time::from_ns(quantum_ns), Time::ZERO);
        let t = Time::from_ns(t_ns);
        let down = rt.quantize_down(t);
        let up = rt.quantize_up(t);
        prop_assert!(down <= t && t <= up, "sandwich broken: {down} ≤ {t} ≤ {up}");
        prop_assert_eq!(down.as_ns().rem_euclid(quantum_ns), 0);
        prop_assert_eq!(up.as_ns().rem_euclid(quantum_ns), 0);
        prop_assert!(up.as_ns() - down.as_ns() <= quantum_ns);
        // Quantization is idempotent: a quantized reading re-quantizes to
        // itself in either direction.
        prop_assert_eq!(rt.quantize_down(down), down);
        prop_assert_eq!(rt.quantize_up(down), down);
        prop_assert_eq!(rt.quantize_down(up), up);
        prop_assert_eq!(rt.quantize_up(up), up);
    }

    /// Exact multiples of the quantum are fixpoints of both roundings —
    /// the edge where `rem_euclid == 0` must not push a reading a whole
    /// quantum forward.
    #[test]
    fn exact_quantum_fixpoints(quantum_ns in 1i64..=1024, k in -64i64..=64) {
        let rt = RtClock::new(Time::from_ns(quantum_ns), Time::ZERO);
        let t = Time::from_ns(k * quantum_ns);
        prop_assert_eq!(rt.quantize_down(t), t);
        prop_assert_eq!(rt.quantize_up(t), t);
        // One tick past the fixpoint rounds back down / on up.
        let t1 = Time::from_ns(k * quantum_ns + 1);
        prop_assert_eq!(rt.quantize_down(t1), t);
        prop_assert_eq!(rt.quantize_up(t1), Time::from_ns((k + 1) * quantum_ns));
    }

    /// A `ClockedManager` over a seeded stochastic source is a pure
    /// function of `(seed, quantum, rounding)`: replaying the identical
    /// configuration reproduces the identical quality sequence and
    /// per-cycle stats.
    #[test]
    fn clocked_manager_is_deterministic_per_seed(
        seed in 0u64..=1_000_000,
        quantum_ns in 1i64..=512,
        round_up in proptest::strategy::any::<bool>(),
    ) {
        let s = sys();
        let regions = compile_regions(&s);
        let rounding = if round_up { ClockRounding::Up } else { ClockRounding::Down };
        let run = || {
            let clock = RtClock::new(Time::from_ns(quantum_ns), Time::ZERO);
            let m = ClockedManager::new(LookupManager::new(&regions), clock, rounding, 3);
            let mut engine = Engine::new(&s, m, OverheadModel::new(Time::from_ns(2), Time::from_ns(1)));
            let mut exec = StochasticExec::new(s.table(), ConstantLoad(1.0), 0.3, seed);
            let mut trace = Trace::default();
            for cycle in 0..6 {
                engine.run_cycle(cycle, Time::ZERO, &mut exec, &mut trace);
            }
            let qualities: Vec<usize> =
                trace.cycles.iter().flat_map(|c| c.quality_sequence()).collect();
            (qualities, trace.run_summary().misses)
        };
        let first = run();
        let second = run();
        prop_assert_eq!(&first, &second, "same seed must replay identically");
    }
}
