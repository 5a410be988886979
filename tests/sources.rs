//! Property tests for `sqm_core::source` — the arrival-source contracts
//! every downstream layer leans on:
//!
//! * every built-in source yields **non-decreasing** timestamps and is
//!   **seed-deterministic** (same seed → byte-identical sequence) over
//!   arbitrary periods, jitter bounds, burst sizes and frame counts;
//! * an [`ArrivalSpec`] is a faithful *recipe*: building it twice yields
//!   identical sources (the elastic runner's worker-count identity over
//!   every pattern lives in `tests/conformance.rs`);
//! * recording a source and replaying it through [`TraceReplay`]
//!   reproduces the live run exactly;
//! * [`ArrivalSource::peek`] is **transparent**: peeking never changes the
//!   sequence `next_arrival` yields — the contract the elastic
//!   scheduler's arrival queue is keyed on.
//!
//! (Folded out of `tests/streaming.rs`, which now owns only overload
//! behaviour; cross-path identities live in `tests/conformance.rs`.)

mod common;

use common::{arb_system, cycle_fraction_exec, OVERHEAD};
use proptest::prelude::*;
use speed_qm::core::prelude::*;

fn drain<A: ArrivalSource>(mut src: A) -> Vec<Time> {
    let mut out = Vec::new();
    while let Some(t) = src.next_arrival() {
        out.push(t);
    }
    out
}

/// Drain `src` while peeking (possibly several times) before every
/// consumption, checking peek-then-next ≡ next at each step.
fn drain_peeking<A: ArrivalSource>(mut src: A, peeks: usize) -> Vec<Time> {
    let mut out = Vec::new();
    loop {
        let peeked = src.peek();
        for _ in 1..peeks {
            assert_eq!(src.peek(), peeked, "peek is idempotent");
        }
        let next = src.next_arrival();
        assert_eq!(peeked, next, "peek-then-next yields the peeked value");
        match next {
            Some(t) => out.push(t),
            None => return out,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Jittered sequences: non-decreasing, non-negative, frame-complete,
    /// seed-deterministic, and confined to `nominal ± jitter` (modulo the
    /// monotonicity clamp, which can only raise a timestamp to its
    /// predecessor's).
    #[test]
    fn jittered_is_monotone_bounded_and_seed_deterministic(
        period_ns in 1i64..5_000,
        jitter_pct in 0i64..200,
        frames in 0usize..64,
        seed in 0u64..1_000,
    ) {
        let period = Time::from_ns(period_ns);
        let jitter = Time::from_ns(period_ns * jitter_pct / 100);
        let a = drain(Jittered::new(period, jitter, frames, seed));
        prop_assert_eq!(a.len(), frames);
        prop_assert!(a.windows(2).all(|w| w[0] <= w[1]), "non-decreasing");
        prop_assert!(a.iter().all(|t| *t >= Time::ZERO), "non-negative");
        let b = drain(Jittered::new(period, jitter, frames, seed));
        prop_assert_eq!(&a, &b, "same seed, same arrivals");
        for (i, t) in a.iter().enumerate() {
            let nominal = period_ns * i as i64;
            let in_band = (t.as_ns() - nominal).abs() <= jitter.as_ns();
            let clamped_up = i > 0 && *t == a[i - 1];
            prop_assert!(
                in_band || clamped_up,
                "frame {} at {} strays from {}±{}",
                i, t.as_ns(), nominal, jitter.as_ns()
            );
        }
    }

    /// Bursty sequences: non-decreasing, frame-complete,
    /// seed-deterministic, never ahead of the nominal rate's start grid,
    /// and degenerating to Periodic at burst size 1.
    #[test]
    fn bursty_is_monotone_rate_bound_and_seed_deterministic(
        period_ns in 1i64..5_000,
        max_burst in 1usize..9,
        frames in 0usize..96,
        seed in 0u64..1_000,
    ) {
        let period = Time::from_ns(period_ns);
        let a = drain(Bursty::new(period, max_burst, frames, seed));
        prop_assert_eq!(a.len(), frames);
        prop_assert!(a.windows(2).all(|w| w[0] <= w[1]), "non-decreasing");
        prop_assert!(a.iter().all(|t| *t >= Time::ZERO));
        let b = drain(Bursty::new(period, max_burst, frames, seed));
        prop_assert_eq!(&a, &b, "same seed, same arrivals");
        // The spacing budget is exact burst by burst, so no burst can
        // start after its frame-index grid point.
        for (i, t) in a.iter().enumerate() {
            prop_assert!(
                t.as_ns() <= period_ns * i as i64,
                "frame {} at {} is behind the rate grid",
                i, t.as_ns()
            );
        }
        if max_burst == 1 {
            prop_assert_eq!(a, drain(Periodic::new(period, frames)), "burst 1 = periodic");
        }
    }

    /// An `ArrivalSpec` is plain data: building it twice produces
    /// identical timestamp sequences for every variant.
    #[test]
    fn arrival_spec_build_is_reproducible(
        period_ns in 1i64..5_000,
        frames in 0usize..48,
        seed in 0u64..1_000,
        jitter_pct in 0u8..=100,
        max_burst in 1u8..9,
    ) {
        let period = Time::from_ns(period_ns);
        for spec in [
            ArrivalSpec::Periodic,
            ArrivalSpec::Jittered { jitter_pct },
            ArrivalSpec::Bursty { max_burst },
        ] {
            let a = drain(spec.build(period, frames, seed).unwrap());
            let b = drain(spec.build(period, frames, seed).unwrap());
            prop_assert_eq!(a, b, "{:?}", spec);
        }
        prop_assert!(ArrivalSpec::Closed.build(period, frames, seed).is_none());
    }

    /// `peek` is transparent for every source kind, period, seed and
    /// frame count: a drain that peeks (once or repeatedly) before every
    /// `next_arrival` yields exactly the sequence a plain drain yields.
    /// RNG-backed sources materialize their pending draw on first peek —
    /// this pins that buffering to be invisible.
    #[test]
    fn peek_is_transparent_for_every_source_kind(
        period_ns in 1i64..5_000,
        jitter_pct in 0u8..=100,
        max_burst in 1u8..9,
        frames in 0usize..48,
        seed in 0u64..1_000,
        peeks in 1usize..4,
    ) {
        let period = Time::from_ns(period_ns);
        let jitter = Time::from_ns(period_ns * jitter_pct as i64 / 100);

        prop_assert_eq!(
            drain_peeking(Periodic::new(period, frames), peeks),
            drain(Periodic::new(period, frames))
        );
        prop_assert_eq!(
            drain_peeking(Jittered::new(period, jitter, frames, seed), peeks),
            drain(Jittered::new(period, jitter, frames, seed))
        );
        prop_assert_eq!(
            drain_peeking(Bursty::new(period, max_burst as usize, frames, seed), peeks),
            drain(Bursty::new(period, max_burst as usize, frames, seed))
        );
        let times = drain(Jittered::new(period, jitter, frames, seed));
        prop_assert_eq!(
            drain_peeking(TraceReplay::new(times.clone()), peeks),
            times
        );
        for spec in [
            ArrivalSpec::Periodic,
            ArrivalSpec::Jittered { jitter_pct },
            ArrivalSpec::Bursty { max_burst },
        ] {
            prop_assert_eq!(
                drain_peeking(spec.build(period, frames, seed).unwrap(), peeks),
                drain(spec.build(period, frames, seed).unwrap()),
                "{:?}", spec
            );
        }
    }

    /// Replaying a source's recorded timestamps through `TraceReplay`
    /// reproduces the original run byte-for-byte.
    #[test]
    fn trace_replay_reproduces_the_live_run(arb in arb_system(), frames in 1usize..16) {
        let sys = &arb.system;
        let policy = MixedPolicy::new(sys);
        let period = sys.final_deadline();
        let jitter = Time::from_ns(period.as_ns() / 4);
        let times = drain(Jittered::new(period, jitter, frames, 23));
        let config = StreamConfig::live(2, OverloadPolicy::DropNewest);
        let live = StreamingRunner::new(config).run(
            &mut Engine::new(sys, NumericManager::new(sys, &policy), OVERHEAD),
            &mut Jittered::new(period, jitter, frames, 23),
            &mut cycle_fraction_exec(sys, &arb.fractions),
            &mut NullSink,
        );
        let replayed = StreamingRunner::new(config).run(
            &mut Engine::new(sys, NumericManager::new(sys, &policy), OVERHEAD),
            &mut TraceReplay::new(times),
            &mut cycle_fraction_exec(sys, &arb.fractions),
            &mut NullSink,
        );
        prop_assert_eq!(live, replayed);
    }
}
