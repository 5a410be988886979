//! Arrival sources — *where cycles come from* in live operation.
//!
//! The paper's evaluation runs a closed loop: cycle `c + 1` is available
//! the instant cycle `c` finishes (file encode), or at its period boundary
//! (live capture, [`CycleChaining::ArrivalClamped`]). A production
//! front-end is event-driven instead: frames arrive from capture hardware,
//! a network socket, or an upstream pipeline stage, at times the quality
//! manager does not control. An [`ArrivalSource`] abstracts that event
//! stream down to the one thing the execution layer needs — **the arrival
//! timestamp of the next cycle** — and [`crate::stream::StreamingRunner`]
//! pulls cycles from a source onto the shared [`crate::engine::Engine`].
//!
//! Built-in sources:
//!
//! * [`Periodic`] — one frame every `period`; with the `Block` overload
//!   policy this reproduces the closed loop *exactly* (both
//!   [`CycleChaining`] variants are pinned byte-identical by test).
//! * [`Jittered`] — periodic with bounded uniform jitter, deterministic
//!   per seed (the `rand` shim's seeded generator).
//! * [`Bursty`] — frames arrive in bursts at the nominal average rate,
//!   burst sizes drawn per seed — the pattern that exercises backlog
//!   bounds and overload policies.
//! * [`TraceReplay`] — recorded arrival timestamps, for replaying captured
//!   traffic byte-for-byte.
//! * [`FnSource`] — closure-backed, for tests and custom feeds.
//!
//! All sources are deterministic: results depend only on patterns and
//! seeds, never on host scheduling. Timestamps must be non-decreasing; every built-in
//! source guarantees it, and the runner clamps defensively.
//!
//! Sources never yield the [`Time::INF`] sentinel: a grid position whose
//! timestamp would overflow onto (or alias) a sentinel ends the stream
//! with a typed [`Exhaustion::HorizonExceeded`] outcome instead —
//! `peek` and `next_arrival` agree on the cut, and
//! [`ArrivalSource::exhaustion`] distinguishes it from an ordinary
//! drained stream.
//!
//! [`CycleChaining`]: crate::engine::CycleChaining
//! [`CycleChaining::ArrivalClamped`]: crate::engine::CycleChaining::ArrivalClamped

use crate::time::Time;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Why an [`ArrivalSource`] stopped yielding timestamps.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Exhaustion {
    /// The source delivered every frame it had (the ordinary end).
    #[default]
    Drained,
    /// The next arrival's timestamp would have overflowed onto (or
    /// aliased) a [`Time::INF`]/[`Time::NEG_INF`] sentinel, so the source
    /// cut the stream at the representable horizon instead of yielding a
    /// value schedulers would misread as "no event".
    HorizonExceeded,
}

/// An event stream of cycle arrivals: yields the absolute arrival
/// timestamp of the next frame, or `None` when the stream ends.
///
/// Timestamps must be non-decreasing and **finite** (never a sentinel).
/// Frame indices are implicit — the `n`-th yielded timestamp is frame
/// `n`, and a frame dropped by an overload policy still consumes its
/// index (replay stays aligned).
pub trait ArrivalSource {
    /// Arrival time of the next frame on the run's absolute time line, or
    /// `None` when the stream has ended.
    fn next_arrival(&mut self) -> Option<Time>;

    /// Arrival time of the next frame *without consuming it*: the next
    /// [`ArrivalSource::next_arrival`] call returns exactly this value.
    ///
    /// Schedulers use `peek` to key event queues by each stream's next
    /// virtual arrival before committing to admit the frame
    /// ([`crate::elastic`]); `peek` must therefore be side-effect-free as
    /// observed through `next_arrival` — peek-then-next ≡ next, for every
    /// source kind and seed (pinned by proptest in `tests/sources.rs`).
    /// Sources that draw randomness materialize the pending timestamp on
    /// first peek and hand the *same* value to the consuming call.
    fn peek(&mut self) -> Option<Time>;

    /// Why the stream ended, once `next_arrival`/`peek` return `None`
    /// (unspecified before then). The default is [`Exhaustion::Drained`];
    /// grid-based sources report [`Exhaustion::HorizonExceeded`] when the
    /// cut was forced by timestamp overflow rather than frame count.
    fn exhaustion(&self) -> Exhaustion {
        Exhaustion::Drained
    }
}

impl<A: ArrivalSource + ?Sized> ArrivalSource for &mut A {
    fn next_arrival(&mut self) -> Option<Time> {
        (**self).next_arrival()
    }

    fn peek(&mut self) -> Option<Time> {
        (**self).peek()
    }

    fn exhaustion(&self) -> Exhaustion {
        (**self).exhaustion()
    }
}

/// One frame every `period`, starting at time zero — the closed loop's
/// arrival pattern, made explicit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Periodic {
    period: Time,
    frames: usize,
    next: usize,
    exhaustion: Exhaustion,
}

impl Periodic {
    /// `frames` arrivals at `0, period, 2·period, …`.
    pub fn new(period: Time, frames: usize) -> Periodic {
        Periodic {
            period,
            frames,
            next: 0,
            exhaustion: Exhaustion::Drained,
        }
    }

    /// The grid position of the next frame, or `None` (recording the
    /// horizon cut) when `next · period` no longer fits the time line.
    fn grid(&mut self) -> Option<Time> {
        if self.next == self.frames {
            return None;
        }
        let t = self.period.checked_mul(self.next as i64);
        if t.is_none() {
            self.exhaustion = Exhaustion::HorizonExceeded;
        }
        t
    }
}

impl ArrivalSource for Periodic {
    fn next_arrival(&mut self) -> Option<Time> {
        let t = self.grid()?;
        self.next += 1;
        Some(t)
    }

    fn peek(&mut self) -> Option<Time> {
        self.grid()
    }

    fn exhaustion(&self) -> Exhaustion {
        self.exhaustion
    }
}

/// Where a randomized source stands between draws: one byte that stands
/// in for a pending `Option<Time>` and an [`Exhaustion`], which never
/// hold a value at once (a cut stream draws nothing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Draw {
    /// Nothing drawn ahead.
    Idle,
    /// `peek` drew the next timestamp, which the source keeps in place
    /// and hands to the consuming call — the RNG advances exactly once
    /// per frame no matter how the draw is observed.
    Pending,
    /// The grid ran off the time line ([`Exhaustion::HorizonExceeded`]).
    Cut,
}

impl Draw {
    fn exhaustion(self) -> Exhaustion {
        match self {
            Draw::Cut => Exhaustion::HorizonExceeded,
            Draw::Idle | Draw::Pending => Exhaustion::Drained,
        }
    }
}

/// Periodic arrivals with bounded uniform jitter: frame `c` arrives at
/// `c · period + U(−jitter, +jitter)`, clamped non-negative and
/// non-decreasing. Deterministic per seed.
#[derive(Clone, Debug)]
pub struct Jittered {
    period: Time,
    jitter: Time,
    frames: usize,
    next: usize,
    /// The latest drawn timestamp: the clamp for the next draw, and the
    /// pending one while `state` is `Draw::Pending`.
    floor: Time,
    state: Draw,
    rng: StdRng,
}

impl Jittered {
    /// `frames` arrivals around the `period` grid, jittered by at most
    /// `jitter` either way, seeded deterministically.
    pub fn new(period: Time, jitter: Time, frames: usize, seed: u64) -> Jittered {
        Jittered {
            period,
            jitter,
            frames,
            next: 0,
            floor: Time::ZERO,
            state: Draw::Idle,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn draw(&mut self) -> Option<Time> {
        if self.next == self.frames || self.state == Draw::Cut {
            return None;
        }
        let Some(nominal) = self.period.checked_mul(self.next as i64) else {
            self.state = Draw::Cut;
            return None;
        };
        let j = self.jitter.as_ns();
        let offset = if j > 0 { self.rng.gen_range(-j..=j) } else { 0 };
        let t = (nominal + Time::from_ns(offset)).max(self.floor);
        if t.is_infinite() {
            // Jitter pushed the last grid position onto the sentinel.
            self.state = Draw::Cut;
            return None;
        }
        self.floor = t;
        self.next += 1;
        Some(t)
    }
}

impl ArrivalSource for Jittered {
    fn next_arrival(&mut self) -> Option<Time> {
        if self.state == Draw::Pending {
            self.state = Draw::Idle;
            return Some(self.floor);
        }
        self.draw()
    }

    fn peek(&mut self) -> Option<Time> {
        if self.state == Draw::Pending {
            return Some(self.floor);
        }
        let t = self.draw()?;
        self.state = Draw::Pending;
        Some(t)
    }

    fn exhaustion(&self) -> Exhaustion {
        self.state.exhaustion()
    }
}

/// Bursty arrivals at the nominal average rate: frames arrive in bursts of
/// `1..=max_burst` (drawn per seed) that share one timestamp; the next
/// burst follows after `burst_size · period`, so the long-run rate is one
/// frame per `period`. This is the pattern that fills backlog queues and
/// triggers overload policies.
#[derive(Clone, Debug)]
pub struct Bursty {
    period: Time,
    max_burst: usize,
    frames: usize,
    emitted: usize,
    burst_left: usize,
    /// The current burst's shared timestamp: every draw yields it, so it
    /// is also the pending one while `state` is `Draw::Pending`.
    burst_time: Time,
    next_time: Time,
    state: Draw,
    rng: StdRng,
}

impl Bursty {
    /// `frames` arrivals in bursts of up to `max_burst` (at least 1),
    /// averaging one frame per `period`, seeded deterministically.
    pub fn new(period: Time, max_burst: usize, frames: usize, seed: u64) -> Bursty {
        Bursty {
            period,
            max_burst: max_burst.max(1),
            frames,
            emitted: 0,
            burst_left: 0,
            burst_time: Time::ZERO,
            next_time: Time::ZERO,
            state: Draw::Idle,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn draw(&mut self) -> Option<Time> {
        if self.emitted == self.frames {
            return None;
        }
        if self.burst_left == 0 {
            // A previous burst already pushed the schedule off the time
            // line: the current burst was emitted in full, the next one
            // never starts.
            if self.next_time.is_infinite() {
                self.state = Draw::Cut;
                return None;
            }
            let size = self.rng.gen_range(1..=self.max_burst);
            self.burst_left = size;
            self.burst_time = self.next_time;
            self.next_time = match self
                .period
                .checked_mul(size as i64)
                .map(|span| self.burst_time + span)
                .filter(|t| !t.is_infinite())
            {
                Some(t) => t,
                // Overflow: park the schedule on the sentinel so the
                // *next* burst reports the horizon; this burst's shared
                // timestamp is still finite and still emitted.
                None => Time::INF,
            };
        }
        self.burst_left -= 1;
        self.emitted += 1;
        Some(self.burst_time)
    }
}

impl ArrivalSource for Bursty {
    fn next_arrival(&mut self) -> Option<Time> {
        if self.state == Draw::Pending {
            self.state = Draw::Idle;
            return Some(self.burst_time);
        }
        self.draw()
    }

    fn peek(&mut self) -> Option<Time> {
        if self.state == Draw::Pending {
            return Some(self.burst_time);
        }
        let t = self.draw()?;
        self.state = Draw::Pending;
        Some(t)
    }

    fn exhaustion(&self) -> Exhaustion {
        self.state.exhaustion()
    }
}

/// Replays recorded arrival timestamps (sorted on construction so the
/// non-decreasing contract holds even for unordered captures).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceReplay {
    times: Vec<Time>,
    next: usize,
}

impl TraceReplay {
    /// A source replaying `times` in non-decreasing order.
    pub fn new(mut times: Vec<Time>) -> TraceReplay {
        times.sort_unstable();
        TraceReplay { times, next: 0 }
    }

    /// Number of timestamps left to yield.
    pub fn remaining(&self) -> usize {
        self.times.len() - self.next
    }
}

impl ArrivalSource for TraceReplay {
    fn next_arrival(&mut self) -> Option<Time> {
        let t = self.times.get(self.next).copied()?;
        self.next += 1;
        Some(t)
    }

    fn peek(&mut self) -> Option<Time> {
        self.times.get(self.next).copied()
    }
}

/// Closure-backed source for tests and ad-hoc feeds. The closure's
/// timestamps must be non-decreasing.
///
/// Peeking calls the closure at most once per frame and buffers the
/// result, so the closure still observes exactly one call per yielded
/// timestamp.
pub struct FnSource<F> {
    f: F,
    pending: Option<Time>,
}

impl<F: FnMut() -> Option<Time>> FnSource<F> {
    /// A source yielding whatever `f` returns.
    pub fn new(f: F) -> FnSource<F> {
        FnSource { f, pending: None }
    }
}

impl<F: FnMut() -> Option<Time>> ArrivalSource for FnSource<F> {
    fn next_arrival(&mut self) -> Option<Time> {
        match self.pending.take() {
            Some(t) => Some(t),
            None => (self.f)(),
        }
    }

    fn peek(&mut self) -> Option<Time> {
        if self.pending.is_none() {
            self.pending = (self.f)();
        }
        self.pending
    }
}

/// A *description* of an arrival pattern — plain `Copy` data a scenario
/// table or a stream population can carry, turned into a concrete source
/// per stream via [`ArrivalSpec::build`] (the stream's period, frame
/// count and seed fill in the parameters).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ArrivalSpec {
    /// Closed loop: input pre-buffered, the engine's own
    /// [`crate::engine::CycleChaining`] drives timing (today's behaviour).
    #[default]
    Closed,
    /// [`Periodic`] arrivals at the stream's nominal period.
    Periodic,
    /// [`Jittered`] arrivals; jitter bound is `jitter_pct`% of the period.
    Jittered {
        /// Jitter bound as a percentage of the period (0–100).
        jitter_pct: u8,
    },
    /// [`Bursty`] arrivals with bursts of up to `max_burst` frames.
    Bursty {
        /// Largest burst size (clamped to at least 1).
        max_burst: u8,
    },
}

impl ArrivalSpec {
    /// Display label for reports.
    pub fn label(self) -> &'static str {
        match self {
            ArrivalSpec::Closed => "closed",
            ArrivalSpec::Periodic => "periodic",
            ArrivalSpec::Jittered { .. } => "jittered",
            ArrivalSpec::Bursty { .. } => "bursty",
        }
    }

    /// Instantiate the pattern for one stream: `period` frames apart on
    /// average, `frames` arrivals, randomness seeded from `seed`. Returns
    /// `None` for [`ArrivalSpec::Closed`] (no event source — run the
    /// engine's closed loop).
    pub fn build(self, period: Time, frames: usize, seed: u64) -> Option<PatternSource> {
        match self {
            ArrivalSpec::Closed => None,
            ArrivalSpec::Periodic => Some(PatternSource::Periodic(Periodic::new(period, frames))),
            ArrivalSpec::Jittered { jitter_pct } => {
                let jitter = Time::from_ns(period.as_ns() * i64::from(jitter_pct) / 100);
                Some(PatternSource::Jittered(Jittered::new(
                    period, jitter, frames, seed,
                )))
            }
            ArrivalSpec::Bursty { max_burst } => Some(PatternSource::Bursty(Bursty::new(
                period,
                usize::from(max_burst),
                frames,
                seed,
            ))),
        }
    }
}

/// A concrete source built from an [`ArrivalSpec`] — an enum, not a trait
/// object, so a population of mixed patterns is one `ArrivalSource` type
/// for [`crate::elastic::ElasticRunner`] and stays statically dispatched.
#[derive(Clone, Debug)]
pub enum PatternSource {
    /// Built from [`ArrivalSpec::Periodic`].
    Periodic(Periodic),
    /// Built from [`ArrivalSpec::Jittered`].
    Jittered(Jittered),
    /// Built from [`ArrivalSpec::Bursty`].
    Bursty(Bursty),
}

impl ArrivalSource for PatternSource {
    fn next_arrival(&mut self) -> Option<Time> {
        match self {
            PatternSource::Periodic(s) => s.next_arrival(),
            PatternSource::Jittered(s) => s.next_arrival(),
            PatternSource::Bursty(s) => s.next_arrival(),
        }
    }

    fn peek(&mut self) -> Option<Time> {
        match self {
            PatternSource::Periodic(s) => s.peek(),
            PatternSource::Jittered(s) => s.peek(),
            PatternSource::Bursty(s) => s.peek(),
        }
    }

    fn exhaustion(&self) -> Exhaustion {
        match self {
            PatternSource::Periodic(s) => s.exhaustion(),
            PatternSource::Jittered(s) => s.exhaustion(),
            PatternSource::Bursty(s) => s.exhaustion(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<A: ArrivalSource>(mut src: A) -> Vec<Time> {
        let mut out = Vec::new();
        while let Some(t) = src.next_arrival() {
            out.push(t);
        }
        out
    }

    #[test]
    fn periodic_hits_the_grid() {
        let times = drain(Periodic::new(Time::from_ns(100), 4));
        assert_eq!(
            times,
            vec![
                Time::ZERO,
                Time::from_ns(100),
                Time::from_ns(200),
                Time::from_ns(300)
            ]
        );
        assert_eq!(drain(Periodic::new(Time::from_ns(100), 0)), vec![]);
    }

    #[test]
    fn jittered_is_deterministic_monotone_and_bounded() {
        let a = drain(Jittered::new(Time::from_ns(100), Time::from_ns(30), 64, 7));
        let b = drain(Jittered::new(Time::from_ns(100), Time::from_ns(30), 64, 7));
        assert_eq!(a, b, "same seed, same arrivals");
        let c = drain(Jittered::new(Time::from_ns(100), Time::from_ns(30), 64, 8));
        assert_ne!(a, c, "different seed, different arrivals");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "non-decreasing");
        assert!(a.iter().all(|t| *t >= Time::ZERO));
        for (i, t) in a.iter().enumerate() {
            let nominal = 100 * i as i64;
            assert!(
                (t.as_ns() - nominal).abs() <= 30 || t.as_ns() == a[i - 1].as_ns(),
                "frame {i} at {t:?} strays from {nominal}±30"
            );
        }
    }

    #[test]
    fn zero_jitter_is_periodic() {
        assert_eq!(
            drain(Jittered::new(Time::from_ns(100), Time::ZERO, 8, 1)),
            drain(Periodic::new(Time::from_ns(100), 8)),
        );
    }

    #[test]
    fn bursty_keeps_the_average_rate() {
        let times = drain(Bursty::new(Time::from_ns(100), 4, 256, 3));
        assert_eq!(times.len(), 256);
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "non-decreasing");
        // Bursts share timestamps; the next burst is burst_size periods on.
        assert!(
            times.windows(2).any(|w| w[0] == w[1]),
            "max_burst 4 must produce at least one multi-frame burst"
        );
        // Average rate: the spacing budget equals frames · period exactly,
        // counted burst by burst, so the last burst's start is below
        // frames · period.
        assert!(times[255] < Time::from_ns(100 * 256));
        assert_eq!(
            drain(Bursty::new(Time::from_ns(100), 4, 256, 3)),
            times,
            "deterministic per seed"
        );
    }

    #[test]
    fn bursty_with_burst_one_is_periodic() {
        assert_eq!(
            drain(Bursty::new(Time::from_ns(100), 1, 8, 9)),
            drain(Periodic::new(Time::from_ns(100), 8)),
        );
    }

    #[test]
    fn trace_replay_sorts_and_replays() {
        let src = TraceReplay::new(vec![Time::from_ns(50), Time::ZERO, Time::from_ns(20)]);
        assert_eq!(src.remaining(), 3);
        assert_eq!(
            drain(src),
            vec![Time::ZERO, Time::from_ns(20), Time::from_ns(50)]
        );
    }

    #[test]
    fn arrival_spec_builds_matching_sources() {
        let period = Time::from_ns(100);
        assert!(ArrivalSpec::Closed.build(period, 4, 1).is_none());
        assert_eq!(
            drain(ArrivalSpec::Periodic.build(period, 4, 1).unwrap()),
            drain(Periodic::new(period, 4)),
        );
        assert_eq!(
            drain(
                ArrivalSpec::Jittered { jitter_pct: 25 }
                    .build(period, 16, 5)
                    .unwrap()
            ),
            drain(Jittered::new(period, Time::from_ns(25), 16, 5)),
        );
        assert_eq!(
            drain(
                ArrivalSpec::Bursty { max_burst: 3 }
                    .build(period, 16, 5)
                    .unwrap()
            ),
            drain(Bursty::new(period, 3, 16, 5)),
        );
        assert_eq!(ArrivalSpec::default(), ArrivalSpec::Closed);
        assert_eq!(ArrivalSpec::Bursty { max_burst: 3 }.label(), "bursty");
    }

    #[test]
    fn fn_source_yields_closure_values() {
        let mut v = vec![Time::from_ns(10), Time::ZERO].into_iter();
        let times = drain(FnSource::new(move || v.next()));
        assert_eq!(times, vec![Time::from_ns(10), Time::ZERO]);
    }

    /// A huge period drives the arrival grid to the edge of the time line
    /// within a handful of frames. The old `saturating_mul` arithmetic
    /// aliased the overflowed arrival onto `Time::INF` and handed the
    /// sentinel out as a real timestamp; now the stream cuts at the
    /// horizon with a typed outcome, `peek` and `next_arrival` agreeing
    /// frame for frame.
    #[test]
    fn grid_sources_cut_at_the_horizon_instead_of_yielding_sentinels() {
        // period · 2 lands exactly on i64::MAX (the INF sentinel); frame
        // 3 would overflow i64 outright. Both must cut the stream.
        let period = Time::from_ns(i64::MAX / 2 + 1);
        let many = 1_000;

        let mut p = Periodic::new(period, many);
        assert_eq!(p.exhaustion(), Exhaustion::Drained);
        assert_eq!(p.peek(), Some(Time::ZERO));
        assert_eq!(p.next_arrival(), Some(Time::ZERO));
        assert_eq!(p.next_arrival(), Some(period));
        assert_eq!(p.peek(), None, "frame 2 aliases INF: horizon");
        assert_eq!(p.next_arrival(), None);
        assert_eq!(p.exhaustion(), Exhaustion::HorizonExceeded);
        assert_eq!(p.peek(), None, "the cut is permanent");

        // An in-range grid still drains normally.
        let mut p = Periodic::new(Time::from_ns(100), 2);
        assert_eq!(drain(&mut p).len(), 2);
        assert_eq!(p.exhaustion(), Exhaustion::Drained);

        // Jittered: same grid, zero jitter — identical cut; exercised
        // through peek to pin the pending-buffer path.
        let mut j = Jittered::new(period, Time::ZERO, many, 7);
        let times = drain(&mut j);
        assert_eq!(times, vec![Time::ZERO, period]);
        assert!(times.iter().all(|t| !t.is_infinite()));
        assert_eq!(j.exhaustion(), Exhaustion::HorizonExceeded);

        // Jitter alone can push the last representable grid position
        // onto the sentinel.
        let mut j = Jittered::new(Time::from_ns(i64::MAX - 1), Time::from_ns(2), 2, 3);
        while j.next_arrival().is_some() {}
        assert!(
            matches!(
                j.exhaustion(),
                Exhaustion::Drained | Exhaustion::HorizonExceeded
            ),
            "either the draw stayed finite or the cut was typed"
        );

        // Bursty: the burst whose step overflows still emits in full at
        // its finite shared timestamp; the *next* burst reports the
        // horizon.
        let mut b = Bursty::new(period, 4, many, 11);
        let times = drain(&mut b);
        assert!(!times.is_empty());
        assert!(times.iter().all(|t| !t.is_infinite()), "no sentinel leaks");
        assert!(times.len() < many, "the grid cannot carry 1000 frames");
        assert_eq!(b.exhaustion(), Exhaustion::HorizonExceeded);
        assert_eq!(b.peek(), None);

        // Drained bursty streams stay typed as drained.
        let mut b = Bursty::new(Time::from_ns(100), 4, 16, 11);
        assert_eq!(drain(&mut b).len(), 16);
        assert_eq!(b.exhaustion(), Exhaustion::Drained);
    }

    /// `peek`/`next_arrival` agreement at the horizon for every grid
    /// source kind: interleaved peeking observes the same finite prefix
    /// and the same cut as plain draining.
    #[test]
    fn peek_and_next_agree_at_the_horizon() {
        let period = Time::from_ns(i64::MAX / 3);
        for mut src in [
            PatternSource::Periodic(Periodic::new(period, 64)),
            PatternSource::Jittered(Jittered::new(period, Time::from_ns(1 << 40), 64, 5)),
            PatternSource::Bursty(Bursty::new(period, 3, 64, 9)),
        ] {
            let mut reference = src.clone();
            let mut seen = Vec::new();
            loop {
                let p = src.peek();
                assert_eq!(src.peek(), p, "peek is idempotent at the horizon");
                let t = src.next_arrival();
                assert_eq!(t, p, "peek-then-next = next at the horizon");
                match t {
                    Some(t) => {
                        assert!(!t.is_infinite());
                        seen.push(t);
                    }
                    None => break,
                }
            }
            assert_eq!(seen, drain(&mut reference));
            assert_eq!(src.exhaustion(), Exhaustion::HorizonExceeded);
            assert_eq!(reference.exhaustion(), Exhaustion::HorizonExceeded);
        }
    }

    /// A fleet keeps one `PatternSource` per stream, inside the scheduler
    /// record that reuses the population's buffer: 96 bytes is its budget
    /// (each randomized source keeps its pending timestamp in place, behind
    /// one state byte whose spare values also carry the enum's tag).
    #[test]
    fn pattern_source_fits_its_byte_budget() {
        let size = std::mem::size_of::<PatternSource>();
        assert!(
            size <= 96,
            "PatternSource is {size} bytes, over its 96-byte budget"
        );
    }

    /// Interleaving peeks (including repeated ones) with consuming calls
    /// never changes what the consuming calls see, for every source kind.
    #[test]
    fn peek_is_transparent_for_every_kind() {
        let period = Time::from_ns(100);
        fn peeky<A: ArrivalSource>(mut src: A) -> Vec<Time> {
            let mut out = Vec::new();
            loop {
                let p = src.peek();
                assert_eq!(src.peek(), p, "peek is idempotent");
                let t = src.next_arrival();
                assert_eq!(t, p, "peek-then-next = next");
                match t {
                    Some(t) => out.push(t),
                    None => break out,
                }
            }
        }
        assert_eq!(
            peeky(Periodic::new(period, 8)),
            drain(Periodic::new(period, 8)),
        );
        assert_eq!(
            peeky(Jittered::new(period, Time::from_ns(30), 32, 7)),
            drain(Jittered::new(period, Time::from_ns(30), 32, 7)),
        );
        assert_eq!(
            peeky(Bursty::new(period, 4, 32, 3)),
            drain(Bursty::new(period, 4, 32, 3)),
        );
        assert_eq!(
            peeky(TraceReplay::new(vec![Time::ZERO, Time::from_ns(20)])),
            vec![Time::ZERO, Time::from_ns(20)],
        );
        let mut v = vec![Time::from_ns(10), Time::from_ns(40)].into_iter();
        assert_eq!(
            peeky(FnSource::new(move || v.next())),
            vec![Time::from_ns(10), Time::from_ns(40)],
        );
        assert_eq!(
            peeky(
                ArrivalSpec::Bursty { max_burst: 3 }
                    .build(period, 16, 5)
                    .unwrap()
            ),
            drain(Bursty::new(period, 3, 16, 5)),
        );
    }
}
