//! Elastic fleet scheduling — 10⁵–10⁶ *live* streams multiplexed onto few
//! workers, interleaved **by arrival time** instead of sharded whole.
//!
//! This is the workspace's one multi-stream runner. A live deployment has
//! many mostly-idle streams whose cycles *interleave* in time, so this
//! module schedules at cycle granularity rather than handing each worker
//! whole streams. A fleet of closed loops is the special case of
//! [`Periodic`](crate::source::Periodic) sources under
//! [`Admission::Unbounded`]: each stream then runs exactly as the engine's
//! closed loop would. The pieces:
//!
//! * a **monotone arrival queue** keyed by each stream's next virtual
//!   arrival time — obtained without consumption via
//!   [`ArrivalSource::peek`]. Arrivals leave it in time order, so it is a
//!   radix queue over the time (after Ahuja, Mehlhorn, Orlin and Tarjan,
//!   JACM 37(2), 1990) whose earliest time is kept sorted by stream id;
//! * a **start-event heap** ([`EventHeap`]) keyed by the absolute start
//!   time of each stream's next runnable cycle — start times are not
//!   monotone, so it stays a binary heap;
//! * a fixed-capacity **ready ring**: each scheduling round drains due
//!   events into at most [`ElasticConfig::ring_capacity`] ready cycles;
//! * a **pipelined round**: the filling thread publishes committed ring
//!   entries in fixed batches while it is still filling, and every worker
//!   claims published entries through one cursor that carries the round
//!   number, a guided share of the unclaimed entries per claim — so the
//!   other workers run a round's first cycles while its last ones are
//!   still being scheduled;
//! * **fleet-wide admission control** ([`Admission::DropNewest`]): a
//!   shared [`ShedLedger`] counts the *aggregate* backlog, and a frame is
//!   shed iff its stream is already behind **and** the fleet as a whole
//!   is over capacity — load shedding as a global decision, not a
//!   per-stream one.
//!
//! ## The determinism contract
//!
//! Results are **byte-identical for every worker count**. The design
//! splits the problem in two:
//!
//! 1. *Virtual-time scheduling* — which frames are admitted or shed, and
//!    when each admitted cycle starts — is computed by a serial,
//!    deterministic discrete-event loop over the heaps. Nothing in it
//!    reads the worker count (the ring capacity is configuration, not
//!    `workers`), and nothing in it reads a completion of the round it
//!    is filling — clocks advance only between rounds — so running a
//!    round's published entries while the loop is still filling it
//!    cannot change what the loop decides.
//! 2. *Host execution* — which worker runs which ready cycle — only maps
//!    already-scheduled work onto threads. Streams are independent and a
//!    stream has at most one cycle per round, so claim order changes
//!    wall-clock time, never results.
//!
//! ## Who owns what
//!
//! The serial loop touches only the per-stream state that admission,
//! start times and queue depths depend on: the source, the queue of
//! admitted frames, an in-flight flag and the stream's clock (the
//! completion time of its last executed frame), plus the arrived and shed
//! counts it tallies as it judges frames and the completions a queue depth
//! is judged against. Everything else lives in the stream's worker-side
//! slot and is written by whichever worker runs the cycle: the driver
//! (engine, execution-time source, sink) and one book of engine,
//! backlog, wait and latency aggregates. Workers hand each cycle's
//! completion time back through a buffer indexed by ring position, which
//! the loop reads between rounds to advance its clocks; the two halves
//! meet again only when the run's summary is collected, where the
//! scheduler's counts and clock join each slot's book.
//!
//! The pass's memory plan keeps first-touch page faults off the serial
//! path. Each per-stream record lives in one buffer, built and first
//! touched by one thread:
//!
//! * **Scheduler records** take over the buffer of the `(source, driver)`
//!   population handed to [`ElasticRunner::run`]. Worker 0 builds them in
//!   place, moving each source in and each driver out. The standard
//!   library reuses the buffer whenever a record is no larger than a pair
//!   and equally aligned (with [`PatternSource`] sources, for drivers of
//!   56 bytes or more) and allocates afresh otherwise. The caller already
//!   touched those pages.
//! * **Worker-side slots** go in a buffer that worker 0 reserves and
//!   worker 1 fills, so worker 1 first-touches it. With several workers,
//!   the pool's one thread scope opens before set-up: worker 0 hands the
//!   drivers over in chunks while it builds the scheduler, worker 1
//!   builds the slots from them, and then both join the rounds. With one
//!   worker the calling thread builds the slots as it builds the
//!   scheduler.
//! * **Per-stream summaries** are folded in place into the scheduler
//!   records' buffer, so the population's buffer is the one returned in
//!   the [`ElasticSummary`]. The **drivers** go back in place into the
//!   slot buffer, which is the block the returned `Vec` owns: dropping it
//!   frees that block whole, and the allocator can hand it back to the
//!   next run's slots without new faults.
//!
//! Per-stream results under [`Admission::Unbounded`] are identical to
//! running each stream through [`crate::stream::StreamingRunner`] with
//! [`OverloadPolicy::Block`] — the per-stream recurrence (`start =
//! max(now, arrival)` live, `start = now` work-conserving; `now = arrival
//! + end`) is the same code, [`CycleChaining::start_at`] and the book
//! [`StreamCursor`] folds each cycle into. That identity covers the
//! *full* struct, [`StreamStats::max_backlog`] included. The scheduler
//! admits arrivals whenever the event loop reaches them, often rounds
//! before the per-stream runner would have, so its own queue depths are
//! not comparable. Instead, when the scheduler launches a stream's `j`-th
//! admitted frame, it computes the depth the per-stream runner observes
//! when that frame arrives, `j − #{completions < arrival_j}`, and passes it
//! to the worker with the frame. Frames run FIFO, one per stream per
//! round, and every round's completions are folded in before the next
//! fill, so exactly the stream's first `j` completions are known at that
//! moment. The depth is a pure function of the arrival and completion
//! sequences, not of ring capacity, round boundaries or worker count.
//! `tests/conformance.rs` pins the identity field-for-field.
//!
//! ## Admission semantics
//!
//! Admission is **round-granular**: a frame is judged when the event loop
//! reaches its arrival, against the backlog accumulated so far. A frame
//! counts toward the global backlog iff, at admission, its stream is
//! already behind (a cycle in flight or frames queued); a frame that
//! finds its stream idle starts promptly and is never counted or shed.
//! Shed frames still consume their stream's cycle index, keeping
//! content-driven execution-time sources aligned (same rule as
//! [`crate::stream`]).
//!
//! [`OverloadPolicy::Block`]: crate::stream::OverloadPolicy::Block
//! [`PatternSource`]: crate::source::PatternSource
//! [`StreamStats::max_backlog`]: crate::stream::StreamStats::max_backlog
//! [`StreamCursor`]: crate::stream::StreamCursor

use crate::controller::ExecutionTimeSource;
use crate::engine::{CycleChaining, CycleSummary, Engine, RunSummary, TraceSink};
use crate::manager::QualityManager;
use crate::source::ArrivalSource;
use crate::stream::{FrameBook, StreamStats, StreamSummary};
use crate::time::Time;
use std::collections::VecDeque;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Mutex, OnceLock};

/// A time as an unsigned key of the same order: the sign bit is flipped so
/// signed nanoseconds (sentinels included) sort as unsigned ones.
#[inline]
fn time_key(time: Time) -> u64 {
    (time.as_ns() as u64) ^ (1 << 63)
}

/// Inverse of [`time_key`].
#[inline]
fn key_time(key: u64) -> Time {
    Time::from_ns((key ^ (1 << 63)) as i64)
}

/// Pack an event into one integer key whose unsigned order is the
/// `(time, stream)` order.
#[inline]
fn pack(time: Time, stream: u32) -> u128 {
    (u128::from(time_key(time)) << 32) | u128::from(stream)
}

/// Inverse of [`pack`].
#[inline]
fn unpack(key: u128) -> (Time, u32) {
    (key_time((key >> 32) as u64), key as u32)
}

/// A hand-rolled binary min-heap of `(time, stream)` events.
///
/// Keys are totally ordered (ties broken by stream id) and stored packed
/// in one integer each, so a comparison is a single integer compare.
/// `push`/`pop` are `O(log n)` with no allocation beyond
/// the backing `Vec`, and sift by moving a hole rather than swapping —
/// the only operations the scheduler needs on its start events, without
/// pulling in `BinaryHeap`'s max-order and `Reverse` wrappers. Unlike the
/// scheduler's arrival queue, it takes events in any time order.
///
/// # Examples
///
/// ```
/// use sqm_core::elastic::EventHeap;
/// use sqm_core::time::Time;
///
/// let mut heap = EventHeap::new();
/// heap.push(Time::from_ns(30), 2);
/// heap.push(Time::from_ns(10), 7);
/// heap.push(Time::from_ns(10), 3);
/// assert_eq!(heap.pop(), Some((Time::from_ns(10), 3)), "time, then id");
/// assert_eq!(heap.pop(), Some((Time::from_ns(10), 7)));
/// assert_eq!(heap.pop(), Some((Time::from_ns(30), 2)));
/// assert_eq!(heap.pop(), None);
/// ```
#[derive(Clone, Default)]
pub struct EventHeap {
    keys: Vec<u128>,
}

impl std::fmt::Debug for EventHeap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let events: Vec<(Time, u32)> = self.keys.iter().map(|&k| unpack(k)).collect();
        f.debug_struct("EventHeap")
            .field("events", &events)
            .finish()
    }
}

impl EventHeap {
    /// An empty heap.
    pub fn new() -> EventHeap {
        EventHeap::default()
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when no events are queued.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The minimum event without removing it.
    #[inline]
    pub fn peek(&self) -> Option<(Time, u32)> {
        self.keys.first().map(|&k| unpack(k))
    }

    /// Queue an event.
    #[inline]
    pub fn push(&mut self, time: Time, stream: u32) {
        let key = pack(time, stream);
        let mut i = self.keys.len();
        self.keys.push(key);
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.keys[parent];
            if p <= key {
                break;
            }
            self.keys[i] = p;
            i = parent;
        }
        self.keys[i] = key;
    }

    /// Remove and return the minimum event.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, u32)> {
        let last = self.keys.pop()?;
        match self.keys.first().copied() {
            Some(top) => {
                self.sift_down(last);
                Some(unpack(top))
            }
            None => Some(unpack(last)),
        }
    }

    /// Place `key` into the hole at the root, moving smaller children up.
    #[inline]
    fn sift_down(&mut self, key: u128) {
        let keys = &mut self.keys;
        let n = keys.len();
        let mut i = 0;
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let child = if r < n && keys[r] < keys[l] { r } else { l };
            let c = keys[child];
            if key <= c {
                break;
            }
            keys[i] = c;
            i = child;
        }
        keys[i] = key;
    }
}

/// The scheduler's arrival queue: a monotone radix queue of `(time,
/// stream)` events, after the radix heaps of Ahuja, Mehlhorn, Orlin and
/// Tarjan (JACM 37(2), 1990).
///
/// Arrivals leave the queue in time order and a stream is re-keyed only
/// onto a time at or after the one just taken, so no push goes below the
/// queue's minimum. The queue exploits that: `last` is the minimum as of
/// the latest pop or peek, events at exactly `last` wait in `due`, sorted
/// by stream id, and an event whose time key first differs from `last` in
/// bit `b` waits in bucket `b`. Once `due` runs dry, the lowest non-empty
/// bucket holds the next time; refilling spreads that bucket around its
/// own minimum into `due` and lower buckets, so an event moves down at
/// most once per bucket. Pops keep the exact `(time, stream)` order of
/// [`EventHeap`].
///
/// A live fleet shares few distinct arrival times, so most pops come
/// straight off the front of `due`, and a burst — the stream just popped,
/// re-keyed onto the same time — goes straight back to that front.
///
/// Buckets grow and shrink a [`CHUNK`] of events at a time from one pool
/// of equal-sized chunks, allocated up front for the expected number of
/// pending events: the queue holds at most one part-filled chunk per
/// bucket beyond its events, and its allocations never interleave with
/// the run's.
struct ArrivalQueue {
    /// Time key of the minimum as of the latest pop or peek.
    last: u64,
    /// Streams whose event is at exactly `last`, in ascending id order.
    due: VecDeque<u32>,
    /// `buckets[b]`: the chunks of events whose time key's highest bit
    /// differing from `last` is bit `b`; all but the last one are full.
    buckets: [Vec<Vec<(u64, u32)>>; 64],
    /// Emptied chunks, kept for reuse.
    spare: Vec<Vec<(u64, u32)>>,
    /// Bit `b` is set iff bucket `b` is non-empty.
    occupied: u64,
}

/// Events per bucket chunk of an [`ArrivalQueue`].
const CHUNK: usize = 512;

impl ArrivalQueue {
    /// An empty queue whose pushes never go below `floor`, with chunks
    /// ready for `events` pending events.
    fn new(floor: Time, events: usize) -> ArrivalQueue {
        ArrivalQueue {
            last: time_key(floor),
            due: VecDeque::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            spare: (0..events / CHUNK + 64)
                .map(|_| Vec::with_capacity(CHUNK))
                .collect(),
            occupied: 0,
        }
    }

    /// Queue an event at or after the minimum as of the latest pop or
    /// peek. Pending stream ids are unique.
    #[inline]
    fn push(&mut self, time: Time, stream: u32) {
        let key = time_key(time);
        debug_assert!(
            key >= self.last,
            "arrival of stream {stream} at {time:?} precedes the queue's minimum {:?}",
            key_time(self.last)
        );
        if key == self.last {
            self.push_due(stream);
        } else {
            self.push_bucket(key, stream);
        }
    }

    /// Queue a stream at exactly `last`, keeping `due` sorted. The
    /// scheduler's two cases are the fast ones: a re-key of the stream
    /// just popped goes to the front, the initial population arrives in
    /// id order at the back.
    #[inline]
    fn push_due(&mut self, stream: u32) {
        if self.due.front().is_none_or(|&f| stream < f) {
            self.due.push_front(stream);
        } else if self.due.back().is_some_and(|&b| b < stream) {
            self.due.push_back(stream);
        } else {
            let at = self.due.partition_point(|&s| s < stream);
            self.due.insert(at, stream);
        }
    }

    /// Queue an event above `last` in the bucket of its highest differing
    /// bit.
    #[inline]
    fn push_bucket(&mut self, key: u64, stream: u32) {
        let b = 63 - (key ^ self.last).leading_zeros();
        let chunks = &mut self.buckets[b as usize];
        match chunks.last_mut() {
            Some(chunk) if chunk.len() < CHUNK => chunk.push((key, stream)),
            _ => {
                let mut chunk = self
                    .spare
                    .pop()
                    .unwrap_or_else(|| Vec::with_capacity(CHUNK));
                chunk.push((key, stream));
                chunks.push(chunk);
            }
        }
        self.occupied |= 1 << b;
    }

    /// The minimum event without removing it.
    #[inline]
    fn peek(&mut self) -> Option<(Time, u32)> {
        if self.due.is_empty() {
            self.refill();
        }
        let &stream = self.due.front()?;
        Some((key_time(self.last), stream))
    }

    /// Remove and return the minimum event.
    #[inline]
    fn pop(&mut self) -> Option<(Time, u32)> {
        if self.due.is_empty() {
            self.refill();
        }
        let stream = self.due.pop_front()?;
        Some((key_time(self.last), stream))
    }

    /// With `due` empty, advance `last` to the lowest non-empty bucket's
    /// minimum and spread that bucket into `due` and the buckets below.
    /// Its events agree with the old `last` above their bucket's bit, so
    /// they differ from the new one only below it.
    fn refill(&mut self) {
        if self.occupied == 0 {
            return;
        }
        let b = self.occupied.trailing_zeros() as usize;
        self.occupied &= !(1 << b);
        // Only buckets below `b` receive events, so `b` can lend its
        // chunk list out and take it back empty.
        let mut chunks = std::mem::take(&mut self.buckets[b]);
        self.last = chunks
            .iter()
            .flatten()
            .map(|&(key, _)| key)
            .min()
            .expect("occupied buckets are non-empty");
        for mut chunk in chunks.drain(..) {
            for &(key, stream) in &chunk {
                if key == self.last {
                    self.due.push_back(stream);
                } else {
                    self.push_bucket(key, stream);
                }
            }
            chunk.clear();
            self.spare.push(chunk);
        }
        self.buckets[b] = chunks;
        self.due.make_contiguous().sort_unstable();
    }
}

/// Fleet-wide admission control for arriving frames.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Admission {
    /// Admit every frame (backpressure upstream). Per-stream results are
    /// identical to [`crate::stream::StreamingRunner`] with
    /// [`OverloadPolicy::Block`](crate::stream::OverloadPolicy::Block).
    #[default]
    Unbounded,
    /// Tail-drop against the **aggregate** backlog: an arriving frame
    /// whose stream is already behind is shed iff the fleet-wide count of
    /// behind frames has reached `global_capacity`. Streams that keep up
    /// are never shed, no matter how overloaded the rest of the fleet is.
    DropNewest {
        /// Fleet-wide bound on frames waiting behind a busy stream.
        global_capacity: usize,
    },
}

/// The shared shed ledger: fleet-wide admission counters, maintained by
/// the (serial, deterministic) scheduling loop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShedLedger {
    /// Frames delivered by all sources.
    pub arrived: usize,
    /// Frames admitted (executed eventually).
    pub admitted: usize,
    /// Frames shed by [`Admission::DropNewest`].
    pub shed: usize,
    /// High-water mark of the aggregate backlog (frames queued behind
    /// busy streams, fleet-wide).
    pub peak_backlog: usize,
    /// Scheduling rounds executed (ring refills).
    pub rounds: usize,
}

/// How an [`ElasticRunner`] chains, batches and sheds cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ElasticConfig {
    /// How cycle starts chain onto arrivals (same semantics as
    /// [`crate::stream::StreamConfig::chaining`]).
    pub chaining: CycleChaining,
    /// Ready-ring capacity: the most cycles one scheduling round hands to
    /// the workers (clamped to at least 1). Fixed configuration — **not**
    /// derived from the worker count, so it never breaks the determinism
    /// contract. Bigger rings amortize round overhead; smaller rings make
    /// admission decisions track execution more closely.
    pub ring_capacity: usize,
    /// Fleet-wide admission control.
    pub admission: Admission,
}

impl ElasticConfig {
    /// Live-capture chaining, a 1024-cycle ring, unbounded admission.
    pub fn live() -> ElasticConfig {
        ElasticConfig {
            chaining: CycleChaining::ArrivalClamped,
            ring_capacity: 1024,
            admission: Admission::Unbounded,
        }
    }

    /// Replace the chaining discipline.
    pub fn with_chaining(mut self, chaining: CycleChaining) -> ElasticConfig {
        self.chaining = chaining;
        self
    }

    /// Replace the ring capacity.
    pub fn with_ring_capacity(mut self, ring_capacity: usize) -> ElasticConfig {
        self.ring_capacity = ring_capacity;
        self
    }

    /// Replace the admission policy.
    pub fn with_admission(mut self, admission: Admission) -> ElasticConfig {
        self.admission = admission;
        self
    }
}

impl Default for ElasticConfig {
    fn default() -> ElasticConfig {
        ElasticConfig::live()
    }
}

/// Executes one cycle of one stream — the seam between the elastic
/// scheduler (which decides *when* cycles run) and the engine (which runs
/// them).
///
/// `start` is the cycle's start **relative to its arrival** (the same
/// convention as [`Engine::run_cycle`]; negative under work-conserving
/// prefetch). Implementations own whatever per-stream state execution
/// needs — engine, execution-time source, sink — so the scheduler stays
/// generic and allocation-free per cycle. [`EngineDriver`] is the
/// standard implementation.
pub trait CycleDriver {
    /// Run cycle `cycle` starting at arrival-relative time `start` and
    /// report what happened.
    fn run_cycle(&mut self, cycle: usize, start: Time) -> CycleSummary;
}

/// The standard [`CycleDriver`]: one monomorphized [`Engine`] plus its
/// execution-time source and trace sink, owned per stream.
pub struct EngineDriver<'sys, M: QualityManager, X, S> {
    engine: Engine<'sys, M>,
    exec: X,
    sink: S,
}

impl<'sys, M: QualityManager, X, S> EngineDriver<'sys, M, X, S> {
    /// A driver running cycles of `engine` against `exec`, streaming
    /// records into `sink`.
    pub fn new(engine: Engine<'sys, M>, exec: X, sink: S) -> EngineDriver<'sys, M, X, S> {
        EngineDriver { engine, exec, sink }
    }

    /// The driver's trace sink (to read back captured traces after a
    /// run — [`ElasticRunner::run`] returns the drivers for exactly
    /// this).
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Dismantle the driver into its parts.
    pub fn into_parts(self) -> (Engine<'sys, M>, X, S) {
        (self.engine, self.exec, self.sink)
    }
}

impl<M, X, S> CycleDriver for EngineDriver<'_, M, X, S>
where
    M: QualityManager,
    X: ExecutionTimeSource,
    S: TraceSink,
{
    #[inline]
    fn run_cycle(&mut self, cycle: usize, start: Time) -> CycleSummary {
        self.engine
            .run_cycle(cycle, start, &mut self.exec, &mut self.sink)
    }
}

/// Everything a finished elastic run reports: per-stream
/// [`StreamSummary`]s in submission order, their merged aggregates, and
/// the fleet-wide [`ShedLedger`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ElasticSummary {
    per_stream: Vec<StreamSummary>,
    run: RunSummary,
    stats: StreamStats,
    ledger: ShedLedger,
}

impl ElasticSummary {
    /// Number of streams that ran.
    pub fn n_streams(&self) -> usize {
        self.per_stream.len()
    }

    /// Per-stream summaries, indexed by submission order.
    pub fn per_stream(&self) -> &[StreamSummary] {
        &self.per_stream
    }

    /// One stream's summary.
    pub fn stream(&self, i: usize) -> &StreamSummary {
        &self.per_stream[i]
    }

    /// The merged engine aggregates over all streams.
    pub fn run(&self) -> &RunSummary {
        &self.run
    }

    /// The merged backlog/latency aggregates over all streams.
    pub fn stats(&self) -> &StreamStats {
        &self.stats
    }

    /// The fleet-wide admission ledger.
    pub fn ledger(&self) -> &ShedLedger {
        &self.ledger
    }
}

/// One cycle the scheduler has committed to run this round.
#[derive(Clone, Copy, Debug)]
struct Ready {
    stream: u32,
    frame: u32,
    arrival: Time,
    start: Time,
    /// The queue depth the per-stream runner observes when this frame
    /// arrives (see [`Completions`]).
    depth: u32,
}

/// Worker-side per-stream state, behind a mutex so any worker can run the
/// stream's next cycle. A stream has at most one ready cycle per round,
/// so the locks never contend — they exist for thread-safety proof, not
/// for queuing — and the serial loop never takes them. A slot holds only
/// what workers write; the stream's clock and its frame counts are the
/// scheduler's.
struct Slot<D> {
    driver: D,
    /// Engine aggregates, backlog high-water mark, wait and latency.
    book: FrameBook,
}

impl<D> Slot<D> {
    /// A stream's slot before its first cycle, behind its lock.
    fn shared(driver: D) -> Mutex<Slot<D>> {
        Mutex::new(Slot {
            driver,
            book: FrameBook::default(),
        })
    }
}

/// Run one ready cycle on its stream's slot: the hot path every worker
/// executes. Returns the cycle's absolute completion time.
#[inline]
fn execute<D: CycleDriver>(r: &Ready, slot: &mut Slot<D>) -> Time {
    slot.book.note_backlog(r.depth as usize);
    let summary = slot.driver.run_cycle(r.frame as usize, r.start - r.arrival);
    slot.book.absorb(r.arrival, r.start, &summary)
}

/// Scheduler-side per-stream state (never crosses a thread boundary).
///
/// [`ElasticRunner::run`] builds these records in the buffer of the
/// population it is handed, which the standard library reuses in place
/// when a record is no larger than a `(source, driver)` pair and equally
/// aligned. The fields beyond the source take 53 bytes, 56 padded (the
/// clock, two 32-bit counts, the frame queue's 24, the completions' 12 and
/// the flag), so a record fits for drivers down to 56 bytes. The stream's
/// arrival floor needs no field: it is the arrival just taken off the
/// arrival queue.
struct SchedStream<A> {
    source: A,
    /// Completion time of the stream's last executed frame, as of the last
    /// finished round. Execution times are non-negative, so a stream's
    /// completions never go down and this is also its makespan.
    now: Time,
    /// Next frame index; shed frames consume theirs, so this is also the
    /// stream's arrived count. A stream that delivers more than
    /// `u32::MAX` frames panics.
    arrived: u32,
    /// Frames shed at admission (never more than `arrived`).
    shed: u32,
    /// Admitted frames not yet started.
    queue: FrameQueue,
    /// Completions the stream's next frame is judged against.
    completions: Completions,
    /// A cycle of this stream is in the current round's ring.
    in_flight: bool,
}

/// An admitted frame waiting for its start: `(frame, arrival, counted)`,
/// where `counted` records whether the frame was charged to the global
/// backlog at admission.
type Admitted = (u32, Time, bool);

/// No node: the end of a [`Lists`] list.
const NIL: u32 = u32::MAX;

/// A FIFO list threaded through a [`Lists`] pool: its first and last
/// node, both `NIL` when empty.
type List = [u32; 2];

/// One pool of list nodes for every stream's list of one kind, with a
/// free list. A stream whose list grows then costs no allocation once the
/// pool has grown to the fleet's deepest total, and its record holds two
/// indices (8 bytes) where a `VecDeque` would take 32.
struct Lists<T> {
    /// `(element, next node or NIL)`.
    nodes: Vec<(T, u32)>,
    /// First free node, or `NIL`.
    free: u32,
}

impl<T: Copy> Lists<T> {
    fn new() -> Lists<T> {
        Lists {
            nodes: Vec::new(),
            free: NIL,
        }
    }

    /// Append `x` to `list`.
    #[inline]
    fn push_back(&mut self, list: &mut List, x: T) {
        let node = if self.free == NIL {
            let node = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&node| node != NIL)
                .expect("fewer than u32::MAX list nodes fleet-wide");
            self.nodes.push((x, NIL));
            node
        } else {
            let node = self.free;
            self.free = self.nodes[node as usize].1;
            self.nodes[node as usize] = (x, NIL);
            node
        };
        match *list {
            [NIL, _] => *list = [node, node],
            [_, last] => {
                self.nodes[last as usize].1 = node;
                list[1] = node;
            }
        }
    }

    /// The first element of `list`.
    #[inline]
    fn front(&self, list: &List) -> Option<T> {
        (list[0] != NIL).then(|| self.nodes[list[0] as usize].0)
    }

    /// Take the first element of `list`.
    #[inline]
    fn pop_front(&mut self, list: &mut List) -> Option<T> {
        let first = list[0];
        if first == NIL {
            return None;
        }
        let (x, next) = self.nodes[first as usize];
        *list = if next == NIL {
            [NIL; 2]
        } else {
            [next, list[1]]
        };
        self.nodes[first as usize].1 = self.free;
        self.free = first;
        Some(x)
    }
}

/// A stream's admitted frames not yet started, oldest first: the first
/// one inline, the rest in a list in the scheduler's pool.
struct FrameQueue {
    head: Option<Admitted>,
    rest: List,
}

impl FrameQueue {
    const EMPTY: FrameQueue = FrameQueue {
        head: None,
        rest: [NIL; 2],
    };

    /// Queue `frame` behind the rest.
    #[inline]
    fn push_back(&mut self, pool: &mut Lists<Admitted>, frame: Admitted) {
        if self.head.is_none() {
            self.head = Some(frame);
        } else {
            pool.push_back(&mut self.rest, frame);
        }
    }

    /// Take the oldest frame.
    #[inline]
    fn pop_front(&mut self, pool: &mut Lists<Admitted>) -> Option<Admitted> {
        let frame = self.head.take()?;
        self.head = pool.pop_front(&mut self.rest);
        Some(frame)
    }
}

/// The completion times of a stream's executed frames, oldest first, less
/// those already found to precede a launched frame's arrival. When frame
/// `j` launches, dropping the ones before its arrival leaves `j −
/// #{completions < arrival_j}` of them — the queue depth the per-stream
/// runner observes when frame `j` arrives. A dropped completion would be
/// dropped for every later frame too, as arrivals and completions are both
/// non-decreasing.
///
/// The newest completion, while it is still counted, is the stream's clock
/// ([`SchedStream::now`]); the older ones wait in a list in the
/// scheduler's pool, so a stream that keeps up never touches the pool.
struct Completions {
    /// Every counted completion but the newest.
    older: List,
    /// Completions counted, the newest included.
    len: u32,
}

impl Completions {
    const EMPTY: Completions = Completions {
        older: [NIL; 2],
        len: 0,
    };

    /// Count a new completion, which becomes the stream's clock in place
    /// of `previous`.
    #[inline]
    fn push(&mut self, pool: &mut Lists<Time>, previous: Time) {
        if self.len > 0 {
            pool.push_back(&mut self.older, previous);
        }
        self.len += 1;
    }

    /// Drop the completions before `arrival` (`now` is the newest) and
    /// return how many are left: the depth the frame arriving then sees.
    /// The pop is strict: a completion exactly at the arrival still counts.
    #[inline]
    fn depth_at(&mut self, pool: &mut Lists<Time>, now: Time, arrival: Time) -> u32 {
        while self.len > 1 && pool.front(&self.older).is_some_and(|c| c < arrival) {
            pool.pop_front(&mut self.older);
            self.len -= 1;
        }
        if self.len == 1 && now < arrival {
            self.len = 0;
        }
        self.len
    }
}

/// The serial deterministic scheduling core: owns the event queues, the
/// per-stream queues and the ledger; fills the ring each round and folds
/// completions back in between rounds. Never sees the worker count, and
/// never touches a worker-side slot.
struct Scheduler<A> {
    chaining: CycleChaining,
    admission: Admission,
    ring_capacity: usize,
    streams: Vec<SchedStream<A>>,
    /// The frames each stream has queued behind its first.
    backlogs: Lists<Admitted>,
    /// Each stream's counted completions but the newest.
    completions: Lists<Time>,
    start_heap: EventHeap,
    arrivals: ArrivalQueue,
    /// Latest start time ever scheduled: arrivals beyond it wait, which
    /// bounds queue growth and keeps admission decisions near the
    /// execution frontier. Monotone, worker-count independent.
    horizon: Time,
    /// Aggregate count of `counted` frames currently queued.
    backlog: usize,
    ledger: ShedLedger,
}

impl<A: ArrivalSource> Scheduler<A> {
    /// The scheduler of `population`'s sources, keyed on their first
    /// arrivals. Its records take over the population's buffer (see
    /// [`SchedStream`]); each driver goes to `take_driver`, in stream
    /// order, as its record is built.
    fn new<D>(
        config: ElasticConfig,
        population: Vec<(A, D)>,
        mut take_driver: impl FnMut(D),
    ) -> Scheduler<A> {
        // Every arrival is clamped to at least the floor of zero, and
        // each stream has at most one pending.
        let mut arrivals = ArrivalQueue::new(Time::ZERO, population.len());
        let streams = population
            .into_iter()
            .enumerate()
            .map(|(i, (mut source, driver))| {
                take_driver(driver);
                if let Some(t) = source.peek() {
                    arrivals.push(t.max(Time::ZERO), i as u32);
                }
                SchedStream {
                    source,
                    now: Time::ZERO,
                    arrived: 0,
                    shed: 0,
                    queue: FrameQueue::EMPTY,
                    completions: Completions::EMPTY,
                    in_flight: false,
                }
            })
            .collect();
        Scheduler {
            chaining: config.chaining,
            admission: config.admission,
            ring_capacity: config.ring_capacity.max(1),
            streams,
            backlogs: Lists::new(),
            completions: Lists::new(),
            start_heap: EventHeap::new(),
            arrivals,
            horizon: Time::NEG_INF,
            backlog: 0,
            ledger: ShedLedger::default(),
        }
    }

    /// Drain due events into `ring` (cleared first), up to capacity.
    /// Event order is the global `(time, start-before-arrival, stream)`
    /// order; an arrival is *due* once it is at or before the horizon, or
    /// unconditionally when nothing is scheduled at all (bootstrap). An
    /// empty ring on return means the run is complete.
    ///
    /// Each time another [`PUBLISH_BATCH`] entries are committed, `publish`
    /// sees the ring so far. Committed entries are final: nothing later in
    /// the fill reads or changes them, and the fill never reads a
    /// completion of the round it is filling, so the entries may run
    /// while the fill goes on.
    fn fill(&mut self, ring: &mut Vec<Ready>, mut publish: impl FnMut(&[Ready])) {
        ring.clear();
        let mut batch_end = PUBLISH_BATCH;
        while ring.len() < self.ring_capacity {
            if ring.len() == batch_end {
                publish(ring);
                batch_end += PUBLISH_BATCH;
            }
            let start_top = self.start_heap.peek();
            let arrival_top = self.arrivals.peek();
            let arrival_due = match arrival_top {
                Some((ta, _)) => ta <= self.horizon || (ring.is_empty() && start_top.is_none()),
                None => false,
            };
            let take_start = match (start_top, arrival_top) {
                (Some(_), None) => true,
                (None, _) => false,
                // Start beats arrival on time ties: a stream's queued
                // frame begins before the next arrival is judged.
                (Some((ts, _)), Some((ta, _))) => !arrival_due || ts <= ta,
            };
            if take_start {
                let (ts, s) = self.start_heap.pop().expect("peeked");
                self.process_start(ts, s, ring);
            } else if arrival_due {
                let (ta, s) = self.arrivals.pop().expect("peeked");
                self.process_arrival(ta, s, ring);
            } else {
                break;
            }
        }
    }

    fn process_start(&mut self, ts: Time, s: u32, ring: &mut Vec<Ready>) {
        let st = &mut self.streams[s as usize];
        let (frame, arrival, counted) = st
            .queue
            .pop_front(&mut self.backlogs)
            .expect("a start event implies a queued frame");
        if counted {
            self.backlog -= 1;
        }
        self.launch(s, frame, arrival, ts, ring);
    }

    /// Commit a frame to this round's ring. Every earlier frame of its
    /// stream ran in an earlier round, whose completions are all folded
    /// in, so the frame's depth is known here.
    fn launch(&mut self, s: u32, frame: u32, arrival: Time, start: Time, ring: &mut Vec<Ready>) {
        let st = &mut self.streams[s as usize];
        st.in_flight = true;
        let depth = st
            .completions
            .depth_at(&mut self.completions, st.now, arrival);
        self.horizon = self.horizon.max(start);
        ring.push(Ready {
            stream: s,
            frame,
            arrival,
            start,
            depth,
        });
    }

    /// Judge the arrival just popped off the arrival queue, then re-key its
    /// stream on the following timestamp.
    fn process_arrival(&mut self, ta: Time, s: u32, ring: &mut Vec<Ready>) {
        let st = &mut self.streams[s as usize];
        let frame = st.arrived;
        st.arrived = frame
            .checked_add(1)
            .unwrap_or_else(|| panic!("stream {s} delivered more than {} frames", u32::MAX));
        self.ledger.arrived += 1;
        // A frame counts toward the global backlog iff its stream is
        // already behind; only counted frames are ever shed.
        let counted = st.in_flight || st.queue.head.is_some();
        let shed = match self.admission {
            Admission::Unbounded => false,
            Admission::DropNewest { global_capacity } => counted && self.backlog >= global_capacity,
        };
        if shed {
            self.ledger.shed += 1;
            st.shed += 1;
        } else {
            self.ledger.admitted += 1;
            if counted {
                self.backlog += 1;
                self.ledger.peak_backlog = self.ledger.peak_backlog.max(self.backlog);
                st.queue.push_back(&mut self.backlogs, (frame, ta, true));
            } else {
                // Idle stream: its clock is current, so the frame's start
                // is known now. `fill` takes every start at or before an
                // arrival ahead of it, so all queued starts are later than
                // `ta`; a start at or before `ta` is therefore the very
                // next event, and goes straight into the ring (which has
                // room: `fill` checked before this arrival).
                let ts = self.chaining.start_at(st.now, ta);
                if ts <= ta {
                    self.launch(s, frame, ta, ts, ring);
                } else {
                    st.queue.push_back(&mut self.backlogs, (frame, ta, false));
                    self.start_heap.push(ts, s);
                }
            }
        }
        // Consume the peeked timestamp and re-key the stream on the
        // following one. peek-then-next ≡ next keeps this exact. The
        // arrival was queued clamped to the stream's previous one, so `ta`
        // is also the floor the next timestamp is clamped to.
        let st = &mut self.streams[s as usize];
        let consumed = st
            .source
            .next_arrival()
            .expect("a queued arrival event implies a pending timestamp");
        debug_assert!(consumed <= ta, "peeked and consumed timestamps agree");
        if let Some(next) = st.source.peek() {
            self.arrivals.push(next.max(ta), s);
        }
    }

    /// Fold a finished round back in: `completed(i)` is the completion
    /// time of ring entry `i`. Every executed stream's clock advances, so
    /// streams with queued frames get their next start event.
    fn complete_round(&mut self, ring: &[Ready], completed: impl Fn(usize) -> Time) {
        for (i, r) in ring.iter().enumerate() {
            let st = &mut self.streams[r.stream as usize];
            st.in_flight = false;
            st.completions.push(&mut self.completions, st.now);
            st.now = completed(i);
            if let Some((_, arrival, _)) = st.queue.head {
                self.start_heap
                    .push(self.chaining.start_at(st.now, arrival), r.stream);
            }
        }
        self.ledger.rounds += 1;
    }
}

/// Runs many live streams through per-cycle elastic scheduling on a
/// fixed-size pool of scoped OS threads.
///
/// Construction fixes the worker count and the [`ElasticConfig`]; one
/// runner value can drive many fleets. The calling thread is worker 0: it
/// builds the scheduler while worker 1 builds the worker-side slots, and
/// then each round it fills the ring and publishes its entries in batches
/// as it goes, so the `workers − 1` helper threads run the round's first
/// cycles while the rest are still being scheduled. Once the fill ends,
/// worker 0 seals the round, claims entries like any helper until none
/// is left, and folds the completions back in once every entry has run.
/// With one worker (or one stream) there are no helpers and nothing is
/// shared — which is also the reference schedule every multi-worker run
/// is guaranteed to reproduce byte-for-byte. A driver or source that
/// panics on any worker makes [`ElasticRunner::run`] panic.
///
/// # Examples
///
/// Four periodic streams over two workers; the aggregates match four
/// serial [`StreamingRunner`](crate::stream::StreamingRunner) runs:
///
/// ```
/// use sqm_core::controller::{ConstantExec, OverheadModel};
/// use sqm_core::elastic::{ElasticConfig, ElasticRunner, EngineDriver};
/// use sqm_core::engine::{Engine, NullSink};
/// use sqm_core::manager::NumericManager;
/// use sqm_core::policy::MixedPolicy;
/// use sqm_core::source::Periodic;
/// use sqm_core::system::SystemBuilder;
/// use sqm_core::time::Time;
///
/// let sys = SystemBuilder::new(2)
///     .action("decode", &[100, 200], &[60, 120])
///     .action("render", &[100, 200], &[60, 120])
///     .deadline_last(Time::from_ns(500))
///     .build()
///     .unwrap();
/// let policy = MixedPolicy::new(&sys);
///
/// let streams: Vec<_> = (0..4)
///     .map(|_| {
///         (
///             Periodic::new(Time::from_ns(500), 3),
///             EngineDriver::new(
///                 Engine::new(&sys, NumericManager::new(&sys, &policy), OverheadModel::ZERO),
///                 ConstantExec::average(sys.table()),
///                 NullSink,
///             ),
///         )
///     })
///     .collect();
///
/// let (summary, _drivers) = ElasticRunner::new(2, ElasticConfig::live()).run(streams);
/// assert_eq!(summary.n_streams(), 4);
/// assert_eq!(summary.run().cycles, 12);
/// assert_eq!(summary.stats().processed, 12);
/// assert_eq!(summary.ledger().shed, 0);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ElasticRunner {
    workers: usize,
    config: ElasticConfig,
}

impl ElasticRunner {
    /// A runner with `workers` threads (clamped to at least 1) and the
    /// given configuration.
    pub fn new(workers: usize, config: ElasticConfig) -> ElasticRunner {
        ElasticRunner {
            workers: workers.max(1),
            config,
        }
    }

    /// Configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The runner's configuration.
    pub fn config(&self) -> ElasticConfig {
        self.config
    }

    /// Drain every stream's source, scheduling cycles fleet-wide in
    /// arrival order and executing each round's ready cycles on the
    /// worker pool. Returns the summary and the drivers (in submission
    /// order), so callers can extract sinks or reuse engines. The drivers
    /// live in the block that held the worker-side slots, so the `Vec`'s
    /// capacity is that block's, not its length: dropping it frees the
    /// block whole for the next run.
    pub fn run<A, D>(&self, streams: Vec<(A, D)>) -> (ElasticSummary, Vec<D>)
    where
        A: ArrivalSource,
        D: CycleDriver + Send,
    {
        assert!(
            u32::try_from(streams.len()).is_ok(),
            "stream ids are u32: at most {} streams",
            u32::MAX
        );
        let n = streams.len();
        let workers = self.workers.min(n.max(1));
        let (sched, slots) = if workers == 1 {
            let mut slots = Vec::with_capacity(n);
            let mut sched = Scheduler::new(self.config, streams, |driver| {
                slots.push(Slot::shared(driver))
            });
            run_inline(&mut sched, &mut slots);
            (sched, slots)
        } else {
            run_pool(self.config, streams, workers, Slot::shared)
        };
        summarize(sched, slots)
    }
}

/// Fold a finished run into its summary and drivers. Each stream's
/// [`StreamSummary`] takes its scheduler record's place, in the buffer the
/// population came in (a summary is no larger and equally aligned), and
/// the drivers take their slots' place in the slot buffer.
fn summarize<A, D>(
    sched: Scheduler<A>,
    mut slots: Vec<Mutex<Slot<D>>>,
) -> (ElasticSummary, Vec<D>) {
    // Free the scheduler's queues before the fold; keep its records.
    let Scheduler {
        streams,
        ledger,
        backlogs,
        completions,
        start_heap,
        arrivals,
        ..
    } = sched;
    drop((backlogs, completions, start_heap, arrivals));
    let mut run = RunSummary::default();
    let mut stats = StreamStats::default();
    let mut per_stream: Vec<StreamSummary> = streams
        .into_iter()
        .zip(&mut slots)
        .map(|(st, slot)| {
            // Arrivals, sheds and the last completion are the scheduler's.
            let book = &slot.get_mut().expect("slot lock").book;
            let s = book.summary(st.arrived as usize, st.shed as usize, st.now);
            run.merge(&s.run);
            stats.merge(&s.stats);
            s
        })
        .collect();
    // Hand back the tail that the smaller summaries leave unused.
    per_stream.shrink_to_fit();
    // Not shrunk: the whole slot-sized block goes back to the allocator
    // when the caller drops the drivers, ready for the next run's slots.
    let drivers = slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("slot lock").driver)
        .collect();
    let summary = ElasticSummary {
        per_stream,
        run,
        stats,
        ledger,
    };
    (summary, drivers)
}

/// One worker: every round runs each ready cycle on the calling thread,
/// with exclusive access to the slots (no locking).
fn run_inline<A: ArrivalSource, D: CycleDriver>(
    sched: &mut Scheduler<A>,
    slots: &mut [Mutex<Slot<D>>],
) {
    let mut ring = Vec::with_capacity(sched.ring_capacity);
    let mut completed = vec![Time::ZERO; sched.ring_capacity];
    loop {
        sched.fill(&mut ring, |_| {});
        if ring.is_empty() {
            return;
        }
        for (r, done) in ring.iter().zip(&mut completed) {
            let slot = slots[r.stream as usize].get_mut().expect("slot lock");
            *done = execute(r, slot);
        }
        sched.complete_round(&ring, |i| completed[i]);
    }
}

/// How many committed ring entries the filling worker hands to the pool at
/// a time: one Release store per batch instead of one per entry, while
/// the helpers start on a round's first cycles long before its fill ends.
/// Chosen by measurement; results never depend on it.
const PUBLISH_BATCH: usize = 32;

/// A [`Ready`] entry as the pool shares it, one atomic per field. Worker 0
/// writes an entry before the Release store of the published count that
/// covers it, and nobody rewrites it until every claim of its round has
/// run, so Relaxed accesses suffice.
#[derive(Default)]
struct SharedReady {
    stream: AtomicU32,
    frame: AtomicU32,
    arrival: AtomicI64,
    start: AtomicI64,
    depth: AtomicU32,
}

impl SharedReady {
    #[inline]
    fn store(&self, r: &Ready) {
        self.stream.store(r.stream, Ordering::Relaxed);
        self.frame.store(r.frame, Ordering::Relaxed);
        self.arrival.store(r.arrival.as_ns(), Ordering::Relaxed);
        self.start.store(r.start.as_ns(), Ordering::Relaxed);
        self.depth.store(r.depth, Ordering::Relaxed);
    }

    #[inline]
    fn load(&self) -> Ready {
        Ready {
            stream: self.stream.load(Ordering::Relaxed),
            frame: self.frame.load(Ordering::Relaxed),
            arrival: Time::from_ns(self.arrival.load(Ordering::Relaxed)),
            start: Time::from_ns(self.start.load(Ordering::Relaxed)),
            depth: self.depth.load(Ordering::Relaxed),
        }
    }
}

/// The most entries one claim takes. A claim takes a quarter of the
/// entries still unclaimed, between 1 and this cap (guided self-scheduling,
/// Polychronopoulos and Kuck, IEEE TC 36(12), 1987): few compare-and-swaps
/// while a round is long, an even split of its tail. Chosen by
/// measurement; results never depend on it.
const CLAIM_BATCH: usize = 16;

/// Bit of a published word that marks its round sealed: the fill is over
/// and the count is the round's final length.
const SEALED: u64 = 1 << 31;

/// `(round, index)` in one word: the claim cursor, or (with [`SEALED`]
/// possibly set) the published count. Rounds wrap at 2³²; only adjacent
/// rounds are ever compared.
#[inline]
fn round_word(round: u32, index: usize) -> u64 {
    (u64::from(round) << 32) | index as u64
}

/// Set a pool's poison flag if the thread that holds the guard unwinds, so
/// that no worker waits forever for one that died.
struct PoisonOnUnwind<'a>(&'a AtomicBool);

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// The pool's waits: spin briefly, then yield the core. Every wait is for
/// another worker's progress, so none sleeps or sets a timer.
struct Backoff(u32);

impl Backoff {
    const SPINS: u32 = 64;

    /// Wait a little. Returns `false` once any worker has panicked.
    #[inline]
    fn wait(&mut self, poisoned: &AtomicBool) -> bool {
        if poisoned.load(Ordering::Relaxed) {
            return false;
        }
        if self.0 < Self::SPINS {
            self.0 += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
        true
    }
}

/// Pads and aligns `T` to a 64-byte cache line, so the pool's hot atomics
/// never share one (false sharing). Dereferences to `T`.
#[repr(align(64))]
struct CachePadded<T>(T);

impl<T> CachePadded<T> {
    fn new(value: T) -> CachePadded<T> {
        CachePadded(value)
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// What the workers of [`run_pool`] share for one run.
///
/// Worker 1 builds `slots` while worker 0 builds the scheduler; every
/// other worker waits for them before it claims anything. Then each
/// round, worker 0 resets `cursor` to `(round, 0)`, fills the ring,
/// publishing batches of entries through `published` as it goes, then
/// seals the round. Every worker claims runs of published entries by
/// compare-and-swap on `cursor`, each a guided share of what is unclaimed
/// (see [`CLAIM_BATCH`]); because the round is part of the cursor, a claim
/// that raced past the end of its round fails instead of taking entries of
/// the next one. A helper adds what it ran to `finished` once the
/// sealed round has no entry left to claim, and worker 0 folds the round's
/// completions in once `finished` accounts for every entry it did not run
/// itself.
struct Pool<D> {
    /// Every stream's slot in stream order, set once worker 1 has built
    /// them all.
    slots: OnceLock<Vec<Mutex<Slot<D>>>>,
    entries: Box<[SharedReady]>,
    /// Completion time of each ring entry, written (Relaxed) by whoever
    /// ran it; a helper's writes reach worker 0 through `finished`.
    completed: Box<[AtomicI64]>,
    /// Set when any worker panics. Publishes no other data (Relaxed).
    poisoned: AtomicBool,
    /// `(round, next unclaimed entry)`. It only decides who runs which
    /// entry and publishes no data, so every access is Relaxed.
    cursor: CachePadded<AtomicU64>,
    /// `(round, entries published)`, plus [`SEALED`] once the fill is done.
    /// Worker 0 stores it with Release after writing the entries it
    /// covers; claimers load it with Acquire before reading them.
    published: CachePadded<AtomicU64>,
    /// Entries the helpers have run, summed over every round so far
    /// (wrapping). Helpers add with Release after writing their
    /// `completed` times; worker 0 loads it with Acquire before reading
    /// them.
    finished: CachePadded<AtomicUsize>,
}

/// Drivers per chunk that worker 0 hands to worker 1 while the two build
/// a pool's scheduler and slots: one channel message per thousand
/// streams, and worker 1 starts after the first thousand. Results never
/// depend on it.
const HANDOFF_CHUNK: usize = 1024;

/// Full chunks the hand-over channel holds while worker 1 catches up.
const HANDOFF_DEPTH: usize = 2;

/// Worker 0's end of the slot hand-over.
struct Handoff<D> {
    /// Drivers not yet handed over, in stream order.
    chunk: Vec<D>,
    /// Full chunks to worker 1. A send waits while the channel is full and
    /// fails, dropping the chunk, once worker 1 has stopped receiving.
    full: SyncSender<Vec<D>>,
}

impl<D> Handoff<D> {
    /// Queue the next stream's driver, handing the chunk over once full.
    #[inline]
    fn push(&mut self, driver: D) {
        self.chunk.push(driver);
        if self.chunk.len() == HANDOFF_CHUNK {
            let next = Vec::with_capacity(HANDOFF_CHUNK);
            let _ = self.full.send(std::mem::replace(&mut self.chunk, next));
        }
    }

    /// Hand over the last drivers and close the channel, which ends
    /// worker 1's build.
    fn finish(self) {
        if !self.chunk.is_empty() {
            let _ = self.full.send(self.chunk);
        }
    }
}

impl<D: CycleDriver> Pool<D> {
    /// The slots, once worker 1 has built them, or `None` once any worker
    /// has panicked.
    fn slots(&self) -> Option<&[Mutex<Slot<D>>]> {
        let mut backoff = Backoff(0);
        loop {
            if let Some(slots) = self.slots.get() {
                return Some(slots);
            }
            if !backoff.wait(&self.poisoned) {
                return None;
            }
        }
    }

    /// Claim a guided share of the entries from `cursor` up to `count`, the
    /// round's published count, and run them if the claim wins. Returns how
    /// many it ran.
    #[inline]
    fn try_run(&self, slots: &[Mutex<Slot<D>>], cursor: u64, count: usize) -> usize {
        let next = cursor as u32 as usize;
        let take = ((count - next) / 4).clamp(1, CLAIM_BATCH);
        if self
            .cursor
            .compare_exchange_weak(
                cursor,
                cursor + take as u64,
                Ordering::Relaxed,
                Ordering::Relaxed,
            )
            .is_err()
        {
            return 0;
        }
        for index in next..next + take {
            let r = self.entries[index].load();
            let mut slot = slots[r.stream as usize].lock().expect("slot lock");
            let done = execute(&r, &mut slot);
            self.completed[index].store(done.as_ns(), Ordering::Relaxed);
        }
        take
    }

    /// Make `ring[from..]` visible to the claimers as entries of `round`.
    fn publish(&self, round: u32, ring: &[Ready], from: usize, sealed: bool) {
        for (entry, r) in self.entries[from..].iter().zip(&ring[from..]) {
            entry.store(r);
        }
        let word = round_word(round, ring.len()) | if sealed { SEALED } else { 0 };
        self.published.store(word, Ordering::Release);
    }

    /// Worker 1's set-up: fill `slots`, empty but allocated for all `n`
    /// streams, building each slot from the driver chunks worker 0 hands
    /// over through `chunks`, then share them. The slots are thus first
    /// touched on this thread, while worker 0 builds the scheduler.
    /// Returns `false` if worker 0 unwound first (its sender is dropped
    /// before `n` drivers came through).
    fn build_slots(
        &self,
        mut slots: Vec<Mutex<Slot<D>>>,
        n: usize,
        chunks: Receiver<Vec<D>>,
        new_slot: fn(D) -> Mutex<Slot<D>>,
    ) -> bool {
        let _guard = PoisonOnUnwind(&self.poisoned);
        for chunk in chunks {
            slots.extend(chunk.into_iter().map(new_slot));
        }
        slots.len() == n && self.slots.set(slots).is_ok()
    }

    /// A helper's life: wait for the slots, run whatever is published and
    /// unclaimed, report each round's share, and return after the empty
    /// round that ends the run (or once another worker has panicked).
    fn help(&self) {
        let _guard = PoisonOnUnwind(&self.poisoned);
        let Some(slots) = self.slots() else {
            return;
        };
        let mut ran = 0usize;
        let mut backoff = Backoff(0);
        loop {
            let cursor = self.cursor.load(Ordering::Relaxed);
            let published = self.published.load(Ordering::Acquire);
            if cursor >> 32 == published >> 32 {
                let next = cursor as u32 as usize;
                let count = (published & (SEALED - 1)) as usize;
                if next < count {
                    ran += self.try_run(slots, cursor, count);
                    backoff = Backoff(0);
                    continue;
                }
                if published & SEALED != 0 {
                    if ran > 0 {
                        self.finished.fetch_add(ran, Ordering::Release);
                        ran = 0;
                    }
                    if count == 0 {
                        return;
                    }
                }
            }
            if !backoff.wait(&self.poisoned) {
                return;
            }
        }
    }

    /// Worker 0's life: build the scheduler in the population's buffer,
    /// handing the drivers to worker 1 as it goes, then fill, publish and
    /// seal each round, drain it alongside the helpers, and fold it back
    /// in once every entry has run. Returns the scheduler when the run is
    /// complete, or early once another worker has panicked (the scope then
    /// re-raises that panic).
    fn lead<A: ArrivalSource>(
        &self,
        config: ElasticConfig,
        population: Vec<(A, D)>,
        mut handoff: Handoff<D>,
    ) -> Scheduler<A> {
        let _guard = PoisonOnUnwind(&self.poisoned);
        let mut sched = Scheduler::new(config, population, |driver| handoff.push(driver));
        handoff.finish();
        let mut ring = Vec::with_capacity(sched.ring_capacity);
        let mut helpers_ran = 0usize;
        let mut round = 0u32;
        loop {
            self.cursor.store(round_word(round, 0), Ordering::Relaxed);
            let mut shared = 0;
            sched.fill(&mut ring, |ring| {
                self.publish(round, ring, shared, false);
                shared = ring.len();
            });
            self.publish(round, &ring, shared, true);
            if ring.is_empty() {
                return sched;
            }
            let Some(slots) = self.slots() else {
                return sched;
            };
            let mut ran = 0;
            loop {
                let cursor = self.cursor.load(Ordering::Relaxed);
                if cursor as u32 as usize >= ring.len() {
                    break;
                }
                ran += self.try_run(slots, cursor, ring.len());
            }
            helpers_ran = helpers_ran.wrapping_add(ring.len() - ran);
            let mut backoff = Backoff(0);
            while self.finished.load(Ordering::Acquire) != helpers_ran {
                if !backoff.wait(&self.poisoned) {
                    return sched;
                }
            }
            sched.complete_round(&ring, |i| {
                Time::from_ns(self.completed[i].load(Ordering::Relaxed))
            });
            round = round.wrapping_add(1);
        }
    }
}

/// `workers ≥ 2`, in one thread scope from set-up to the last round. The
/// calling thread is worker 0: it builds the scheduler and then fills the
/// ring. Worker 1 builds the slots, each with `new_slot`, from the drivers
/// worker 0 hands over; then it and the other `workers − 2` helpers run
/// ring entries as they are published. Returns the scheduler and the
/// slots.
fn run_pool<A: ArrivalSource, D: CycleDriver + Send>(
    config: ElasticConfig,
    population: Vec<(A, D)>,
    workers: usize,
    new_slot: fn(D) -> Mutex<Slot<D>>,
) -> (Scheduler<A>, Vec<Mutex<Slot<D>>>) {
    let capacity = config.ring_capacity.max(1);
    assert!(
        (capacity as u64) < SEALED,
        "ring capacity {capacity} must be below 2^31 with several workers"
    );
    let n = population.len();
    let pool = Pool {
        slots: OnceLock::new(),
        entries: (0..capacity).map(|_| SharedReady::default()).collect(),
        completed: (0..capacity).map(|_| AtomicI64::new(0)).collect(),
        poisoned: AtomicBool::new(false),
        cursor: CachePadded::new(AtomicU64::new(round_word(0, 0))),
        published: CachePadded::new(AtomicU64::new(round_word(0, 0))),
        finished: CachePadded::new(AtomicUsize::new(0)),
    };
    let (full, chunks) = mpsc::sync_channel(HANDOFF_DEPTH);
    let handoff = Handoff {
        chunk: Vec::with_capacity(HANDOFF_CHUNK),
        full,
    };
    // Allocated here but first touched by worker 1: the calling thread's
    // allocator can then hand back the buffer the previous run freed here,
    // whichever thread worker 1 is.
    let slots = Vec::with_capacity(n);
    let sched = std::thread::scope(|scope| {
        let pool = &pool;
        scope.spawn(move || {
            if pool.build_slots(slots, n, chunks, new_slot) {
                pool.help();
            }
        });
        for _ in 2..workers {
            scope.spawn(|| pool.help());
        }
        pool.lead(config, population, handoff)
    });
    let slots = pool.slots.into_inner().expect("worker 1 built the slots");
    (sched, slots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{ConstantExec, FnExec, OverheadModel};
    use crate::engine::NullSink;
    use crate::manager::{LookupManager, NumericManager};
    use crate::policy::MixedPolicy;
    use crate::source::{Bursty, Jittered, PatternSource, Periodic, TraceReplay};
    use crate::stream::{OverloadPolicy, StreamConfig, StreamingRunner};
    use crate::system::{ParameterizedSystem, SystemBuilder};
    use std::cell::Cell;
    use std::panic::AssertUnwindSafe;
    use std::rc::Rc;
    use std::sync::{mpsc, Arc};
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    const PERIOD: Time = Time::from_ns(130);

    fn sys() -> ParameterizedSystem {
        SystemBuilder::new(3)
            .action("a", &[10, 25, 40], &[4, 9, 14])
            .action("b", &[12, 22, 35], &[6, 11, 17])
            .action("c", &[8, 18, 28], &[3, 8, 12])
            .action("d", &[15, 24, 33], &[7, 12, 16])
            .deadline_last(PERIOD)
            .build()
            .unwrap()
    }

    fn source_mix(i: usize, frames: usize) -> PatternSource {
        match i % 3 {
            0 => PatternSource::Periodic(Periodic::new(PERIOD, frames)),
            1 => PatternSource::Jittered(Jittered::new(
                PERIOD,
                Time::from_ns(40),
                frames,
                7 + i as u64,
            )),
            _ => PatternSource::Bursty(Bursty::new(PERIOD, 4, frames, 11 + i as u64)),
        }
    }

    /// Bursts of up to six frames at three times the nominal rate: streams
    /// fall several frames behind, so queue depths reach 3 and beyond.
    fn overload_burst(i: usize, frames: usize) -> PatternSource {
        PatternSource::Bursty(Bursty::new(
            Time::from_ns(PERIOD.as_ns() / 3),
            6,
            frames,
            23 + i as u64,
        ))
    }

    /// Small bursts nanoseconds apart: deep overload, and some completions
    /// land exactly on an arrival, where the per-stream runner still
    /// counts the finishing frame as queued (`c < a`, not `c ≤ a`).
    fn tight_bursts(i: usize, frames: usize) -> PatternSource {
        PatternSource::Bursty(Bursty::new(Time::from_ns(9), 3, frames, 23 + i as u64))
    }

    /// Stream `i`'s source of `frames` frames.
    type SourceFn = fn(usize, usize) -> PatternSource;

    /// The test populations' sources, each with the deepest per-stream
    /// backlog it must reach somewhere.
    const POPULATIONS: [(SourceFn, usize); 3] =
        [(source_mix, 0), (overload_burst, 3), (tight_bursts, 3)];

    /// Seed-dependent deterministic exec times (cloneable across paths).
    fn exec_for(sys: &ParameterizedSystem, seed: u64) -> impl ExecutionTimeSource + Send + '_ {
        FnExec(
            move |cycle: usize, action: usize, q: crate::quality::Quality| {
                let wc = sys.table().wc(action, q).as_ns();
                let f = 40 + ((seed as usize + cycle + action) % 50) as i64;
                Time::from_ns(wc * f / 100)
            },
        )
    }

    fn drivers<'a>(
        s: &'a ParameterizedSystem,
        p: &'a MixedPolicy<'a>,
        n: usize,
        frames: usize,
        source: SourceFn,
    ) -> Vec<(PatternSource, impl CycleDriver + Send + 'a)> {
        (0..n)
            .map(|i| {
                (
                    source(i, frames),
                    EngineDriver::new(
                        Engine::new(
                            s,
                            NumericManager::new(s, p),
                            OverheadModel::new(Time::from_ns(2), Time::from_ns(1)),
                        ),
                        exec_for(s, i as u64),
                        NullSink,
                    ),
                )
            })
            .collect()
    }

    /// Keys the packed `u128` order must keep: signed times on both sides
    /// of zero, both sentinels and their neighbours, and times shared by
    /// several streams. Stream ids are unique.
    fn edge_events() -> Vec<(Time, u32)> {
        let mut events = vec![
            (Time::INF, 100),
            (Time::NEG_INF, 101),
            (Time::from_ns(-1), 102),
            (Time::ZERO, 103),
            (Time::from_ns(i64::MIN + 1), 104),
            (Time::from_ns(i64::MAX - 1), 105),
            (Time::from_ns(-40), 106),
            (Time::from_ns(1), 107),
            (Time::NEG_INF, 108),
            (Time::INF, 109),
        ];
        events.extend((110..120).map(|s| (Time::from_ns(30), s)));
        events.extend((120..126).map(|s| (Time::from_ns(-30), s)));
        events
    }

    /// The operations the sorted-`Vec` model checks, on either event queue.
    trait EventQueue {
        fn push(&mut self, time: Time, stream: u32);
        fn pop(&mut self) -> Option<(Time, u32)>;
        fn peek(&mut self) -> Option<(Time, u32)>;
    }

    impl EventQueue for EventHeap {
        fn push(&mut self, time: Time, stream: u32) {
            EventHeap::push(self, time, stream);
        }
        fn pop(&mut self) -> Option<(Time, u32)> {
            EventHeap::pop(self)
        }
        fn peek(&mut self) -> Option<(Time, u32)> {
            EventHeap::peek(self)
        }
    }

    impl EventQueue for ArrivalQueue {
        fn push(&mut self, time: Time, stream: u32) {
            ArrivalQueue::push(self, time, stream);
        }
        fn pop(&mut self) -> Option<(Time, u32)> {
            ArrivalQueue::pop(self)
        }
        fn peek(&mut self) -> Option<(Time, u32)> {
            ArrivalQueue::peek(self)
        }
    }

    /// Draws the model test's event times from a random word `r`, the step
    /// number and the floor: the latest popped time, or the time of the
    /// event a re-key replaces.
    type TimeGen = fn(usize, usize, Time) -> Time;

    /// Any time: one draw in five is an edge key, the rest fall in a
    /// narrow band around zero (many ties across streams).
    fn any_time(r: usize, _step: usize, _floor: Time) -> Time {
        let edges = edge_events();
        if r.is_multiple_of(5) {
            edges[(r / 5) % edges.len()].0
        } else {
            Time::from_ns((r % 61) as i64 - 30)
        }
    }

    /// A time never below `floor`, as an arrival queue takes them. One draw
    /// in five is an edge key (raised to `floor` if below it) and one is
    /// `floor` itself (ties with events already popped, and a re-key onto
    /// the very time it replaces, as a burst does). The rest fall up to
    /// 60 ns above a base that drifts from −300 ns to +300 ns over the run,
    /// or above `floor` once that is higher, so the floor climbs through
    /// negative times and zero.
    fn monotone_time(r: usize, step: usize, floor: Time) -> Time {
        match r % 5 {
            0 => any_time(r, step, floor).max(floor),
            1 => floor,
            _ => floor.max(Time::from_ns(step as i64 / 5 - 300)) + Time::from_ns((r % 61) as i64),
        }
    }

    /// An interleaved push / pop / re-key sequence checked step by step
    /// against a sorted `Vec`, with times from `draw`; pushes use fresh
    /// stream ids, so every pending stream id stays unique.
    fn interleaved_matches_sorted_model(queue: &mut impl EventQueue, draw: TimeGen) {
        let mut model: Vec<(Time, u32)> = Vec::new();
        let mut floor = Time::NEG_INF;
        let mut fresh = 0u32;
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for step in 0..3_000 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let r = (x >> 33) as usize;
            let insert = |model: &mut Vec<(Time, u32)>, e: (Time, u32)| {
                let at = model.partition_point(|m| *m < e);
                model.insert(at, e);
            };
            match (r >> 8) % 4 {
                0 | 1 => {
                    let time = draw(r, step, floor);
                    queue.push(time, fresh);
                    insert(&mut model, (time, fresh));
                    fresh += 1;
                }
                2 => {
                    let want = (!model.is_empty()).then(|| model.remove(0));
                    assert_eq!(queue.pop(), want, "pop at step {step}");
                    if let Some((t, _)) = want {
                        floor = t;
                    }
                }
                _ => {
                    let want = model.first().copied();
                    assert_eq!(queue.peek(), want, "peek at step {step}");
                    if let Some((top, stream)) = want {
                        // Re-key: pop the minimum and queue its stream again.
                        assert_eq!(queue.pop(), want, "re-key at step {step}");
                        let time = draw(r, step, top);
                        queue.push(time, stream);
                        floor = top;
                        model.remove(0);
                        insert(&mut model, (time, stream));
                    }
                }
            }
        }
        for (i, want) in model.into_iter().enumerate() {
            assert_eq!(queue.pop(), Some(want), "drain {i}");
        }
        assert_eq!(queue.pop(), None);
    }

    #[test]
    fn event_heap_pops_sorted() {
        let mut heap = EventHeap::new();
        let times = [50i64, 10, 30, 10, 90, 0, 30, 70];
        let mut events: Vec<(Time, u32)> = times
            .iter()
            .enumerate()
            .map(|(i, t)| (Time::from_ns(*t), i as u32))
            .collect();
        events.extend(edge_events());
        for &(t, s) in &events {
            heap.push(t, s);
        }
        assert_eq!(heap.len(), events.len());
        let out: Vec<(Time, u32)> = std::iter::from_fn(|| heap.pop()).collect();
        events.sort();
        assert_eq!(out, events);
        assert!(heap.is_empty());
        assert_eq!(heap.pop(), None);

        interleaved_matches_sorted_model(&mut EventHeap::new(), any_time);
    }

    /// The arrival queue against the same model, on times that never go
    /// below its latest pop: the edge keys fill the top buckets and the
    /// sentinels, the band the low ones.
    #[test]
    fn arrival_queue_matches_sorted_model() {
        interleaved_matches_sorted_model(&mut ArrivalQueue::new(Time::NEG_INF, 0), monotone_time);
    }

    /// Many streams at one time pop in stream-id order whatever order they
    /// were pushed in, and a stream re-keyed onto the time just popped (a
    /// burst) is the next pop again.
    #[test]
    fn arrival_queue_orders_ties_by_stream_and_takes_bursts_back() {
        let mut queue = ArrivalQueue::new(Time::ZERO, 0);
        let shared = Time::from_ns(50);
        for i in 0..1_000u32 {
            queue.push(shared, (i * 7_919) % 1_000 + 10);
        }
        queue.push(Time::from_ns(60), 3);
        queue.push(Time::from_ns(40), 5);
        queue.push(shared, 4);
        assert_eq!(queue.pop(), Some((Time::from_ns(40), 5)));
        assert_eq!(queue.pop(), Some((shared, 4)));
        queue.push(shared, 4);
        queue.push(shared, 4_000);
        assert_eq!(
            queue.peek(),
            Some((shared, 4)),
            "the burst goes back in front"
        );
        assert_eq!(queue.pop(), Some((shared, 4)));
        for s in 10..1_010 {
            assert_eq!(queue.pop(), Some((shared, s)));
            if s == 500 {
                // Re-keyed onto the shared time mid-way: still in id order.
                queue.push(shared, 500);
                assert_eq!(queue.pop(), Some((shared, 500)));
            }
        }
        assert_eq!(queue.pop(), Some((shared, 4_000)));
        assert_eq!(queue.pop(), Some((Time::from_ns(60), 3)));
        assert_eq!(queue.pop(), None);
        assert_eq!(queue.peek(), None);
    }

    /// A push below the queue's minimum breaks the monotone contract.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "precedes the queue's minimum")]
    fn arrival_queue_rejects_a_push_below_its_minimum() {
        let mut queue = ArrivalQueue::new(Time::ZERO, 0);
        queue.push(Time::from_ns(20), 1);
        queue.push(Time::from_ns(30), 2);
        assert_eq!(queue.pop(), Some((Time::from_ns(20), 1)));
        queue.push(Time::from_ns(10), 1);
    }

    /// Splitmix64 finaliser mixing a run seed with a stream index.
    fn mix(seed: u64, i: u64) -> u64 {
        let mut z = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Stream `i` of the benchmark's `live-fleet` population: 4 frames,
    /// periodic / jittered / bursty round-robin at a 130 ns period, seeded
    /// by mixing the run seed with the stream index.
    fn live_fleet_source(seed: u64, i: usize) -> PatternSource {
        let period = Time::from_ns(130);
        let seed = mix(seed, i as u64);
        match i % 3 {
            0 => PatternSource::Periodic(Periodic::new(period, 4)),
            1 => PatternSource::Jittered(Jittered::new(
                period,
                Time::from_ns(period.as_ns() / 4),
                4,
                seed,
            )),
            _ => PatternSource::Bursty(Bursty::new(period, 4, 4, seed)),
        }
    }

    /// Every arrival of `sources`, in the order `queue` hands them out when
    /// each stream is stepped and re-keyed as it pops, the way the
    /// scheduler's fill does.
    fn arrival_order(
        mut sources: Vec<PatternSource>,
        queue: &mut impl EventQueue,
    ) -> Vec<(Time, u32)> {
        for (i, source) in sources.iter_mut().enumerate() {
            if let Some(t) = source.peek() {
                queue.push(t.max(Time::ZERO), i as u32);
            }
        }
        let mut floors = vec![Time::ZERO; sources.len()];
        let mut order = Vec::new();
        while let Some((t, s)) = queue.pop() {
            order.push((t, s));
            let (source, floor) = (&mut sources[s as usize], &mut floors[s as usize]);
            *floor = source.next_arrival().expect("queued").max(*floor);
            if let Some(next) = source.peek() {
                queue.push(next.max(*floor), s);
            }
        }
        order
    }

    /// On the `live-fleet` population's 400k arrivals, the arrival queue
    /// pops exactly the sequence the binary heap pops, at seeds 1, 2 and
    /// 9001.
    #[test]
    fn arrival_queue_pops_the_heap_order_on_live_fleet_arrivals() {
        for seed in [1, 2, 9001] {
            let population = || (0..100_000).map(|i| live_fleet_source(seed, i)).collect();
            let want = arrival_order(population(), &mut EventHeap::new());
            assert_eq!(want.len(), 400_000);
            let got = arrival_order(population(), &mut ArrivalQueue::new(Time::ZERO, 100_000));
            assert!(got == want, "seed {seed}: orders differ");
        }
    }

    /// Ring capacities around the pool's claim cap and publish batch: a
    /// round that ends one entry short of either, exactly on it, one entry
    /// past it, and one entry past four claims or two batches — plus a
    /// tiny and a large ring.
    const RINGS: [usize; 10] = [
        3,
        CLAIM_BATCH - 1,
        CLAIM_BATCH,
        CLAIM_BATCH + 1,
        4 * CLAIM_BATCH + 1,
        PUBLISH_BATCH - 1,
        PUBLISH_BATCH,
        PUBLISH_BATCH + 1,
        2 * PUBLISH_BATCH + 1,
        256,
    ];

    /// Enough streams that every ring in [`RINGS`] up to `2·batch + 1`
    /// fills (a stream has at most one cycle per round).
    const WIDE: usize = 3 * PUBLISH_BATCH;

    /// The whole `ElasticSummary` — per-stream summaries, aggregates and
    /// the ledger — is byte-identical for every worker count (2..=8, more
    /// workers than this host has cores on purpose), under both chainings,
    /// both admissions, and rings that end rounds on either side of a
    /// claim or a publish batch.
    #[test]
    fn worker_counts_are_byte_identical() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        for chaining in [CycleChaining::WorkConserving, CycleChaining::ArrivalClamped] {
            for admission in [
                Admission::Unbounded,
                Admission::DropNewest { global_capacity: 3 },
            ] {
                for ring in RINGS {
                    let config = ElasticConfig::live()
                        .with_chaining(chaining)
                        .with_ring_capacity(ring)
                        .with_admission(admission);
                    let (reference, _) =
                        ElasticRunner::new(1, config).run(drivers(&s, &p, WIDE, 8, source_mix));
                    assert_eq!(reference.n_streams(), WIDE);
                    assert!(reference.stats().processed > 0);
                    for workers in 2..=8 {
                        let (out, _) = ElasticRunner::new(workers, config)
                            .run(drivers(&s, &p, WIDE, 8, source_mix));
                        assert_eq!(
                            out, reference,
                            "workers={workers} ring={ring} {chaining:?} {admission:?}"
                        );
                    }
                }
            }
        }
    }

    /// Under `Admission::Unbounded`, each stream's result equals running
    /// it alone through `StreamingRunner` + `Block` — the *full* struct,
    /// `max_backlog` included (the worker that runs each frame re-derives
    /// the per-stream runner's queue depth from the stream's arrival and
    /// completion sequences) — for every ring capacity and worker count,
    /// on a bursty overload population whose streams queue 3+ frames deep.
    #[test]
    fn unbounded_matches_streaming_runner_per_stream() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        for (source, min_depth) in POPULATIONS {
            for chaining in [CycleChaining::WorkConserving, CycleChaining::ArrivalClamped] {
                let want: Vec<StreamSummary> = (0..9)
                    .map(|i| {
                        let runner = StreamingRunner::new(StreamConfig {
                            chaining,
                            capacity: 2,
                            policy: OverloadPolicy::Block,
                        });
                        runner.run(
                            &mut Engine::new(
                                &s,
                                NumericManager::new(&s, &p),
                                OverheadModel::new(Time::from_ns(2), Time::from_ns(1)),
                            ),
                            &mut source(i, 10),
                            &mut exec_for(&s, i as u64),
                            &mut NullSink,
                        )
                    })
                    .collect();
                let deepest = want.iter().map(|w| w.stats.max_backlog).max();
                assert!(deepest >= Some(min_depth), "{chaining:?}: {deepest:?}");
                for ring in [1usize, 3, 4096] {
                    let config = ElasticConfig::live()
                        .with_chaining(chaining)
                        .with_ring_capacity(ring);
                    for workers in 1..=4 {
                        let (elastic, _) =
                            ElasticRunner::new(workers, config).run(drivers(&s, &p, 9, 10, source));
                        for (i, (got, want)) in elastic.per_stream().iter().zip(&want).enumerate() {
                            assert_eq!(
                                got, want,
                                "stream {i} {chaining:?} ring={ring} workers={workers}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Global shedding: overloaded fleets shed deterministically, the
    /// ledger's books balance against the per-stream stats, and a stream
    /// that keeps up is never shed even while the rest of the fleet
    /// drowns.
    #[test]
    fn global_shed_ledger_balances_and_spares_prompt_streams() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let frames = 24;
        // Streams 0..5 arrive at 4x the sustainable rate; stream 5 is
        // periodic at a comfortable period.
        let build = || -> Vec<(PatternSource, _)> {
            (0..6)
                .map(|i| {
                    let src = if i < 5 {
                        PatternSource::Periodic(Periodic::new(
                            Time::from_ns(PERIOD.as_ns() / 4),
                            frames,
                        ))
                    } else {
                        PatternSource::Periodic(Periodic::new(
                            Time::from_ns(PERIOD.as_ns() * 2),
                            frames,
                        ))
                    };
                    (
                        src,
                        EngineDriver::new(
                            Engine::new(
                                &s,
                                NumericManager::new(&s, &p),
                                OverheadModel::new(Time::from_ns(2), Time::from_ns(1)),
                            ),
                            exec_for(&s, i as u64),
                            NullSink,
                        ),
                    )
                })
                .collect()
        };
        let config = ElasticConfig::live()
            .with_admission(Admission::DropNewest { global_capacity: 4 })
            .with_ring_capacity(8);
        let (out, _) = ElasticRunner::new(1, config).run(build());
        let ledger = *out.ledger();
        assert_eq!(ledger.arrived, 6 * frames);
        assert_eq!(ledger.admitted + ledger.shed, ledger.arrived);
        assert!(ledger.shed > 0, "4x overload must shed: {ledger:?}");
        assert!(ledger.peak_backlog <= 4, "capacity bound: {ledger:?}");
        assert!(ledger.rounds > 1, "tiny ring forces many rounds");
        assert_eq!(out.stats().arrived, ledger.arrived);
        assert_eq!(out.stats().dropped, ledger.shed);
        assert_eq!(out.stats().processed, ledger.admitted);
        // The prompt stream is untouched by everyone else's overload.
        let prompt = out.stream(5);
        assert_eq!(prompt.stats.dropped, 0, "prompt stream never shed");
        assert_eq!(prompt.stats.processed, frames);
        // Deterministic across worker counts (also covered broadly by
        // `worker_counts_are_byte_identical`).
        let (again, _) = ElasticRunner::new(4, config).run(build());
        assert_eq!(again, out);
    }

    /// A ring of capacity 1 degenerates to one cycle per round and still
    /// produces the same per-stream results as a huge ring (admission
    /// differs only under global capacity pressure, absent here) —
    /// `max_backlog` included: each frame's depth is a function of its
    /// stream's arrival and completion sequences, so ring granularity
    /// (like worker count) never moves it. So do the rings around the
    /// claim cap and the publish batch, at every worker count from 2 to 8.
    #[test]
    fn ring_capacity_does_not_change_unbounded_results() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        for (source, min_depth) in POPULATIONS {
            let run = |workers: usize, ring: usize| {
                ElasticRunner::new(workers, ElasticConfig::live().with_ring_capacity(ring))
                    .run(drivers(&s, &p, WIDE, 6, source))
                    .0
            };
            let big = run(2, 1 << 12);
            let tiny = run(2, 1);
            assert_eq!(big.per_stream(), tiny.per_stream());
            assert!(tiny.ledger().rounds > big.ledger().rounds);
            assert!(big.stats().max_backlog >= min_depth, "{:?}", big.stats());
            for ring in RINGS {
                for workers in 2..=8 {
                    assert_eq!(
                        run(workers, ring).per_stream(),
                        big.per_stream(),
                        "ring={ring} workers={workers}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_fleet_and_empty_sources_are_defaults() {
        let runner = ElasticRunner::new(4, ElasticConfig::live());
        type Dri<'a> =
            EngineDriver<'a, NumericManager<'a, MixedPolicy<'a>>, ConstantExec<'a>, NullSink>;
        let (out, drivers) = runner.run(Vec::<(Periodic, Dri<'_>)>::new());
        let _ = drivers;
        assert_eq!(out, ElasticSummary::default());

        let s = sys();
        let p = MixedPolicy::new(&s);
        let empty: Vec<(PatternSource, _)> = (0..3)
            .map(|_| {
                (
                    PatternSource::Periodic(Periodic::new(PERIOD, 0)),
                    EngineDriver::new(
                        Engine::new(&s, NumericManager::new(&s, &p), OverheadModel::ZERO),
                        ConstantExec::average(s.table()),
                        NullSink,
                    ),
                )
            })
            .collect();
        let (out, _) = runner.run(empty);
        assert_eq!(out.n_streams(), 3);
        assert_eq!(*out.run(), RunSummary::default());
        assert_eq!(out.ledger().arrived, 0);
    }

    /// A periodic source whose first arrival, if gated, is consumed only
    /// after a signal from some driver — or after a generous timeout.
    struct Gated {
        inner: Periodic,
        gate: Option<(mpsc::Receiver<()>, Rc<Cell<bool>>)>,
    }

    impl ArrivalSource for Gated {
        fn next_arrival(&mut self) -> Option<Time> {
            if let Some((signal, opened)) = self.gate.take() {
                opened.set(signal.recv_timeout(Duration::from_secs(30)).is_ok());
            }
            self.inner.next_arrival()
        }

        fn peek(&mut self) -> Option<Time> {
            self.inner.peek()
        }
    }

    /// A driver that signals every time it runs a cycle.
    struct Signalling<D> {
        inner: D,
        signal: Option<mpsc::Sender<()>>,
    }

    impl<D: CycleDriver> CycleDriver for Signalling<D> {
        fn run_cycle(&mut self, cycle: usize, start: Time) -> CycleSummary {
            if let Some(signal) = &self.signal {
                let _ = signal.send(());
            }
            self.inner.run_cycle(cycle, start)
        }
    }

    /// Helpers run a round's entries while worker 0 is still filling it.
    /// Every stream's first frame arrives at 0, so round 0 commits one
    /// entry per stream in stream order; the stream right after the first
    /// publish batch holds the fill inside `next_arrival` until a driver
    /// of that batch has run. Only a helper can run it then, so a pool
    /// that ran entries only after sealing the round would time out here.
    #[test]
    fn helpers_run_published_entries_while_the_fill_goes_on() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let (tx, rx) = mpsc::channel();
        let opened = Rc::new(Cell::new(false));
        let mut gate = Some((rx, Rc::clone(&opened)));
        let streams: Vec<_> = (0..=PUBLISH_BATCH)
            .map(|i| {
                let source = Gated {
                    inner: Periodic::new(PERIOD, 2),
                    gate: if i == PUBLISH_BATCH {
                        gate.take()
                    } else {
                        None
                    },
                };
                let driver = Signalling {
                    inner: EngineDriver::new(
                        Engine::new(&s, NumericManager::new(&s, &p), OverheadModel::ZERO),
                        exec_for(&s, i as u64),
                        NullSink,
                    ),
                    signal: (i < PUBLISH_BATCH).then(|| tx.clone()),
                };
                (source, driver)
            })
            .collect();
        let (out, _) = ElasticRunner::new(2, ElasticConfig::live()).run(streams);
        assert!(opened.get(), "no entry ran before round 0's fill ended");
        assert_eq!(out.stats().processed, 2 * (PUBLISH_BATCH + 1));
    }

    /// A driver that panics on the first cycle it runs on one side of the
    /// pool: the thread that called `run` (worker 0) or any helper. Cycles
    /// on the other side first wait, for a bounded time, until the
    /// panicking side has run one, so both sides are sure to run cycles.
    struct Tripwire<D> {
        inner: D,
        worker0: ThreadId,
        panic_on_worker0: bool,
        tripped: Arc<AtomicBool>,
    }

    impl<D: CycleDriver> CycleDriver for Tripwire<D> {
        fn run_cycle(&mut self, cycle: usize, start: Time) -> CycleSummary {
            let on_worker0 = std::thread::current().id() == self.worker0;
            if on_worker0 == self.panic_on_worker0 {
                self.tripped.store(true, Ordering::SeqCst);
                panic!("driver failure on cycle {cycle}");
            }
            let deadline = Instant::now() + Duration::from_secs(10);
            while !self.tripped.load(Ordering::SeqCst) && Instant::now() < deadline {
                std::thread::yield_now();
            }
            self.inner.run_cycle(cycle, start)
        }
    }

    /// A source whose `peek` panics when armed.
    struct PeekBomb {
        inner: Periodic,
        armed: bool,
    }

    impl ArrivalSource for PeekBomb {
        fn next_arrival(&mut self) -> Option<Time> {
            self.inner.next_arrival()
        }

        fn peek(&mut self) -> Option<Time> {
            assert!(!self.armed, "source failure during set-up");
            self.inner.peek()
        }
    }

    /// A driver carrying a mark that a test's slot constructor can react to.
    struct Marked<D> {
        inner: D,
        marked: bool,
    }

    impl<D: CycleDriver> CycleDriver for Marked<D> {
        fn run_cycle(&mut self, cycle: usize, start: Time) -> CycleSummary {
            self.inner.run_cycle(cycle, start)
        }
    }

    /// Run `case` on its own thread and require that it panics. The verdict
    /// is awaited with a timeout, so a hang fails the test rather than
    /// stalling the suite.
    fn assert_panics_without_hanging(what: &str, case: impl FnOnce(ThreadId) + Send + 'static) {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let worker0 = std::thread::current().id();
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| case(worker0)));
            let _ = tx.send(outcome.is_err());
        });
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(60)),
            Ok(true),
            "{what}: run must panic, not hang or finish"
        );
    }

    /// A driver or source panic on any worker makes `run` panic instead of
    /// leaving the other workers waiting forever: a driver on worker 0 or
    /// on a helper during the rounds, a source on worker 0 while it builds
    /// the scheduler, and worker 1 while it builds the slots. The set-up
    /// cases fail mid-way through a fleet of five hand-over chunks, so
    /// the other side is waiting on the hand-over when it happens.
    #[test]
    fn driver_panic_on_any_worker_propagates() {
        let fleet = 5 * HANDOFF_CHUNK;
        let fail_at = 3 * HANDOFF_CHUNK + 5;
        for workers in [2usize, 3] {
            for panic_on_worker0 in [false, true] {
                let side = if panic_on_worker0 {
                    "worker 0"
                } else {
                    "a helper"
                };
                assert_panics_without_hanging(
                    &format!("workers={workers}, driver panic on {side}"),
                    move |worker0| {
                        let s = sys();
                        let p = MixedPolicy::new(&s);
                        let tripped = Arc::new(AtomicBool::new(false));
                        let streams: Vec<_> = (0..12)
                            .map(|i| {
                                let driver = Tripwire {
                                    inner: EngineDriver::new(
                                        Engine::new(
                                            &s,
                                            NumericManager::new(&s, &p),
                                            OverheadModel::ZERO,
                                        ),
                                        exec_for(&s, i as u64),
                                        NullSink,
                                    ),
                                    worker0,
                                    panic_on_worker0,
                                    tripped: Arc::clone(&tripped),
                                };
                                (Periodic::new(PERIOD, 4), driver)
                            })
                            .collect();
                        ElasticRunner::new(workers, ElasticConfig::live()).run(streams);
                    },
                );
            }
            assert_panics_without_hanging(
                &format!("workers={workers}, source panic on worker 0 during set-up"),
                move |_| {
                    let s = sys();
                    let p = MixedPolicy::new(&s);
                    let streams: Vec<_> = drivers(&s, &p, fleet, 2, source_mix)
                        .into_iter()
                        .enumerate()
                        .map(|(i, (_, driver))| {
                            let source = PeekBomb {
                                inner: Periodic::new(PERIOD, 2),
                                armed: i == fail_at,
                            };
                            (source, driver)
                        })
                        .collect();
                    ElasticRunner::new(workers, ElasticConfig::live()).run(streams);
                },
            );
            assert_panics_without_hanging(
                &format!("workers={workers}, worker 1 panic while building the slots"),
                move |_| {
                    let s = sys();
                    let p = MixedPolicy::new(&s);
                    let streams: Vec<_> = drivers(&s, &p, fleet, 2, source_mix)
                        .into_iter()
                        .enumerate()
                        .map(|(i, (source, inner))| {
                            let marked = i == fail_at;
                            (source, Marked { inner, marked })
                        })
                        .collect();
                    run_pool(ElasticConfig::live(), streams, workers, |driver| {
                        assert!(!driver.marked, "slot build failure");
                        Slot::shared(driver)
                    });
                },
            );
        }
    }

    /// A 16-byte execution-time source, shaped like the benchmark's
    /// `MicroExec`, which `sqm-core` cannot name.
    #[derive(Clone, Copy)]
    struct TableExec<'a> {
        table: &'a crate::timing::TimeTable,
        seed: u64,
    }

    impl ExecutionTimeSource for TableExec<'_> {
        fn actual(&mut self, cycle: usize, action: usize, q: crate::quality::Quality) -> Time {
            let wc = self.table.wc(action, q).as_ns();
            Time::from_ns(wc * (40 + ((self.seed as usize + cycle + action) % 50) as i64) / 100)
        }
    }

    /// The benchmark's driver shape: an engine over the lookup manager and
    /// a 16-byte execution-time source (`sqm-bench` pins `MicroDriver` to
    /// no less than this).
    type BenchDriver<'a> = EngineDriver<'a, LookupManager<'a>, TableExec<'a>, NullSink>;

    /// Per-stream byte budgets for the benchmark's streams: a worker-side
    /// slot within 192 bytes, and a scheduler record that fits in the
    /// population's `(source, driver)` element, so the standard library
    /// builds the records in place; a summary must fit in turn in a
    /// record. A field added to any of them that undid the budget, or
    /// turned an in-place build back into a fresh allocation of the
    /// fleet's records, fails here.
    #[test]
    fn records_fit_their_byte_budgets() {
        use std::mem::{align_of, size_of};
        type Pair<'a> = (PatternSource, BenchDriver<'a>);
        type Record = SchedStream<PatternSource>;
        let slot = size_of::<Mutex<Slot<BenchDriver<'_>>>>();
        assert!(
            slot <= 192,
            "a slot is {slot} bytes, over its 192-byte budget"
        );
        let source = size_of::<PatternSource>();
        assert!(
            source <= 96,
            "PatternSource is {source} bytes, over its 96-byte budget"
        );
        assert!(
            size_of::<Record>() <= size_of::<Pair<'_>>(),
            "SchedStream is {} bytes, over its budget of the population's {}-byte element",
            size_of::<Record>(),
            size_of::<Pair<'_>>()
        );
        assert_eq!(align_of::<Record>(), align_of::<Pair<'_>>());
        assert!(size_of::<StreamSummary>() <= size_of::<Record>());
        assert_eq!(align_of::<StreamSummary>(), align_of::<Record>());
        assert!(
            size_of::<Ready>() <= 32,
            "a ring entry is {} bytes",
            size_of::<Ready>()
        );
    }

    /// The standard library does reuse the buffers: the scheduler's
    /// records and then the summaries live in the population's buffer,
    /// and the returned drivers in the slot buffer.
    #[test]
    fn records_reuse_the_buffers_they_replace() {
        let s = sys();
        let regions = crate::compiler::compile_regions(&s);
        let population: Vec<(PatternSource, BenchDriver<'_>)> = (0..1_000)
            .map(|i| {
                let engine = Engine::new(&s, LookupManager::new(&regions), OverheadModel::ZERO);
                let exec = TableExec {
                    table: s.table(),
                    seed: i as u64,
                };
                (source_mix(i, 3), EngineDriver::new(engine, exec, NullSink))
            })
            .collect();
        let buffer = population.as_ptr() as usize;
        let mut slots = Vec::with_capacity(population.len());
        let sched = Scheduler::new(ElasticConfig::live(), population, |driver| {
            slots.push(Slot::shared(driver))
        });
        assert_eq!(sched.streams.as_ptr() as usize, buffer, "scheduler");
        let slot_buffer = slots.as_ptr() as usize;
        let (summary, drivers) = summarize(sched, slots);
        assert_eq!(summary.per_stream.as_ptr() as usize, buffer, "summaries");
        assert_eq!(drivers.as_ptr() as usize, slot_buffer, "drivers");
        assert_eq!(drivers.len(), 1_000);
    }

    /// A completion that lands exactly on a later arrival still counts
    /// toward that frame's depth (the pop is a strict `<`). Every frame
    /// takes exactly 100 ns and stream `i` opens with a burst of three to
    /// five frames at `50·i` ns, then one arrival every 100 ns: live, each
    /// later arrival coincides with a completion and the streams stay at
    /// least three frames behind. Per-stream results, `max_backlog`
    /// included, equal the per-stream runner's for both chainings, every
    /// ring and several worker counts.
    #[test]
    fn completions_on_an_arrival_count_toward_its_depth() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        const SERVICE: i64 = 100;
        let arrivals = |i: usize| {
            let offset = SERVICE * i as i64 / 2;
            let burst = 3 + i % 3;
            let times: Vec<Time> = (0..12)
                .map(|f| Time::from_ns(offset + SERVICE * (f.max(burst - 1) - (burst - 1)) as i64))
                .collect();
            TraceReplay::new(times)
        };
        let engine = || Engine::new(&s, NumericManager::new(&s, &p), OverheadModel::ZERO);
        let exec = || FnExec(|_: usize, _: usize, _| Time::from_ns(SERVICE / 4));
        for chaining in [CycleChaining::WorkConserving, CycleChaining::ArrivalClamped] {
            let want: Vec<StreamSummary> = (0..6)
                .map(|i| {
                    let runner = StreamingRunner::new(StreamConfig {
                        chaining,
                        capacity: 2,
                        policy: OverloadPolicy::Block,
                    });
                    runner.run(&mut engine(), &mut arrivals(i), &mut exec(), &mut NullSink)
                })
                .collect();
            // A `≤` pop would drop the completion on each arrival and read
            // one frame shallower. Live, every stream ties; prefetching
            // runs ahead of the later streams' arrivals, but not stream 0's.
            for (i, w) in want.iter().enumerate() {
                if chaining == CycleChaining::ArrivalClamped || i == 0 {
                    assert_eq!(w.stats.max_backlog, 3 + i % 3, "{chaining:?} stream {i}");
                }
            }
            for ring in [1usize, 3, 4096] {
                for workers in [1, 2, 4] {
                    let config = ElasticConfig::live()
                        .with_chaining(chaining)
                        .with_ring_capacity(ring);
                    let streams: Vec<_> = (0..6)
                        .map(|i| (arrivals(i), EngineDriver::new(engine(), exec(), NullSink)))
                        .collect();
                    let (elastic, _) = ElasticRunner::new(workers, config).run(streams);
                    assert_eq!(
                        elastic.per_stream(),
                        &want[..],
                        "{chaining:?} ring={ring} workers={workers}"
                    );
                }
            }
        }
    }

    /// Streams' frame queues in one node pool stay FIFO per stream while
    /// their lists interleave, grow, drain and reuse freed nodes: checked
    /// step by step against one `VecDeque` per stream.
    #[test]
    fn backlog_lists_match_per_stream_fifos() {
        let mut pool = Lists::new();
        let mut queues: Vec<FrameQueue> = (0..5).map(|_| FrameQueue::EMPTY).collect();
        let mut model: Vec<VecDeque<Admitted>> = vec![VecDeque::new(); 5];
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for step in 0..4_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let q = (x % 5) as usize;
            // Pushes outnumber pops early and pops outnumber pushes late,
            // so lists grow several deep, drain and grow again.
            if (x >> 8) % 10 < if step < 2_000 { 6 } else { 4 } {
                let frame = (step, Time::from_ns(i64::from(step)), x & 1 == 0);
                queues[q].push_back(&mut pool, frame);
                model[q].push_back(frame);
            } else {
                assert_eq!(
                    queues[q].pop_front(&mut pool),
                    model[q].pop_front(),
                    "step {step}"
                );
            }
            assert_eq!(queues[q].head, model[q].front().copied(), "step {step}");
        }
        for (queue, model) in queues.iter_mut().zip(&mut model) {
            while let Some(want) = model.pop_front() {
                assert_eq!(queue.pop_front(&mut pool), Some(want));
            }
            assert_eq!(queue.pop_front(&mut pool), None);
        }
        let pooled = pool.nodes.len();
        assert!(pooled > 5, "lists grew several nodes deep: {pooled}");
        let mut free = 0;
        let mut node = pool.free;
        while node != NIL {
            free += 1;
            node = pool.nodes[node as usize].1;
        }
        assert_eq!(free, pooled, "every node is back on the free list");
    }

    /// A stream's frame counter is 32 bits wide: one frame past `u32::MAX`
    /// panics, naming the stream, instead of wrapping.
    #[test]
    #[should_panic(expected = "stream 2 delivered more than 4294967295 frames")]
    fn frame_counter_overflow_names_the_stream() {
        let population: Vec<_> = (0..4).map(|_| (Periodic::new(PERIOD, 2), ())).collect();
        let mut sched = Scheduler::new(ElasticConfig::live(), population, drop);
        sched.streams[2].arrived = u32::MAX;
        sched.fill(&mut Vec::new(), |_| {});
    }
}
