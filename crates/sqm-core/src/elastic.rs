//! Elastic fleet scheduling — 10⁵–10⁶ *live* streams multiplexed onto few
//! workers, interleaved **by arrival time** instead of sharded whole.
//!
//! [`crate::fleet::FleetRunner`] scales out by giving each worker entire
//! streams; that is the right unit when streams are closed loops, but a
//! live deployment has many mostly-idle streams whose cycles *interleave*
//! in time. This module schedules at cycle granularity:
//!
//! * a **sharded binary event heap** ([`ShardedEventHeap`], one lane per
//!   worker) keyed by each stream's next virtual arrival time — obtained
//!   without consumption via [`ArrivalSource::peek`];
//! * a **start-event heap** ([`EventHeap`]) keyed by the absolute start
//!   time of each stream's next runnable cycle;
//! * a fixed-capacity **ready ring**: each scheduling round drains due
//!   events into at most [`ElasticConfig::ring_capacity`] ready cycles;
//! * **per-worker run queues with deterministic stealing**: the ring is
//!   split into one contiguous segment per worker, each with its own
//!   cacheline-padded claim cursor; a worker that drains its segment
//!   steals from victims chosen by `(worker + step + round) % workers` —
//!   a function of worker index and round counter, never host timing;
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
//!    reads the worker count: the sharded heap pops the global minimum
//!    across lanes (keys are unique per stream, so lane count cannot
//!    change pop order), and the ring capacity is configuration, not
//!    `workers`.
//! 2. *Host execution* — which worker runs which ready cycle — only maps
//!    already-scheduled work onto threads. Streams are independent and a
//!    stream has at most one cycle per round, so assignment (and
//!    stealing) changes wall-clock time, never results.
//!
//! ## Who owns what
//!
//! The serial loop touches only the per-stream state that admission and
//! start times depend on: the source, the queue of admitted frames, an
//! in-flight flag and the stream's clock (the completion time of its last
//! executed frame), plus the arrived and shed counts it tallies as it
//! judges frames. Everything else lives in the stream's worker-side slot
//! and is computed by whichever worker runs the cycle: the driver, the
//! engine and wait/latency aggregates ([`StreamCursor`]) and the backlog
//! depth below. Workers hand each cycle's completion time back through a
//! buffer indexed by ring position, which the loop reads between rounds
//! to advance its clocks; the two halves meet again only when the run's
//! summary is collected.
//!
//! Per-stream results under [`Admission::Unbounded`] are identical to
//! running each stream through [`crate::stream::StreamingRunner`] with
//! [`OverloadPolicy::Block`] — the per-stream recurrence (`start =
//! max(now, arrival)` live, `start = now` work-conserving; `now = arrival
//! + end`) is the same code, [`CycleChaining::start_at`] and
//! [`StreamCursor`]. That identity covers the *full* struct,
//! [`StreamStats::max_backlog`] included. The scheduler admits arrivals
//! whenever the event loop reaches them, often rounds before the
//! per-stream runner would have, so its own queue depths are not
//! comparable. Instead the worker that runs a stream's `j`-th admitted
//! frame derives the depth the per-stream runner observes when that frame
//! arrives, `j − #{completions < arrival_j}`: frames run FIFO, one per
//! stream per round, so exactly the stream's first `j` completions are
//! known at that moment, and they sit in the slot the worker already
//! holds. The depth is a pure function of the arrival and completion
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
//! [`StreamStats::max_backlog`]: crate::stream::StreamStats::max_backlog

use crate::controller::ExecutionTimeSource;
use crate::engine::{CycleChaining, CycleSummary, Engine, RunSummary, TraceSink};
use crate::fleet::CachePadded;
use crate::manager::QualityManager;
use crate::source::ArrivalSource;
use crate::stream::{StreamCursor, StreamStats, StreamSummary};
use crate::time::Time;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, RwLock};

/// Pack an event into one integer key whose unsigned order is the
/// `(time, stream)` order: the time's sign bit is flipped so signed
/// nanoseconds (sentinels included) sort as unsigned ones.
#[inline]
fn pack(time: Time, stream: u32) -> u128 {
    let t = (time.as_ns() as u64) ^ (1 << 63);
    (u128::from(t) << 32) | u128::from(stream)
}

/// Inverse of [`pack`].
#[inline]
fn unpack(key: u128) -> (Time, u32) {
    let t = ((key >> 32) as u64) ^ (1 << 63);
    (Time::from_ns(t as i64), key as u32)
}

/// A hand-rolled binary min-heap of `(time, stream)` events.
///
/// Keys are totally ordered (ties broken by stream id) and stored packed
/// in one integer each, so a comparison is a single integer compare.
/// `push`/`pop`/`replace_top` are `O(log n)` with no allocation beyond
/// the backing `Vec`, and sift by moving a hole rather than swapping —
/// the only heap operations the scheduler's hot loop needs, without
/// pulling in `BinaryHeap`'s max-order and `Reverse` wrappers.
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
/// // Re-key the minimum in one sift: pops (10, 7), queues (40, 7).
/// assert_eq!(heap.replace_top(Time::from_ns(40), 7), Some((Time::from_ns(10), 7)));
/// assert_eq!(heap.pop(), Some((Time::from_ns(30), 2)));
/// assert_eq!(heap.pop(), Some((Time::from_ns(40), 7)));
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

    /// Remove the minimum event and queue `(time, stream)` in its place,
    /// in one sift — the re-key of a stream whose event was just handled.
    /// Returns the removed minimum, or `None` (after queueing the new
    /// event) if the heap was empty.
    #[inline]
    pub fn replace_top(&mut self, time: Time, stream: u32) -> Option<(Time, u32)> {
        let Some(&top) = self.keys.first() else {
            self.push(time, stream);
            return None;
        };
        self.sift_down(pack(time, stream));
        Some(unpack(top))
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

/// One [`EventHeap`] lane per worker, keyed by stream id (`stream %
/// lanes`), popped globally smallest-first.
///
/// Each stream has at most one pending arrival event, so every key is
/// unique and the pop order across lanes is exactly the sorted order of
/// all queued events — **independent of the lane count**. That is what
/// lets the lane count track the worker count (locality: a worker's
/// streams cluster in its lane) without the worker count ever leaking
/// into scheduling decisions.
#[derive(Clone, Debug)]
pub struct ShardedEventHeap {
    lanes: Vec<EventHeap>,
}

impl ShardedEventHeap {
    /// A heap with `lanes` lanes (clamped to at least 1).
    pub fn new(lanes: usize) -> ShardedEventHeap {
        ShardedEventHeap {
            lanes: vec![EventHeap::new(); lanes.max(1)],
        }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Total queued events across lanes.
    pub fn len(&self) -> usize {
        self.lanes.iter().map(EventHeap::len).sum()
    }

    /// `true` when every lane is empty.
    pub fn is_empty(&self) -> bool {
        self.lanes.iter().all(EventHeap::is_empty)
    }

    /// The lane holding the global minimum.
    #[inline]
    fn min_lane(&self) -> Option<usize> {
        self.lanes
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.keys.first().map(|&k| (k, i)))
            .min()
            .map(|(_, i)| i)
    }

    /// Queue an event in its stream's lane.
    #[inline]
    pub fn push(&mut self, time: Time, stream: u32) {
        let lane = stream as usize % self.lanes.len();
        self.lanes[lane].push(time, stream);
    }

    /// The globally minimum event across lanes, without removing it.
    #[inline]
    pub fn peek_min(&self) -> Option<(Time, u32)> {
        self.lanes[self.min_lane()?].peek()
    }

    /// Remove and return the globally minimum event.
    #[inline]
    pub fn pop_min(&mut self) -> Option<(Time, u32)> {
        let lane = self.min_lane()?;
        self.lanes[lane].pop()
    }

    /// Re-key the globally minimum event: remove it and queue its
    /// stream's next event at `time`, in one [`EventHeap::replace_top`]
    /// sift of the stream's lane. Returns the removed event, or `None`
    /// (queueing nothing) if the heap is empty.
    #[inline]
    pub fn rekey_min(&mut self, time: Time) -> Option<(Time, u32)> {
        let min = self.min_lane()?;
        let lane = &mut self.lanes[min];
        let (_, stream) = lane.peek()?;
        lane.replace_top(time, stream)
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
    frame: usize,
    arrival: Time,
    start: Time,
}

/// Worker-side per-stream state, behind a mutex so any worker can run the
/// stream's next cycle. A stream has at most one ready cycle per round,
/// so the locks never contend — they exist for thread-safety proof, not
/// for queuing — and the serial loop never takes them.
struct Slot<D> {
    driver: D,
    /// Clock, engine aggregates, wait/latency and backlog statistics.
    cursor: StreamCursor,
    /// Completion times of the stream's executed frames, oldest first,
    /// less those already found to precede an executed frame's arrival.
    /// When frame `j` runs, dropping the ones before its arrival leaves
    /// `j − #{completions < arrival_j}` entries — the queue depth the
    /// per-stream runner observes when frame `j` arrives. Arrivals and
    /// completions are both non-decreasing, so a dropped completion would
    /// be dropped for every later frame too.
    completions: HeadQueue<Time>,
}

/// A FIFO queue that keeps its front element inline. Most streams never
/// fall behind, so their queues hold at most one element: they never
/// allocate, and reading the front stays within the owner's cache lines.
#[derive(Debug)]
struct HeadQueue<T> {
    /// The front element; `None` only when the queue is empty.
    head: Option<T>,
    /// Every element behind the front.
    rest: VecDeque<T>,
}

impl<T: Copy> HeadQueue<T> {
    fn new() -> HeadQueue<T> {
        HeadQueue {
            head: None,
            rest: VecDeque::new(),
        }
    }

    #[inline]
    fn front(&self) -> Option<T> {
        self.head
    }

    #[inline]
    fn len(&self) -> usize {
        usize::from(self.head.is_some()) + self.rest.len()
    }

    #[inline]
    fn push_back(&mut self, x: T) {
        if self.head.is_none() {
            self.head = Some(x);
        } else {
            self.rest.push_back(x);
        }
    }

    #[inline]
    fn pop_front(&mut self) -> Option<T> {
        let x = self.head.take()?;
        self.head = self.rest.pop_front();
        Some(x)
    }
}

/// Run one ready cycle on its stream's slot: the hot path every worker
/// executes. Returns the cycle's absolute completion time.
#[inline]
fn execute<D: CycleDriver>(r: &Ready, slot: &mut Slot<D>) -> Time {
    while slot.completions.front().is_some_and(|c| c < r.arrival) {
        slot.completions.pop_front();
    }
    slot.cursor.note_backlog(slot.completions.len());
    let summary = slot.driver.run_cycle(r.frame, r.start - r.arrival);
    slot.cursor.absorb(r.arrival, r.start, &summary);
    let done = slot.cursor.now();
    slot.completions.push_back(done);
    done
}

/// Scheduler-side per-stream state (never crosses a thread boundary).
struct SchedStream<A> {
    source: A,
    /// Monotonicity clamp for source timestamps (same contract as
    /// `StreamingRunner`).
    floor: Time,
    /// Next frame index; shed frames consume theirs, so this is also the
    /// stream's arrived count.
    next_frame: usize,
    /// Frames shed at admission.
    shed: usize,
    /// Completion time of the stream's last executed frame — the
    /// worker-side cursor's clock, as of the last finished round.
    now: Time,
    /// Admitted frames not yet started: `(frame, arrival, counted)`,
    /// where `counted` records whether the frame was charged to the
    /// global backlog at admission.
    queue: HeadQueue<(usize, Time, bool)>,
    /// A cycle of this stream is in the current round's ring.
    in_flight: bool,
}

/// The serial deterministic scheduling core: owns the heaps, the queues
/// and the ledger; fills the ring each round and folds completions back
/// in between rounds. Never sees the worker count, and never touches a
/// worker-side slot.
struct Scheduler<A> {
    chaining: CycleChaining,
    admission: Admission,
    ring_capacity: usize,
    streams: Vec<SchedStream<A>>,
    start_heap: EventHeap,
    arrivals: ShardedEventHeap,
    /// Latest start time ever scheduled: arrivals beyond it wait, which
    /// bounds queue growth and keeps admission decisions near the
    /// execution frontier. Monotone, worker-count independent.
    horizon: Time,
    /// Aggregate count of `counted` frames currently queued.
    backlog: usize,
    ledger: ShedLedger,
}

impl<A: ArrivalSource> Scheduler<A> {
    fn new(config: ElasticConfig, lanes: usize, sources: Vec<A>) -> Scheduler<A> {
        let mut arrivals = ShardedEventHeap::new(lanes);
        let mut streams = Vec::with_capacity(sources.len());
        for (i, mut source) in sources.into_iter().enumerate() {
            let floor = Time::ZERO;
            if let Some(t) = source.peek() {
                arrivals.push(t.max(floor), i as u32);
            }
            streams.push(SchedStream {
                source,
                floor,
                next_frame: 0,
                shed: 0,
                now: Time::ZERO,
                queue: HeadQueue::new(),
                in_flight: false,
            });
        }
        Scheduler {
            chaining: config.chaining,
            admission: config.admission,
            ring_capacity: config.ring_capacity.max(1),
            streams,
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
    fn fill(&mut self, ring: &mut Vec<Ready>) {
        ring.clear();
        while ring.len() < self.ring_capacity {
            let start_top = self.start_heap.peek();
            let arrival_top = self.arrivals.peek_min();
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
                let (ta, s) = arrival_top.expect("due implies queued");
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
            .pop_front()
            .expect("a start event implies a queued frame");
        if counted {
            self.backlog -= 1;
        }
        self.launch(
            Ready {
                stream: s,
                frame,
                arrival,
                start: ts,
            },
            ring,
        );
    }

    /// Commit a frame to this round's ring.
    fn launch(&mut self, r: Ready, ring: &mut Vec<Ready>) {
        self.streams[r.stream as usize].in_flight = true;
        self.horizon = self.horizon.max(r.start);
        ring.push(r);
    }

    /// Judge the arrival at the top of the arrival heap, then re-key its
    /// stream on the following timestamp.
    fn process_arrival(&mut self, ta: Time, s: u32, ring: &mut Vec<Ready>) {
        let st = &mut self.streams[s as usize];
        let frame = st.next_frame;
        st.next_frame += 1;
        self.ledger.arrived += 1;
        // A frame counts toward the global backlog iff its stream is
        // already behind; only counted frames are ever shed.
        let counted = st.in_flight || st.queue.front().is_some();
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
                st.queue.push_back((frame, ta, true));
            } else {
                // Idle stream: its clock is current, so the frame's start
                // is known now. `fill` takes every start at or before an
                // arrival ahead of it, so all queued starts are later than
                // `ta`; a start at or before `ta` is therefore the very
                // next event, and goes straight into the ring (which has
                // room: `fill` checked before this arrival).
                let ts = self.chaining.start_at(st.now, ta);
                if ts <= ta {
                    self.launch(
                        Ready {
                            stream: s,
                            frame,
                            arrival: ta,
                            start: ts,
                        },
                        ring,
                    );
                } else {
                    st.queue.push_back((frame, ta, false));
                    self.start_heap.push(ts, s);
                }
            }
        }
        // Consume the peeked timestamp and re-key the stream's lane on
        // the following one. peek-then-next ≡ next keeps this exact.
        let st = &mut self.streams[s as usize];
        let consumed = st
            .source
            .next_arrival()
            .expect("a queued arrival event implies a pending timestamp")
            .max(st.floor);
        st.floor = consumed;
        debug_assert_eq!(consumed, ta, "peeked and consumed timestamps agree");
        let handled = match st.source.peek() {
            Some(next) => self.arrivals.rekey_min(next.max(st.floor)),
            None => self.arrivals.pop_min(),
        };
        debug_assert_eq!(handled, Some((ta, s)), "the handled event was the minimum");
    }

    /// Fold a finished round back in: `completed(i)` is the completion
    /// time of ring entry `i`. Every executed stream's clock advances, so
    /// streams with queued frames get their next start event.
    fn complete_round(&mut self, ring: &[Ready], completed: impl Fn(usize) -> Time) {
        for (i, r) in ring.iter().enumerate() {
            let st = &mut self.streams[r.stream as usize];
            st.in_flight = false;
            st.now = completed(i);
            if let Some((_, arrival, _)) = st.queue.front() {
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
/// runner value can drive many fleets. The calling thread is worker 0:
/// each round it fills the ring, releases `workers − 1` helper threads,
/// drains its own ring segment (and steals) like any helper, then folds
/// the completions back in once every worker is through. With one worker
/// (or one stream) there are no helpers and no barrier — which is also
/// the reference schedule every multi-worker run is guaranteed to
/// reproduce byte-for-byte.
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
    /// order), so callers can extract sinks or reuse engines.
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
        let mut sources = Vec::with_capacity(n);
        let mut slots = Vec::with_capacity(n);
        for (source, driver) in streams {
            sources.push(source);
            slots.push(Mutex::new(Slot {
                driver,
                cursor: StreamCursor::new(),
                completions: HeadQueue::new(),
            }));
        }
        let mut sched = Scheduler::new(self.config, workers, sources);
        if workers == 1 {
            run_inline(&mut sched, &mut slots);
        } else {
            run_pool(&mut sched, &slots, workers);
        }

        let mut summary = ElasticSummary {
            per_stream: Vec::with_capacity(n),
            run: RunSummary::default(),
            stats: StreamStats::default(),
            ledger: sched.ledger,
        };
        let mut drivers = Vec::with_capacity(n);
        for (slot, st) in slots.into_iter().zip(&sched.streams) {
            let slot = slot.into_inner().expect("slot lock");
            let mut s = slot.cursor.summary();
            // Arrivals and sheds were counted by the scheduler.
            s.stats.arrived = st.next_frame;
            s.stats.dropped = st.shed;
            summary.run.merge(&s.run);
            summary.stats.merge(&s.stats);
            summary.per_stream.push(s);
            drivers.push(slot.driver);
        }
        (summary, drivers)
    }
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
        sched.fill(&mut ring);
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

/// `workers ≥ 2`: the calling thread fills the ring and is worker 0;
/// `workers − 1` scoped helpers join it between the two waits of a
/// `workers`-party barrier each round.
fn run_pool<A: ArrivalSource, D: CycleDriver + Send>(
    sched: &mut Scheduler<A>,
    slots: &[Mutex<Slot<D>>],
    workers: usize,
) {
    let ring_lock = RwLock::new(Vec::with_capacity(sched.ring_capacity));
    let completed: Vec<AtomicI64> = (0..sched.ring_capacity)
        .map(|_| AtomicI64::new(0))
        .collect();
    let cursors: Vec<CachePadded<AtomicUsize>> = (0..workers)
        .map(|_| CachePadded::new(AtomicUsize::new(0)))
        .collect();
    // Per round: the first wait releases the helpers onto a filled ring,
    // the second tells worker 0 that every cycle has run.
    let barrier = Barrier::new(workers);
    let done = AtomicBool::new(false);
    let drain = |w: usize, round: usize, ring: &[Ready]| {
        let len = ring.len();
        // Own segment first, then steal; victim order is a function of
        // (worker, round) only — deterministic policy, and result-neutral
        // because every claim goes through the segment cursors.
        for step in 0..workers {
            let v = (w + step + round) % workers;
            if step > 0 && v == w {
                continue;
            }
            let v = if step == 0 { w } else { v };
            let end = (v + 1) * len / workers;
            loop {
                let i = cursors[v].fetch_add(1, Ordering::Relaxed);
                if i >= end {
                    break;
                }
                let r = &ring[i];
                let mut slot = slots[r.stream as usize].lock().expect("slot lock");
                let t = execute(r, &mut slot);
                completed[i].store(t.as_ns(), Ordering::Relaxed);
            }
        }
    };
    std::thread::scope(|scope| {
        for w in 1..workers {
            let (ring_lock, barrier, done, drain) = (&ring_lock, &barrier, &done, &drain);
            scope.spawn(move || {
                for round in 0.. {
                    barrier.wait();
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                    drain(w, round, &ring_lock.read().expect("ring lock"));
                    barrier.wait();
                }
            });
        }
        for round in 0.. {
            {
                let mut ring = ring_lock.write().expect("ring lock");
                sched.fill(&mut ring);
                if ring.is_empty() {
                    done.store(true, Ordering::Release);
                    barrier.wait();
                    break;
                }
                let len = ring.len();
                for (v, cursor) in cursors.iter().enumerate() {
                    cursor.store(v * len / workers, Ordering::Relaxed);
                }
            }
            barrier.wait();
            let ring = ring_lock.read().expect("ring lock");
            drain(0, round, &ring);
            barrier.wait();
            sched.complete_round(&ring, |i| {
                Time::from_ns(completed[i].load(Ordering::Relaxed))
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{ConstantExec, FnExec, OverheadModel};
    use crate::engine::NullSink;
    use crate::manager::NumericManager;
    use crate::policy::MixedPolicy;
    use crate::source::{Bursty, Jittered, PatternSource, Periodic};
    use crate::stream::{OverloadPolicy, StreamConfig, StreamingRunner};
    use crate::system::{ParameterizedSystem, SystemBuilder};

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

    /// The operations both heaps share, for the model check below.
    trait MinQueue {
        fn push(&mut self, time: Time, stream: u32);
        fn pop(&mut self) -> Option<(Time, u32)>;
        /// Pop the minimum and queue its stream's next event at `time`.
        fn rekey(&mut self, time: Time) -> Option<(Time, u32)>;
    }

    impl MinQueue for EventHeap {
        fn push(&mut self, time: Time, stream: u32) {
            EventHeap::push(self, time, stream);
        }
        fn pop(&mut self) -> Option<(Time, u32)> {
            EventHeap::pop(self)
        }
        fn rekey(&mut self, time: Time) -> Option<(Time, u32)> {
            let (_, stream) = self.peek()?;
            self.replace_top(time, stream)
        }
    }

    impl MinQueue for ShardedEventHeap {
        fn push(&mut self, time: Time, stream: u32) {
            ShardedEventHeap::push(self, time, stream);
        }
        fn pop(&mut self) -> Option<(Time, u32)> {
            self.pop_min()
        }
        fn rekey(&mut self, time: Time) -> Option<(Time, u32)> {
            self.rekey_min(time)
        }
    }

    /// An interleaved push / pop / re-key sequence checked step by step
    /// against a sorted `Vec`. Times are drawn from a narrow band (many
    /// ties across streams) and from the edge keys; pushes use fresh
    /// stream ids, so every pending stream id stays unique.
    fn interleaved_matches_sorted_model(queue: &mut impl MinQueue) {
        let edges: Vec<Time> = edge_events().into_iter().map(|(t, _)| t).collect();
        let mut model: Vec<(Time, u32)> = Vec::new();
        let mut fresh = 0u32;
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for step in 0..3_000 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let r = (x >> 33) as usize;
            let time = if r.is_multiple_of(5) {
                edges[(r / 5) % edges.len()]
            } else {
                Time::from_ns((r % 61) as i64 - 30)
            };
            let insert = |model: &mut Vec<(Time, u32)>, e: (Time, u32)| {
                let at = model.partition_point(|m| *m < e);
                model.insert(at, e);
            };
            match (r >> 8) % 4 {
                0 | 1 => {
                    queue.push(time, fresh);
                    insert(&mut model, (time, fresh));
                    fresh += 1;
                }
                2 => {
                    let want = (!model.is_empty()).then(|| model.remove(0));
                    assert_eq!(queue.pop(), want, "pop at step {step}");
                }
                _ => {
                    let want = model.first().copied();
                    assert_eq!(queue.rekey(time), want, "re-key at step {step}");
                    if let Some((_, stream)) = want {
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
        assert_eq!(
            heap.replace_top(Time::NEG_INF, 3),
            None,
            "replace on an empty heap only queues"
        );
        assert_eq!(heap.pop(), Some((Time::NEG_INF, 3)));

        interleaved_matches_sorted_model(&mut EventHeap::new());
    }

    /// The sharded heap pops the same global order for every lane count —
    /// the property that makes per-worker lanes compatible with the
    /// determinism contract.
    #[test]
    fn sharded_heap_order_is_lane_count_independent() {
        let mut events: Vec<(Time, u32)> = (0..64u32)
            .map(|s| (Time::from_ns(((s * 37) % 19) as i64 * 10), s))
            .collect();
        events.extend(edge_events());
        let reference: Vec<(Time, u32)> = {
            let mut h = ShardedEventHeap::new(1);
            for &(t, s) in &events {
                h.push(t, s);
            }
            std::iter::from_fn(move || h.pop_min()).collect()
        };
        let mut sorted = events.clone();
        sorted.sort();
        assert_eq!(reference, sorted);
        for lanes in 1..=7 {
            let mut h = ShardedEventHeap::new(lanes);
            for &(t, s) in &events {
                h.push(t, s);
            }
            assert_eq!(h.lanes(), lanes);
            assert_eq!(h.len(), events.len());
            assert_eq!(h.peek_min(), reference.first().copied());
            let popped: Vec<(Time, u32)> = std::iter::from_fn(|| h.pop_min()).collect();
            assert_eq!(popped, reference, "lanes = {lanes}");
            interleaved_matches_sorted_model(&mut ShardedEventHeap::new(lanes));
        }
    }

    /// The heart of the tentpole: the whole `ElasticSummary` — per-stream
    /// summaries, aggregates and the ledger — is byte-identical for every
    /// worker count, under both chainings, both admissions, and a tiny
    /// ring that forces many rounds.
    #[test]
    fn worker_counts_are_byte_identical() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        for chaining in [CycleChaining::WorkConserving, CycleChaining::ArrivalClamped] {
            for admission in [
                Admission::Unbounded,
                Admission::DropNewest { global_capacity: 3 },
            ] {
                for ring in [3usize, 256] {
                    let config = ElasticConfig::live()
                        .with_chaining(chaining)
                        .with_ring_capacity(ring)
                        .with_admission(admission);
                    let (reference, _) =
                        ElasticRunner::new(1, config).run(drivers(&s, &p, 12, 8, source_mix));
                    assert_eq!(reference.n_streams(), 12);
                    assert!(reference.stats().processed > 0);
                    for workers in 2..=4 {
                        let (out, _) = ElasticRunner::new(workers, config)
                            .run(drivers(&s, &p, 12, 8, source_mix));
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
    /// (like worker count) never moves it.
    #[test]
    fn ring_capacity_does_not_change_unbounded_results() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        for (source, min_depth) in POPULATIONS {
            let big = ElasticRunner::new(2, ElasticConfig::live().with_ring_capacity(1 << 12))
                .run(drivers(&s, &p, 7, 6, source))
                .0;
            let tiny = ElasticRunner::new(2, ElasticConfig::live().with_ring_capacity(1))
                .run(drivers(&s, &p, 7, 6, source))
                .0;
            assert_eq!(big.per_stream(), tiny.per_stream());
            assert!(tiny.ledger().rounds > big.ledger().rounds);
            assert!(big.stats().max_backlog >= min_depth, "{:?}", big.stats());
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
}
