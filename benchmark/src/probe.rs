//! Benchmark-side instruments: a per-frame [`TraceSink`], counting
//! wrappers around the manager and the execution-time source, and the
//! in-memory span recorder of the traced run. Nothing here lives inside the
//! program under test; every instrument attaches at a public seam.

use std::time::Instant;

use sqm_core::controller::ExecutionTimeSource;
use sqm_core::engine::{CycleSummary, TraceSink};
use sqm_core::manager::{Decision, QualityManager};
use sqm_core::quality::Quality;
use sqm_core::time::Time;

/// Per-frame virtual-time outcomes, gathered at the engine's cycle
/// boundaries. Cycle times are relative to the frame's arrival (or its
/// period release in the closed loop), so a frame's latency is its cycle
/// end and its wait is its cycle start, both clamped at zero as
/// [`sqm_core::stream::StreamCursor`] clamps them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FrameSink {
    /// Arrival-to-completion latency of each processed frame (ns).
    pub latency: Vec<i64>,
    /// Arrival-to-start wait of each processed frame (ns).
    pub wait: Vec<i64>,
    /// Processed frames with at least one deadline miss.
    pub missed: usize,
}

impl FrameSink {
    /// Fold another sink's frames into this one.
    pub fn merge(&mut self, other: FrameSink) {
        self.latency.extend(other.latency);
        self.wait.extend(other.wait);
        self.missed += other.missed;
    }

    /// Frames processed.
    pub fn frames(&self) -> usize {
        self.latency.len()
    }
}

impl TraceSink for FrameSink {
    const WANTS_RECORDS: bool = false;

    fn end_cycle(&mut self, summary: &CycleSummary) {
        self.latency.push(summary.end.max(Time::ZERO).as_ns());
        self.wait.push(summary.start.max(Time::ZERO).as_ns());
        self.missed += usize::from(summary.misses > 0);
    }
}

/// Counts a manager's decisions and charged probes, and records up to
/// `cap` of its `(state, t)` inputs for replay.
#[derive(Clone, Debug)]
pub struct CountingManager<M> {
    inner: M,
    /// Decisions made.
    pub decisions: u64,
    /// Probes charged ([`Decision::work`]).
    pub probes: u64,
    /// Recorded decision inputs, in call order.
    pub inputs: Vec<(usize, Time)>,
    cap: usize,
}

impl<M> CountingManager<M> {
    /// Wrap `inner`, recording at most `cap` decision inputs.
    pub fn new(inner: M, cap: usize) -> CountingManager<M> {
        CountingManager {
            inner,
            decisions: 0,
            probes: 0,
            inputs: Vec::new(),
            cap,
        }
    }
}

impl<M: QualityManager> QualityManager for CountingManager<M> {
    fn decide(&mut self, state: usize, t: Time) -> Decision {
        let d = self.inner.decide(state, t);
        self.decisions += 1;
        self.probes += d.work;
        if self.inputs.len() < self.cap {
            self.inputs.push((state, t));
        }
        d
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// One execution-time query: `(cycle, action, quality)`.
pub type ExecCall = (usize, usize, Quality);

/// Counts an execution-time source's queries and records up to `cap` of
/// them for replay.
#[derive(Clone, Debug)]
pub struct CountingExec<X> {
    inner: X,
    /// Queries answered.
    pub calls: u64,
    /// Recorded queries, in call order.
    pub queries: Vec<ExecCall>,
    cap: usize,
}

impl<X> CountingExec<X> {
    /// Wrap `inner`, recording at most `cap` queries.
    pub fn new(inner: X, cap: usize) -> CountingExec<X> {
        CountingExec {
            inner,
            calls: 0,
            queries: Vec::new(),
            cap,
        }
    }
}

impl<X: ExecutionTimeSource> ExecutionTimeSource for CountingExec<X> {
    fn actual(&mut self, cycle: usize, action: usize, q: Quality) -> Time {
        self.calls += 1;
        if self.queries.len() < self.cap {
            self.queries.push((cycle, action, q));
        }
        self.inner.actual(cycle, action, q)
    }
}

/// One recorded span: a named interval and the span that caused it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Span name (the layer or phase measured).
    pub name: &'static str,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Keeps spans in memory; the traced run writes them out at the end.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Self time of span `id`: its duration minus the part its direct
    /// children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// The spans as JSON lines (`id`, `name`, `start_ns`, `end_ns`,
    /// `self_ns`, `parent`).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let mut o = crate::measure::JsonObject::new();
            o.uint("id", id as u64);
            o.str("name", s.name);
            o.uint("start_ns", s.start_ns);
            o.uint("end_ns", s.end_ns);
            o.uint("self_ns", self.self_ns(id));
            match s.parent {
                Some(p) => o.uint("parent", p as u64),
                None => o.raw("parent", "null"),
            }
            out.push_str(&o.finish());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_report_self_time() {
        let mut spans = Spans::new();
        spans.scope("run", |s| {
            s.scope("a", |_| std::hint::black_box(1));
            s.scope("b", |s| s.scope("c", |_| ()));
        });
        let names: Vec<_> = spans.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["run", "a", "b", "c"]);
        let parents: Vec<_> = spans.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), Some(2)]);
        let run = &spans.spans[0];
        assert!(spans.self_ns(0) <= run.end_ns - run.start_ns);
        assert_eq!(spans.to_json_lines().lines().count(), 4);
    }

    #[test]
    fn frame_sink_clamps_early_frames_at_zero() {
        let mut sink = FrameSink::default();
        let mut c = CycleSummary::new(0, Time::from_ns(-30));
        c.end = Time::from_ns(-5);
        sink.end_cycle(&c);
        let mut c = CycleSummary::new(1, Time::from_ns(10));
        c.end = Time::from_ns(40);
        c.misses = 2;
        sink.end_cycle(&c);
        assert_eq!(sink.latency, [0, 40]);
        assert_eq!(sink.wait, [0, 10]);
        assert_eq!(sink.missed, 1);
    }
}
