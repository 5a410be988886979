//! One benchmark run: set-up, the correctness gates, and then either the
//! end-to-end metrics (untraced run) or the per-layer cost ladder (traced
//! run). Every gate runs before any number is reported; a failed gate
//! returns an error and the run reports nothing.

use std::hint::black_box;
use std::time::{Duration, Instant};

use sqm_core::controller::{ConstantExec, ExecutionTimeSource};
use sqm_core::engine::NullSink;
use sqm_core::manager::QualityManager;

use crate::measure::{fastest, median, peak_rss_mib, quantile_i64, sample, spread, timed, Metric};
use crate::probe::Spans;
use crate::stack::{
    closed_loops, instrumented, periodic_block, population, record_exec, run_elastic, BuildPhases,
    Instrumented, PassOut, Scale, Shape, Stack,
};

/// Decision inputs and execution-time queries the traced run records for
/// its replays (at most this many of each).
pub const RECORD_CAP: usize = 1 << 20;

/// Widest gap, as a share of `closed.ns_per_action`, between the closed
/// loop and the sum of its engine and exec rungs before the ladder is
/// flagged as not closing. On a 2-core x86-64 host the gaps measured
/// 18–19 % on `encode`, 9–10 % on `serve` and −9 to −13 % on `live-fleet`,
/// so every workload sits at least 11 points inside this tolerance.
pub const CLOSURE_TOLERANCE_PCT: f64 = 30.0;

/// What a run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Workload passes executed (timed, instrumented and gate passes).
    pub attempted: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Human-readable notes (sample counts, closure check).
    pub notes: Vec<String>,
    /// Spans of the traced run (none when untraced).
    pub spans: Option<Spans>,
}

fn gate(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// Checks every run makes: the instrumented pass reproduces the untraced
/// pass exactly, and the front end's and the scheduler's books balance.
fn common_gates<B: Stack>(b: &B, reference: &PassOut, inst: &Instrumented) -> Result<(), String> {
    gate(inst.out == *reference, || {
        format!(
            "{}: instrumented pass differs from the untraced pass: {:?} vs {:?}",
            B::NAME,
            inst.out.run,
            reference.run
        )
    })?;
    gate(inst.frames.frames() == reference.run.cycles, || {
        format!("{}: the frame sink missed frames", B::NAME)
    })?;
    gate(inst.exec_calls == reference.run.actions as u64, || {
        format!(
            "{}: executed actions and execution-time queries differ",
            B::NAME
        )
    })?;
    match b.shape() {
        Shape::Closed => {}
        Shape::Streaming(_) => {
            for (i, s) in reference.streams.iter().enumerate() {
                let st = &s.stats;
                gate(st.arrived == st.processed + st.dropped, || {
                    format!("{}: stream {i} does not balance: {st:?}", B::NAME)
                })?;
            }
        }
        Shape::Elastic { .. } => {
            let summary = reference.elastic.as_ref().expect("elastic pass");
            let l = summary.ledger();
            gate(l.arrived == l.admitted + l.shed, || {
                format!("{}: shed ledger does not balance: {l:?}", B::NAME)
            })?;
            gate(l.admitted == summary.stats().processed, || {
                format!("{}: admitted frames were not all processed: {l:?}", B::NAME)
            })?;
        }
    }
    Ok(())
}

/// Most set-ups timed after one pass.
const SETUPS_PER_PASS: usize = 100;

/// Build the workload once, timed.
fn setup_rep<B: Stack>(scale: Scale, seed: u64) -> (B, Duration) {
    timed(|| {
        let b = B::setup(scale, seed);
        b.build_population();
        b
    })
}

/// The fastest of `samples` divided by `units`, in nanoseconds. Every
/// repetition does identical work (the gates check it), so interference
/// can only add time; and the shared hosts this benchmark runs on switch
/// between speed modes about 1.5× apart on a scale of seconds, so a median
/// lands in whichever mode held most of the run while the fastest
/// repetition reflects the faster mode whenever the run saw it at all.
fn ns_per(samples: &[Duration], units: usize) -> f64 {
    fastest(samples).as_secs_f64() * 1e9 / units.max(1) as f64
}

/// Run workload `B` for about `seconds`, untraced or traced.
pub fn run<B: Stack>(
    scale: Scale,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    let share = |f: f64| Duration::from_secs_f64(seconds * f);
    if !trace {
        return untraced::<B>(scale, seed, share);
    }
    let mut spans = Spans::new();
    let mut outcome = spans.scope("run", |spans| traced::<B>(scale, seed, share, spans))?;
    outcome.spans = Some(spans);
    Ok(outcome)
}

fn untraced<B: Stack>(
    scale: Scale,
    seed: u64,
    share: impl Fn(f64) -> Duration,
) -> Result<Outcome, String> {
    let (b, _) = setup_rep::<B>(scale, seed);
    let mut attempted = 0u64;

    // Timed passes; every repetition must reproduce the first exactly.
    // Set-ups are timed between passes, about a tenth of each pass's time,
    // so both see the same mix of host speed modes.
    let (reference, _) = b.reference_pass();
    let (first, _) = b.timed_pass();
    attempted += 2;
    // Read before the timed loop, whose interleaved set-ups only add
    // allocator churn: this is the peak of one set-up and one pass.
    let rss = peak_rss_mib().ok_or("peak resident memory is not reported on this platform")?;
    let mut mismatch = false;
    let (mut rates, mut setups) = (Vec::new(), Vec::new());
    let passes = sample(share(0.9), 0, 5, 100_000, || {
        let (out, d) = b.timed_pass();
        mismatch |= out != first;
        rates.push(out.run.actions as f64 / d.as_secs_f64());
        let since = Instant::now();
        for _ in 0..SETUPS_PER_PASS {
            setups.push(setup_rep::<B>(scale, seed).1);
            if since.elapsed() >= d / 10 {
                break;
            }
        }
        d
    });
    attempted += passes.len() as u64;
    gate(!mismatch, || {
        format!("{}: repeated passes disagree", B::NAME)
    })?;

    let inst = instrumented(&b, 0);
    attempted += 1;
    common_gates(&b, &reference, &inst)?;
    if let Shape::Elastic { workers } = b.shape() {
        let one = run_elastic(&b, 1, population(&b));
        attempted += 1;
        gate(Some(&one) == reference.elastic.as_ref(), || {
            format!("{}: {workers} workers differ from 1 worker", B::NAME)
        })?;
    }

    let stats = reference.stream_stats();
    let arrived = match b.shape() {
        Shape::Closed => reference.run.cycles,
        _ => stats.arrived,
    };
    // The complement of the fail rate (dropped or shed frames plus frames
    // with a miss, over frames arrived), so that a miss-free workload reads
    // 1 rather than 0.
    let failed_frames = stats.dropped + inst.frames.missed;
    let on_time_rate = (arrived - failed_frames) as f64 / arrived.max(1) as f64;
    let latency = &inst.frames.latency;
    let metrics = vec![
        Metric::new(
            "throughput_actions_per_s",
            first.run.actions as f64 / fastest(&passes).as_secs_f64(),
            "actions/s",
        ),
        Metric::new("setup_s", ns_per(&setups, 1) / 1e9, "s"),
        Metric::new("peak_rss_mib", rss, "MiB"),
        Metric::new("quality_mean", reference.run.avg_quality(), "level"),
        Metric::new("on_time_rate", on_time_rate, "ratio"),
        Metric::new(
            "qm_overhead_pct",
            reference.run.overhead_ratio() * 100.0,
            "%",
        ),
        Metric::new("latency_p50_us", quantile_i64(latency, 0.5) / 1e3, "us"),
        Metric::new("latency_p99_us", quantile_i64(latency, 0.99) / 1e3, "us"),
    ];
    let notes = vec![
        format!(
            "throughput: fastest of {} passes of {} actions (median {:.0}, \
             within-run spread {:.4})",
            rates.len(),
            first.run.actions,
            median(&rates),
            spread(&rates).unwrap_or(f64::NAN)
        ),
        format!("setup_s: fastest of {} set-ups", setups.len()),
        format!(
            "on_time_rate: 1 - ({} dropped or shed + {} frames with a miss) / {} arrived",
            stats.dropped, inst.frames.missed, arrived
        ),
        format!("latency: {} processed frames", latency.len()),
    ];
    Ok(Outcome {
        attempted,
        metrics,
        notes,
        spans: None,
    })
}

fn traced<B: Stack>(
    scale: Scale,
    seed: u64,
    share: impl Fn(f64) -> Duration,
    spans: &mut Spans,
) -> Result<Outcome, String> {
    let (b, _) = spans.scope("setup", |_| setup_rep::<B>(scale, seed));
    let phases: Vec<_> = spans.scope("compiler", |_| {
        let mut phases = Vec::new();
        sample(share(0.04), 1, 3, 200, || {
            let (p, d) = timed(|| b.build_phases());
            phases.push(p);
            d
        });
        phases
    });
    let phase_ms = |f: fn(&BuildPhases) -> f64| {
        median(&phases.iter().map(f).collect::<Vec<_>>())
    };
    let mut attempted = 0u64;

    // The untraced reference, then the instrumented pass against it.
    let (reference, untraced) = spans.scope("pass.untraced", |_| {
        let (reference, first) = b.reference_pass();
        let mut passes = vec![first];
        passes.extend(sample(share(0.08), 0, 2, 10_000, || b.reference_pass().1));
        (reference, passes)
    });
    attempted += untraced.len() as u64;
    let (inst, traced_passes) = spans.scope("pass.instrumented", |_| {
        let (inst, first) = timed(|| instrumented(&b, RECORD_CAP));
        let mut passes = vec![first];
        passes.extend(sample(share(0.08), 0, 2, 10_000, || {
            timed(|| instrumented(&b, 0)).1
        }));
        (inst, passes)
    });
    attempted += traced_passes.len() as u64;
    common_gates(&b, &reference, &inst)?;
    let slowdown = ns_per(&traced_passes, 1) / ns_per(&untraced, 1);

    // manager: replay the recorded decision inputs through a fresh manager.
    let decide = spans.scope("layer.manager", |_| {
        sample(share(0.1), 1, 3, 10_000, || {
            let mut m = b.manager();
            timed(|| {
                for &(state, t) in &inst.inputs {
                    black_box(m.decide(black_box(state), black_box(t)));
                }
            })
            .1
        })
    });

    // engine: the pure runtime over average execution times.
    let total_frames = b.total_frames();
    let engine_run = || {
        b.engine(b.manager()).run_cycles(
            total_frames,
            b.period(),
            b.chaining(),
            &mut ConstantExec::average(b.system().table()),
            &mut NullSink,
        )
    };
    let engine_actions = engine_run().actions;

    // closed: every stream's closed loop with its real source.
    let closed_ref = closed_loops(&b);
    attempted += 1;
    let closed_actions: usize = closed_ref.iter().map(|r| r.actions).sum();
    if b.shape() == Shape::Closed {
        let mut merged = sqm_core::engine::RunSummary::default();
        closed_ref.iter().for_each(|r| merged.merge(r));
        gate(merged == reference.run, || {
            format!(
                "{}: the closed-loop rung differs from the workload",
                B::NAME
            )
        })?;
    }

    // exec: the source alone over the closed loops' recorded queries.
    let recorded = record_exec(&b, RECORD_CAP);
    let queries: usize = recorded.iter().map(|(_, q)| q.len()).sum();
    let exec_replay = || {
        for (stream, calls) in &recorded {
            let mut x = b.exec(*stream);
            for &(cycle, action, q) in calls {
                black_box(x.actual(cycle, action, q));
            }
        }
    };

    // stream: periodic arrivals with Block must reproduce the closed loops.
    let streamed_ref = periodic_block(&b);
    attempted += 1;
    for (i, (s, c)) in streamed_ref.iter().zip(&closed_ref).enumerate() {
        gate(s.run == *c, || {
            format!(
                "{}: stream {i}: Periodic+Block differs from the closed loop",
                B::NAME
            )
        })?;
    }
    // The engine, exec, closed and stream rungs run back to back in every
    // repetition, so a change of host speed hits all four alike: the
    // ladder's closure gap and the front end's cost (stream minus closed)
    // compare rungs measured under the same conditions.
    let (mut engine, mut exec, mut closed, mut streamed) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    sample(share(0.4), 0, 3, 10_000, || {
        let e = spans.scope("layer.engine", |_| timed(engine_run).1);
        let x = spans.scope("layer.exec", |_| timed(exec_replay).1);
        let c = spans.scope("layer.closed", |_| timed(|| closed_loops(&b)).1);
        let s = spans.scope("layer.stream", |_| timed(|| periodic_block(&b)).1);
        engine.push(e);
        exec.push(x);
        closed.push(c);
        streamed.push(s);
        e + x + c + s
    });

    // elastic: build, then run on one worker and on every core.
    let build = spans.scope("layer.elastic.build", |_| {
        sample(share(0.05), 1, 3, 10_000, || {
            let (p, d) = timed(|| population(&b));
            drop(p);
            d
        })
    });
    let workers = crate::measure::nproc();
    let mut outs = [None, None];
    let mut elastic = |name, slot: usize, workers: usize| {
        spans.scope(name, |_| {
            sample(share(0.1), 0, 3, 10_000, || {
                let p = population(&b);
                let (s, d) = timed(|| run_elastic(&b, workers, p));
                outs[slot].get_or_insert(s);
                d
            })
        })
    };
    let w1 = elastic("layer.elastic.w1", 0, 1);
    let wn = elastic("layer.elastic.wN", 1, workers);
    attempted += (w1.len() + wn.len()) as u64;
    let [Some(one), Some(many)] = outs else {
        unreachable!("sample runs at least once")
    };
    gate(one == many, || {
        format!(
            "{}: elastic on {workers} workers differs from 1 worker",
            B::NAME
        )
    })?;
    match b.shape() {
        Shape::Elastic { .. } => gate(Some(&one) == reference.elastic.as_ref(), || {
            format!("{}: elastic rung differs from the workload", B::NAME)
        })?,
        Shape::Closed => gate(one.per_stream()[0].run == closed_ref[0], || {
            format!("{}: elastic rung differs from the closed loop", B::NAME)
        })?,
        Shape::Streaming(_) => {}
    }

    let decide_ns = ns_per(&decide, inst.inputs.len());
    let engine_ns = ns_per(&engine, engine_actions);
    let exec_ns = ns_per(&exec, queries);
    let closed_ns = ns_per(&closed, closed_actions);
    let sum = engine_ns + exec_ns;
    let gap = closed_ns - sum;
    let gap_pct = 100.0 * gap / closed_ns;
    let flagged = gap_pct.abs() > CLOSURE_TOLERANCE_PCT;
    // Paired differences of back-to-back repetitions cancel host drift.
    let paired: Vec<f64> = streamed
        .iter()
        .zip(&closed)
        .map(|(s, c)| s.as_secs_f64() - c.as_secs_f64())
        .collect();
    let stream_overhead = median(&paired) * 1e9 / total_frames.max(1) as f64;
    let front = match b.shape() {
        Shape::Closed => {
            let mut stats = sqm_core::stream::StreamStats::default();
            streamed_ref.iter().for_each(|s| stats.merge(&s.stats));
            stats
        }
        _ => reference.stream_stats(),
    };
    let ledger = *one.ledger();
    let actions = inst.out.run.actions.max(1) as f64;

    let metrics = vec![
        Metric::new("manager.decide_ns", decide_ns, "ns"),
        Metric::new(
            "manager.decisions_per_action",
            inst.decisions as f64 / actions,
            "ratio",
        ),
        Metric::new(
            "manager.probes_per_decision",
            inst.probes as f64 / inst.decisions.max(1) as f64,
            "count",
        ),
        Metric::new("engine.ns_per_action", engine_ns, "ns"),
        Metric::new("exec.ns_per_action", exec_ns, "ns"),
        Metric::new("closed.ns_per_action", closed_ns, "ns"),
        Metric::new(
            "closed.runtime_share",
            (closed_ns - exec_ns) / closed_ns,
            "ratio",
        ),
        Metric::new("stream.overhead_ns_per_frame", stream_overhead, "ns"),
        Metric::new(
            "stream.wait_p99_us",
            quantile_i64(&inst.frames.wait, 0.99) / 1e3,
            "us",
        ),
        Metric::new("stream.backlog_max", front.max_backlog as f64, "count"),
        Metric::new("stream.dropped", front.dropped as f64, "count"),
        Metric::new(
            "elastic.run_ns_per_action_w1",
            ns_per(&w1, one.run().actions),
            "ns",
        ),
        Metric::new(
            "elastic.run_ns_per_action_wN",
            ns_per(&wn, many.run().actions),
            "ns",
        ),
        Metric::new("elastic.ns_per_round", ns_per(&w1, ledger.rounds), "ns"),
        Metric::new("elastic.rounds", ledger.rounds as f64, "count"),
        Metric::new("elastic.shed", ledger.shed as f64, "count"),
        Metric::new("elastic.peak_backlog", ledger.peak_backlog as f64, "count"),
        Metric::new(
            "elastic.build_ns_per_stream",
            ns_per(&build, b.streams()),
            "ns",
        ),
        Metric::new("compiler.regions_ms", phase_ms(|p| p.regions_ms), "ms"),
        Metric::new(
            "compiler.relaxation_ms",
            phase_ms(|p| p.relaxation_ms),
            "ms",
        ),
        Metric::new("workload.build_ms", phase_ms(|p| p.build_ms), "ms"),
        Metric::new("ladder.sum_ns_per_action", sum, "ns"),
        Metric::new("ladder.gap_ns_per_action", gap, "ns"),
        Metric::new("ladder.gap_pct", gap_pct, "%"),
        Metric::new("ladder.gap_flag", f64::from(u8::from(flagged)), "count"),
        Metric::new("trace.slowdown", slowdown, "ratio"),
    ];
    let notes = vec![
        format!(
            "ladder closure: closed {closed_ns:.2} ns/action vs engine {engine_ns:.2} + exec \
             {exec_ns:.2} = {sum:.2}; gap {gap:.2} ns ({gap_pct:.1} %, tolerance \
             {CLOSURE_TOLERANCE_PCT} %){}",
            if flagged { " -- OUTSIDE TOLERANCE" } else { "" }
        ),
        format!(
            "replays: {} decisions, {} exec queries; elastic on {workers} workers",
            inst.inputs.len(),
            queries
        ),
        format!("traced pass: {slowdown:.3}x the untraced pass"),
    ];
    Ok(Outcome {
        attempted,
        metrics,
        notes,
        spans: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Encode, LiveFleet, Serve};

    /// The end-to-end metrics that live in virtual time.
    const VIRTUAL: [&str; 5] = [
        "quality_mean",
        "on_time_rate",
        "qm_overhead_pct",
        "latency_p50_us",
        "latency_p99_us",
    ];

    /// `"name": "…"` entries of one section of `BENCHMARK.json`, in order.
    fn listed(section: &str) -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json.find(&format!("\"{section}\"")).expect("section");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list end")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closing quote")].to_string())
            .collect()
    }

    fn names(o: &Outcome) -> Vec<String> {
        o.metrics.iter().map(|m| m.name.to_string()).collect()
    }

    fn virtual_bits(o: &Outcome) -> Vec<(&'static str, u64)> {
        o.metrics
            .iter()
            .filter(|m| VIRTUAL.contains(&m.name))
            .map(|m| (m.name, m.value.to_bits()))
            .collect()
    }

    fn smoke<B: Stack>() {
        let a = run::<B>(Scale::Tiny, 11, 0.02, false).expect("gates pass");
        let b = run::<B>(Scale::Tiny, 11, 0.02, false).expect("gates pass");
        assert_eq!(virtual_bits(&a).len(), VIRTUAL.len());
        assert_eq!(virtual_bits(&a), virtual_bits(&b), "virtual metrics repeat");
        assert_eq!(names(&a), listed("end_to_end"));
        let on_time = a.metrics.iter().find(|m| m.name == "on_time_rate").unwrap();
        assert!((0.0..=1.0).contains(&on_time.value), "{on_time:?}");
        for m in &a.metrics {
            assert!(m.value.is_finite(), "{m:?}");
        }

        // The books balance on the production path.
        let w = B::setup(Scale::Tiny, 11);
        let (out, _) = w.timed_pass();
        for s in &out.streams {
            assert_eq!(s.stats.arrived, s.stats.processed + s.stats.dropped);
        }
        if let Some(e) = &out.elastic {
            let l = e.ledger();
            assert_eq!(l.arrived, l.admitted + l.shed);
            assert_eq!(l.arrived, w.total_frames());
        }

        let t = run::<B>(Scale::Tiny, 11, 0.02, true).expect("traced gates pass");
        assert_eq!(names(&t), listed("per_layer"));
        let spans = t.spans.as_ref().expect("the traced run keeps spans");
        assert!(spans.to_json_lines().lines().count() > 10);
    }

    #[test]
    fn encode_smoke() {
        smoke::<Encode>();
    }

    #[test]
    fn serve_smoke() {
        smoke::<Serve>();
    }

    #[test]
    fn live_fleet_smoke() {
        smoke::<LiveFleet>();
    }

    #[test]
    fn seeds_change_the_inputs() {
        let a = run::<Serve>(Scale::Tiny, 1, 0.02, false).expect("gates pass");
        let b = run::<Serve>(Scale::Tiny, 2, 0.02, false).expect("gates pass");
        assert_ne!(virtual_bits(&a), virtual_bits(&b));
    }
}
