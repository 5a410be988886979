//! Cost of the event-driven front-end: the closed loop vs the streaming
//! runner on the same periodic traffic (the layer's overhead), plus the
//! irregular arrival patterns the closed loop cannot model at all.
//!
//! Streaming results are deterministic per scenario, so the variants do
//! identical decision/execution work — the measured difference is the
//! queue bookkeeping: a closed-loop reference next to the layer's
//! variants.

use criterion::{criterion_group, criterion_main, Criterion};
use sqm_bench::streaming::mpeg_scenarios;
use sqm_bench::{PaperExperiment, Workload, JITTER};
use sqm_core::engine::{CycleChaining, NullSink};
use sqm_core::source::Periodic;
use sqm_core::stream::{OverloadPolicy, StreamConfig};
use sqm_mpeg::EncoderConfig;
use std::hint::black_box;

fn bench_streaming(c: &mut Criterion) {
    let mut group = c.benchmark_group("streaming");
    group.sample_size(10);
    let exp = PaperExperiment::with_config(EncoderConfig::small(7));
    let frames = 12;

    group.bench_function("closed_loop", |b| {
        b.iter(|| {
            black_box(exp.run_closed(
                frames,
                CycleChaining::WorkConserving,
                JITTER,
                black_box(11),
                &mut NullSink,
            ))
        });
    });
    group.bench_function("periodic_block", |b| {
        b.iter(|| {
            black_box(exp.run_streaming(
                StreamConfig {
                    chaining: CycleChaining::WorkConserving,
                    capacity: 4,
                    policy: OverloadPolicy::Block,
                },
                &mut Periodic::new(exp.period(), frames),
                JITTER,
                black_box(11),
                &mut NullSink,
            ))
        });
    });
    for scenario in mpeg_scenarios() {
        group.bench_function(scenario.name, |b| {
            b.iter(|| black_box(exp.run_scenario(&scenario, frames, black_box(11))));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_streaming);
criterion_main!(benches);
