//! Cost of the event-driven front-end: the closed loop vs the streaming
//! runner on the same periodic traffic (the layer's overhead), plus the
//! irregular arrival patterns the closed loop cannot model at all.
//!
//! Streaming results are deterministic per scenario, so the variants do
//! identical decision/execution work — the measured difference is the
//! queue bookkeeping: a closed-loop reference next to the layer's
//! variants.

use criterion::{criterion_group, criterion_main, Criterion};
use sqm_bench::{ManagerKind, StreamingExperiment};
use sqm_core::engine::{CycleChaining, NullSink};
use sqm_core::source::Periodic;
use sqm_core::stream::{OverloadPolicy, StreamConfig};
use std::hint::black_box;

fn bench_streaming(c: &mut Criterion) {
    let mut group = c.benchmark_group("streaming");
    group.sample_size(10);
    let exp = StreamingExperiment::small(7);
    let frames = 12;
    let kind = ManagerKind::Regions;

    group.bench_function("closed_loop", |b| {
        b.iter(|| {
            black_box(
                exp.mpeg()
                    .run_summary(kind, frames, 0.1, black_box(11), None),
            )
        });
    });
    group.bench_function("periodic_block", |b| {
        b.iter(|| {
            black_box(exp.mpeg().run_stream_into(
                kind,
                0.1,
                black_box(11),
                StreamConfig {
                    chaining: CycleChaining::WorkConserving,
                    capacity: 4,
                    policy: OverloadPolicy::Block,
                },
                &mut Periodic::new(exp.period(), frames),
                &mut NullSink,
            ))
        });
    });
    for scenario in StreamingExperiment::scenarios() {
        group.bench_function(scenario.name, |b| {
            b.iter(|| black_box(exp.run_scenario(kind, &scenario, frames, black_box(11))));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_streaming);
criterion_main!(benches);
