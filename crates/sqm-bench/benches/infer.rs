//! The inference-serving workload: closed-loop batches, the bursty
//! streaming regime, and the elastic many-streams drive.
//!
//! Every variant produces byte-identical results across execution paths
//! (the unit and conformance suites pin that), so the measured spread is
//! the cost of the path itself — the streaming front-end's queue
//! bookkeeping, the elastic scheduler's heaps and ring — on top of one
//! batch-coupled decision loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sqm_bench::elastic::mixed_fleet;
use sqm_bench::{InferExperiment, Workload, JITTER};
use sqm_core::elastic::{ElasticConfig, ElasticRunner};
use sqm_core::engine::{CycleChaining, NullSink};
use std::hint::black_box;

fn bench_infer(c: &mut Criterion) {
    let mut group = c.benchmark_group("infer");
    group.sample_size(10);

    let exp = InferExperiment::small(3);
    group.bench_function("closed_small_8", |b| {
        b.iter(|| {
            black_box(exp.run_closed(
                black_box(8),
                CycleChaining::ArrivalClamped,
                JITTER,
                11,
                &mut NullSink,
            ))
        });
    });

    let scenarios = InferExperiment::scenarios();
    let bursty = scenarios
        .iter()
        .find(|s| s.name == "bursty6/drop-newest")
        .unwrap();
    group.bench_function("streaming_bursty_24", |b| {
        b.iter(|| black_box(exp.run_scenario(black_box(bursty), 24, 11)));
    });

    let tiny = InferExperiment::tiny(3);
    let config = ElasticConfig::live().with_ring_capacity(256);
    for workers in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::new("elastic", workers), &workers, |b, &w| {
            b.iter(|| {
                let fleet = mixed_fleet(&tiny, 500, 2, 1, 1_000);
                black_box(ElasticRunner::new(w, black_box(config)).run(fleet).0)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_infer);
criterion_main!(benches);
