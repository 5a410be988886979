//! Per-cycle elastic interleaving: many tiny live streams through
//! `sqm_core::elastic`, serial streaming fold vs 1/2/4-worker elastic.
//!
//! Every variant produces byte-identical per-stream results (the unit and
//! conformance suites pin that), so the measured difference is pure
//! scheduler cost — heap churn, ring publication, claims and round
//! hand-offs — plus, on multi-core hosts, the execution that overlaps the
//! serial fill.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sqm_bench::elastic::{mixed_fleet, serial_fold};
use sqm_bench::ElasticExperiment;
use sqm_core::elastic::{ElasticConfig, ElasticRunner};
use std::hint::black_box;

fn bench_elastic(c: &mut Criterion) {
    let mut group = c.benchmark_group("elastic");
    group.sample_size(10);
    let exp = ElasticExperiment::micro(4_000, 3);
    let config = ElasticConfig::live().with_ring_capacity(1024);
    let fleet = || mixed_fleet(&exp, exp.streams(), exp.frames(), 1, 0);
    group.bench_function(BenchmarkId::new("serial_fold", exp.streams()), |b| {
        b.iter(|| black_box(serial_fold(black_box(config).chaining, fleet())));
    });
    for workers in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new(format!("workers{workers}"), exp.streams()),
            &workers,
            |b, &w| {
                b.iter(|| black_box(ElasticRunner::new(w, black_box(config)).run(fleet()).0));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_elastic);
criterion_main!(benches);
