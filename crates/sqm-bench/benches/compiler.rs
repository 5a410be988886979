//! Offline compilation cost: building the quality-region and
//! control-relaxation tables as the system grows.
//!
//! The paper pre-computes tables for 1,189 actions in Matlab; the compiler
//! bench shows the Rust compiler is cheap enough to run at application
//! start-up even for systems two orders of magnitude larger.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sqm_core::compiler::{compile_regions, compile_relaxation};
use sqm_core::relaxation::StepSet;
use sqm_core::system::{ParameterizedSystem, SystemBuilder};
use sqm_core::time::Time;
use std::hint::black_box;

fn synthetic_system(n: usize) -> ParameterizedSystem {
    let mut b = SystemBuilder::new(7);
    for i in 0..n {
        let bump = (i % 5) as i64 * 3_000;
        let wc: Vec<i64> = (0..7).map(|q| 400_000 + 120_000 * q + bump).collect();
        let av: Vec<i64> = wc.iter().map(|w| w / 2).collect();
        b = b.action(&format!("a{i}"), &wc, &av);
    }
    b.deadline_last(Time::from_ns(n as i64 * 450_000))
        .build()
        .unwrap()
}

fn bench_compile_regions(c: &mut Criterion) {
    let mut group = c.benchmark_group("compile_regions");
    for n in [1_189usize, 10_000, 50_000] {
        let sys = synthetic_system(n);
        group.bench_with_input(BenchmarkId::new("serial", n), &n, |b, _| {
            b.iter(|| black_box(compile_regions(black_box(&sys))));
        });
    }
    group.finish();
}

fn bench_compile_relaxation(c: &mut Criterion) {
    let mut group = c.benchmark_group("compile_relaxation");
    group.sample_size(20);
    let rho = StepSet::paper_mpeg();
    for n in [1_189usize, 10_000] {
        let sys = synthetic_system(n);
        let regions = compile_regions(&sys);
        group.bench_with_input(BenchmarkId::new("serial", n), &n, |b, _| {
            b.iter(|| black_box(compile_relaxation(&sys, &regions, rho.clone())));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_compile_regions, bench_compile_relaxation);
criterion_main!(benches);
