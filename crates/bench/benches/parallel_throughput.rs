//! Bench: throughput of the Monte-Carlo engine of experiment E9 — the
//! streaming covariance estimator on the persistent-pool engine at several
//! worker caps, on the registered `scaling-exp-rho07` scenario (N = 16).
//!
//! The `parallel/pool_vs_spawn_small` group is the small-call latency
//! gate: on a workload small enough that orchestration dominates, it times
//! one call on the persistent [`corrfade_parallel::Runtime`] pool
//! (condvar wake per call). The group keeps its historical name, from when
//! it also timed a spawn-a-scope-per-call path (since retired), so the
//! committed baseline ids and the CI regression gate stay stable.

use corrfade_parallel::{monte_carlo_covariance, ParallelConfig};
use corrfade_scenarios::lookup;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

const TOTAL: usize = 100_000;

/// The small-block configuration of the small-call gate: little enough
/// generation work (one minimum-size chunk) that orchestration overhead
/// dominates the call.
const SMALL_TOTAL: usize = 64;

fn bench_streaming_covariance(c: &mut Criterion) {
    let k = lookup("scaling-exp-rho07")
        .unwrap()
        .covariance_matrix()
        .unwrap();
    let mut group = c.benchmark_group("parallel/streaming_covariance_n16");
    group.throughput(Throughput::Elements(TOTAL as u64));
    group.sample_size(10);
    for &threads in &[1usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                let cfg = ParallelConfig {
                    threads,
                    chunk_size: 8192,
                    seed: 1,
                };
                b.iter(|| monte_carlo_covariance(&k, TOTAL, &cfg).unwrap())
            },
        );
    }
    group.finish();
}

fn bench_small_calls(c: &mut Criterion) {
    let k = lookup("fig4b-spatial")
        .unwrap()
        .covariance_matrix()
        .unwrap();
    let cfg = ParallelConfig {
        threads: 0, // all cores
        chunk_size: 256,
        seed: 1,
    };
    let mut group = c.benchmark_group("parallel/pool_vs_spawn_small");
    group.throughput(Throughput::Elements(SMALL_TOTAL as u64));
    group.sample_size(40);
    group.bench_function("covariance/pool", |b| {
        b.iter(|| monte_carlo_covariance(&k, SMALL_TOTAL, &cfg).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_streaming_covariance, bench_small_calls);
criterion_main!(benches);
