//! Bench: the statistical-validation pipeline of experiment E5 — sample
//! covariance estimation and goodness-of-fit testing over ensembles
//! generated from the registered `fig4a-spectral` scenario. These dominate
//! the wall-clock of the Monte-Carlo experiments, so their cost matters as
//! much as the generator's.

use corrfade::ChannelStream;
use corrfade_scenarios::lookup;
use corrfade_stats::{ks_test, sample_covariance_from_block};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_sample_covariance(c: &mut Criterion) {
    let mut group = c.benchmark_group("validation/sample_covariance");
    let scenario = lookup("fig4a-spectral").unwrap();
    for &snapshots in &[1_000usize, 10_000, 50_000] {
        group.bench_with_input(
            BenchmarkId::from_parameter(snapshots),
            &snapshots,
            |b, &snapshots| {
                let mut gen = scenario.build(3).unwrap().with_stream_block_len(snapshots);
                let block = gen.next_block().unwrap();
                b.iter(|| sample_covariance_from_block(&block))
            },
        );
    }
    group.finish();
}

fn bench_ks_test(c: &mut Criterion) {
    let mut group = c.benchmark_group("validation/rayleigh_ks_test");
    let scenario = lookup("fig4a-spectral").unwrap();
    for &n in &[1_000usize, 10_000, 100_000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut gen = scenario.build(5).unwrap().with_stream_block_len(n);
            let mut block = gen.next_block().unwrap();
            let env = block.envelope_path(0);
            let sigma = corrfade_stats::rayleigh_scale(1.0);
            b.iter(|| ks_test(env, |r| corrfade_specfun::rayleigh_cdf(r, sigma)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sample_covariance, bench_ks_test);
criterion_main!(benches);
