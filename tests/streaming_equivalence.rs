//! Streaming-equivalence regression tests: the zero-allocation
//! `ChannelStream` path must be **bit-identical** to independent reference
//! paths for equal seeds — on both paper covariance matrices (Eq. 22
//! spectral, Eq. 23 spatial): single-instant blocks against per-snapshot
//! `sample_gaussian` draws, and the pooled covariance engine against
//! sequential streams at every thread count.

use corrfade::{ChannelStream, CorrelatedRayleighGenerator, SampleBlock};
use corrfade_linalg::CMatrix;
use corrfade_models::{paper_covariance_matrix_22, paper_covariance_matrix_23};
use corrfade_parallel::{chunk_seed, monte_carlo_covariance, partition, ParallelConfig};
use corrfade_stats::sample_covariance_from_block;

fn paper_matrices() -> [(&'static str, CMatrix); 2] {
    [
        ("Eq. 22 spectral", paper_covariance_matrix_22()),
        ("Eq. 23 spatial", paper_covariance_matrix_23()),
    ]
}

fn bits(k: &CMatrix) -> Vec<u64> {
    k.as_slice()
        .iter()
        .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
        .collect()
}

/// A sequential generator streaming chunk `index`'s seed in one block.
fn chunk_stream(k: &CMatrix, seed: u64, index: usize, len: usize) -> CorrelatedRayleighGenerator {
    CorrelatedRayleighGenerator::new(k.clone(), chunk_seed(seed, index))
        .unwrap()
        .with_stream_block_len(len)
}

#[test]
fn single_instant_streaming_matches_sample_gaussian_draws_bit_for_bit() {
    const BATCH: usize = 100;
    const BLOCKS: usize = 4;
    for (label, k) in paper_matrices() {
        let mut reference = CorrelatedRayleighGenerator::new(k.clone(), 0xCAFE).unwrap();
        let mut streaming = CorrelatedRayleighGenerator::new(k, 0xCAFE)
            .unwrap()
            .with_stream_block_len(BATCH);

        let mut block = SampleBlock::empty();
        for b in 0..BLOCKS {
            streaming.next_block_into(&mut block).unwrap();
            for l in 0..BATCH {
                for (j, &z) in reference.sample_gaussian().iter().enumerate() {
                    assert_eq!(
                        block.path(j)[l],
                        z,
                        "{label}: snapshot {} envelope {j} diverged",
                        b * BATCH + l
                    );
                }
            }
        }
    }
}

#[test]
fn parallel_engine_is_thread_count_invariant_through_streaming() {
    for (label, k) in paper_matrices() {
        // The pooled estimate is bit-identical for every worker count.
        let cfg = |threads| ParallelConfig {
            threads,
            chunk_size: 256,
            seed: 77,
        };
        let one = bits(&monte_carlo_covariance(&k, 1000, &cfg(1)).unwrap());
        for threads in [2usize, 4, 8] {
            let many = bits(&monte_carlo_covariance(&k, 1000, &cfg(threads)).unwrap());
            assert_eq!(
                one, many,
                "{label}: estimate changed with {threads} threads"
            );
        }

        // A one-chunk run is bit-identical to the block estimate of a
        // sequential generator streaming the chunk-0 seed.
        let total = corrfade_parallel::MIN_CHUNK_SAMPLES;
        assert_eq!(
            partition(total, cfg(1).effective_chunk_size(total)).len(),
            1
        );
        let block = chunk_stream(&k, 77, 0, total).next_block().unwrap();
        assert_eq!(
            bits(&monte_carlo_covariance(&k, total, &cfg(1)).unwrap()),
            bits(&sample_covariance_from_block(&block)),
            "{label}: one-chunk estimate diverged from the sequential generator"
        );
    }
}

#[test]
fn streamed_covariance_estimates_agree_between_engines() {
    for (label, k) in paper_matrices() {
        let cfg = ParallelConfig {
            threads: 3,
            chunk_size: 512,
            seed: 3,
        };
        let total = 4096;
        // Sequential: every chunk's stream folded into one accumulator.
        let mut acc = CMatrix::zeros(3, 3);
        let mut block = SampleBlock::empty();
        for chunk in partition(total, cfg.effective_chunk_size(total)) {
            chunk_stream(&k, cfg.seed, chunk.index, chunk.len)
                .next_block_into(&mut block)
                .unwrap();
            block.accumulate_covariance(&mut acc);
        }
        let sequential = acc.scale_real(1.0 / total as f64);
        let pooled = monte_carlo_covariance(&k, total, &cfg).unwrap();
        assert!(
            sequential.approx_eq(&pooled, 1e-10),
            "{label}: pooled covariance diverged from the sequential streams"
        );
    }
}
