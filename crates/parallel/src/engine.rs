//! Multi-threaded Monte-Carlo generation of correlated Rayleigh envelopes.
//!
//! The expensive part of validating (or using) the generator is drawing
//! millions of snapshots, not computing the coloring matrix — the
//! decomposition is done once per covariance matrix (and shared process-wide
//! through [`corrfade::cached_eigen_coloring`]). The engine therefore:
//!
//! 1. resolves the eigen-coloring through the decomposition cache (a hit for
//!    every covariance matrix the process has seen before),
//! 2. splits the requested ensemble into chunks sized by the load-balancing
//!    heuristic ([`crate::balanced_chunk_size`]), each with its own
//!    deterministic RNG seed,
//! 3. deals the chunks into per-executor work-stealing lanes
//!    ([`StealQueues`]) on the persistent [`Runtime`] pool — the submitting
//!    thread participates as executor 0, each executor drains its own lane
//!    and steals stragglers' backlogs; every worker owns **one pinned planar
//!    [`SampleBlock`]** that the generators stream into through
//!    [`ChannelStream::next_block_into`] — no per-chunk buffer allocation —
//!    and either stores the snapshots or folds covariance accumulators
//!    straight from the planar data,
//! 4. merges the per-chunk results in chunk order.
//!
//! Because chunk seeds depend only on `(master seed, chunk index)` and the
//! chunk layout depends only on `(total, chunk_size)`, the produced ensemble
//! is identical for any thread count.
//!
//! The free functions run on [`Runtime::global()`]; the `*_on` variants take
//! an explicit pool.
//!
//! All per-sample work inside the workers (the coloring matvec, the
//! covariance fold, the Doppler IDFT) runs on the
//! [`corrfade_linalg::kernel`] dispatch layer; pool workers latch the
//! backend at spawn, so `CORRFADE_KERNEL` is honoured deterministically
//! across the pool.

use std::sync::Mutex;

use corrfade::{
    ChannelStream, Coloring, CorrelatedRayleighGenerator, RealtimeConfig, RealtimeGenerator,
    SampleBlock,
};
use corrfade_linalg::{CMatrix, Complex64};

use crate::error::ParallelError;
use crate::partition::{balanced_chunk_size, chunk_seed, partition, Chunk};
use crate::runtime::Runtime;
use crate::stealing::StealQueues;

/// Configuration of the parallel engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Maximum number of workers participating in a call (0 means "number
    /// of available cores"). This caps how many pool workers pick up
    /// chunks; it never affects the produced values.
    pub threads: usize,
    /// Upper bound on the snapshots generated per chunk (the unit of work
    /// stealing). Large workloads are subdivided further for load balance —
    /// see [`ParallelConfig::effective_chunk_size`]. Must be positive; the
    /// engine entry points report [`ParallelError::InvalidChunkSize`]
    /// otherwise.
    pub chunk_size: usize,
    /// Master RNG seed.
    pub seed: u64,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            chunk_size: 4096,
            seed: 0,
        }
    }
}

impl ParallelConfig {
    /// Resolves the effective number of worker threads.
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// The chunk size actually used to partition `total` samples:
    /// [`Self::chunk_size`] bounded by the load-balancing heuristic
    /// ([`balanced_chunk_size`]), which targets [`crate::TARGET_CHUNKS`]
    /// chunks so the pool self-schedules evenly instead of degenerating to
    /// one oversized chunk per thread.
    ///
    /// Depends only on `(total, chunk_size)` — never on the thread count —
    /// so the chunk layout (and with it every `(seed, i)`-derived RNG
    /// stream) is identical for any number of workers.
    ///
    /// # Panics
    /// Panics if [`Self::chunk_size`] is zero; use [`Self::validate`] first
    /// to get the typed error instead.
    #[must_use]
    pub fn effective_chunk_size(&self, total: usize) -> usize {
        balanced_chunk_size(total, self.chunk_size)
    }

    /// Checks the configuration for values that could never run, and
    /// latches the process-wide numeric-kernel backend so the worker pool
    /// never races the first `CORRFADE_KERNEL` lookup.
    ///
    /// # Errors
    /// [`ParallelError::InvalidChunkSize`] when `chunk_size` is zero.
    pub fn validate(&self) -> Result<(), ParallelError> {
        if self.chunk_size == 0 {
            return Err(ParallelError::InvalidChunkSize);
        }
        let _ = corrfade_linalg::kernel::backend();
        Ok(())
    }
}

/// Generates `total` independent snapshots of the correlated complex
/// Gaussian vector on the global worker pool. The result is ordered and
/// identical for any thread count.
///
/// # Errors
/// [`ParallelError::InvalidChunkSize`] for a zero chunk size; covariance
/// validation errors from the core crate otherwise.
pub fn generate_snapshots(
    covariance: &CMatrix,
    total: usize,
    config: &ParallelConfig,
) -> Result<Vec<Vec<Complex64>>, ParallelError> {
    generate_snapshots_on(Runtime::global(), covariance, total, config)
}

/// [`generate_snapshots`] on an explicit [`Runtime`].
///
/// # Errors
/// See [`generate_snapshots`].
pub fn generate_snapshots_on(
    runtime: &Runtime,
    covariance: &CMatrix,
    total: usize,
    config: &ParallelConfig,
) -> Result<Vec<Vec<Complex64>>, ParallelError> {
    config.validate()?;
    let coloring = corrfade::cached_eigen_coloring(covariance)?;
    let chunks = partition(total, config.effective_chunk_size(total));
    let slots: Vec<Mutex<Vec<Vec<Complex64>>>> =
        chunks.iter().map(|_| Mutex::new(Vec::new())).collect();
    let participants = config.effective_threads().min(chunks.len()).max(1);
    let queues = StealQueues::new(chunks.len(), participants);

    runtime.run(&|id, scratch| {
        if id >= participants {
            return;
        }
        queues.for_each_claimed(id, |i| {
            let chunk = chunks[i];
            stream_chunk(
                &coloring,
                covariance,
                chunk,
                config.seed,
                &mut scratch.block,
            );
            *slots[chunk.index].lock().unwrap() = scratch.block.to_snapshots();
        });
    });

    let mut out = Vec::with_capacity(total);
    for slot in slots {
        out.extend(slot.into_inner().unwrap());
    }
    Ok(out)
}

/// Streams one chunk of snapshots into the worker's pooled block: sample `l`
/// of the block is snapshot `chunk.start + l` of the overall ensemble.
fn stream_chunk(
    coloring: &Coloring,
    desired: &CMatrix,
    chunk: Chunk,
    master_seed: u64,
    block: &mut SampleBlock,
) {
    let mut gen = CorrelatedRayleighGenerator::from_coloring(
        coloring.clone(),
        desired.clone(),
        1.0,
        chunk_seed(master_seed, chunk.index),
    )
    .expect("coloring was already validated")
    .with_stream_block_len(chunk.len);
    gen.next_block_into(block)
        .expect("streaming is infallible after construction");
}

/// Estimates the sample covariance `E[Z·Zᴴ]` over `total` snapshots without
/// materializing them, on the global worker pool: each worker streams its
/// chunks into its pinned planar block and folds `Σ Z·Zᴴ` straight from the
/// planar data into that chunk's accumulator slot; the slots are merged in
/// chunk order at the end, so the estimate is **bit-identical for any
/// thread count** (not merely statistically equivalent).
///
/// # Errors
/// [`ParallelError::InvalidChunkSize`] for a zero chunk size; covariance
/// validation errors from the core crate otherwise.
///
/// # Panics
/// Panics when `total` is zero (an estimate over nothing).
pub fn monte_carlo_covariance(
    covariance: &CMatrix,
    total: usize,
    config: &ParallelConfig,
) -> Result<CMatrix, ParallelError> {
    monte_carlo_covariance_on(Runtime::global(), covariance, total, config)
}

/// [`monte_carlo_covariance`] on an explicit [`Runtime`].
///
/// # Errors
/// See [`monte_carlo_covariance`].
///
/// # Panics
/// Panics when `total` is zero.
pub fn monte_carlo_covariance_on(
    runtime: &Runtime,
    covariance: &CMatrix,
    total: usize,
    config: &ParallelConfig,
) -> Result<CMatrix, ParallelError> {
    assert!(
        total > 0,
        "monte_carlo_covariance: need at least one snapshot"
    );
    config.validate()?;
    let coloring = corrfade::cached_eigen_coloring(covariance)?;
    let n = coloring.dimension();
    let chunks = partition(total, config.effective_chunk_size(total));
    let participants = config.effective_threads().min(chunks.len()).max(1);
    let queues = StealQueues::new(chunks.len(), participants);
    // One accumulator per chunk, merged in chunk order below: the summation
    // order is fixed by the chunk layout, never by scheduling.
    let slots: Vec<Mutex<CMatrix>> = chunks
        .iter()
        .map(|_| Mutex::new(CMatrix::zeros(n, n)))
        .collect();

    runtime.run(&|id, scratch| {
        if id >= participants {
            return;
        }
        queues.for_each_claimed(id, |i| {
            let chunk = chunks[i];
            stream_chunk(
                &coloring,
                covariance,
                chunk,
                config.seed,
                &mut scratch.block,
            );
            scratch
                .block
                .accumulate_covariance(&mut slots[chunk.index].lock().unwrap());
        });
    });

    let mut sum = CMatrix::zeros(n, n);
    for slot in slots {
        let partial = slot.into_inner().unwrap();
        sum = &sum + &partial;
    }
    Ok(sum.scale_real(1.0 / total as f64))
}

/// Generates `blocks` real-time Doppler blocks on the global worker pool
/// (one block is one full `M`-sample realization of all `N` envelopes) and
/// concatenates them per envelope. Block `i` always uses the RNG stream
/// derived from `(seed, i)`, so the result is thread-count invariant.
///
/// The eigendecomposition is resolved through the process-wide
/// decomposition cache and the Doppler filter is designed once on the
/// calling thread; each worker streams into its own pinned [`SampleBlock`]
/// through cheaply [reseeded](RealtimeGenerator::reseeded) copies.
/// [`ParallelConfig::chunk_size`] is not consulted — the unit of work here
/// is one full Doppler block.
///
/// # Errors
/// Configuration errors from the core crate.
pub fn generate_realtime_paths(
    base: &RealtimeConfig,
    blocks: usize,
    config: &ParallelConfig,
) -> Result<Vec<Vec<Complex64>>, ParallelError> {
    generate_realtime_paths_on(Runtime::global(), base, blocks, config)
}

/// [`generate_realtime_paths`] on an explicit [`Runtime`].
///
/// # Errors
/// See [`generate_realtime_paths`].
pub fn generate_realtime_paths_on(
    runtime: &Runtime,
    base: &RealtimeConfig,
    blocks: usize,
    config: &ParallelConfig,
) -> Result<Vec<Vec<Complex64>>, ParallelError> {
    // Validate the configuration (and pay for the filter design) once up
    // front so workers cannot fail; the decomposition comes from the
    // process-wide cache. Latch the kernel backend before any worker runs.
    let _ = corrfade_linalg::kernel::backend();
    let coloring = corrfade::cached_eigen_coloring(&base.covariance)?;
    let prototype = RealtimeGenerator::from_coloring(
        Coloring::clone(&coloring),
        RealtimeConfig {
            covariance: base.covariance.clone(),
            ..*base
        },
    )?;
    let n = prototype.dimension();

    let slots: Vec<Mutex<Vec<Vec<Complex64>>>> =
        (0..blocks).map(|_| Mutex::new(Vec::new())).collect();
    let participants = config.effective_threads().min(blocks.max(1));
    let queues = StealQueues::new(blocks, participants);

    runtime.run(&|id, scratch| {
        if id >= participants {
            return;
        }
        queues.for_each_claimed(id, |i| {
            let mut gen = prototype.reseeded(chunk_seed(base.seed, i));
            gen.next_block_into(&mut scratch.block)
                .expect("configuration validated above");
            *slots[i].lock().unwrap() = scratch.block.to_paths();
        });
    });

    let mut paths: Vec<Vec<Complex64>> = vec![Vec::new(); n];
    for slot in slots {
        let block = slot.into_inner().unwrap();
        for (j, path) in block.into_iter().enumerate() {
            paths[j].extend(path);
        }
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use corrfade_linalg::Precision;
    use corrfade_models::{paper_covariance_matrix_22, paper_covariance_matrix_23};
    use corrfade_stats::{relative_frobenius_error, sample_covariance};

    fn config(threads: usize, seed: u64) -> ParallelConfig {
        ParallelConfig {
            threads,
            chunk_size: 512,
            seed,
        }
    }

    #[test]
    fn effective_threads_resolution() {
        assert_eq!(config(3, 0).effective_threads(), 3);
        assert!(ParallelConfig::default().effective_threads() >= 1);
    }

    #[test]
    fn effective_chunk_size_follows_the_balance_heuristic() {
        let cfg = ParallelConfig {
            chunk_size: 8192,
            ..ParallelConfig::default()
        };
        assert_eq!(
            cfg.effective_chunk_size(100_000),
            crate::partition::balanced_chunk_size(100_000, 8192)
        );
    }

    #[test]
    fn zero_chunk_size_is_a_typed_error() {
        let k = paper_covariance_matrix_22();
        let bad = ParallelConfig {
            chunk_size: 0,
            ..ParallelConfig::default()
        };
        assert_eq!(bad.validate(), Err(ParallelError::InvalidChunkSize));
        assert!(matches!(
            generate_snapshots(&k, 100, &bad),
            Err(ParallelError::InvalidChunkSize)
        ));
        assert!(matches!(
            monte_carlo_covariance(&k, 100, &bad),
            Err(ParallelError::InvalidChunkSize)
        ));
        // generate_realtime_paths partitions by block index, not chunk_size,
        // so it is unaffected by the zero chunk size.
        let base = RealtimeConfig {
            covariance: k,
            idft_size: 64,
            normalized_doppler: 0.1,
            sigma_orig_sq: 0.5,
            seed: 1,
            precision: Precision::F64,
        };
        assert!(generate_realtime_paths(&base, 1, &bad).is_ok());
    }

    #[test]
    fn snapshot_count_and_shape() {
        let k = paper_covariance_matrix_22();
        let snaps = generate_snapshots(&k, 1000, &config(2, 1)).unwrap();
        assert_eq!(snaps.len(), 1000);
        assert!(snaps.iter().all(|s| s.len() == 3));
    }

    #[test]
    fn result_is_thread_count_invariant() {
        let k = paper_covariance_matrix_23();
        let a = generate_snapshots(&k, 2000, &config(1, 7)).unwrap();
        let b = generate_snapshots(&k, 2000, &config(4, 7)).unwrap();
        assert_eq!(a, b, "ensemble must not depend on the worker count");
        let c = generate_snapshots(&k, 2000, &config(4, 8)).unwrap();
        assert_ne!(a, c, "different seeds must give different ensembles");
    }

    #[test]
    fn explicit_runtime_matches_the_global_pool() {
        let k = paper_covariance_matrix_22();
        let cfg = config(2, 5);
        let rt = Runtime::new(2);
        assert_eq!(
            generate_snapshots_on(&rt, &k, 900, &cfg).unwrap(),
            generate_snapshots(&k, 900, &cfg).unwrap(),
        );
    }

    #[test]
    fn covariance_estimate_is_bitwise_thread_count_invariant() {
        let k = paper_covariance_matrix_23();
        let a = monte_carlo_covariance(&k, 6000, &config(1, 3)).unwrap();
        let b = monte_carlo_covariance(&k, 6000, &config(4, 3)).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn snapshots_match_the_sequential_generator_bit_for_bit() {
        // Chunk 0 of the parallel ensemble must equal a sequential generator
        // seeded with the same chunk seed — pool scheduling must not change
        // the produced values.
        let k = paper_covariance_matrix_22();
        let cfg = config(2, 13);
        let total = 700;
        let chunk0 = cfg.effective_chunk_size(total);
        let snaps = generate_snapshots(&k, total, &cfg).unwrap();
        let mut gen =
            corrfade::CorrelatedRayleighGenerator::new(k, crate::partition::chunk_seed(13, 0))
                .unwrap();
        let sequential = gen.generate_snapshots(chunk0);
        assert_eq!(&snaps[..chunk0], &sequential[..]);
    }

    #[test]
    fn parallel_covariance_matches_desired_covariance() {
        let k = paper_covariance_matrix_22();
        let khat = monte_carlo_covariance(&k, 60_000, &config(4, 3)).unwrap();
        let err = relative_frobenius_error(&khat, &k);
        assert!(err < 0.03, "relative covariance error {err}");
    }

    #[test]
    fn streaming_covariance_agrees_with_materialized_snapshots() {
        let k = paper_covariance_matrix_23();
        let cfg = config(3, 11);
        let snaps = generate_snapshots(&k, 8192, &cfg).unwrap();
        let k_mat = sample_covariance(&snaps);
        let k_stream = monte_carlo_covariance(&k, 8192, &cfg).unwrap();
        assert!(k_mat.approx_eq(&k_stream, 1e-10));
    }

    #[test]
    fn realtime_paths_shape_and_covariance() {
        let k = paper_covariance_matrix_22();
        let base = RealtimeConfig {
            covariance: k.clone(),
            idft_size: 512,
            normalized_doppler: 0.05,
            sigma_orig_sq: 0.5,
            seed: 5,
            precision: Precision::F64,
        };
        let paths = generate_realtime_paths(&base, 24, &config(4, 5)).unwrap();
        assert_eq!(paths.len(), 3);
        assert!(paths.iter().all(|p| p.len() == 24 * 512));
        let khat = corrfade_stats::sample_covariance_from_paths(&paths);
        let err = relative_frobenius_error(&khat, &k);
        assert!(err < 0.12, "relative covariance error {err}");
    }

    #[test]
    fn realtime_paths_are_thread_count_invariant() {
        let k = paper_covariance_matrix_23();
        let base = RealtimeConfig {
            covariance: k,
            idft_size: 256,
            normalized_doppler: 0.1,
            sigma_orig_sq: 0.5,
            seed: 9,
            precision: Precision::F64,
        };
        let a = generate_realtime_paths(&base, 6, &config(1, 0)).unwrap();
        let b = generate_realtime_paths(&base, 6, &config(3, 0)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_covariance_is_reported() {
        let bad = CMatrix::zeros(2, 3);
        assert!(matches!(
            generate_snapshots(&bad, 100, &config(2, 0)),
            Err(ParallelError::Core(_))
        ));
        assert!(matches!(
            monte_carlo_covariance(&bad, 100, &config(2, 0)),
            Err(ParallelError::Core(_))
        ));
    }

    #[test]
    fn zero_total_yields_empty_ensemble() {
        let k = paper_covariance_matrix_22();
        let snaps = generate_snapshots(&k, 0, &config(2, 0)).unwrap();
        assert!(snaps.is_empty());
    }
}
