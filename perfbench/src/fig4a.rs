//! `fig4a_stream`: one realtime generator for the paper's fig4a scenario
//! (N = 3, M = 4096) fills one warm block back to back and the caller reads
//! its envelopes — a channel emulator pulling the next block once it has
//! played the last. `PROBES` evenly spaced pauses of that steady loop each
//! open two channels from the warm decomposition cache: a fresh stream to
//! its first block, and one resumed at block `RESUME_CURSOR`. The steady
//! metrics exclude the pauses.

use std::time::Instant;

use corrfade::linalg::Complex32;
use corrfade::{
    clear_coloring_caches, coloring_cache_stats, ChannelStream, Precision, SampleBlock,
    SampleBlock32,
};
use corrfade_network::shard_seed;
use corrfade_scenarios::{lookup, Scenario};

use crate::layered::{set_counts, LayeredStream, PassCounts};
use crate::trace::{
    hash_envelope, hash_samples, median, ms, quantile, same_bits, same_bits32, Layer, Tracer,
};
use crate::{Outcome, ProbeSchedule, RunConfig};

const SCENARIO: &str = "fig4a-spectral";
/// Cold set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 41;
/// Channel-open probes of each kind (fresh, resumed) per run, each with a
/// seed of its own; 112 leave at least ten samples beyond the p90.
const PROBES: u64 = 112;
/// Block cursor of a resumed channel.
pub const RESUME_CURSOR: u64 = 16;
/// Steady blocks a run measures however short `--seconds` is.
const MIN_STEADY: usize = 100;
/// Leading blocks of the measured stream checked against the layered
/// rebuild.
const PREFIX_BLOCKS: usize = 4;
/// Blocks in the exact-count pass.
const COUNT_BLOCKS: u64 = 8;

type BoxError = Box<dyn std::error::Error>;

fn scenario() -> Result<&'static Scenario, BoxError> {
    Ok(lookup(SCENARIO)?)
}

/// The stream seed of a run.
fn stream_seed(seed: u64) -> u64 {
    shard_seed(seed, 0)
}

/// The seed of probe `k`.
fn probe_seed(seed: u64, k: u64) -> u64 {
    shard_seed(seed, 1 + k)
}

/// Sum of squared envelopes per path, the caller's read of a block.
fn envelope_power(env: &[f64], m: usize, power: &mut [f64]) -> bool {
    let mut finite = true;
    for (p, path) in power.iter_mut().zip(env.chunks_exact(m)) {
        let s: f64 = path.iter().map(|r| r * r).sum();
        finite &= s.is_finite();
        *p += s;
    }
    finite
}

/// Probe `k`: a fresh channel timed to its first block (into `first_ms`)
/// and a resumed one timed to block `RESUME_CURSOR` (into `resume_ms`).
/// Untimed, the fresh block is checked against the layered rebuild and the
/// resumed block against the fresh stream continued without interruption.
fn probe(
    scenario: &Scenario,
    seed: u64,
    k: u64,
    first_ms: &mut Vec<f64>,
    resume_ms: &mut Vec<f64>,
    out: &mut Outcome,
) -> Result<(), BoxError> {
    let mut block = SampleBlock::empty();
    let mut want = SampleBlock::empty();
    let s = probe_seed(seed, k);
    let t0 = Instant::now();
    let mut fresh = lookup(SCENARIO)?.build_realtime_cached(s)?;
    fresh.next_block_into(&mut block)?;
    first_ms.push(ms(t0.elapsed()));
    let mut layered = LayeredStream::new(&fresh, s, scenario.doppler.sigma_orig_sq);
    layered.next_block(&mut want, &mut Tracer::default());
    out.attempted += 1;
    if !same_bits(block.as_slice(), want.as_slice()) {
        out.fail(format!("fresh probe {k} differs from the layered rebuild"));
    }

    let t0 = Instant::now();
    let mut resumed = lookup(SCENARIO)?.build_realtime_cached(s)?;
    resumed.skip_blocks(RESUME_CURSOR);
    resumed.next_block_into(&mut block)?;
    resume_ms.push(ms(t0.elapsed()));
    for _ in 0..RESUME_CURSOR {
        fresh.next_block_into(&mut want)?;
    }
    out.attempted += 1;
    if !same_bits(block.as_slice(), want.as_slice()) {
        out.fail(format!(
            "resumed probe {k} differs from block {RESUME_CURSOR} of its stream"
        ));
    }
    Ok(())
}

pub fn run(config: &RunConfig) -> Result<Outcome, BoxError> {
    if config.trace {
        run_traced(config)
    } else {
        run_untraced(config)
    }
}

fn run_untraced(config: &RunConfig) -> Result<Outcome, BoxError> {
    let mut out = Outcome {
        workers: 1,
        ..Outcome::default()
    };
    let seed = stream_seed(config.seed);

    // Set-up: scenario lookup + cached build + first block, cold cache.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut stream = None;
    for _ in 0..SETUP_REPS {
        clear_coloring_caches();
        let t0 = Instant::now();
        let mut g = lookup(SCENARIO)?.build_realtime_cached(seed)?;
        let mut block = SampleBlock::empty();
        g.next_block_into(&mut block)?;
        setups.push(t0.elapsed().as_secs_f64());
        stream = Some((g, block));
    }
    let (mut gen, mut block) = stream.expect("at least one set-up");
    let scenario = scenario()?;
    let (n, m) = (gen.dimension(), gen.block_len());

    // Reference: the layered rebuild of the stream's first blocks.
    let mut prefix = Vec::with_capacity(PREFIX_BLOCKS);
    {
        let mut layered = LayeredStream::new(&gen, seed, scenario.doppler.sigma_orig_sq);
        let mut t = Tracer::default();
        let mut b = SampleBlock::empty();
        for _ in 0..PREFIX_BLOCKS {
            layered.next_block(&mut b, &mut t);
            prefix.push(hash_samples(b.as_slice()));
        }
    }
    out.attempted += 1;
    if hash_samples(block.as_slice()) != prefix[0] {
        out.fail("block 0 differs from the layered rebuild");
    }

    // The steady loop, paused for the probes.
    let mut schedule = ProbeSchedule::new(PROBES, config.seconds);
    let mut first_ms = Vec::with_capacity(PROBES as usize);
    let mut resume_ms = Vec::with_capacity(PROBES as usize);
    let mut probe_wall = 0.0;
    let mut power = vec![0.0; n];
    let mut blocks_ms = Vec::new();
    let mut epochs_ms = Vec::new();
    let mut stream_blocks = 1usize;
    let start = Instant::now();
    while start.elapsed() < config.seconds || blocks_ms.len() < MIN_STEADY || !schedule.finished() {
        if let Some(k) = schedule.due(start.elapsed()) {
            let t0 = Instant::now();
            probe(
                scenario,
                config.seed,
                k,
                &mut first_ms,
                &mut resume_ms,
                &mut out,
            )?;
            probe_wall += t0.elapsed().as_secs_f64();
            continue;
        }
        out.attempted += 1;
        let t0 = Instant::now();
        gen.next_block_into(&mut block)?;
        let t1 = Instant::now();
        let finite = envelope_power(block.envelope_slice(), m, &mut power);
        let t2 = Instant::now();
        blocks_ms.push(ms(t1 - t0));
        epochs_ms.push(ms(t2 - t0));
        if !finite {
            out.fail(format!("block {stream_blocks} has a non-finite sample"));
        } else if stream_blocks < PREFIX_BLOCKS
            && hash_samples(block.as_slice()) != prefix[stream_blocks]
        {
            out.fail(format!(
                "block {stream_blocks} differs from the layered rebuild"
            ));
        }
        stream_blocks += 1;
    }
    let wall = start.elapsed().as_secs_f64() - probe_wall;
    let samples = (blocks_ms.len() * n * m) as f64;

    // The envelopes' mean power must match the covariance diagonal.
    let realized = gen.realized_covariance();
    let steady = (stream_blocks - 1) as f64 * m as f64;
    for (j, p) in power.iter().enumerate() {
        let want = realized[(j, j)].re;
        let got = p / steady;
        let close = ((got / want) - 1.0).abs() < 0.1;
        if !close {
            out.fail_check(format!(
                "envelope {j}: mean power {got} vs covariance {want}"
            ));
        }
    }

    out.set("setup_s", median(&setups));
    out.set("samples_per_s", samples / wall);
    out.set("block_p50_ms", quantile(&blocks_ms, 0.5));
    out.set("block_p90_ms", quantile(&blocks_ms, 0.9));
    out.set("epoch_p50_ms", quantile(&epochs_ms, 0.5));
    out.set("epoch_p90_ms", quantile(&epochs_ms, 0.9));
    out.set("first_block_p50_ms", quantile(&first_ms, 0.5));
    out.set("first_block_p90_ms", quantile(&first_ms, 0.9));
    out.set("resume_first_block_p50_ms", quantile(&resume_ms, 0.5));
    out.set("resume_first_block_p90_ms", quantile(&resume_ms, 0.9));
    eprintln!(
        "fig4a_stream: {} first / {} resume probes, then {} stream blocks in {wall:.2} s",
        first_ms.len(),
        resume_ms.len(),
        blocks_ms.len()
    );
    Ok(out)
}

/// Exact counts of one cold open plus `COUNT_BLOCKS` layered blocks:
/// the layered counters and the decomposition-cache hits and misses of a
/// cold open, a fresh probe and a resumed probe.
fn count_pass(seed: u64) -> Result<PassCounts, BoxError> {
    let scenario = scenario()?;
    clear_coloring_caches();
    let before = coloring_cache_stats();
    let gen = scenario.build_realtime_cached(stream_seed(seed))?;
    let _fresh = scenario.build_realtime_cached(probe_seed(seed, 0))?;
    let _resumed = scenario.build_realtime_cached(probe_seed(seed, 0))?;
    let after = coloring_cache_stats();
    let mut layered = LayeredStream::new(&gen, stream_seed(seed), scenario.doppler.sigma_orig_sq);
    let mut t = Tracer::default();
    let mut b = SampleBlock::empty();
    for _ in 0..COUNT_BLOCKS {
        layered.next_block(&mut b, &mut t);
    }
    Ok((
        layered.counts(),
        after.hits - before.hits,
        after.misses - before.misses,
    ))
}

fn run_traced(config: &RunConfig) -> Result<Outcome, BoxError> {
    let mut out = Outcome {
        workers: 1,
        ..Outcome::default()
    };
    let scenario = scenario()?;
    let seed = stream_seed(config.seed);
    let mut reference = scenario.build_realtime_cached(seed)?;
    let mut reference32 = scenario
        .with_precision(Precision::F32)
        .build_realtime_cached(seed)?;
    let mut layered = LayeredStream::new(&reference, seed, scenario.doppler.sigma_orig_sq);
    let (n, m) = (layered.dimension(), layered.block_len());

    let mut t = Tracer::default();
    let mut block = SampleBlock::empty();
    let mut want = SampleBlock::empty();
    let mut out32: Vec<Complex32> = Vec::new();
    let mut block32 = SampleBlock32::empty();
    let mut power = vec![0.0; n];
    let mut want_power = vec![0.0; n];
    let (mut op_ns, mut library_ns) = (0u128, 0u128);
    let mut ops = 0u64;
    let start = Instant::now();
    while start.elapsed() < config.seconds {
        ops += 1;
        out.attempted += 1;
        let f32_before = t.ns(Layer::FusedF32);
        let t0 = Instant::now();
        let copy = layered.next_block_with_f32(&mut block, &mut out32, &mut t);
        let env = t.span(Layer::Envelope, || block.envelope_slice());
        let finite = envelope_power(env, m, &mut power);
        let elapsed = t0.elapsed() - copy;
        op_ns += elapsed.as_nanos() - u128::from(t.ns(Layer::FusedF32) - f32_before);

        // Outside the op: the library stream and the f32 tier must agree.
        let t0 = Instant::now();
        reference.next_block_into(&mut want)?;
        envelope_power(want.envelope_slice(), m, &mut want_power);
        library_ns += t0.elapsed().as_nanos();
        t.span(Layer::F32Block, || {
            reference32.next_block32_into(&mut block32)
        })?;
        let same = same_bits(block.as_slice(), want.as_slice())
            && hash_envelope(block.envelope_slice()) == hash_envelope(want.envelope_slice());
        let same32 = same_bits32(block32.as_slice(), &out32);
        if !finite {
            out.fail(format!("layered block {ops} has a non-finite sample"));
        } else if !same {
            out.fail(format!("layered block {ops} differs from next_block_into"));
        } else if !same32 {
            out.fail(format!(
                "f32 kernel on block {ops} differs from next_block32_into"
            ));
        }
    }

    let opsf = ops as f64;
    let per_op = |layer| t.ns(layer) as f64 / opsf / 1e6;
    let in_op = [
        Layer::Keystream,
        Layer::Polar,
        Layer::Spectrum,
        Layer::Fused,
        Layer::Envelope,
    ];
    let op_ms = op_ns as f64 / opsf / 1e6;
    out.set("trace.op_ms", op_ms);
    out.set(
        "other.self_ms",
        op_ms - t.sum_ns(&in_op) as f64 / opsf / 1e6,
    );
    out.set(
        "trace.overhead_frac",
        op_ns as f64 / library_ns as f64 - 1.0,
    );
    out.set("keystream.self_ms", per_op(Layer::Keystream));
    out.set(
        "keystream.ns_per_u64",
        t.ns(Layer::Keystream) as f64 / layered.tape.drawn as f64,
    );
    out.set("polar.self_ms", per_op(Layer::Polar));
    out.set("spectrum.self_ms", per_op(Layer::Spectrum));
    out.set("fused.self_ms", per_op(Layer::Fused));
    out.set("fused.flop_per_op", layered.fused_flops());
    out.set("fused.bytes_per_op", layered.fused_bytes());
    out.set(
        "fused.gflop_s",
        layered.fused_flops() * opsf / t.ns(Layer::Fused) as f64,
    );
    out.set("envelope.self_ms", per_op(Layer::Envelope));
    out.set("fused_f32.self_ms", per_op(Layer::FusedF32));
    out.set("f32.block_ms", per_op(Layer::F32Block));
    set_counts(
        &mut out,
        count_pass(config.seed)?,
        count_pass(config.seed)?,
        COUNT_BLOCKS as f64,
    );
    eprintln!("fig4a_stream (traced): {ops} ops");
    Ok(out)
}
