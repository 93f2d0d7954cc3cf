//! `network_epoch`: the 23×23 grid (1012 links, 16 correlated groups of at
//! most 64, M = 256). Each op is one `NetworkSim::advance_on` a pooled
//! runtime followed by `link_metrics` for every link — the per-epoch trace a
//! transmission-power-control loop consumes. `PROBES` evenly spaced pauses
//! of that steady loop each restart one shard of `SHARDS`, in turn, twice
//! from the warm decomposition cache: up to the shard's first epoch, and up
//! to epoch `RESUME_CURSOR + 1`, which `NetworkSim` can only reach by
//! replaying the epochs before it. A restarted shard keeps the
//! simulation's master seed, as a shard recovering its place would. The
//! steady metrics exclude the pauses.

use std::time::Instant;

use corrfade::{
    cached_eigen_coloring, clear_coloring_caches, coloring_cache_stats, Coloring, RealtimeConfig,
    RealtimeGenerator, SampleBlock,
};
use corrfade_models::wsn::{link_field_covariance, LinkCorrelationModel};
use corrfade_network::{shard_seed, NetworkSim, NetworkSimConfig, Topology};
use corrfade_parallel::Runtime;
use corrfade_scenarios::DopplerSettings;

use crate::layered::{set_counts, Counts, LayeredStream, PassCounts};
use crate::trace::{hash_bits, hash_envelope, median, ms, quantile, Layer, Tracer};
use crate::{load_threads, Outcome, ProbeSchedule, RunConfig};

type BoxError = Box<dyn std::error::Error>;

/// Cold set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Shards of the probe's restart (one correlated group each).
const SHARDS: u64 = 16;
/// Shard restarts of each kind per run, every shard in turn; 112 leave at
/// least ten samples beyond the p90.
const PROBES: u64 = 112;
/// Steady epochs a run measures however short `--seconds` is.
const MIN_STEADY: usize = 100;
/// Epoch cursor of a resumed shard.
const RESUME_CURSOR: u64 = 16;
/// Epochs in the exact-count pass.
const COUNT_EPOCHS: u64 = 2;

/// The `network_advance` configuration.
fn sim_config() -> NetworkSimConfig {
    NetworkSimConfig {
        correlation: LinkCorrelationModel::distance_only(0.4),
        correlation_threshold: 0.1,
        max_group_size: 64,
        doppler: DopplerSettings {
            idft_size: 256,
            normalized_doppler: 0.05,
            sigma_orig_sq: 0.5,
        },
        ..NetworkSimConfig::default()
    }
}

fn topology() -> Result<Topology, BoxError> {
    let topology = Topology::grid(23, 23, 1.0)?;
    if topology.link_count() != 1012 {
        return Err(format!("grid has {} links, expected 1012", topology.link_count()).into());
    }
    Ok(topology)
}

/// One epoch of every group rebuilt from layer calls, in group order.
struct LayeredNetwork {
    groups: Vec<(LayeredStream, Vec<usize>, SampleBlock)>,
    flops: f64,
    bytes: f64,
}

impl LayeredNetwork {
    /// Mirrors the groups of `sim` (opened with `config` and `master_seed`)
    /// from the same public parts `NetworkSim::open` uses.
    fn new(
        sim: &NetworkSim,
        config: &NetworkSimConfig,
        master_seed: u64,
    ) -> Result<Self, BoxError> {
        let topology = sim.topology();
        let pairs = topology.link_pairs();
        let mut groups = Vec::new();
        let (mut flops, mut bytes) = (0.0, 0.0);
        for (g, links) in sim.groups().groups().iter().enumerate() {
            let group_pairs: Vec<_> = links.iter().map(|&l| pairs[l]).collect();
            let covariance = link_field_covariance(
                topology.positions(),
                &group_pairs,
                &config.correlation,
                &config.path_loss,
            )?;
            let coloring = cached_eigen_coloring(&covariance)?;
            let seed = shard_seed(master_seed, sim.groups().leader(g) as u64);
            let generator = RealtimeGenerator::from_coloring(
                Coloring::clone(&coloring),
                RealtimeConfig {
                    covariance,
                    idft_size: config.doppler.idft_size,
                    normalized_doppler: config.doppler.normalized_doppler,
                    sigma_orig_sq: config.doppler.sigma_orig_sq,
                    seed,
                    precision: config.precision,
                },
            )?;
            let stream = LayeredStream::new(&generator, seed, config.doppler.sigma_orig_sq);
            flops += stream.fused_flops();
            bytes += stream.fused_bytes();
            groups.push((stream, links.clone(), SampleBlock::empty()));
        }
        Ok(Self {
            groups,
            flops,
            bytes,
        })
    }

    /// Generates the next epoch of every group, envelopes included.
    fn epoch(&mut self, t: &mut Tracer) {
        for (stream, _, block) in &mut self.groups {
            stream.next_block(block, t);
            t.span(Layer::Envelope, || {
                std::hint::black_box(block.envelope_slice());
            });
        }
    }

    /// Whether every link envelope of the current epoch matches `sim`.
    fn matches(&mut self, sim: &mut NetworkSim) -> Result<bool, BoxError> {
        for (_, links, block) in &mut self.groups {
            for (offset, &link) in links.iter().enumerate() {
                let want = hash_envelope(block.envelope_path(offset));
                if hash_envelope(sim.link_envelope(link)?) != want {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    fn counts(&self) -> Counts {
        let mut c = Counts::default();
        for (stream, _, _) in &self.groups {
            let s = stream.counts();
            c.words += s.words;
            c.accepted += s.accepted;
            c.useful_bins += s.useful_bins;
        }
        c
    }
}

/// Hash of the current epoch's envelopes of `links` (ascending).
fn links_hash(sim: &mut NetworkSim, links: &[usize]) -> Result<u64, BoxError> {
    let mut h = 0;
    for &l in links {
        h = hash_bits([h, hash_envelope(sim.link_envelope(l)?)]);
    }
    Ok(h)
}

/// The caller's read of an epoch: metrics of every link, range-checked.
fn read_metrics(sim: &mut NetworkSim) -> Result<bool, BoxError> {
    let mut ok = true;
    for l in 0..sim.link_count() {
        let m = sim.link_metrics(l)?;
        ok &= (0.0..=1.0).contains(&m.outage_probability)
            && m.lcr.is_finite()
            && m.lcr >= 0.0
            && m.afd.is_finite()
            && m.mean_snr_db.is_finite();
    }
    Ok(ok)
}

pub fn run(config: &RunConfig) -> Result<Outcome, BoxError> {
    if config.trace {
        run_traced(config)
    } else {
        run_untraced(config)
    }
}

fn run_untraced(config: &RunConfig) -> Result<Outcome, BoxError> {
    let rt = Runtime::new(load_threads());
    let mut out = Outcome {
        workers: rt.workers(),
        ..Outcome::default()
    };
    let cfg = sim_config();
    let seed = shard_seed(config.seed, 0);

    // Set-up: open (16 decompositions, cold cache) + first epoch + metrics.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut opened = None;
    for _ in 0..SETUP_REPS {
        clear_coloring_caches();
        let t0 = Instant::now();
        let mut sim = NetworkSim::open(topology()?, &cfg, seed)?;
        sim.advance_on(&rt)?;
        let ok = read_metrics(&mut sim)?;
        setups.push(t0.elapsed().as_secs_f64());
        out.attempted += 1;
        if !ok {
            out.fail("set-up epoch has out-of-range link metrics");
        }
        opened = Some(sim);
    }
    let mut sim = opened.expect("at least one set-up");
    let topo = sim.topology().clone();
    let groups: Vec<Vec<usize>> = sim.groups().groups().to_vec();
    if groups.len() as u64 != SHARDS {
        return Err(format!("{} groups, expected {SHARDS}", groups.len()).into());
    }

    // Epoch 1 against the layered rebuild; per-group hashes of epochs 1 and
    // RESUME_CURSOR + 1 are the references of the shard probes.
    let mut layered = LayeredNetwork::new(&sim, &cfg, seed)?;
    layered.epoch(&mut Tracer::default());
    out.attempted += 1;
    if !layered.matches(&mut sim)? {
        out.fail("epoch 1 differs from the layered rebuild");
    }
    let mut first_ref = Vec::new();
    for links in &groups {
        first_ref.push(links_hash(&mut sim, &sorted(links))?);
    }
    while sim.epoch() < RESUME_CURSOR + 1 {
        sim.advance_on(&rt)?;
    }
    let mut resume_ref = Vec::new();
    for links in &groups {
        resume_ref.push(links_hash(&mut sim, &sorted(links))?);
    }

    // The steady loop, paused for the probes.
    let mut schedule = ProbeSchedule::new(PROBES, config.seconds);
    let mut first_ms = Vec::with_capacity(PROBES as usize);
    let mut resume_ms = Vec::with_capacity(PROBES as usize);
    let mut probe_wall = 0.0;
    let samples_per_epoch = sim.samples_per_advance() as f64;
    let mut blocks_ms = Vec::new();
    let mut epochs_ms = Vec::new();
    let start = Instant::now();
    while start.elapsed() < config.seconds || blocks_ms.len() < MIN_STEADY || !schedule.finished() {
        if let Some(k) = schedule.due(start.elapsed()) {
            let t0 = Instant::now();
            let shard = k % SHARDS;
            for resume in [false, true] {
                out.attempted += 1;
                let t0 = Instant::now();
                let mut s = NetworkSim::open_shard(topo.clone(), &cfg, seed, shard, SHARDS)?;
                if resume {
                    for _ in 0..RESUME_CURSOR {
                        s.advance_on(&rt)?;
                    }
                }
                s.advance_on(&rt)?;
                let elapsed = ms(t0.elapsed());
                let links = s.local_links().to_vec();
                let want = if resume { &resume_ref } else { &first_ref }[shard as usize];
                if links_hash(&mut s, &links)? != want {
                    out.fail(format!(
                        "shard {shard} probe (resume {resume}) differs from the full network"
                    ));
                }
                if resume {
                    resume_ms.push(elapsed);
                } else {
                    first_ms.push(elapsed);
                }
            }
            probe_wall += t0.elapsed().as_secs_f64();
            continue;
        }
        out.attempted += 1;
        let t0 = Instant::now();
        sim.advance_on(&rt)?;
        let t1 = Instant::now();
        let ok = read_metrics(&mut sim)?;
        let t2 = Instant::now();
        blocks_ms.push(ms(t1 - t0));
        epochs_ms.push(ms(t2 - t0));
        if !ok {
            out.fail(format!(
                "epoch {} has out-of-range link metrics",
                sim.epoch()
            ));
        }
    }
    let wall = start.elapsed().as_secs_f64() - probe_wall;

    out.set("setup_s", median(&setups));
    out.set(
        "samples_per_s",
        blocks_ms.len() as f64 * samples_per_epoch / wall,
    );
    out.set("block_p50_ms", quantile(&blocks_ms, 0.5));
    out.set("block_p90_ms", quantile(&blocks_ms, 0.9));
    out.set("epoch_p50_ms", quantile(&epochs_ms, 0.5));
    out.set("epoch_p90_ms", quantile(&epochs_ms, 0.9));
    out.set("first_block_p50_ms", quantile(&first_ms, 0.5));
    out.set("first_block_p90_ms", quantile(&first_ms, 0.9));
    out.set("resume_first_block_p50_ms", quantile(&resume_ms, 0.5));
    out.set("resume_first_block_p90_ms", quantile(&resume_ms, 0.9));
    eprintln!(
        "network_epoch: {} first / {} resume shard probes, then {} epochs in {wall:.2} s",
        first_ms.len(),
        resume_ms.len(),
        blocks_ms.len()
    );
    Ok(out)
}

fn sorted(links: &[usize]) -> Vec<usize> {
    let mut v = links.to_vec();
    v.sort_unstable();
    v
}

/// Exact counts of a cold open plus `COUNT_EPOCHS` layered epochs.
fn count_pass(seed: u64) -> Result<(PassCounts, f64, f64), BoxError> {
    let cfg = sim_config();
    clear_coloring_caches();
    let before = coloring_cache_stats();
    let sim = NetworkSim::open(topology()?, &cfg, seed)?;
    let after = coloring_cache_stats();
    let mut layered = LayeredNetwork::new(&sim, &cfg, seed)?;
    let mut t = Tracer::default();
    for _ in 0..COUNT_EPOCHS {
        layered.epoch(&mut t);
    }
    Ok((
        (
            layered.counts(),
            after.hits - before.hits,
            after.misses - before.misses,
        ),
        layered.flops,
        layered.bytes,
    ))
}

fn run_traced(config: &RunConfig) -> Result<Outcome, BoxError> {
    let rt = Runtime::new(load_threads());
    let mut out = Outcome {
        workers: rt.workers(),
        ..Outcome::default()
    };
    let cfg = sim_config();
    let seed = shard_seed(config.seed, 0);
    let mut pooled = NetworkSim::open(topology()?, &cfg, seed)?;
    let mut sequential = NetworkSim::open(topology()?, &cfg, seed)?;
    let mut layered = LayeredNetwork::new(&pooled, &cfg, seed)?;
    let all_links: Vec<usize> = (0..pooled.link_count()).collect();

    let mut t = Tracer::default();
    let (mut op_ns, mut layered_ns) = (0u128, 0u128);
    let mut ops = 0u64;
    let start = Instant::now();
    while start.elapsed() < config.seconds {
        ops += 1;
        out.attempted += 1;
        let t0 = Instant::now();
        t.span(Layer::RuntimePooled, || pooled.advance_on(&rt))?;
        let ok = t.span(Layer::NetsimMetrics, || read_metrics(&mut pooled))?;
        t.span(Layer::RuntimeSequential, || sequential.advance_sequential())?;
        let t1 = Instant::now();
        layered.epoch(&mut t);
        layered_ns += t1.elapsed().as_nanos();
        op_ns += t0.elapsed().as_nanos();

        // Outside the op: all three paths must produce the same epoch.
        let same = layered.matches(&mut pooled)?
            && links_hash(&mut pooled, &all_links)? == links_hash(&mut sequential, &all_links)?;
        if !ok {
            out.fail(format!("epoch {ops} has out-of-range link metrics"));
        } else if !same {
            out.fail(format!(
                "epoch {ops}: pooled, sequential and layered epochs differ"
            ));
        }
    }

    let opsf = ops as f64;
    let per_op = |layer| t.ns(layer) as f64 / opsf / 1e6;
    let in_op = [
        Layer::RuntimePooled,
        Layer::NetsimMetrics,
        Layer::RuntimeSequential,
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
    // The rebuilt epoch (without its envelope pass, which the library path
    // defers to the metrics) against the library's sequential epoch.
    out.set(
        "trace.overhead_frac",
        (layered_ns as f64 - t.ns(Layer::Envelope) as f64) / t.ns(Layer::RuntimeSequential) as f64
            - 1.0,
    );
    out.set("keystream.self_ms", per_op(Layer::Keystream));
    out.set(
        "keystream.ns_per_u64",
        t.ns(Layer::Keystream) as f64 / drawn(&layered) as f64,
    );
    out.set("polar.self_ms", per_op(Layer::Polar));
    out.set("spectrum.self_ms", per_op(Layer::Spectrum));
    out.set("fused.self_ms", per_op(Layer::Fused));
    out.set(
        "fused.gflop_s",
        layered.flops * opsf / t.ns(Layer::Fused) as f64,
    );
    out.set("envelope.self_ms", per_op(Layer::Envelope));
    out.set("runtime.pooled_ms", per_op(Layer::RuntimePooled));
    out.set("runtime.sequential_ms", per_op(Layer::RuntimeSequential));
    out.set(
        "runtime.speedup",
        t.ns(Layer::RuntimeSequential) as f64 / t.ns(Layer::RuntimePooled) as f64,
    );
    out.set("netsim.metrics_ms", per_op(Layer::NetsimMetrics));
    let (a, flops, bytes) = count_pass(seed)?;
    let (b, _, _) = count_pass(seed)?;
    out.set("fused.flop_per_op", flops);
    out.set("fused.bytes_per_op", bytes);
    set_counts(&mut out, a, b, COUNT_EPOCHS as f64);
    eprintln!(
        "network_epoch (traced): {ops} ops on {} workers",
        rt.workers()
    );
    Ok(out)
}

fn drawn(layered: &LayeredNetwork) -> u64 {
    layered.groups.iter().map(|(s, _, _)| s.tape.drawn).sum()
}
