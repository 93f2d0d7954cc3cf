//! Spans around calls into the workspace's layers, plus the small
//! statistics helpers every workload shares.
//!
//! A span is two `Instant::now()` reads around one call made from the
//! benchmark's own code; spans never nest, so a span's time is its layer's
//! self time. Op time that no span covers is reported as `other.self_ms`.

use std::time::{Duration, Instant};

/// The layers a traced run attributes time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// ChaCha20 keystream words drawn through `RandomStream::next_u64`.
    Keystream,
    /// Marsaglia-polar Gaussians (`NormalSampler::sample_with`).
    Polar,
    /// Doppler weighting of the Gaussians into spectra.
    Spectrum,
    /// Fused IDFT + coloring kernel (`color_idft_block`).
    Fused,
    /// Envelope view (`SampleBlock::envelope_slice`).
    Envelope,
    /// f32 fused kernel (`color_idft_block32`), outside the op.
    FusedF32,
    /// f32 tier block (`next_block32_into`), outside the op.
    F32Block,
    /// `NetworkSim::advance_on` a pooled runtime.
    RuntimePooled,
    /// `NetworkSim::advance_sequential`.
    RuntimeSequential,
    /// `NetworkSim::link_metrics` for every link.
    NetsimMetrics,
    /// `encode_block_frame` of one block.
    WireEncode,
    /// `decode_block_payload` + `SampleBlock::decode_le_from`.
    WireDecode,
    /// Socket reads of one frame.
    Socket,
    /// `RealtimeGenerator::skip_blocks` to the resume cursor.
    ResumeSkip,
}

/// Number of [`Layer`] variants.
const LAYERS: usize = Layer::ResumeSkip as usize + 1;

/// Accumulated self time and call count per layer.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    ns: [u64; LAYERS],
    calls: [u64; LAYERS],
}

impl Tracer {
    /// Runs `f` inside a span of `layer`.
    #[inline]
    pub fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.ns[layer as usize] += t0.elapsed().as_nanos() as u64;
        self.calls[layer as usize] += 1;
        r
    }

    /// Total span time of `layer` in nanoseconds.
    pub fn ns(&self, layer: Layer) -> u64 {
        self.ns[layer as usize]
    }

    /// Number of spans recorded for `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Total span time over `layers`, in nanoseconds.
    pub fn sum_ns(&self, layers: &[Layer]) -> u64 {
        layers.iter().map(|&l| self.ns(l)).sum()
    }

    /// Adds another tracer's spans to this one.
    pub fn merge(&mut self, other: &Tracer) {
        for i in 0..LAYERS {
            self.ns[i] += other.ns[i];
            self.calls[i] += other.calls[i];
        }
    }
}

/// Mean cost of one empty span in nanoseconds: the tracing overhead where
/// the traced op has no untraced twin to compare against (`serve_unix`).
pub fn span_cost_ns() -> f64 {
    const N: u32 = 20_000;
    let mut t = Tracer::default();
    let t0 = Instant::now();
    for i in 0..N {
        t.span(Layer::Keystream, || std::hint::black_box(i));
    }
    t0.elapsed().as_nanos() as f64 / f64::from(N)
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q`-quantile (0..=1) of `values`, linear between closest ranks.
/// Returns NaN for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A 64-bit multiply-xorshift hash of `words`, for comparing blocks against
/// stored references bit for bit. Four independent lanes keep it at about
/// one word per cycle, so checking a block costs little next to making it.
pub fn hash_bits(words: impl IntoIterator<Item = u64>) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut lanes = [
        0x243F_6A88_85A3_08D3u64,
        0x1319_8A2E_0370_7344,
        0xA409_3822_299F_31D0,
        0x082E_FA98_EC4E_6C89,
    ];
    let mut count = 0u64;
    for (i, w) in words.into_iter().enumerate() {
        let lane = &mut lanes[i & 3];
        *lane = (*lane ^ w).wrapping_mul(K);
        *lane ^= *lane >> 32;
        count += 1;
    }
    lanes.iter().fold(count.wrapping_mul(K), |h, &l| {
        (h ^ l).wrapping_mul(K).rotate_left(29)
    })
}

/// [`hash_bits`] over the complex samples of a planar block.
pub fn hash_samples(samples: &[corrfade::linalg::Complex64]) -> u64 {
    hash_bits(
        samples
            .iter()
            .flat_map(|z| [z.re.to_bits(), z.im.to_bits()]),
    )
}

/// [`hash_bits`] over an envelope slice.
pub fn hash_envelope(env: &[f64]) -> u64 {
    hash_bits(env.iter().map(|x| x.to_bits()))
}

/// Whether two complex slices hold the same bit patterns.
pub fn same_bits(a: &[corrfade::linalg::Complex64], b: &[corrfade::linalg::Complex64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

/// [`same_bits`] for f32 samples.
pub fn same_bits32(a: &[corrfade::linalg::Complex32], b: &[corrfade::linalg::Complex32]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}
