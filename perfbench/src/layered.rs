//! The realtime generator's block rebuilt from layer calls, one span per
//! layer: keystream → polar Gaussians → Doppler weighting → fused
//! IDFT + coloring → envelope.
//!
//! [`Tape`] buffers the ChaCha keystream ahead of the polar sampler. The
//! sampler reads the same `u64` sequence in the same order as it would
//! straight from the stream, so the rebuilt block is bit-identical to
//! `RealtimeGenerator::next_block_into` for the same seed; the workloads
//! check this on every traced op.

use corrfade::linalg::{c64, Complex32, Complex64};
use corrfade::randn::{NormalSampler, RandomStream};
use corrfade::{RealtimeGenerator, SampleBlock};
use rand::RngCore;

use crate::trace::{Layer, Tracer};
use crate::Outcome;

/// A FIFO of keystream words in front of a [`RandomStream`].
pub struct Tape {
    rng: RandomStream,
    buf: Vec<u64>,
    pos: usize,
    /// Words handed to the sampler since creation.
    pub consumed: u64,
    /// Words drawn from the stream since creation.
    pub drawn: u64,
}

impl Tape {
    /// A tape over stream 0 of `seed` — the stream a realtime generator
    /// built with `seed` draws from.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: RandomStream::new(seed),
            buf: Vec::new(),
            pos: 0,
            consumed: 0,
            drawn: 0,
        }
    }

    /// Draws keystream words until at least `level` are buffered.
    pub fn top_up(&mut self, level: usize) {
        self.buf.drain(..self.pos);
        self.pos = 0;
        while self.buf.len() < level {
            self.buf.push(self.rng.next_u64());
            self.drawn += 1;
        }
    }
}

impl RngCore for Tape {
    fn next_u32(&mut self) -> u32 {
        unreachable!("the Gaussian sampler draws whole u64 words")
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.consumed += 1;
        if let Some(&w) = self.buf.get(self.pos) {
            self.pos += 1;
            w
        } else {
            self.drawn += 1;
            self.rng.next_u64()
        }
    }

    fn fill_bytes(&mut self, _dest: &mut [u8]) {
        unreachable!("the Gaussian sampler draws whole u64 words")
    }
}

/// Keystream words to buffer ahead of `spectra` Doppler spectra of `m` bins:
/// the polar method uses 8/π words per bin on average, plus eight standard
/// deviations so the sampler practically never reads past the buffer.
pub fn tape_level(spectra: usize, m: usize) -> usize {
    let pairs = (spectra * m) as f64;
    let p = std::f64::consts::FRAC_PI_4;
    let mean = 2.0 * pairs / p;
    let sd = 2.0 * (pairs * (1.0 - p)).sqrt() / p;
    (mean + 8.0 * sd) as usize + 64
}

/// Exact counts of the layered path since creation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Keystream words consumed by the sampler.
    pub words: u64,
    /// Polar pairs accepted, one per spectrum bin drawn.
    pub accepted: u64,
    /// Bins drawn with a nonzero Doppler weight.
    pub useful_bins: u64,
}

/// Exact counts of a pass: the layered counters, cache hits, cache misses.
pub type PassCounts = (Counts, u64, u64);

/// Sets the exact-count metrics from two count passes and fails the run if
/// they differ.
pub fn set_counts(out: &mut Outcome, a: PassCounts, b: PassCounts, ops: f64) {
    out.attempted += 1;
    if a != b {
        out.fail(format!(
            "exact counts differ between passes: {:?} vs {:?}",
            a, b
        ));
    }
    let (c, hits, misses) = a;
    out.set("keystream.u64_per_op", c.words as f64 / ops);
    out.set(
        "polar.accept_ratio",
        c.accepted as f64 / (c.words as f64 / 2.0),
    );
    out.set(
        "spectrum.useful_ratio",
        c.useful_bins as f64 / c.accepted as f64,
    );
    out.set("factor_cache.hits", hits as f64);
    out.set("factor_cache.misses", misses as f64);
    out.set(
        "factor_cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
}

/// One realtime stream generated layer by layer.
pub struct LayeredStream {
    pub tape: Tape,
    coloring: Vec<Complex64>,
    coloring32: Vec<Complex32>,
    coefficients: Vec<f64>,
    std: f64,
    scale: f64,
    n: usize,
    m: usize,
    level: usize,
    normals: Vec<f64>,
    raw: Vec<Complex64>,
    w: Vec<Complex64>,
    planes: Vec<f64>,
    raw32: Vec<Complex32>,
    w32: Vec<Complex32>,
    planes32: Vec<f32>,
    accepted: u64,
    useful_per_spectrum: u64,
}

impl LayeredStream {
    /// Mirrors `generator` (built with `seed`, input variance
    /// `sigma_orig_sq`) from its public parts.
    pub fn new(generator: &RealtimeGenerator, seed: u64, sigma_orig_sq: f64) -> Self {
        let n = generator.dimension();
        let m = generator.block_len();
        let coloring = generator.coloring().matrix.as_slice().to_vec();
        let coefficients = generator.filter().coefficients().to_vec();
        let useful_per_spectrum = coefficients.iter().filter(|&&f| f != 0.0).count() as u64;
        Self {
            tape: Tape::new(seed),
            coloring32: coloring.iter().map(|&z| Complex32::narrow(z)).collect(),
            coloring,
            coefficients,
            std: sigma_orig_sq.sqrt(),
            scale: 1.0 / generator.doppler_output_variance().sqrt(),
            n,
            m,
            level: tape_level(n, m),
            normals: vec![0.0; 2 * n * m],
            raw: vec![Complex64::ZERO; n * m],
            w: Vec::new(),
            planes: Vec::new(),
            raw32: Vec::new(),
            w32: Vec::new(),
            planes32: Vec::new(),
            accepted: 0,
            useful_per_spectrum,
        }
    }

    /// Envelopes `N`.
    pub fn dimension(&self) -> usize {
        self.n
    }

    /// Samples per block `M`.
    pub fn block_len(&self) -> usize {
        self.m
    }

    /// Draws the `N` Doppler-weighted spectra of the next block into the
    /// planar scratch (keystream, polar and spectrum spans).
    fn draw_spectra(&mut self, t: &mut Tracer) {
        let (n, m, level) = (self.n, self.m, self.level);
        let tape = &mut self.tape;
        t.span(Layer::Keystream, || tape.top_up(level));
        let (normals, std) = (&mut self.normals, self.std);
        t.span(Layer::Polar, || {
            // A fresh sampler per spectrum, as `fill_spectrum_into` does.
            for spectrum in normals.chunks_exact_mut(2 * m) {
                let mut sampler = NormalSampler::default();
                for x in spectrum {
                    *x = sampler.sample_with(tape, 0.0, std);
                }
            }
        });
        self.accepted += (n * m) as u64;
        let (raw, coefficients) = (&mut self.raw, &self.coefficients);
        t.span(Layer::Spectrum, || {
            for (row, ab) in raw.chunks_exact_mut(m).zip(normals.chunks_exact(2 * m)) {
                for ((slot, &f), pair) in row.iter_mut().zip(coefficients).zip(ab.chunks_exact(2)) {
                    *slot = c64(f * pair[0], -f * pair[1]);
                }
            }
        });
    }

    /// Inverts and colors the drawn spectra into `block` (fused span).
    fn color(&mut self, block: &mut SampleBlock, t: &mut Tracer) {
        block.resize(self.n, self.m);
        let (n, m, scale) = (self.n, self.m, self.scale);
        let (a, raw, w, planes) = (&self.coloring, &mut self.raw, &mut self.w, &mut self.planes);
        let out = block.as_mut_slice();
        t.span(Layer::Fused, || {
            corrfade::dsp::color_idft_block(n, m, a, scale, raw, out, w, planes);
        });
    }

    /// Generates the next block into `block` (without its envelope view).
    pub fn next_block(&mut self, block: &mut SampleBlock, t: &mut Tracer) {
        self.draw_spectra(t);
        self.color(block, t);
    }

    /// Like [`Self::next_block`], but also runs the f32 fused kernel on the
    /// same spectra narrowed to f32 (span `FusedF32`). Returns the time of
    /// the narrowing copy, which belongs to neither path.
    pub fn next_block_with_f32(
        &mut self,
        block: &mut SampleBlock,
        out32: &mut Vec<Complex32>,
        t: &mut Tracer,
    ) -> std::time::Duration {
        self.draw_spectra(t);
        let copy = std::time::Instant::now();
        self.raw32.clear();
        self.raw32
            .extend(self.raw.iter().map(|&z| Complex32::narrow(z)));
        let copy = copy.elapsed();
        self.color(block, t);
        let (n, m) = (self.n, self.m);
        out32.resize(n * m, Complex32::ZERO);
        let scale32 = self.scale as f32;
        let (a32, raw32, w32, planes32) = (
            &self.coloring32,
            &mut self.raw32,
            &mut self.w32,
            &mut self.planes32,
        );
        t.span(Layer::FusedF32, || {
            corrfade::dsp::color_idft_block32(n, m, a32, scale32, raw32, out32, w32, planes32);
        });
        copy
    }

    /// Advances past `blocks` blocks by replaying only their Gaussian draws
    /// (keystream and polar spans), as `skip_blocks` does.
    pub fn skip(&mut self, blocks: u64, t: &mut Tracer) {
        let (n, m, level, std) = (self.n, self.m, self.level, self.std);
        for _ in 0..blocks {
            let tape = &mut self.tape;
            t.span(Layer::Keystream, || tape.top_up(level));
            t.span(Layer::Polar, || {
                for _ in 0..n {
                    let mut sampler = NormalSampler::default();
                    for _ in 0..2 * m {
                        std::hint::black_box(sampler.sample_with(tape, 0.0, std));
                    }
                }
            });
            self.accepted += (n * m) as u64;
        }
    }

    /// Exact counts since creation.
    pub fn counts(&self) -> Counts {
        let spectra = self.accepted / self.m as u64;
        Counts {
            words: self.tape.consumed,
            accepted: self.accepted,
            useful_bins: spectra * self.useful_per_spectrum,
        }
    }

    /// Floating-point operations of one fused call, counted from the
    /// kernel's structure: a radix-2 IDFT per row (5·M·log₂M plus the 1/M
    /// scaling), the N×N complex coloring per instant and its scaling.
    pub fn fused_flops(&self) -> f64 {
        let (n, m) = (self.n as f64, self.m as f64);
        n * (5.0 * m * m.log2() + 2.0 * m) + 8.0 * n * n * m + 2.0 * n * m
    }

    /// Compulsory memory traffic of one fused call in bytes: read the raw
    /// spectra and the coloring matrix once, write the block once.
    pub fn fused_bytes(&self) -> f64 {
        let (n, m) = (self.n as f64, self.m as f64);
        16.0 * (2.0 * n * m + n * n)
    }
}
