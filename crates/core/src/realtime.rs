//! Real-time (Doppler-correlated) generation of N correlated Rayleigh
//! envelopes — the paper's Sec. 5 algorithm (Fig. 3).
//!
//! The single-instant generator of [`crate::generator`] produces samples that
//! are independent from one time instant to the next. A realistic fading
//! process is band-limited by the Doppler spread, so its samples are
//! correlated in time with autocorrelation `J₀(2π·f_m·d)`. The paper obtains
//! both properties at once by stacking `N` Young–Beaulieu IDFT generators
//! (one per envelope, paper ref. \[7\]) and coloring their outputs at every
//! time instant with the eigendecomposition coloring matrix:
//!
//! 1. design the Doppler filter `F[k]` (Eq. 21) for the chosen `M` and `f_m`,
//! 2. run `N` independent IDFT generators → sequences `u_j[l]`, each with
//!    autocorrelation `∝ J₀(2π·f_m·d)` and output variance
//!    `σ_g² = 2·σ²_orig/M²·ΣF[k]²` (Eq. 19),
//! 3. at every instant `l`, form `W[l] = (u_1[l], …, u_N[l])ᵀ` and output
//!    `Z[l] = L·W[l]/σ_g`.
//!
//! Feeding the *true* `σ_g²` of step 2 into step 3 — rather than assuming the
//! filter leaves the variance at 1 — is the correction over Sorooshyari–Daut
//! (ref. \[6\]) that makes the realized covariance equal the desired one. The
//! flawed variant is reproduced in `corrfade-baselines` for the E8 ablation.

use corrfade_dsp::{DopplerFilter, DspError, IdftRayleighGenerator};
use corrfade_linalg::{CMatrix, Complex32, Complex64, Precision, SampleBlock, SampleBlock32};
use corrfade_randn::RandomStream;

use crate::coloring::{eigen_coloring, Coloring};
use crate::error::CorrfadeError;
use crate::stream::ChannelStream;

/// Configuration of the real-time generator.
#[derive(Debug, Clone)]
pub struct RealtimeConfig {
    /// Desired covariance matrix **K** of the complex Gaussian processes
    /// (diagonal = `σ_g²_j`).
    pub covariance: CMatrix,
    /// IDFT length `M` (number of time samples produced per block). The paper
    /// uses 4096.
    pub idft_size: usize,
    /// Normalized maximum Doppler frequency `f_m = F_m/F_s`. The paper uses
    /// 0.05.
    pub normalized_doppler: f64,
    /// Per-dimension variance `σ²_orig` of the Gaussian sequences feeding the
    /// Doppler filters. The paper uses 1/2. The realized covariance is
    /// invariant to this choice — that invariance is exactly what the
    /// variance-aware combination buys.
    pub sigma_orig_sq: f64,
    /// RNG seed.
    pub seed: u64,
    /// Sample precision tier. [`Precision::F64`] (the default everywhere) is
    /// the bit-exact double-precision pipeline; [`Precision::F32`] runs the
    /// half-width fast tier — same RNG draws, decompositions and filter
    /// design stay `f64`, samples are generated in `f32` and agree with the
    /// f64 pipeline within the documented error bound (see
    /// `ARCHITECTURE.md`, "Precision tiers").
    pub precision: Precision,
}

impl RealtimeConfig {
    /// The paper's Sec. 6 settings (`M = 4096`, `f_m = 0.05`,
    /// `σ²_orig = 1/2`) for a given covariance matrix and seed, in the
    /// default f64 precision tier.
    pub fn paper_defaults(covariance: CMatrix, seed: u64) -> Self {
        Self {
            covariance,
            idft_size: 4096,
            normalized_doppler: 0.05,
            sigma_orig_sq: 0.5,
            seed,
            precision: Precision::F64,
        }
    }
}

/// Generator of `N` correlated, Doppler-band-limited Rayleigh fading
/// processes (paper Fig. 3).
///
/// The streaming entry point is [`ChannelStream::next_block_into`], which
/// writes `Z[l] = L·W[l]/σ_g` directly into a caller-owned planar
/// [`SampleBlock`] and keeps all working memory (the `N × M` Doppler
/// scratch, the per-instant `W`/`Z` vectors) inside the generator — zero
/// heap allocation per block in steady state.
#[derive(Debug, Clone)]
pub struct RealtimeGenerator {
    coloring: Coloring,
    desired: CMatrix,
    idft: IdftRayleighGenerator,
    sigma_g_sq: f64,
    rng: RandomStream,
    precision: Precision,
    /// The coloring matrix narrowed once to `f32` for the fast tier.
    coloring32: Vec<Complex32>,
    /// Planar `N × M` scratch for the raw Doppler sequences `u_j[l]`.
    raw: Vec<Complex64>,
    /// Per-instant `W[l]` gather scratch (scalar kernel backend).
    w: Vec<Complex64>,
    /// Split-complex tile scratch (vector kernel backend).
    planes: Vec<f64>,
    /// f32 siblings of the scratch buffers, used by the fast tier only.
    raw32: Vec<Complex32>,
    w32: Vec<Complex32>,
    planes32: Vec<f32>,
    /// Native f32 block backing the widening `ChannelStream` path of an
    /// f32-tier stream.
    block32: SampleBlock32,
}

impl RealtimeGenerator {
    /// Builds the generator: performs steps 1–5 of the single-instant
    /// algorithm (coloring of the covariance matrix), designs the Doppler
    /// filter and precomputes the Eq.-19 output variance.
    pub fn new(config: RealtimeConfig) -> Result<Self, CorrfadeError> {
        let coloring = eigen_coloring(&config.covariance)?;
        Self::from_coloring(coloring, config)
    }

    /// Assembles a generator from a precomputed coloring of
    /// `config.covariance` — lets callers that spin up many generators for
    /// the same covariance matrix (e.g. the scenario registry's cached
    /// build, one per network link group) pay for the eigendecomposition
    /// once.
    ///
    /// # Errors
    /// Filter-design and `σ²_orig` errors as [`CorrfadeError::Dsp`]; in the
    /// f32 tier also a `σ²_orig` that would take the spectrum, the transform
    /// or the coloring scale out of the f32 range.
    pub fn from_coloring(
        coloring: Coloring,
        config: RealtimeConfig,
    ) -> Result<Self, CorrfadeError> {
        let filter = DopplerFilter::new(config.idft_size, config.normalized_doppler)?;
        let idft = IdftRayleighGenerator::new(filter, config.sigma_orig_sq)?;
        if config.precision == Precision::F32 {
            check_f32_range(&idft)?;
        }
        let sigma_g_sq = idft.output_variance();
        let coloring32 = coloring
            .matrix
            .as_slice()
            .iter()
            .map(|&z| Complex32::narrow(z))
            .collect();
        Ok(Self {
            coloring,
            desired: config.covariance,
            idft,
            sigma_g_sq,
            rng: RandomStream::new(config.seed),
            precision: config.precision,
            coloring32,
            raw: Vec::new(),
            w: Vec::new(),
            planes: Vec::new(),
            raw32: Vec::new(),
            w32: Vec::new(),
            planes32: Vec::new(),
            block32: SampleBlock32::empty(),
        })
    }

    /// A copy of this generator whose RNG is rewound to a fresh stream for
    /// `seed` — behaviourally identical to rebuilding with the same
    /// configuration and the new seed, but without repeating the
    /// eigendecomposition and filter design.
    #[must_use]
    pub fn reseeded(&self, seed: u64) -> Self {
        Self {
            rng: RandomStream::new(seed),
            ..self.clone()
        }
    }

    /// Number of envelopes `N`.
    pub fn dimension(&self) -> usize {
        self.coloring.dimension()
    }

    /// Number of time samples per block, `M`.
    pub fn block_len(&self) -> usize {
        self.idft.filter().len()
    }

    /// The Doppler filter in use.
    pub fn filter(&self) -> &DopplerFilter {
        self.idft.filter()
    }

    /// The Eq.-19 output variance `σ_g²` of each Doppler-filtered sequence —
    /// the value fed into the coloring step.
    pub fn doppler_output_variance(&self) -> f64 {
        self.sigma_g_sq
    }

    /// The desired covariance matrix.
    pub fn desired_covariance(&self) -> &CMatrix {
        &self.desired
    }

    /// The covariance actually realized, `L·Lᴴ`.
    pub fn realized_covariance(&self) -> CMatrix {
        self.coloring.realized_covariance()
    }

    /// The coloring (matrix + PSD-forcing metadata).
    pub fn coloring(&self) -> &Coloring {
        &self.coloring
    }

    /// The precision tier this generator produces samples in.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The streaming hot path behind [`ChannelStream::next_block_into`]:
    /// draws the `N` Doppler-weighted spectra into the planar scratch, then
    /// runs the **fused coloring+IDFT kernel**
    /// ([`corrfade_dsp::color_idft_block`]) — the final butterfly stage and
    /// the coloring `Z[l] = L·W[l]/σ_g` execute in one output pass, so each
    /// block sample is written exactly once. The fused kernel is
    /// bit-identical per backend to the historical two-pass path (IDFT per
    /// row, then `color_block`), so the scalar backend still reproduces the
    /// pre-kernel outputs bit for bit. No heap allocation once the scratch
    /// and the destination block are warm.
    ///
    /// An f32-tier generator fills its native half-width block and widens
    /// into `block` — `ChannelStream` consumers see the same `f64` layout
    /// regardless of tier; the native path is [`Self::next_block32_into`].
    fn fill_block(&mut self, block: &mut SampleBlock) {
        match self.precision {
            Precision::F64 => self.fill_block_f64(block),
            Precision::F32 => {
                let mut b32 = std::mem::take(&mut self.block32);
                self.fill_block32(&mut b32);
                b32.widen_into(block);
                self.block32 = b32;
            }
        }
    }

    fn fill_block_f64(&mut self, block: &mut SampleBlock) {
        let n = self.coloring.dimension();
        let m = self.idft.filter().len();
        block.resize(n, m);
        self.raw.resize(n * m, Complex64::ZERO);

        // Steps 2–5 of the Sec. 5 algorithm: N independent Doppler-weighted
        // spectra, one per envelope, planar in the scratch buffer. (The
        // IDFTs run inside the fused kernel below; the RNG draw order is
        // identical to transforming each row eagerly.)
        for j in 0..n {
            self.idft
                .fill_spectrum_into(&mut self.rng, &mut self.raw[j * m..(j + 1) * m]);
        }

        // Steps 6–8, fused: invert each spectrum and color every time
        // instant with the Eq.-19 variance in one pass over the output.
        let scale = 1.0 / self.sigma_g_sq.sqrt();
        corrfade_dsp::color_idft_block(
            n,
            m,
            self.coloring.matrix.as_slice(),
            scale,
            &mut self.raw,
            block.as_mut_slice(),
            &mut self.w,
            &mut self.planes,
        );
    }

    fn fill_block32(&mut self, block: &mut SampleBlock32) {
        let n = self.coloring.dimension();
        let m = self.idft.filter().len();
        block.resize(n, m);
        self.raw32.resize(n * m, Complex32::ZERO);

        // Same RNG stream as the f64 tier (the Gaussians are drawn in f64
        // and narrowed at the spectrum fill), so an f32 stream is the
        // half-width shadow of the f64 stream with the same seed.
        for j in 0..n {
            self.idft
                .fill_spectrum32_into(&mut self.rng, &mut self.raw32[j * m..(j + 1) * m]);
        }

        let scale = (1.0 / self.sigma_g_sq.sqrt()) as f32;
        corrfade_dsp::color_idft_block32(
            n,
            m,
            &self.coloring32,
            scale,
            &mut self.raw32,
            block.as_mut_slice(),
            &mut self.w32,
            &mut self.planes32,
        );
    }

    /// The f32 fast tier's native streaming entry point: fills a caller-owned
    /// half-width block directly — no widening pass, half the output memory
    /// traffic of the `ChannelStream` path. Zero heap allocation once the
    /// scratch and the destination block are warm.
    ///
    /// # Panics
    /// Panics if this generator was not configured with
    /// [`Precision::F32`] — the f64 tier has no native half-width stream
    /// (narrow a [`SampleBlock`] explicitly if you want one).
    pub fn next_block32_into(&mut self, block: &mut SampleBlock32) -> Result<(), CorrfadeError> {
        assert_eq!(
            self.precision,
            Precision::F32,
            "next_block32_into requires an f32-tier generator (configure RealtimeConfig::precision)"
        );
        self.fill_block32(block);
        Ok(())
    }

    /// Fast-forwards the stream past `blocks` blocks without generating
    /// them: only the RNG draws of each skipped block are replayed
    /// ([`IdftRayleighGenerator::skip_spectrum`], once per envelope per
    /// block) — the IDFT, the coloring matvec and every output write are
    /// skipped entirely. Afterwards the generator's next block is
    /// **bit-identical** to the `blocks + 1`-th block of an untouched
    /// stream, in both precision tiers (the f32 tier shares the f64 RNG
    /// stream by construction).
    ///
    /// This is the serving layer's resume primitive: a client reconnecting
    /// with a block cursor gets a fresh generator (decomposition from the
    /// process-wide cache) fast-forwarded to its cursor at a fraction of
    /// the cost of regenerating the blocks it already holds.
    pub fn skip_blocks(&mut self, blocks: u64) {
        let n = self.coloring.dimension();
        for _ in 0..blocks {
            for _ in 0..n {
                self.idft.skip_spectrum(&mut self.rng);
            }
        }
    }
}

/// Largest modulus `|A − i·B|` of one spectrum bin's Gaussian pair before
/// the `σ_orig` and `F[k]` weights, rounded up. A Marsaglia polar pair has
/// modulus `√(−2·ln s)`, and the accepted `s = x² + y²` is a nonzero
/// multiple of `2⁻¹⁰⁴` (`x`, `y` are multiples of `2⁻⁵²`), so the modulus
/// is at most `√(208·ln 2) ≈ 12.01`. The rest is headroom for f32
/// rounding in the butterflies.
const F32_PAIR_MODULUS_BOUND: f64 = 16.0;

/// The `σ²_orig` range in which an f32-tier block stays finite and keeps
/// f32 precision. The realized covariance does not depend on `σ²_orig`, but
/// every f32 value ahead of the coloring scales with `σ_orig = √σ²_orig`:
///
/// * **spectrum:** bin `k` is `F[k]·σ_orig·(A − i·B)`, narrowed to f32, of
///   modulus at most `G·σ_orig·F[k]` with `G` =
///   [`F32_PAIR_MODULUS_BOUND`];
/// * **transform:** every butterfly value is a sum of bins times
///   unit-modulus twiddles, so it is at most `G·σ_orig·Σ_k F[k]`; the
///   final stage's `1/M` brings the output to the scale `σ_g` of Eq. 19;
/// * **scale:** the coloring multiplies by `1/σ_g`, narrowed to f32.
///
/// Upper bound: `G·σ_orig·Σ F[k] ≤ f32::MAX`, so no bin and no butterfly
/// value can overflow — a worst case over all draws, so it rejects some
/// `σ²_orig` whose blocks would almost surely be finite (fig4a settings:
/// `1e69` passes, `1e70` does not). Lower bound: `σ_g` and the smallest
/// in-band bin scale `σ_orig·min F[k]` are at least `f32::MIN_POSITIVE`,
/// so the typical output and spectrum values are normal f32 numbers (a
/// value lost to underflow is below one ulp of them) and `1/σ_g` is
/// finite. Outside the range — for example `σ²_orig = 1e74` or `1e-74` at
/// fig4a settings — a block would hold NaN or infinite samples.
fn check_f32_range(idft: &IdftRayleighGenerator) -> Result<(), CorrfadeError> {
    let sigma_orig = idft.sigma_orig_sq().sqrt();
    let coeffs = idft.filter().coefficients();
    let sum_f: f64 = coeffs.iter().sum();
    let min_f = coeffs
        .iter()
        .copied()
        .filter(|&f| f > 0.0)
        .fold(f64::INFINITY, f64::min);
    let (max32, min32) = (f64::from(f32::MAX), f64::from(f32::MIN_POSITIVE));
    let fits = F32_PAIR_MODULUS_BOUND * sigma_orig * sum_f <= max32
        && sigma_orig * min_f >= min32
        && idft.output_variance().sqrt() >= min32;
    if fits {
        Ok(())
    } else {
        Err(CorrfadeError::Dsp(DspError::InvalidVariance {
            value: idft.sigma_orig_sq(),
        }))
    }
}

impl ChannelStream for RealtimeGenerator {
    fn dimension(&self) -> usize {
        self.coloring.dimension()
    }

    fn block_len(&self) -> usize {
        self.idft.filter().len()
    }

    fn next_block_into(&mut self, block: &mut SampleBlock) -> Result<(), CorrfadeError> {
        self.fill_block(block);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corrfade_models::{paper_covariance_matrix_22, paper_covariance_matrix_23};
    use corrfade_stats::{normalized_autocorrelation, relative_frobenius_error};

    fn small_config(k: CMatrix, seed: u64) -> RealtimeConfig {
        // Smaller M than the paper to keep unit tests quick; the benches use
        // the full 4096.
        RealtimeConfig {
            covariance: k,
            idft_size: 1024,
            normalized_doppler: 0.05,
            sigma_orig_sq: 0.5,
            seed,
            precision: Precision::F64,
        }
    }

    /// Sample covariance over `blocks` consecutive streamed blocks.
    fn streamed_covariance(g: &mut RealtimeGenerator, blocks: usize) -> CMatrix {
        let n = g.dimension();
        let mut acc = CMatrix::zeros(n, n);
        let mut block = SampleBlock::empty();
        for _ in 0..blocks {
            g.next_block_into(&mut block).unwrap();
            block.accumulate_covariance(&mut acc);
        }
        acc.scale_real(1.0 / (blocks * g.block_len()) as f64)
    }

    #[test]
    fn construction_and_accessors() {
        let k = paper_covariance_matrix_22();
        let g = RealtimeGenerator::new(RealtimeConfig::paper_defaults(k.clone(), 1)).unwrap();
        assert_eq!(g.dimension(), 3);
        assert_eq!(g.block_len(), 4096);
        assert_eq!(g.filter().km(), 204);
        assert!(g.desired_covariance().approx_eq(&k, 0.0));
        assert!(g.realized_covariance().approx_eq(&k, 1e-10));
        // Eq. 19 variance is NOT σ²_orig.
        assert!((g.doppler_output_variance() - 0.5).abs() > 0.05);
    }

    #[test]
    fn block_shape() {
        let mut g = RealtimeGenerator::new(small_config(paper_covariance_matrix_23(), 3)).unwrap();
        let mut b = g.next_block().unwrap();
        assert_eq!(b.envelopes(), 3);
        assert_eq!(b.samples(), 1024);
        for j in 0..3 {
            let envelopes = b.envelope_path(j).to_vec();
            for (z, &r) in b.path(j).iter().zip(envelopes.iter()) {
                assert!((z.abs() - r).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn realized_covariance_matches_desired_spectral_case() {
        // Experiment E3's quantitative core: with the variance-aware
        // combination, the sample covariance over many blocks converges to
        // the desired Eq.-22 matrix.
        let k = paper_covariance_matrix_22();
        let mut g = RealtimeGenerator::new(small_config(k.clone(), 17)).unwrap();
        let khat = streamed_covariance(&mut g, 40);
        let err = relative_frobenius_error(&khat, &k);
        assert!(err < 0.08, "relative covariance error {err}");
    }

    #[test]
    fn realized_covariance_matches_desired_spatial_case() {
        let k = paper_covariance_matrix_23();
        let mut g = RealtimeGenerator::new(small_config(k.clone(), 29)).unwrap();
        let khat = streamed_covariance(&mut g, 40);
        let err = relative_frobenius_error(&khat, &k);
        assert!(err < 0.08, "relative covariance error {err}");
    }

    #[test]
    fn each_envelope_has_the_doppler_autocorrelation() {
        // Experiment E6's core: every generated process keeps the
        // J0(2π fm d) autocorrelation of its Doppler filter after coloring.
        let k = paper_covariance_matrix_23();
        let mut g = RealtimeGenerator::new(small_config(k, 41)).unwrap();
        let target = g.filter().normalized_autocorrelation(40);
        let mut acc = vec![0.0f64; 41];
        let runs = 30;
        let mut block = SampleBlock::empty();
        for _ in 0..runs {
            g.next_block_into(&mut block).unwrap();
            for j in 0..3 {
                let rho = normalized_autocorrelation(block.path(j), 40);
                for (a, r) in acc.iter_mut().zip(rho.iter()) {
                    *a += r;
                }
            }
        }
        for a in acc.iter_mut() {
            *a /= (runs * 3) as f64;
        }
        for d in 0..=40 {
            assert!(
                (acc[d] - target[d]).abs() < 0.08,
                "lag {d}: autocorrelation {} vs filter target {}",
                acc[d],
                target[d]
            );
        }
    }

    #[test]
    fn envelopes_are_rayleigh() {
        let k = paper_covariance_matrix_22();
        let mut g = RealtimeGenerator::new(small_config(k, 53)).unwrap();
        let mut paths = vec![Vec::new(); 3];
        let mut block = SampleBlock::empty();
        for _ in 0..20 {
            g.next_block_into(&mut block).unwrap();
            for (j, path) in paths.iter_mut().enumerate() {
                path.extend_from_slice(block.envelope_path(j));
            }
        }
        for path in &paths {
            let sigma = corrfade_stats::rayleigh_scale(1.0);
            let t = corrfade_stats::ks_test(path, |r| corrfade_specfun::rayleigh_cdf(r, sigma));
            // The samples are correlated in time, which weakens the KS test's
            // independence assumption, so use a lenient significance level;
            // the statistic itself must still be small.
            assert!(t.statistic < 0.05, "KS statistic too large: {t:?}");
        }
    }

    #[test]
    fn result_is_invariant_to_sigma_orig() {
        // The whole point of the Eq.-19 correction: changing σ²_orig must not
        // change the realized covariance.
        let k = paper_covariance_matrix_22();
        for &sigma_orig_sq in &[0.1, 0.5, 3.0] {
            let cfg = RealtimeConfig {
                sigma_orig_sq,
                ..small_config(k.clone(), 61)
            };
            let mut g = RealtimeGenerator::new(cfg).unwrap();
            let khat = streamed_covariance(&mut g, 30);
            let err = relative_frobenius_error(&khat, &k);
            assert!(
                err < 0.09,
                "sigma_orig_sq {sigma_orig_sq}: relative covariance error {err}"
            );
        }
    }

    #[test]
    fn skip_blocks_is_bit_identical_to_generating_them() {
        let k = paper_covariance_matrix_22();
        let mut continuous = RealtimeGenerator::new(small_config(k.clone(), 123)).unwrap();
        let mut block = SampleBlock::empty();
        for _ in 0..4 {
            continuous.next_block_into(&mut block).unwrap();
        }
        let expected: Vec<u64> = block
            .as_slice()
            .iter()
            .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
            .collect();

        // Skip 3, generate the 4th: must be the continuous 4th block.
        let mut resumed = RealtimeGenerator::new(small_config(k.clone(), 123)).unwrap();
        resumed.skip_blocks(3);
        let mut got = SampleBlock::empty();
        resumed.next_block_into(&mut got).unwrap();
        let got_bits: Vec<u64> = got
            .as_slice()
            .iter()
            .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
            .collect();
        assert_eq!(got_bits, expected);

        // The f32 tier shares the RNG stream, so the same contract holds.
        let f32_cfg = RealtimeConfig {
            precision: Precision::F32,
            ..small_config(k.clone(), 123)
        };
        let mut continuous32 = RealtimeGenerator::new(f32_cfg.clone()).unwrap();
        for _ in 0..4 {
            continuous32.next_block_into(&mut block).unwrap();
        }
        let mut resumed32 = RealtimeGenerator::new(f32_cfg).unwrap();
        resumed32.skip_blocks(3);
        resumed32.next_block_into(&mut got).unwrap();
        assert_eq!(got.as_slice(), block.as_slice());

        // skip_blocks(0) is a no-op.
        let mut untouched = RealtimeGenerator::new(small_config(k.clone(), 9)).unwrap();
        let mut noop = RealtimeGenerator::new(small_config(k, 9)).unwrap();
        noop.skip_blocks(0);
        assert_eq!(untouched.next_block().unwrap(), noop.next_block().unwrap());
    }

    #[test]
    fn reseeded_matches_fresh_generator() {
        let k = paper_covariance_matrix_23();
        let mut used = RealtimeGenerator::new(small_config(k.clone(), 5)).unwrap();
        let _ = used.next_block().unwrap(); // advance the RNG
        let mut reseeded = used.reseeded(9);
        let mut fresh = RealtimeGenerator::new(small_config(k, 9)).unwrap();
        assert_eq!(reseeded.next_block().unwrap(), fresh.next_block().unwrap());
    }

    #[test]
    fn from_coloring_shares_the_decomposition() {
        let k = paper_covariance_matrix_22();
        let coloring = crate::coloring::eigen_coloring(&k).unwrap();
        let mut a = RealtimeGenerator::from_coloring(coloring, small_config(k.clone(), 3)).unwrap();
        let mut b = RealtimeGenerator::new(small_config(k, 3)).unwrap();
        assert_eq!(a.next_block().unwrap(), b.next_block().unwrap());
    }

    #[test]
    fn f32_tier_tracks_f64_within_documented_bound() {
        let k = paper_covariance_matrix_22();
        let mut g64 = RealtimeGenerator::new(small_config(k.clone(), 91)).unwrap();
        let mut g32 = RealtimeGenerator::new(RealtimeConfig {
            precision: Precision::F32,
            ..small_config(k, 91)
        })
        .unwrap();
        assert_eq!(g32.precision(), Precision::F32);
        let mut b64 = SampleBlock::empty();
        let mut b32 = SampleBlock::empty();
        for _ in 0..3 {
            g64.next_block_into(&mut b64).unwrap();
            g32.next_block_into(&mut b32).unwrap();
            // Same RNG stream, narrowed at the spectrum fill: the f32 tier
            // shadows the f64 stream within the documented 1e-3 absolute
            // bound for the paper's unit-scale covariances.
            for (a, b) in b64.as_slice().iter().zip(b32.as_slice().iter()) {
                let d = (*a - *b).abs();
                assert!(d <= 1e-3, "{a} vs {b} (|Δ| = {d:e})");
            }
        }
    }

    #[test]
    fn native_f32_block_is_the_widened_streams_source() {
        let k = paper_covariance_matrix_23();
        let cfg = RealtimeConfig {
            precision: Precision::F32,
            ..small_config(k, 57)
        };
        let mut widening = RealtimeGenerator::new(cfg.clone()).unwrap();
        let mut native = RealtimeGenerator::new(cfg).unwrap();
        let mut wide = SampleBlock::empty();
        let mut half = SampleBlock32::empty();
        for _ in 0..2 {
            widening.next_block_into(&mut wide).unwrap();
            native.next_block32_into(&mut half).unwrap();
            assert_eq!(half.envelopes(), wide.envelopes());
            assert_eq!(half.samples(), wide.samples());
            for (w, h) in wide.as_slice().iter().zip(half.as_slice().iter()) {
                assert_eq!(*w, h.widen());
            }
        }
    }

    #[test]
    #[should_panic(expected = "requires an f32-tier generator")]
    fn native_f32_entry_point_rejects_f64_streams() {
        let k = paper_covariance_matrix_22();
        let mut g = RealtimeGenerator::new(small_config(k, 1)).unwrap();
        let mut half = SampleBlock32::empty();
        let _ = g.next_block32_into(&mut half);
    }

    #[test]
    fn non_finite_covariances_are_rejected() {
        // ∞ power used to give `L[0][0] = ∞ + NaN·i`: half the samples of
        // an M = 64 block came out non-finite. A NaN correlation gave L = I.
        for (row, col, k) in [
            (
                0,
                0,
                CMatrix::from_real_slice(2, 2, &[f64::INFINITY, 0.5, 0.5, 1.0]),
            ),
            (
                0,
                1,
                CMatrix::from_real_slice(2, 2, &[1.0, f64::NAN, f64::NAN, 1.0]),
            ),
        ] {
            let cfg = RealtimeConfig {
                idft_size: 64,
                ..small_config(k, 1)
            };
            assert!(matches!(
                RealtimeGenerator::new(cfg),
                Err(CorrfadeError::NonFiniteCovariance { row: r, col: c }) if (r, c) == (row, col)
            ));
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let k = paper_covariance_matrix_22();
        let bad_doppler = RealtimeConfig {
            normalized_doppler: 0.9,
            ..small_config(k.clone(), 1)
        };
        assert!(matches!(
            RealtimeGenerator::new(bad_doppler),
            Err(CorrfadeError::Dsp(_))
        ));
        let bad_sigma = RealtimeConfig {
            sigma_orig_sq: -1.0,
            ..small_config(k.clone(), 1)
        };
        assert!(matches!(
            RealtimeGenerator::new(bad_sigma),
            Err(CorrfadeError::Dsp(_))
        ));
        // Non-finite σ²_orig, or one whose Eq.-19 output variance overflows
        // to ∞ or underflows to 0, would give a NaN or all-zero block.
        for sigma_orig_sq in [f64::INFINITY, f64::NAN, f64::MAX, 5e-324] {
            let cfg = RealtimeConfig {
                sigma_orig_sq,
                ..small_config(k.clone(), 1)
            };
            assert!(
                matches!(RealtimeGenerator::new(cfg), Err(CorrfadeError::Dsp(_))),
                "σ²_orig = {sigma_orig_sq} must be rejected"
            );
        }
        // The f32 tier also rejects a σ²_orig that takes the spectrum, the
        // transform or the scale out of the f32 range; at fig4a settings
        // each of these would give NaN or infinite samples.
        for sigma_orig_sq in [1e74, 1e-74, 1e76, 1e-76, 1e300, 1e-300] {
            let cfg = RealtimeConfig {
                sigma_orig_sq,
                precision: Precision::F32,
                ..RealtimeConfig::paper_defaults(k.clone(), 1)
            };
            assert!(
                matches!(
                    RealtimeGenerator::new(cfg),
                    Err(CorrfadeError::Dsp(DspError::InvalidVariance { .. }))
                ),
                "f32 tier must reject σ²_orig = {sigma_orig_sq:e}"
            );
        }
        let bad_cov = RealtimeConfig {
            covariance: CMatrix::zeros(2, 3),
            ..small_config(k, 1)
        };
        assert!(matches!(
            RealtimeGenerator::new(bad_cov),
            Err(CorrfadeError::NotSquare { .. })
        ));
    }

    #[test]
    fn f32_sigma_orig_sweep_gives_an_error_or_a_finite_nonzero_block() {
        for idft_size in [4096, 64] {
            for e in -300..=300 {
                let sigma_orig_sq = 10f64.powi(e);
                let cfg = RealtimeConfig {
                    idft_size,
                    sigma_orig_sq,
                    precision: Precision::F32,
                    ..RealtimeConfig::paper_defaults(paper_covariance_matrix_22(), 7)
                };
                let ctx = format!("M = {idft_size}, σ²_orig = {sigma_orig_sq:e}");
                match RealtimeGenerator::new(cfg) {
                    Err(e) => assert!(
                        matches!(e, CorrfadeError::Dsp(DspError::InvalidVariance { .. })),
                        "{ctx}: {e}"
                    ),
                    Ok(mut g) => {
                        let block = g.next_block().unwrap();
                        let data = block.as_slice();
                        assert!(
                            data.iter().all(|z| z.re.is_finite() && z.im.is_finite()),
                            "{ctx}: non-finite sample"
                        );
                        assert!(data.iter().any(|z| z.abs() > 0.0), "{ctx}: all-zero block");
                    }
                }
            }
        }
    }
}
