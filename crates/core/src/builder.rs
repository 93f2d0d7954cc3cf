//! Fluent builder for the generators.
//!
//! The [`GeneratorBuilder`] ties together the three ways of specifying the
//! desired correlation structure — an explicit covariance matrix
//! ([`GeneratorBuilder::covariance`]), the Jakes spectral model
//! ([`GeneratorBuilder::spectral_scenario`], paper Eq. 3–4) or the
//! Salz–Winters spatial model ([`GeneratorBuilder::spatial_scenario`],
//! Eq. 5–7) — with the two ways of specifying the per-envelope powers
//! (Gaussian `σ_g²` via [`GeneratorBuilder::gaussian_powers`] or envelope
//! `σ_r²` via [`GeneratorBuilder::envelope_powers`], converted through
//! Eq. 11 by [`PowerSpec`]), and produces either the single-instant
//! generator ([`CorrelatedRayleighGenerator`], Sec. 4.4) or the real-time
//! Doppler generator ([`RealtimeGenerator`], Sec. 5).
//!
//! Misconfiguration is reported as a typed [`CorrfadeError`]
//! ([`CorrfadeError::MissingCovariance`],
//! [`CorrfadeError::PowerDimensionMismatch`], …) rather than a panic.
//!
//! The named entries of the `corrfade-scenarios` registry bridge into this
//! builder: `Scenario::to_builder()` returns a `GeneratorBuilder` with the
//! covariance source and power profile pre-configured, so experiments can
//! resolve a catalog name and still customize everything below it.
//!
//! # Examples
//!
//! Build from a correlation model (the paper's spectral scenario):
//!
//! ```
//! use corrfade::GeneratorBuilder;
//! use corrfade_models::paper_spectral_scenario;
//!
//! let (model, freqs, delays) = paper_spectral_scenario();
//! let mut gen = GeneratorBuilder::new()
//!     .spectral_scenario(model, freqs, delays)
//!     .seed(42)
//!     .build()
//!     .unwrap();
//! let sample = gen.sample();
//! assert_eq!(sample.envelopes.len(), 3);
//! ```
//!
//! Override the powers of a model-derived covariance (the correlation
//! structure is kept, the diagonal is rescaled):
//!
//! ```
//! use corrfade::GeneratorBuilder;
//! use corrfade_models::paper_spatial_scenario;
//!
//! let gen = GeneratorBuilder::new()
//!     .spatial_scenario(paper_spatial_scenario(), 3)
//!     .gaussian_powers(&[2.0, 0.5, 1.0])
//!     .seed(7)
//!     .build()
//!     .unwrap();
//! let k = gen.desired_covariance();
//! assert!((k[(0, 0)].re - 2.0).abs() < 1e-12);
//! assert!((k[(1, 1)].re - 0.5).abs() < 1e-12);
//! ```
//!
//! Builder misuse is a typed error:
//!
//! ```
//! use corrfade::{CorrfadeError, GeneratorBuilder};
//!
//! assert!(matches!(
//!     GeneratorBuilder::new().build(),
//!     Err(CorrfadeError::MissingCovariance)
//! ));
//! ```

use corrfade_linalg::{CMatrix, Precision};
use corrfade_models::{JakesSpectralModel, SalzWintersSpatialModel};
use corrfade_stats::correlation_from_covariance;

use crate::error::CorrfadeError;
use crate::generator::CorrelatedRayleighGenerator;
use crate::power::PowerSpec;
use crate::realtime::{RealtimeConfig, RealtimeGenerator};

/// Where the covariance structure comes from.
#[derive(Debug, Clone)]
enum CovarianceSource {
    Matrix(CMatrix),
    Spectral {
        model: JakesSpectralModel,
        frequencies_hz: Vec<f64>,
        delays_s: Vec<Vec<f64>>,
    },
    Spatial {
        model: SalzWintersSpatialModel,
        antennas: usize,
    },
}

/// Fluent builder for [`CorrelatedRayleighGenerator`] and
/// [`RealtimeGenerator`].
#[derive(Debug, Clone)]
pub struct GeneratorBuilder {
    source: Option<CovarianceSource>,
    powers: Option<PowerSpec>,
    driving_variance: f64,
    seed: u64,
    precision: Precision,
}

impl Default for GeneratorBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl GeneratorBuilder {
    /// Starts an empty builder (driving variance 1, seed 0, `f64`
    /// precision).
    pub fn new() -> Self {
        Self {
            source: None,
            powers: None,
            driving_variance: 1.0,
            seed: 0,
            precision: Precision::F64,
        }
    }

    /// Uses an explicit covariance matrix **K** (Eq. 12–13) as the desired
    /// correlation structure.
    pub fn covariance(mut self, k: CMatrix) -> Self {
        self.source = Some(CovarianceSource::Matrix(k));
        self
    }

    /// Uses the Jakes spectral model (Eq. 3–4) evaluated at the given carrier
    /// frequencies and pairwise arrival delays.
    pub fn spectral_scenario(
        mut self,
        model: JakesSpectralModel,
        frequencies_hz: Vec<f64>,
        delays_s: Vec<Vec<f64>>,
    ) -> Self {
        self.source = Some(CovarianceSource::Spectral {
            model,
            frequencies_hz,
            delays_s,
        });
        self
    }

    /// Uses the Salz–Winters spatial model (Eq. 5–7) for a uniform linear
    /// array with the given number of antennas.
    pub fn spatial_scenario(mut self, model: SalzWintersSpatialModel, antennas: usize) -> Self {
        self.source = Some(CovarianceSource::Spatial { model, antennas });
        self
    }

    /// Sets the desired powers of the complex Gaussian variables, `σ_g²_j`.
    /// The correlation *structure* of the configured covariance source is
    /// kept and its powers are rescaled to these values.
    pub fn gaussian_powers(mut self, powers: &[f64]) -> Self {
        self.powers = Some(PowerSpec::Gaussian(powers.to_vec()));
        self
    }

    /// Sets the desired powers of the Rayleigh envelopes, `σ_r²_j`
    /// (converted through Eq. 11).
    pub fn envelope_powers(mut self, powers: &[f64]) -> Self {
        self.powers = Some(PowerSpec::Envelope(powers.to_vec()));
        self
    }

    /// Sets the variance `σ_g²` of the internal white Gaussian vector `W`
    /// (step 6). The output statistics do not depend on it.
    pub fn driving_variance(mut self, variance: f64) -> Self {
        self.driving_variance = variance;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the sample precision tier of the real-time generator (default
    /// [`Precision::F64`]; see ARCHITECTURE.md "Precision tiers"). Only
    /// [`GeneratorBuilder::build_realtime`] consumes it — the single-instant
    /// generator and all covariance/decomposition work are always `f64`.
    pub fn precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Resolves the configured source (and optional power override) into the
    /// final desired covariance matrix.
    pub fn resolve_covariance(&self) -> Result<CMatrix, CorrfadeError> {
        let base = match self
            .source
            .as_ref()
            .ok_or(CorrfadeError::MissingCovariance)?
        {
            CovarianceSource::Matrix(k) => k.clone(),
            CovarianceSource::Spectral {
                model,
                frequencies_hz,
                delays_s,
            } => model.covariance_matrix(frequencies_hz, delays_s)?,
            CovarianceSource::Spatial { model, antennas } => model.covariance_matrix(*antennas)?,
        };

        let Some(powers) = &self.powers else {
            return Ok(base);
        };

        let sigma_g = powers.gaussian_powers()?;
        if sigma_g.len() != base.rows() {
            return Err(CorrfadeError::PowerDimensionMismatch {
                expected: base.rows(),
                actual: sigma_g.len(),
            });
        }
        // Keep the correlation structure, rescale to the requested powers:
        // K'_{kj} = ρ_{kj}·√(σ_g²_k·σ_g²_j).
        let rho = correlation_from_covariance(&base);
        Ok(CMatrix::from_fn(base.rows(), base.cols(), |i, j| {
            rho[(i, j)].scale((sigma_g[i] * sigma_g[j]).sqrt())
        }))
    }

    /// Builds the single-instant generator (paper Sec. 4.4).
    pub fn build(self) -> Result<CorrelatedRayleighGenerator, CorrfadeError> {
        let k = self.resolve_covariance()?;
        CorrelatedRayleighGenerator::with_driving_variance(k, self.driving_variance, self.seed)
    }

    /// Builds the real-time Doppler generator (paper Sec. 5) with the given
    /// IDFT length, normalized Doppler frequency and filter-input variance.
    pub fn build_realtime(
        self,
        idft_size: usize,
        normalized_doppler: f64,
        sigma_orig_sq: f64,
    ) -> Result<RealtimeGenerator, CorrfadeError> {
        let k = self.resolve_covariance()?;
        RealtimeGenerator::new(RealtimeConfig {
            covariance: k,
            idft_size,
            normalized_doppler,
            sigma_orig_sq,
            seed: self.seed,
            precision: self.precision,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corrfade_models::{
        paper_covariance_matrix_22, paper_covariance_matrix_23, paper_spatial_scenario,
        paper_spectral_scenario,
    };

    #[test]
    fn explicit_covariance_round_trips() {
        let k = paper_covariance_matrix_22();
        let g = GeneratorBuilder::new()
            .covariance(k.clone())
            .seed(1)
            .build()
            .unwrap();
        assert!(g.desired_covariance().approx_eq(&k, 0.0));
    }

    #[test]
    fn spectral_scenario_builds_eq22() {
        let (model, freqs, delays) = paper_spectral_scenario();
        let g = GeneratorBuilder::new()
            .spectral_scenario(model, freqs, delays)
            .seed(2)
            .build()
            .unwrap();
        assert!(
            g.desired_covariance()
                .max_abs_diff(&paper_covariance_matrix_22())
                < 5e-4
        );
    }

    #[test]
    fn spatial_scenario_builds_eq23() {
        let g = GeneratorBuilder::new()
            .spatial_scenario(paper_spatial_scenario(), 3)
            .seed(3)
            .build()
            .unwrap();
        assert!(
            g.desired_covariance()
                .max_abs_diff(&paper_covariance_matrix_23())
                < 5e-4
        );
    }

    #[test]
    fn power_override_rescales_the_diagonal_but_keeps_the_correlation() {
        let powers = [2.0, 0.5, 1.0];
        let g = GeneratorBuilder::new()
            .spatial_scenario(paper_spatial_scenario(), 3)
            .gaussian_powers(&powers)
            .seed(4)
            .build()
            .unwrap();
        let k = g.desired_covariance();
        for (i, &p) in powers.iter().enumerate() {
            assert!((k[(i, i)].re - p).abs() < 1e-12);
        }
        // Correlation coefficient between 0 and 1 unchanged from the base
        // scenario (0.8123).
        let rho01 = k[(0, 1)].abs() / (powers[0] * powers[1]).sqrt();
        assert!((rho01 - 0.8123).abs() < 5e-4);
    }

    #[test]
    fn envelope_power_override_applies_eq_11() {
        let sr2 = 0.2146; // corresponds to σ_g² ≈ 1
        let g = GeneratorBuilder::new()
            .spatial_scenario(paper_spatial_scenario(), 3)
            .envelope_powers(&[sr2, sr2, sr2])
            .seed(5)
            .build()
            .unwrap();
        for i in 0..3 {
            assert!((g.desired_covariance()[(i, i)].re - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn realtime_build_uses_the_same_covariance() {
        let (model, freqs, delays) = paper_spectral_scenario();
        let g = GeneratorBuilder::new()
            .spectral_scenario(model, freqs, delays)
            .seed(6)
            .build_realtime(1024, 0.05, 0.5)
            .unwrap();
        assert_eq!(g.dimension(), 3);
        assert!(
            g.desired_covariance()
                .max_abs_diff(&paper_covariance_matrix_22())
                < 5e-4
        );
    }

    #[test]
    fn builder_misuse_is_reported() {
        assert!(matches!(
            GeneratorBuilder::new().build(),
            Err(CorrfadeError::MissingCovariance)
        ));
        assert!(matches!(
            GeneratorBuilder::new()
                .covariance(paper_covariance_matrix_22())
                .gaussian_powers(&[1.0, 1.0])
                .build(),
            Err(CorrfadeError::PowerDimensionMismatch {
                expected: 3,
                actual: 2
            })
        ));
        for variance in [-1.0, f64::INFINITY, 5e-324] {
            assert!(matches!(
                GeneratorBuilder::new()
                    .covariance(paper_covariance_matrix_22())
                    .driving_variance(variance)
                    .build(),
                Err(CorrfadeError::InvalidDrivingVariance { .. })
            ));
        }
    }

    #[test]
    fn default_builder_equals_new() {
        let d = GeneratorBuilder::default();
        assert!(matches!(d.build(), Err(CorrfadeError::MissingCovariance)));
    }
}
