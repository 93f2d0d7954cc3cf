//! Error types for the DSP building blocks.

use core::fmt;

/// Errors produced by the Doppler-filter design and the IDFT generators.
#[derive(Debug, Clone, PartialEq)]
pub enum DspError {
    /// A transform/filter length is too small to be meaningful.
    InvalidLength {
        /// The supplied length.
        length: usize,
        /// The minimum accepted length.
        minimum: usize,
    },
    /// The normalized maximum Doppler frequency is outside the usable range
    /// `(0, 0.5)` or too small for the chosen IDFT length (`⌊fm·M⌋ < 1`).
    InvalidDopplerFrequency {
        /// The supplied normalized Doppler frequency.
        fm: f64,
    },
    /// A variance parameter is non-positive or non-finite, or implies a
    /// non-finite or zero Eq.-19 output variance.
    InvalidVariance {
        /// The supplied variance.
        value: f64,
    },
}

impl fmt::Display for DspError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DspError::InvalidLength { length, minimum } => {
                write!(f, "length {length} is too small (minimum {minimum})")
            }
            DspError::InvalidDopplerFrequency { fm } => write!(
                f,
                "normalized Doppler frequency {fm} is invalid: must lie in (0, 0.5) with floor(fm*M) >= 1"
            ),
            DspError::InvalidVariance { value } => {
                write!(
                    f,
                    "variance {value:?} is invalid: it and the output variance it implies must be finite and strictly positive"
                )
            }
        }
    }
}

impl std::error::Error for DspError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_contains_key_information() {
        assert!(DspError::InvalidLength {
            length: 2,
            minimum: 8
        }
        .to_string()
        .contains("2"));
        assert!(DspError::InvalidDopplerFrequency { fm: 0.7 }
            .to_string()
            .contains("0.7"));
        assert!(DspError::InvalidVariance { value: -1.0 }
            .to_string()
            .contains("-1"));
    }
}
