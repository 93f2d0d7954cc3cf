//! Free functions on complex and real vectors (slices).
//!
//! The generators in `corrfade` shuttle sample vectors around as plain
//! `Vec<Complex64>` / `&[Complex64]`; these helpers provide the inner
//! products and element-wise kernels used by the matrix routines and by
//! the statistics crate without forcing a dedicated vector type on the
//! public API.

use crate::complex::Complex64;
use crate::complex32::Complex32;

/// Unconjugated dot product `Σ aᵢ·bᵢ`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn dot(a: &[Complex64], b: &[Complex64]) -> Complex64 {
    assert_eq!(
        a.len(),
        b.len(),
        "dot: length mismatch {} vs {}",
        a.len(),
        b.len()
    );
    a.iter()
        .zip(b.iter())
        .fold(Complex64::ZERO, |acc, (&x, &y)| x.mul_add(y, acc))
}

/// Unconjugated `f32` dot product `Σ aᵢ·bᵢ` — the fast-tier sibling of
/// [`dot`], with the same `mul_add` fold shape in single precision.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn dot32(a: &[Complex32], b: &[Complex32]) -> Complex32 {
    assert_eq!(
        a.len(),
        b.len(),
        "dot32: length mismatch {} vs {}",
        a.len(),
        b.len()
    );
    a.iter()
        .zip(b.iter())
        .fold(Complex32::ZERO, |acc, (&x, &y)| x.mul_add(y, acc))
}

/// Returns a new vector `α·x`.
pub fn scaled(alpha: Complex64, x: &[Complex64]) -> Vec<Complex64> {
    x.iter().map(|&xi| xi * alpha).collect()
}

/// Element-wise sum `a + b`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn add(a: &[Complex64], b: &[Complex64]) -> Vec<Complex64> {
    assert_eq!(a.len(), b.len(), "add: length mismatch");
    a.iter().zip(b.iter()).map(|(&x, &y)| x + y).collect()
}

/// Element-wise difference `a − b`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn sub(a: &[Complex64], b: &[Complex64]) -> Vec<Complex64> {
    assert_eq!(a.len(), b.len(), "sub: length mismatch");
    a.iter().zip(b.iter()).map(|(&x, &y)| x - y).collect()
}

/// Moduli of every element — the Rayleigh envelope of a complex Gaussian
/// sample vector.
pub fn envelope(a: &[Complex64]) -> Vec<f64> {
    a.iter().map(|z| z.abs()).collect()
}

/// Conjugates every element.
pub fn conj(a: &[Complex64]) -> Vec<Complex64> {
    a.iter().map(|z| z.conj()).collect()
}

/// Lifts a real vector into a complex one with zero imaginary parts.
pub fn complexify(a: &[f64]) -> Vec<Complex64> {
    a.iter().map(|&x| Complex64::from_real(x)).collect()
}

/// Real dot product `Σ aᵢ·bᵢ`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn rdot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "rdot: length mismatch");
    a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum()
}

/// Maximum absolute deviation between two complex vectors.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn max_abs_diff(a: &[Complex64], b: &[Complex64]) -> f64 {
    assert_eq!(a.len(), b.len(), "max_abs_diff: length mismatch");
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    #[test]
    fn dot_is_unconjugated() {
        let a = vec![c64(1.0, 1.0), c64(2.0, 0.0)];
        let b = vec![c64(0.0, 1.0), c64(1.0, -1.0)];
        // dot = (1+i)(i) + 2(1-i) = (i - 1) + (2 - 2i) = 1 - i
        assert!(dot(&a, &b).approx_eq(c64(1.0, -1.0), 1e-12));
    }

    #[test]
    fn scaled_multiplies_every_element() {
        let x = vec![c64(1.0, 0.0), c64(0.0, 1.0)];
        assert_eq!(scaled(c64(2.0, 0.0), &x)[0], c64(2.0, 0.0));
    }

    #[test]
    fn elementwise_ops() {
        let a = vec![c64(1.0, 0.0), c64(2.0, 2.0)];
        let b = vec![c64(0.5, 0.5), c64(1.0, -1.0)];
        assert_eq!(add(&a, &b)[0], c64(1.5, 0.5));
        assert_eq!(sub(&a, &b)[1], c64(1.0, 3.0));
    }

    #[test]
    fn envelope_conj_and_complexify() {
        let a = vec![c64(3.0, 4.0), c64(0.0, -2.0)];
        assert_eq!(envelope(&a), vec![5.0, 2.0]);
        assert_eq!(conj(&a)[0], c64(3.0, -4.0));
        assert_eq!(complexify(&[1.0, 2.0])[1], c64(2.0, 0.0));
    }

    #[test]
    fn real_helpers() {
        assert!((rdot(&[1.0, 2.0], &[3.0, 4.0]) - 11.0).abs() < 1e-12);
    }

    #[test]
    fn max_abs_diff_works() {
        let a = vec![c64(1.0, 0.0), c64(0.0, 1.0)];
        let b = vec![c64(1.0, 0.0), c64(0.0, 3.0)];
        assert!((max_abs_diff(&a, &b) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = dot(&[c64(1.0, 0.0)], &[]);
    }
}
