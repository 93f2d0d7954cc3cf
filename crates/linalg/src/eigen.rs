//! Eigendecomposition of Hermitian (complex) and symmetric (real) matrices
//! by the cyclic Jacobi method.
//!
//! The paper's coloring step (Sec. 4.3) requires the eigendecomposition
//! `K = V·G·Vᴴ` of the desired covariance matrix `K`. Covariance matrices are
//! Hermitian by construction, so the unconditionally-convergent Jacobi
//! iteration is a natural fit: it is simple, backward-stable and — unlike
//! Cholesky — does not care whether the matrix is positive (semi-)definite.
//!
//! Complex Hermitian matrices are diagonalized directly with complex Jacobi
//! rotations (a phase factor absorbs the argument of the pivot entry, then a
//! real Givens rotation annihilates it); real symmetric matrices use the
//! classic real rotation. Eigenvalues are returned in **descending** order
//! together with the matching orthonormal eigenvectors.
//!
//! # Cost
//!
//! One sweep visits all `N(N−1)/2` pivots at `O(N)` each, so a sweep is
//! `O(N³)`. That is negligible for the paper's `N = 3` but not for the
//! network simulator's 64-link groups, which are decomposed every time a
//! simulation or shard opens. Two rules keep the count of sweeps and the cost
//! of each down without changing a single output bit:
//!
//! * **Exit on a still sweep.** A pivot is skipped when `|a_pq| ≤ ε·‖A‖_F`.
//!   The off-diagonal mass of a 64×64 group can stall ~100× above the
//!   `(ε·‖A‖_F)²` target while every pivot is already below that skip
//!   threshold; a sweep then performs no rotation, leaves the matrix
//!   unchanged, and so would every later sweep. The loop ends after the
//!   first such sweep instead of running on to [`MAX_SWEEPS`].
//! * **Real mirror.** When the (hermitianized) input has every imaginary
//!   part exactly zero — every network group and every real registry
//!   scenario — [`hermitian_eigen`] runs the same rotation sequence on `f64`
//!   rows. Every dropped term is an exact zero: `|a_pq| = hypot(a_pq, 0)`,
//!   the phase is exactly `±1`, and `(a_rq·e^{−iφ}).re = a_rq·(±1)`. The
//!   pivot order, `τ`, `t`, `c` and `s` are the complex path's, so the
//!   eigenvalues are bit-identical and the eigenvectors equal entry for
//!   entry (an exact zero may differ in sign). This is deliberately *not*
//!   [`symmetric_eigen`], whose `τ` uses the signed pivot and so flips the
//!   signs of some eigenvector columns.
//!
//! # Scale
//!
//! [`hermitian_eigen`] runs on a copy scaled by an exact power of two,
//! `2^−k` with `k` the binary exponent of the largest modulus, and scales the
//! eigenvalues back by `2^k`. Every step of the iteration commutes with
//! such a scaling as long as no value leaves the normal range, so this
//! changes no bit for ordinary matrices; without it the convergence test's
//! squared norms underflow (entries ≲ 1e-160) or overflow (≳ 1e152) and the
//! iteration returns the input's diagonal as its spectrum.

use crate::complex::{c64, Complex64};
use crate::error::LinalgError;
use crate::matrix::{CMatrix, RMatrix};

/// Default tolerance used to accept a matrix as Hermitian/symmetric before
/// decomposing it. The covariance builders in `corrfade-models` produce
/// matrices that are Hermitian to machine precision; anything larger than
/// this usually indicates a bug in the caller.
pub const DEFAULT_HERMITIAN_TOL: f64 = 1e-9;

/// Maximum number of Jacobi sweeps before reporting a convergence failure.
/// Jacobi converges quadratically once the off-diagonal mass is small: a
/// 64×64 network group performs its last rotation by about sweep 10, and the
/// next sweep, which rotates nothing, ends the loop (see the
/// [module docs](self)). Reaching this bound therefore means the iteration
/// was still rotating, not merely that the target was out of reach.
pub const MAX_SWEEPS: usize = 64;

/// Eigendecomposition `A = V · diag(λ) · Vᴴ` of a Hermitian matrix.
#[derive(Debug, Clone)]
pub struct HermitianEigen {
    /// Eigenvalues, sorted in descending order. They are real because the
    /// input is Hermitian.
    pub eigenvalues: Vec<f64>,
    /// Unitary matrix whose `j`-th column is the eigenvector for
    /// `eigenvalues[j]`.
    pub eigenvectors: CMatrix,
}

impl HermitianEigen {
    /// Reconstructs `V · diag(λ̃) · Vᴴ` with the supplied eigenvalues — the
    /// building block of both the PSD-forcing step and the coloring matrix.
    pub fn reconstruct_with(&self, eigenvalues: &[f64]) -> CMatrix {
        assert_eq!(
            eigenvalues.len(),
            self.eigenvalues.len(),
            "reconstruct_with: eigenvalue count mismatch"
        );
        let v = &self.eigenvectors;
        v.scale_columns(eigenvalues).matmul(&v.adjoint())
    }

    /// Reconstructs the original matrix `V · diag(λ) · Vᴴ`.
    pub fn reconstruct(&self) -> CMatrix {
        self.reconstruct_with(&self.eigenvalues)
    }

    /// `true` when every eigenvalue is ≥ `−tol`, i.e. the matrix is positive
    /// semi-definite up to the tolerance.
    pub fn is_positive_semidefinite(&self, tol: f64) -> bool {
        self.eigenvalues.iter().all(|&l| l >= -tol)
    }

    /// `true` when every eigenvalue is > `tol`.
    pub fn is_positive_definite(&self, tol: f64) -> bool {
        self.eigenvalues.iter().all(|&l| l > tol)
    }
}

/// Eigendecomposition `A = V · diag(λ) · Vᵀ` of a real symmetric matrix.
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// Eigenvalues, sorted in descending order.
    pub eigenvalues: Vec<f64>,
    /// Orthogonal matrix whose `j`-th column is the eigenvector for
    /// `eigenvalues[j]`.
    pub eigenvectors: RMatrix,
}

impl SymmetricEigen {
    /// Reconstructs `V · diag(λ̃) · Vᵀ` with the supplied eigenvalues.
    pub fn reconstruct_with(&self, eigenvalues: &[f64]) -> RMatrix {
        assert_eq!(
            eigenvalues.len(),
            self.eigenvalues.len(),
            "reconstruct_with: eigenvalue count mismatch"
        );
        let v = &self.eigenvectors;
        let n = eigenvalues.len();
        let mut vl = RMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                vl[(i, j)] = v[(i, j)] * eigenvalues[j];
            }
        }
        vl.matmul(&v.transpose())
    }

    /// Reconstructs the original matrix.
    pub fn reconstruct(&self) -> RMatrix {
        self.reconstruct_with(&self.eigenvalues)
    }

    /// `true` when every eigenvalue is ≥ `−tol`.
    pub fn is_positive_semidefinite(&self, tol: f64) -> bool {
        self.eigenvalues.iter().all(|&l| l >= -tol)
    }
}

/// Sum of squared moduli of the strictly-off-diagonal entries — the quantity
/// driven to zero by the Jacobi sweeps.
fn off_diagonal_norm_sqr(a: &CMatrix) -> f64 {
    let n = a.rows();
    let mut s = 0.0;
    for i in 0..n {
        for j in 0..n {
            if i != j {
                s += a[(i, j)].norm_sqr();
            }
        }
    }
    s
}

fn off_diagonal_norm_sqr_real(a: &RMatrix) -> f64 {
    off_diagonal_norm_sqr_slice(a.as_slice(), a.rows())
}

/// [`off_diagonal_norm_sqr`] of a row-major real `n × n` matrix, summed in
/// the same order (`x·x` equals the complex `norm_sqr` bit for bit when the
/// imaginary part is zero).
fn off_diagonal_norm_sqr_slice(a: &[f64], n: usize) -> f64 {
    let mut s = 0.0;
    for i in 0..n {
        for j in 0..n {
            if i != j {
                s += a[i * n + j] * a[i * n + j];
            }
        }
    }
    s
}

/// Computes the eigendecomposition of a Hermitian matrix using cyclic
/// complex Jacobi rotations, or their exact real mirror when every entry of
/// the matrix is real (see the [module docs](self)).
///
/// # Errors
/// * [`LinalgError::NotSquare`] if the matrix is not square.
/// * [`LinalgError::NotHermitian`] if `‖A − Aᴴ‖_max` exceeds
///   [`DEFAULT_HERMITIAN_TOL`] (scaled by the matrix magnitude).
/// * [`LinalgError::ConvergenceFailure`] if the off-diagonal mass does not
///   reach machine precision within [`MAX_SWEEPS`] sweeps (not observed in
///   practice for Hermitian inputs). `iterations` is the number of sweeps
///   actually run.
pub fn hermitian_eigen(a: &CMatrix) -> Result<HermitianEigen, LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    let scale = a.max_abs().max(1.0);
    let herm_dev = a.max_abs_diff(&a.adjoint());
    if herm_dev > DEFAULT_HERMITIAN_TOL * scale {
        return Err(LinalgError::NotHermitian {
            deviation: herm_dev,
        });
    }

    if n == 0 {
        return Ok(HermitianEigen {
            eigenvalues: Vec::new(),
            eigenvectors: CMatrix::zeros(0, 0),
        });
    }

    // Work on an exactly-Hermitian copy so that round-off in the caller's
    // matrix cannot leak into the iteration.
    let mut m = a.clone();
    m.hermitianize();
    let k = prescale_exponent(m.max_abs());
    let (eigen, _sweeps) = if is_finite_real(&m) {
        real_jacobi(&m, k)?
    } else {
        complex_jacobi(m, k)?
    };
    Ok(eigen)
}

/// Whether every entry is a finite real number (`im == 0`), the condition
/// under which [`real_jacobi`] reproduces [`complex_jacobi`].
fn is_finite_real(m: &CMatrix) -> bool {
    m.as_slice().iter().all(|z| z.im == 0.0 && z.re.is_finite())
}

/// Binary exponent `k` of `max_abs` (`2^k ≤ max_abs < 2^(k+1)`), clamped so
/// that `2^k` and `2^−k` are both normal; `0` for a zero, subnormal or
/// non-finite `max_abs`, which leaves the matrix unscaled.
fn prescale_exponent(max_abs: f64) -> i32 {
    if !max_abs.is_normal() {
        return 0;
    }
    let biased = ((max_abs.to_bits() >> 52) & 0x7ff) as i32;
    (biased - 1023).clamp(-1022, 1022)
}

/// `2^e` for `e` in the normal exponent range.
fn pow2(e: i32) -> f64 {
    debug_assert!((-1022..=1023).contains(&e));
    f64::from_bits(((e + 1023) as u64) << 52)
}

/// The Jacobi rotation `(t, c, s)` that annihilates a pivot of modulus
/// `abs_apq` between diagonal entries `app` and `aqq`.
#[inline]
fn rotation(app: f64, aqq: f64, abs_apq: f64) -> (f64, f64, f64) {
    let tau = (aqq - app) / (2.0 * abs_apq);
    let t = if tau >= 0.0 {
        1.0 / (tau + (1.0 + tau * tau).sqrt())
    } else {
        -1.0 / (-tau + (1.0 + tau * tau).sqrt())
    };
    let c = 1.0 / (1.0 + t * t).sqrt();
    (t, c, t * c)
}

/// Sorts the converged diagonal `raw` (already scaled back) in descending
/// order and gathers the matching eigenvector columns, `vec(i, c)` being
/// entry `i` of the eigenvector of `raw[c]`.
fn sorted_decomposition(raw: Vec<f64>, vec: impl Fn(usize, usize) -> Complex64) -> HermitianEigen {
    let n = raw.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| {
        raw[j]
            .partial_cmp(&raw[i])
            .unwrap_or(core::cmp::Ordering::Equal)
    });
    HermitianEigen {
        eigenvalues: order.iter().map(|&i| raw[i]).collect(),
        eigenvectors: CMatrix::from_fn(n, n, |i, j| vec(i, order[j])),
    }
}

/// The convergence verdict shared by both bodies: `Ok` unless the residual
/// off-diagonal mass is still far above the target.
fn check_residual(
    off_sqr: f64,
    target: f64,
    frob: f64,
    sweeps: usize,
    up: f64,
) -> Result<(), LinalgError> {
    let residual = off_sqr.sqrt();
    if residual * residual > target * 4.0 && residual > 1e-10 * frob {
        return Err(LinalgError::ConvergenceFailure {
            iterations: sweeps,
            residual: residual * up,
        });
    }
    Ok(())
}

/// Complex cyclic Jacobi on the hermitianized `m`, run on `m·2^−k`; also
/// returns the number of sweeps run.
fn complex_jacobi(mut m: CMatrix, k: i32) -> Result<(HermitianEigen, usize), LinalgError> {
    let n = m.rows();
    if k != 0 {
        let down = pow2(-k);
        for z in m.as_mut_slice() {
            *z = z.scale(down);
        }
    }
    let mut v = CMatrix::identity(n);

    let frob = m.frobenius_norm().max(f64::MIN_POSITIVE);
    let target = (f64::EPSILON * frob).powi(2);

    let mut sweeps = 0;
    while off_diagonal_norm_sqr(&m) > target && sweeps < MAX_SWEEPS {
        sweeps += 1;
        let mut rotated = false;
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                let abs_apq = apq.abs();
                if abs_apq <= f64::EPSILON * frob {
                    continue;
                }
                rotated = true;
                // Phase factor e^{iφ} of the pivot entry; dividing column q by
                // it turns the 2×2 pivot block into a real symmetric one.
                let phase = apq.unscale(abs_apq);
                let phase_conj = phase.conj();

                let app = m[(p, p)].re;
                let aqq = m[(q, q)].re;
                let (t, c, s) = rotation(app, aqq, abs_apq);

                // Update rows/columns p and q for every other index r.
                for r in 0..n {
                    if r == p || r == q {
                        continue;
                    }
                    let arp = m[(r, p)];
                    let arq = m[(r, q)];
                    let new_rp = arp.scale(c) - (arq * phase_conj).scale(s);
                    let new_rq = arp.scale(s) + (arq * phase_conj).scale(c);
                    m[(r, p)] = new_rp;
                    m[(p, r)] = new_rp.conj();
                    m[(r, q)] = new_rq;
                    m[(q, r)] = new_rq.conj();
                }

                // Diagonal block.
                m[(p, p)] = c64(app - t * abs_apq, 0.0);
                m[(q, q)] = c64(aqq + t * abs_apq, 0.0);
                m[(p, q)] = Complex64::ZERO;
                m[(q, p)] = Complex64::ZERO;

                // Accumulate the rotation into the eigenvector matrix:
                // V ← V · U with U = P·J as documented above.
                for r in 0..n {
                    let vrp = v[(r, p)];
                    let vrq = v[(r, q)];
                    v[(r, p)] = vrp.scale(c) - (vrq * phase_conj).scale(s);
                    v[(r, q)] = vrp.scale(s) + (vrq * phase_conj).scale(c);
                }
            }
        }
        if !rotated {
            // Nothing moved, so every later sweep would skip the same pivots.
            break;
        }
    }

    let up = pow2(k);
    check_residual(off_diagonal_norm_sqr(&m), target, frob, sweeps, up)?;
    let raw: Vec<f64> = (0..n).map(|i| m[(i, i)].re * up).collect();
    Ok((sorted_decomposition(raw, |i, c| v[(i, c)]), sweeps))
}

/// [`complex_jacobi`] for a hermitianized `m` whose entries are all finite
/// and real: the same pivots and rotations on `f64`, with every exact-zero
/// imaginary term dropped. `sgn = a_pq/|a_pq|` is the complex path's phase
/// (exactly ±1), and `a_rq·sgn` its `(a_rq·e^{−iφ}).re`. Rows `p` and `q`
/// are updated contiguously and mirrored into columns `p` and `q`, which
/// keeps the working copy exactly symmetric; `V` is accumulated transposed
/// (row `c` of `vt` is eigenvector column `c`) for the same reason.
fn real_jacobi(h: &CMatrix, k: i32) -> Result<(HermitianEigen, usize), LinalgError> {
    let n = h.rows();
    let down = pow2(-k);
    let mut m: Vec<f64> = h.as_slice().iter().map(|z| z.re * down).collect();
    let mut vt = vec![0.0; n * n];
    for i in 0..n {
        vt[i * n + i] = 1.0;
    }

    let frob = m
        .iter()
        .map(|&x| x * x)
        .sum::<f64>()
        .sqrt()
        .max(f64::MIN_POSITIVE);
    let target = (f64::EPSILON * frob).powi(2);

    let mut sweeps = 0;
    while off_diagonal_norm_sqr_slice(&m, n) > target && sweeps < MAX_SWEEPS {
        sweeps += 1;
        let mut rotated = false;
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[p * n + q];
                let abs_apq = apq.abs();
                if abs_apq <= f64::EPSILON * frob {
                    continue;
                }
                rotated = true;
                let sgn = apq / abs_apq;
                let app = m[p * n + p];
                let aqq = m[q * n + q];
                let (t, c, s) = rotation(app, aqq, abs_apq);

                // Entries p and q of the two rows are recomputed here too and
                // overwritten by the diagonal block below.
                rotate_rows(&mut m, n, p, q, sgn, c, s);
                for r in 0..n {
                    m[r * n + p] = m[p * n + r];
                    m[r * n + q] = m[q * n + r];
                }
                m[p * n + p] = app - t * abs_apq;
                m[q * n + q] = aqq + t * abs_apq;
                m[p * n + q] = 0.0;
                m[q * n + p] = 0.0;

                rotate_rows(&mut vt, n, p, q, sgn, c, s);
            }
        }
        if !rotated {
            break;
        }
    }

    let up = pow2(k);
    check_residual(off_diagonal_norm_sqr_slice(&m, n), target, frob, sweeps, up)?;
    let raw: Vec<f64> = (0..n).map(|i| m[i * n + i] * up).collect();
    Ok((
        sorted_decomposition(raw, |i, c| c64(vt[c * n + i], 0.0)),
        sweeps,
    ))
}

/// `(x_p, x_q) ← (x_p·c − (x_q·sgn)·s, x_p·s + (x_q·sgn)·c)` over the
/// contiguous rows `p < q` of the row-major `n × n` matrix `a`.
#[inline]
fn rotate_rows(a: &mut [f64], n: usize, p: usize, q: usize, sgn: f64, c: f64, s: f64) {
    let (head, tail) = a.split_at_mut(q * n);
    let row_p = &mut head[p * n..(p + 1) * n];
    let row_q = &mut tail[..n];
    for (xp, xq) in row_p.iter_mut().zip(row_q.iter_mut()) {
        let arp = *xp;
        let arq = *xq * sgn;
        *xp = arp * c - arq * s;
        *xq = arp * s + arq * c;
    }
}

/// Computes the eigendecomposition of a real symmetric matrix using cyclic
/// Jacobi rotations.
///
/// # Errors
/// Same failure modes as [`hermitian_eigen`], with
/// [`LinalgError::NotHermitian`] reported when the matrix is not symmetric.
pub fn symmetric_eigen(a: &RMatrix) -> Result<SymmetricEigen, LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    let scale = a
        .as_slice()
        .iter()
        .fold(0.0f64, |acc, &x| acc.max(x.abs()))
        .max(1.0);
    let sym_dev = a.max_abs_diff(&a.transpose());
    if sym_dev > DEFAULT_HERMITIAN_TOL * scale {
        return Err(LinalgError::NotHermitian { deviation: sym_dev });
    }

    if n == 0 {
        return Ok(SymmetricEigen {
            eigenvalues: Vec::new(),
            eigenvectors: RMatrix::zeros(0, 0),
        });
    }

    let mut m = a.clone();
    // Exact symmetrization.
    for i in 0..n {
        for j in (i + 1)..n {
            let avg = 0.5 * (m[(i, j)] + m[(j, i)]);
            m[(i, j)] = avg;
            m[(j, i)] = avg;
        }
    }
    let mut v = RMatrix::identity(n);

    let frob = m.frobenius_norm().max(f64::MIN_POSITIVE);
    let target = (f64::EPSILON * frob).powi(2);

    let mut sweeps = 0;
    while off_diagonal_norm_sqr_real(&m) > target && sweeps < MAX_SWEEPS {
        sweeps += 1;
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() <= f64::EPSILON * frob {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                let tau = (aqq - app) / (2.0 * apq);
                let t = if tau >= 0.0 {
                    1.0 / (tau + (1.0 + tau * tau).sqrt())
                } else {
                    -1.0 / (-tau + (1.0 + tau * tau).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;

                for r in 0..n {
                    if r == p || r == q {
                        continue;
                    }
                    let arp = m[(r, p)];
                    let arq = m[(r, q)];
                    let new_rp = c * arp - s * arq;
                    let new_rq = s * arp + c * arq;
                    m[(r, p)] = new_rp;
                    m[(p, r)] = new_rp;
                    m[(r, q)] = new_rq;
                    m[(q, r)] = new_rq;
                }

                m[(p, p)] = app - t * apq;
                m[(q, q)] = aqq + t * apq;
                m[(p, q)] = 0.0;
                m[(q, p)] = 0.0;

                for r in 0..n {
                    let vrp = v[(r, p)];
                    let vrq = v[(r, q)];
                    v[(r, p)] = c * vrp - s * vrq;
                    v[(r, q)] = s * vrp + c * vrq;
                }
            }
        }
    }

    let residual = off_diagonal_norm_sqr_real(&m).sqrt();
    if residual * residual > target * 4.0 && residual > 1e-10 * frob {
        return Err(LinalgError::ConvergenceFailure {
            iterations: sweeps,
            residual,
        });
    }

    let mut order: Vec<usize> = (0..n).collect();
    let raw: Vec<f64> = (0..n).map(|i| m[(i, i)]).collect();
    order.sort_by(|&i, &j| {
        raw[j]
            .partial_cmp(&raw[i])
            .unwrap_or(core::cmp::Ordering::Equal)
    });

    let eigenvalues: Vec<f64> = order.iter().map(|&i| raw[i]).collect();
    let eigenvectors = RMatrix::from_fn(n, n, |i, j| v[(i, order[j])]);

    Ok(SymmetricEigen {
        eigenvalues,
        eigenvectors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hermitian_3x3() -> CMatrix {
        CMatrix::from_rows(&[
            vec![c64(2.0, 0.0), c64(0.5, 0.5), c64(0.0, -0.25)],
            vec![c64(0.5, -0.5), c64(1.5, 0.0), c64(0.3, 0.1)],
            vec![c64(0.0, 0.25), c64(0.3, -0.1), c64(1.0, 0.0)],
        ])
    }

    // The paper's spectral covariance matrix, Eq. (22).
    fn paper_matrix_22() -> CMatrix {
        CMatrix::from_rows(&[
            vec![c64(1.0, 0.0), c64(0.3782, 0.4753), c64(0.0878, 0.2207)],
            vec![c64(0.3782, -0.4753), c64(1.0, 0.0), c64(0.3063, 0.3849)],
            vec![c64(0.0878, -0.2207), c64(0.3063, -0.3849), c64(1.0, 0.0)],
        ])
    }

    #[test]
    fn diagonal_matrix_is_its_own_decomposition() {
        let d = CMatrix::from_real_diag(&[3.0, 1.0, 2.0]);
        let e = hermitian_eigen(&d).unwrap();
        assert_eq!(e.eigenvalues.len(), 3);
        assert!((e.eigenvalues[0] - 3.0).abs() < 1e-12);
        assert!((e.eigenvalues[1] - 2.0).abs() < 1e-12);
        assert!((e.eigenvalues[2] - 1.0).abs() < 1e-12);
        assert!(e.reconstruct().approx_eq(&d, 1e-12));
    }

    #[test]
    fn reconstruction_matches_input() {
        let a = hermitian_3x3();
        let e = hermitian_eigen(&a).unwrap();
        assert!(e.reconstruct().approx_eq(&a, 1e-10), "VΛV^H must equal A");
    }

    #[test]
    fn eigenvectors_are_unitary() {
        let a = hermitian_3x3();
        let e = hermitian_eigen(&a).unwrap();
        let vhv = e.eigenvectors.adjoint().matmul(&e.eigenvectors);
        assert!(vhv.approx_eq(&CMatrix::identity(3), 1e-10));
        let vvh = e.eigenvectors.matmul(&e.eigenvectors.adjoint());
        assert!(vvh.approx_eq(&CMatrix::identity(3), 1e-10));
    }

    #[test]
    fn eigenvalues_sorted_descending() {
        let a = hermitian_3x3();
        let e = hermitian_eigen(&a).unwrap();
        for w in e.eigenvalues.windows(2) {
            assert!(w[0] >= w[1] - 1e-14);
        }
    }

    #[test]
    fn eigenvalue_equation_holds() {
        let a = paper_matrix_22();
        let e = hermitian_eigen(&a).unwrap();
        for j in 0..3 {
            let vj = e.eigenvectors.col(j);
            let av = a.matvec(&vj);
            for i in 0..3 {
                let expected = vj[i].scale(e.eigenvalues[j]);
                assert!(
                    av[i].approx_eq(expected, 1e-9),
                    "A v_{j} != lambda_{j} v_{j} at row {i}: {} vs {}",
                    av[i],
                    expected
                );
            }
        }
    }

    #[test]
    fn paper_matrix_22_is_positive_definite() {
        // The paper states Eq. (22) is positive definite; our decomposition
        // must agree.
        let e = hermitian_eigen(&paper_matrix_22()).unwrap();
        assert!(
            e.is_positive_definite(0.0),
            "eigenvalues: {:?}",
            e.eigenvalues
        );
        // Trace is preserved: sum of eigenvalues = 3.
        let sum: f64 = e.eigenvalues.iter().sum();
        assert!((sum - 3.0).abs() < 1e-9);
    }

    #[test]
    fn indefinite_matrix_detected() {
        // A correlation-like matrix that is NOT positive semi-definite:
        // pairwise correlations of 1, 1 and -1 are mutually inconsistent.
        let a = CMatrix::from_real_slice(3, 3, &[1.0, 0.9, -0.9, 0.9, 1.0, 0.9, -0.9, 0.9, 1.0]);
        let e = hermitian_eigen(&a).unwrap();
        assert!(!e.is_positive_semidefinite(1e-12));
        assert!(e.eigenvalues[2] < 0.0);
    }

    #[test]
    fn non_square_rejected() {
        let a = CMatrix::zeros(2, 3);
        assert!(matches!(
            hermitian_eigen(&a),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn non_hermitian_rejected() {
        let a = CMatrix::from_rows(&[
            vec![c64(1.0, 0.0), c64(5.0, 0.0)],
            vec![c64(0.0, 0.0), c64(1.0, 0.0)],
        ]);
        assert!(matches!(
            hermitian_eigen(&a),
            Err(LinalgError::NotHermitian { .. })
        ));
    }

    #[test]
    fn empty_matrix_is_ok() {
        let e = hermitian_eigen(&CMatrix::zeros(0, 0)).unwrap();
        assert!(e.eigenvalues.is_empty());
    }

    #[test]
    fn one_by_one_matrix() {
        let a = CMatrix::from_real_slice(1, 1, &[4.2]);
        let e = hermitian_eigen(&a).unwrap();
        assert!((e.eigenvalues[0] - 4.2).abs() < 1e-14);
        assert!((e.eigenvectors[(0, 0)].abs() - 1.0).abs() < 1e-14);
    }

    #[test]
    fn rank_deficient_matrix_has_zero_eigenvalues() {
        // Outer product v v^H has rank 1.
        let v = [c64(1.0, 1.0), c64(2.0, -1.0), c64(0.5, 0.0)];
        let a = CMatrix::from_fn(3, 3, |i, j| v[i] * v[j].conj());
        let e = hermitian_eigen(&a).unwrap();
        assert!(e.eigenvalues[0] > 1.0);
        assert!(e.eigenvalues[1].abs() < 1e-10);
        assert!(e.eigenvalues[2].abs() < 1e-10);
        assert!(e.reconstruct().approx_eq(&a, 1e-10));
    }

    #[test]
    fn reconstruct_with_clipped_eigenvalues_is_psd() {
        let a = CMatrix::from_real_slice(3, 3, &[1.0, 0.9, -0.9, 0.9, 1.0, 0.9, -0.9, 0.9, 1.0]);
        let e = hermitian_eigen(&a).unwrap();
        let clipped: Vec<f64> = e.eigenvalues.iter().map(|&l| l.max(0.0)).collect();
        let forced = e.reconstruct_with(&clipped);
        let e2 = hermitian_eigen(&forced).unwrap();
        assert!(e2.is_positive_semidefinite(1e-10));
    }

    #[test]
    fn symmetric_eigen_reconstruction() {
        let a = RMatrix::from_vec(3, 3, vec![4.0, 1.0, 0.5, 1.0, 3.0, -0.25, 0.5, -0.25, 2.0]);
        let e = symmetric_eigen(&a).unwrap();
        assert!(e.reconstruct().approx_eq(&a, 1e-10));
        let vtv = e.eigenvectors.transpose().matmul(&e.eigenvectors);
        assert!(vtv.approx_eq(&RMatrix::identity(3), 1e-10));
        for w in e.eigenvalues.windows(2) {
            assert!(w[0] >= w[1] - 1e-14);
        }
    }

    #[test]
    fn symmetric_eigen_rejects_asymmetric() {
        let a = RMatrix::from_vec(2, 2, vec![1.0, 2.0, 0.0, 1.0]);
        assert!(matches!(
            symmetric_eigen(&a),
            Err(LinalgError::NotHermitian { .. })
        ));
    }

    #[test]
    fn symmetric_matches_hermitian_on_real_input() {
        let vals = [2.0, 0.8, 0.3, 0.8, 1.5, 0.1, 0.3, 0.1, 1.0];
        let r = RMatrix::from_vec(3, 3, vals.to_vec());
        let c = CMatrix::from_real_slice(3, 3, &vals);
        let er = symmetric_eigen(&r).unwrap();
        let ec = hermitian_eigen(&c).unwrap();
        for (a, b) in er.eigenvalues.iter().zip(ec.eigenvalues.iter()) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn real_embedding_eigenvalues_are_doubled_hermitian_eigenvalues() {
        // Each eigenvalue of the N×N Hermitian matrix appears twice in the
        // spectrum of its 2N×2N real-symmetric embedding.
        let a = paper_matrix_22();
        let eh = hermitian_eigen(&a).unwrap();
        let es = symmetric_eigen(&a.real_embedding()).unwrap();
        for (k, &l) in eh.eigenvalues.iter().enumerate() {
            assert!((es.eigenvalues[2 * k] - l).abs() < 1e-9);
            assert!((es.eigenvalues[2 * k + 1] - l).abs() < 1e-9);
        }
    }

    #[test]
    fn large_random_like_matrix_converges() {
        // Deterministic pseudo-random Hermitian matrix, N = 24.
        let n = 24;
        let mut seed = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut a = CMatrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                if i == j {
                    a[(i, i)] = c64(1.0 + next().abs() * 4.0, 0.0);
                } else {
                    let z = c64(next(), next());
                    a[(i, j)] = z;
                    a[(j, i)] = z.conj();
                }
            }
        }
        let e = hermitian_eigen(&a).unwrap();
        assert!(e.reconstruct().approx_eq(&a, 1e-8));
    }

    // ---- Real mirror, prescale and exit rule ----------------------------

    /// A 64×64 link-field-like covariance: 64 points on a jittered 8×8
    /// grid, `K_ij = √(p_i·p_j)·exp(−d_ij/0.4)` with unequal powers `p_i` —
    /// the shape of a `network_epoch` group, whose off-diagonal mass stalls
    /// above the target while every pivot is below the skip threshold.
    fn field_64() -> CMatrix {
        let point = |i: usize| {
            let jitter = |k: usize| ((k * 7919 + 13) % 97) as f64 / 97.0 - 0.5;
            (
                (i % 8) as f64 + 0.3 * jitter(i),
                (i / 8) as f64 + 0.3 * jitter(i + 64),
            )
        };
        let power = |i: usize| 0.5 + ((i * 31) % 17) as f64 / 8.0;
        CMatrix::from_fn(64, 64, |i, j| {
            let ((xi, yi), (xj, yj)) = (point(i), point(j));
            let d = (xi - xj).hypot(yi - yj);
            c64((power(i) * power(j)).sqrt() * (-d / 0.4).exp(), 0.0)
        })
    }

    fn hermitianized(a: &CMatrix) -> CMatrix {
        let mut m = a.clone();
        m.hermitianize();
        m
    }

    /// `L = V·√max(λ, 0)`, as `corrfade::eigen_coloring` builds it.
    fn coloring_of(e: &HermitianEigen) -> CMatrix {
        let sqrt: Vec<f64> = e.eigenvalues.iter().map(|&l| l.max(0.0).sqrt()).collect();
        e.eigenvectors.scale_columns(&sqrt)
    }

    /// Equal entry for entry, with bits that may differ only in the sign of
    /// an exact zero.
    fn assert_same_up_to_zero_sign(a: &CMatrix, b: &CMatrix, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}");
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert!(x == y, "{what}: entry {i} differs: {x} vs {y}");
            for (p, q) in [(x.re, y.re), (x.im, y.im)] {
                assert!(
                    p.to_bits() == q.to_bits() || (p == 0.0 && q == 0.0),
                    "{what}: entry {i} bits differ: {p:e} vs {q:e}"
                );
            }
        }
    }

    fn eigenvalue_bits(e: &HermitianEigen) -> Vec<u64> {
        e.eigenvalues.iter().map(|l| l.to_bits()).collect()
    }

    /// Runs both bodies on `a` and asserts the mirror reproduces the complex
    /// path: eigenvalues `to_bits`-equal, eigenvectors and `L` equal with
    /// bits equal up to the sign of an exact zero, same sweep count.
    fn assert_mirror_matches(a: &CMatrix, what: &str) -> usize {
        let h = hermitianized(a);
        assert!(is_finite_real(&h), "{what}: input must be real");
        let k = prescale_exponent(h.max_abs());
        let (real, real_sweeps) = real_jacobi(&h, k).unwrap();
        let (complex, complex_sweeps) = complex_jacobi(h, k).unwrap();
        assert_eq!(real_sweeps, complex_sweeps, "{what}: sweeps");
        assert_eq!(eigenvalue_bits(&real), eigenvalue_bits(&complex), "{what}");
        assert_same_up_to_zero_sign(
            &real.eigenvectors,
            &complex.eigenvectors,
            &format!("{what} eigenvectors"),
        );
        assert_same_up_to_zero_sign(
            &coloring_of(&real),
            &coloring_of(&complex),
            &format!("{what} coloring"),
        );
        real_sweeps
    }

    #[test]
    fn real_mirror_matches_the_complex_body_on_a_network_sized_field() {
        let sweeps = assert_mirror_matches(&field_64(), "field_64");
        // The exit rule ends the loop one still sweep after the last
        // rotation, not at the MAX_SWEEPS cap.
        assert!(sweeps < 20, "ran {sweeps} sweeps");
    }

    #[test]
    fn prescale_changes_no_bit_of_a_normal_range_matrix() {
        let inputs = [
            ("hermitian_3x3", hermitian_3x3()),
            ("hermitian_3x3·10", hermitian_3x3().scale_real(10.0)),
            ("paper_matrix_22", paper_matrix_22()),
            ("field_64", field_64()),
            ("field_64·3", field_64().scale_real(3.0)),
        ];
        let mut prescaled = 0;
        for (what, a) in &inputs {
            let h = hermitianized(a);
            let k = prescale_exponent(h.max_abs());
            prescaled += usize::from(k != 0);
            let run = |k| {
                if is_finite_real(&h) {
                    real_jacobi(&h, k).unwrap().0
                } else {
                    complex_jacobi(h.clone(), k).unwrap().0
                }
            };
            let (with, without) = (run(k), run(0));
            assert_eq!(eigenvalue_bits(&with), eigenvalue_bits(&without), "{what}");
            for (x, y) in with
                .eigenvectors
                .as_slice()
                .iter()
                .zip(without.eigenvectors.as_slice())
            {
                assert_eq!(x.re.to_bits(), y.re.to_bits(), "{what}");
                assert_eq!(x.im.to_bits(), y.im.to_bits(), "{what}");
            }
        }
        assert!(prescaled > 0, "no input exercised a nonzero prescale");
    }

    #[test]
    fn decomposition_commutes_with_power_of_two_scaling() {
        for a in [hermitian_3x3(), field_64()] {
            let base = hermitian_eigen(&a).unwrap();
            for e in [-900, -600, -40, 40, 600, 900] {
                let f = pow2(e);
                let scaled = hermitian_eigen(&a.scale_real(f)).unwrap();
                for (x, y) in scaled.eigenvalues.iter().zip(&base.eigenvalues) {
                    assert_eq!(x.to_bits(), (y * f).to_bits(), "2^{e}");
                }
                assert_eq!(scaled.eigenvectors, base.eigenvectors, "2^{e}");
            }
        }
    }

    #[test]
    fn tiny_and_huge_covariances_are_still_diagonalized() {
        // Without the prescale the off-diagonal norm and the target both
        // underflow (or overflow), no sweep runs, and the input diagonal
        // comes back as the spectrum.
        for s in [1e-300, 1e-200, 1e-170, 1e155, 1e200, 1e300] {
            let a = CMatrix::from_real_slice(2, 2, &[s, 0.9 * s, 0.9 * s, s]);
            let e = hermitian_eigen(&a).unwrap();
            assert!((e.eigenvalues[0] / s - 1.9).abs() < 1e-12, "s = {s:e}");
            assert!((e.eigenvalues[1] / s - 0.1).abs() < 1e-12, "s = {s:e}");
        }
    }

    #[test]
    fn reconstruct_with_scales_columns_like_the_diagonal_product() {
        let a = hermitian_3x3();
        let e = hermitian_eigen(&a).unwrap();
        let lambda = [1.5, 0.0, -0.25];
        let by_matmul = e
            .eigenvectors
            .matmul(&CMatrix::from_real_diag(&lambda))
            .matmul(&e.eigenvectors.adjoint());
        assert_same_up_to_zero_sign(&e.reconstruct_with(&lambda), &by_matmul, "reconstruct");
    }

    /// Real symmetric matrices with negative and exactly-zero off-diagonal
    /// entries, repeated values, zero rows, and both indefinite and
    /// rank-deficient (`B·Bᵀ`, `B` of rank < `n`) shapes.
    fn real_symmetric(max_n: usize) -> impl Strategy<Value = CMatrix> {
        // Kind 0–1: exact zero; 2: a multiple of 1/4 in [−1, 1] (repeats
        // give ties and τ = 0); otherwise uniform in [−2, 2).
        let entry = (0u32..6, -2.0f64..2.0).prop_map(|(kind, x)| match kind {
            0 | 1 => 0.0,
            2 => (x * 2.0).round() * 0.25,
            _ => x,
        });
        (1..=max_n)
            .prop_flat_map(move |n| {
                (
                    Just(n),
                    proptest::collection::vec(entry.clone(), n * n),
                    proptest::collection::vec(0u32..4, n),
                    0u32..2,
                    0..n,
                )
            })
            .prop_map(|(n, entries, zero_rows, gram, rank)| {
                let mut a = if gram == 1 {
                    // Rank ≤ `rank` < n: a PSD, singular matrix.
                    let b = CMatrix::from_fn(n, n, |i, j| {
                        c64(if j < rank { entries[i * n + j] } else { 0.0 }, 0.0)
                    });
                    b.aat_adjoint()
                } else {
                    CMatrix::from_fn(n, n, |i, j| c64(entries[i.min(j) * n + i.max(j)], 0.0))
                };
                // About one row in four is zeroed with its column.
                for (r, &zero) in zero_rows.iter().enumerate() {
                    if zero == 0 {
                        for c in 0..n {
                            a[(r, c)] = Complex64::ZERO;
                            a[(c, r)] = Complex64::ZERO;
                        }
                    }
                }
                a
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn real_mirror_matches_the_complex_body(a in real_symmetric(9)) {
            assert_mirror_matches(&a, "proptest");
        }
    }
}
