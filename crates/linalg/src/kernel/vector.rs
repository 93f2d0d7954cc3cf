//! The vectorized kernel backend.
//!
//! All routines are written as fixed-width lane loops over contiguous `f64`
//! data (split-complex planes, or interleaved pairs with per-lane
//! accumulators) that LLVM autovectorizes on every supported ISA. On
//! `x86_64` the inner loops are compiled a second time as AVX2+FMA
//! multiversions (`#[target_feature]` over a shared `#[inline(always)]`
//! body) and selected once per process by runtime CPU-feature detection —
//! the `f64::mul_add` calls in the FMA bodies become single `vfmadd`
//! instructions there, while the generic bodies stick to mul+add so they
//! never fall back to a libm `fma` call on hardware without the
//! instruction.
//!
//! Nothing here is bit-compatible with the scalar backend (summation orders
//! differ); the contract is agreement to ≤ 1e-12 for unit-scale data,
//! enforced by the `kernel_proptest` suite.

use std::sync::OnceLock;

use crate::complex::{c64, Complex64};
use crate::complex32::{c32, Complex32};

/// Lane width of the reduction kernels: wide enough to fill one AVX2
/// register per accumulator array and to give NEON a 2×-unrolled pair.
const LANES: usize = 4;

/// Lane width of the `f32` fast-tier kernels — half-width elements double
/// the lane count, so one AVX2 register still holds exactly one accumulator
/// array.
const LANES32: usize = 8;

/// `true` when the AVX2+FMA multiversions are usable on this CPU.
pub(super) fn has_fma_isa() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static CAPS: OnceLock<bool> = OnceLock::new();
        *CAPS.get_or_init(|| {
            std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        static CAPS: OnceLock<bool> = OnceLock::new();
        *CAPS.get_or_init(|| false)
    }
}

// ---------------------------------------------------------------------------
// Planar complex AXPY — the inner loop of the coloring kernel
// ---------------------------------------------------------------------------

/// `y ← y + (ar + i·ai)·x` over split-complex planes.
#[inline(always)]
fn axpy_planar_body<const FMA: bool>(
    ar: f64,
    ai: f64,
    xre: &[f64],
    xim: &[f64],
    yre: &mut [f64],
    yim: &mut [f64],
) {
    for ((yr, yi), (xr, xi)) in yre
        .iter_mut()
        .zip(yim.iter_mut())
        .zip(xre.iter().zip(xim.iter()))
    {
        if FMA {
            *yr = ar.mul_add(*xr, (-ai).mul_add(*xi, *yr));
            *yi = ar.mul_add(*xi, ai.mul_add(*xr, *yi));
        } else {
            *yr += ar * *xr - ai * *xi;
            *yi += ar * *xi + ai * *xr;
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn axpy_planar_avx2(
    ar: f64,
    ai: f64,
    xre: &[f64],
    xim: &[f64],
    yre: &mut [f64],
    yim: &mut [f64],
) {
    axpy_planar_body::<true>(ar, ai, xre, xim, yre, yim);
}

#[inline]
pub(super) fn axpy_planar(
    ar: f64,
    ai: f64,
    xre: &[f64],
    xim: &[f64],
    yre: &mut [f64],
    yim: &mut [f64],
) {
    #[cfg(target_arch = "x86_64")]
    if has_fma_isa() {
        // SAFETY: guarded by the runtime AVX2+FMA detection above.
        unsafe { axpy_planar_avx2(ar, ai, xre, xim, yre, yim) };
        return;
    }
    axpy_planar_body::<false>(ar, ai, xre, xim, yre, yim);
}

// ---------------------------------------------------------------------------
// Real-coefficient coloring — register-blocked, same per-element chain
// ---------------------------------------------------------------------------

/// The AVX2+FMA body of [`color_tile_real`], written with intrinsics.
/// Left to the autovectorizer, a lane-array version of this loop keeps
/// `y_re`/`y_im` interleaved to suit the complex store and shuffles every
/// `x` load into that layout; here the eight accumulators stay planar and
/// are interleaved once, at the store.
#[cfg(target_arch = "x86_64")]
mod real_avx2 {
    use std::arch::x86_64::*;

    use crate::complex::Complex64;

    /// Output rows held in registers at once.
    const REAL_ROWS: usize = 2;
    /// Samples per register block: two AVX2 registers per plane and row.
    const REAL_LANES: usize = 8;

    /// Per element: `y = fma(a.re, x, y)` over ascending `j` from `y = +0`,
    /// then `scale·y` — the FMA `axpy_planar_body` chain without its
    /// exact-zero `a.im` terms.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA, and the shapes must hold:
    /// `a.len() ≥ n²`, `t ≤ stride`, both planes `≥ n·stride` long and
    /// `out.len() ≥ (n − 1)·out_stride + t`.
    // Kept out of line: inlined into the fused kernel's tile loop the same
    // body ran about 2× slower.
    #[target_feature(enable = "avx2,fma")]
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn color_tile_real(
        n: usize,
        a: &[Complex64],
        xre: &[f64],
        xim: &[f64],
        stride: usize,
        t: usize,
        scale: f64,
        out: &mut [Complex64],
        out_stride: usize,
    ) {
        let (xre, xim, out) = (xre.as_ptr(), xim.as_ptr(), out.as_mut_ptr());
        let mut i = 0;
        while i + REAL_ROWS <= n {
            rows::<REAL_ROWS>(n, a, i, xre, xim, stride, t, scale, out, out_stride);
            i += REAL_ROWS;
        }
        if i < n {
            rows::<1>(n, a, i, xre, xim, stride, t, scale, out, out_stride);
        }
    }

    /// Rows `i..i + ROWS`; same contract as [`color_tile_real`].
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn rows<const ROWS: usize>(
        n: usize,
        a: &[Complex64],
        i: usize,
        xre: *const f64,
        xim: *const f64,
        stride: usize,
        t: usize,
        scale: f64,
        out: *mut Complex64,
        out_stride: usize,
    ) {
        let blocked = t - t % REAL_LANES;
        let s = _mm256_set1_pd(scale);
        for l in (0..blocked).step_by(REAL_LANES) {
            let mut yr = [[_mm256_setzero_pd(); 2]; ROWS];
            let mut yi = [[_mm256_setzero_pd(); 2]; ROWS];
            for j in 0..n {
                let (pr, pi) = (xre.add(j * stride + l), xim.add(j * stride + l));
                let xr = [_mm256_loadu_pd(pr), _mm256_loadu_pd(pr.add(4))];
                let xi = [_mm256_loadu_pd(pi), _mm256_loadu_pd(pi.add(4))];
                for r in 0..ROWS {
                    let c = _mm256_set1_pd(a.get_unchecked((i + r) * n + j).re);
                    for h in 0..2 {
                        yr[r][h] = _mm256_fmadd_pd(c, xr[h], yr[r][h]);
                        yi[r][h] = _mm256_fmadd_pd(c, xi[h], yi[r][h]);
                    }
                }
            }
            for r in 0..ROWS {
                let dst = out.add((i + r) * out_stride + l).cast::<f64>();
                for h in 0..2 {
                    let re = _mm256_mul_pd(s, yr[r][h]);
                    let im = _mm256_mul_pd(s, yi[r][h]);
                    // (re0 im0 re2 im2), (re1 im1 re3 im3) → samples 0–1, 2–3.
                    let lo = _mm256_unpacklo_pd(re, im);
                    let hi = _mm256_unpackhi_pd(re, im);
                    _mm256_storeu_pd(dst.add(8 * h), _mm256_permute2f128_pd::<0x20>(lo, hi));
                    _mm256_storeu_pd(dst.add(8 * h + 4), _mm256_permute2f128_pd::<0x31>(lo, hi));
                }
            }
        }
        for r in 0..ROWS {
            for l in blocked..t {
                let (mut yr, mut yi) = (0.0f64, 0.0f64);
                for j in 0..n {
                    let c = a.get_unchecked((i + r) * n + j).re;
                    yr = c.mul_add(*xre.add(j * stride + l), yr);
                    yi = c.mul_add(*xim.add(j * stride + l), yi);
                }
                let z = &mut *out.add((i + r) * out_stride + l);
                z.re = scale * yr;
                z.im = scale * yi;
            }
        }
    }
}

/// Colors one tile by a real coefficient matrix — see
/// `kernel::color_planes_real`. Runs the AVX2+FMA intrinsics body; callers
/// route a matrix here only when `kernel::uses_real_coloring` holds, which
/// includes that detection.
///
/// # Panics
/// Panics if the shapes do not hold (see `kernel::color_planes_real`) or
/// the CPU lacks AVX2+FMA.
#[allow(clippy::too_many_arguments)]
pub(super) fn color_tile_real(
    n: usize,
    a: &[Complex64],
    xre: &[f64],
    xim: &[f64],
    stride: usize,
    t: usize,
    scale: f64,
    out: &mut [Complex64],
    out_stride: usize,
) {
    assert!(a.len() >= n * n, "color_planes_real: coefficient storage");
    assert!(
        t <= stride && xre.len() >= n * stride && xim.len() >= n * stride,
        "color_planes_real: plane length"
    );
    assert!(
        n == 0 || out.len() >= (n - 1) * out_stride + t,
        "color_planes_real: output length"
    );
    debug_assert!(
        a[..n * n].iter().all(|z| z.im == 0.0),
        "color_planes_real: complex coefficients"
    );
    #[cfg(target_arch = "x86_64")]
    if has_fma_isa() {
        // SAFETY: guarded by the runtime AVX2+FMA detection; the shapes are
        // checked just above.
        unsafe { real_avx2::color_tile_real(n, a, xre, xim, stride, t, scale, out, out_stride) };
        return;
    }
    panic!("color_planes_real: needs AVX2+FMA");
}

/// Cache-blocked split-complex coloring: see `kernel::color_block_with`.
/// A real coloring matrix on an AVX2+FMA CPU takes the register-blocked
/// [`color_tile_real`] body; the output bits are the same either way.
pub(super) fn color_block(
    n: usize,
    m: usize,
    a: &[Complex64],
    scale: f64,
    raw: &[Complex64],
    out: &mut [Complex64],
    scratch: &mut Vec<f64>,
) {
    let real = super::uses_real_coloring(a);
    color_block_impl(n, m, a, real, scale, raw, out, scratch);
}

/// [`color_block`] with the body choice explicit, so the tests can pin the
/// real body against the complex one on the same matrix.
#[allow(clippy::too_many_arguments)]
fn color_block_impl(
    n: usize,
    m: usize,
    a: &[Complex64],
    real: bool,
    scale: f64,
    raw: &[Complex64],
    out: &mut [Complex64],
    scratch: &mut Vec<f64>,
) {
    if n == 0 || m == 0 {
        return;
    }
    let tile = super::COLOR_TILE.min(m);
    // Layout: N re-planes, N im-planes, one y re-plane, one y im-plane.
    scratch.resize((2 * n + 2) * tile, 0.0);
    let (x_planes, y_planes) = scratch.split_at_mut(2 * n * tile);
    let (xre_all, xim_all) = x_planes.split_at_mut(n * tile);
    let (yre, yim) = y_planes.split_at_mut(tile);

    let mut l0 = 0;
    while l0 < m {
        let t = tile.min(m - l0);
        for j in 0..n {
            let row = &raw[j * m + l0..j * m + l0 + t];
            super::deinterleave_into(
                row,
                &mut xre_all[j * tile..j * tile + t],
                &mut xim_all[j * tile..j * tile + t],
            );
        }
        if real {
            color_tile_real(n, a, xre_all, xim_all, tile, t, scale, &mut out[l0..], m);
            l0 += t;
            continue;
        }
        for i in 0..n {
            yre[..t].fill(0.0);
            yim[..t].fill(0.0);
            for j in 0..n {
                let c = a[i * n + j];
                axpy_planar(
                    c.re,
                    c.im,
                    &xre_all[j * tile..j * tile + t],
                    &xim_all[j * tile..j * tile + t],
                    &mut yre[..t],
                    &mut yim[..t],
                );
            }
            super::interleave_scaled_into(
                &yre[..t],
                &yim[..t],
                scale,
                &mut out[i * m + l0..i * m + l0 + t],
            );
        }
        l0 += t;
    }
}

// ---------------------------------------------------------------------------
// Multi-lane complex reductions — matvec rows and covariance pairs
// ---------------------------------------------------------------------------

/// Reduces lane accumulators in a fixed, lane-order-independent-of-`m`
/// sequence.
#[inline(always)]
fn reduce_lanes(acc: &[f64; LANES]) -> f64 {
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Unconjugated dot `Σ aᵢ·bᵢ` with per-lane accumulators.
#[inline(always)]
fn dot_lanes_body<const FMA: bool>(a: &[Complex64], b: &[Complex64]) -> Complex64 {
    let mut acc_re = [0.0f64; LANES];
    let mut acc_im = [0.0f64; LANES];
    let mut chunks_a = a.chunks_exact(LANES);
    let mut chunks_b = b.chunks_exact(LANES);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        for ((p, q), (ar, ai)) in ca
            .iter()
            .zip(cb.iter())
            .zip(acc_re.iter_mut().zip(acc_im.iter_mut()))
        {
            if FMA {
                *ar = p.re.mul_add(q.re, (-p.im).mul_add(q.im, *ar));
                *ai = p.re.mul_add(q.im, p.im.mul_add(q.re, *ai));
            } else {
                *ar += p.re * q.re - p.im * q.im;
                *ai += p.re * q.im + p.im * q.re;
            }
        }
    }
    let mut re = reduce_lanes(&acc_re);
    let mut im = reduce_lanes(&acc_im);
    for (p, q) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        re += p.re * q.re - p.im * q.im;
        im += p.re * q.im + p.im * q.re;
    }
    c64(re, im)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn dot_lanes_avx2(a: &[Complex64], b: &[Complex64]) -> Complex64 {
    dot_lanes_body::<true>(a, b)
}

#[inline]
fn dot_lanes(a: &[Complex64], b: &[Complex64]) -> Complex64 {
    #[cfg(target_arch = "x86_64")]
    if has_fma_isa() {
        // SAFETY: guarded by the runtime AVX2+FMA detection above.
        return unsafe { dot_lanes_avx2(a, b) };
    }
    dot_lanes_body::<false>(a, b)
}

/// `y = A·x` with the multi-lane dot kernel per row.
pub(super) fn matvec_into(cols: usize, a: &[Complex64], x: &[Complex64], y: &mut [Complex64]) {
    for (i, yi) in y.iter_mut().enumerate() {
        *yi = dot_lanes(&a[i * cols..(i + 1) * cols], x);
    }
}

/// `Σ_l z_a[l]·conj(z_b[l])` over two contiguous rows.
#[inline(always)]
fn pair_fold_body<const FMA: bool>(za: &[Complex64], zb: &[Complex64]) -> Complex64 {
    let mut acc_re = [0.0f64; LANES];
    let mut acc_im = [0.0f64; LANES];
    let mut chunks_a = za.chunks_exact(LANES);
    let mut chunks_b = zb.chunks_exact(LANES);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        for ((p, q), (ar, ai)) in ca
            .iter()
            .zip(cb.iter())
            .zip(acc_re.iter_mut().zip(acc_im.iter_mut()))
        {
            if FMA {
                *ar = p.re.mul_add(q.re, p.im.mul_add(q.im, *ar));
                *ai = p.im.mul_add(q.re, (-p.re).mul_add(q.im, *ai));
            } else {
                *ar += p.re * q.re + p.im * q.im;
                *ai += p.im * q.re - p.re * q.im;
            }
        }
    }
    let mut re = reduce_lanes(&acc_re);
    let mut im = reduce_lanes(&acc_im);
    for (p, q) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        re += p.re * q.re + p.im * q.im;
        im += p.im * q.re - p.re * q.im;
    }
    c64(re, im)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn pair_fold_avx2(za: &[Complex64], zb: &[Complex64]) -> Complex64 {
    pair_fold_body::<true>(za, zb)
}

#[inline]
fn pair_fold(za: &[Complex64], zb: &[Complex64]) -> Complex64 {
    #[cfg(target_arch = "x86_64")]
    if has_fma_isa() {
        // SAFETY: guarded by the runtime AVX2+FMA detection above.
        return unsafe { pair_fold_avx2(za, zb) };
    }
    pair_fold_body::<false>(za, zb)
}

/// Pair-wise covariance fold exploiting Hermitian symmetry: the mirrored
/// entry `Σ z_b·conj(z_a)` is the exact floating-point conjugate of
/// `Σ z_a·conj(z_b)` (products commute, negation is exact), so each
/// unordered pair is reduced once.
pub(super) fn accumulate_covariance(n: usize, m: usize, data: &[Complex64], acc: &mut [Complex64]) {
    for a in 0..n {
        let za = &data[a * m..(a + 1) * m];
        for b in a..n {
            let s = pair_fold(za, &data[b * m..(b + 1) * m]);
            acc[a * n + b] += s;
            if b != a {
                acc[b * n + a] += s.conj();
            }
        }
    }
}

/// `env[i] = √(re² + im²)` — a plain lane loop; hardware `sqrt` vectorizes
/// on every supported ISA, and the generators never produce magnitudes
/// anywhere near the over/underflow thresholds `hypot` guards against.
pub(super) fn envelope_into(data: &[Complex64], env: &mut [f64]) {
    for (e, z) in env.iter_mut().zip(data.iter()) {
        *e = (z.re * z.re + z.im * z.im).sqrt();
    }
}

// ---------------------------------------------------------------------------
// f32 fast-tier variants — the same split-complex/lane shapes at half width
// ---------------------------------------------------------------------------

/// `y ← y + (ar + i·ai)·x` over split-complex `f32` planes.
#[inline(always)]
fn axpy_planar32_body<const FMA: bool>(
    ar: f32,
    ai: f32,
    xre: &[f32],
    xim: &[f32],
    yre: &mut [f32],
    yim: &mut [f32],
) {
    for ((yr, yi), (xr, xi)) in yre
        .iter_mut()
        .zip(yim.iter_mut())
        .zip(xre.iter().zip(xim.iter()))
    {
        if FMA {
            *yr = ar.mul_add(*xr, (-ai).mul_add(*xi, *yr));
            *yi = ar.mul_add(*xi, ai.mul_add(*xr, *yi));
        } else {
            *yr += ar * *xr - ai * *xi;
            *yi += ar * *xi + ai * *xr;
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn axpy_planar32_avx2(
    ar: f32,
    ai: f32,
    xre: &[f32],
    xim: &[f32],
    yre: &mut [f32],
    yim: &mut [f32],
) {
    axpy_planar32_body::<true>(ar, ai, xre, xim, yre, yim);
}

#[inline]
pub(super) fn axpy_planar32(
    ar: f32,
    ai: f32,
    xre: &[f32],
    xim: &[f32],
    yre: &mut [f32],
    yim: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if has_fma_isa() {
        // SAFETY: guarded by the runtime AVX2+FMA detection above.
        unsafe { axpy_planar32_avx2(ar, ai, xre, xim, yre, yim) };
        return;
    }
    axpy_planar32_body::<false>(ar, ai, xre, xim, yre, yim);
}

/// Cache-blocked split-complex `f32` coloring — the half-width sibling of
/// [`color_block`], with twice the samples per tile at the same byte
/// footprint.
pub(super) fn color_block32(
    n: usize,
    m: usize,
    a: &[Complex32],
    scale: f32,
    raw: &[Complex32],
    out: &mut [Complex32],
    scratch: &mut Vec<f32>,
) {
    if n == 0 || m == 0 {
        return;
    }
    let tile = super::COLOR_TILE.min(m);
    // Layout: N re-planes, N im-planes, one y re-plane, one y im-plane.
    scratch.resize((2 * n + 2) * tile, 0.0);
    let (x_planes, y_planes) = scratch.split_at_mut(2 * n * tile);
    let (xre_all, xim_all) = x_planes.split_at_mut(n * tile);
    let (yre, yim) = y_planes.split_at_mut(tile);

    let mut l0 = 0;
    while l0 < m {
        let t = tile.min(m - l0);
        for j in 0..n {
            let row = &raw[j * m + l0..j * m + l0 + t];
            super::deinterleave_into_f32(
                row,
                &mut xre_all[j * tile..j * tile + t],
                &mut xim_all[j * tile..j * tile + t],
            );
        }
        for i in 0..n {
            yre[..t].fill(0.0);
            yim[..t].fill(0.0);
            for j in 0..n {
                let c = a[i * n + j];
                axpy_planar32(
                    c.re,
                    c.im,
                    &xre_all[j * tile..j * tile + t],
                    &xim_all[j * tile..j * tile + t],
                    &mut yre[..t],
                    &mut yim[..t],
                );
            }
            super::interleave_scaled_into_f32(
                &yre[..t],
                &yim[..t],
                scale,
                &mut out[i * m + l0..i * m + l0 + t],
            );
        }
        l0 += t;
    }
}

/// Reduces `f32` lane accumulators in a fixed sequence independent of `m`.
#[inline(always)]
fn reduce_lanes32(acc: &[f32; LANES32]) -> f32 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// Unconjugated `f32` dot `Σ aᵢ·bᵢ` with per-lane accumulators.
#[inline(always)]
fn dot_lanes32_body<const FMA: bool>(a: &[Complex32], b: &[Complex32]) -> Complex32 {
    let mut acc_re = [0.0f32; LANES32];
    let mut acc_im = [0.0f32; LANES32];
    let mut chunks_a = a.chunks_exact(LANES32);
    let mut chunks_b = b.chunks_exact(LANES32);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        for ((p, q), (ar, ai)) in ca
            .iter()
            .zip(cb.iter())
            .zip(acc_re.iter_mut().zip(acc_im.iter_mut()))
        {
            if FMA {
                *ar = p.re.mul_add(q.re, (-p.im).mul_add(q.im, *ar));
                *ai = p.re.mul_add(q.im, p.im.mul_add(q.re, *ai));
            } else {
                *ar += p.re * q.re - p.im * q.im;
                *ai += p.re * q.im + p.im * q.re;
            }
        }
    }
    let mut re = reduce_lanes32(&acc_re);
    let mut im = reduce_lanes32(&acc_im);
    for (p, q) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        re += p.re * q.re - p.im * q.im;
        im += p.re * q.im + p.im * q.re;
    }
    c32(re, im)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn dot_lanes32_avx2(a: &[Complex32], b: &[Complex32]) -> Complex32 {
    dot_lanes32_body::<true>(a, b)
}

#[inline]
fn dot_lanes32(a: &[Complex32], b: &[Complex32]) -> Complex32 {
    #[cfg(target_arch = "x86_64")]
    if has_fma_isa() {
        // SAFETY: guarded by the runtime AVX2+FMA detection above.
        return unsafe { dot_lanes32_avx2(a, b) };
    }
    dot_lanes32_body::<false>(a, b)
}

/// `y = A·x` in `f32` with the multi-lane dot kernel per row.
pub(super) fn matvec_into32(cols: usize, a: &[Complex32], x: &[Complex32], y: &mut [Complex32]) {
    for (i, yi) in y.iter_mut().enumerate() {
        *yi = dot_lanes32(&a[i * cols..(i + 1) * cols], x);
    }
}

/// `Σ_l z_a[l]·conj(z_b[l])` over two contiguous `f32` rows, widening each
/// product and accumulating in `f64` — covariance analysis never narrows.
#[inline(always)]
fn pair_fold32_body<const FMA: bool>(za: &[Complex32], zb: &[Complex32]) -> Complex64 {
    let mut acc_re = [0.0f64; LANES];
    let mut acc_im = [0.0f64; LANES];
    let mut chunks_a = za.chunks_exact(LANES);
    let mut chunks_b = zb.chunks_exact(LANES);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        for ((p, q), (ar, ai)) in ca
            .iter()
            .zip(cb.iter())
            .zip(acc_re.iter_mut().zip(acc_im.iter_mut()))
        {
            let (pre, pim) = (f64::from(p.re), f64::from(p.im));
            let (qre, qim) = (f64::from(q.re), f64::from(q.im));
            if FMA {
                *ar = pre.mul_add(qre, pim.mul_add(qim, *ar));
                *ai = pim.mul_add(qre, (-pre).mul_add(qim, *ai));
            } else {
                *ar += pre * qre + pim * qim;
                *ai += pim * qre - pre * qim;
            }
        }
    }
    let mut re = reduce_lanes(&acc_re);
    let mut im = reduce_lanes(&acc_im);
    for (p, q) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        let (pre, pim) = (f64::from(p.re), f64::from(p.im));
        let (qre, qim) = (f64::from(q.re), f64::from(q.im));
        re += pre * qre + pim * qim;
        im += pim * qre - pre * qim;
    }
    c64(re, im)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn pair_fold32_avx2(za: &[Complex32], zb: &[Complex32]) -> Complex64 {
    pair_fold32_body::<true>(za, zb)
}

#[inline]
fn pair_fold32(za: &[Complex32], zb: &[Complex32]) -> Complex64 {
    #[cfg(target_arch = "x86_64")]
    if has_fma_isa() {
        // SAFETY: guarded by the runtime AVX2+FMA detection above.
        return unsafe { pair_fold32_avx2(za, zb) };
    }
    pair_fold32_body::<false>(za, zb)
}

/// Pair-wise `f32` covariance fold into an `f64` accumulator, exploiting
/// the same exact Hermitian mirror as [`accumulate_covariance`].
pub(super) fn accumulate_covariance32(
    n: usize,
    m: usize,
    data: &[Complex32],
    acc: &mut [Complex64],
) {
    for a in 0..n {
        let za = &data[a * m..(a + 1) * m];
        for b in a..n {
            let s = pair_fold32(za, &data[b * m..(b + 1) * m]);
            acc[a * n + b] += s;
            if b != a {
                acc[b * n + a] += s.conj();
            }
        }
    }
}

/// `env[i] = |data[i]|` in `f32` — the widened `√(re² + im²)` of
/// [`Complex32::abs`] as a lane loop, so both backends produce identical
/// `f32` envelopes.
pub(super) fn envelope_into32(data: &[Complex32], env: &mut [f32]) {
    for (e, z) in env.iter_mut().zip(data.iter()) {
        let (re, im) = (f64::from(z.re), f64::from(z.im));
        *e = (re * re + im * im).sqrt() as f32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A real coefficient matrix with negative entries, exact `+0`/`−0`
    /// entries and `−0` imaginary parts.
    fn real_matrix(n: usize) -> Vec<Complex64> {
        (0..n * n)
            .map(|i| {
                let re = match i % 7 {
                    0 => 0.0,
                    3 => -0.0,
                    _ => ((i * 7919) % 101) as f64 / 50.0 - 1.0,
                };
                c64(re, if i % 2 == 0 { 0.0 } else { -0.0 })
            })
            .collect()
    }

    fn block(n: usize, m: usize) -> Vec<Complex64> {
        (0..n * m)
            .map(|i| {
                let t = i as f64;
                c64((0.37 * t).sin(), (0.71 * t).cos() * 0.5)
            })
            .collect()
    }

    fn assert_bits_eq(a: &[Complex64], b: &[Complex64], what: &str) {
        for (l, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "{what}: sample {l}: {x} vs {y}"
            );
        }
    }

    /// Colors `raw` through [`color_block_impl`] with the body chosen.
    fn colored(
        n: usize,
        m: usize,
        a: &[Complex64],
        real: bool,
        raw: &[Complex64],
    ) -> Vec<Complex64> {
        let mut out = vec![Complex64::ZERO; n * m];
        color_block_impl(n, m, a, real, 0.83, raw, &mut out, &mut Vec::new());
        out
    }

    #[test]
    fn real_coloring_body_is_bit_identical_to_the_complex_body() {
        // M covers one tile (64), the network's 256, many tiles (4096) and
        // a length that is not a power of two (1003: its 235-sample tail
        // tile ends in 3 samples outside the 8-sample register blocks). Odd
        // row counts exercise the one-row block after the two-row ones.
        // Without AVX2+FMA a real matrix takes the complex body, so only
        // the entry point is compared there.
        for m in [64usize, 256, 4096, 1003] {
            for n in [1usize, 2, 3, 6, 17] {
                let a = real_matrix(n);
                let raw = block(n, m);
                let what = format!("n={n} m={m}");
                assert_eq!(super::super::uses_real_coloring(&a), has_fma_isa());
                let complex = colored(n, m, &a, false, &raw);
                if has_fma_isa() {
                    let real = colored(n, m, &a, true, &raw);
                    assert_bits_eq(&real, &complex, &format!("real body {what}"));
                }
                let mut via_entry = vec![Complex64::ZERO; n * m];
                color_block(n, m, &a, 0.83, &raw, &mut via_entry, &mut Vec::new());
                assert_bits_eq(&via_entry, &complex, &format!("color_block {what}"));
            }
        }
    }

    #[test]
    fn network_sized_real_coloring_is_bit_identical() {
        if !has_fma_isa() {
            return;
        }
        let (n, m) = (64, 256);
        let a = real_matrix(n);
        let raw = block(n, m);
        let complex = colored(n, m, &a, false, &raw);
        let real = colored(n, m, &a, true, &raw);
        assert_bits_eq(&real, &complex, "n=64 m=256");
    }
}
