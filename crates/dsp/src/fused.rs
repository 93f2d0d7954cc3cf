//! Fused coloring + inverse-DFT kernel — the real-time hot path written
//! with one output pass instead of two.
//!
//! The two-pass real-time pipeline (Sec. 5 of the paper) first inverts each
//! row's Doppler spectrum (`ifft_in_place`, writing all `N·M` samples once)
//! and then colors the block (`kernel::color_block`, reading all `N·M` raw
//! samples and writing all `N·M` output samples). This kernel folds the
//! coloring into the IDFT's **final butterfly stage**: the last stage of a
//! radix-2 length-`M` transform produces the sample pairs
//! `(x[k], x[k + M/2])` from `(u, v·w_k)` in one pass over `k < M/2`, so the
//! coloring matrix can be applied to each pair *while it is still in
//! registers/L1* — the raw block is never written back after the final
//! stage, and each realtime output sample is written exactly once. For the
//! paper's `N = 3`, `M = 4096` that removes one full block write + read
//! (~393 KiB of round-trip memory traffic per block in f64).
//!
//! # Bit-exactness contract
//!
//! For every backend the fused kernel executes **the same floating-point
//! operation sequence per sample** as the two-pass path, so its output is
//! bit-identical to `ifft_in_place_with` + `color_block_with` on the same
//! backend (pinned by the `fused_*_bit_identical` tests and the
//! `fused_equivalence` proptests):
//!
//! * **scalar** — bit reversal and all butterfly stages except the last run
//!   through the exact historical loops ([`mod@crate::fft`]'s
//!   `scalar_bit_reverse` / `scalar_butterflies`); the final stage advances
//!   its twiddle by the identical serial `w ·= wlen` chain, and the
//!   coloring dot products fold in the same `j` order via the same
//!   [`corrfade_linalg::vector::dot`].
//! * **vector** — the planned table-driven stages run except the last; the
//!   final stage reads the same cached twiddle table with the same
//!   FMA-or-not formula selection, and the coloring accumulates with the
//!   exact [`corrfade_linalg::kernel::axpy_planar`] /
//!   [`corrfade_linalg::kernel::interleave_scaled_into`] inner loops of
//!   `color_block`.
//!
//! Because the f64 scalar path is bit-identical to the two-pass scalar
//! path, which is itself the pinned historical reference, switching the
//! realtime generator to the fused kernel changes **no golden output**.
//!
//! # Real coloring matrices
//!
//! Every network group and every real registry scenario has a coloring
//! matrix `L` whose imaginary parts are all exactly zero. On the vector
//! backend of an AVX2+FMA CPU, when that holds
//! ([`corrfade_linalg::kernel::uses_real_coloring`], checked once per call,
//! `O(N²)` against the `O(N²·M)` coloring), each tile is colored by
//! [`corrfade_linalg::kernel::color_planes_real`] instead of `N²` complex
//! AXPYs: `y = fma(L.re, x, y)` in ascending `j`, two output rows × 8 samples
//! held in registers, in a separate non-inlined `avx2,fma` function (inlined
//! into this kernel's tile loop the same body ran about 2× slower).
//! `color_block` uses the same body, so the fused-vs-two-pass identity
//! above still compares like with like. The bits do not change:
//!
//! * every dropped `L.im·x` term is an exact `±0`;
//! * the accumulators start at `+0`, and a round-to-nearest sum of `+0` and
//!   `±0` is `+0` (adding `±0` to a nonzero value returns it unchanged);
//! * so the two bodies can only differ where an accumulator underflows to
//!   `−0`.
//!
//! The scalar backend (the golden reference), complex matrices (fig4a) and
//! CPUs without AVX2+FMA keep the AXPY body.
//!
//! Lengths that are not a power of two (and `M = 1`, which has no final
//! stage) fall back to literally running the two-pass code, so the
//! contract holds trivially there.

use corrfade_linalg::kernel::{self, backend, Backend};
use corrfade_linalg::vector::{dot, dot32};
use corrfade_linalg::{Complex32, Complex64};

use crate::fft::{
    is_power_of_two, planned_bit_reverse, planned_butterflies, scalar_bit_reverse,
    scalar_butterflies, tables_for,
};
use crate::fft32::{bit_reverse32, butterflies32, ifft32_in_place_with, tables32_for};

/// Inverse-transforms each of the `n` length-`m` rows of `raw` (including
/// the `1/m` factor) and colors the block into `out` in a single fused
/// output pass:
/// `out[i·m + l] = scale · Σ_j a[i·n + j] · IDFT(raw_j)[l]`.
///
/// Runs on the process-wide kernel backend; bit-identical to
/// [`crate::ifft_in_place`] per row followed by
/// [`corrfade_linalg::kernel::color_block`] (see the [module docs](self)).
/// **`raw` is destroyed** (it holds partially-transformed data on return).
/// `w_scratch` and `scratch` are caller-pooled buffers exactly as in
/// `color_block`; with warm buffers the call performs no heap allocation.
///
/// # Panics
/// Panics on any dimension mismatch.
#[allow(clippy::too_many_arguments)]
pub fn color_idft_block(
    n: usize,
    m: usize,
    a: &[Complex64],
    scale: f64,
    raw: &mut [Complex64],
    out: &mut [Complex64],
    w_scratch: &mut Vec<Complex64>,
    scratch: &mut Vec<f64>,
) {
    color_idft_block_with(backend(), n, m, a, scale, raw, out, w_scratch, scratch);
}

/// [`color_idft_block`] on an explicit kernel backend — the entry point the
/// fused-vs-two-pass bit-identity tests and the `kernel_dispatch` benchmark
/// drive.
///
/// # Panics
/// Panics on any dimension mismatch.
#[allow(clippy::too_many_arguments)]
pub fn color_idft_block_with(
    b: Backend,
    n: usize,
    m: usize,
    a: &[Complex64],
    scale: f64,
    raw: &mut [Complex64],
    out: &mut [Complex64],
    w_scratch: &mut Vec<Complex64>,
    scratch: &mut Vec<f64>,
) {
    assert_eq!(a.len(), n * n, "color_idft_block: coloring matrix storage");
    assert_eq!(raw.len(), n * m, "color_idft_block: raw block length");
    assert_eq!(out.len(), n * m, "color_idft_block: output block length");
    if n == 0 || m == 0 {
        return;
    }
    if m == 1 || !is_power_of_two(m) {
        // No final radix-2 stage to fuse into — run the two-pass path
        // (bit-identity is then definitional).
        for j in 0..n {
            crate::fft::ifft_in_place_with(b, &mut raw[j * m..(j + 1) * m]);
        }
        kernel::color_block_with(b, n, m, a, scale, raw, out, w_scratch, scratch);
        return;
    }
    match b {
        Backend::Scalar => fused_scalar(n, m, a, scale, raw, out, w_scratch),
        Backend::Vector => fused_vector(
            n,
            m,
            a,
            kernel::uses_real_coloring(a),
            scale,
            raw,
            out,
            scratch,
        ),
    }
}

/// Scalar fused kernel: historical butterflies for all stages but the last,
/// then the final stage's serial twiddle chain interleaved with the
/// historical gather → dot → scatter coloring.
fn fused_scalar(
    n: usize,
    m: usize,
    a: &[Complex64],
    scale: f64,
    raw: &mut [Complex64],
    out: &mut [Complex64],
    w_scratch: &mut Vec<Complex64>,
) {
    for j in 0..n {
        let row = &mut raw[j * m..(j + 1) * m];
        scalar_bit_reverse(row);
        scalar_butterflies(row, true, m / 2);
    }
    let half = m / 2;
    let inv_m = 1.0 / m as f64;
    // The final stage's twiddle chain, exactly as scalar_butterflies runs
    // it for len = m (one start block, w advanced by serial multiplication).
    let ang = 2.0 * core::f64::consts::PI / m as f64; // sign = +1: inverse
    let wlen = Complex64::cis(ang);
    // Snapshot vectors for the low/high halves of the butterfly pair.
    w_scratch.resize(2 * n, Complex64::ZERO);
    let (w_lo, w_hi) = w_scratch.split_at_mut(n);
    let mut w = Complex64::ONE;
    for k in 0..half {
        for (j, (lo, hi)) in w_lo.iter_mut().zip(w_hi.iter_mut()).enumerate() {
            let u = raw[j * m + k];
            let v = raw[j * m + k + half] * w;
            // The two-pass path stores u ± v and scales by 1/m afterwards;
            // same two operations in the same order here.
            *lo = (u + v).scale(inv_m);
            *hi = (u - v).scale(inv_m);
        }
        for i in 0..n {
            let row = &a[i * n..(i + 1) * n];
            out[i * m + k] = dot(row, w_lo).scale(scale);
            out[i * m + k + half] = dot(row, w_hi).scale(scale);
        }
        w *= wlen;
    }
}

/// Vector fused kernel: planned stages except the last, then the final
/// stage computed per [`COLOR_TILE`](kernel::COLOR_TILE)-pair tile straight
/// into split-complex planes, colored with the exact `color_block` AXPY
/// inner loops. Multiversioned like the planned butterflies: on AVX2+FMA
/// hardware the whole body compiles under `avx2,fma` (and uses the
/// `mul_add` twiddle formula), matching `butterflies_body` bit for bit —
/// without the multiversioning the final-stage tile loop runs baseline
/// codegen and loses more than the fusion saves.
///
/// `real` ([`kernel::uses_real_coloring`], tested once per call) selects the
/// register-blocked [`kernel::color_planes_real`] body for each tile, the
/// body `color_block` uses for a real matrix; the tests pass `false` to pin
/// it against the complex AXPY body.
#[allow(clippy::too_many_arguments)]
fn fused_vector(
    n: usize,
    m: usize,
    a: &[Complex64],
    real: bool,
    scale: f64,
    raw: &mut [Complex64],
    out: &mut [Complex64],
    scratch: &mut Vec<f64>,
) {
    #[cfg(target_arch = "x86_64")]
    if kernel::vector_uses_fma() {
        // SAFETY: guarded by the kernel layer's runtime AVX2+FMA detection.
        unsafe { fused_vector_avx2(n, m, a, real, scale, raw, out, scratch) };
        return;
    }
    fused_vector_body::<false>(n, m, a, real, scale, raw, out, scratch);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn fused_vector_avx2(
    n: usize,
    m: usize,
    a: &[Complex64],
    real: bool,
    scale: f64,
    raw: &mut [Complex64],
    out: &mut [Complex64],
    scratch: &mut Vec<f64>,
) {
    fused_vector_body::<true>(n, m, a, real, scale, raw, out, scratch);
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn fused_vector_body<const FMA: bool>(
    n: usize,
    m: usize,
    a: &[Complex64],
    real: bool,
    scale: f64,
    raw: &mut [Complex64],
    out: &mut [Complex64],
    scratch: &mut Vec<f64>,
) {
    let tables = tables_for(m);
    let nstages = tables.stages.len();
    for j in 0..n {
        let row = &mut raw[j * m..(j + 1) * m];
        planned_bit_reverse(row, &tables);
        planned_butterflies(row, &tables, true, nstages - 1);
    }
    let final_tw = &tables.stages[nstages - 1];
    let half = m / 2;
    let inv_m = 1.0 / m as f64;

    let tile = kernel::COLOR_TILE.min(half);
    // Layout: N lo-re, N lo-im, N hi-re, N hi-im planes, y re/im planes.
    scratch.resize((4 * n + 2) * tile, 0.0);
    let (x_planes, y_planes) = scratch.split_at_mut(4 * n * tile);
    let (lo_planes, hi_planes) = x_planes.split_at_mut(2 * n * tile);
    let (lo_re, lo_im) = lo_planes.split_at_mut(n * tile);
    let (hi_re, hi_im) = hi_planes.split_at_mut(n * tile);
    let (y_re, y_im) = y_planes.split_at_mut(tile);

    let mut k0 = 0;
    while k0 < half {
        let t = tile.min(half - k0);
        for j in 0..n {
            let base = j * m;
            for (idx, k) in (k0..k0 + t).enumerate() {
                let u = raw[base + k];
                let v = raw[base + k + half];
                let w = final_tw[k];
                let wr = w.re;
                let wi = -w.im; // the inverse conjugates the forward table
                let (vr, vi) = if FMA {
                    (v.re.mul_add(wr, -(v.im * wi)), v.re.mul_add(wi, v.im * wr))
                } else {
                    (v.re * wr - v.im * wi, v.re * wi + v.im * wr)
                };
                lo_re[j * tile + idx] = (u.re + vr) * inv_m;
                lo_im[j * tile + idx] = (u.im + vi) * inv_m;
                hi_re[j * tile + idx] = (u.re - vr) * inv_m;
                hi_im[j * tile + idx] = (u.im - vi) * inv_m;
            }
        }
        if real {
            for (planes_re, planes_im, off) in
                [(&*lo_re, &*lo_im, k0), (&*hi_re, &*hi_im, half + k0)]
            {
                kernel::color_planes_real(
                    n,
                    a,
                    planes_re,
                    planes_im,
                    tile,
                    t,
                    scale,
                    &mut out[off..],
                    m,
                );
            }
            k0 += t;
            continue;
        }
        for i in 0..n {
            for (planes_re, planes_im, off) in
                [(&*lo_re, &*lo_im, k0), (&*hi_re, &*hi_im, half + k0)]
            {
                y_re[..t].fill(0.0);
                y_im[..t].fill(0.0);
                for j in 0..n {
                    let c = a[i * n + j];
                    kernel::axpy_planar(
                        c.re,
                        c.im,
                        &planes_re[j * tile..j * tile + t],
                        &planes_im[j * tile..j * tile + t],
                        &mut y_re[..t],
                        &mut y_im[..t],
                    );
                }
                kernel::interleave_scaled_into(
                    &y_re[..t],
                    &y_im[..t],
                    scale,
                    &mut out[i * m + off..i * m + off + t],
                );
            }
        }
        k0 += t;
    }
}

// ---------------------------------------------------------------------------
// f32 fast tier
// ---------------------------------------------------------------------------

/// [`color_idft_block`] in `f32` — half the memory traffic on top of the
/// fusion win. Bit-identical to [`crate::fft32::ifft32_in_place`] per row
/// followed by [`corrfade_linalg::kernel::color_block_f32`] on the same
/// backend, by the same per-sample operation-sequence argument as the f64
/// kernel. **`raw` is destroyed.**
///
/// # Panics
/// Panics on any dimension mismatch.
#[allow(clippy::too_many_arguments)]
pub fn color_idft_block32(
    n: usize,
    m: usize,
    a: &[Complex32],
    scale: f32,
    raw: &mut [Complex32],
    out: &mut [Complex32],
    w_scratch: &mut Vec<Complex32>,
    scratch: &mut Vec<f32>,
) {
    color_idft_block32_with(backend(), n, m, a, scale, raw, out, w_scratch, scratch);
}

/// [`color_idft_block32`] on an explicit kernel backend.
///
/// # Panics
/// Panics on any dimension mismatch.
#[allow(clippy::too_many_arguments)]
pub fn color_idft_block32_with(
    b: Backend,
    n: usize,
    m: usize,
    a: &[Complex32],
    scale: f32,
    raw: &mut [Complex32],
    out: &mut [Complex32],
    w_scratch: &mut Vec<Complex32>,
    scratch: &mut Vec<f32>,
) {
    assert_eq!(
        a.len(),
        n * n,
        "color_idft_block32: coloring matrix storage"
    );
    assert_eq!(raw.len(), n * m, "color_idft_block32: raw block length");
    assert_eq!(out.len(), n * m, "color_idft_block32: output block length");
    if n == 0 || m == 0 {
        return;
    }
    if m == 1 || !is_power_of_two(m) {
        for j in 0..n {
            ifft32_in_place_with(b, &mut raw[j * m..(j + 1) * m]);
        }
        kernel::color_block_f32_with(b, n, m, a, scale, raw, out, w_scratch, scratch);
        return;
    }
    match b {
        Backend::Scalar => fused_scalar32(n, m, a, scale, raw, out, w_scratch),
        Backend::Vector => fused_vector32(n, m, a, scale, raw, out, scratch),
    }
}

/// Scalar f32 fused kernel. The f32 tier's scalar transform is table-driven
/// (see [`crate::fft32`]), so the final stage reads the same narrowed
/// twiddle table with the same plain mul/add formula as
/// `butterflies32_body::<false>`.
fn fused_scalar32(
    n: usize,
    m: usize,
    a: &[Complex32],
    scale: f32,
    raw: &mut [Complex32],
    out: &mut [Complex32],
    w_scratch: &mut Vec<Complex32>,
) {
    let tables = tables32_for(m);
    let nstages = tables.stages.len();
    for j in 0..n {
        let row = &mut raw[j * m..(j + 1) * m];
        bit_reverse32(row, &tables);
        butterflies32(Backend::Scalar, row, &tables, true, nstages - 1);
    }
    let final_tw = &tables.stages[nstages - 1];
    let half = m / 2;
    let inv_m = 1.0f32 / m as f32;
    w_scratch.resize(2 * n, Complex32::ZERO);
    let (w_lo, w_hi) = w_scratch.split_at_mut(n);
    for k in 0..half {
        let w = final_tw[k];
        let wr = w.re;
        let wi = -w.im; // the inverse conjugates the forward table
        for (j, (lo, hi)) in w_lo.iter_mut().zip(w_hi.iter_mut()).enumerate() {
            let u = raw[j * m + k];
            let v = raw[j * m + k + half];
            let (vr, vi) = (v.re * wr - v.im * wi, v.re * wi + v.im * wr);
            *lo = Complex32::new((u.re + vr) * inv_m, (u.im + vi) * inv_m);
            *hi = Complex32::new((u.re - vr) * inv_m, (u.im - vi) * inv_m);
        }
        for i in 0..n {
            let row = &a[i * n..(i + 1) * n];
            out[i * m + k] = dot32(row, w_lo).scale(scale);
            out[i * m + k + half] = dot32(row, w_hi).scale(scale);
        }
    }
}

/// Vector f32 fused kernel — the half-width sibling of the f64 vector path
/// with twice the butterfly pairs per tile at the same byte footprint.
/// Multiversioned exactly like [`fused_vector`].
fn fused_vector32(
    n: usize,
    m: usize,
    a: &[Complex32],
    scale: f32,
    raw: &mut [Complex32],
    out: &mut [Complex32],
    scratch: &mut Vec<f32>,
) {
    #[cfg(target_arch = "x86_64")]
    if kernel::vector_uses_fma() {
        // SAFETY: guarded by the kernel layer's runtime AVX2+FMA detection.
        unsafe { fused_vector32_avx2(n, m, a, scale, raw, out, scratch) };
        return;
    }
    fused_vector32_body::<false>(n, m, a, scale, raw, out, scratch);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn fused_vector32_avx2(
    n: usize,
    m: usize,
    a: &[Complex32],
    scale: f32,
    raw: &mut [Complex32],
    out: &mut [Complex32],
    scratch: &mut Vec<f32>,
) {
    fused_vector32_body::<true>(n, m, a, scale, raw, out, scratch);
}

#[inline(always)]
fn fused_vector32_body<const FMA: bool>(
    n: usize,
    m: usize,
    a: &[Complex32],
    scale: f32,
    raw: &mut [Complex32],
    out: &mut [Complex32],
    scratch: &mut Vec<f32>,
) {
    let tables = tables32_for(m);
    let nstages = tables.stages.len();
    for j in 0..n {
        let row = &mut raw[j * m..(j + 1) * m];
        bit_reverse32(row, &tables);
        butterflies32(Backend::Vector, row, &tables, true, nstages - 1);
    }
    let final_tw = &tables.stages[nstages - 1];
    let half = m / 2;
    let inv_m = 1.0f32 / m as f32;

    let tile = kernel::COLOR_TILE.min(half);
    scratch.resize((4 * n + 2) * tile, 0.0);
    let (x_planes, y_planes) = scratch.split_at_mut(4 * n * tile);
    let (lo_planes, hi_planes) = x_planes.split_at_mut(2 * n * tile);
    let (lo_re, lo_im) = lo_planes.split_at_mut(n * tile);
    let (hi_re, hi_im) = hi_planes.split_at_mut(n * tile);
    let (y_re, y_im) = y_planes.split_at_mut(tile);

    let mut k0 = 0;
    while k0 < half {
        let t = tile.min(half - k0);
        for j in 0..n {
            let base = j * m;
            for (idx, k) in (k0..k0 + t).enumerate() {
                let u = raw[base + k];
                let v = raw[base + k + half];
                let w = final_tw[k];
                let wr = w.re;
                let wi = -w.im;
                let (vr, vi) = if FMA {
                    (v.re.mul_add(wr, -(v.im * wi)), v.re.mul_add(wi, v.im * wr))
                } else {
                    (v.re * wr - v.im * wi, v.re * wi + v.im * wr)
                };
                lo_re[j * tile + idx] = (u.re + vr) * inv_m;
                lo_im[j * tile + idx] = (u.im + vi) * inv_m;
                hi_re[j * tile + idx] = (u.re - vr) * inv_m;
                hi_im[j * tile + idx] = (u.im - vi) * inv_m;
            }
        }
        for i in 0..n {
            for (planes_re, planes_im, off) in
                [(&*lo_re, &*lo_im, k0), (&*hi_re, &*hi_im, half + k0)]
            {
                y_re[..t].fill(0.0);
                y_im[..t].fill(0.0);
                for j in 0..n {
                    let c = a[i * n + j];
                    kernel::axpy_planar_f32(
                        c.re,
                        c.im,
                        &planes_re[j * tile..j * tile + t],
                        &planes_im[j * tile..j * tile + t],
                        &mut y_re[..t],
                        &mut y_im[..t],
                    );
                }
                kernel::interleave_scaled_into_f32(
                    &y_re[..t],
                    &y_im[..t],
                    scale,
                    &mut out[i * m + off..i * m + off + t],
                );
            }
        }
        k0 += t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corrfade_linalg::c64;

    fn block(n: usize, m: usize) -> Vec<Complex64> {
        (0..n * m)
            .map(|i| {
                let t = i as f64;
                c64((0.37 * t).sin(), (0.71 * t).cos() * 0.5)
            })
            .collect()
    }

    fn matrix(n: usize) -> Vec<Complex64> {
        (0..n * n)
            .map(|i| c64(0.3 + 0.1 * i as f64, -0.05 * i as f64))
            .collect()
    }

    fn block32(n: usize, m: usize) -> Vec<Complex32> {
        block(n, m).into_iter().map(Complex32::narrow).collect()
    }

    fn matrix32(n: usize) -> Vec<Complex32> {
        matrix(n).into_iter().map(Complex32::narrow).collect()
    }

    /// Shapes covering the paper's (3, 4096), tiny powers of two (including
    /// the no-middle-stages m = 2), multi-tile halves and the non-pow2 and
    /// m = 1 fallbacks.
    const SHAPES: [(usize, usize); 7] = [
        (1, 8),
        (2, 2),
        (3, 64),
        (3, 1024),
        (4, 512),
        (2, 100),
        (3, 1),
    ];

    #[test]
    fn fused_f64_is_bit_identical_to_two_pass() {
        for b in [Backend::Scalar, Backend::Vector] {
            for (n, m) in SHAPES {
                let a = matrix(n);
                let raw = block(n, m);
                let scale = 0.83;

                let mut two_pass_raw = raw.clone();
                let mut expected = vec![Complex64::ZERO; n * m];
                let (mut w, mut s) = (Vec::new(), Vec::new());
                for j in 0..n {
                    crate::fft::ifft_in_place_with(b, &mut two_pass_raw[j * m..(j + 1) * m]);
                }
                kernel::color_block_with(
                    b,
                    n,
                    m,
                    &a,
                    scale,
                    &two_pass_raw,
                    &mut expected,
                    &mut w,
                    &mut s,
                );

                let mut fused_raw = raw;
                let mut got = vec![Complex64::ZERO; n * m];
                let (mut w, mut s) = (Vec::new(), Vec::new());
                color_idft_block_with(b, n, m, &a, scale, &mut fused_raw, &mut got, &mut w, &mut s);
                assert_eq!(got, expected, "{b:?} n={n} m={m}");
            }
        }
    }

    #[test]
    fn fused_f32_is_bit_identical_to_two_pass() {
        for b in [Backend::Scalar, Backend::Vector] {
            for (n, m) in SHAPES {
                let a = matrix32(n);
                let raw = block32(n, m);
                let scale = 0.83f32;

                let mut two_pass_raw = raw.clone();
                let mut expected = vec![Complex32::ZERO; n * m];
                let (mut w, mut s) = (Vec::new(), Vec::new());
                for j in 0..n {
                    ifft32_in_place_with(b, &mut two_pass_raw[j * m..(j + 1) * m]);
                }
                kernel::color_block_f32_with(
                    b,
                    n,
                    m,
                    &a,
                    scale,
                    &two_pass_raw,
                    &mut expected,
                    &mut w,
                    &mut s,
                );

                let mut fused_raw = raw;
                let mut got = vec![Complex32::ZERO; n * m];
                let (mut w, mut s) = (Vec::new(), Vec::new());
                color_idft_block32_with(
                    b,
                    n,
                    m,
                    &a,
                    scale,
                    &mut fused_raw,
                    &mut got,
                    &mut w,
                    &mut s,
                );
                assert_eq!(got, expected, "{b:?} n={n} m={m}");
            }
        }
    }

    /// A real coloring matrix with negative and exact-zero entries.
    fn real_matrix(n: usize) -> Vec<Complex64> {
        (0..n * n)
            .map(|i| match i % 7 {
                0 => Complex64::ZERO,
                3 => c64(-0.0, 0.0),
                _ => c64(((i * 7919) % 101) as f64 / 50.0 - 1.0, 0.0),
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

    #[test]
    fn real_coloring_keeps_the_fused_and_two_pass_bits() {
        // The vector backend colors a real matrix with the register-blocked
        // real body in both paths; the fused kernel must still match the
        // two-pass one, and the real body the complex AXPY body.
        let shapes = [
            (3usize, 64usize),
            (17, 64),
            (64, 256),
            (3, 256),
            (17, 4096),
            (3, 1003),
            (17, 1003),
        ];
        for (n, m) in shapes {
            let a = real_matrix(n);
            let raw = block(n, m);
            let what = format!("n={n} m={m}");

            let mut two_pass_raw = raw.clone();
            for j in 0..n {
                crate::fft::ifft_in_place_with(
                    Backend::Vector,
                    &mut two_pass_raw[j * m..(j + 1) * m],
                );
            }
            let mut expected = vec![Complex64::ZERO; n * m];
            let (mut w, mut s) = (Vec::new(), Vec::new());
            kernel::color_block_with(
                Backend::Vector,
                n,
                m,
                &a,
                0.83,
                &two_pass_raw,
                &mut expected,
                &mut w,
                &mut s,
            );

            let mut fused_raw = raw.clone();
            let mut got = vec![Complex64::ZERO; n * m];
            color_idft_block_with(
                Backend::Vector,
                n,
                m,
                &a,
                0.83,
                &mut fused_raw,
                &mut got,
                &mut w,
                &mut s,
            );
            assert_bits_eq(&got, &expected, &format!("fused vs two-pass {what}"));

            if is_power_of_two(m) {
                let mut complex_raw = raw;
                let mut complex = vec![Complex64::ZERO; n * m];
                fused_vector(
                    n,
                    m,
                    &a,
                    false,
                    0.83,
                    &mut complex_raw,
                    &mut complex,
                    &mut s,
                );
                assert_bits_eq(&got, &complex, &format!("real vs complex body {what}"));
            }
        }
    }

    #[test]
    fn fused_backends_agree_within_vector_tolerance() {
        let (n, m) = (3, 256);
        let a = matrix(n);
        let raw = block(n, m);
        let mut outs = [Vec::new(), Vec::new()];
        for (slot, b) in outs.iter_mut().zip([Backend::Scalar, Backend::Vector]) {
            let mut r = raw.clone();
            let mut out = vec![Complex64::ZERO; n * m];
            let (mut w, mut s) = (Vec::new(), Vec::new());
            color_idft_block_with(b, n, m, &a, 1.0, &mut r, &mut out, &mut w, &mut s);
            *slot = out;
        }
        for (s, v) in outs[0].iter().zip(outs[1].iter()) {
            assert!(s.approx_eq(*v, 1e-12), "{s} vs {v}");
        }
    }

    #[test]
    fn empty_dimensions_are_no_ops() {
        let (mut w, mut s) = (Vec::new(), Vec::new());
        color_idft_block(0, 0, &[], 1.0, &mut [], &mut [], &mut w, &mut s);
        let (mut w, mut s) = (Vec::new(), Vec::new());
        color_idft_block32(0, 0, &[], 1.0, &mut [], &mut [], &mut w, &mut s);
    }
}
