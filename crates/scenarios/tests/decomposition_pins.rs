//! Pins the decomposition of every registry scenario's covariance.
//!
//! `hermitian_eigen` decomposes a real covariance with its real Jacobi
//! mirror and a complex one with the complex Jacobi; both stop after the
//! first sweep that rotates nothing and work on a copy prescaled by a power
//! of two. The digests below were taken from the complex Jacobi that ran
//! every matrix until converged or `MAX_SWEEPS`, before any of those
//! existed, so they hold only while all three keep every bit.

use corrfade_linalg::{hermitian_eigen, CMatrix, HermitianEigen};

/// FNV-1a over 64-bit words: the digest of a pinned decomposition.
fn digest(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `L = V·√max(λ, 0)`, as `corrfade::eigen_coloring` builds it.
fn coloring_of(e: &HermitianEigen) -> CMatrix {
    let sqrt: Vec<f64> = e.eigenvalues.iter().map(|&l| l.max(0.0).sqrt()).collect();
    e.eigenvectors.scale_columns(&sqrt)
}

/// (name, every entry real, eigenvalue bits, `L` with exact zeros folded
/// to +0): an exact zero of an eigenvector may change sign between the
/// two Jacobi bodies.
#[rustfmt::skip]
const PINNED: [(&str, bool, u64, u64); 16] = [
    ("fig4a-spectral", false, 0xad75_f67a_3947_b04f, 0xa647_6bca_0bd2_d6d7),
    ("fig4b-spatial", true, 0xd0c3_26da_17a0_39a8, 0xcf1a_c1e9_bb27_df58),
    ("mimo-ula-halfwave", true, 0x591d_ef0b_e00c_fa63, 0xa102_e2a0_37d1_8f4d),
    ("mimo-offbroadside", false, 0x564d_5264_6a1d_c6f0, 0xc4dc_71e3_e9be_e7aa),
    ("unequal-power-spatial", true, 0x99a0_460d_103c_5cf6, 0x1269_588d_a59b_1894),
    ("unequal-power-geometric", true, 0x1e3f_7b34_41a6_5d24, 0x2d8f_d1c6_7fa7_5e2b),
    ("two-envelope-complex", false, 0xb3d6_f5f9_05ce_d99c, 0x79e8_45a5_b62f_4b68),
    ("indefinite-rho08", true, 0x026b_7e24_a4dd_acde, 0xcaa5_ed89_edf7_6181),
    ("indefinite-rho09", true, 0x3b3e_80a4_120f_f415, 0xc5ac_26a6_b26e_a647),
    ("near-singular-eps1e6", true, 0x0f50_769d_9d80_6eb4, 0x7f55_0313_fb77_3f66),
    ("near-singular-eps1e9", true, 0xf8bc_4bce_306a_305c, 0x4242_08e9_195d_9a3b),
    ("near-singular-eps1e13", true, 0x9719_9baa_bd27_d7e1, 0x1274_b43f_1efc_e6f5),
    ("quickstart-demo", false, 0x0eb9_eccd_b6a4_cbe7, 0xf885_d09e_aa08_0dca),
    ("baseline-unequal", false, 0xa4eb_b98e_c352_882f, 0x61f8_1690_c110_6172),
    ("scaling-exp-rho07", true, 0xeac2_f1a5_4b54_f46a, 0xd8f3_e2ac_4ae1_d9e6),
    ("complex-exp-rho08", false, 0xa71b_0747_1496_3a95, 0x540d_02b1_31cf_9782),
];

#[test]
fn registry_decompositions_keep_their_pinned_bits() {
    let names: Vec<&str> = corrfade_scenarios::iter().map(|s| s.name).collect();
    let pinned: Vec<&str> = PINNED.iter().map(|p| p.0).collect();
    assert_eq!(names, pinned, "registry changed: re-pin it");
    for &(name, real, ev, l) in &PINNED {
        let k = corrfade_scenarios::lookup(name)
            .unwrap()
            .covariance_matrix()
            .unwrap();
        assert_eq!(k.as_slice().iter().all(|z| z.im == 0.0), real, "{name}");
        let e = hermitian_eigen(&k).unwrap();
        assert_eq!(
            digest(e.eigenvalues.iter().map(|x| x.to_bits())),
            ev,
            "{name}"
        );
        let words = coloring_of(&e)
            .as_slice()
            .iter()
            .flat_map(|z| [(z.re + 0.0).to_bits(), (z.im + 0.0).to_bits()])
            .collect::<Vec<_>>();
        assert_eq!(digest(words.into_iter()), l, "{name}");
    }
}
