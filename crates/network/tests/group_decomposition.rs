//! Pins the decomposition of the 16 group covariances of the 1012-link
//! `network_epoch` grid (23×23 nodes, `D_c = 0.4`, threshold 0.1, groups of
//! ≤ 64, default path loss).
//!
//! Every group is real, so `hermitian_eigen` decomposes it with its real
//! Jacobi mirror, stops after the first sweep that rotates nothing, and
//! works on a copy prescaled by a power of two. The digests below were taken
//! from the complex Jacobi that ran every group to `MAX_SWEEPS` before any
//! of those existed, so they hold only while all three keep every bit.

use corrfade_linalg::{hermitian_eigen, CMatrix, HermitianEigen};
use corrfade_models::wsn::{link_field_covariance, LinkCorrelationModel};
use corrfade_network::{partition_links, NetworkSimConfig, Topology};

/// FNV-1a over 64-bit words: the digest of a pinned decomposition.
fn digest(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The 16 group covariances, in leader order.
fn network_groups() -> Vec<CMatrix> {
    let correlation = LinkCorrelationModel::distance_only(0.4);
    let path_loss = NetworkSimConfig::default().path_loss;
    let topology = Topology::grid(23, 23, 1.0).unwrap();
    let pairs = topology.link_pairs();
    let groups = partition_links(&topology, &correlation, 0.1, 64);
    assert_eq!(groups.len(), 16);
    groups
        .groups()
        .iter()
        .map(|g| {
            let group_pairs: Vec<_> = g.iter().map(|&l| pairs[l]).collect();
            link_field_covariance(topology.positions(), &group_pairs, &correlation, &path_loss)
                .unwrap()
        })
        .collect()
}

/// `L = V·√max(λ, 0)`, as `corrfade::eigen_coloring` builds it.
fn coloring_of(e: &HermitianEigen) -> CMatrix {
    let sqrt: Vec<f64> = e.eigenvalues.iter().map(|&l| l.max(0.0).sqrt()).collect();
    e.eigenvectors.scale_columns(&sqrt)
}

#[test]
fn network_group_decompositions_keep_their_pinned_bits() {
    // (eigenvalue bits, `L` with exact zeros folded to +0): an exact zero
    // of an eigenvector may change sign between the two Jacobi bodies.
    const PINNED: [(u64, u64); 16] = [
        (0xcbab_bc92_bc06_ac84, 0xaf2b_8a14_0913_f942),
        (0x9455_1ad5_7cdc_1cb1, 0x144c_5c63_ebaf_2a16),
        (0x3c13_00af_5370_b57c, 0xff04_1511_78b8_8a74),
        (0x9e78_f76b_6124_18ea, 0xcc7a_6cd6_bf66_6b49),
        (0xb10f_3442_3ead_ca48, 0xfa54_c28c_e36a_497e),
        (0xa547_9620_c916_e8c8, 0xf799_2276_d1df_863f),
        (0x038d_99fd_6c59_9b3f, 0xf696_22e0_d966_3211),
        (0x7671_d62c_516f_f96d, 0x034a_801e_8850_30a9),
        (0xd436_25cd_f37e_c302, 0x6741_cd53_b4ba_a2bb),
        (0x6dbc_2cf8_92be_b45b, 0x9c9f_689a_ef3d_e83b),
        (0x8a48_f09c_e7e3_0f20, 0x69c2_394f_f3df_8a14),
        (0x8216_59f5_8827_dd64, 0xad70_1cdb_136a_7c78),
        (0xd10b_9b0e_438a_9345, 0x36f4_5aa1_2305_a8aa),
        (0xe26d_da47_1e02_5e4c, 0x2bf6_0dc5_d4ae_347e),
        (0x908d_b192_077a_39d2, 0xbcb0_3f88_4edb_b9e6),
        (0x5ae9_0b08_b5c8_cbac, 0xdf6b_1256_0cb7_3452),
    ];
    for (g, (k, &(ev, l))) in network_groups().iter().zip(PINNED.iter()).enumerate() {
        assert!(k.as_slice().iter().all(|z| z.im == 0.0), "group {g}");
        let e = hermitian_eigen(k).unwrap();
        assert_eq!(
            digest(e.eigenvalues.iter().map(|x| x.to_bits())),
            ev,
            "group {g}"
        );
        let words = coloring_of(&e)
            .as_slice()
            .iter()
            .flat_map(|z| [(z.re + 0.0).to_bits(), (z.im + 0.0).to_bits()])
            .collect::<Vec<_>>();
        assert_eq!(digest(words.into_iter()), l, "group {g}");
    }
}

#[test]
fn group_decomposition_commutes_with_power_of_two_scaling() {
    let a = network_groups().swap_remove(3);
    let base = hermitian_eigen(&a).unwrap();
    for e in [-900, -600, -40, 40, 600, 900] {
        let f = 2f64.powi(e);
        let scaled = hermitian_eigen(&a.scale_real(f)).unwrap();
        for (x, y) in scaled.eigenvalues.iter().zip(&base.eigenvalues) {
            assert_eq!(x.to_bits(), (y * f).to_bits(), "2^{e}");
        }
        assert_eq!(scaled.eigenvectors, base.eigenvectors, "2^{e}");
    }
}
