//! Property coverage of the topology → covariance path: any random layout
//! must yield a link-field covariance the generator stack accepts.
//!
//! * pairwise correlations are finite and clamped to `[0, max_correlation]`,
//! * the covariance is Hermitian with positive diagonal,
//! * it is positive semidefinite within the eigensolver tolerance,
//! * [`link_field_covariance`] (the `CovarianceBuilder` path) and
//!   [`cached_eigen_coloring`] both succeed, i.e. the matrix is decomposable
//!   and a generator could be opened on it,
//! * [`partition_links`], which only tests link pairs within the model's
//!   reach along x, returns exactly the groups of the all-pairs test.

use corrfade::cached_eigen_coloring;
use corrfade_linalg::hermitian_eigen;
use corrfade_models::wsn::{
    angular_separation, link_field_covariance, LinkCorrelationModel, LogDistancePathLoss,
};
use corrfade_network::{partition_links, Topology};
use proptest::prelude::*;

/// Random node layout in a 10×10 field plus model parameters. Node counts up
/// to 16 with a generous radius keep the link count at or below the
/// `16·15/2 = 120` complete-graph bound while regularly exercising dense
/// fields beyond the issue's N = 64 target.
fn layout() -> impl Strategy<Value = (Vec<[f64; 2]>, f64, f64, f64)> {
    (
        proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0), 2..=16),
        1.0f64..6.0, // connectivity radius
        0.2f64..3.0, // decorrelation distance
        0.2f64..2.0, // angular scale (radians)
    )
        .prop_map(|(points, radius, dc, theta)| {
            let positions: Vec<[f64; 2]> = points.into_iter().map(|(x, y)| [x, y]).collect();
            (positions, radius, dc, theta)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_layouts_always_yield_a_decomposable_covariance(
        input in layout(),
    ) {
        let (positions, radius, dc, theta) = input;
        let topology = Topology::connectivity(positions.clone(), radius).unwrap();
        if topology.link_count() == 0 {
            return; // a layout with no links has nothing to decompose
        }
        let correlation = LinkCorrelationModel::new(dc, theta);
        let path_loss = LogDistancePathLoss {
            reference_snr_db: 15.0,
            reference_distance: 1.0,
            exponent: 3.0,
        };

        // Pairwise correlations are finite and clamped.
        let n = topology.link_count();
        for k in 0..n {
            for j in 0..n {
                let d = corrfade_models::wsn::distance(
                    topology.link_midpoint(k),
                    topology.link_midpoint(j),
                );
                let sep = angular_separation(
                    topology.link_orientation(k),
                    topology.link_orientation(j),
                );
                let rho = correlation.correlation(d, sep);
                prop_assert!(rho.is_finite());
                prop_assert!((-1.0..=1.0).contains(&rho), "rho out of range: {rho}");
                prop_assert!(rho >= 0.0, "exponential-decay model must be non-negative");
            }
        }

        // The builder path accepts the field...
        let k = link_field_covariance(
            &positions,
            &topology.link_pairs(),
            &correlation,
            &path_loss,
        )
        .expect("link_field_covariance must succeed on a valid layout");

        // ...the matrix is Hermitian with positive diagonal...
        prop_assert_eq!(k.rows(), n);
        for i in 0..n {
            prop_assert!(k[(i, i)].re > 0.0);
            prop_assert!(k[(i, i)].im.abs() < 1e-15);
            for j in 0..n {
                let kij = k[(i, j)];
                let kji = k[(j, i)];
                prop_assert!((kij.re - kji.re).abs() < 1e-12);
                prop_assert!((kij.im + kji.im).abs() < 1e-12);
            }
        }

        // ...positive semidefinite within tolerance...
        let eig = hermitian_eigen(&k).expect("eigendecomposition must converge");
        prop_assert!(
            eig.is_positive_semidefinite(1e-8),
            "link-field covariance lost PSD-ness"
        );

        // ...and the cached coloring (what NetworkSim opens generators from)
        // succeeds as well.
        let coloring = cached_eigen_coloring(&k).expect("coloring must succeed");
        prop_assert_eq!(coloring.dimension(), n);
    }
}

/// The all-pairs partition `partition_links` computed before it learned to
/// skip pairs beyond the correlation reach: union-find over every pair that
/// passes the threshold, components chunked in link order.
fn all_pairs_partition(
    topology: &Topology,
    correlation: &LinkCorrelationModel,
    threshold: f64,
    max_group_size: usize,
) -> Vec<Vec<usize>> {
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let n = topology.link_count();
    let mut parent: Vec<usize> = (0..n).collect();
    for k in 0..n {
        for j in (k + 1)..n {
            let d = corrfade_models::wsn::distance(
                topology.link_midpoint(k),
                topology.link_midpoint(j),
            );
            let sep =
                angular_separation(topology.link_orientation(k), topology.link_orientation(j));
            if correlation.correlation(d, sep) >= threshold {
                let (rk, rj) = (find(&mut parent, k), find(&mut parent, j));
                if rk != rj {
                    parent[rk.max(rj)] = rk.min(rj);
                }
            }
        }
    }
    let mut components: Vec<Vec<usize>> = Vec::new();
    let mut component_of_root: Vec<Option<usize>> = vec![None; n];
    for link in 0..n {
        let root = find(&mut parent, link);
        match component_of_root[root] {
            Some(c) => components[c].push(link),
            None => {
                component_of_root[root] = Some(components.len());
                components.push(vec![link]);
            }
        }
    }
    let mut groups: Vec<Vec<usize>> = components
        .iter()
        .flat_map(|c| c.chunks(max_group_size.max(1)).map(<[usize]>::to_vec))
        .collect();
    groups.sort_unstable_by_key(|g| g[0]);
    groups
}

/// A layout for the partition check: points on a half-unit lattice (so
/// midpoints coincide and pairs sit at exactly representable distances) or
/// anywhere in the field, a radius, a model and a threshold. Thresholds go
/// up to exactly 1.0 and include the model's own value at a lattice
/// distance, where a pair passes with `ρ == threshold`.
#[allow(clippy::type_complexity)]
fn partition_case() -> impl Strategy<Value = (Vec<[f64; 2]>, f64, LinkCorrelationModel, f64, usize)>
{
    (
        proptest::collection::vec((0u32..24, 0u32..24, 0.0f64..12.0, 0.0f64..12.0), 2..=28),
        (0u32..2, 1.0f64..5.0),
        (0.1f64..3.0, 0.2f64..2.0, 0u32..4, 0u32..2),
        (0u32..4, 0.0005f64..1.0, 1u32..8),
        1usize..40,
    )
        .prop_map(
            |(points, (lattice, radius), (dc, theta, kind, clamp), (tkind, t, q), max_group)| {
                let positions = points
                    .into_iter()
                    .map(|(i, j, x, y)| {
                        if lattice == 1 {
                            [f64::from(i) * 0.5, f64::from(j) * 0.5]
                        } else {
                            [x, y]
                        }
                    })
                    .collect();
                let mut model = if kind == 0 {
                    LinkCorrelationModel::new(dc, theta)
                } else {
                    LinkCorrelationModel::distance_only(dc)
                };
                if clamp == 1 {
                    model.max_correlation = 1.0;
                }
                let threshold = match tkind {
                    0 => 1.0,
                    1 => model.correlation(f64::from(q) * 0.5, 0.0),
                    _ => t,
                };
                (positions, radius, model, threshold, max_group)
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pruned_partition_matches_the_all_pairs_partition(case in partition_case()) {
        let (positions, radius, model, threshold, max_group) = case;
        let topology = Topology::connectivity(positions, radius).unwrap();
        let pruned = partition_links(&topology, &model, threshold, max_group);
        let reference = all_pairs_partition(&topology, &model, threshold, max_group);
        prop_assert_eq!(pruned.groups(), reference.as_slice());
    }
}
