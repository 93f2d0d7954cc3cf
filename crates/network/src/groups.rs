//! Partitioning a link field into independently generated correlation groups.
//!
//! The full link-field covariance of a large deployment is sparse in
//! practice: spatial correlation decays exponentially with midpoint
//! separation, so most off-diagonal entries are negligible. Rather than
//! eigendecompose one giant matrix, the simulator drops correlations below a
//! threshold, takes connected components of the remaining "significant
//! correlation" graph, and generates each component with its own correlated
//! generator. Components larger than `max_group_size` are split into
//! consecutive chunks in link order — a documented approximation that caps
//! the cost of any single eigendecomposition while keeping the partition a
//! pure function of the topology (never of thread or shard count).
//!
//! Each group is identified by its **leader** — the smallest global link
//! index it contains. The leader keys the group's RNG seed (see
//! [`crate::shard_seed`]), which is what makes a sharded run bit-identical
//! to a monolithic one: a group's seed depends only on which links correlate,
//! not on which process simulates them.

use corrfade_models::wsn::LinkCorrelationModel;

use crate::topology::Topology;

/// The correlated groups of a link field, each a sorted list of global link
/// indices. Groups are ordered by their leader (first element), so the
/// partition itself is deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorrelationGroups {
    groups: Vec<Vec<usize>>,
}

impl CorrelationGroups {
    /// The groups, each sorted ascending, ordered by leader link index.
    pub fn groups(&self) -> &[Vec<usize>] {
        &self.groups
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether the partition is empty (a topology with no links).
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// The leader (smallest global link index) of group `g` — the seed key
    /// of that group's generator.
    ///
    /// # Panics
    /// Panics if `g` is out of range.
    pub fn leader(&self, g: usize) -> usize {
        self.groups[g][0]
    }
}

/// Partitions the links of `topology` into correlated groups: links whose
/// pairwise spatial correlation under `correlation` is at least `threshold`
/// end up in the same group (transitively), groups larger than
/// `max_group_size` are split into consecutive chunks in ascending link
/// order.
///
/// The result depends only on the topology and the model — not on shard or
/// thread counts — which is the invariant the sharding layer builds on.
///
/// Pairs whose midpoints lie farther apart along x than the model's reach
/// (`−D_c·ln(threshold)` plus a rounding margin) are never evaluated: they
/// cannot pass the threshold, so the edge set, the components and their
/// leaders are those of the all-pairs test. On the 1012-link grid of the
/// `network_epoch` benchmark (`D_c = 0.4`, threshold 0.1) that is about
/// 33,000 of the 511,566 pairs.
pub fn partition_links(
    topology: &Topology,
    correlation: &LinkCorrelationModel,
    threshold: f64,
    max_group_size: usize,
) -> CorrelationGroups {
    let n = topology.link_count();
    let max_group_size = max_group_size.max(1);
    let mut parent: Vec<usize> = (0..n).collect();

    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }

    let geometry: Vec<([f64; 2], f64)> = (0..n)
        .map(|i| (topology.link_midpoint(i), topology.link_orientation(i)))
        .collect();
    if n >= 2 {
        // The model's own parameter checks, which the pair loop below may
        // otherwise never reach.
        let _ = correlation.correlation(0.0, 0.0);
    }
    // Only links within `reach` of each other along x can correlate, so
    // each link is tested against the links after it in midpoint-x order
    // until the gap exceeds the reach. A NaN gap never breaks the scan.
    let reach = correlation_reach(correlation, threshold);
    let mut by_x: Vec<usize> = (0..n).collect();
    by_x.sort_by(|&a, &b| geometry[a].0[0].total_cmp(&geometry[b].0[0]));
    for (pos, &a) in by_x.iter().enumerate() {
        for &b in &by_x[pos + 1..] {
            if geometry[b].0[0] - geometry[a].0[0] > reach {
                break;
            }
            let (k, j) = (a.min(b), a.max(b));
            let d = corrfade_models::wsn::distance(geometry[k].0, geometry[j].0);
            let sep = corrfade_models::wsn::angular_separation(geometry[k].1, geometry[j].1);
            if correlation.correlation(d, sep) >= threshold {
                let (rk, rj) = (find(&mut parent, k), find(&mut parent, j));
                if rk != rj {
                    // Always hang the larger root index under the smaller so
                    // roots coincide with future leaders (and do not depend
                    // on the order the edges are found in).
                    let (lo, hi) = (rk.min(rj), rk.max(rj));
                    parent[hi] = lo;
                }
            }
        }
    }

    // Collect components keyed by root; roots are the minimum member, so
    // iterating links in ascending order yields groups sorted by leader.
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

    // Split oversized components into consecutive chunks (ascending order),
    // then restore the global leader ordering across all resulting groups.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for component in components {
        for chunk in component.chunks(max_group_size) {
            groups.push(chunk.to_vec());
        }
    }
    groups.sort_unstable_by_key(|g| g[0]);
    CorrelationGroups { groups }
}

/// Midpoint distance beyond which `correlation` stays below `threshold`:
/// `ρ ≤ exp(−d/D_c)` (the angular factor is ≤ 1 and the clamp only lowers
/// `ρ`), so a pair with `d > −D_c·ln(threshold)` never passes. The reach
/// adds a relative margin of 1e-9 and an absolute one of `1e-9·D_c`, far
/// above the rounding of `exp`, `ln` and the distance (a few ulps), so the
/// cutoff never drops a pair the exact test would accept. Thresholds that
/// give no finite, non-negative reach return `∞` (every pair is tested).
fn correlation_reach(correlation: &LinkCorrelationModel, threshold: f64) -> f64 {
    let reach = correlation.decorrelation_distance * (-threshold.ln() * (1.0 + 1e-9) + 1e-9);
    if reach >= 0.0 && reach.is_finite() {
        reach
    } else {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn far_apart_pair() -> Topology {
        // Two links 100 units apart: uncorrelated under any short-range model.
        Topology::from_edges(
            vec![[0.0, 0.0], [1.0, 0.0], [100.0, 0.0], [101.0, 0.0]],
            &[(0, 1), (2, 3)],
        )
        .unwrap()
    }

    #[test]
    fn distant_links_land_in_separate_groups() {
        let topo = far_apart_pair();
        let model = LinkCorrelationModel::distance_only(1.0);
        let parts = partition_links(&topo, &model, 0.05, 64);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts.groups(), &[vec![0], vec![1]]);
        assert_eq!(parts.leader(0), 0);
        assert_eq!(parts.leader(1), 1);
    }

    #[test]
    fn nearby_links_merge_transitively() {
        // Chain of three parallel links, each close to the next; the ends are
        // farther apart but must still merge through the middle.
        let topo = Topology::from_edges(
            vec![
                [0.0, 0.0],
                [1.0, 0.0],
                [0.0, 0.6],
                [1.0, 0.6],
                [0.0, 1.2],
                [1.0, 1.2],
            ],
            &[(0, 1), (2, 3), (4, 5)],
        )
        .unwrap();
        let model = LinkCorrelationModel::distance_only(0.5);
        // exp(-0.6/0.5) ≈ 0.30 between neighbours, exp(-1.2/0.5) ≈ 0.09 for
        // the ends — a threshold between the two still yields one component.
        let parts = partition_links(&topo, &model, 0.2, 64);
        assert_eq!(parts.groups(), &[vec![0, 1, 2]]);
    }

    /// Two parallel vertical links whose midpoints are `dx` apart along x.
    fn parallel_pair(dx: f64) -> Topology {
        Topology::from_edges(
            vec![[0.0, 0.0], [0.0, 1.0], [dx, 0.0], [dx, 1.0]],
            &[(0, 1), (2, 3)],
        )
        .unwrap()
    }

    #[test]
    fn a_pair_exactly_at_the_threshold_is_still_tested() {
        // The threshold is the pair's own correlation, so the pair passes
        // with ρ == threshold: the reach must not round below its gap.
        for dc in [0.37, 0.4, 1.0, 2.3] {
            for dx in [0.1, 0.3, 0.5, 0.921, 1.0, 1.7, 2.5, 7.0] {
                let topo = parallel_pair(dx);
                for model in [
                    LinkCorrelationModel::distance_only(dc),
                    LinkCorrelationModel::new(dc, 0.5),
                ] {
                    let d = corrfade_models::wsn::distance(
                        topo.link_midpoint(0),
                        topo.link_midpoint(1),
                    );
                    let threshold = model.correlation(d, 0.0);
                    let parts = partition_links(&topo, &model, threshold, 64);
                    assert_eq!(parts.groups(), &[vec![0, 1]], "D_c = {dc}, dx = {dx}");
                }
            }
        }
    }

    #[test]
    fn threshold_one_joins_links_whose_correlation_rounds_to_one() {
        // exp(−1e-17) rounds to 1.0, so with the clamp lifted to 1.0 this
        // pair passes a threshold of exactly 1.0 although d > 0.
        let mut model = LinkCorrelationModel::distance_only(1.0);
        model.max_correlation = 1.0;
        let parts = partition_links(&parallel_pair(1e-17), &model, 1.0, 64);
        assert_eq!(parts.groups(), &[vec![0, 1]]);
        let parts = partition_links(&parallel_pair(1e-3), &model, 1.0, 64);
        assert_eq!(parts.groups(), &[vec![0], vec![1]]);
    }

    #[test]
    fn oversized_components_split_into_ordered_chunks() {
        let topo = Topology::grid(2, 22, 1.0).unwrap();
        let model = LinkCorrelationModel::distance_only(0.8);
        let parts = partition_links(&topo, &model, 0.2, 16);
        assert_eq!(parts.len(), 4);
        for (g, group) in parts.groups().iter().enumerate() {
            assert_eq!(group.len(), 16);
            assert!(group.windows(2).all(|w| w[0] < w[1]), "group {g} unsorted");
        }
        // Every link appears exactly once across the partition.
        let mut all: Vec<usize> = parts.groups().iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn partition_is_independent_of_max_group_size_when_small() {
        let topo = far_apart_pair();
        let model = LinkCorrelationModel::distance_only(1.0);
        let a = partition_links(&topo, &model, 0.05, 1);
        let b = partition_links(&topo, &model, 0.05, 1024);
        assert_eq!(a, b);
    }
}
