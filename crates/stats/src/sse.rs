//! Sum-of-squared-error (SSE) cluster quality.
//!
//! The paper measures clustering quality as the sum of squared Euclidean
//! distances between every point and the centroid of its cluster, and picks
//! the cluster count at the Pareto-optimal trade-off of SSE versus subset
//! execution time (Section V-C, Fig. 10).

use crate::distance::squared_euclidean;
use crate::StatsError;

/// The centroid (component-wise mean) of the given observation rows.
///
/// # Errors
///
/// Returns [`StatsError::Empty`] when `points` is empty and
/// [`StatsError::DimensionMismatch`] for ragged rows.
pub fn centroid(points: &[&[f64]]) -> Result<Vec<f64>, StatsError> {
    let first = points.first().ok_or(StatsError::Empty {
        what: "centroid points",
    })?;
    let dim = first.len();
    let mut acc = vec![0.0; dim];
    for p in points {
        if p.len() != dim {
            return Err(StatsError::DimensionMismatch {
                op: "centroid",
                left: (1, dim),
                right: (1, p.len()),
            });
        }
        for (a, v) in acc.iter_mut().zip(*p) {
            *a += v;
        }
    }
    for a in &mut acc {
        *a /= points.len() as f64;
    }
    Ok(acc)
}

/// SSE of one cluster: squared distances of members to their centroid.
///
/// # Errors
///
/// Propagates the errors of [`centroid`].
pub fn cluster_sse(points: &[&[f64]]) -> Result<f64, StatsError> {
    let c = centroid(points)?;
    Ok(points.iter().map(|p| squared_euclidean(p, &c)).sum())
}

/// Total SSE of a labelled clustering of `observations`.
///
/// `labels[i]` assigns observation `i` to a cluster; cluster ids need not be
/// contiguous.
///
/// # Errors
///
/// Returns [`StatsError::DimensionMismatch`] if `labels` and `observations`
/// have different lengths, or [`StatsError::Empty`] for no observations.
pub fn total_sse(observations: &[Vec<f64>], labels: &[usize]) -> Result<f64, StatsError> {
    if observations.is_empty() {
        return Err(StatsError::Empty {
            what: "sse observations",
        });
    }
    if observations.len() != labels.len() {
        return Err(StatsError::DimensionMismatch {
            op: "total_sse",
            left: (observations.len(), 1),
            right: (labels.len(), 1),
        });
    }
    let max_label = *labels.iter().max().expect("nonempty");
    let mut groups: Vec<Vec<&[f64]>> = vec![Vec::new(); max_label + 1];
    for (obs, &label) in observations.iter().zip(labels) {
        groups[label].push(obs.as_slice());
    }
    let mut sse = 0.0;
    for group in groups.iter().filter(|g| !g.is_empty()) {
        sse += cluster_sse(group)?;
    }
    Ok(sse)
}

/// One cut of a dendrogram: the labels [`Dendrogram::cut`] gives it and
/// its [`total_sse`].
///
/// [`Dendrogram::cut`]: crate::cluster::Dendrogram::cut
#[derive(Debug, Clone, PartialEq)]
pub struct Cut {
    /// A label in `0..k` per leaf, numbered by each cluster's smallest leaf.
    pub labels: Vec<usize>,
    /// Total SSE of the clustering.
    pub sse: f64,
}

/// Every cut `k = 1..=n` of a dendrogram over `observations`, returned as
/// `cuts[k - 1]`, from one walk over the merges.
///
/// Each cluster's [`cluster_sse`] is computed once, when it forms, over its
/// members in ascending order; a cut's SSE sums its clusters' values in
/// label order from `0.0`. Those are the additions
/// `total_sse(observations, &dendrogram.cut(k)?)` makes, so every cut
/// matches it and [`Dendrogram::cut`] bit for bit.
///
/// [`Dendrogram::cut`]: crate::cluster::Dendrogram::cut
///
/// # Errors
///
/// [`StatsError::DimensionMismatch`] when `observations` does not hold one
/// row per leaf, and the errors of [`cluster_sse`] for ragged rows.
pub fn sse_curve(
    observations: &[Vec<f64>],
    dendrogram: &crate::cluster::Dendrogram,
) -> Result<Vec<Cut>, StatsError> {
    let n = dendrogram.n_leaves();
    if observations.len() != n {
        return Err(StatsError::DimensionMismatch {
            op: "sse_curve",
            left: (observations.len(), 1),
            right: (n, 1),
        });
    }
    // Cluster id -> (ascending members, SSE); leaves are clusters 0..n.
    let mut clusters: Vec<(Vec<usize>, f64)> = Vec::with_capacity(2 * n);
    for (leaf, row) in observations.iter().enumerate() {
        clusters.push((vec![leaf], cluster_sse(&[row.as_slice()])?));
    }
    // Live cluster ids, ordered by smallest member: position = label.
    let mut live: Vec<usize> = (0..n).collect();
    let mut cuts = vec![cut_of(&live, &clusters, n)];
    for m in dendrogram.merges() {
        let (a, b) = (&clusters[m.a].0, &clusters[m.b].0);
        // The new cluster's smallest member is the smaller of the two
        // merged clusters' smallest, so it takes that one's place in `live`.
        let (keep, gone) = if a[0] < b[0] { (m.a, m.b) } else { (m.b, m.a) };
        let mut members = [a.as_slice(), b.as_slice()].concat();
        members.sort_unstable();
        let rows: Vec<&[f64]> = members
            .iter()
            .map(|&i| observations[i].as_slice())
            .collect();
        let sse = cluster_sse(&rows)?;
        live.retain(|&c| c != gone);
        let slot = live
            .iter()
            .position(|&c| c == keep)
            .expect("merged cluster is live");
        live[slot] = m.id;
        debug_assert_eq!(clusters.len(), m.id, "merge ids follow the leaves");
        clusters.push((members, sse));
        cuts.push(cut_of(&live, &clusters, n));
    }
    cuts.reverse();
    Ok(cuts)
}

/// The cut whose clusters are `live`, in label order.
fn cut_of(live: &[usize], clusters: &[(Vec<usize>, f64)], n: usize) -> Cut {
    let mut labels = vec![0; n];
    let mut sse = 0.0;
    for (label, &c) in live.iter().enumerate() {
        for &leaf in &clusters[c].0 {
            labels[leaf] = label;
        }
        sse += clusters[c].1;
    }
    Cut { labels, sse }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{agglomerative, Linkage};
    use crate::distance::Metric;

    #[test]
    fn centroid_of_symmetric_points_is_origin() {
        let pts: Vec<&[f64]> = vec![&[1.0, 0.0], &[-1.0, 0.0], &[0.0, 1.0], &[0.0, -1.0]];
        assert_eq!(centroid(&pts).unwrap(), vec![0.0, 0.0]);
    }

    #[test]
    fn centroid_rejects_empty_and_ragged() {
        assert!(centroid(&[]).is_err());
        let pts: Vec<&[f64]> = vec![&[1.0], &[1.0, 2.0]];
        assert!(centroid(&pts).is_err());
    }

    #[test]
    fn singleton_cluster_sse_zero() {
        let pts: Vec<&[f64]> = vec![&[3.0, 4.0]];
        assert_eq!(cluster_sse(&pts).unwrap(), 0.0);
    }

    #[test]
    fn known_sse() {
        // Points at -1 and 1: centroid 0, SSE = 1 + 1 = 2.
        let pts: Vec<&[f64]> = vec![&[-1.0], &[1.0]];
        assert!((cluster_sse(&pts).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn total_sse_all_singletons_is_zero() {
        let obs = vec![vec![1.0], vec![5.0], vec![9.0]];
        let sse = total_sse(&obs, &[0, 1, 2]).unwrap();
        assert_eq!(sse, 0.0);
    }

    #[test]
    fn total_sse_checks_lengths() {
        let obs = vec![vec![1.0]];
        assert!(total_sse(&obs, &[0, 1]).is_err());
        assert!(total_sse(&[], &[]).is_err());
    }

    #[test]
    fn sse_curve_monotone_decreasing_in_k() {
        let obs = vec![
            vec![0.0, 0.0],
            vec![0.5, 0.2],
            vec![5.0, 5.0],
            vec![5.5, 5.2],
            vec![10.0, 0.0],
        ];
        let tree = agglomerative(&obs, Linkage::Ward, Metric::Euclidean).unwrap();
        let curve: Vec<f64> = sse_curve(&obs, &tree)
            .unwrap()
            .into_iter()
            .map(|c| c.sse)
            .collect();
        assert_eq!(curve.len(), 5);
        // More clusters cannot increase SSE for Ward-style hierarchies.
        assert!(curve.windows(2).all(|w| w[1] <= w[0] + 1e-9), "{curve:?}");
        assert!(curve[4].abs() < 1e-12);
    }
}
