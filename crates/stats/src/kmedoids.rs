//! K-medoids (PAM-style) clustering — an alternative subsetting baseline.
//!
//! The paper picks representatives by hierarchical clustering plus a
//! shortest-runtime rule. K-medoids offers a natural baseline comparison:
//! its medoids *are* representatives by construction (the member minimizing
//! the total distance to its cluster). The ablation benches compare subset
//! quality between the two approaches.

use crate::distance::{DistanceTable, Metric};
use crate::StatsError;

/// Result of a k-medoids run.
#[derive(Debug, Clone, PartialEq)]
pub struct KMedoids {
    /// Indices of the chosen medoids (cluster centers), sorted.
    pub medoids: Vec<usize>,
    /// Cluster label (index into `medoids`) per observation.
    pub labels: Vec<usize>,
    /// Total distance of every observation to its medoid.
    pub cost: f64,
    /// Number of swap iterations performed.
    pub iterations: usize,
}

/// Maximum PAM swap passes before declaring convergence failure.
const MAX_ITERATIONS: usize = 200;

/// Runs PAM-style k-medoids with deterministic (greedy) initialization.
///
/// Initialization picks the observation with minimal total distance first,
/// then greedily adds the point that most reduces cost (the BUILD phase of
/// classic PAM); the swap phase then iterates to a local optimum. The whole
/// procedure is deterministic.
///
/// # Errors
///
/// Returns [`StatsError::InvalidArgument`] unless `1 <= k <= n`, and
/// [`StatsError::Empty`] for no observations.
pub fn k_medoids(
    observations: &[Vec<f64>],
    k: usize,
    metric: Metric,
) -> Result<KMedoids, StatsError> {
    check_k(observations.len(), k)?;
    k_medoids_table(&DistanceTable::from_rows(observations, metric)?, k)
}

fn check_k(n: usize, k: usize) -> Result<(), StatsError> {
    if n == 0 {
        return Err(StatsError::Empty {
            what: "k-medoids observations",
        });
    }
    if k == 0 || k > n {
        return Err(StatsError::InvalidArgument {
            what: "k must be within 1..=n",
        });
    }
    Ok(())
}

/// [`k_medoids`] over a precomputed distance table, so a caller trying
/// several `k` on the same observations builds the table once.
///
/// Each row caches its nearest and second-nearest medoid distance, so
/// pricing one swap costs O(n) rather than a full O(n·k) reassignment.
/// The result is bit-identical to a plain PAM that reassigns every row
/// per candidate swap: candidates are visited in the same order, ties
/// break the same way, and costs are summed in the same row order.
///
/// # Errors
///
/// As [`k_medoids`].
pub fn k_medoids_table(d: &DistanceTable, k: usize) -> Result<KMedoids, StatsError> {
    let n = d.len();
    check_k(n, k)?;
    let by_value =
        |a: &(usize, f64), b: &(usize, f64)| a.1.partial_cmp(&b.1).expect("finite distances");

    // BUILD: first medoid minimizes total distance; the rest greedily
    // maximize cost reduction. `nearest[j]` is row j's distance to its
    // closest medoid so far.
    let (first, _) = (0..n)
        .map(|a| (a, (0..n).map(|j| d.get(a, j)).sum::<f64>()))
        .min_by(by_value)
        .expect("n > 0");
    let mut medoids: Vec<usize> = Vec::with_capacity(k);
    medoids.push(first);
    let mut nearest: Vec<f64> = (0..n).map(|j| d.get(first, j)).collect();
    while medoids.len() < k {
        let (best, _) = (0..n)
            .filter(|i| !medoids.contains(i))
            .map(|cand| {
                let cost: f64 = (0..n).map(|j| nearest[j].min(d.get(cand, j))).sum();
                (cand, cost)
            })
            .min_by(by_value)
            .expect("candidates remain");
        medoids.push(best);
        for (j, near) in nearest.iter_mut().enumerate() {
            *near = near.min(d.get(best, j));
        }
    }

    // SWAP: hill-climb until no single medoid/non-medoid swap improves cost.
    // Removing medoid `mi` leaves row j at its second-nearest distance when
    // `mi` was its nearest, else at its nearest.
    let mut rows = NearestTwo::of(d, &medoids);
    let (_, mut cost) = assign(d, &medoids);
    let mut iterations = 0;
    loop {
        iterations += 1;
        if iterations > MAX_ITERATIONS {
            return Err(StatsError::NoConvergence {
                routine: "k-medoids swap phase",
                iterations: MAX_ITERATIONS,
            });
        }
        let mut improved = false;
        for mi in 0..k {
            for cand in 0..n {
                if medoids.contains(&cand) {
                    continue;
                }
                let mut new_cost = 0.0;
                for j in 0..n {
                    let rest = if rows.label[j] == mi {
                        rows.second[j]
                    } else {
                        rows.first[j]
                    };
                    new_cost += rest.min(d.get(cand, j));
                }
                if new_cost + 1e-12 < cost {
                    medoids[mi] = cand;
                    rows = NearestTwo::of(d, &medoids);
                    cost = new_cost;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    medoids.sort_unstable();
    let (labels, cost) = assign(d, &medoids);
    Ok(KMedoids {
        medoids,
        labels,
        cost,
        iterations,
    })
}

/// Labels every row with its nearest medoid (the first on ties) and sums
/// those distances in row order.
fn assign(d: &DistanceTable, medoids: &[usize]) -> (Vec<usize>, f64) {
    let mut labels = vec![0usize; d.len()];
    let mut cost = 0.0;
    for (j, slot) in labels.iter_mut().enumerate() {
        let (label, dist) = medoids
            .iter()
            .enumerate()
            .map(|(li, &m)| (li, d.get(m, j)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"))
            .expect("k >= 1");
        *slot = label;
        cost += dist;
    }
    (labels, cost)
}

/// Per row: the nearest medoid's index into the medoid list and its
/// distance, and the smallest distance to any other medoid (infinite for
/// a single medoid).
struct NearestTwo {
    label: Vec<usize>,
    first: Vec<f64>,
    second: Vec<f64>,
}

impl NearestTwo {
    fn of(d: &DistanceTable, medoids: &[usize]) -> Self {
        let n = d.len();
        let mut rows = NearestTwo {
            label: vec![0; n],
            first: vec![f64::INFINITY; n],
            second: vec![f64::INFINITY; n],
        };
        for j in 0..n {
            for (li, &m) in medoids.iter().enumerate() {
                let v = d.get(m, j);
                if v < rows.first[j] {
                    rows.second[j] = rows.first[j];
                    rows.first[j] = v;
                    rows.label[j] = li;
                } else {
                    rows.second[j] = rows.second[j].min(v);
                }
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plain PAM `k_medoids_table` must match bit for bit: every
    /// candidate swap reassigns all rows from scratch.
    fn pam_reference(d: &DistanceTable, k: usize) -> Result<KMedoids, StatsError> {
        let n = d.len();

        // BUILD: first medoid minimizes total distance; the rest greedily
        // maximize cost reduction.
        let mut medoids: Vec<usize> = Vec::with_capacity(k);
        let first = (0..n)
            .min_by(|&a, &b| {
                let ca: f64 = (0..n).map(|j| d.get(a, j)).sum();
                let cb: f64 = (0..n).map(|j| d.get(b, j)).sum();
                ca.partial_cmp(&cb).expect("finite distances")
            })
            .expect("n > 0");
        medoids.push(first);
        while medoids.len() < k {
            let best = (0..n)
                .filter(|i| !medoids.contains(i))
                .min_by(|&a, &b| {
                    let cost = |cand: usize| -> f64 {
                        (0..n)
                            .map(|j| {
                                medoids
                                    .iter()
                                    .map(|&m| d.get(m, j))
                                    .chain(std::iter::once(d.get(cand, j)))
                                    .fold(f64::INFINITY, f64::min)
                            })
                            .sum()
                    };
                    cost(a).partial_cmp(&cost(b)).expect("finite distances")
                })
                .expect("candidates remain");
            medoids.push(best);
        }

        // SWAP: hill-climb until no single medoid/non-medoid swap improves cost.
        let assign = |medoids: &[usize]| -> (Vec<usize>, f64) {
            let mut labels = vec![0usize; n];
            let mut cost = 0.0;
            for (j, slot) in labels.iter_mut().enumerate() {
                let (label, dist) = medoids
                    .iter()
                    .enumerate()
                    .map(|(li, &m)| (li, d.get(m, j)))
                    .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"))
                    .expect("k >= 1");
                *slot = label;
                cost += dist;
            }
            (labels, cost)
        };

        let (_, mut cost) = assign(&medoids);
        let mut iterations = 0;
        loop {
            iterations += 1;
            if iterations > MAX_ITERATIONS {
                return Err(StatsError::NoConvergence {
                    routine: "k-medoids swap phase",
                    iterations: MAX_ITERATIONS,
                });
            }
            let mut improved = false;
            for mi in 0..k {
                for cand in 0..n {
                    if medoids.contains(&cand) {
                        continue;
                    }
                    let old = medoids[mi];
                    medoids[mi] = cand;
                    let (_, new_cost) = assign(&medoids);
                    if new_cost + 1e-12 < cost {
                        cost = new_cost;
                        improved = true;
                    } else {
                        medoids[mi] = old;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        medoids.sort_unstable();
        let (labels, cost) = assign(&medoids);
        Ok(KMedoids {
            medoids,
            labels,
            cost,
            iterations,
        })
    }

    fn blobs() -> Vec<Vec<f64>> {
        vec![
            vec![0.0, 0.0],
            vec![0.2, 0.1],
            vec![0.1, 0.2],
            vec![10.0, 10.0],
            vec![10.1, 9.9],
            vec![9.9, 10.2],
        ]
    }

    #[test]
    fn table_pam_matches_plain_pam_bit_for_bit() {
        // SplitMix64: the stats crate has no PRNG of its own.
        let mut state = 0x6b6d_6564_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let metrics = [Metric::Euclidean, Metric::Manhattan, Metric::Chebyshev];
        for case in 0..1200u64 {
            let n = 1 + (next() % 32) as usize;
            let dims = 1 + (next() % 4) as usize;
            // Every third case sits on a small integer grid: duplicate rows
            // and equal distances make ties everywhere.
            let grid = case % 3 == 0;
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| {
                    (0..dims)
                        .map(|_| {
                            if grid {
                                (next() % 4) as f64
                            } else {
                                (next() >> 11) as f64 / (1u64 << 53) as f64 * 10.0
                            }
                        })
                        .collect()
                })
                .collect();
            let k = 1 + (next() % n.min(10) as u64) as usize;
            let metric = metrics[(next() % 3) as usize];
            let d = DistanceTable::from_rows(&rows, metric).unwrap();
            let want = pam_reference(&d, k).unwrap();
            let got = k_medoids_table(&d, k).unwrap();
            let ctx = format!("case {case}: n={n} k={k} {metric:?} grid={grid}");
            assert_eq!(got.medoids, want.medoids, "{ctx}");
            assert_eq!(got.labels, want.labels, "{ctx}");
            assert_eq!(got.cost.to_bits(), want.cost.to_bits(), "{ctx}");
            assert_eq!(got.iterations, want.iterations, "{ctx}");
        }
    }

    #[test]
    fn two_blobs_two_medoids() {
        let r = k_medoids(&blobs(), 2, Metric::Euclidean).unwrap();
        assert_eq!(r.medoids.len(), 2);
        // One medoid in each blob.
        assert!(r.medoids[0] < 3 && r.medoids[1] >= 3);
        // Labels agree within blobs.
        assert_eq!(r.labels[0], r.labels[1]);
        assert_eq!(r.labels[3], r.labels[5]);
        assert_ne!(r.labels[0], r.labels[3]);
    }

    #[test]
    fn k_equals_n_zero_cost() {
        let obs = blobs();
        let r = k_medoids(&obs, obs.len(), Metric::Euclidean).unwrap();
        assert!(r.cost.abs() < 1e-12);
    }

    #[test]
    fn k_one_picks_most_central() {
        let obs = vec![vec![0.0], vec![1.0], vec![2.0], vec![10.0]];
        let r = k_medoids(&obs, 1, Metric::Euclidean).unwrap();
        // Point 1.0 or 2.0 minimizes total distance (1: 1+0+1+9=11, 2: 2+1+0+8=11).
        assert!(r.medoids[0] == 1 || r.medoids[0] == 2);
    }

    #[test]
    fn cost_decreases_with_k() {
        let obs = blobs();
        let mut last = f64::INFINITY;
        for k in 1..=4 {
            let r = k_medoids(&obs, k, Metric::Euclidean).unwrap();
            assert!(r.cost <= last + 1e-12, "cost rose at k={k}");
            last = r.cost;
        }
    }

    #[test]
    fn invalid_inputs() {
        assert!(k_medoids(&[], 1, Metric::Euclidean).is_err());
        assert!(k_medoids(&blobs(), 0, Metric::Euclidean).is_err());
        assert!(k_medoids(&blobs(), 7, Metric::Euclidean).is_err());
    }

    #[test]
    fn deterministic() {
        let a = k_medoids(&blobs(), 2, Metric::Euclidean).unwrap();
        let b = k_medoids(&blobs(), 2, Metric::Euclidean).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn labels_point_at_nearest_medoid() {
        let obs = blobs();
        let r = k_medoids(&obs, 2, Metric::Euclidean).unwrap();
        for (j, &label) in r.labels.iter().enumerate() {
            let own = Metric::Euclidean
                .distance(&obs[j], &obs[r.medoids[label]])
                .unwrap();
            for &m in &r.medoids {
                let other = Metric::Euclidean.distance(&obs[j], &obs[m]).unwrap();
                assert!(own <= other + 1e-12);
            }
        }
    }
}
