//! Representative subsetting — Section V-B/V-C of the paper
//! (Figs. 9–10, Table X).
//!
//! Application–input pairs are clustered hierarchically on their
//! principal-component coordinates; for every cluster count `k` the paper
//! evaluates the clustering SSE and the total execution time of a subset
//! built by taking the *shortest-running* member of each cluster, then picks
//! `k` at the Pareto-optimal trade-off of the two.

use stat_analysis::cluster::{agglomerative, Dendrogram, Linkage};
use stat_analysis::distance::Metric;
use stat_analysis::pareto::{knee_point, Candidate};
use stat_analysis::sse::sse_curve;
use stat_analysis::StatsError;

use crate::characterize::CharRecord;

/// One point of the SSE/time trade-off curve (Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TradeoffPoint {
    /// Cluster count.
    pub k: usize,
    /// Clustering SSE at `k`.
    pub sse: f64,
    /// Projected execution seconds of the k-representative subset.
    pub subset_seconds: f64,
}

/// The chosen subset for one group of pairs (rate or speed).
#[derive(Debug, Clone)]
pub struct SubsetAnalysis {
    /// Pair ids, index-aligned with the clustering input.
    pub ids: Vec<String>,
    /// The merge tree (Fig. 9).
    pub dendrogram: Dendrogram,
    /// The full trade-off curve over `k = 1..=n` (Fig. 10).
    pub curve: Vec<TradeoffPoint>,
    /// The Pareto-knee cluster count.
    pub chosen_k: usize,
    /// Indices of the chosen representatives (one per cluster).
    pub representatives: Vec<usize>,
    /// Projected seconds of running every pair.
    pub full_seconds: f64,
    /// Projected seconds of running only the representatives.
    pub subset_seconds: f64,
}

impl SubsetAnalysis {
    /// Clusters `records` on `score_rows` and selects the Pareto-knee
    /// subset, mirroring the paper's procedure.
    ///
    /// # Errors
    ///
    /// Returns a [`StatsError`] for empty inputs or mismatched lengths.
    pub fn fit(
        records: &[&CharRecord],
        score_rows: &[Vec<f64>],
        linkage: Linkage,
    ) -> Result<Self, StatsError> {
        if records.len() != score_rows.len() {
            return Err(StatsError::DimensionMismatch {
                op: "subset fit",
                left: (records.len(), 1),
                right: (score_rows.len(), 1),
            });
        }
        if records.is_empty() {
            return Err(StatsError::Empty {
                what: "subset records",
            });
        }
        let dendrogram = agglomerative(score_rows, linkage, Metric::Euclidean)?;
        let full_seconds: f64 = records.iter().map(|r| r.projected_seconds).sum();

        let cuts = sse_curve(score_rows, &dendrogram)?;
        let curve: Vec<TradeoffPoint> = cuts
            .iter()
            .zip(1..)
            .map(|(cut, k)| {
                let reps = representatives_for(records, &cut.labels, k);
                TradeoffPoint {
                    k,
                    sse: cut.sse,
                    subset_seconds: reps.iter().map(|&i| records[i].projected_seconds).sum(),
                }
            })
            .collect();

        // The degenerate endpoints (k = 1: useless subset; k = n: no saving)
        // stay in the candidate set — dominance removes them naturally.
        let candidates: Vec<Candidate> = curve
            .iter()
            .map(|p| Candidate {
                id: p.k,
                cost_a: p.sse,
                cost_b: p.subset_seconds,
            })
            .collect();
        let chosen_k = knee_point(&candidates)?.id;
        let representatives = representatives_for(records, &cuts[chosen_k - 1].labels, chosen_k);
        let subset_seconds: f64 = representatives
            .iter()
            .map(|&i| records[i].projected_seconds)
            .sum();

        Ok(SubsetAnalysis {
            ids: records.iter().map(|r| r.id.clone()).collect(),
            dendrogram,
            curve,
            chosen_k,
            representatives,
            full_seconds,
            subset_seconds,
        })
    }

    /// Percentage of execution time saved by the subset vs the full group.
    pub fn saving_pct(&self) -> f64 {
        if self.full_seconds <= 0.0 {
            0.0
        } else {
            (1.0 - self.subset_seconds / self.full_seconds) * 100.0
        }
    }

    /// Ids of the chosen representatives, sorted alphabetically (the
    /// paper's Table X listing order).
    pub fn representative_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self
            .representatives
            .iter()
            .map(|&i| self.ids[i].clone())
            .collect();
        ids.sort();
        ids
    }
}

/// Picks the shortest-running member of each cluster (the paper's rule).
fn representatives_for(records: &[&CharRecord], labels: &[usize], k: usize) -> Vec<usize> {
    let mut best: Vec<Option<usize>> = vec![None; k];
    for (i, &label) in labels.iter().enumerate() {
        let cur = &mut best[label];
        match cur {
            Some(j) if records[*j].projected_seconds <= records[i].projected_seconds => {}
            _ => *cur = Some(i),
        }
    }
    best.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::{characterize_suite, RunConfig};
    use crate::redundancy::RedundancyAnalysis;
    use workload_synth::cpu2017;
    use workload_synth::profile::InputSize;

    fn analyzed() -> (Vec<CharRecord>, Vec<Vec<f64>>) {
        let apps = vec![
            cpu2017::app("505.mcf_r").unwrap(),
            cpu2017::app("519.lbm_r").unwrap(),
            cpu2017::app("525.x264_r").unwrap(),
            cpu2017::app("541.leela_r").unwrap(),
            cpu2017::app("548.exchange2_r").unwrap(),
            cpu2017::app("549.fotonik3d_r").unwrap(),
        ];
        let records = characterize_suite(&apps, InputSize::Ref, &RunConfig::quick()).unwrap();
        let analysis = RedundancyAnalysis::fit_paper(&records).unwrap();
        let rows = analysis.score_rows();
        (records, rows)
    }

    #[test]
    fn subset_shrinks_time() {
        let (records, rows) = analyzed();
        let refs: Vec<&CharRecord> = records.iter().collect();
        let s = SubsetAnalysis::fit(&refs, &rows, Linkage::Average).unwrap();
        assert!(s.chosen_k >= 1 && s.chosen_k <= records.len());
        assert!(s.subset_seconds <= s.full_seconds);
        assert_eq!(s.representatives.len(), s.chosen_k);
        assert!(s.saving_pct() >= 0.0);
    }

    #[test]
    fn curve_is_complete_and_monotone_in_sse() {
        let (records, rows) = analyzed();
        let refs: Vec<&CharRecord> = records.iter().collect();
        let s = SubsetAnalysis::fit(&refs, &rows, Linkage::Ward).unwrap();
        assert_eq!(s.curve.len(), records.len());
        assert!(s.curve.windows(2).all(|w| w[1].sse <= w[0].sse + 1e-9));
        // k = n has SSE 0 (all singletons).
        assert!(s.curve.last().unwrap().sse.abs() < 1e-9);
    }

    #[test]
    fn representatives_are_cluster_minima() {
        let (records, rows) = analyzed();
        let refs: Vec<&CharRecord> = records.iter().collect();
        let s = SubsetAnalysis::fit(&refs, &rows, Linkage::Average).unwrap();
        let labels = s.dendrogram.cut(s.chosen_k).unwrap();
        for &rep in &s.representatives {
            let cluster = labels[rep];
            for (i, &l) in labels.iter().enumerate() {
                if l == cluster {
                    assert!(
                        records[rep].projected_seconds <= records[i].projected_seconds + 1e-12,
                        "rep {rep} not minimal in cluster {cluster}"
                    );
                }
            }
        }
    }

    #[test]
    fn one_representative_per_cluster() {
        let (records, rows) = analyzed();
        let refs: Vec<&CharRecord> = records.iter().collect();
        let s = SubsetAnalysis::fit(&refs, &rows, Linkage::Average).unwrap();
        let labels = s.dendrogram.cut(s.chosen_k).unwrap();
        let clusters: std::collections::HashSet<usize> =
            s.representatives.iter().map(|&i| labels[i]).collect();
        assert_eq!(clusters.len(), s.chosen_k);
    }

    #[test]
    fn mismatched_inputs_error() {
        let (records, rows) = analyzed();
        let refs: Vec<&CharRecord> = records.iter().collect();
        assert!(SubsetAnalysis::fit(&refs[..2], &rows, Linkage::Average).is_err());
        assert!(SubsetAnalysis::fit(&[], &[], Linkage::Average).is_err());
    }

    #[test]
    fn representative_ids_sorted() {
        let (records, rows) = analyzed();
        let refs: Vec<&CharRecord> = records.iter().collect();
        let s = SubsetAnalysis::fit(&refs, &rows, Linkage::Average).unwrap();
        let ids = s.representative_ids();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
    }
}
