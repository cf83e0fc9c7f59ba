//! The Local Outlier Factor (Breunig et al., SIGMOD 2000) — the outlier
//! score the paper instantiates `score_S(x)` with.
//!
//! Implemented from scratch on the k-distance neighbourhoods of [`crate::knn`]:
//!
//! * reachability distance `reach-dist_k(p, o) = max(k-distance(o), d(p, o))`
//! * local reachability density
//!   `lrd_k(p) = 1 / (Σ_{o ∈ N_k(p)} reach-dist_k(p, o) / |N_k(p)|)`
//! * `LOF_k(p) = (Σ_{o ∈ N_k(p)} lrd_k(o) / lrd_k(p)) / |N_k(p)|`
//!
//! Duplicate-heavy data can drive `lrd → ∞`; ratios are resolved with the
//! standard convention `∞/∞ = 1` (a duplicated point deep inside a cluster
//! of duplicates is not an outlier), matching ELKI's behaviour.

use crate::distance::SubspaceView;
use crate::index::{knn_all_indexed, IndexKind, SubspaceIndex};
use crate::knn::Neighborhood;
use crate::scorer::SubspaceScorer;
use hics_data::Dataset;

/// Parameters of the LOF score.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LofParams {
    /// Neighbourhood size (the paper's `MinPts`). Default 10.
    pub k: usize,
    /// Maximum worker threads for the kNN phase. Default 16 (capped by the
    /// machine).
    pub max_threads: usize,
    /// Neighbour-search backend for the kNN phase. Default brute; the
    /// VP-tree returns bit-identical scores in `O(N log N)` total.
    pub index: IndexKind,
}

impl Default for LofParams {
    fn default() -> Self {
        Self {
            k: 10,
            max_threads: crate::parallel::available_threads(),
            index: IndexKind::Brute,
        }
    }
}

/// The LOF outlier scorer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lof {
    params: LofParams,
}

impl Lof {
    /// Creates a LOF scorer with the given parameters.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(params: LofParams) -> Self {
        assert!(params.k >= 1, "LOF requires k >= 1");
        Self { params }
    }

    /// Convenience constructor with only `k` (`MinPts`).
    pub fn with_k(k: usize) -> Self {
        Self::new(LofParams {
            k,
            ..LofParams::default()
        })
    }

    /// Neighbourhood size.
    pub fn k(&self) -> usize {
        self.params.k
    }

    /// Switches the kNN phase to the given neighbour-search backend
    /// (builder style). Scores are bit-identical for every backend.
    pub fn with_index(mut self, index: IndexKind) -> Self {
        self.params.index = index;
        self
    }

    /// Computes LOF scores for all objects using distances restricted to the
    /// attribute set `dims`.
    pub fn scores(&self, data: &Dataset, dims: &[usize]) -> Vec<f64> {
        let view = SubspaceView::new(data, dims);
        let index = SubspaceIndex::build(&view, self.params.index);
        let hoods = knn_all_indexed(&view, &index, self.params.k, self.params.max_threads);
        lof_from_neighborhoods(&hoods)
    }
}

impl SubspaceScorer for Lof {
    fn score_subspace(&self, data: &Dataset, dims: &[usize]) -> Vec<f64> {
        self.scores(data, dims)
    }

    fn name(&self) -> &'static str {
        "LOF"
    }
}

/// Computes the local reachability density of every object from its
/// k-distance neighbourhood (duplicate clusters give `lrd = ∞`).
///
/// Exposed separately from [`lof_from_neighborhoods`] so the trained-model
/// query path can keep the per-object densities around and score new points
/// against them without recomputing the batch.
pub fn lrd_from_neighborhoods(hoods: &[Neighborhood]) -> Vec<f64> {
    let mut lrd = vec![0.0f64; hoods.len()];
    for (i, h) in hoods.iter().enumerate() {
        let mut sum_reach = 0.0;
        for (&o, &d) in h.neighbors.iter().zip(&h.distances) {
            sum_reach += d.max(hoods[o as usize].k_distance);
        }
        lrd[i] = lrd_from_reach_sum(h.neighbors.len(), sum_reach);
    }
    lrd
}

/// `lrd = |N| / Σ reach-dist`, with the empty/degenerate convention `∞`.
#[inline]
pub(crate) fn lrd_from_reach_sum(neighbors: usize, sum_reach: f64) -> f64 {
    if sum_reach > 0.0 {
        neighbors as f64 / sum_reach
    } else {
        f64::INFINITY
    }
}

/// Computes LOF values given precomputed k-distance neighbourhoods.
pub fn lof_from_neighborhoods(hoods: &[Neighborhood]) -> Vec<f64> {
    lof_from_lrd(hoods, &lrd_from_neighborhoods(hoods))
}

/// LOF values from the neighbourhoods and their already computed densities
/// (`lrd = lrd_from_neighborhoods(hoods)`), for callers that keep both.
pub(crate) fn lof_from_lrd(hoods: &[Neighborhood], lrd: &[f64]) -> Vec<f64> {
    // LOF = mean of neighbour lrd ratios.
    hoods
        .iter()
        .enumerate()
        .map(|(i, h)| lof_of_query(lrd, &h.neighbors, lrd[i]))
        .collect()
}

/// `LOF(q)` from the trained per-object densities, the query's neighbour
/// ids, and the query's own density — shared between the batch path above
/// and the serving-time query scorer.
#[inline]
pub(crate) fn lof_of_query(lrd: &[f64], neighbors: &[u32], lrd_q: f64) -> f64 {
    if neighbors.is_empty() {
        return 1.0;
    }
    let mut acc = 0.0;
    for &o in neighbors {
        acc += lrd_ratio(lrd[o as usize], lrd_q);
    }
    acc / neighbors.len() as f64
}

/// `lrd_o / lrd_p` with the `∞/∞ = 1` convention.
#[inline]
fn lrd_ratio(lrd_o: f64, lrd_p: f64) -> f64 {
    match (lrd_o.is_infinite(), lrd_p.is_infinite()) {
        (true, true) => 1.0,
        (false, true) => 0.0,
        // lrd_p finite: a plain ratio; lrd_o = ∞ means the neighbour sits in
        // a duplicate cluster — the query is infinitely less dense.
        _ => lrd_o / lrd_p,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hics_data::SyntheticConfig;

    #[test]
    fn uniform_cluster_scores_near_one() {
        // A tight grid: every point has LOF ≈ 1.
        let mut rows = Vec::new();
        for x in 0..10 {
            for y in 0..10 {
                rows.push(vec![x as f64, y as f64]);
            }
        }
        let data = Dataset::from_rows(&rows);
        let scores = Lof::with_k(5).scores(&data, &[0, 1]);
        for (i, s) in scores.iter().enumerate() {
            assert!((s - 1.0).abs() < 0.3, "point {i} has LOF {s}");
        }
    }

    #[test]
    fn isolated_point_has_high_lof() {
        let mut rows = Vec::new();
        for x in 0..5 {
            for y in 0..5 {
                rows.push(vec![x as f64 * 0.1, y as f64 * 0.1]);
            }
        }
        rows.push(vec![5.0, 5.0]); // far away outlier
        let data = Dataset::from_rows(&rows);
        let scores = Lof::with_k(5).scores(&data, &[0, 1]);
        let outlier = scores[25];
        let max_inlier = scores[..25].iter().cloned().fold(0.0, f64::max);
        assert!(
            outlier > 3.0 * max_inlier,
            "outlier LOF {outlier} vs max inlier {max_inlier}"
        );
    }

    #[test]
    fn all_duplicates_score_one() {
        let data = Dataset::from_columns(vec![vec![2.0; 20]]);
        let scores = Lof::with_k(3).scores(&data, &[0]);
        assert!(scores.iter().all(|&s| s == 1.0), "{scores:?}");
    }

    #[test]
    fn point_next_to_duplicate_cluster() {
        // 10 duplicates + one point at distance 1: the lone point must get a
        // very large (here infinite) LOF, not NaN.
        let mut col = vec![0.0; 10];
        col.push(1.0);
        let data = Dataset::from_columns(vec![col]);
        let scores = Lof::with_k(3).scores(&data, &[0]);
        assert!(scores[10].is_infinite() || scores[10] > 100.0);
        assert!(!scores.iter().any(|s| s.is_nan()));
    }

    #[test]
    fn subspace_restriction_changes_result() {
        // Outlier only in attribute 1; attribute 0 is uniform.
        let g = SyntheticConfig::new(200, 4).with_seed(1).generate();
        let full = Lof::with_k(10).scores(&g.dataset, &[0, 1, 2, 3]);
        let sub = Lof::with_k(10).scores(&g.dataset, &[0]);
        assert_ne!(full, sub);
    }

    #[test]
    fn lof_detects_planted_subspace_outliers_in_their_block() {
        let g = SyntheticConfig::new(400, 4).with_seed(5).generate();
        let block = &g.planted_subspaces[0];
        let scores = Lof::with_k(10).scores(&g.dataset, block);
        // Mean LOF of planted outliers should exceed mean LOF of inliers.
        let (mut so, mut ko, mut si, mut ki) = (0.0, 0, 0.0, 0);
        for (i, &s) in scores.iter().enumerate() {
            if g.labels[i] {
                so += s;
                ko += 1;
            } else {
                si += s;
                ki += 1;
            }
        }
        assert!(so / ko as f64 > 1.5 * (si / ki as f64));
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let g = SyntheticConfig::new(300, 4).with_seed(9).generate();
        let a = Lof::new(LofParams {
            k: 8,
            max_threads: 1,
            ..LofParams::default()
        })
        .scores(&g.dataset, &[0, 1]);
        let b = Lof::new(LofParams {
            k: 8,
            max_threads: 8,
            ..LofParams::default()
        })
        .scores(&g.dataset, &[0, 1]);
        assert_eq!(a, b);
    }

    #[test]
    fn vptree_index_scores_are_bit_identical() {
        let g = SyntheticConfig::new(400, 5).with_seed(18).generate();
        for dims in [vec![0, 1], vec![1, 2, 4]] {
            let brute = Lof::with_k(9).scores(&g.dataset, &dims);
            let indexed = Lof::with_k(9)
                .with_index(crate::index::IndexKind::VpTree)
                .scores(&g.dataset, &dims);
            assert_eq!(brute, indexed, "dims {dims:?}");
        }
    }

    #[test]
    #[should_panic]
    fn rejects_zero_k() {
        Lof::new(LofParams {
            k: 0,
            max_threads: 1,
            ..LofParams::default()
        });
    }
}
